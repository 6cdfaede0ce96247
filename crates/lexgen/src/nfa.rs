//! Thompson construction: [`Regex`] → nondeterministic finite automaton.
//!
//! The NFA is tagged: several patterns can be compiled into one automaton,
//! each with a distinct accepting *tag* (the token rule index). Subset
//! construction later resolves tag conflicts by smallest tag (= highest
//! declaration priority).

use crate::regex::{CharClass, Regex};

/// State index inside an [`Nfa`].
pub type StateId = usize;

/// One NFA state.
#[derive(Debug, Clone, Default)]
pub struct NfaState {
    /// ε-transitions.
    pub eps: Vec<StateId>,
    /// Character-class transitions.
    pub trans: Vec<(CharClass, StateId)>,
    /// Accepting tag, if this is a final state.
    pub accept: Option<usize>,
}

/// A tagged NFA over `char`.
#[derive(Debug, Clone, Default)]
pub struct Nfa {
    /// All states; state 0 is the start state once [`Nfa::finish`] ran.
    pub states: Vec<NfaState>,
    start: Option<StateId>,
    fragment_starts: Vec<StateId>,
}

impl Nfa {
    /// Empty automaton; add patterns with [`Nfa::add_pattern`].
    pub fn new() -> Self {
        Nfa::default()
    }

    fn push(&mut self) -> StateId {
        self.states.push(NfaState::default());
        self.states.len() - 1
    }

    /// Compile `re` into this automaton with accepting tag `tag`.
    pub fn add_pattern(&mut self, re: &Regex, tag: usize) {
        let (start, end) = self.compile(re);
        self.states[end].accept = Some(tag);
        self.fragment_starts.push(start);
    }

    /// Create the shared start state wiring all added patterns together.
    pub fn finish(&mut self) -> StateId {
        let start = self.push();
        let frags = std::mem::take(&mut self.fragment_starts);
        self.states[start].eps.extend(frags);
        self.start = Some(start);
        start
    }

    /// The start state; panics if [`Nfa::finish`] was not called.
    pub fn start(&self) -> StateId {
        self.start.expect("Nfa::finish must be called before use")
    }

    /// Compile a regex fragment, returning `(entry, exit)` states.
    fn compile(&mut self, re: &Regex) -> (StateId, StateId) {
        match re {
            Regex::Empty => {
                let s = self.push();
                let e = self.push();
                self.states[s].eps.push(e);
                (s, e)
            }
            Regex::Class(c) => {
                let s = self.push();
                let e = self.push();
                self.states[s].trans.push((c.clone(), e));
                (s, e)
            }
            Regex::Concat(items) => {
                let mut entry = None;
                let mut prev_exit: Option<StateId> = None;
                for item in items {
                    let (s, e) = self.compile(item);
                    if let Some(pe) = prev_exit {
                        self.states[pe].eps.push(s);
                    } else {
                        entry = Some(s);
                    }
                    prev_exit = Some(e);
                }
                match (entry, prev_exit) {
                    (Some(s), Some(e)) => (s, e),
                    _ => self.compile(&Regex::Empty),
                }
            }
            Regex::Alt(alts) => {
                let s = self.push();
                let e = self.push();
                for alt in alts {
                    let (as_, ae) = self.compile(alt);
                    self.states[s].eps.push(as_);
                    self.states[ae].eps.push(e);
                }
                (s, e)
            }
            Regex::Star(inner) => {
                let s = self.push();
                let e = self.push();
                let (is, ie) = self.compile(inner);
                self.states[s].eps.push(is);
                self.states[s].eps.push(e);
                self.states[ie].eps.push(is);
                self.states[ie].eps.push(e);
                (s, e)
            }
            Regex::Plus(inner) => {
                let (is, ie) = self.compile(inner);
                let e = self.push();
                self.states[ie].eps.push(is);
                self.states[ie].eps.push(e);
                (is, e)
            }
            Regex::Opt(inner) => {
                let s = self.push();
                let e = self.push();
                let (is, ie) = self.compile(inner);
                self.states[s].eps.push(is);
                self.states[s].eps.push(e);
                self.states[ie].eps.push(e);
                (s, e)
            }
        }
    }

    /// ε-closure of a state set (sorted, deduped). Sparse: `seen` is a
    /// scratch bitmap reused across calls (all-false between them), so
    /// the cost is the closure's size, not the automaton's.
    pub fn eps_closure(&self, set: &[StateId], seen: &mut Vec<bool>) -> Vec<StateId> {
        seen.resize(self.states.len(), false);
        let mut out = Vec::new();
        let mut stack = set.to_vec();
        while let Some(s) = stack.pop() {
            if !std::mem::replace(&mut seen[s], true) {
                out.push(s);
                stack.extend(&self.states[s].eps);
            }
        }
        for &s in &out {
            seen[s] = false;
        }
        out.sort_unstable();
        out
    }

    /// Simulate the NFA on `input` from the start state; returns the
    /// accepting tag of the longest match from position 0 (with ties broken
    /// by smallest tag) and the match length. Reference semantics for
    /// differential tests and the naive-scanner ablation.
    pub fn simulate(&self, input: &str) -> Option<(usize, usize)> {
        let mut seen = Vec::new();
        let mut current = self.eps_closure(&[self.start()], &mut seen);
        let mut best: Option<(usize, usize)> = None;
        let mut len = 0usize;
        self.note_accept(&current, len, &mut best);
        for c in input.chars() {
            let next: Vec<StateId> = current
                .iter()
                .flat_map(|&s| &self.states[s].trans)
                .filter(|(class, _)| class.contains(c))
                .map(|&(_, t)| t)
                .collect();
            if next.is_empty() {
                break;
            }
            current = self.eps_closure(&next, &mut seen);
            len += c.len_utf8();
            self.note_accept(&current, len, &mut best);
        }
        best
    }

    fn note_accept(&self, set: &[StateId], len: usize, best: &mut Option<(usize, usize)>) {
        let tag = set.iter().filter_map(|&s| self.states[s].accept).min();
        if let Some(tag) = tag {
            if len > 0 {
                match best {
                    Some((blen, btag)) if *blen > len || (*blen == len && *btag <= tag) => {}
                    _ => *best = Some((len, tag)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parse;

    fn nfa_of(pattern: &str) -> Nfa {
        let re = parse(pattern).unwrap();
        let mut nfa = Nfa::new();
        nfa.add_pattern(&re, 0);
        nfa.finish();
        nfa
    }

    fn matches(pattern: &str, input: &str) -> bool {
        nfa_of(pattern).simulate(input) == Some((input.len(), 0))
    }

    #[test]
    fn literal_match() {
        assert!(matches("abc", "abc"));
        assert!(!matches("abc", "abd"));
    }

    #[test]
    fn star_matches_zero_or_more() {
        assert!(matches("ab*", "a"));
        assert!(matches("ab*", "abbb"));
        assert!(!matches("ab*", "ba"));
    }

    #[test]
    fn plus_requires_one() {
        assert!(!matches("ab+c", "ac"));
        assert!(matches("ab+c", "abc"));
        assert!(matches("ab+c", "abbbc"));
    }

    #[test]
    fn opt_and_alt() {
        assert!(matches("colou?r", "color"));
        assert!(matches("colou?r", "colour"));
        assert!(matches("cat|dog", "dog"));
        assert!(!matches("cat|dog", "cow"));
    }

    #[test]
    fn class_and_dot() {
        assert!(matches("[0-9]+", "12345"));
        assert!(matches("'[^']*'", "'hello world'"));
        assert!(!matches("'[^']*'", "'it's'"));
    }

    #[test]
    fn longest_match_reported() {
        let nfa = nfa_of("a+");
        assert_eq!(nfa.simulate("aaab"), Some((3, 0)));
    }

    #[test]
    fn tag_priority_on_tie() {
        // keyword vs identifier, same length: smaller tag wins.
        let kw = parse("select").unwrap();
        let ident = parse("[a-z]+").unwrap();
        let mut nfa = Nfa::new();
        nfa.add_pattern(&kw, 0);
        nfa.add_pattern(&ident, 1);
        nfa.finish();
        assert_eq!(nfa.simulate("select"), Some((6, 0)));
        // longer identifier beats shorter keyword prefix
        assert_eq!(nfa.simulate("selects"), Some((7, 1)));
        assert_eq!(nfa.simulate("table"), Some((5, 1)));
    }

    #[test]
    fn empty_regex_matches_empty_only() {
        let nfa = nfa_of("");
        // zero-length matches are suppressed (len > 0 requirement)
        assert_eq!(nfa.simulate("x"), None);
    }

    #[test]
    fn no_match_returns_none() {
        assert_eq!(nfa_of("[0-9]+").simulate("abc"), None);
    }
}
