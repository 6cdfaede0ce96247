//! Subset construction: tagged NFA → DFA over a partitioned alphabet.
//!
//! The automaton's alphabet is not `char` directly but a set of disjoint
//! character intervals computed from every class boundary appearing in the
//! NFA. Within one interval, all characters behave identically, so DFA
//! transitions are per-interval — typically a few dozen intervals for a SQL
//! token set instead of 1.1M code points.

use crate::nfa::{Nfa, StateId};
use std::collections::HashMap;
use std::ops::Range;

/// A deterministic automaton with tagged accepting states.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Sorted, disjoint alphabet intervals (inclusive).
    pub intervals: Vec<(char, char)>,
    /// States; index 0 is the start state.
    pub states: Vec<DfaState>,
}

/// One DFA state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfaState {
    /// Per-interval successor (`None` = reject).
    pub trans: Vec<Option<u32>>,
    /// Accepting tag (token rule index), smallest tag wins on conflicts.
    pub accept: Option<usize>,
}

impl Dfa {
    /// Build a DFA from a finished NFA.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        let intervals = alphabet_intervals(nfa);
        let states = subset_construction(nfa, &intervals, |set| {
            set.iter().filter_map(|&s| nfa.states[s].accept).min()
        })
        .into_iter()
        .map(|(trans, accept)| DfaState { trans, accept })
        .collect();
        Dfa { intervals, states }
    }

    /// Map a character to its alphabet interval, if any.
    pub fn classify(&self, c: char) -> Option<usize> {
        self.intervals
            .binary_search_by(|&(lo, hi)| {
                if c < lo {
                    std::cmp::Ordering::Greater
                } else if c > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
    }

    /// Step from `state` on character `c`.
    #[inline]
    pub fn step(&self, state: u32, c: char) -> Option<u32> {
        let ii = self.classify(c)?;
        self.states[state as usize].trans[ii]
    }

    /// Longest-match simulation from position 0 of `input`; returns
    /// `(match_len_bytes, tag)`.
    pub fn simulate(&self, input: &str) -> Option<(usize, usize)> {
        let mut state = 0u32;
        let mut best: Option<(usize, usize)> = None;
        let mut len = 0usize;
        for c in input.chars() {
            match self.step(state, c) {
                Some(next) => {
                    state = next;
                    len += c.len_utf8();
                    if let Some(tag) = self.states[state as usize].accept {
                        best = Some((len, tag));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Upper bound, in *characters*, on how far a maximal-munch scan can
    /// examine input past the end of the match it finally emits — the
    /// automaton keeps stepping after the last accepting state until it
    /// dies, and every state on that tail is non-accepting (an accept
    /// would have extended the match). The bound is therefore one char
    /// for the killing character plus the longest path through
    /// non-accepting states reachable from any accepting state. `None`
    /// means such a path can cycle (the lookahead is unbounded, e.g. a
    /// token that is a prefix of an arbitrarily long non-accepting
    /// pattern); incremental relexing then restarts from byte 0.
    pub fn probe_overhang(&self) -> Option<usize> {
        let tags = self
            .states
            .iter()
            .filter_map(|s| s.accept)
            .max()
            .map_or(0, |t| t + 1);
        self.probe_overhang_by_tag(tags)
            .into_iter()
            .try_fold(1usize, |acc, oh| oh.map(|oh| acc.max(oh)))
    }

    /// Per-rule refinement of [`Dfa::probe_overhang`]: entry `t` bounds
    /// the lookahead of any munch that *ends in an accepting state of
    /// rule `t`* — the rule that longest-match resolution actually
    /// reports for the match. A single unbounded rule (say, a quoted
    /// string whose body can run on forever unaccepted) then poisons
    /// only its own entry instead of the whole automaton: matches of
    /// every other rule keep a finite bound, and callers fall back to
    /// exact recorded probe frontiers for the unbounded rules alone.
    /// Entries for tags the automaton never accepts stay `Some(1)`.
    pub fn probe_overhang_by_tag(&self, tags: usize) -> Vec<Option<usize>> {
        // Longest non-accepting chain from each non-accepting state,
        // counting the state itself. Recursion depth is bounded by the
        // chain length, which this function proves finite before
        // returning it; `None` propagation marks every state on the DFS
        // stack above a cycle, which is exactly the set of states from
        // which that cycle is reachable.
        let n = self.states.len();
        let mut longest = vec![0usize; n];
        let mut done = vec![false; n];
        fn chain(
            dfa: &Dfa,
            s: usize,
            longest: &mut [usize],
            done: &mut [bool],
            on_stack: &mut [bool],
        ) -> Option<usize> {
            if done[s] {
                return Some(longest[s]);
            }
            if on_stack[s] {
                return None; // cycle through non-accepting states
            }
            on_stack[s] = true;
            let mut best = 1usize;
            for t in dfa.states[s].trans.iter().flatten() {
                let t = *t as usize;
                if dfa.states[t].accept.is_some() {
                    continue; // re-accepting paths extend the match instead
                }
                best = best.max(1 + chain(dfa, t, longest, done, on_stack)?);
            }
            on_stack[s] = false;
            done[s] = true;
            longest[s] = best;
            Some(best)
        }
        let mut on_stack = vec![false; n];
        let mut out = vec![Some(1usize); tags]; // the killing character itself
        for s in 0..n {
            let Some(tag) = self.states[s].accept else {
                continue;
            };
            if tag >= tags {
                continue;
            }
            for t in self.states[s].trans.iter().flatten() {
                let t = *t as usize;
                if self.states[t].accept.is_some() {
                    continue;
                }
                out[tag] = match (
                    out[tag],
                    chain(self, t, &mut longest, &mut done, &mut on_stack),
                ) {
                    (Some(a), Some(c)) => Some(a.max(1 + c)),
                    _ => None,
                };
            }
        }
        out
    }

    /// `true` if the automaton has no states (never after construction).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Subset construction over the alphabet `intervals`, shared by
/// [`Dfa::from_nfa`] and the lint's exact accept-set analysis
/// ([`crate::analysis`]). Returns one `(transitions, label)` pair per DFA
/// state in discovery order (state 0 is the start state); `label` records
/// what the caller keeps of the state's NFA state set.
///
/// Each NFA transition's class is resolved once to the runs of intervals
/// it covers (intervals are cut at every class boundary, so a class range
/// covers whole intervals). A DFA state's moves are then one pass over its
/// members' transitions into per-interval buckets, each closed with the
/// sparse [`Nfa::eps_closure`].
pub(crate) fn subset_construction<L>(
    nfa: &Nfa,
    intervals: &[(char, char)],
    mut label: impl FnMut(&[StateId]) -> L,
) -> Vec<(Vec<Option<u32>>, L)> {
    // Per NFA state: the target and covered interval run of each range.
    let mut covers: Vec<Vec<(StateId, Range<usize>)>> = vec![Vec::new(); nfa.states.len()];
    for (s, state) in nfa.states.iter().enumerate() {
        for (class, t) in &state.trans {
            for &(lo, hi) in class.ranges() {
                let run = intervals.partition_point(|iv| iv.0 < lo)
                    ..intervals.partition_point(|iv| iv.0 <= hi);
                covers[s].push((*t, run));
            }
        }
    }

    let mut seen = Vec::new();
    let mut buckets: Vec<Vec<StateId>> = vec![Vec::new(); intervals.len()];
    let mut index: HashMap<Vec<StateId>, u32> = HashMap::new();
    let mut states = Vec::new();
    let mut worklist = Vec::new();
    let mut last: (Vec<StateId>, u32) = (Vec::new(), 0);

    let start = nfa.eps_closure(&[nfa.start()], &mut seen);
    index.insert(start.clone(), 0);
    states.push((vec![None; intervals.len()], label(&start)));
    worklist.push((start, 0));

    while let Some((set, id)) = worklist.pop() {
        for (t, run) in set.iter().flat_map(|&s| &covers[s]) {
            for bucket in &mut buckets[run.clone()] {
                bucket.push(*t);
            }
        }
        for (ii, bucket) in buckets.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            // Runs of intervals (the letters of an identifier class, say)
            // usually move alike: an equal bucket has the same target.
            if *bucket != last.0 {
                let closed = nfa.eps_closure(bucket, &mut seen);
                let target = match index.get(&closed) {
                    Some(&t) => t,
                    None => {
                        let t = states.len() as u32;
                        index.insert(closed.clone(), t);
                        states.push((vec![None; intervals.len()], label(&closed)));
                        worklist.push((closed, t as usize));
                        t
                    }
                };
                last = (std::mem::take(bucket), target);
            }
            bucket.clear();
            states[id].0[ii] = Some(last.1);
        }
    }
    states
}

/// Compute the disjoint alphabet intervals induced by all class boundaries.
///
/// A single sorted sweep over range-boundary events decides coverage: each
/// class range contributes `+1` at its start and `-1` one past its end, so
/// an interval is kept iff the running depth at its low end is positive.
/// (The earlier implementation re-scanned every NFA transition per
/// candidate interval — quadratic in the number of class boundaries, which
/// the `full` token set has hundreds of.)
pub(crate) fn alphabet_intervals(nfa: &Nfa) -> Vec<(char, char)> {
    // Coverage events in u32 space: range start opens (+1), one past the
    // range end closes (-1). Event positions double as the cut points.
    let mut events: Vec<(u32, i32)> = Vec::new();
    for state in &nfa.states {
        for (class, _) in &state.trans {
            for &(lo, hi) in class.ranges() {
                events.push((lo as u32, 1));
                events.push((hi as u32 + 1, -1));
            }
        }
    }
    let mut cuts: Vec<u32> = events.iter().map(|&(at, _)| at).collect();
    // Always cut at the surrogate gap so no interval straddles it; gap
    // intervals are dropped below because their low end is not a `char`.
    cuts.push(0xD800);
    cuts.push(0xE000);
    cuts.sort_unstable();
    cuts.dedup();
    events.sort_unstable();

    let mut intervals = Vec::new();
    let mut depth = 0i32;
    let mut next_event = 0usize;
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1] - 1);
        // Accumulate every event at or before this interval's start; cut
        // points include every class boundary, so an interval is fully
        // inside or fully outside each class and the depth at `lo` is the
        // depth everywhere in the interval.
        while next_event < events.len() && events[next_event].0 <= lo {
            depth += events[next_event].1;
            next_event += 1;
        }
        if depth <= 0 {
            continue;
        }
        // Skip the surrogate gap (its low end is not a `char`).
        let lo_c = match char::from_u32(lo) {
            Some(c) => c,
            None => continue,
        };
        let hi_c = char::from_u32(hi).expect("interval ends never fall inside the surrogate gap");
        intervals.push((lo_c, hi_c));
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parse;

    fn dfa_of(patterns: &[&str]) -> Dfa {
        let mut nfa = Nfa::new();
        for (i, p) in patterns.iter().enumerate() {
            nfa.add_pattern(&parse(p).unwrap(), i);
        }
        nfa.finish();
        Dfa::from_nfa(&nfa)
    }

    #[test]
    fn literal_simulation() {
        let d = dfa_of(&["abc"]);
        assert_eq!(d.simulate("abc"), Some((3, 0)));
        assert_eq!(d.simulate("abx"), None);
        assert_eq!(d.simulate("ab"), None);
    }

    #[test]
    fn longest_match() {
        let d = dfa_of(&["a+"]);
        assert_eq!(d.simulate("aaab"), Some((3, 0)));
    }

    #[test]
    fn priority_resolution() {
        let d = dfa_of(&["select", "[a-z]+"]);
        assert_eq!(d.simulate("select"), Some((6, 0)));
        assert_eq!(d.simulate("selected"), Some((8, 1)));
        assert_eq!(d.simulate("sel"), Some((3, 1)));
    }

    #[test]
    fn intervals_are_disjoint_and_sorted() {
        let d = dfa_of(&["[a-m]+", "[k-z]+", "[0-9]"]);
        for w in d.intervals.windows(2) {
            assert!(w[0].1 < w[1].0, "overlap: {:?}", d.intervals);
        }
        // boundary char 'k' splits [a-m] and [k-z]
        assert!(d.classify('j') != d.classify('k'));
    }

    #[test]
    fn classify_outside_alphabet() {
        let d = dfa_of(&["[a-z]+"]);
        assert_eq!(d.classify('0'), None);
        assert!(d.classify('q').is_some());
    }

    #[test]
    fn agreement_with_nfa_reference() {
        let patterns = ["[0-9]+", "[0-9]+\\.[0-9]+", "[a-zA-Z_][a-zA-Z0-9_]*", "'([^'])*'"];
        let mut nfa = Nfa::new();
        for (i, p) in patterns.iter().enumerate() {
            nfa.add_pattern(&parse(p).unwrap(), i);
        }
        nfa.finish();
        let dfa = Dfa::from_nfa(&nfa);
        for input in ["123", "12.5", "hello", "'str'", "12.x", "x12", "''", "9"] {
            assert_eq!(dfa.simulate(input), nfa.simulate(input), "on {input:?}");
        }
    }

    #[test]
    fn probe_overhang_bounds_lookahead() {
        // `12.x`: after accepting `12`, the munch examines `.` (live,
        // hoping for a fraction) and `x` (dead) — overhang 2.
        let d = dfa_of(&["[0-9]+(\\.[0-9]+)?", "[a-z]+"]);
        let oh = d.probe_overhang().unwrap();
        assert!(oh >= 2, "number lookahead needs 2, got {oh}");
        // Exponent forms look one further (`1e+` then the dead byte).
        let d = dfa_of(&["[0-9]+(\\.[0-9]+)?([eE][+\\-]?[0-9]+)?"]);
        assert!(d.probe_overhang().unwrap() >= 3);
        // Pure keyword/ident sets die immediately after their match.
        let d = dfa_of(&["[a-z]+", "[0-9]+"]);
        assert_eq!(d.probe_overhang(), Some(1));
        // A standalone `/` that is also the prefix of a block comment can
        // stay live through an unbounded non-accepting comment body:
        // overhang is unbounded.
        let d = dfa_of(&["/", "/\\*([^*])*\\*/"]);
        assert_eq!(d.probe_overhang(), None);
    }

    #[test]
    fn dot_like_negated_class() {
        let d = dfa_of(&["--[^\n]*"]);
        assert_eq!(d.simulate("-- a comment"), Some((12, 0)));
        assert_eq!(d.simulate("-- a\nrest"), Some((4, 0)));
    }
}
