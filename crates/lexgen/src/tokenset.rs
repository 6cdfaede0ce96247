//! Token-rule collections — the runtime form of the paper's per-feature
//! *token files*.
//!
//! A [`TokenSet`] is an ordered list of rules. Order is priority: when two
//! rules match the same longest lexeme, the earlier rule wins. Keywords are
//! declared before patterns by convention (the composition layer in
//! `sqlweave-core` enforces this ordering when merging token files).

use crate::compiled::{BitSet, CompiledDfa};
use crate::dfa::Dfa;
use crate::minimize::minimize;
use crate::nfa::Nfa;
use crate::regex::{self, Regex, RegexError};
use crate::scanner::Scanner;
use crate::vector::VectorTables;
use std::fmt;

/// The definition of one token rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleKind {
    /// Case-insensitive reserved word; name doubles as the spelling.
    Keyword,
    /// Exact literal operator/punctuation.
    Punct(String),
    /// Regular-expression pattern.
    Pattern(String),
    /// Regular-expression pattern whose matches are dropped.
    Skip(String),
}

/// A named token rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenRule {
    /// Token name as used by grammars (e.g. `SELECT`, `IDENT`).
    pub name: String,
    /// What the rule matches.
    pub kind: RuleKind,
}

impl TokenRule {
    /// `true` if this rule's matches are discarded.
    pub fn is_skip(&self) -> bool {
        matches!(self.kind, RuleKind::Skip(_))
    }

    /// The regex this rule compiles to.
    pub fn to_regex(&self) -> Result<Regex, RegexError> {
        match &self.kind {
            RuleKind::Keyword => Ok(Regex::literal_ci(&self.name)),
            RuleKind::Punct(lit) => Ok(Regex::literal(lit)),
            RuleKind::Pattern(p) | RuleKind::Skip(p) => regex::parse(p),
        }
    }
}

/// Error building a token set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenSetError {
    /// Two rules share a name but differ in definition.
    Conflict { name: String, existing: RuleKind, new: RuleKind },
    /// A pattern failed to parse.
    BadPattern { name: String, error: RegexError },
    /// An empty keyword or punct literal.
    EmptyLiteral { name: String },
}

impl fmt::Display for TokenSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenSetError::Conflict { name, existing, new } => write!(
                f,
                "token `{name}` defined twice with different rules: {existing:?} vs {new:?}"
            ),
            TokenSetError::BadPattern { name, error } => {
                write!(f, "token `{name}` has a bad pattern: {error}")
            }
            TokenSetError::EmptyLiteral { name } => {
                write!(f, "token `{name}` has an empty literal")
            }
        }
    }
}

impl std::error::Error for TokenSetError {}

/// An ordered, deduplicated collection of token rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenSet {
    rules: Vec<TokenRule>,
}

impl TokenSet {
    /// Empty set.
    pub fn new() -> Self {
        TokenSet::default()
    }

    /// The rules in priority order.
    pub fn rules(&self) -> &[TokenRule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if no rules are defined.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Find a rule by name.
    pub fn get(&self, name: &str) -> Option<&TokenRule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// Add a rule. Identical redefinitions are idempotent; conflicting ones
    /// error. This is the primitive the composition layer uses to merge
    /// per-feature token files.
    pub fn add(&mut self, rule: TokenRule) -> Result<(), TokenSetError> {
        if rule.name.is_empty() {
            return Err(TokenSetError::EmptyLiteral { name: rule.name });
        }
        match &rule.kind {
            RuleKind::Punct(l) if l.is_empty() => {
                return Err(TokenSetError::EmptyLiteral { name: rule.name })
            }
            RuleKind::Pattern(p) | RuleKind::Skip(p) => {
                if let Err(error) = regex::parse(p) {
                    return Err(TokenSetError::BadPattern { name: rule.name, error });
                }
            }
            _ => {}
        }
        if let Some(existing) = self.get(&rule.name) {
            if existing.kind == rule.kind {
                return Ok(());
            }
            return Err(TokenSetError::Conflict {
                name: rule.name.clone(),
                existing: existing.kind.clone(),
                new: rule.kind,
            });
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Declare a case-insensitive keyword; its token name is its spelling.
    pub fn keyword(&mut self, word: &str) -> Result<(), TokenSetError> {
        self.add(TokenRule { name: word.to_ascii_uppercase(), kind: RuleKind::Keyword })
    }

    /// Declare a punctuation/operator literal.
    pub fn punct(&mut self, name: &str, literal: &str) -> Result<(), TokenSetError> {
        self.add(TokenRule {
            name: name.to_string(),
            kind: RuleKind::Punct(literal.to_string()),
        })
    }

    /// Declare a pattern token.
    pub fn pattern(&mut self, name: &str, pattern: &str) -> Result<(), TokenSetError> {
        self.add(TokenRule {
            name: name.to_string(),
            kind: RuleKind::Pattern(pattern.to_string()),
        })
    }

    /// Declare a skipped pattern (whitespace, comments).
    pub fn skip(&mut self, name: &str, pattern: &str) -> Result<(), TokenSetError> {
        self.add(TokenRule {
            name: name.to_string(),
            kind: RuleKind::Skip(pattern.to_string()),
        })
    }

    /// Merge `other` into `self` (rule-by-rule [`TokenSet::add`]).
    pub fn merge(&mut self, other: &TokenSet) -> Result<(), TokenSetError> {
        for rule in &other.rules {
            self.add(rule.clone())?;
        }
        Ok(())
    }

    /// Compile to a scanner. Rules are reordered so that keywords and puncts
    /// precede patterns (declaration order preserved within each class),
    /// matching the intuition that specific literals outrank generic
    /// patterns of the same length; longest-match still lets a longer
    /// pattern win.
    pub fn build(&self) -> Result<Scanner, TokenSetError> {
        let (ordered, nfa) = self.prioritized_nfa()?;
        let dfa = minimize(&Dfa::from_nfa(&nfa));
        let skip: BitSet = ordered.iter().map(TokenRule::is_skip).collect();
        let compiled = CompiledDfa::compile(&dfa, &skip);
        let vector = VectorTables::build(&ordered, &dfa, &compiled, &skip);
        let overhang_by_tag = dfa.probe_overhang_by_tag(ordered.len()).into_boxed_slice();
        Ok(Scanner {
            dfa,
            overhang_by_tag,
            compiled,
            vector,
            names: ordered
                .iter()
                .map(|r| r.name.clone().into_boxed_str())
                .collect(),
            skip,
        })
    }

    /// Build per-rule NFAs in the same priority order as [`TokenSet::build`]
    /// (for the naive-scanner ablation).
    pub fn build_rule_nfas(&self) -> Result<Vec<Nfa>, TokenSetError> {
        self.prioritized()
            .iter()
            .map(|rule| {
                let re = rule.to_regex().map_err(|error| TokenSetError::BadPattern {
                    name: rule.name.clone(),
                    error,
                })?;
                let mut nfa = Nfa::new();
                nfa.add_pattern(&re, 0);
                nfa.finish();
                Ok(nfa)
            })
            .collect()
    }

    /// The [`TokenSet::prioritized`] rules compiled into one tagged NFA
    /// (tag = priority index), as the scanner and the lint analysis see it.
    pub(crate) fn prioritized_nfa(&self) -> Result<(Vec<TokenRule>, Nfa), TokenSetError> {
        let rules = self.prioritized();
        let mut nfa = Nfa::new();
        for (tag, rule) in rules.iter().enumerate() {
            let re = rule.to_regex().map_err(|error| TokenSetError::BadPattern {
                name: rule.name.clone(),
                error,
            })?;
            nfa.add_pattern(&re, tag);
        }
        nfa.finish();
        Ok((rules, nfa))
    }

    /// Rules with keywords/puncts hoisted above patterns/skips.
    pub(crate) fn prioritized(&self) -> Vec<TokenRule> {
        let mut ordered: Vec<TokenRule> = self
            .rules
            .iter()
            .filter(|r| matches!(r.kind, RuleKind::Keyword | RuleKind::Punct(_)))
            .cloned()
            .collect();
        ordered.extend(
            self.rules
                .iter()
                .filter(|r| matches!(r.kind, RuleKind::Pattern(_) | RuleKind::Skip(_)))
                .cloned(),
        );
        ordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotent_add() {
        let mut ts = TokenSet::new();
        ts.keyword("SELECT").unwrap();
        ts.keyword("SELECT").unwrap(); // same rule, fine
        ts.keyword("select").unwrap(); // names normalize to uppercase
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn conflicting_definition_rejected() {
        let mut ts = TokenSet::new();
        ts.pattern("NUM", "[0-9]+").unwrap();
        let err = ts.pattern("NUM", "[0-9]+(\\.[0-9]+)?").unwrap_err();
        assert!(matches!(err, TokenSetError::Conflict { name, .. } if name == "NUM"));
    }

    #[test]
    fn bad_pattern_rejected_eagerly() {
        let mut ts = TokenSet::new();
        let err = ts.pattern("BROKEN", "[a-").unwrap_err();
        assert!(matches!(err, TokenSetError::BadPattern { .. }));
    }

    #[test]
    fn empty_literal_rejected() {
        let mut ts = TokenSet::new();
        assert!(ts.punct("X", "").is_err());
    }

    #[test]
    fn merge_composes_token_files() {
        // Simulates the paper: each feature contributes a token file.
        let mut base = TokenSet::new();
        base.keyword("SELECT").unwrap();
        base.pattern("IDENT", "[a-z]+").unwrap();

        let mut where_tokens = TokenSet::new();
        where_tokens.keyword("WHERE").unwrap();
        where_tokens.punct("EQ", "=").unwrap();
        where_tokens.pattern("IDENT", "[a-z]+").unwrap(); // shared, identical

        base.merge(&where_tokens).unwrap();
        assert_eq!(base.len(), 4);
    }

    #[test]
    fn merge_conflict_detected() {
        let mut a = TokenSet::new();
        a.pattern("IDENT", "[a-z]+").unwrap();
        let mut b = TokenSet::new();
        b.pattern("IDENT", "[A-Za-z]+").unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn keywords_beat_patterns_regardless_of_declaration_order() {
        let mut ts = TokenSet::new();
        ts.pattern("IDENT", "[a-z]+").unwrap(); // declared FIRST
        ts.keyword("from").unwrap();
        let s = ts.build().unwrap();
        let toks = s.scan("from").unwrap();
        assert_eq!(s.name(toks[0].kind), "FROM");
    }

    #[test]
    fn naive_scanner_agrees_with_dfa() {
        let mut ts = TokenSet::new();
        ts.keyword("SELECT").unwrap();
        ts.punct("LE", "<=").unwrap();
        ts.punct("LT", "<").unwrap();
        ts.pattern("IDENT", "[a-z]+").unwrap();
        ts.pattern("NUM", "[0-9]+").unwrap();
        ts.skip("WS", " +").unwrap();
        let s = ts.build().unwrap();
        let nfas = ts.build_rule_nfas().unwrap();
        for input in ["select x", "a <= 10", "a < b", "x1", "selectx 5"] {
            // "x1" fails both ways? IDENT then NUM: yes lexes as [x][1]? IDENT is [a-z]+ so "x", NUM "1".
            let fast = s.scan(input);
            let naive = s.scan_naive(input, &nfas);
            assert_eq!(fast, naive, "on {input:?}");
        }
    }

    #[test]
    fn punct_longest_match() {
        let mut ts = TokenSet::new();
        ts.punct("LT", "<").unwrap();
        ts.punct("LE", "<=").unwrap();
        ts.punct("NE", "<>").unwrap();
        let s = ts.build().unwrap();
        let toks = s.scan("<=<><").unwrap();
        let names: Vec<_> = toks.iter().map(|t| s.name(t.kind)).collect();
        assert_eq!(names, ["LE", "NE", "LT"]);
    }
}
