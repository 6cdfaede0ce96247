//! Property-based differential tests over the lexer-generator pipeline:
//! for random patterns and inputs, the Thompson NFA, the subset-construction
//! DFA, and the minimized DFA must agree exactly.

use proptest::prelude::*;
use sqlweave_lexgen::dfa::Dfa;
use sqlweave_lexgen::minimize::minimize;
use sqlweave_lexgen::nfa::Nfa;
use sqlweave_lexgen::regex::{parse, Regex};

/// A strategy for random regexes over a small alphabet, by construction
/// valid (we generate the AST, then render it to pattern syntax).
fn arb_regex() -> impl Strategy<Value = String> {
    arb_regex_over(vec!["a", "b", "c", "[ab]", "[a-c]", "[^a]", "x"])
}

/// Random regexes over the given leaf patterns.
fn arb_regex_over(leaves: Vec<&'static str>) -> impl Strategy<Value = String> {
    let leaf = prop::sample::select(leaves).prop_map(str::to_string);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // concatenation
            prop::collection::vec(inner.clone(), 1..4).prop_map(|v| v.join("")),
            // alternation
            prop::collection::vec(inner.clone(), 2..4).prop_map(|v| format!("({})", v.join("|"))),
            // quantifiers
            inner.clone().prop_map(|r| format!("({r})*")),
            inner.clone().prop_map(|r| format!("({r})+")),
            inner.prop_map(|r| format!("({r})?")),
        ]
    })
}

fn arb_input() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(vec!['a', 'b', 'c', 'x', 'y']), 0..10)
        .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nfa_dfa_minimized_agree(pattern in arb_regex(), input in arb_input()) {
        let re = parse(&pattern).unwrap_or_else(|e| panic!("generated bad pattern {pattern:?}: {e}"));
        let mut nfa = Nfa::new();
        nfa.add_pattern(&re, 0);
        nfa.finish();
        let dfa = Dfa::from_nfa(&nfa);
        let min = minimize(&dfa);
        let n = nfa.simulate(&input);
        let d = dfa.simulate(&input);
        let m = min.simulate(&input);
        prop_assert_eq!(n, d, "NFA vs DFA on {:?} / {:?}", pattern, input);
        prop_assert_eq!(d, m, "DFA vs minimized on {:?} / {:?}", pattern, input);
    }

    #[test]
    fn minimization_never_grows(pattern in arb_regex()) {
        let re = parse(&pattern).unwrap();
        let mut nfa = Nfa::new();
        nfa.add_pattern(&re, 0);
        nfa.finish();
        let dfa = Dfa::from_nfa(&nfa);
        let min = minimize(&dfa);
        prop_assert!(min.len() <= dfa.len());
    }

    #[test]
    fn multi_pattern_priority_is_stable(input in arb_input()) {
        // keyword-style literals + identifier pattern: for any input the
        // winning tag must be the longest match, ties to the smaller tag.
        let patterns = ["ab", "abc", "[a-c]+"];
        let mut nfa = Nfa::new();
        for (i, p) in patterns.iter().enumerate() {
            nfa.add_pattern(&parse(p).unwrap(), i);
        }
        nfa.finish();
        let dfa = Dfa::from_nfa(&nfa);
        prop_assert_eq!(nfa.simulate(&input), dfa.simulate(&input));
        if let Some((len, tag)) = dfa.simulate(&input) {
            // cross-check: no other pattern matches a longer prefix, and no
            // smaller tag matches the same length.
            for (i, p) in patterns.iter().enumerate() {
                let mut single = Nfa::new();
                single.add_pattern(&parse(p).unwrap(), 0);
                single.finish();
                if let Some((l2, _)) = single.simulate(&input) {
                    prop_assert!(l2 <= len, "pattern {i} matched longer");
                    if l2 == len {
                        prop_assert!(tag <= i, "priority violated");
                    }
                }
            }
        }
    }
}

/// Inputs mixing ASCII with multi-byte scalars, so scans cross the
/// byte-class fast path and the UTF-8 interval fallback repeatedly.
fn arb_utf8_input() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec!['a', 'b', 'c', 'x', ' ', 'é', 'λ', '中', '🦀']),
        0..12,
    )
    .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn compiled_scanner_agrees_with_oracles(
        patterns in prop::collection::vec(arb_regex(), 1..4),
        input in arb_utf8_input(),
    ) {
        let mut ts = sqlweave_lexgen::TokenSet::new();
        for (i, p) in patterns.iter().enumerate() {
            ts.pattern(&format!("P{i}"), p).unwrap();
        }
        let scanner = ts.build().unwrap();
        let nfas = ts.build_rule_nfas().unwrap();
        let fast = scanner.scan(&input);
        let interval = scanner.scan_reference(&input);
        prop_assert_eq!(&fast, &interval, "compiled vs interval on {:?} / {:?}", patterns, input);
        let naive = scanner.scan_naive(&input, &nfas);
        prop_assert_eq!(&fast, &naive, "compiled vs naive on {:?} / {:?}", patterns, input);
        if let (Err(f), Err(i)) = (&fast, &interval) {
            prop_assert_eq!(f.to_string(), i.to_string());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Several tagged patterns in one automaton, over classes that overlap
    /// each other and cross the ASCII boundary (ranges straddling it,
    /// multi-byte and astral scalars, negations covering almost all of
    /// Unicode): the alphabet partition and the per-interval moves of the
    /// subset construction must agree with direct NFA simulation.
    #[test]
    fn tagged_sets_with_wide_classes_agree_with_nfa(
        patterns in prop::collection::vec(
            arb_regex_over(vec!["a", "é", "[a-zé]", "[x-λ]", "[^a]", "[^é-中]", "[λ-🦀]", "中"]),
            2..5,
        ),
        input in arb_utf8_input(),
    ) {
        let mut nfa = Nfa::new();
        for (tag, p) in patterns.iter().enumerate() {
            nfa.add_pattern(&parse(p).unwrap(), tag);
        }
        nfa.finish();
        let dfa = Dfa::from_nfa(&nfa);
        let d = dfa.simulate(&input);
        prop_assert_eq!(nfa.simulate(&input), d, "NFA vs DFA on {:?} / {:?}", patterns, input);
        prop_assert_eq!(d, minimize(&dfa).simulate(&input), "DFA vs minimized on {:?}", patterns);
    }
}

#[test]
fn regex_ast_roundtrip_samples() {
    // literal helpers produce ASTs equal to their parsed spelling
    assert_eq!(parse("abc").unwrap(), Regex::literal("abc"));
}
