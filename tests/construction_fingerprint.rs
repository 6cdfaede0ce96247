//! Parser construction is pinned per dialect preset.
//!
//! For each of the six presets, the minimized scanner DFA (alphabet
//! intervals, states, transitions, accept tags) and the complete LL(k)
//! lookahead analysis at k = 1, 2 and 3 (every decision, witness and
//! dispatch-entry list) are hashed and compared against checked
//! fingerprints. The `analyze --check` golden inventory covers only the
//! per-decision summary; this test also pins the dispatch tables and the
//! automaton itself, so a construction-algorithm change that claims
//! byte-identical output is held to it.
//!
//! When a deliberate grammar, token or algorithm change moves a
//! fingerprint, the failure message prints the new table row.

use sqlweave::dialects::Dialect;
use sqlweave::grammar::analysis::analyze;
use sqlweave::grammar::lookahead::analyze_lookahead;
use sqlweave::parser_rt::engine::Parser;

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(dialect, minimized DFA states, DFA fingerprint, lookahead
/// fingerprints at k = 1, 2, 3)`.
const EXPECTED: [(&str, usize, u64, [u64; 3]); 6] = [
    (
        "pico",
        43,
        0x3a34a01917ec30c8,
        [0x6a72dcf8794692d3, 0x8167db77f7e12815, 0xbf363c23147606b2],
    ),
    (
        "tiny",
        109,
        0xc70096056df20731,
        [0x552799d7465ed40e, 0xae8e86b33d977eba, 0x7255cdf84cabf586],
    ),
    (
        "scql",
        213,
        0x9768c0c10705116a,
        [0x6a72dcf8794692d3, 0xadcd96d297147d30, 0x959298075ad485b1],
    ),
    (
        "core",
        426,
        0xa15c50a246a2d71f,
        [0x5ed1b31d2248e121, 0xc98957885cd7fcd4, 0x26c75127bc411f8a],
    ),
    (
        "warehouse",
        652,
        0x5d9e87f8866e2754,
        [0xe7ea707420af7946, 0x1f9f144f4eb55e1d, 0xb2eb9add6eaa26e0],
    ),
    (
        "full",
        923,
        0x7695105ba6f0c0a7,
        [0xa3d096f91842105e, 0x82a44029958008e9, 0x64aec262638694ff],
    ),
];

#[test]
fn construction_outputs_match_fingerprints() {
    let mut mismatches = Vec::new();
    for (d, expected) in Dialect::ALL.into_iter().zip(EXPECTED) {
        assert_eq!(d.name(), expected.0, "preset order");
        let composed = d
            .composed()
            .unwrap_or_else(|e| panic!("compose {}: {e}", d.name()));
        let parser = Parser::new(composed.grammar, &composed.tokens)
            .unwrap_or_else(|e| panic!("build {}: {e}", d.name()));
        let dfa = parser.scanner().dfa();
        let analysis = analyze(parser.grammar()).expect("analysis");
        let la = [1, 2, 3].map(|k| fnv1a(&format!("{:?}", analyze_lookahead(&analysis, k))));
        let actual = (d.name(), dfa.len(), fnv1a(&format!("{dfa:?}")), la);
        if actual != expected {
            mismatches.push(format!(
                "    (\"{}\", {}, {:#018x}, [{:#018x}, {:#018x}, {:#018x}]),",
                actual.0, actual.1, actual.2, la[0], la[1], la[2]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "construction output changed; new rows:\n{}",
        mismatches.join("\n")
    );
}
