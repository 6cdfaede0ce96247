//! Experiment B4 (correctness side) — the two engine modes.
//!
//! The paper closes asking "what kind of parsing mechanism is most suitable
//! for feature-oriented extension of SQL". One engine answers in two
//! modes: backtracking (speculates at choices the LL(k) dispatch tables
//! cannot decide; handles every composed grammar) and predictive (commits
//! to the table / FIRST-set choice, never speculates). These tests pin
//! down where they agree and where the predictive mode gives up.

use sqlweave_bench::{corpus, parser};
use sqlweave::dialects::Dialect;
use sqlweave::parser_rt::engine::EngineMode;

#[test]
fn engines_agree_when_the_table_engine_succeeds() {
    for d in Dialect::ALL {
        let bt = parser(d, EngineMode::Backtracking);
        let ll = parser(d, EngineMode::Ll1Table);
        let mut ll_ok = 0usize;
        let mut total = 0usize;
        for stmt in corpus(d) {
            total += 1;
            let b = bt.parse(stmt).expect("backtracking accepts its corpus");
            if let Ok(l) = ll.parse(stmt) {
                ll_ok += 1;
                assert_eq!(b, l, "engines disagree on {stmt:?} ({})", d.name());
            }
        }
        println!("{:<10} predictive mode parsed {ll_ok}/{total} corpus statements", d.name());
        assert!(ll_ok > 0, "{}: predictive mode parsed nothing", d.name());
    }
}

#[test]
fn pico_is_fully_ll1_parsable() {
    // The tailored pico dialect avoids every conflict-heavy feature, so the
    // predictive mode covers it completely.
    let ll = parser(Dialect::Pico, EngineMode::Ll1Table);
    let bt = parser(Dialect::Pico, EngineMode::Backtracking);
    for stmt in corpus(Dialect::Pico) {
        let l = ll.parse(stmt).unwrap_or_else(|e| panic!("predictive on {stmt:?}: {e}"));
        assert_eq!(l, bt.parse(stmt).unwrap());
    }
}

#[test]
fn conflicts_grow_with_dialect_size() {
    let mut prev = 0usize;
    for d in [Dialect::Pico, Dialect::Core, Dialect::Full] {
        let stats = parser(d, EngineMode::Backtracking).stats();
        println!(
            "{:<10} productions={} conflicts={} table_cells={}",
            d.name(),
            stats.productions,
            stats.conflicts,
            stats.table_cells
        );
        assert!(
            stats.conflicts >= prev,
            "conflicts should not shrink as features are added"
        );
        prev = stats.conflicts;
    }
}

#[test]
fn both_engines_reject_out_of_dialect_statements() {
    for mode in [EngineMode::Backtracking, EngineMode::Ll1Table] {
        let p = parser(Dialect::Pico, mode);
        assert!(p.parse("SELECT a FROM t ORDER BY a").is_err());
        assert!(p.parse("INSERT INTO t VALUES (1)").is_err());
    }
}

#[test]
fn engines_agree_on_generated_workloads_for_ll1_dialects() {
    // The predictive mode is the backtracking engine minus speculation, so
    // every grammar-generated sentence the backtracking session parses
    // without rolling a probe back must parse predictively to the
    // identical CST. Only the residual ambiguities of the larger dialects
    // (`sqlweave analyze`) make the backtracking mode roll back; pico,
    // tiny and scql have none, so there the two modes agree everywhere.
    for d in Dialect::ALL {
        let bt = parser(d, EngineMode::Backtracking);
        let ll = parser(d, EngineMode::Ll1Table);
        let mut session = bt.session();
        let (mut clean, mut total) = (0usize, 0usize);
        for s in sqlweave_bench::generated(d, 0x5eed, 200, 9) {
            let before = session.counters().backtracks;
            let b = session
                .parse_tree(&s)
                .map(|t| t.to_cst())
                .unwrap_or_else(|e| panic!("{} backtracking rejected {s:?}: {e}", d.name()));
            let rolled_back = session.counters().backtracks != before;
            match ll.parse(&s) {
                Ok(l) => assert_eq!(b, l, "{}: engines disagree on {s:?}", d.name()),
                Err(e) => assert!(
                    rolled_back,
                    "{}: predictive mode rejected {s:?}, which parsed without a rollback: {e}",
                    d.name()
                ),
            }
            total += 1;
            clean += usize::from(!rolled_back);
        }
        println!("{:<10} {clean}/{total} generated sentences without a rollback", d.name());
        if matches!(d, Dialect::Pico | Dialect::Tiny | Dialect::Scql) {
            assert_eq!(clean, total, "{}: rollback without a residual ambiguity", d.name());
        }
    }
}

#[test]
fn ll1_never_accepts_what_backtracking_rejects() {
    // The predictive mode commits where the backtracking mode would try
    // further alternatives; it may reject more, but must never accept a
    // statement the speculating mode rejects.
    let bt = parser(Dialect::Full, EngineMode::Backtracking);
    let ll = parser(Dialect::Full, EngineMode::Ll1Table);
    for s in sqlweave_bench::generated(Dialect::Full, 77, 300, 8) {
        if ll.parse(&s).is_ok() {
            assert!(
                bt.parse(&s).is_ok(),
                "predictive mode accepted but backtracking rejected {s:?}"
            );
        }
    }
}
