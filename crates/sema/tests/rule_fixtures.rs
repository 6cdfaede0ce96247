//! One fixture per semantic (SW4xx) diagnostic code, plus silence checks:
//! each rule fires on its minimal trigger and stays quiet on the clean
//! bench corpus across every dialect. Companion to the structural fixture
//! file in `crates/lint/tests/diagnostic_fixtures.rs`, whose bookkeeping
//! test defers SW4xx coverage to this file.

use sqlweave_dialects::Dialect;
use sqlweave_lint::{Code, Layer};
use sqlweave_sema::{analyze, Analysis, ResolverCaps, SchemaCatalog};
use std::collections::BTreeSet;

fn schema() -> SchemaCatalog {
    SchemaCatalog::new()
        .with_table("t", &["a", "b"])
        .with_table("u", &["a", "c"])
}

fn full(sql: &str, schema: Option<&SchemaCatalog>) -> Analysis {
    analyze(sql, Dialect::Full, &ResolverCaps::full(), schema).expect("fixture parses")
}

fn codes(a: &Analysis) -> BTreeSet<Code> {
    a.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn sw401_unknown_table() {
    let cat = schema();
    let a = full("SELECT a FROM missing", Some(&cat));
    assert_eq!(codes(&a), BTreeSet::from([Code::UnknownTable]));
    let d = &a.diagnostics[0];
    assert!(d.message.contains("`missing`"), "{}", d.message);
    assert_eq!(d.span, Some((14, 21)));
    // Without a catalog the resolver cannot decide and stays silent.
    assert!(full("SELECT a FROM missing", None).diagnostics.is_empty());
}

#[test]
fn sw402_unknown_column() {
    let cat = schema();
    // Unqualified, single known relation.
    let a = full("SELECT nope FROM t", Some(&cat));
    assert_eq!(codes(&a), BTreeSet::from([Code::UnknownColumn]));
    // Qualified against a known relation.
    let a = full("SELECT t.nope FROM t", Some(&cat));
    assert_eq!(codes(&a), BTreeSet::from([Code::UnknownColumn]));
    // Qualifier that names no relation in scope — no catalog required.
    let a = full("SELECT q.a FROM t", None);
    assert_eq!(codes(&a), BTreeSet::from([Code::UnknownColumn]));
    assert!(a.diagnostics[0].message.contains("no relation named `q`"));
    // INSERT column list membership.
    let a = full("INSERT INTO t (a, nope) VALUES (1, 2)", Some(&cat));
    assert_eq!(codes(&a), BTreeSet::from([Code::UnknownColumn]));
}

#[test]
fn sw403_ambiguous_column() {
    let cat = schema();
    // `a` is exported by both t and u.
    let a = full("SELECT a FROM t, u", Some(&cat));
    assert_eq!(codes(&a), BTreeSet::from([Code::AmbiguousColumn]));
    assert!(a.diagnostics[0].message.contains("more than one relation"));
    // Qualification resolves the ambiguity.
    let a = full("SELECT t.a, u.a FROM t, u", Some(&cat));
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn sw404_unused_cte() {
    let a = full("WITH w AS (SELECT a FROM t) SELECT b FROM t", None);
    assert_eq!(codes(&a), BTreeSet::from([Code::UnusedCte]));
    let d = &a.diagnostics[0];
    assert_eq!(d.site, "cte `w`");
    assert_eq!(d.span, Some((5, 6)));
    // Used (even transitively, by a later CTE) — silent.
    let a = full(
        "WITH w AS (SELECT a FROM t), x AS (SELECT a FROM w) SELECT a FROM x",
        None,
    );
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
}

#[test]
fn sw405_duplicate_alias() {
    // Two FROM relations answering to the same exposed name.
    let a = full("SELECT 1 FROM t AS x, u AS x", None);
    assert_eq!(codes(&a), BTreeSet::from([Code::DuplicateAlias]));
    // Two WITH elements sharing a name.
    let a = full(
        "WITH w AS (SELECT a FROM t), w AS (SELECT b FROM t) SELECT a FROM w",
        None,
    );
    assert!(codes(&a).contains(&Code::DuplicateAlias), "{:?}", a.diagnostics);
}

/// Every SW4xx diagnostic carries a byte span into the analyzed source —
/// the property the lint JSON `span` member surfaces.
#[test]
fn semantic_diagnostics_carry_spans() {
    let cat = schema();
    let sql = "SELECT nope FROM missing";
    let a = full(sql, Some(&cat));
    assert!(!a.diagnostics.is_empty());
    for d in &a.diagnostics {
        let (start, end) = d.span.expect("semantic diagnostics have spans");
        assert!(start < end && end <= sql.len(), "{:?} out of {sql:?}", d.span);
    }
}

/// The clean bench corpus stays silent across all six dialects, both with
/// and without catalog metadata for its most common tables — the "silent
/// on the clean corpus" half of the SW4xx acceptance criteria.
#[test]
fn clean_corpus_is_silent_across_dialects() {
    for &dialect in Dialect::ALL.iter() {
        let caps = ResolverCaps::for_dialect(dialect);
        // Compose once per dialect; recomposing per statement dominates
        // the test's runtime otherwise.
        let parser = dialect.parser().expect("dialect composes");
        for sql in sqlweave_bench::corpus(dialect) {
            let mut session = parser.session();
            let tree = session
                .parse_tree(sql)
                .unwrap_or_else(|e| panic!("{}: {sql}: {e}", dialect.name()));
            let a = sqlweave_sema::analyze_script(sql, &tree, &caps, None);
            assert!(
                a.diagnostics.is_empty(),
                "{}: `{sql}` produced {:?}",
                dialect.name(),
                a.diagnostics
            );
        }
    }
}

/// Bookkeeping: every Semantic-layer code in the lint catalog has a
/// `fn swNNN_` fixture in this file (the structural codes are pinned by
/// the equivalent test in the lint crate).
#[test]
fn semantic_catalog_is_covered() {
    let this_file = include_str!("rule_fixtures.rs");
    let mut semantic = 0;
    for c in Code::ALL {
        if c.layer() != Layer::Semantic {
            continue;
        }
        semantic += 1;
        let fixture = format!("fn sw{}_", &c.id()[2..]);
        assert!(this_file.contains(&fixture), "code {c} lacks a fixture function");
    }
    assert_eq!(semantic, 5);
}
