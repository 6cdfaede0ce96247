//! Per-dialect fixture scripts for the lineage golden inventory.
//!
//! Each script exercises the richest semantic surface its dialect can
//! express — DDL first where the dialect has it, so the resolver learns
//! column sets without an external catalog — and every script is clean:
//! the semantic pass emits zero diagnostics over it (asserted below and
//! by the CLI golden test).

use sqlweave_dialects::Dialect;

/// The fixture script for one dialect. Statements are `"; "`-joined, the
/// same script shape the recovery corpus uses.
pub fn script(dialect: Dialect) -> &'static str {
    match dialect {
        Dialect::Pico => "SELECT a, b FROM t; SELECT a FROM t WHERE a = 1 AND b = 2",
        Dialect::Tiny => {
            "SELECT nodeid, temp FROM sensors; \
             SELECT nodeid FROM sensors WHERE temp > 30"
        }
        Dialect::Scql => {
            "CREATE TABLE purse (id INT NOT NULL, balance DECIMAL(8, 2)); \
             INSERT INTO purse VALUES (1, 100); \
             UPDATE purse SET balance = 50 WHERE id = 1; \
             SELECT balance FROM purse WHERE id = 1"
        }
        Dialect::Core => {
            "CREATE TABLE t (a INT, b INT); \
             CREATE TABLE u (a INT, c INT); \
             INSERT INTO t (a, b) VALUES (1, 2); \
             SELECT t.a, v.c FROM t, (SELECT a, c FROM u) AS v WHERE t.a = v.a"
        }
        Dialect::Warehouse => {
            "CREATE TABLE t (a INT, b INT); \
             WITH w AS (SELECT a, b FROM t) SELECT w.* FROM w; \
             CREATE VIEW v (x) AS SELECT a FROM t"
        }
        // The acceptance fixture: CTE + correlated subquery +
        // INSERT … SELECT across a multi-statement script.
        Dialect::Full => {
            "CREATE TABLE orders (id INT, region VARCHAR(10), total INT); \
             CREATE TABLE summary (region VARCHAR(10), total INT); \
             WITH regional AS (SELECT region, SUM(total) AS total FROM orders GROUP BY region) \
             SELECT r.region, r.total FROM regional AS r \
             WHERE EXISTS (SELECT o.id FROM orders AS o WHERE o.region = r.region); \
             INSERT INTO summary (region, total) \
             SELECT s.region, s.total FROM (SELECT region, total FROM orders) AS s"
        }
    }
}

/// All `(dialect, script)` pairs in `Dialect::ALL` order — the golden
/// lineage inventory iterates exactly this.
pub fn all() -> Vec<(Dialect, &'static str)> {
    Dialect::ALL.iter().map(|&d| (d, script(d))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caps::ResolverCaps;
    use crate::resolve::analyze_script;

    /// Every fixture parses in its own dialect and the semantic pass is
    /// silent over it — the "clean corpus" half of the SW4xx contract.
    #[test]
    fn fixtures_parse_and_resolve_cleanly() {
        for (dialect, script) in all() {
            let parser = dialect.parser().unwrap_or_else(|e| {
                panic!("{}: compose failed: {e}", dialect.name());
            });
            let mut session = parser.session();
            let tree = session.parse_tree(script).unwrap_or_else(|e| {
                panic!("{}: fixture rejected: {e}\n{script}", dialect.name());
            });
            let caps = ResolverCaps::for_dialect(dialect);
            let analysis = analyze_script(script, &tree, &caps, None);
            assert!(
                analysis.diagnostics.is_empty(),
                "{}: fixture not clean: {:?}",
                dialect.name(),
                analysis.diagnostics
            );
            assert!(!analysis.statements.is_empty());
        }
    }

    /// The full-dialect acceptance fixture produces column-level lineage
    /// through the CTE, the derived table, and into the INSERT target.
    #[test]
    fn full_fixture_has_insert_select_lineage() {
        let dialect = Dialect::Full;
        let parser = dialect.parser().unwrap();
        let mut session = parser.session();
        let script = script(dialect);
        let tree = session.parse_tree(script).unwrap();
        let analysis = analyze_script(script, &tree, &ResolverCaps::full(), None);
        let insert = analysis
            .statements
            .iter()
            .find(|s| s.kind == "insert")
            .expect("fixture has an INSERT");
        assert_eq!(insert.target.as_deref(), Some("summary"));
        let to: Vec<&str> = insert.columns.iter().map(|c| c.to.as_str()).collect();
        assert!(to.contains(&"summary.region"), "columns: {to:?}");
        assert!(
            insert
                .columns
                .iter()
                .any(|c| c.from.iter().any(|f| f == "orders.region")),
            "INSERT sources should trace back to orders: {:?}",
            insert.columns
        );
        // The CTE statement reads both the CTE and the base table.
        let select = analysis
            .statements
            .iter()
            .find(|s| s.kind == "select")
            .expect("fixture has a SELECT");
        let reads: Vec<&str> = select.reads.iter().map(|r| r.table.as_str()).collect();
        assert!(reads.contains(&"regional") && reads.contains(&"orders"), "{reads:?}");
    }
}
