//! `sqlweave-sema` — semantic analysis over parsed SQL scripts.
//!
//! The paper's product line stops at syntax: composing feature sub-grammars
//! yields a parser that accepts exactly the selected dialect. This crate is
//! the first layer that understands what the accepted SQL *means*. It walks
//! the concrete syntax trees any composed parser produces and
//!
//! 1. **resolves names** — CTEs, subqueries, table/column aliases, and
//!    star-expansion against an optional user-supplied [`SchemaCatalog`] —
//!    into a per-statement scope graph;
//! 2. **emits lineage** — table- and column-level data-flow edges across
//!    multi-statement scripts (`CREATE TABLE` → `INSERT … SELECT` →
//!    `CREATE VIEW` chains), every edge carrying a stable byte span from
//!    the green tree; and
//! 3. **surfaces lint rules** on top of the resolver — unknown
//!    table/column, ambiguous column reference, unused CTE, duplicate
//!    alias — as the stable `SW4xx` codes in the `sqlweave-lint` catalog.
//!
//! The resolver is *feature-aware*: [`ResolverCaps`] is keyed off the same
//! feature model that drives grammar composition, so a dialect without
//! `subquery`/`derived_table` skips derived-table scoping entirely, one
//! without `with_clause` never builds CTE machinery, and so on — the
//! per-variant semantics SpecDB argues feature decomposition should extend
//! to.
//!
//! ```
//! use sqlweave_dialects::Dialect;
//! use sqlweave_sema::{analyze, ResolverCaps, SchemaCatalog};
//!
//! let schema = SchemaCatalog::new().with_table("t", &["a", "b"]);
//! let caps = ResolverCaps::for_dialect(Dialect::Core);
//! let analysis = analyze("SELECT x.a FROM t AS x", Dialect::Core, &caps, Some(&schema))
//!     .unwrap();
//! assert!(analysis.diagnostics.is_empty());
//! assert_eq!(analysis.statements[0].columns[0].from, ["t.a"]);
//! ```

pub mod caps;
pub mod fixtures;
pub mod lineage;
pub mod resolve;
pub mod schema;

pub use caps::ResolverCaps;
pub use lineage::{inventory_json, lineage_json, lineage_text, LINEAGE_SCHEMA};
pub use resolve::{analyze_script, Analysis, ColumnEdge, StatementLineage, TableRead};
pub use schema::SchemaCatalog;

use sqlweave_dialects::Dialect;

/// Parse `sql` with `dialect`'s composed parser and run the full semantic
/// pass. Convenience wrapper over [`analyze_script`] for callers that do
/// not already hold a tree; returns the parser's error string on rejection.
pub fn analyze(
    sql: &str,
    dialect: Dialect,
    caps: &ResolverCaps,
    schema: Option<&SchemaCatalog>,
) -> Result<Analysis, String> {
    let parser = dialect.parser().map_err(|e| e.to_string())?;
    let mut session = parser.session();
    let tree = session.parse_tree(sql).map_err(|e| e.to_string())?;
    Ok(analyze_script(sql, &tree, caps, schema))
}
