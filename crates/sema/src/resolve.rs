//! The scope-graph resolver: names, lineage edges, and the SW4xx rules.
//!
//! The pass walks the concrete syntax tree rather than the typed AST —
//! the tree is the only structure that carries token spans, and every
//! composed dialect produces the same production vocabulary, so one walker
//! covers the whole product line. It reads the parser's arena tree in
//! place through [`SyntaxNode`] cursors. Resolution is *feature-gated* through
//! [`ResolverCaps`]: subsystems a dialect's grammar cannot produce are
//! never entered.
//!
//! Scoping model (SQL:2003 subset):
//!
//! - each `query_specification` opens a scope over its FROM relations;
//! - expression subqueries chain to the enclosing scope (correlation);
//! - derived tables do **not** see sibling relations (no LATERAL);
//! - WITH elements are visible to later elements, the query body, and —
//!   under `RECURSIVE` — to themselves;
//! - `CREATE TABLE` / `CREATE VIEW` register script-level relations that
//!   later statements resolve against; `DROP` removes them.
//!
//! Deliberate leniencies, chosen so the pass stays silent on code it
//! cannot decide: base tables are opaque without a [`SchemaCatalog`]
//! (their columns are unknown, so per-column rules stand down), an
//! unqualified column is only *unknown* when a catalog is supplied and
//! every relation in scope has known columns, and ORDER BY items are
//! exempt (they may name either output columns or underlying ones).

use sqlweave_lexgen::LineIndex;
use sqlweave_lint::{Code, Diagnostic};
use sqlweave_parser_rt::{SyntaxElement, SyntaxNode, SyntaxTree};
use std::collections::BTreeMap;

use crate::caps::ResolverCaps;
use crate::schema::SchemaCatalog;

/// Result of the semantic pass over one script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Analysis {
    /// Per-statement lineage, in script order.
    pub statements: Vec<StatementLineage>,
    /// SW4xx findings, in emission order (callers sort via `LintReport`).
    pub diagnostics: Vec<Diagnostic>,
}

/// Lineage extracted from one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatementLineage {
    /// Zero-based statement index in the script.
    pub index: usize,
    /// Statement kind: `select`, `insert`, `update`, `delete`, `merge`,
    /// `create_table`, `create_view`, `drop`, or `other`.
    pub kind: &'static str,
    /// The written relation (INSERT/UPDATE/MERGE target, created object),
    /// if any.
    pub target: Option<String>,
    /// Byte span of the whole statement.
    pub span: (usize, usize),
    /// Relations read by the statement, with the span of each reference.
    pub reads: Vec<TableRead>,
    /// Column-level edges: each written/output column and its sources.
    pub columns: Vec<ColumnEdge>,
}

/// A table-level read edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRead {
    /// Relation name (base table, CTE, or view).
    pub table: String,
    /// Span of the referencing occurrence.
    pub span: (usize, usize),
}

/// A column-level lineage edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnEdge {
    /// Destination: `table.column` for writes, a bare output-column name
    /// for top-level SELECTs.
    pub to: String,
    /// Source columns (`relation.column`, or a raw reference when the
    /// relation could not be attributed).
    pub from: Vec<String>,
    /// Span of the defining expression.
    pub span: (usize, usize),
}

/// Run the semantic pass over a parsed script (a tree rooted at
/// `sql_script`, or at a bare statement). The tree may be a session's
/// borrowed tree or an owned copy. `input` must be the exact source the
/// tree was parsed from — spans index into it.
pub fn analyze_script(
    input: &str,
    tree: &SyntaxTree<'_>,
    caps: &ResolverCaps,
    schema: Option<&SchemaCatalog>,
) -> Analysis {
    let mut r = Resolver {
        caps,
        schema,
        input,
        lines: LineIndex::new(input),
        env: BTreeMap::new(),
        diags: Vec::new(),
        reads: Vec::new(),
        edges: Vec::new(),
        ctes: Vec::new(),
    };
    let root = tree.root();
    let mut statements = Vec::new();
    if root.name() == "sql_script" {
        for (index, stmt) in root.children_named("sql_statement").enumerate() {
            statements.push(r.statement(stmt, index));
        }
    } else {
        statements.push(r.statement(root, 0));
    }
    Analysis {
        statements,
        diagnostics: std::mem::take(&mut r.diags),
    }
}

// ---------------------------------------------------------------- internals

/// One relation exposed by a FROM scope.
#[derive(Debug, Clone)]
struct Relation {
    /// Name the relation answers to as a qualifier (alias, or table tail).
    exposed: Option<String>,
    /// Full dotted table name — usable as a qualifier only when unaliased.
    full_name: Option<String>,
    /// Canonical name for lineage attribution (base table / CTE / view).
    base: Option<String>,
    /// Exported columns; `None` when unknown (opaque base table).
    columns: Option<Vec<String>>,
}

impl Relation {
    fn answers_to(&self, qualifier: &str) -> bool {
        self.exposed.as_deref() == Some(qualifier)
            || self.full_name.as_deref() == Some(qualifier)
    }

    /// Name used to qualify lineage sources drawn from this relation.
    fn lineage_base(&self) -> Option<&str> {
        self.base.as_deref().or(self.exposed.as_deref())
    }
}

/// A FROM scope, chained to the enclosing query's scope for correlation.
struct Scope<'p> {
    relations: Vec<Relation>,
    parent: Option<&'p Scope<'p>>,
}

impl Scope<'_> {
    const EMPTY: Scope<'static> = Scope { relations: Vec::new(), parent: None };

    fn find(&self, qualifier: &str) -> Option<&Relation> {
        self.relations
            .iter()
            .find(|r| r.answers_to(qualifier))
            .or_else(|| self.parent.and_then(|p| p.find(qualifier)))
    }
}

/// A WITH element visible somewhere in the current statement.
struct CteRecord {
    name: String,
    columns: Option<Vec<String>>,
    span: (usize, usize),
    used: bool,
}

/// Output shape of a resolved query: one entry per projected column.
struct OutCol {
    name: String,
    sources: Vec<String>,
    span: (usize, usize),
}

struct Resolver<'a> {
    caps: &'a ResolverCaps,
    schema: Option<&'a SchemaCatalog>,
    input: &'a str,
    lines: LineIndex,
    /// Script-level relations created by earlier statements.
    env: BTreeMap<String, Vec<String>>,
    diags: Vec<Diagnostic>,
    /// Per-statement accumulators.
    reads: Vec<TableRead>,
    edges: Vec<ColumnEdge>,
    ctes: Vec<CteRecord>,
}

/// Lowercased IDENT parts of an identifier chain / table name, with spans.
/// Folding matches [`SchemaCatalog`]'s case-insensitive storage.
fn idents(node: SyntaxNode<'_>) -> Vec<(String, (usize, usize))> {
    sqlweave_sql_ast::lower::identifier_parts(node)
        .map(|(name, span)| (name.to_ascii_lowercase(), span))
        .collect()
}

fn dotted(parts: &[(String, (usize, usize))]) -> String {
    parts.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(".")
}

impl<'a> Resolver<'a> {
    fn at(&self, span: (usize, usize)) -> String {
        let (line, col) = self.lines.line_col(self.input, span.0);
        format!("{line}:{col}")
    }

    fn diag(&mut self, code: Code, site: String, message: String, span: (usize, usize)) {
        self.diags
            .push(Diagnostic::new(code, site, message).with_span(span.0, span.1));
    }

    fn push_unique(sink: &mut Vec<String>, source: String) {
        if !sink.contains(&source) {
            sink.push(source);
        }
    }

    // ------------------------------------------------------------ statements

    fn statement(&mut self, node: SyntaxNode<'_>, index: usize) -> StatementLineage {
        self.reads.clear();
        self.edges.clear();
        self.ctes.clear();
        let span = node.span().unwrap_or((0, 0));
        let inner = if node.name() == "sql_statement" {
            node.child_at(0).and_then(SyntaxElement::as_node).unwrap_or(node)
        } else {
            node
        };
        let (kind, target) = match inner.name() {
            "query_expression" => {
                let cols = self.query(inner, None, &[]);
                if let Some(cols) = cols {
                    for c in cols {
                        self.edges.push(ColumnEdge { to: c.name, from: c.sources, span: c.span });
                    }
                }
                ("select", None)
            }
            "insert_statement" if self.caps.dml => self.insert(inner),
            "update_statement" if self.caps.dml => self.update(inner),
            "delete_statement" if self.caps.dml => self.delete(inner),
            "merge_statement" if self.caps.dml => self.merge(inner),
            "table_definition" if self.caps.ddl_tables => self.create_table(inner),
            "view_definition" if self.caps.views => self.create_view(inner),
            "drop_statement" => self.drop(inner),
            _ => ("other", None),
        };
        // SW404: every WITH element of this statement must have been
        // referenced somewhere (a later CTE, the body, a subquery).
        for i in 0..self.ctes.len() {
            if !self.ctes[i].used {
                let (name, cspan) = (self.ctes[i].name.clone(), self.ctes[i].span);
                let at = self.at(cspan);
                self.diag(
                    Code::UnusedCte,
                    format!("cte `{name}`"),
                    format!("common table expression `{name}` (defined at {at}) is never referenced"),
                    cspan,
                );
            }
        }
        StatementLineage {
            index,
            kind,
            target,
            span,
            reads: std::mem::take(&mut self.reads),
            columns: std::mem::take(&mut self.edges),
        }
    }

    /// Look up a written-to table (INSERT/UPDATE/MERGE target) and build
    /// its scope relation. Emits SW401 when a catalog is present and the
    /// name is unknown.
    fn target_relation(&mut self, name_node: SyntaxNode<'_>) -> (String, Relation) {
        let parts = idents(name_node);
        let name = dotted(&parts);
        let span = name_node.span().unwrap_or((0, 0));
        let columns = self.lookup_table(&name, span);
        let tail = parts.last().map(|(n, _)| n.clone());
        (
            name.clone(),
            Relation {
                exposed: tail,
                full_name: Some(name.clone()),
                base: Some(name),
                columns,
            },
        )
    }

    /// Columns of a script-level or catalog table; SW401 when a catalog is
    /// supplied and the name resolves nowhere.
    fn lookup_table(&mut self, name: &str, span: (usize, usize)) -> Option<Vec<String>> {
        if let Some(cols) = self.env.get(name) {
            return Some(cols.clone());
        }
        match self.schema {
            Some(cat) => match cat.table(name) {
                Some(cols) => Some(cols.to_vec()),
                None => {
                    let at = self.at(span);
                    self.diag(
                        Code::UnknownTable,
                        format!("table `{name}`"),
                        format!(
                            "`{name}` (at {at}) is not a CTE, not created by this script, \
                             and absent from the schema catalog"
                        ),
                        span,
                    );
                    None
                }
            },
            None => None,
        }
    }

    /// Membership check for an explicit column list against known columns.
    fn check_listed_columns(&mut self, table: &str, known: &[String], list: SyntaxNode<'_>) {
        for (col, span) in idents(list) {
            if !known.contains(&col) {
                let at = self.at(span);
                self.diag(
                    Code::UnknownColumn,
                    format!("column `{table}.{col}`"),
                    format!("`{table}` has no column `{col}` (at {at})"),
                    span,
                );
            }
        }
    }

    fn insert(&mut self, node: SyntaxNode<'_>) -> (&'static str, Option<String>) {
        let Some(name_node) = node.child("table_name") else {
            return ("insert", None);
        };
        let (table, rel) = self.target_relation(name_node);
        // The optional `(col, ...)` list sits directly under the
        // statement; VALUES rows nest their own productions.
        let dest: Option<Vec<String>> = match node.child("column_name_list") {
            Some(list) => {
                let cols: Vec<String> = idents(list).into_iter().map(|(n, _)| n).collect();
                if let Some(known) = &rel.columns {
                    let known = known.clone();
                    self.check_listed_columns(&table, &known, list);
                }
                Some(cols)
            }
            None => rel.columns.clone(),
        };
        if let Some(src) = node.child("insert_source") {
            match src.label() {
                Some("query") => {
                    if let Some(qe) = src.child("query_expression") {
                        if let Some(cols) = self.query(qe, None, &[]) {
                            for (i, c) in cols.into_iter().enumerate() {
                                let to = match dest.as_ref().and_then(|d| d.get(i)) {
                                    Some(d) => format!("{table}.{d}"),
                                    None => format!("{table}.col{}", i + 1),
                                };
                                self.edges.push(ColumnEdge { to, from: c.sources, span: c.span });
                            }
                        }
                    }
                }
                Some("values") => {
                    // Literal rows carry no lineage, but expression
                    // subqueries inside VALUES do resolve (empty scope).
                    for rc in src.children_named("row_constructor") {
                        for (i, iv) in rc.children_named("insert_value").enumerate() {
                            let mut sources = Vec::new();
                            self.refs(iv, &Scope::EMPTY, &[], &mut sources);
                            if !sources.is_empty() {
                                let to = match dest.as_ref().and_then(|d| d.get(i)) {
                                    Some(d) => format!("{table}.{d}"),
                                    None => format!("{table}.col{}", i + 1),
                                };
                                let span = iv.span().unwrap_or((0, 0));
                                self.edges.push(ColumnEdge { to, from: sources, span });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        ("insert", Some(table))
    }

    fn update(&mut self, node: SyntaxNode<'_>) -> (&'static str, Option<String>) {
        let Some(name_node) = node.child("table_name") else {
            return ("update", None);
        };
        let (table, rel) = self.target_relation(name_node);
        self.reads.push(TableRead {
            table: table.clone(),
            span: name_node.span().unwrap_or((0, 0)),
        });
        let known = rel.columns.clone();
        let scope = Scope { relations: vec![rel], parent: None };
        for sc in node.children_named("set_clause") {
            let Some((col, cspan)) = idents(sc).into_iter().next() else { continue };
            if let Some(known) = &known {
                if !known.contains(&col) {
                    let at = self.at(cspan);
                    self.diag(
                        Code::UnknownColumn,
                        format!("column `{table}.{col}`"),
                        format!("`{table}` has no column `{col}` (at {at})"),
                        cspan,
                    );
                }
            }
            let mut sources = Vec::new();
            if let Some(src) = sc.child("update_source") {
                self.refs(src, &scope, &[], &mut sources);
            }
            let span = sc.span().unwrap_or((0, 0));
            self.edges.push(ColumnEdge { to: format!("{table}.{col}"), from: sources, span });
        }
        if let Some(cond) = node.child("search_condition") {
            let mut sink = Vec::new();
            self.refs(cond, &scope, &[], &mut sink);
        }
        ("update", Some(table))
    }

    fn delete(&mut self, node: SyntaxNode<'_>) -> (&'static str, Option<String>) {
        let Some(name_node) = node.child("table_name") else {
            return ("delete", None);
        };
        let (table, rel) = self.target_relation(name_node);
        self.reads.push(TableRead {
            table: table.clone(),
            span: name_node.span().unwrap_or((0, 0)),
        });
        let scope = Scope { relations: vec![rel], parent: None };
        if let Some(cond) = node.child("search_condition") {
            let mut sink = Vec::new();
            self.refs(cond, &scope, &[], &mut sink);
        }
        ("delete", Some(table))
    }

    fn merge(&mut self, node: SyntaxNode<'_>) -> (&'static str, Option<String>) {
        let mut names = node.children_named("table_name");
        let (Some(target_node), Some(source_node)) = (names.next(), names.next()) else {
            return ("merge", None);
        };
        let (table, target_rel) = self.target_relation(target_node);
        let (source, source_rel) = self.target_relation(source_node);
        let known = target_rel.columns.clone();
        self.reads.push(TableRead {
            table: source.clone(),
            span: source_node.span().unwrap_or((0, 0)),
        });
        self.reads.push(TableRead {
            table: table.clone(),
            span: target_node.span().unwrap_or((0, 0)),
        });
        let scope = Scope { relations: vec![target_rel, source_rel], parent: None };
        if let Some(cond) = node.child("search_condition") {
            let mut sink = Vec::new();
            self.refs(cond, &scope, &[], &mut sink);
        }
        for mw in node.children_named("merge_when") {
            for sc in mw.children_named("set_clause") {
                let Some((col, cspan)) = idents(sc).into_iter().next() else { continue };
                if let Some(known) = &known {
                    if !known.contains(&col) {
                        let at = self.at(cspan);
                        self.diag(
                            Code::UnknownColumn,
                            format!("column `{table}.{col}`"),
                            format!("`{table}` has no column `{col}` (at {at})"),
                            cspan,
                        );
                    }
                }
                let mut sources = Vec::new();
                if let Some(src) = sc.child("update_source") {
                    self.refs(src, &scope, &[], &mut sources);
                }
                let span = sc.span().unwrap_or((0, 0));
                self.edges.push(ColumnEdge { to: format!("{table}.{col}"), from: sources, span });
            }
            if let Some(list) = mw.child("column_name_list") {
                if let Some(known) = known.clone() {
                    self.check_listed_columns(&table, &known, list);
                }
                let cols: Vec<String> = idents(list).into_iter().map(|(n, _)| n).collect();
                if let Some(rc) = mw.child("row_constructor") {
                    for (i, iv) in rc.children_named("insert_value").enumerate() {
                        let mut sources = Vec::new();
                        self.refs(iv, &scope, &[], &mut sources);
                        if !sources.is_empty() {
                            let to = match cols.get(i) {
                                Some(c) => format!("{table}.{c}"),
                                None => format!("{table}.col{}", i + 1),
                            };
                            let span = iv.span().unwrap_or((0, 0));
                            self.edges.push(ColumnEdge { to, from: sources, span });
                        }
                    }
                }
            }
        }
        ("merge", Some(table))
    }

    fn create_table(&mut self, node: SyntaxNode<'_>) -> (&'static str, Option<String>) {
        let Some(name_node) = node.child("table_name") else {
            return ("create_table", None);
        };
        let name = dotted(&idents(name_node));
        let mut columns = Vec::new();
        for el in node.children_named("table_element") {
            if let Some(cd) = el.child("column_definition") {
                if let Some((col, _)) = idents(cd).into_iter().next() {
                    columns.push(col);
                }
            }
        }
        self.env.insert(name.clone(), columns);
        ("create_table", Some(name))
    }

    fn create_view(&mut self, node: SyntaxNode<'_>) -> (&'static str, Option<String>) {
        let Some(name_node) = node.child("table_name") else {
            return ("create_view", None);
        };
        let name = dotted(&idents(name_node));
        let declared: Option<Vec<String>> = node
            .child("column_name_list")
            .map(|l| idents(l).into_iter().map(|(n, _)| n).collect());
        let cols = node
            .child("query_expression")
            .and_then(|qe| self.query(qe, None, &[]));
        let mut registered = Vec::new();
        if let Some(cols) = cols {
            for (i, c) in cols.into_iter().enumerate() {
                let out = match declared.as_ref().and_then(|d| d.get(i)) {
                    Some(d) => d.clone(),
                    None => c.name,
                };
                self.edges.push(ColumnEdge {
                    to: format!("{name}.{out}"),
                    from: c.sources,
                    span: c.span,
                });
                registered.push(out);
            }
        } else if let Some(d) = &declared {
            registered = d.clone();
        }
        self.env.insert(name.clone(), registered);
        ("create_view", Some(name))
    }

    fn drop(&mut self, node: SyntaxNode<'_>) -> (&'static str, Option<String>) {
        let name = node
            .child("object_name")
            .and_then(|o| o.child("table_name"))
            .map(|t| dotted(&idents(t)));
        if let Some(name) = &name {
            self.env.remove(name);
        }
        ("drop", name)
    }

    // ------------------------------------------------------------ queries

    /// Resolve a `query_expression`. `ctes` are the indices (into
    /// `self.ctes`) of WITH elements visible here. Returns the output
    /// shape, or `None` when a star over opaque relations makes it
    /// unknowable.
    fn query(
        &mut self,
        node: SyntaxNode<'_>,
        parent: Option<&Scope<'_>>,
        ctes: &[usize],
    ) -> Option<Vec<OutCol>> {
        let mut visible: Vec<usize> = ctes.to_vec();
        if let Some(wc) = node.child("with_clause") {
            if self.caps.ctes {
                self.with_clause(wc, &mut visible);
            }
        }
        let mut out: Option<Option<Vec<OutCol>>> = None;
        for qt in node.children_named("query_term") {
            let Some(primary) = qt.child_at(0).and_then(SyntaxElement::as_node) else { continue };
            let shape = match primary.label() {
                Some("select") => primary
                    .child("query_specification")
                    .and_then(|qs| self.select(qs, parent, &visible)),
                Some("nested") => primary
                    .child("subquery")
                    .and_then(|s| s.child("query_expression"))
                    .and_then(|qe| self.query(qe, parent, &visible)),
                _ => None,
            };
            // Set operations: the first term names the output columns;
            // later terms still resolve (diagnostics, reads) above.
            if out.is_none() {
                out = Some(shape);
            }
        }
        // ORDER BY / OFFSET / FETCH never bind new names; items may
        // reference output or underlying columns, so they are exempt from
        // the unknown-column rule (see module docs).
        out.flatten()
    }

    /// Resolve one WITH clause, appending the new element indices to
    /// `visible` as each becomes available to its successors.
    fn with_clause(&mut self, wc: SyntaxNode<'_>, visible: &mut Vec<usize>) {
        let recursive =
            self.caps.recursive_ctes && wc.children().any(|c| c.name() == "RECURSIVE");
        let first_new = self.ctes.len();
        for el in wc.children_named("with_element") {
            let Some(tok) = el.find_token("IDENT") else { continue };
            let name = tok.text().to_ascii_lowercase();
            let span = tok.span();
            // SW405: two elements of one WITH clause sharing a name.
            if self.ctes[first_new..].iter().any(|c| c.name == name) {
                let at = self.at(span);
                self.diag(
                    Code::DuplicateAlias,
                    format!("cte `{name}`"),
                    format!("WITH clause defines `{name}` more than once (at {at})"),
                    span,
                );
            }
            let declared: Option<Vec<String>> = el
                .child("column_name_list")
                .map(|l| idents(l).into_iter().map(|(n, _)| n).collect());
            let idx = self.ctes.len();
            self.ctes.push(CteRecord {
                name,
                columns: declared.clone(),
                span,
                used: false,
            });
            let mut inner = visible.clone();
            if recursive {
                inner.push(idx);
            }
            let shape = el
                .child("query_expression")
                .and_then(|qe| self.query(qe, None, &inner));
            if let Some(cols) = shape {
                // Column edges into the CTE, under declared names when a
                // column list was written, inferred names otherwise.
                let cte = self.ctes[idx].name.clone();
                let mut registered = Vec::new();
                for (i, c) in cols.into_iter().enumerate() {
                    let out = declared
                        .as_ref()
                        .and_then(|d| d.get(i))
                        .cloned()
                        .unwrap_or(c.name);
                    self.edges.push(ColumnEdge {
                        to: format!("{cte}.{out}"),
                        from: c.sources,
                        span: c.span,
                    });
                    registered.push(out);
                }
                if declared.is_none() {
                    self.ctes[idx].columns = Some(registered);
                }
            }
            visible.push(idx);
        }
    }

    /// Resolve a `query_specification`: build the FROM scope, resolve
    /// every clause, and produce the projection shape.
    fn select(
        &mut self,
        qs: SyntaxNode<'_>,
        parent: Option<&Scope<'_>>,
        ctes: &[usize],
    ) -> Option<Vec<OutCol>> {
        let te = qs.child("table_expression")?;
        let scope = self.build_scope(te, ctes, parent);
        // Join conditions, WHERE, GROUP BY, HAVING, WINDOW.
        for tr in te
            .child("from_clause")
            .map(|fc| fc.children_named("table_reference").collect::<Vec<_>>())
            .unwrap_or_default()
        {
            for j in tr.children_named("joined_table") {
                if let Some(jc) = j.child("join_condition") {
                    if let Some(cond) = jc.child("search_condition") {
                        let mut sink = Vec::new();
                        self.refs(cond, &scope, ctes, &mut sink);
                    }
                    // USING (a, b): both sides must export the column;
                    // resolved leniently as unqualified references.
                    if let Some(list) = jc.child("column_name_list") {
                        for (col, span) in idents(list) {
                            self.unqualified(&col, span, &scope, true);
                        }
                    }
                }
            }
        }
        for clause in ["where_clause", "group_by_clause", "having_clause", "window_clause"] {
            if let Some(c) = te.child(clause) {
                let mut sink = Vec::new();
                self.refs(c, &scope, ctes, &mut sink);
            }
        }
        // Projection.
        let sl = qs.child("select_list")?;
        match sl.label() {
            Some("star") => {
                if !self.caps.star {
                    return None;
                }
                let span = sl.span().unwrap_or((0, 0));
                self.expand_star(scope.relations.iter(), span)
            }
            _ => {
                let mut out = Vec::new();
                let mut unknowable = false;
                for (i, ss) in sl.children_named("select_sublist").enumerate() {
                    let span = ss.span().unwrap_or((0, 0));
                    match ss.label() {
                        Some("qualified_star") if self.caps.qualified_star => {
                            let Some(chain) = ss.child("identifier_chain") else { continue };
                            let parts = idents(chain);
                            let qualifier = dotted(&parts);
                            match scope.find(&qualifier) {
                                Some(rel) => {
                                    match self.expand_star(std::iter::once(rel), span) {
                                        Some(cols) => out.extend(cols),
                                        None => unknowable = true,
                                    }
                                }
                                None => {
                                    let at = self.at(span);
                                    self.diag(
                                        Code::UnknownColumn,
                                        format!("columns `{qualifier}.*`"),
                                        format!(
                                            "no relation named `{qualifier}` in scope \
                                             for `{qualifier}.*` (at {at})"
                                        ),
                                        span,
                                    );
                                    unknowable = true;
                                }
                            }
                        }
                        Some("qualified_star") => unknowable = true,
                        _ => {
                            let Some(dc) = ss.child("derived_column") else { continue };
                            let mut sources = Vec::new();
                            if let Some(expr) = dc.child("value_expression") {
                                self.refs(expr, &scope, ctes, &mut sources);
                            }
                            let name = dc
                                .child("as_clause")
                                .and_then(|a| a.find_token("IDENT"))
                                .map(|t| t.text().to_ascii_lowercase())
                                .or_else(|| {
                                    dc.child("value_expression").and_then(bare_column_tail)
                                })
                                .unwrap_or_else(|| format!("col{}", i + 1));
                            out.push(OutCol { name, sources, span });
                        }
                    }
                }
                if unknowable {
                    None
                } else {
                    Some(out)
                }
            }
        }
    }

    /// Expand `*` over relations; `None` if any relation is opaque.
    fn expand_star<'r>(
        &mut self,
        relations: impl Iterator<Item = &'r Relation>,
        span: (usize, usize),
    ) -> Option<Vec<OutCol>> {
        let mut out = Vec::new();
        for rel in relations {
            let cols = rel.columns.as_ref()?;
            let base = rel.lineage_base().unwrap_or("?").to_string();
            for c in cols {
                out.push(OutCol {
                    name: c.clone(),
                    sources: vec![format!("{base}.{c}")],
                    span,
                });
            }
        }
        Some(out)
    }

    /// Build the scope for a `table_expression`'s FROM clause, checking
    /// for duplicate exposed names (SW405) on the way.
    fn build_scope<'p>(
        &mut self,
        te: SyntaxNode<'_>,
        ctes: &[usize],
        parent: Option<&'p Scope<'p>>,
    ) -> Scope<'p> {
        let mut relations = Vec::new();
        if let Some(fc) = te.child("from_clause") {
            for tr in fc.children_named("table_reference") {
                if let Some(tp) = tr.child("table_primary") {
                    relations.push(self.table_primary(tp, ctes));
                }
                for j in tr.children_named("joined_table") {
                    if let Some(tp) = j.child("table_primary") {
                        relations.push(self.table_primary(tp, ctes));
                    }
                }
            }
        }
        // SW405: two relations answering to the same exposed name.
        for (i, rel) in relations.iter().enumerate() {
            let Some(name) = &rel.exposed else { continue };
            if relations[..i].iter().any(|r| r.exposed.as_deref() == Some(name.as_str())) {
                let span = te.child("from_clause").and_then(|f| f.span()).unwrap_or((0, 0));
                let at = self.at(span);
                self.diag(
                    Code::DuplicateAlias,
                    format!("relation `{name}`"),
                    format!("two relations in this FROM clause answer to `{name}` (at {at})"),
                    span,
                );
            }
        }
        Scope { relations, parent }
    }

    /// Resolve one `table_primary` into a scope relation, recording the
    /// table-level read edge and CTE usage.
    fn table_primary(&mut self, tp: SyntaxNode<'_>, ctes: &[usize]) -> Relation {
        let alias = if self.caps.aliases {
            tp.child("correlation")
                .and_then(|c| c.find_token("IDENT"))
                .map(|t| t.text().to_ascii_lowercase())
        } else {
            None
        };
        if tp.label() == Some("derived_table") {
            let columns = if self.caps.derived_tables {
                let shape = tp
                    .child("subquery")
                    .and_then(|s| s.child("query_expression"))
                    .and_then(|qe| self.query(qe, None, ctes));
                if let (Some(cols), Some(alias)) = (&shape, &alias) {
                    for c in cols {
                        self.edges.push(ColumnEdge {
                            to: format!("{alias}.{}", c.name),
                            from: c.sources.clone(),
                            span: c.span,
                        });
                    }
                }
                shape.map(|cols| cols.into_iter().map(|c| c.name).collect())
            } else {
                None
            };
            return Relation { exposed: alias, full_name: None, base: None, columns };
        }
        let Some(name_node) = tp.child("table_name") else {
            return Relation { exposed: alias, full_name: None, base: None, columns: None };
        };
        let parts = idents(name_node);
        let name = dotted(&parts);
        let span = name_node.span().unwrap_or((0, 0));
        // CTEs shadow catalog tables.
        if let Some(&idx) = ctes.iter().rev().find(|&&i| self.ctes[i].name == name) {
            self.ctes[idx].used = true;
            self.reads.push(TableRead { table: name.clone(), span });
            let columns = self.ctes[idx].columns.clone();
            return Relation {
                exposed: Some(alias.unwrap_or_else(|| name.clone())),
                full_name: None,
                base: Some(name),
                columns,
            };
        }
        self.reads.push(TableRead { table: name.clone(), span });
        let columns = self.lookup_table(&name, span);
        let tail = parts.last().map(|(n, _)| n.clone());
        Relation {
            exposed: alias.or(tail),
            full_name: Some(name.clone()),
            base: Some(name),
            columns,
        }
    }

    // ------------------------------------------------------------ references

    /// Walk an expression/clause subtree, resolving every column reference
    /// in `scope` and recursing into expression subqueries (which see
    /// `scope` as their parent — correlation). Canonical sources are
    /// appended to `sink`.
    fn refs(&mut self, node: SyntaxNode<'_>, scope: &Scope<'_>, ctes: &[usize], sink: &mut Vec<String>) {
        match node.name() {
            "column_reference" => {
                if let Some(chain) = node.child("identifier_chain") {
                    let source = self.column(chain, scope);
                    Self::push_unique(sink, source);
                }
            }
            "subquery" => {
                if self.caps.subqueries {
                    if let Some(qe) = node.child("query_expression") {
                        if let Some(cols) = self.query(qe, Some(scope), ctes) {
                            for c in cols {
                                for s in c.sources {
                                    Self::push_unique(sink, s);
                                }
                            }
                        }
                    }
                }
            }
            _ => {
                for c in node.children().filter_map(SyntaxElement::as_node) {
                    self.refs(c, scope, ctes, sink);
                }
            }
        }
    }

    /// Resolve one identifier chain as a column reference. Returns the
    /// canonical `relation.column` source, or the raw chain when the
    /// relation cannot be attributed.
    fn column(&mut self, chain: SyntaxNode<'_>, scope: &Scope<'_>) -> String {
        let parts = idents(chain);
        let span = chain.span().unwrap_or((0, 0));
        match parts.len() {
            0 => String::new(),
            1 => {
                let col = parts[0].0.clone();
                self.unqualified(&col, span, scope, false)
            }
            _ => {
                let col = parts.last().unwrap().0.clone();
                let qualifier = dotted(&parts[..parts.len() - 1]);
                match scope.find(&qualifier) {
                    Some(rel) => {
                        let base = rel.lineage_base().unwrap_or(&qualifier).to_string();
                        if let Some(cols) = &rel.columns {
                            if !cols.contains(&col) {
                                let at = self.at(span);
                                self.diag(
                                    Code::UnknownColumn,
                                    format!("column `{qualifier}.{col}`"),
                                    format!(
                                        "relation `{qualifier}` has no column `{col}` (at {at})"
                                    ),
                                    span,
                                );
                            }
                        }
                        format!("{base}.{col}")
                    }
                    None => {
                        let at = self.at(span);
                        self.diag(
                            Code::UnknownColumn,
                            format!("column `{qualifier}.{col}`"),
                            format!("no relation named `{qualifier}` in scope (at {at})"),
                            span,
                        );
                        format!("{qualifier}.{col}")
                    }
                }
            }
        }
    }

    /// Resolve an unqualified column name against the scope chain.
    /// `lenient` suppresses the unknown-column diagnostic (USING lists).
    fn unqualified(
        &mut self,
        col: &str,
        span: (usize, usize),
        scope: &Scope<'_>,
        lenient: bool,
    ) -> String {
        let mut level = Some(scope);
        while let Some(s) = level {
            let exporters: Vec<&Relation> = s
                .relations
                .iter()
                .filter(|r| r.columns.as_ref().is_some_and(|c| c.iter().any(|x| x == col)))
                .collect();
            let opaque = s.relations.iter().any(|r| r.columns.is_none());
            if exporters.len() >= 2 && !lenient {
                let names: Vec<String> = exporters
                    .iter()
                    .filter_map(|r| r.lineage_base().or(r.exposed.as_deref()))
                    .map(str::to_string)
                    .collect();
                let at = self.at(span);
                self.diag(
                    Code::AmbiguousColumn,
                    format!("column `{col}`"),
                    format!(
                        "`{col}` (at {at}) is exported by more than one relation in scope: {}",
                        names.join(", ")
                    ),
                    span,
                );
            }
            if let Some(rel) = exporters.first() {
                let base = rel.lineage_base().unwrap_or("?").to_string();
                return format!("{base}.{col}");
            }
            if opaque {
                // Some relation's columns are unknown; attribute to it if
                // it is alone at this level, otherwise leave the source
                // unattributed — never diagnose.
                let opaques: Vec<&Relation> =
                    s.relations.iter().filter(|r| r.columns.is_none()).collect();
                if opaques.len() == 1 && s.relations.len() == 1 {
                    if let Some(base) = opaques[0].lineage_base() {
                        return format!("{base}.{col}");
                    }
                }
                return col.to_string();
            }
            level = s.parent;
        }
        // Every level had fully-known relations and none exported `col`.
        // Diagnose only under a user-supplied catalog: without one the
        // script's view of the world is incomplete (views and tables may
        // be defined elsewhere), so even exactly-inferred derived-table
        // shapes are treated as best-effort.
        if !lenient && self.schema.is_some() {
            let at = self.at(span);
            self.diag(
                Code::UnknownColumn,
                format!("column `{col}`"),
                format!("`{col}` (at {at}) is not exported by any relation in scope"),
                span,
            );
        }
        col.to_string()
    }
}

/// If the expression is a bare column reference (single-child chain down
/// to `column_reference`), the final identifier — the implicit output
/// column name.
fn bare_column_tail(expr: SyntaxNode<'_>) -> Option<String> {
    let mut node = expr;
    loop {
        if node.name() == "column_reference" {
            let parts = idents(node);
            return parts.last().map(|(n, _)| n.clone());
        }
        match node.child_at(0).and_then(SyntaxElement::as_node) {
            Some(only) if node.child_count() == 1 => node = only,
            _ => return None,
        }
    }
}
