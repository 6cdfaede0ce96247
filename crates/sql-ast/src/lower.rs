//! CST → AST lowering — the *semantic actions* layer.
//!
//! The paper attaches semantics to generated parsers with Jak; here the
//! lowering is a name/label-driven walk over [`SyntaxNode`] cursors, so it
//! reads a session's arena tree in place (names from the parser's tables,
//! token text sliced from the input) with no intermediate tree. Because
//! every dialect's parser emits the same production names, one lowering
//! serves the entire product line: statements of unselected features
//! simply never appear.

use crate::ast::*;
use sqlweave_parser_rt::{SyntaxElement, SyntaxNode, SyntaxTree};
use std::fmt;

/// Lowering failure (an unhandled or malformed CST shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// What went wrong, with the offending production name.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(message: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError { message: message.into() })
}

/// Cursor over a node's children.
struct Walk<'t> {
    node: SyntaxNode<'t>,
    pos: usize,
}

impl<'t> Walk<'t> {
    fn of(node: SyntaxNode<'t>) -> Walk<'t> {
        Walk { node, pos: 0 }
    }

    fn peek_name(&self) -> Option<&'t str> {
        self.node.child_at(self.pos).map(SyntaxElement::name)
    }

    fn bump(&mut self) -> Option<SyntaxElement<'t>> {
        let c = self.node.child_at(self.pos)?;
        self.pos += 1;
        Some(c)
    }

    /// Take the next child if it has the given production or token name.
    fn take(&mut self, name: &str) -> Option<SyntaxElement<'t>> {
        if self.peek_name() == Some(name) {
            self.bump()
        } else {
            None
        }
    }

    /// Take the next child if it is a rule with the given production name.
    fn take_node(&mut self, name: &str) -> Option<SyntaxNode<'t>> {
        self.take(name).and_then(SyntaxElement::as_node)
    }

    /// Take the next child if it is a token of one of the given kinds;
    /// returns its kind name.
    fn take_any(&mut self, names: &[&str]) -> Option<&'t str> {
        let name = self.peek_name()?;
        if names.contains(&name) {
            self.bump();
            Some(name)
        } else {
            None
        }
    }

    /// Require the next child by name.
    fn expect(&mut self, name: &str) -> Result<SyntaxElement<'t>, LowerError> {
        match self.take(name) {
            Some(n) => Ok(n),
            None => err(format!(
                "expected `{name}`, found `{:?}`",
                self.peek_name()
            )),
        }
    }

    /// Require the next child to be a rule with the given production name.
    fn expect_node(&mut self, name: &str) -> Result<SyntaxNode<'t>, LowerError> {
        self.expect(name)?
            .as_node()
            .ok_or_else(|| LowerError { message: format!("`{name}` is not a rule") })
    }

    /// Require the next child to be a token and return its text.
    fn expect_text(&mut self, name: &str) -> Result<&'t str, LowerError> {
        self.expect(name)?
            .token_text()
            .ok_or_else(|| LowerError { message: format!("`{name}` is not a token") })
    }

    /// All remaining child rules with the given name (interspersed `COMMA`
    /// separators are skipped).
    fn collect(&mut self, name: &str) -> Vec<SyntaxNode<'t>> {
        let mut out = Vec::new();
        while let Some(c) = self.node.child_at(self.pos) {
            match c {
                SyntaxElement::Node(n) if n.name() == name => out.push(n),
                _ if c.name() == "COMMA" => {}
                _ => break,
            }
            self.pos += 1;
        }
        out
    }
}

fn label(node: SyntaxNode<'_>) -> &str {
    node.label().unwrap_or("")
}

/// The first child of `node` as a rule (`sql_statement`, `query_term`
/// and the single-child wrappers `row_value`, `insert_value`,
/// `update_source`).
fn first_node(node: SyntaxNode<'_>) -> Result<SyntaxNode<'_>, LowerError> {
    node.child_at(0)
        .and_then(SyntaxElement::as_node)
        .ok_or_else(|| LowerError { message: format!("`{}` has no rule child", node.name()) })
}

// ---------------------------------------------------------------- entry

/// Lower a parsed `sql_script` to a list of statements. The tree may be
/// a session's borrowed tree or an owned copy; a tree rooted at a bare
/// statement or query lowers to that one statement.
pub fn lower_script(tree: &SyntaxTree<'_>) -> Result<Vec<Statement>, LowerError> {
    let root = tree.root();
    if root.name() != "sql_script" {
        return Ok(vec![lower_statement(root)?]);
    }
    root.children_named("sql_statement").map(lower_statement).collect()
}

/// Lower a `sql_statement` (or a bare inner statement node).
pub fn lower_statement(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let inner = if node.name() == "sql_statement" {
        first_node(node)?
    } else {
        node
    };
    match inner.name() {
        "query_expression" => Ok(Statement::Query(lower_query(inner)?)),
        "insert_statement" => lower_insert(inner),
        "update_statement" => lower_update(inner),
        "delete_statement" => lower_delete(inner),
        "merge_statement" => lower_merge(inner),
        "table_definition" => lower_create_table(inner),
        "view_definition" => lower_create_view(inner),
        "schema_definition" => lower_create_schema(inner),
        "domain_definition" => lower_create_domain(inner),
        "alter_table_statement" => lower_alter_table(inner),
        "drop_statement" => lower_drop(inner),
        "grant_statement" => lower_grant(inner, false),
        "revoke_statement" => lower_grant(inner, true),
        "transaction_statement" => lower_transaction(inner),
        "session_statement" => lower_session(inner),
        "cursor_statement" => lower_cursor(inner),
        other => err(format!("unhandled statement production `{other}`")),
    }
}

// ---------------------------------------------------------------- queries

/// Lower a `query_expression`.
pub fn lower_query(node: SyntaxNode<'_>) -> Result<Query, LowerError> {
    let mut w = Walk::of(node);
    let (with, recursive) = match w.take_node("with_clause") {
        Some(wc) => lower_with(wc)?,
        None => (Vec::new(), false),
    };
    let mut body = lower_query_term(w.expect_node("query_term")?)?;
    while let Some(op_node) = w.take_node("set_operator") {
        let mut ow = Walk::of(op_node);
        let op = match ow.take_any(&["UNION", "EXCEPT", "INTERSECT"]) {
            Some("UNION") => SetOp::Union,
            Some("EXCEPT") => SetOp::Except,
            Some("INTERSECT") => SetOp::Intersect,
            _ => return err("bad set_operator"),
        };
        let quantifier = match ow.take_any(&["ALL", "DISTINCT"]) {
            Some("ALL") => Some(SetQuantifier::All),
            Some("DISTINCT") => Some(SetQuantifier::Distinct),
            _ => None,
        };
        let right = lower_query_term(w.expect_node("query_term")?)?;
        body = QueryBody::SetOp {
            left: Box::new(body),
            op,
            quantifier,
            right: Box::new(right),
        };
    }
    let order_by = match w.take_node("order_by_clause") {
        Some(ob) => lower_order_by(ob)?,
        None => Vec::new(),
    };
    let mut offset = None;
    let mut fetch = None;
    if w.take("OFFSET").is_some() {
        offset = Some(w.expect_text("NUMBER")?.to_string());
        w.take_any(&["ROW", "ROWS"]);
    }
    if w.take("FETCH").is_some() {
        w.take_any(&["FIRST", "NEXT"]);
        fetch = Some(w.expect_text("NUMBER")?.to_string());
        w.take_any(&["ROW", "ROWS"]);
        w.take("ONLY");
    }
    Ok(Query { with, recursive, body, order_by, offset, fetch })
}

fn lower_with(node: SyntaxNode<'_>) -> Result<(Vec<Cte>, bool), LowerError> {
    let mut w = Walk::of(node);
    w.expect("WITH")?;
    let recursive = w.take("RECURSIVE").is_some();
    let mut ctes = Vec::new();
    for el in w.collect("with_element") {
        let mut ew = Walk::of(el);
        let name = ew.expect_text("IDENT")?.to_string();
        let mut columns = Vec::new();
        if ew.take("LPAREN").is_some() {
            columns = lower_column_name_list(ew.expect_node("column_name_list")?)?;
            ew.expect("RPAREN")?;
        }
        ew.expect("AS")?;
        ew.expect("LPAREN")?;
        let query = lower_query(ew.expect_node("query_expression")?)?;
        ew.expect("RPAREN")?;
        ctes.push(Cte { name, columns, query: Box::new(query) });
    }
    Ok((ctes, recursive))
}

fn lower_query_term(node: SyntaxNode<'_>) -> Result<QueryBody, LowerError> {
    let primary = first_node(node)?;
    match label(primary) {
        "select" => Ok(QueryBody::Select(Box::new(lower_select(
            primary.child("query_specification").ok_or_else(|| LowerError {
                message: "query_primary#select lacks query_specification".into(),
            })?,
        )?))),
        "nested" => {
            let sub = primary.child("subquery").ok_or_else(|| LowerError {
                message: "query_primary#nested lacks subquery".into(),
            })?;
            Ok(QueryBody::Nested(Box::new(lower_subquery(sub)?)))
        }
        other => err(format!("unhandled query_primary label `{other}`")),
    }
}

fn lower_subquery(node: SyntaxNode<'_>) -> Result<Query, LowerError> {
    let mut w = Walk::of(node);
    w.expect("LPAREN")?;
    let q = lower_query(w.expect_node("query_expression")?)?;
    w.expect("RPAREN")?;
    Ok(q)
}

fn lower_select(node: SyntaxNode<'_>) -> Result<Select, LowerError> {
    let mut w = Walk::of(node);
    w.expect("SELECT")?;
    let quantifier = match w.take_node("set_quantifier") {
        Some(q) => match label(q) {
            "all" => Some(SetQuantifier::All),
            "distinct" => Some(SetQuantifier::Distinct),
            other => return err(format!("bad set_quantifier label `{other}`")),
        },
        None => None,
    };
    let projection = lower_select_list(w.expect_node("select_list")?)?;
    let te = w.expect_node("table_expression")?;
    let mut select = lower_table_expression(te)?;
    select.quantifier = quantifier;
    select.projection = projection;
    // TinySQL clauses appear inline after the table expression.
    if w.take("EPOCH").is_some() {
        w.expect("DURATION")?;
        select.sensor.epoch_duration = Some(w.expect_text("NUMBER")?.to_string());
    }
    if w.take("SAMPLE").is_some() {
        w.expect("PERIOD")?;
        select.sensor.sample_period = Some(w.expect_text("NUMBER")?.to_string());
    }
    if w.take("LIFETIME").is_some() {
        select.sensor.lifetime = Some(w.expect_text("NUMBER")?.to_string());
    }
    Ok(select)
}

fn lower_select_list(node: SyntaxNode<'_>) -> Result<Vec<SelectItem>, LowerError> {
    match label(node) {
        "star" => Ok(vec![SelectItem::Star]),
        "columns" => {
            let mut w = Walk::of(node);
            let mut items = Vec::new();
            for sub in w.collect("select_sublist") {
                items.push(lower_select_sublist(sub)?);
            }
            Ok(items)
        }
        other => err(format!("unhandled select_list label `{other}`")),
    }
}

fn lower_select_sublist(node: SyntaxNode<'_>) -> Result<SelectItem, LowerError> {
    match label(node) {
        "qualified_star" => {
            let chain = lower_identifier_chain(
                node.child("identifier_chain")
                    .ok_or_else(|| LowerError { message: "qualified_star".into() })?,
            );
            Ok(SelectItem::QualifiedStar(chain))
        }
        _ => {
            let dc = node
                .child("derived_column")
                .ok_or_else(|| LowerError { message: "select_sublist".into() })?;
            let mut w = Walk::of(dc);
            let expr = lower_value_expression(w.expect_node("value_expression")?)?;
            let alias = match w.take_node("as_clause") {
                Some(a) => {
                    let mut aw = Walk::of(a);
                    aw.take("AS");
                    Some(aw.expect_text("IDENT")?.to_string())
                }
                None => None,
            };
            Ok(SelectItem::Expr { expr, alias })
        }
    }
}

fn lower_table_expression(node: SyntaxNode<'_>) -> Result<Select, LowerError> {
    let mut select = Select::default();
    let mut w = Walk::of(node);
    let fc = w.expect_node("from_clause")?;
    let mut fw = Walk::of(fc);
    fw.expect("FROM")?;
    for tr in fw.collect("table_reference") {
        select.from.push(lower_table_reference(tr)?);
    }
    if let Some(wc) = w.take_node("where_clause") {
        let mut ww = Walk::of(wc);
        ww.expect("WHERE")?;
        select.selection = Some(lower_search_condition(ww.expect_node("search_condition")?)?);
    }
    if let Some(gc) = w.take_node("group_by_clause") {
        let mut gw = Walk::of(gc);
        gw.expect("GROUP")?;
        gw.expect("BY")?;
        for ge in gw.collect("grouping_element") {
            select.group_by.push(lower_grouping_element(ge)?);
        }
    }
    if let Some(hc) = w.take_node("having_clause") {
        let mut hw = Walk::of(hc);
        hw.expect("HAVING")?;
        select.having = Some(lower_search_condition(hw.expect_node("search_condition")?)?);
    }
    if let Some(wc) = w.take_node("window_clause") {
        let mut ww = Walk::of(wc);
        ww.expect("WINDOW")?;
        for wd in ww.collect("window_definition") {
            select.windows.push(lower_window_definition(wd)?);
        }
    }
    Ok(select)
}

fn lower_table_reference(node: SyntaxNode<'_>) -> Result<TableRef, LowerError> {
    let mut w = Walk::of(node);
    let mut table = lower_table_primary(w.expect_node("table_primary")?)?;
    while let Some(j) = w.take_node("joined_table") {
        let mut jw = Walk::of(j);
        let (kind, right, condition) = match label(j) {
            "cross" => {
                jw.expect("CROSS")?;
                jw.expect("JOIN")?;
                let right = lower_table_primary(jw.expect_node("table_primary")?)?;
                (JoinKind::Cross, right, JoinCondition::None)
            }
            "natural" => {
                jw.expect("NATURAL")?;
                jw.take_node("join_type");
                jw.expect("JOIN")?;
                let right = lower_table_primary(jw.expect_node("table_primary")?)?;
                (JoinKind::Natural, right, JoinCondition::None)
            }
            _ => {
                let kind = match jw.take_node("join_type").map(label) {
                    Some("left") => JoinKind::Left,
                    Some("right") => JoinKind::Right,
                    Some("full") => JoinKind::Full,
                    _ => JoinKind::Inner,
                };
                jw.expect("JOIN")?;
                let right = lower_table_primary(jw.expect_node("table_primary")?)?;
                let condition = match jw.take_node("join_condition") {
                    Some(jc) => lower_join_condition(jc)?,
                    None => JoinCondition::None,
                };
                (kind, right, condition)
            }
        };
        table = TableRef::Join {
            left: Box::new(table),
            kind,
            right: Box::new(right),
            condition,
        };
    }
    Ok(table)
}

fn lower_join_condition(node: SyntaxNode<'_>) -> Result<JoinCondition, LowerError> {
    match label(node) {
        "on" => {
            let mut w = Walk::of(node);
            w.expect("ON")?;
            Ok(JoinCondition::On(lower_search_condition(
                w.expect_node("search_condition")?,
            )?))
        }
        "using" => {
            let mut w = Walk::of(node);
            w.expect("USING")?;
            w.expect("LPAREN")?;
            let cols = lower_column_name_list(w.expect_node("column_name_list")?)?;
            Ok(JoinCondition::Using(cols))
        }
        other => err(format!("unhandled join_condition label `{other}`")),
    }
}

fn lower_table_primary(node: SyntaxNode<'_>) -> Result<TableRef, LowerError> {
    let mut w = Walk::of(node);
    match label(node) {
        "derived_table" => {
            let q = lower_subquery(w.expect_node("subquery")?)?;
            let alias = lower_correlation(&mut w)?;
            Ok(TableRef::Derived { query: Box::new(q), alias })
        }
        _ => {
            let name = lower_table_name(w.expect_node("table_name")?);
            let alias = lower_correlation(&mut w)?;
            Ok(TableRef::Named { name, alias })
        }
    }
}

fn lower_correlation(w: &mut Walk<'_>) -> Result<Option<String>, LowerError> {
    match w.take_node("correlation") {
        Some(c) => {
            let mut cw = Walk::of(c);
            cw.take("AS");
            Ok(Some(cw.expect_text("IDENT")?.to_string()))
        }
        None => Ok(None),
    }
}

fn lower_grouping_element(node: SyntaxNode<'_>) -> Result<GroupingElement, LowerError> {
    let mut w = Walk::of(node);
    match label(node) {
        "rollup" | "cube" => {
            let is_rollup = label(node) == "rollup";
            w.bump(); // ROLLUP / CUBE
            w.expect("LPAREN")?;
            let mut cols = Vec::new();
            for cr in w.collect("column_reference") {
                cols.push(lower_column_reference(cr));
            }
            Ok(if is_rollup {
                GroupingElement::Rollup(cols)
            } else {
                GroupingElement::Cube(cols)
            })
        }
        "sets" => {
            w.expect("GROUPING")?;
            w.expect("SETS")?;
            w.expect("LPAREN")?;
            let mut elems = Vec::new();
            for ge in w.collect("grouping_element") {
                elems.push(lower_grouping_element(ge)?);
            }
            Ok(GroupingElement::GroupingSets(elems))
        }
        _ => Ok(GroupingElement::Column(lower_column_reference(
            w.expect_node("column_reference")?,
        ))),
    }
}

fn lower_order_by(node: SyntaxNode<'_>) -> Result<Vec<SortSpec>, LowerError> {
    let mut w = Walk::of(node);
    w.expect("ORDER")?;
    w.expect("BY")?;
    let mut out = Vec::new();
    for ss in w.collect("sort_specification") {
        let mut sw = Walk::of(ss);
        let expr = lower_value_expression(sw.expect_node("value_expression")?)?;
        let descending = matches!(sw.take_any(&["ASC", "DESC"]), Some("DESC"));
        let nulls_first = if sw.take("NULLS").is_some() {
            match sw.take_any(&["FIRST", "LAST"]) {
                Some("FIRST") => Some(true),
                Some("LAST") => Some(false),
                _ => None,
            }
        } else {
            None
        };
        out.push(SortSpec { expr, descending, nulls_first });
    }
    Ok(out)
}

fn lower_window_definition(node: SyntaxNode<'_>) -> Result<WindowDef, LowerError> {
    let mut w = Walk::of(node);
    let name = w.expect_text("IDENT")?.to_string();
    w.expect("AS")?;
    w.expect("LPAREN")?;
    let (partition_by, order_by, frame) = lower_window_spec(w.expect_node("window_spec")?)?;
    Ok(WindowDef { name, partition_by, order_by, frame })
}

/// Lower a `window_spec` node into its three clauses.
#[allow(clippy::type_complexity)]
fn lower_window_spec(
    spec: SyntaxNode<'_>,
) -> Result<(Vec<QualifiedName>, Vec<SortSpec>, Option<String>), LowerError> {
    let mut sw = Walk::of(spec);
    let mut partition_by = Vec::new();
    let mut order_by = Vec::new();
    let mut frame = None;
    if let Some(pc) = sw.take_node("partition_clause") {
        let mut pw = Walk::of(pc);
        pw.expect("PARTITION")?;
        pw.expect("BY")?;
        for cr in pw.collect("column_reference") {
            partition_by.push(lower_column_reference(cr));
        }
    }
    if let Some(oc) = sw.take_node("window_order_clause") {
        let mut ow = Walk::of(oc);
        ow.expect("ORDER")?;
        ow.expect("BY")?;
        for ss in ow.collect("sort_specification") {
            let mut ssw = Walk::of(ss);
            let expr = lower_value_expression(ssw.expect_node("value_expression")?)?;
            order_by.push(SortSpec { expr, descending: false, nulls_first: None });
        }
    }
    if let Some(fc) = sw.take_node("frame_clause") {
        frame = Some(fc.text());
    }
    Ok((partition_by, order_by, frame))
}

// ---------------------------------------------------------------- conditions

/// Lower a `search_condition` (boolean expression).
pub fn lower_search_condition(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    let mut expr = lower_boolean_term(w.expect_node("boolean_term")?)?;
    while w.take("OR").is_some() {
        let right = lower_boolean_term(w.expect_node("boolean_term")?)?;
        expr = Expr::Binary {
            left: Box::new(expr),
            op: BinaryOp::Or,
            right: Box::new(right),
        };
    }
    Ok(expr)
}

fn lower_boolean_term(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    let mut expr = lower_boolean_factor(w.expect_node("boolean_factor")?)?;
    while w.take("AND").is_some() {
        let right = lower_boolean_factor(w.expect_node("boolean_factor")?)?;
        expr = Expr::Binary {
            left: Box::new(expr),
            op: BinaryOp::And,
            right: Box::new(right),
        };
    }
    Ok(expr)
}

fn lower_boolean_factor(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    let negated = w.take("NOT").is_some();
    let inner = lower_predicate(w.expect_node("predicate")?)?;
    Ok(if negated {
        Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) }
    } else {
        inner
    })
}

fn lower_predicate(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    match label(node) {
        "paren_condition" => {
            w.expect("LPAREN")?;
            let inner = lower_search_condition(w.expect_node("search_condition")?)?;
            Ok(Expr::Nested(Box::new(inner)))
        }
        "exists" => {
            w.expect("EXISTS")?;
            Ok(Expr::Exists(Box::new(lower_subquery(w.expect_node("subquery")?)?)))
        }
        "overlaps" => {
            let left = lower_row_value(w.expect_node("row_value")?)?;
            w.expect("OVERLAPS")?;
            let right = lower_row_value(w.expect_node("row_value")?)?;
            Ok(Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Overlaps,
                right: Box::new(right),
            })
        }
        _ => {
            let left = lower_row_value(w.expect_node("row_value")?)?;
            let tail = w.expect_node("predicate_tail")?;
            lower_predicate_tail(left, tail)
        }
    }
}

fn lower_row_value(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    lower_value_expression(first_node(node)?)
}

fn comp_op_of(node: SyntaxNode<'_>) -> Result<BinaryOp, LowerError> {
    match label(node) {
        "eq" => Ok(BinaryOp::Eq),
        "neq" => Ok(BinaryOp::Neq),
        "lt" => Ok(BinaryOp::Lt),
        "gt" => Ok(BinaryOp::Gt),
        "le" => Ok(BinaryOp::Le),
        "ge" => Ok(BinaryOp::Ge),
        other => err(format!("unhandled comp_op label `{other}`")),
    }
}

fn lower_predicate_tail(left: Expr, node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    match label(node) {
        "comparison" => {
            let op = comp_op_of(w.expect_node("comp_op")?)?;
            let right = lower_row_value(w.expect_node("row_value")?)?;
            Ok(Expr::Binary { left: Box::new(left), op, right: Box::new(right) })
        }
        "quantified" => {
            let op = comp_op_of(w.expect_node("comp_op")?)?;
            let quantifier = w
                .take_any(&["ALL", "ANY", "SOME"])
                .unwrap_or("ALL")
                .to_string();
            let query = lower_subquery(w.expect_node("subquery")?)?;
            Ok(Expr::Quantified {
                expr: Box::new(left),
                op,
                quantifier,
                query: Box::new(query),
            })
        }
        "between" => {
            let negated = w.take("NOT").is_some();
            w.expect("BETWEEN")?;
            let low = lower_row_value(w.expect_node("row_value")?)?;
            w.expect("AND")?;
            let high = lower_row_value(w.expect_node("row_value")?)?;
            Ok(Expr::Between {
                expr: Box::new(left),
                negated,
                low: Box::new(low),
                high: Box::new(high),
            })
        }
        "in" => {
            let negated = w.take("NOT").is_some();
            w.expect("IN")?;
            w.expect("LPAREN")?;
            let list_node = w.expect_node("in_value_list")?;
            let mut lw = Walk::of(list_node);
            let mut list = Vec::new();
            for ve in lw.collect("value_expression") {
                list.push(lower_value_expression(ve)?);
            }
            Ok(Expr::InList { expr: Box::new(left), negated, list })
        }
        "in_subquery" => {
            let negated = w.take("NOT").is_some();
            w.expect("IN")?;
            let query = lower_subquery(w.expect_node("subquery")?)?;
            Ok(Expr::InSubquery {
                expr: Box::new(left),
                negated,
                query: Box::new(query),
            })
        }
        "like" => {
            let negated = w.take("NOT").is_some();
            w.expect("LIKE")?;
            let pattern = lower_value_expression(w.expect_node("value_expression")?)?;
            let escape = if w.take("ESCAPE").is_some() {
                Some(Box::new(lower_value_expression(
                    w.expect_node("value_expression")?,
                )?))
            } else {
                None
            };
            Ok(Expr::Like {
                expr: Box::new(left),
                negated,
                pattern: Box::new(pattern),
                escape,
            })
        }
        "is_null" => {
            w.expect("IS")?;
            let negated = w.take("NOT").is_some();
            w.expect("NULL")?;
            Ok(Expr::IsNull { expr: Box::new(left), negated })
        }
        "truth_test" => {
            w.expect("IS")?;
            let negated = w.take("NOT").is_some();
            let value = w
                .take_any(&["TRUE", "FALSE", "UNKNOWN"])
                .unwrap_or("UNKNOWN")
                .to_string();
            Ok(Expr::IsTruthValue { expr: Box::new(left), negated, value })
        }
        "is_distinct" => {
            w.expect("IS")?;
            let negated = w.take("NOT").is_some();
            w.expect("DISTINCT")?;
            w.expect("FROM")?;
            let other = lower_row_value(w.expect_node("row_value")?)?;
            Ok(Expr::IsDistinctFrom {
                expr: Box::new(left),
                negated,
                other: Box::new(other),
            })
        }
        other => err(format!("unhandled predicate_tail label `{other}`")),
    }
}

// ---------------------------------------------------------------- expressions

/// Lower a `value_expression`.
pub fn lower_value_expression(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    let mut expr = lower_term(w.expect_node("term")?)?;
    while let Some(op) = w.take_any(&["PLUS", "MINUS"]) {
        let right = lower_term(w.expect_node("term")?)?;
        let op = if op == "PLUS" { BinaryOp::Plus } else { BinaryOp::Minus };
        expr = Expr::Binary { left: Box::new(expr), op, right: Box::new(right) };
    }
    Ok(expr)
}

fn lower_term(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    let mut expr = lower_factor(w.expect_node("factor")?)?;
    while let Some(op) = w.take_any(&["ASTERISK", "SOLIDUS"]) {
        let right = lower_factor(w.expect_node("factor")?)?;
        let op = if op == "ASTERISK" { BinaryOp::Multiply } else { BinaryOp::Divide };
        expr = Expr::Binary { left: Box::new(expr), op, right: Box::new(right) };
    }
    Ok(expr)
}

fn lower_factor(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    let sign = w.take_any(&["PLUS", "MINUS"]);
    let mut expr = lower_value_primary(w.expect_node("value_primary")?)?;
    while w.take("CONCAT").is_some() {
        let right = lower_value_primary(w.expect_node("value_primary")?)?;
        expr = Expr::Binary {
            left: Box::new(expr),
            op: BinaryOp::Concat,
            right: Box::new(right),
        };
    }
    Ok(match sign {
        Some("MINUS") => Expr::Unary { op: UnaryOp::Minus, expr: Box::new(expr) },
        Some("PLUS") => Expr::Unary { op: UnaryOp::Plus, expr: Box::new(expr) },
        _ => expr,
    })
}

fn lower_value_primary(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    match label(node) {
        "column" => Ok(Expr::Column(lower_column_reference(
            w.expect_node("column_reference")?,
        ))),
        "literal" => Ok(Expr::Literal(lower_literal(w.expect_node("literal")?)?)),
        "paren" => {
            w.expect("LPAREN")?;
            let inner = lower_value_expression(w.expect_node("value_expression")?)?;
            Ok(Expr::Nested(Box::new(inner)))
        }
        "case" => lower_case(w.expect_node("case_expression")?),
        "nullif" => {
            w.expect("NULLIF")?;
            w.expect("LPAREN")?;
            let a = lower_value_expression(w.expect_node("value_expression")?)?;
            w.expect("COMMA")?;
            let b = lower_value_expression(w.expect_node("value_expression")?)?;
            Ok(Expr::Function {
                name: "NULLIF".into(),
                quantifier: None,
                args: vec![a, b],
            })
        }
        "coalesce" => {
            w.expect("COALESCE")?;
            w.expect("LPAREN")?;
            let mut args = Vec::new();
            for ve in w.collect("value_expression") {
                args.push(lower_value_expression(ve)?);
            }
            Ok(Expr::Function { name: "COALESCE".into(), quantifier: None, args })
        }
        "cast" => {
            let cast = w.expect_node("cast_expression")?;
            let mut cw = Walk::of(cast);
            cw.expect("CAST")?;
            cw.expect("LPAREN")?;
            let expr = lower_value_expression(cw.expect_node("value_expression")?)?;
            cw.expect("AS")?;
            let data_type = lower_data_type(cw.expect_node("data_type")?)?;
            Ok(Expr::Cast { expr: Box::new(expr), data_type })
        }
        "string_fn" => lower_string_function(w.expect_node("string_function")?),
        "numeric_fn" => lower_simple_function(w.expect_node("numeric_function")?),
        "datetime_fn" => lower_datetime_function(w.expect_node("datetime_function")?),
        "aggregate" => lower_aggregate(w.expect_node("aggregate_function")?),
        "window_fn" => {
            let rf = w.expect_node("ranking_function")?;
            let mut rw = Walk::of(rf);
            let kind = rw.expect_node("ranking_kind")?;
            let name = kind
                .tokens()
                .next()
                .map(|t| t.kind_name().to_string())
                .unwrap_or_else(|| "RANK".into());
            rw.expect("LPAREN")?;
            rw.expect("RPAREN")?;
            rw.expect("OVER")?;
            rw.expect("LPAREN")?;
            let (partition_by, order_by, frame) = lower_window_spec(rw.expect_node("window_spec")?)?;
            Ok(Expr::WindowFunction { name, partition_by, order_by, frame })
        }
        "scalar_subquery" => Ok(Expr::Subquery(Box::new(lower_subquery(
            w.expect_node("subquery")?,
        )?))),
        other => err(format!("unhandled value_primary label `{other}`")),
    }
}

fn lower_case(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    w.expect("CASE")?;
    let (operand, when_name) = match label(node) {
        "simple" => (
            Some(Box::new(lower_value_expression(
                w.expect_node("value_expression")?,
            )?)),
            "simple_when",
        ),
        _ => (None, "searched_when"),
    };
    let mut when_then = Vec::new();
    while let Some(wn) = w.take_node(when_name) {
        let mut ww = Walk::of(wn);
        ww.expect("WHEN")?;
        let cond = if when_name == "searched_when" {
            lower_search_condition(ww.expect_node("search_condition")?)?
        } else {
            lower_value_expression(ww.expect_node("value_expression")?)?
        };
        ww.expect("THEN")?;
        let then = lower_value_expression(ww.expect_node("value_expression")?)?;
        when_then.push((cond, then));
    }
    let else_expr = if w.take("ELSE").is_some() {
        Some(Box::new(lower_value_expression(
            w.expect_node("value_expression")?,
        )?))
    } else {
        None
    };
    w.expect("END")?;
    Ok(Expr::Case { operand, when_then, else_expr })
}

fn lower_string_function(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    match label(node) {
        "substring" => {
            w.expect("SUBSTRING")?;
            w.expect("LPAREN")?;
            let expr = lower_value_expression(w.expect_node("value_expression")?)?;
            w.expect("FROM")?;
            let from = lower_value_expression(w.expect_node("value_expression")?)?;
            let len = if w.take("FOR").is_some() {
                Some(Box::new(lower_value_expression(
                    w.expect_node("value_expression")?,
                )?))
            } else {
                None
            };
            Ok(Expr::Substring {
                expr: Box::new(expr),
                from: Box::new(from),
                len,
            })
        }
        "trim" => {
            w.expect("TRIM")?;
            w.expect("LPAREN")?;
            let spec = w
                .take_any(&["LEADING", "TRAILING", "BOTH"])
                .map(str::to_string);
            if spec.is_some() {
                w.expect("FROM")?;
            }
            let expr = lower_value_expression(w.expect_node("value_expression")?)?;
            Ok(Expr::Trim { spec, expr: Box::new(expr) })
        }
        "position" => {
            w.expect("POSITION")?;
            w.expect("LPAREN")?;
            let needle = lower_value_expression(w.expect_node("value_expression")?)?;
            w.expect("IN")?;
            let haystack = lower_value_expression(w.expect_node("value_expression")?)?;
            Ok(Expr::Position {
                needle: Box::new(needle),
                haystack: Box::new(haystack),
            })
        }
        // upper / lower / char_length: single-argument functions
        _ => lower_simple_function(node),
    }
}

/// Functions of shape `KW ( args… )` — the keyword token comes first.
fn lower_simple_function(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    let kw = w
        .bump()
        .and_then(SyntaxElement::as_token)
        .map(|t| t.kind_name().to_string())
        .ok_or_else(|| LowerError { message: "function keyword".into() })?;
    w.expect("LPAREN")?;
    let mut args = Vec::new();
    for ve in w.collect("value_expression") {
        args.push(lower_value_expression(ve)?);
    }
    Ok(Expr::Function { name: kw, quantifier: None, args })
}

fn lower_datetime_function(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    match label(node) {
        "extract" => {
            let mut w = Walk::of(node);
            w.expect("EXTRACT")?;
            w.expect("LPAREN")?;
            let field_node = w.expect_node("interval_field")?;
            let field = field_node
                .tokens()
                .next()
                .map(|t| t.text())
                .unwrap_or("YEAR")
                .to_uppercase();
            w.expect("FROM")?;
            let expr = lower_value_expression(w.expect_node("value_expression")?)?;
            Ok(Expr::Extract { field, expr: Box::new(expr) })
        }
        // CURRENT_DATE / CURRENT_TIME / CURRENT_TIMESTAMP
        _ => {
            let name = node
                .tokens()
                .next()
                .map(|t| t.kind_name().to_string())
                .unwrap_or_else(|| "CURRENT_DATE".into());
            Ok(Expr::Function { name, quantifier: None, args: Vec::new() })
        }
    }
}

fn lower_aggregate(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    let mut w = Walk::of(node);
    if label(node) == "count_star" {
        return Ok(Expr::Function {
            name: "COUNT".into(),
            quantifier: None,
            args: vec![Expr::Wildcard],
        });
    }
    let kw = w
        .bump()
        .map(|n| n.name().to_string())
        .ok_or_else(|| LowerError { message: "aggregate keyword".into() })?;
    w.expect("LPAREN")?;
    let quantifier = match w.take_node("agg_quantifier") {
        Some(q) => match q.tokens().next().map(|t| t.kind_name()) {
            Some("DISTINCT") => Some(SetQuantifier::Distinct),
            Some("ALL") => Some(SetQuantifier::All),
            _ => None,
        },
        None => None,
    };
    let arg = lower_value_expression(w.expect_node("value_expression")?)?;
    Ok(Expr::Function { name: kw, quantifier, args: vec![arg] })
}

fn lower_literal(node: SyntaxNode<'_>) -> Result<Literal, LowerError> {
    let mut w = Walk::of(node);
    let unquote = |s: &str| -> String {
        let inner = &s[1..s.len() - 1];
        inner.replace("''", "'")
    };
    match label(node) {
        "number" => Ok(Literal::Number(w.expect_text("NUMBER")?.to_string())),
        "string" => Ok(Literal::String(unquote(w.expect_text("STRING")?))),
        "true" => Ok(Literal::Boolean(true)),
        "false" => Ok(Literal::Boolean(false)),
        "null" => Ok(Literal::Null),
        "date" => {
            w.expect("DATE")?;
            Ok(Literal::Date(unquote(w.expect_text("STRING")?)))
        }
        "time" => {
            w.expect("TIME")?;
            Ok(Literal::Time(unquote(w.expect_text("STRING")?)))
        }
        "timestamp" => {
            w.expect("TIMESTAMP")?;
            Ok(Literal::Timestamp(unquote(w.expect_text("STRING")?)))
        }
        "interval" => {
            w.expect("INTERVAL")?;
            let negative = matches!(w.take_any(&["PLUS", "MINUS"]), Some("MINUS"));
            let value = unquote(w.expect_text("STRING")?);
            let qualifier = w
                .take_node("interval_qualifier")
                .map(|q| q.text().to_uppercase())
                .unwrap_or_default();
            Ok(Literal::Interval { negative, value, qualifier })
        }
        other => err(format!("unhandled literal label `{other}`")),
    }
}

fn lower_column_reference(node: SyntaxNode<'_>) -> QualifiedName {
    node.child("identifier_chain")
        .map(lower_identifier_chain)
        .unwrap_or_default()
}

/// The `IDENT` token leaves of an identifier-bearing node (an
/// `identifier_chain`, `table_name`, or `column_name_list`), each with its
/// byte span into the original input. This is the span-carrying variant of
/// the lowering below — semantic passes (name resolution, lineage) use it
/// to anchor diagnostics and edges to concrete source text.
pub fn identifier_parts<'t>(
    node: SyntaxNode<'t>,
) -> impl Iterator<Item = (&'t str, (usize, usize))> + 't {
    node.tokens().filter(|t| t.kind_name() == "IDENT").map(|t| (t.text(), t.span()))
}

fn lower_identifier_chain(node: SyntaxNode<'_>) -> QualifiedName {
    identifier_parts(node).map(|(name, _)| name.to_string()).collect()
}

fn lower_table_name(node: SyntaxNode<'_>) -> QualifiedName {
    lower_identifier_chain(node)
}

fn lower_column_name_list(node: SyntaxNode<'_>) -> Result<Vec<String>, LowerError> {
    Ok(lower_identifier_chain(node))
}

// ---------------------------------------------------------------- data types

fn lower_data_type(node: SyntaxNode<'_>) -> Result<DataType, LowerError> {
    let mut w = Walk::of(node);
    let scalar = lower_scalar_type(w.expect_node("scalar_type")?)?;
    if w.take("ARRAY").is_some() {
        let bound = if w.take("LBRACKET").is_some() {
            Some(w.expect_text("NUMBER")?.to_string())
        } else {
            None
        };
        return Ok(DataType::Array { element: Box::new(scalar), bound });
    }
    Ok(scalar)
}

fn paren_number(w: &mut Walk<'_>) -> Result<Option<String>, LowerError> {
    if w.take("LPAREN").is_some() {
        let n = w.expect_text("NUMBER")?.to_string();
        // leave RPAREN and possible COMMA to the caller where needed
        Ok(Some(n))
    } else {
        Ok(None)
    }
}

fn lower_scalar_type(node: SyntaxNode<'_>) -> Result<DataType, LowerError> {
    let mut w = Walk::of(node);
    match label(node) {
        "character" => {
            w.take_any(&["CHARACTER", "CHAR"]);
            let varying = w.take("VARYING").is_some();
            let length = paren_number(&mut w)?;
            Ok(DataType::Character { varying, length })
        }
        "varchar" => {
            w.expect("VARCHAR")?;
            let length = paren_number(&mut w)?;
            Ok(DataType::Varchar(length))
        }
        "clob" => Ok(DataType::Clob),
        "decimal" => {
            w.take_any(&["NUMERIC", "DECIMAL", "DEC"]);
            let precision = paren_number(&mut w)?;
            let scale = if w.take("COMMA").is_some() {
                Some(w.expect_text("NUMBER")?.to_string())
            } else {
                None
            };
            Ok(DataType::Decimal { precision, scale })
        }
        "smallint" => Ok(DataType::SmallInt),
        "integer" => Ok(DataType::Integer),
        "bigint" => Ok(DataType::BigInt),
        "float" => {
            w.expect("FLOAT")?;
            Ok(DataType::Float(paren_number(&mut w)?))
        }
        "real" => Ok(DataType::Real),
        "double" => Ok(DataType::Double),
        "boolean" => Ok(DataType::Boolean),
        "date" => Ok(DataType::Date),
        "time" | "timestamp" => {
            let is_time = label(node) == "time";
            w.take_any(&["TIME", "TIMESTAMP"]);
            let precision = paren_number(&mut w)?;
            if precision.is_some() {
                w.take("RPAREN");
            }
            let with_time_zone = match w.take_any(&["WITH", "WITHOUT"]) {
                Some("WITH") => Some(true),
                Some("WITHOUT") => Some(false),
                _ => None,
            };
            Ok(if is_time {
                DataType::Time { precision, with_time_zone }
            } else {
                DataType::Timestamp { precision, with_time_zone }
            })
        }
        "interval" => {
            w.expect("INTERVAL")?;
            let q = w
                .take_node("interval_qualifier")
                .map(|q| q.text().to_uppercase())
                .unwrap_or_default();
            Ok(DataType::Interval(q))
        }
        "blob" => Ok(DataType::Blob),
        "binary" => {
            w.expect("BINARY")?;
            let varying = w.take("VARYING").is_some();
            let length = paren_number(&mut w)?;
            Ok(DataType::Binary { varying, length })
        }
        other => err(format!("unhandled scalar_type label `{other}`")),
    }
}

// ---------------------------------------------------------------- DML

fn lower_insert(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("INSERT")?;
    w.expect("INTO")?;
    let table = lower_table_name(w.expect_node("table_name")?);
    let mut columns = Vec::new();
    if w.take("LPAREN").is_some() {
        columns = lower_column_name_list(w.expect_node("column_name_list")?)?;
        w.expect("RPAREN")?;
    }
    let src = w.expect_node("insert_source")?;
    let source = match label(src) {
        "values" => {
            let mut sw = Walk::of(src);
            sw.expect("VALUES")?;
            let mut rows = Vec::new();
            for rc in sw.collect("row_constructor") {
                let mut rw = Walk::of(rc);
                rw.expect("LPAREN")?;
                let mut row = Vec::new();
                for iv in rw.collect("insert_value") {
                    row.push(lower_insert_value(iv)?);
                }
                rows.push(row);
            }
            InsertSource::Values(rows)
        }
        "query" => InsertSource::Query(Box::new(lower_query(
            src.child("query_expression")
                .ok_or_else(|| LowerError { message: "insert query".into() })?,
        )?)),
        "default_values" => InsertSource::DefaultValues,
        other => return err(format!("unhandled insert_source label `{other}`")),
    };
    Ok(Statement::Insert(Insert { table, columns, source }))
}

fn lower_insert_value(node: SyntaxNode<'_>) -> Result<Expr, LowerError> {
    match label(node) {
        "default" => Ok(Expr::Default),
        _ => lower_value_expression(first_node(node)?),
    }
}

fn lower_set_clauses(w: &mut Walk<'_>) -> Result<Vec<(String, Expr)>, LowerError> {
    let mut out = Vec::new();
    for sc in w.collect("set_clause") {
        let mut sw = Walk::of(sc);
        let col = sw.expect_text("IDENT")?.to_string();
        sw.expect("EQ")?;
        let src = sw.expect_node("update_source")?;
        let expr = match label(src) {
            "default" => Expr::Default,
            _ => lower_value_expression(first_node(src)?)?,
        };
        out.push((col, expr));
    }
    Ok(out)
}

fn lower_update(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("UPDATE")?;
    let table = lower_table_name(w.expect_node("table_name")?);
    w.expect("SET")?;
    let assignments = lower_set_clauses(&mut w)?;
    let selection = lower_update_selection(&mut w, label(node) == "positioned")?;
    Ok(Statement::Update(Update { table, assignments, selection }))
}

fn lower_update_selection(
    w: &mut Walk<'_>,
    positioned: bool,
) -> Result<Option<UpdateSelection>, LowerError> {
    if positioned {
        w.expect("WHERE")?;
        w.expect("CURRENT")?;
        w.expect("OF")?;
        return Ok(Some(UpdateSelection::CurrentOf(
            w.expect_text("IDENT")?.to_string(),
        )));
    }
    if w.take("WHERE").is_some() {
        return Ok(Some(UpdateSelection::Searched(lower_search_condition(
            w.expect_node("search_condition")?,
        )?)));
    }
    Ok(None)
}

fn lower_delete(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("DELETE")?;
    w.expect("FROM")?;
    let table = lower_table_name(w.expect_node("table_name")?);
    let selection = lower_update_selection(&mut w, label(node) == "positioned")?;
    Ok(Statement::Delete(Delete { table, selection }))
}

fn lower_merge(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("MERGE")?;
    w.expect("INTO")?;
    let target = lower_table_name(w.expect_node("table_name")?);
    w.expect("USING")?;
    let source = lower_table_name(w.expect_node("table_name")?);
    w.expect("ON")?;
    let on = lower_search_condition(w.expect_node("search_condition")?)?;
    let mut when = Vec::new();
    while let Some(mw) = w.take_node("merge_when") {
        let mut ww = Walk::of(mw);
        ww.expect("WHEN")?;
        if label(mw) == "matched" {
            ww.expect("MATCHED")?;
            ww.expect("THEN")?;
            ww.expect("UPDATE")?;
            ww.expect("SET")?;
            when.push(MergeWhen::MatchedUpdate(lower_set_clauses(&mut ww)?));
        } else {
            ww.expect("NOT")?;
            ww.expect("MATCHED")?;
            ww.expect("THEN")?;
            ww.expect("INSERT")?;
            let mut columns = Vec::new();
            if ww.take("LPAREN").is_some() {
                columns = lower_column_name_list(ww.expect_node("column_name_list")?)?;
                ww.expect("RPAREN")?;
            }
            ww.expect("VALUES")?;
            let rc = ww.expect_node("row_constructor")?;
            let mut rw = Walk::of(rc);
            rw.expect("LPAREN")?;
            let mut values = Vec::new();
            for iv in rw.collect("insert_value") {
                values.push(lower_insert_value(iv)?);
            }
            when.push(MergeWhen::NotMatchedInsert { columns, values });
        }
    }
    Ok(Statement::Merge(Merge { target, source, on, when }))
}

// ---------------------------------------------------------------- DDL

fn lower_create_table(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("CREATE")?;
    let temporary = match w.take_any(&["GLOBAL", "LOCAL"]) {
        Some("GLOBAL") => {
            w.expect("TEMPORARY")?;
            Some(TableScope::Global)
        }
        Some("LOCAL") => {
            w.expect("TEMPORARY")?;
            Some(TableScope::Local)
        }
        _ => None,
    };
    w.expect("TABLE")?;
    let name = lower_table_name(w.expect_node("table_name")?);
    w.expect("LPAREN")?;
    let mut columns = Vec::new();
    let mut constraints = Vec::new();
    for el in w.collect("table_element") {
        match label(el) {
            "constraint" => constraints.push(lower_table_constraint(
                el.child("table_constraint")
                    .ok_or_else(|| LowerError { message: "table_constraint".into() })?,
            )?),
            _ => columns.push(lower_column_def(
                el.child("column_definition")
                    .ok_or_else(|| LowerError { message: "column_definition".into() })?,
            )?),
        }
    }
    Ok(Statement::CreateTable(CreateTable { name, temporary, columns, constraints }))
}

fn lower_column_def(node: SyntaxNode<'_>) -> Result<ColumnDef, LowerError> {
    let mut w = Walk::of(node);
    let name = w.expect_text("IDENT")?.to_string();
    let data_type = lower_data_type(w.expect_node("data_type")?)?;
    let default = if w.take("DEFAULT").is_some() {
        Some(lower_literal(w.expect_node("literal")?)?)
    } else {
        None
    };
    let identity = if w.take("GENERATED").is_some() {
        w.expect("ALWAYS")?;
        w.expect("AS")?;
        w.expect("IDENTITY")?;
        true
    } else {
        false
    };
    let mut constraints = Vec::new();
    while let Some(cc) = w.take_node("column_constraint") {
        constraints.push(lower_column_constraint(cc)?);
    }
    Ok(ColumnDef { name, data_type, default, identity, constraints })
}

fn lower_column_constraint(node: SyntaxNode<'_>) -> Result<ColumnConstraint, LowerError> {
    let mut w = Walk::of(node);
    match label(node) {
        "not_null" => Ok(ColumnConstraint::NotNull),
        "unique" => Ok(ColumnConstraint::Unique),
        "primary_key" => Ok(ColumnConstraint::PrimaryKey),
        "check" => {
            w.expect("CHECK")?;
            w.expect("LPAREN")?;
            Ok(ColumnConstraint::Check(lower_search_condition(
                w.expect_node("search_condition")?,
            )?))
        }
        "references" => {
            w.expect("REFERENCES")?;
            let table = lower_table_name(w.expect_node("table_name")?);
            let mut columns = Vec::new();
            if w.take("LPAREN").is_some() {
                columns = lower_column_name_list(w.expect_node("column_name_list")?)?;
            }
            Ok(ColumnConstraint::References { table, columns })
        }
        other => err(format!("unhandled column_constraint label `{other}`")),
    }
}

fn lower_table_constraint(node: SyntaxNode<'_>) -> Result<TableConstraint, LowerError> {
    let mut w = Walk::of(node);
    let name = if w.take("CONSTRAINT").is_some() {
        Some(w.expect_text("IDENT")?.to_string())
    } else {
        None
    };
    let body_node = w.expect_node("table_constraint_body")?;
    let mut bw = Walk::of(body_node);
    let body = match label(body_node) {
        "primary_key" => {
            bw.expect("PRIMARY")?;
            bw.expect("KEY")?;
            bw.expect("LPAREN")?;
            TableConstraintBody::PrimaryKey(lower_column_name_list(
                bw.expect_node("column_name_list")?,
            )?)
        }
        "unique" => {
            bw.expect("UNIQUE")?;
            bw.expect("LPAREN")?;
            TableConstraintBody::Unique(lower_column_name_list(
                bw.expect_node("column_name_list")?,
            )?)
        }
        "foreign_key" => {
            bw.expect("FOREIGN")?;
            bw.expect("KEY")?;
            bw.expect("LPAREN")?;
            let columns = lower_column_name_list(bw.expect_node("column_name_list")?)?;
            bw.expect("RPAREN")?;
            bw.expect("REFERENCES")?;
            let table = lower_table_name(bw.expect_node("table_name")?);
            let mut ref_columns = Vec::new();
            if bw.take("LPAREN").is_some() {
                ref_columns = lower_column_name_list(bw.expect_node("column_name_list")?)?;
                bw.expect("RPAREN")?;
            }
            let mut on_delete = None;
            let mut on_update = None;
            while bw.take("ON").is_some() {
                let which = bw.take_any(&["DELETE", "UPDATE"]);
                let action = bw
                    .take_node("referential_action")
                    .map(|a| a.text().to_uppercase());
                match which {
                    Some("DELETE") => on_delete = action,
                    Some("UPDATE") => on_update = action,
                    _ => return err("bad referential trigger"),
                }
            }
            TableConstraintBody::ForeignKey { columns, table, ref_columns, on_delete, on_update }
        }
        "check" => {
            bw.expect("CHECK")?;
            bw.expect("LPAREN")?;
            TableConstraintBody::Check(lower_search_condition(
                bw.expect_node("search_condition")?,
            )?)
        }
        other => return err(format!("unhandled table_constraint_body label `{other}`")),
    };
    Ok(TableConstraint { name, body })
}

fn lower_create_view(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("CREATE")?;
    let recursive = w.take("RECURSIVE").is_some();
    w.expect("VIEW")?;
    let name = lower_table_name(w.expect_node("table_name")?);
    let mut columns = Vec::new();
    if w.take("LPAREN").is_some() {
        columns = lower_column_name_list(w.expect_node("column_name_list")?)?;
        w.expect("RPAREN")?;
    }
    w.expect("AS")?;
    let query = lower_query(w.expect_node("query_expression")?)?;
    let with_check_option = w.take("WITH").is_some();
    Ok(Statement::CreateView(CreateView {
        name,
        recursive,
        columns,
        query: Box::new(query),
        with_check_option,
    }))
}

fn lower_create_schema(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("CREATE")?;
    w.expect("SCHEMA")?;
    let name = w.expect_text("IDENT")?.to_string();
    let authorization = if w.take("AUTHORIZATION").is_some() {
        Some(w.expect_text("IDENT")?.to_string())
    } else {
        None
    };
    Ok(Statement::CreateSchema { name, authorization })
}

fn lower_create_domain(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("CREATE")?;
    w.expect("DOMAIN")?;
    let name = w.expect_text("IDENT")?.to_string();
    w.take("AS");
    let data_type = lower_data_type(w.expect_node("data_type")?)?;
    let default = if w.take("DEFAULT").is_some() {
        Some(lower_literal(w.expect_node("literal")?)?)
    } else {
        None
    };
    let check = if w.take("CHECK").is_some() {
        w.expect("LPAREN")?;
        Some(lower_search_condition(w.expect_node("search_condition")?)?)
    } else {
        None
    };
    Ok(Statement::CreateDomain { name, data_type, default, check })
}

fn drop_behavior(w: &mut Walk<'_>) -> Option<DropBehavior> {
    match w.take_any(&["CASCADE", "RESTRICT"]) {
        Some("CASCADE") => Some(DropBehavior::Cascade),
        Some("RESTRICT") => Some(DropBehavior::Restrict),
        _ => None,
    }
}

fn lower_alter_table(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("ALTER")?;
    w.expect("TABLE")?;
    let name = lower_table_name(w.expect_node("table_name")?);
    let act = w.expect_node("alter_action")?;
    let mut aw = Walk::of(act);
    let action = match label(act) {
        "add_column" => {
            aw.expect("ADD")?;
            aw.take("COLUMN");
            AlterAction::AddColumn(lower_column_def(aw.expect_node("column_definition")?)?)
        }
        "drop_column" => {
            aw.expect("DROP")?;
            aw.take("COLUMN");
            let name = aw.expect_text("IDENT")?.to_string();
            AlterAction::DropColumn { name, behavior: drop_behavior(&mut aw) }
        }
        "set_default" => {
            aw.expect("ALTER")?;
            aw.take("COLUMN");
            let col = aw.expect_text("IDENT")?.to_string();
            aw.expect("SET")?;
            aw.expect("DEFAULT")?;
            AlterAction::SetDefault {
                name: col,
                default: lower_literal(aw.expect_node("literal")?)?,
            }
        }
        "drop_default" => {
            aw.expect("ALTER")?;
            aw.take("COLUMN");
            let col = aw.expect_text("IDENT")?.to_string();
            AlterAction::DropDefault { name: col }
        }
        "add_constraint" => {
            aw.expect("ADD")?;
            AlterAction::AddConstraint(lower_table_constraint(
                aw.expect_node("table_constraint")?,
            )?)
        }
        "drop_constraint" => {
            aw.expect("DROP")?;
            aw.expect("CONSTRAINT")?;
            let name = aw.expect_text("IDENT")?.to_string();
            AlterAction::DropConstraint { name, behavior: drop_behavior(&mut aw) }
        }
        other => return err(format!("unhandled alter_action label `{other}`")),
    };
    Ok(Statement::AlterTable { name, action })
}

fn lower_drop(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    w.expect("DROP")?;
    let kind = match w.take_any(&["TABLE", "VIEW", "SCHEMA", "DOMAIN"]) {
        Some("TABLE") => ObjectKind::Table,
        Some("VIEW") => ObjectKind::View,
        Some("SCHEMA") => ObjectKind::Schema,
        Some("DOMAIN") => ObjectKind::Domain,
        _ => return err("bad drop_statement"),
    };
    let name = lower_table_name(w.expect_node("table_name")?);
    Ok(Statement::Drop { kind, name, behavior: drop_behavior(&mut w) })
}

// ---------------------------------------------------------------- DCL / TCL / session / cursor

fn lower_privileges(node: SyntaxNode<'_>) -> Privileges {
    if label(node) == "all" {
        return Privileges::All;
    }
    Privileges::Actions(
        node.children_named("privilege")
            .filter_map(|p| p.tokens().next().map(|t| t.kind_name().to_string()))
            .collect(),
    )
}

fn lower_grantees(w: &mut Walk<'_>) -> Vec<String> {
    w.collect("grantee")
        .into_iter()
        .filter_map(|g| {
            g.tokens().next().map(|t| match t.kind_name() {
                "PUBLIC" => "PUBLIC".to_string(),
                _ => t.text().to_string(),
            })
        })
        .collect()
}

fn lower_object_name(node: SyntaxNode<'_>) -> QualifiedName {
    node.child("table_name")
        .map(lower_table_name)
        .unwrap_or_default()
}

fn lower_grant(node: SyntaxNode<'_>, revoke: bool) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    if revoke {
        w.expect("REVOKE")?;
        let grant_option = if w.take("GRANT").is_some() {
            w.expect("OPTION")?;
            w.expect("FOR")?;
            true
        } else {
            false
        };
        let privileges = lower_privileges(w.expect_node("privileges")?);
        w.expect("ON")?;
        let object = lower_object_name(w.expect_node("object_name")?);
        w.expect("FROM")?;
        let grantees = lower_grantees(&mut w);
        let behavior = drop_behavior(&mut w);
        return Ok(Statement::Revoke(Grant {
            privileges,
            object,
            grantees,
            grant_option,
            behavior,
        }));
    }
    w.expect("GRANT")?;
    let privileges = lower_privileges(w.expect_node("privileges")?);
    w.expect("ON")?;
    let object = lower_object_name(w.expect_node("object_name")?);
    w.expect("TO")?;
    let grantees = lower_grantees(&mut w);
    let grant_option = w.take("WITH").is_some();
    Ok(Statement::Grant(Grant {
        privileges,
        object,
        grantees,
        grant_option,
        behavior: None,
    }))
}

fn lower_transaction(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    let tx = match label(node) {
        "start" => {
            w.expect("START")?;
            w.expect("TRANSACTION")?;
            let modes = match w.take_node("transaction_modes") {
                Some(m) => m
                    .children_named("transaction_mode")
                    .map(|tm| tm.text().to_uppercase())
                    .collect(),
                None => Vec::new(),
            };
            TransactionStatement::Start(modes)
        }
        "commit" => TransactionStatement::Commit,
        "rollback" => TransactionStatement::Rollback,
        "rollback_to" => {
            w.expect("ROLLBACK")?;
            w.take("WORK");
            w.expect("TO")?;
            w.take("SAVEPOINT");
            TransactionStatement::RollbackTo(w.expect_text("IDENT")?.to_string())
        }
        "savepoint" => {
            w.expect("SAVEPOINT")?;
            TransactionStatement::Savepoint(w.expect_text("IDENT")?.to_string())
        }
        "release" => {
            w.expect("RELEASE")?;
            w.expect("SAVEPOINT")?;
            TransactionStatement::Release(w.expect_text("IDENT")?.to_string())
        }
        "set_transaction" => {
            w.expect("SET")?;
            let local = w.take("LOCAL").is_some();
            w.expect("TRANSACTION")?;
            let modes = match w.take_node("transaction_modes") {
                Some(m) => m
                    .children_named("transaction_mode")
                    .map(|tm| tm.text().to_uppercase())
                    .collect(),
                None => Vec::new(),
            };
            TransactionStatement::SetTransaction { local, modes }
        }
        other => return err(format!("unhandled transaction label `{other}`")),
    };
    Ok(Statement::Transaction(tx))
}

fn lower_session(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let value = |n: SyntaxNode<'_>| -> String {
        n.tokens()
            .rev()
            .find(|t| matches!(t.kind_name(), "IDENT" | "STRING" | "NONE" | "LOCAL"))
            .map(|t| t.text())
            .unwrap_or_default()
            .to_string()
    };
    let s = match label(node) {
        "set_schema" => SessionStatement::SetSchema(value(node)),
        "set_role" => SessionStatement::SetRole(value(node)),
        "set_session_authorization" => SessionStatement::SetSessionAuthorization(value(node)),
        "set_time_zone" => SessionStatement::SetTimeZone(value(node)),
        other => return err(format!("unhandled session label `{other}`")),
    };
    Ok(Statement::Session(s))
}

fn lower_cursor(node: SyntaxNode<'_>) -> Result<Statement, LowerError> {
    let mut w = Walk::of(node);
    let c = match label(node) {
        "declare" => {
            let dc = w.expect_node("declare_cursor")?;
            let mut dw = Walk::of(dc);
            dw.expect("DECLARE")?;
            let name = dw.expect_text("IDENT")?.to_string();
            let sensitivity = dw
                .take_any(&["SENSITIVE", "INSENSITIVE", "ASENSITIVE"])
                .map(str::to_string);
            let scroll = if dw.take("NO").is_some() {
                dw.expect("SCROLL")?;
                Some(false)
            } else if dw.take("SCROLL").is_some() {
                Some(true)
            } else {
                None
            };
            dw.expect("CURSOR")?;
            let hold = match dw.take_any(&["WITH", "WITHOUT"]) {
                Some("WITH") => {
                    dw.expect("HOLD")?;
                    Some(true)
                }
                Some("WITHOUT") => {
                    dw.expect("HOLD")?;
                    Some(false)
                }
                _ => None,
            };
            dw.expect("FOR")?;
            let query = lower_query(dw.expect_node("query_expression")?)?;
            CursorStatement::Declare {
                name,
                sensitivity,
                scroll,
                hold,
                query: Box::new(query),
            }
        }
        "open" => {
            w.expect("OPEN")?;
            CursorStatement::Open(w.expect_text("IDENT")?.to_string())
        }
        "close" => {
            w.expect("CLOSE")?;
            CursorStatement::Close(w.expect_text("IDENT")?.to_string())
        }
        "fetch" => {
            let fs = w.expect_node("fetch_statement")?;
            let mut fw = Walk::of(fs);
            fw.expect("FETCH")?;
            let orientation = match fw.take_any(&["NEXT", "PRIOR", "FIRST", "LAST"]) {
                Some(o) => Some(o.to_string()),
                None => match fw.take_any(&["ABSOLUTE", "RELATIVE"]) {
                    Some(o) => Some(format!("{o} {}", fw.expect_text("NUMBER")?)),
                    None => None,
                },
            };
            fw.take("FROM");
            CursorStatement::Fetch {
                orientation,
                name: fw.expect_text("IDENT")?.to_string(),
            }
        }
        other => return err(format!("unhandled cursor label `{other}`")),
    };
    Ok(Statement::Cursor(c))
}
