//! Syntax trees over flat event streams.
//!
//! A [`SyntaxTree`] is one contiguous node arena plus one contiguous
//! child-element array, built in a single pass over the event buffer a
//! parse produced, next to the scanned tokens and the input. No node owns
//! a string: production names, alternative labels and token kinds are ids
//! resolved against the parser's name tables, and token text is a span
//! into the input.
//!
//! A tree fresh from a [`crate::session::ParseSession`] borrows the
//! session's buffers and the input, so a steady-state session parses with
//! no per-statement allocation once its buffers have grown to the
//! workload's high-water mark. [`SyntaxTree::to_cst`] copies those buffers
//! into an owned `SyntaxTree<'static>` (four allocations, no recursion)
//! for callers that keep a tree past the next parse. Both forms hand out
//! the same [`SyntaxNode`]/[`SyntaxToken`] cursors, which the semantic
//! layers (name resolution, AST lowering) walk directly.
//!
//! The event stream lists tokens in input order, each inside the
//! `Open`/`Close` of every node that contains it, so a node's tokens are a
//! contiguous range of the token stream: its tokens, text and span follow
//! from its first and last token alone.

use crate::engine::Parser;
use crate::events::{Event, ERROR_NODE};
use sqlweave_grammar::ir::Grammar;
use sqlweave_lexgen::{Scanner, Token, TokenKind};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// The name tables a tree resolves its ids against: production names,
/// alternative labels and token kind names of one parser, shared by the
/// parser and every tree it produced.
#[derive(Debug)]
pub(crate) struct Names {
    prods: Vec<String>,
    /// Per production, the label of each alternative.
    labels: Vec<Vec<Option<String>>>,
    tokens: Vec<String>,
}

impl Names {
    /// Production ids are the grammar's production indices, alternative
    /// ids their declaration order, token ids the scanner's rule indices.
    pub(crate) fn new(grammar: &Grammar, scanner: &Scanner) -> Names {
        let prods = grammar.productions();
        Names {
            prods: prods.iter().map(|p| p.name.clone()).collect(),
            labels: prods
                .iter()
                .map(|p| p.alternatives.iter().map(|a| a.label.clone()).collect())
                .collect(),
            tokens: (0..scanner.rule_count())
                .map(|i| scanner.name(TokenKind(i as u32)).to_string())
                .collect(),
        }
    }

    /// Production name (`error` for a recovery node).
    pub(crate) fn prod(&self, prod: u32) -> &str {
        if prod == ERROR_NODE {
            return "error";
        }
        &self.prods[prod as usize]
    }

    /// Label of a production's alternative, if it has one.
    pub(crate) fn label(&self, prod: u32, alt: u32) -> Option<&str> {
        if prod == ERROR_NODE {
            return None;
        }
        self.labels[prod as usize][alt as usize].as_deref()
    }

    fn token(&self, kind: TokenKind) -> &str {
        &self.tokens[kind.index()]
    }
}

/// Arena node: a nonterminal expansion with a contiguous child range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeData {
    prod: u32,
    alt: u32,
    elems_start: u32,
    elems_end: u32,
}

/// One child of a node, packed in four bytes: a node id, or a token index
/// with the high bit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Element(u32);

/// An unpacked [`Element`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Child {
    Node(u32),
    Token(u32),
}

const TOKEN_BIT: u32 = 1 << 31;

impl Element {
    fn node(id: u32) -> Element {
        debug_assert!(id < TOKEN_BIT, "node id out of range");
        Element(id)
    }

    fn token(index: u32) -> Element {
        debug_assert!(index < TOKEN_BIT, "token index out of range");
        Element(index | TOKEN_BIT)
    }

    fn get(self) -> Child {
        if self.0 & TOKEN_BIT == 0 {
            Child::Node(self.0)
        } else {
            Child::Token(self.0 & !TOKEN_BIT)
        }
    }
}

/// Reusable tree-building buffers owned by a session.
#[derive(Default)]
pub(crate) struct TreeBuffers {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) elems: Vec<Element>,
    /// Children collected for the currently open expansions.
    pending: Vec<Element>,
    /// `(node id, pending mark)` per open expansion.
    open: Vec<(u32, usize)>,
}

impl TreeBuffers {
    /// Build the arena from a well-formed event stream; returns the root
    /// node id.
    pub(crate) fn build(&mut self, events: &[Event]) -> u32 {
        self.reset();
        for ev in events {
            match *ev {
                Event::Open { prod, alt } => self.open_node(prod, alt),
                Event::Token { index } => self.pending.push(Element::token(index)),
                Event::Close => self.close_node(),
            }
        }
        self.take_root()
    }

    /// Build the arena directly from a *chunked* event representation: a
    /// root wrapper around a sequence of per-chunk event slices whose
    /// token indices are chunk-relative (absolute index = chunk-relative
    /// index plus the chunk's `tok_base`). Equivalent to flattening the chunks
    /// into one root-wrapped stream and calling [`TreeBuffers::build`],
    /// without materializing that stream — this is how a lazily
    /// maintained document's tree is built on first access.
    pub(crate) fn build_chunked<'c>(
        &mut self,
        root: (u32, u32),
        chunks: impl Iterator<Item = (&'c [Event], u32)>,
    ) -> u32 {
        self.reset();
        self.open_node(root.0, root.1);
        for (events, tok_base) in chunks {
            for ev in events {
                match *ev {
                    Event::Open { prod, alt } => self.open_node(prod, alt),
                    Event::Token { index } => {
                        self.pending.push(Element::token(index + tok_base))
                    }
                    Event::Close => self.close_node(),
                }
            }
        }
        self.close_node();
        self.take_root()
    }

    fn reset(&mut self) {
        self.nodes.clear();
        self.elems.clear();
        self.pending.clear();
        self.open.clear();
    }

    fn open_node(&mut self, prod: u32, alt: u32) {
        let id = self.nodes.len() as u32;
        self.nodes.push(NodeData { prod, alt, elems_start: 0, elems_end: 0 });
        self.open.push((id, self.pending.len()));
    }

    fn close_node(&mut self) {
        let (id, mark) = self.open.pop().expect("unbalanced Close event");
        let start = self.elems.len() as u32;
        self.elems.extend_from_slice(&self.pending[mark..]);
        let node = &mut self.nodes[id as usize];
        node.elems_start = start;
        node.elems_end = self.elems.len() as u32;
        self.pending.truncate(mark);
        self.pending.push(Element::node(id));
    }

    fn take_root(&mut self) -> u32 {
        debug_assert!(self.open.is_empty(), "unclosed Open event");
        debug_assert_eq!(self.pending.len(), 1, "event stream must have one root");
        match self.pending[0].get() {
            Child::Node(id) => id,
            Child::Token(_) => unreachable!("root of a parse is a rule expansion"),
        }
    }
}

/// A materialized parse: node arena + token stream + input, with names
/// resolved against the parser that produced it. `SyntaxTree<'a>` borrows
/// a session's buffers; `SyntaxTree<'static>` (from
/// [`SyntaxTree::to_cst`]) owns copies of them.
pub struct SyntaxTree<'a> {
    /// Borrowed from the parser by a session's tree (no reference-count
    /// traffic per parse), shared by an owned one.
    names: Cow<'a, Arc<Names>>,
    input: Cow<'a, str>,
    toks: Cow<'a, [Token]>,
    nodes: Cow<'a, [NodeData]>,
    elems: Cow<'a, [Element]>,
    root: u32,
}

impl<'a> SyntaxTree<'a> {
    /// The tree rooted at `root` in `buffers`, over `toks` scanned from
    /// `input`.
    pub(crate) fn borrowed(
        parser: &'a Parser,
        input: &'a str,
        toks: &'a [Token],
        buffers: &'a TreeBuffers,
        root: u32,
    ) -> SyntaxTree<'a> {
        SyntaxTree {
            names: Cow::Borrowed(&parser.names),
            input: Cow::Borrowed(input),
            toks: Cow::Borrowed(toks),
            nodes: Cow::Borrowed(&buffers.nodes),
            elems: Cow::Borrowed(&buffers.elems),
            root,
        }
    }

    /// The root node (start production of the grammar).
    pub fn root(&self) -> SyntaxNode<'_> {
        SyntaxNode { tree: self, id: self.root }
    }

    /// The original input text.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// All scanned (non-skip) tokens, in order.
    pub fn tokens(&self) -> &[Token] {
        &self.toks
    }

    /// Total nodes: rule expansions plus token leaves.
    pub fn node_count(&self) -> usize {
        self.nodes.len() + self.toks.len()
    }

    /// Rule expansions only.
    pub fn rule_count(&self) -> usize {
        self.nodes.len()
    }

    /// An owned copy that outlives the session and the input: the same
    /// arena with its node, element and token buffers and the input text
    /// copied, sharing the parser's name tables.
    pub fn to_cst(&self) -> SyntaxTree<'static> {
        SyntaxTree {
            names: Cow::Owned(Arc::clone(&self.names)),
            input: Cow::Owned(self.input.to_string()),
            toks: Cow::Owned(self.toks.to_vec()),
            nodes: Cow::Owned(self.nodes.to_vec()),
            elems: Cow::Owned(self.elems.to_vec()),
            root: self.root,
        }
    }

    /// Render an indented tree, one line per node (`name #label`) and per
    /// token (`KIND "text"`); used by debugging output and golden tests.
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut depth = 0;
        for step in self.root().preorder() {
            let pad = 2 * depth;
            let _ = match step {
                WalkEvent::Enter(n) => {
                    depth += 1;
                    match n.label() {
                        Some(l) => writeln!(out, "{:pad$}{} #{l}", "", n.name()),
                        None => writeln!(out, "{:pad$}{}", "", n.name()),
                    }
                }
                WalkEvent::Token(t) => {
                    writeln!(out, "{:pad$}{} {:?}", "", t.kind_name(), t.text())
                }
                WalkEvent::Leave => {
                    depth -= 1;
                    Ok(())
                }
            };
        }
        out
    }
}

/// Structural equality: the same shape, production names, labels, token
/// kinds, token text and spans, whichever parser or buffers the trees came
/// from.
impl PartialEq<SyntaxTree<'_>> for SyntaxTree<'_> {
    fn eq(&self, other: &SyntaxTree<'_>) -> bool {
        if self.node_count() != other.node_count() {
            return false;
        }
        let (mut a, mut b) = (self.root().preorder(), other.root().preorder());
        loop {
            let same = match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(WalkEvent::Enter(m)), Some(WalkEvent::Enter(n))) => {
                    m.name() == n.name() && m.label() == n.label()
                }
                (Some(WalkEvent::Token(s)), Some(WalkEvent::Token(t))) => {
                    s.kind_name() == t.kind_name() && s.text() == t.text() && s.span() == t.span()
                }
                (Some(WalkEvent::Leave), Some(WalkEvent::Leave)) => true,
                _ => false,
            };
            if !same {
                return false;
            }
        }
    }
}

impl Eq for SyntaxTree<'_> {}

/// Handle to a string in a [`TokenInterner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The raw interner index (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A small per-tree string interner for token text. SQL scripts repeat
/// lexemes heavily — keywords by design, identifiers because schemas are
/// finite — so deduplicating lexemes turns the O(source bytes) cost of an
/// owning token representation into O(distinct lexeme bytes). Unique
/// strings live concatenated in one arena buffer (one allocation
/// amortized over the tree, not one per token); lookup is a hash map from
/// a deterministic FNV-1a hash to candidate symbols, verified by
/// comparison so collisions stay correct.
#[derive(Default, Debug, Clone)]
pub struct TokenInterner {
    /// Concatenated unique lexemes.
    buf: String,
    /// Symbol → byte span in `buf`.
    spans: Vec<(u32, u32)>,
    /// FNV-1a hash → symbols with that hash (almost always one).
    map: std::collections::HashMap<u64, Vec<Sym>>,
}

impl TokenInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Intern `s`, returning the existing symbol if it was seen before.
    pub fn intern(&mut self, s: &str) -> Sym {
        let h = Self::fnv1a(s);
        let candidates = self.map.entry(h).or_default();
        for &sym in candidates.iter() {
            let (lo, hi) = self.spans[sym.index()];
            if &self.buf[lo as usize..hi as usize] == s {
                return sym;
            }
        }
        let lo = self.buf.len() as u32;
        self.buf.push_str(s);
        let sym = Sym(self.spans.len() as u32);
        self.spans.push((lo, self.buf.len() as u32));
        candidates.push(sym);
        sym
    }

    /// The string a symbol stands for.
    pub fn resolve(&self, sym: Sym) -> &str {
        let (lo, hi) = self.spans[sym.index()];
        &self.buf[lo as usize..hi as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total bytes of deduplicated string storage.
    pub fn bytes(&self) -> usize {
        self.buf.len()
    }
}

impl SyntaxTree<'_> {
    /// Intern every token's lexeme, returning one symbol per token (in
    /// token-stream order). The interner can be shared across trees to
    /// deduplicate lexemes corpus-wide; comparing the returned symbols is
    /// `u32` equality instead of string comparison, and
    /// `symbols.len() / interner.len()` is the dedupe factor the bench
    /// reports.
    pub fn intern_tokens(&self, interner: &mut TokenInterner) -> Vec<Sym> {
        self.toks
            .iter()
            .map(|t| interner.intern(t.text(&self.input)))
            .collect()
    }
}

impl fmt::Debug for SyntaxTree<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

/// Cursor over one rule expansion of a [`SyntaxTree`].
#[derive(Clone, Copy)]
pub struct SyntaxNode<'t> {
    tree: &'t SyntaxTree<'t>,
    id: u32,
}

/// Cursor over one token leaf of a [`SyntaxTree`].
#[derive(Clone, Copy)]
pub struct SyntaxToken<'t> {
    tree: &'t SyntaxTree<'t>,
    index: u32,
}

/// A child of a node: rule expansion or token leaf.
#[derive(Clone, Copy)]
pub enum SyntaxElement<'t> {
    /// A nested rule expansion.
    Node(SyntaxNode<'t>),
    /// A token leaf.
    Token(SyntaxToken<'t>),
}

impl<'t> SyntaxElement<'t> {
    /// Production name or token kind name.
    pub fn name(self) -> &'t str {
        match self {
            SyntaxElement::Node(n) => n.name(),
            SyntaxElement::Token(t) => t.kind_name(),
        }
    }

    /// The nested node, if this element is one.
    pub fn as_node(self) -> Option<SyntaxNode<'t>> {
        match self {
            SyntaxElement::Node(n) => Some(n),
            SyntaxElement::Token(_) => None,
        }
    }

    /// The token leaf, if this element is one.
    pub fn as_token(self) -> Option<SyntaxToken<'t>> {
        match self {
            SyntaxElement::Token(t) => Some(t),
            SyntaxElement::Node(_) => None,
        }
    }

    /// The lexeme, if this element is a token.
    pub fn token_text(self) -> Option<&'t str> {
        self.as_token().map(SyntaxToken::text)
    }
}

impl<'t> SyntaxNode<'t> {
    fn elems(self) -> &'t [Element] {
        let node = &self.tree.nodes[self.id as usize];
        &self.tree.elems[node.elems_start as usize..node.elems_end as usize]
    }

    fn element(self, e: Element) -> SyntaxElement<'t> {
        match e.get() {
            Child::Node(id) => SyntaxElement::Node(SyntaxNode { tree: self.tree, id }),
            Child::Token(index) => SyntaxElement::Token(SyntaxToken { tree: self.tree, index }),
        }
    }

    /// Production name.
    pub fn name(self) -> &'t str {
        self.tree.names.prod(self.tree.nodes[self.id as usize].prod)
    }

    /// Label of the alternative that matched, if any.
    pub fn label(self) -> Option<&'t str> {
        let node = &self.tree.nodes[self.id as usize];
        self.tree.names.label(node.prod, node.alt)
    }

    /// Child elements in input order.
    pub fn children(self) -> impl DoubleEndedIterator<Item = SyntaxElement<'t>> + 't {
        self.elems().iter().map(move |&e| self.element(e))
    }

    /// Number of child elements.
    pub fn child_count(self) -> usize {
        self.elems().len()
    }

    /// The `i`-th child element.
    pub fn child_at(self, i: usize) -> Option<SyntaxElement<'t>> {
        self.elems().get(i).map(|&e| self.element(e))
    }

    /// First child rule with the given production name.
    pub fn child(self, name: &str) -> Option<SyntaxNode<'t>> {
        self.children().find_map(|e| e.as_node().filter(|n| n.name() == name))
    }

    /// All child rules with the given production name.
    pub fn children_named(self, name: &'t str) -> impl Iterator<Item = SyntaxNode<'t>> + 't {
        self.children().filter_map(move |e| e.as_node().filter(|n| n.name() == name))
    }

    /// First token descendant of the given kind, in input order.
    pub fn find_token(self, kind: &str) -> Option<SyntaxToken<'t>> {
        self.tokens().find(|t| t.kind_name() == kind)
    }

    /// All token leaves under this node, in input order.
    pub fn tokens(self) -> impl DoubleEndedIterator<Item = SyntaxToken<'t>> + 't {
        let range = match (self.edge_token(false), self.edge_token(true)) {
            (Some(first), Some(last)) => first..last + 1,
            _ => 0..0,
        };
        let tree = self.tree;
        range.map(move |index| SyntaxToken { tree, index })
    }

    /// The lexemes separated by single spaces (not the original
    /// whitespace; slice the input by [`SyntaxNode::span`] for that).
    pub fn text(self) -> String {
        let mut out = String::new();
        for t in self.tokens() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(t.text());
        }
        out
    }

    /// Byte span covered by this node, if it contains any tokens.
    ///
    /// Each endpoint descends one side of the tree; asking each child for
    /// its full span instead would recompute both endpoints at every
    /// level, doubling the cost per level of a single-child chain.
    pub fn span(self) -> Option<(usize, usize)> {
        let first = self.edge_token(false)?;
        let last = self.edge_token(true)?;
        Some((self.tree.toks[first as usize].start, self.tree.toks[last as usize].end))
    }

    /// Index of the first (or, with `last`, the final) token under this
    /// node, descending only along that edge.
    fn edge_token(self, last: bool) -> Option<u32> {
        let pick = |e: &Element| match e.get() {
            Child::Token(t) => Some(t),
            Child::Node(id) => SyntaxNode { tree: self.tree, id }.edge_token(last),
        };
        if last {
            self.elems().iter().rev().find_map(pick)
        } else {
            self.elems().iter().find_map(pick)
        }
    }

    /// Depth-first walk of this subtree, with an explicit stack.
    pub(crate) fn preorder(self) -> Preorder<'t> {
        Preorder { tree: self.tree, start: Some(self.id), stack: Vec::new() }
    }
}

/// One step of [`SyntaxNode::preorder`].
pub(crate) enum WalkEvent<'t> {
    /// Entering a rule expansion (its children follow, then `Leave`).
    Enter(SyntaxNode<'t>),
    /// A token leaf.
    Token(SyntaxToken<'t>),
    /// Leaving the node entered last.
    Leave,
}

/// Depth-first iterator over a subtree (see [`SyntaxNode::preorder`]).
pub(crate) struct Preorder<'t> {
    tree: &'t SyntaxTree<'t>,
    start: Option<u32>,
    /// Per open node: the remaining child element range.
    stack: Vec<(u32, u32)>,
}

impl<'t> Preorder<'t> {
    fn enter(&mut self, id: u32) -> WalkEvent<'t> {
        let node = &self.tree.nodes[id as usize];
        self.stack.push((node.elems_start, node.elems_end));
        WalkEvent::Enter(SyntaxNode { tree: self.tree, id })
    }
}

impl<'t> Iterator for Preorder<'t> {
    type Item = WalkEvent<'t>;

    fn next(&mut self) -> Option<WalkEvent<'t>> {
        if let Some(id) = self.start.take() {
            return Some(self.enter(id));
        }
        let (next, end) = self.stack.last_mut()?;
        if *next == *end {
            self.stack.pop();
            return Some(WalkEvent::Leave);
        }
        let e = self.tree.elems[*next as usize];
        *next += 1;
        Some(match e.get() {
            Child::Node(id) => self.enter(id),
            Child::Token(index) => WalkEvent::Token(SyntaxToken { tree: self.tree, index }),
        })
    }
}

impl<'t> SyntaxToken<'t> {
    /// Token rule name (e.g. `SELECT`, `IDENT`).
    pub fn kind_name(self) -> &'t str {
        self.tree.names.token(self.tree.toks[self.index as usize].kind)
    }

    /// Index of this token in the scanned token stream.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The lexeme, a slice of the input.
    pub fn text(self) -> &'t str {
        self.tree.toks[self.index as usize].text(&self.tree.input)
    }

    /// Byte span in the original input.
    pub fn span(self) -> (usize, usize) {
        let t = &self.tree.toks[self.index as usize];
        (t.start, t.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineMode;
    use sqlweave_grammar::dsl::{parse_grammar, parse_tokens};

    fn parser(mode: EngineMode) -> Parser {
        let g = parse_grammar(
            r#"
            grammar q;
            start query;
            query : SELECT select_list FROM IDENT #select ;
            select_list : IDENT (COMMA IDENT)* #columns | STAR #star ;
            "#,
        )
        .unwrap();
        let t = parse_tokens(
            r#"
            tokens q;
            SELECT = kw; FROM = kw;
            COMMA = ","; STAR = "*";
            IDENT = /[a-z][a-z0-9_]*/;
            WS = skip /[ \t\r\n]+/;
            "#,
        )
        .unwrap();
        Parser::new(g, &t).unwrap().with_mode(mode)
    }

    #[test]
    fn tree_navigation_matches_cst() {
        let p = parser(EngineMode::Backtracking);
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b FROM t").unwrap();
        let root = tree.root();
        assert_eq!(root.name(), "query");
        assert_eq!(root.label(), Some("select"));
        let sl = root.child("select_list").unwrap();
        assert_eq!(sl.label(), Some("columns"));
        assert_eq!(sl.span(), Some((7, 11)));
        assert_eq!(root.find_token("FROM").unwrap().text(), "FROM");
        assert!(root.find_token("STAR").is_none());
        // token text is a span into the input, not a copy
        let a = sl.find_token("IDENT").unwrap();
        assert_eq!(a.text(), "a");
        assert!(std::ptr::eq(a.text(), &tree.input()[7..8]));
    }

    #[test]
    fn to_cst_matches_seed_shape() {
        for mode in [EngineMode::Backtracking, EngineMode::Ll1Table] {
            let p = parser(mode);
            for input in ["SELECT a, b FROM t", "SELECT * FROM t"] {
                let mut s = p.session();
                let tree = s.parse_tree(input).unwrap();
                assert_eq!(tree.to_cst(), p.parse_reference(input).unwrap(), "{mode:?} {input:?}");
            }
        }
    }

    #[test]
    fn pretty_matches_cst_pretty() {
        let p = parser(EngineMode::Backtracking);
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b FROM t").unwrap();
        assert_eq!(tree.pretty(), tree.to_cst().pretty());
    }

    #[test]
    fn node_count_matches_cst() {
        let p = parser(EngineMode::Backtracking);
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b FROM t").unwrap();
        assert_eq!(tree.node_count(), tree.to_cst().node_count());
        assert_eq!(tree.rule_count(), 2);
    }

    #[test]
    fn cursor_helpers_walk_the_arena() {
        let p = parser(EngineMode::Backtracking);
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b FROM t").unwrap();
        let root = tree.root();
        assert_eq!(root.child_count(), 4);
        assert_eq!(root.child_at(0).unwrap().token_text(), Some("SELECT"));
        assert_eq!(root.child_at(1).unwrap().as_node().unwrap().name(), "select_list");
        assert!(root.child_at(4).is_none());
        assert_eq!(root.children_named("select_list").count(), 1);
        let sl = root.child("select_list").unwrap();
        let kinds: Vec<&str> = sl.tokens().map(|t| t.kind_name()).collect();
        assert_eq!(kinds, ["IDENT", "COMMA", "IDENT"]);
        assert_eq!(sl.tokens().next_back().unwrap().text(), "b");
        assert_eq!(root.text(), "SELECT a , b FROM t");
        let steps: Vec<String> = root
            .preorder()
            .map(|e| match e {
                WalkEvent::Enter(n) => n.name().to_string(),
                WalkEvent::Token(t) => t.text().to_string(),
                WalkEvent::Leave => ")".to_string(),
            })
            .collect();
        assert_eq!(steps, ["query", "SELECT", "select_list", "a", ",", "b", ")", "FROM", "t", ")"]);
    }

    #[test]
    fn empty_node_has_no_tokens() {
        let g = parse_grammar("grammar e; start a; a : b X ; b : Y? ;").unwrap();
        let t = parse_tokens("tokens e; X = kw; Y = kw; WS = skip / +/;").unwrap();
        let p = Parser::new(g, &t).unwrap();
        let mut s = p.session();
        let tree = s.parse_tree(" X").unwrap();
        let b = tree.root().child("b").unwrap();
        assert_eq!((b.child_count(), b.span(), b.text()), (0, None, String::new()));
        assert_eq!(b.tokens().count(), 0);
        assert_eq!(tree.root().span(), Some((1, 2)));
    }

    #[test]
    fn owned_tree_outlives_its_session_and_compares_structurally() {
        let p = parser(EngineMode::Backtracking);
        let owned = {
            let mut s = p.session();
            let input = String::from("SELECT a, b FROM t");
            let tree = s.parse_tree(&input).unwrap();
            tree.to_cst()
        };
        assert_eq!(owned.root().child("select_list").unwrap().span(), Some((7, 11)));
        assert_eq!(owned.pretty(), "query #select\n  SELECT \"SELECT\"\n  select_list #columns\n    IDENT \"a\"\n    COMMA \",\"\n    IDENT \"b\"\n  FROM \"FROM\"\n  IDENT \"t\"\n");
        // The same statement from another parser of the same grammar, in
        // the other mode, and with other whitespace (spans differ).
        let other = parser(EngineMode::Ll1Table);
        assert_eq!(other.parse("SELECT a, b FROM t").unwrap(), owned);
        assert_ne!(other.parse("SELECT a,  b FROM t").unwrap(), owned);
        assert_ne!(other.parse("SELECT a, c FROM t").unwrap(), owned);
    }

    #[test]
    fn span_of_a_deep_single_child_chain_is_prompt() {
        // `c0 : c1 ; c1 : c2 ; … c39 : X Y` — forty single-child levels.
        let depth = 40;
        let mut src = String::from("grammar chain; start c0;");
        for i in 0..depth {
            src.push_str(&format!(" c{i} : c{} ;", i + 1));
        }
        src.push_str(&format!(" c{depth} : X Y ;"));
        let g = parse_grammar(&src).unwrap();
        let t = parse_tokens("tokens chain; X = kw; Y = kw; WS = skip / +/;").unwrap();
        let p = Parser::new(g, &t).unwrap();
        let mut s = p.session();
        let tree = s.parse_tree("  X   Y ").unwrap();
        let t0 = std::time::Instant::now();
        let span = tree.root().span();
        assert!(t0.elapsed() < std::time::Duration::from_secs(2), "took {:?}", t0.elapsed());
        let toks = tree.tokens();
        assert_eq!(span, Some((toks[0].start, toks[1].end)));
        assert_eq!(span, Some((2, 7)));
    }

    #[test]
    fn interner_dedupes_and_resolves() {
        let mut i = TokenInterner::new();
        let a = i.intern("select");
        let b = i.intern("t1");
        let a2 = i.intern("select");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "select");
        assert_eq!(i.resolve(b), "t1");
        assert_eq!(i.len(), 2);
        assert_eq!(i.bytes(), "select".len() + "t1".len());
        assert!(!i.is_empty());
        assert!(TokenInterner::new().is_empty());
    }

    #[test]
    fn intern_tokens_is_parallel_to_the_token_stream() {
        let p = parser(EngineMode::Backtracking);
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b, a FROM a").unwrap();
        let mut interner = TokenInterner::new();
        let syms = tree.intern_tokens(&mut interner);
        assert_eq!(syms.len(), tree.tokens().len());
        for (sym, tok) in syms.iter().zip(tree.tokens()) {
            assert_eq!(interner.resolve(*sym), tok.text(tree.input()));
        }
        // `a` appears three times but is stored once
        assert_eq!(syms.iter().filter(|&&s| interner.resolve(s) == "a").count(), 3);
        assert!(interner.len() < syms.len());
        // sharing the interner across trees keeps deduplicating
        let before = interner.len();
        let tree2 = s.parse_tree("SELECT b FROM a").unwrap();
        tree2.intern_tokens(&mut interner);
        assert_eq!(interner.len(), before);
    }

    #[test]
    fn build_chunked_matches_flattened_build() {
        use crate::events::ERROR_NODE;
        // chunk A: node(tok0 tok1), chunk B: bare tok2, chunk C: error(tok3 tok4)
        let a = [
            Event::Open { prod: 1, alt: 2 },
            Event::Token { index: 0 },
            Event::Token { index: 1 },
            Event::Close,
        ];
        let b = [Event::Token { index: 0 }];
        let c = [
            Event::Open { prod: ERROR_NODE, alt: 0 },
            Event::Token { index: 0 },
            Event::Token { index: 1 },
            Event::Close,
        ];
        let chunks: [(&[Event], u32); 3] = [(&a, 0), (&b, 2), (&c, 3)];
        let mut chunked = TreeBuffers::default();
        let croot = chunked.build_chunked((7, 0), chunks.into_iter());

        let mut flat_events = vec![Event::Open { prod: 7, alt: 0 }];
        for (events, base) in chunks {
            for ev in events {
                flat_events.push(match *ev {
                    Event::Token { index } => Event::Token { index: index + base },
                    other => other,
                });
            }
        }
        flat_events.push(Event::Close);
        let mut flat = TreeBuffers::default();
        let froot = flat.build(&flat_events);

        assert_eq!(croot, froot);
        assert_eq!(chunked.nodes.len(), flat.nodes.len());
        assert_eq!(chunked.elems.len(), flat.elems.len());
        for (cn, fn_) in chunked.nodes.iter().zip(&flat.nodes) {
            assert_eq!((cn.prod, cn.alt), (fn_.prod, fn_.alt));
            assert_eq!((cn.elems_start, cn.elems_end), (fn_.elems_start, fn_.elems_end));
        }
        assert_eq!(chunked.elems, flat.elems);
    }

    #[test]
    fn builder_roundtrips_nested_events() {
        let events = [
            Event::Open { prod: 0, alt: 0 },
            Event::Token { index: 0 },
            Event::Open { prod: 1, alt: 1 },
            Event::Token { index: 1 },
            Event::Token { index: 2 },
            Event::Close,
            Event::Token { index: 3 },
            Event::Close,
        ];
        let mut buf = TreeBuffers::default();
        let root = buf.build(&events);
        let rd = &buf.nodes[root as usize];
        assert_eq!((rd.elems_start, rd.elems_end), (2, 5));
        let kids = &buf.elems[rd.elems_start as usize..rd.elems_end as usize];
        let kids: Vec<Child> = kids.iter().map(|e| e.get()).collect();
        assert_eq!(kids, [Child::Token(0), Child::Node(1), Child::Token(3)]);
        let inner = &buf.nodes[1];
        let ikids = &buf.elems[inner.elems_start as usize..inner.elems_end as usize];
        assert_eq!(ikids, [Element::token(1), Element::token(2)]);
    }
}
