//! The seed parse engine, kept verbatim as a differential oracle.
//!
//! Before the green-tree rework, the engine built a recursive tree
//! *while* parsing: every expansion allocated its own child vector, and
//! abandoning a speculative alternative dropped a fully built subtree.
//! This module preserves that implementation — same traversal order, same
//! farthest-failure notes, no memoization, no dispatch tables when
//! speculating — and flattens its recursive result into an owned
//! [`SyntaxTree`] at the end, so that:
//!
//! * the differential suites can assert the event-built [`SyntaxTree`] is
//!   structurally *identical* to the tree the seed engine produced, for
//!   every statement;
//! * error-message regression tests can prove the memo table and the
//!   note-recording fast path changed no reported diagnostics;
//! * the allocation-ablation benchmark (Experiment B4) has an honest
//!   "before" to measure the event core against.
//!
//! In [`EngineMode::Ll1Table`] the oracle walks the same seed traversal
//! without speculation: each choice consults the dispatch tables, then
//! FIRST pruning, and a failure of the chosen alternative is final.
//!
//! It is not a supported parsing API; use [`Parser::parse`] or
//! [`crate::session::ParseSession`].

use crate::engine::{CTerm, EngineMode, Notes, Parser, TokBits, NO_DECISION};
use crate::errors::ParseError;
use crate::events::Event;
use crate::tree::{SyntaxTree, TreeBuffers};
use std::collections::BTreeSet;

/// The seed engine's recursive tree, by production, alternative and token
/// index.
enum RefNode {
    Rule { prod: u32, alt: u32, children: Vec<RefNode> },
    Token(u32),
}

impl RefNode {
    fn flatten(&self, events: &mut Vec<Event>) {
        match self {
            RefNode::Rule { prod, alt, children } => {
                events.push(Event::Open { prod: *prod, alt: *alt });
                for c in children {
                    c.flatten(events);
                }
                events.push(Event::Close);
            }
            RefNode::Token(index) => events.push(Event::Token { index: *index }),
        }
    }
}

/// Seed-engine context: token kinds plus farthest-failure tracking.
struct RefCtx<'a> {
    kind_ids: Vec<u32>,
    parser: &'a Parser,
    notes: Notes,
    /// Commit to every choice ([`EngineMode::Ll1Table`]).
    predict: bool,
}

impl RefCtx<'_> {
    /// The alternative a predictive choice's dispatch table selects at
    /// `pos`, if any (never when speculating: the seed engine has no
    /// tables).
    fn dispatch(&self, decision: u32, pos: usize) -> Option<usize> {
        (self.predict && decision != NO_DECISION && self.parser.tables_active())
            .then(|| self.parser.dispatch(&self.kind_ids, decision, pos))
            .flatten()
    }
}

impl Parser {
    /// Parse with the seed (pre-event) implementation: direct per-node
    /// tree construction, no failure memo. Kept for differential testing
    /// and the allocation-ablation benchmark; behaviorally identical to
    /// [`Parser::parse`] in either engine mode.
    pub fn parse_reference(&self, input: &str) -> Result<SyntaxTree<'static>, ParseError> {
        let toks = self.scanner.scan(input).map_err(|e| ParseError {
            at: e.at,
            line: e.line,
            column: e.column,
            expected: BTreeSet::new(),
            found: e.found.map(|c| ("CHAR".to_string(), c.to_string())),
            lexical: Some(e.to_string()),
        })?;
        let kind_ids: Vec<u32> = toks.iter().map(|t| t.kind.0).collect();
        let mut ctx = RefCtx {
            kind_ids,
            parser: self,
            notes: Notes::new(self.n_tokens),
            predict: self.mode() == EngineMode::Ll1Table,
        };
        match self.ref_bt_nt(&mut ctx, self.cstart, 0) {
            Ok((node, next)) if next == toks.len() => {
                let mut events = Vec::new();
                node.flatten(&mut events);
                let mut buffers = TreeBuffers::default();
                let root = buffers.build(&events);
                Ok(SyntaxTree::borrowed(self, input, &toks, &buffers, root).to_cst())
            }
            Ok((_, next)) => {
                ctx.notes.note_eof(next);
                Err(self.error_from(input, &toks, &ctx.notes))
            }
            Err(()) => Err(self.error_from(input, &toks, &ctx.notes)),
        }
    }

    fn ref_bt_nt(&self, ctx: &mut RefCtx<'_>, id: u32, pos: usize) -> Result<(RefNode, usize), ()> {
        let prod = &self.cprods[id as usize];
        let la = ctx.kind_ids.get(pos).copied();
        let chosen = ctx.dispatch(prod.decision, pos);
        for (ai, alt) in prod.alts.iter().enumerate() {
            if chosen.is_some_and(|c| c != ai) {
                continue;
            }
            if chosen.is_none() && !alt.nullable {
                match la {
                    Some(k) if alt.first.contains(k) => {}
                    _ => {
                        ctx.notes.note_set(pos, &alt.first);
                        continue;
                    }
                }
            }
            let mut children = Vec::new();
            match self.ref_bt_seq(ctx, &alt.seq, pos, &mut children) {
                Ok(next) => {
                    return Ok((RefNode::Rule { prod: id, alt: ai as u32, children }, next));
                }
                Err(()) if ctx.predict => return Err(()),
                Err(()) => {}
            }
        }
        Err(())
    }

    fn ref_bt_seq(
        &self,
        ctx: &mut RefCtx<'_>,
        seq: &[CTerm],
        mut pos: usize,
        children: &mut Vec<RefNode>,
    ) -> Result<usize, ()> {
        for term in seq {
            pos = self.ref_bt_term(ctx, term, pos, children)?;
        }
        Ok(pos)
    }

    /// Greedy repetition shared by `Star` and the tail of `Plus`.
    fn ref_bt_repeat(
        &self,
        ctx: &mut RefCtx<'_>,
        body: &[CTerm],
        first: &TokBits,
        decision: u32,
        mut pos: usize,
        children: &mut Vec<RefNode>,
    ) -> Result<usize, ()> {
        loop {
            match ctx.kind_ids.get(pos) {
                Some(&k) if first.contains(k) => {
                    // Alternative 1 of the lowered `body star | ε` is the exit.
                    if ctx.dispatch(decision, pos) == Some(1) {
                        break;
                    }
                    let mark = children.len();
                    match self.ref_bt_seq(ctx, body, pos, children) {
                        Ok(next) if next > pos => pos = next,
                        _ if ctx.predict => return Err(()),
                        _ => {
                            children.truncate(mark);
                            break;
                        }
                    }
                }
                _ => {
                    ctx.notes.note_set(pos, first);
                    break;
                }
            }
        }
        Ok(pos)
    }

    fn ref_bt_term(
        &self,
        ctx: &mut RefCtx<'_>,
        term: &CTerm,
        pos: usize,
        children: &mut Vec<RefNode>,
    ) -> Result<usize, ()> {
        match term {
            CTerm::Tok(kind) => match ctx.kind_ids.get(pos) {
                Some(k) if k == kind => {
                    children.push(RefNode::Token(pos as u32));
                    Ok(pos + 1)
                }
                _ => {
                    ctx.notes.note_id(pos, *kind);
                    Err(())
                }
            },
            CTerm::Nt(n) => {
                let (node, next) = self.ref_bt_nt(ctx, *n, pos)?;
                children.push(node);
                Ok(next)
            }
            CTerm::Opt { body, first, decision } => {
                if matches!(ctx.kind_ids.get(pos), Some(&k) if first.contains(k)) {
                    // Alternative 1 of the lowered `body | ε` is the skip.
                    if ctx.dispatch(*decision, pos) == Some(1) {
                        return Ok(pos);
                    }
                    let mark = children.len();
                    match self.ref_bt_seq(ctx, body, pos, children) {
                        Ok(next) => return Ok(next),
                        Err(()) if ctx.predict => return Err(()),
                        Err(()) => children.truncate(mark),
                    }
                } else {
                    // Not taken: still informative for error messages.
                    ctx.notes.note_set(pos, first);
                }
                Ok(pos)
            }
            CTerm::Star { body, first, decision } => {
                self.ref_bt_repeat(ctx, body, first, *decision, pos, children)
            }
            CTerm::Plus { body, first, decision } => {
                let next = self.ref_bt_seq(ctx, body, pos, children)?;
                self.ref_bt_repeat(ctx, body, first, *decision, next, children)
            }
            CTerm::Group { alts, decision } => {
                let la = ctx.kind_ids.get(pos).copied();
                let chosen = ctx.dispatch(*decision, pos);
                for (ai, alt) in alts.iter().enumerate() {
                    if chosen.is_some_and(|c| c != ai) {
                        continue;
                    }
                    if chosen.is_none() && !alt.nullable {
                        match la {
                            Some(k) if alt.first.contains(k) => {}
                            _ => {
                                ctx.notes.note_set(pos, &alt.first);
                                continue;
                            }
                        }
                    }
                    let mark = children.len();
                    match self.ref_bt_seq(ctx, &alt.seq, pos, children) {
                        Ok(next) => return Ok(next),
                        Err(()) if ctx.predict => return Err(()),
                        Err(()) => children.truncate(mark),
                    }
                }
                Err(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlweave_grammar::dsl::{parse_grammar, parse_tokens};

    fn parser(mode: EngineMode) -> Parser {
        let g = parse_grammar(
            r#"
            grammar q;
            start query;
            query : SELECT quant? select_list FROM IDENT #select ;
            quant : DISTINCT #distinct | ALL #all ;
            select_list : IDENT (COMMA IDENT)* #columns | STAR #star ;
            "#,
        )
        .unwrap();
        let t = parse_tokens(
            r#"
            tokens q;
            SELECT = kw; FROM = kw; DISTINCT = kw; ALL = kw;
            COMMA = ","; STAR = "*";
            IDENT = /[a-z][a-z0-9_]*/;
            WS = skip /[ \t\r\n]+/;
            "#,
        )
        .unwrap();
        Parser::new(g, &t).unwrap().with_mode(mode)
    }

    #[test]
    fn reference_and_event_engines_agree_on_trees() {
        for mode in [EngineMode::Backtracking, EngineMode::Ll1Table] {
            let p = parser(mode);
            for input in [
                "SELECT a FROM t",
                "SELECT DISTINCT a, b, c FROM t",
                "SELECT * FROM t",
            ] {
                assert_eq!(
                    p.parse(input).unwrap(),
                    p.parse_reference(input).unwrap(),
                    "{mode:?} {input:?}"
                );
            }
        }
    }

    #[test]
    fn reference_and_event_engines_agree_on_errors() {
        for mode in [EngineMode::Backtracking, EngineMode::Ll1Table] {
            let p = parser(mode);
            for input in ["", "SELECT", "SELECT FROM t", "SELECT a b FROM t", "SELECT a FROM t x", "%"] {
                assert_eq!(
                    p.parse(input).unwrap_err(),
                    p.parse_reference(input).unwrap_err(),
                    "{mode:?} {input:?}"
                );
            }
        }
    }
}
