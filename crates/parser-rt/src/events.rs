//! Flat parse-event streams — the wire format of the green-tree core.
//!
//! Instead of constructing tree nodes while parsing, the engine appends
//! [`Event`]s to one contiguous buffer. The stream is a pre-order encoding
//! of the concrete syntax tree:
//!
//! * [`Event::Open`] — a nonterminal expansion begins (which production,
//!   which alternative matched);
//! * [`Event::Token`] — the next token of the scan was consumed (by index
//!   into the token stream, so the lexeme stays a span into the input);
//! * [`Event::Close`] — the most recently opened expansion ends.
//!
//! The payoff is in the backtracking mode: abandoning a speculative
//! alternative is a single `Vec::truncate` of the event buffer instead of
//! dropping a speculatively built subtree node by node. A well-formed
//! stream (every `Open` closed, produced only for successful parses) is
//! materialized into a [`crate::tree::SyntaxTree`] by a separate builder.
//!
//! Production and alternative ids are indices into the parser's
//! *compiled* grammar tables ([`crate::engine::Parser`] resolves them back
//! to names), so events are `Copy` and carry no heap
//! data at all.

/// Sentinel `prod` id marking an *error node* in a resilient event
/// stream: a node holding the tokens panic-mode recovery skipped, so the
/// tree still covers every scanned token. Error nodes are ordinary
/// `Open { prod: ERROR_NODE, alt: 0 } … Token … Close` triples — the tree
/// builder needs no special handling, and name resolution maps the
/// sentinel to `"error"` with no alternative label. Strict parses never
/// emit it.
pub const ERROR_NODE: u32 = u32::MAX;

/// What one depth-1 element of an assembled resilient stream is: a
/// successfully parsed subtree, an error node, or a bare token (statement
/// separators spliced directly under the root). The incremental reparser
/// plans its damage window in these units — statements are the granularity
/// at which the top-level repetition makes parses suffix-determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ElemKind {
    /// A successfully parsed production subtree.
    Clean,
    /// A recovery error node ([`ERROR_NODE`]).
    Err,
    /// A token spliced directly under the root.
    Tok,
}

/// One depth-1 element of a root-wrapped event stream: its event range
/// (within the stream, root wrapper excluded) and its token range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TopElem {
    pub(crate) kind: ElemKind,
    /// Event range `ev_lo..ev_hi` of this element in the stream.
    pub(crate) ev_lo: usize,
    pub(crate) ev_hi: usize,
    /// Token range `tok_lo..tok_hi` covered by this element. Tokens appear
    /// in stream order exactly once, so ranges partition the token stream.
    pub(crate) tok_lo: usize,
    pub(crate) tok_hi: usize,
}

/// Scan a root-wrapped stream (`events[0]` opens the root, the last event
/// closes it) into its depth-1 elements. Returns `None` if the stream is
/// not of that shape, or if token indices are not strictly increasing in
/// stream order (both would invalidate window planning).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn top_level_elements(events: &[Event]) -> Option<Vec<TopElem>> {
    if events.len() < 2
        || !matches!(events[0], Event::Open { .. })
        || !matches!(events[events.len() - 1], Event::Close)
    {
        return None;
    }
    let mut elems = split_elements(&events[1..events.len() - 1], 0)?;
    for e in &mut elems {
        e.ev_lo += 1;
        e.ev_hi += 1;
    }
    Some(elems)
}

/// Scan an *unwrapped* stream (a sequence of balanced depth-0 subtrees and
/// bare tokens, no surrounding root — the shape a resilient drive appends
/// to the session's `revents` buffer) into its elements. Token indices
/// must run exactly sequentially from `first_tok`; event ranges are
/// indices into `events` directly. Returns `None` for unbalanced streams
/// or out-of-sequence token indices.
pub(crate) fn split_elements(events: &[Event], first_tok: usize) -> Option<Vec<TopElem>> {
    let mut elems = Vec::new();
    let mut depth = 0usize;
    let mut next_tok = first_tok;
    let mut open: Option<(usize, usize)> = None; // (ev_lo, tok_lo) of the open depth-1 node
    let mut open_kind = ElemKind::Clean;
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            Event::Open { prod, .. } => {
                if depth == 0 {
                    open = Some((i, next_tok));
                    open_kind = if prod == ERROR_NODE { ElemKind::Err } else { ElemKind::Clean };
                }
                depth += 1;
            }
            Event::Token { index } => {
                if index as usize != next_tok {
                    return None;
                }
                next_tok += 1;
                if depth == 0 {
                    elems.push(TopElem {
                        kind: ElemKind::Tok,
                        ev_lo: i,
                        ev_hi: i + 1,
                        tok_lo: next_tok - 1,
                        tok_hi: next_tok,
                    });
                }
            }
            Event::Close => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    let (ev_lo, tok_lo) = open.take()?;
                    elems.push(TopElem {
                        kind: open_kind,
                        ev_lo,
                        ev_hi: i + 1,
                        tok_lo,
                        tok_hi: next_tok,
                    });
                }
            }
        }
    }
    if depth != 0 {
        return None;
    }
    Some(elems)
}

/// One event of a flat pre-order parse stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A nonterminal expansion begins: compiled production `prod` matched
    /// via alternative `alt`.
    Open {
        /// Compiled production id (index into the parser's productions).
        prod: u32,
        /// Index of the matched alternative within the production.
        alt: u32,
    },
    /// The token at `index` in the scanned token stream was consumed.
    Token {
        /// Index into the token stream of this parse.
        index: u32,
    },
    /// The most recently opened expansion ends.
    Close,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_and_copy() {
        // The whole point: an event is a tagged pair of u32s, not a node.
        assert!(std::mem::size_of::<Event>() <= 12);
        let e = Event::Open { prod: 3, alt: 1 };
        let f = e; // Copy
        assert_eq!(e, f);
    }

    #[test]
    fn top_level_elements_partition_stream_and_tokens() {
        // root( node(tok0 tok1) tok2 error(tok3) )
        let events = [
            Event::Open { prod: 7, alt: 0 },
            Event::Open { prod: 1, alt: 2 },
            Event::Token { index: 0 },
            Event::Token { index: 1 },
            Event::Close,
            Event::Token { index: 2 },
            Event::Open { prod: ERROR_NODE, alt: 0 },
            Event::Token { index: 3 },
            Event::Close,
            Event::Close,
        ];
        let elems = top_level_elements(&events).unwrap();
        assert_eq!(elems.len(), 3);
        assert_eq!(elems[0].kind, ElemKind::Clean);
        assert_eq!((elems[0].ev_lo, elems[0].ev_hi), (1, 5));
        assert_eq!((elems[0].tok_lo, elems[0].tok_hi), (0, 2));
        assert_eq!(elems[1].kind, ElemKind::Tok);
        assert_eq!((elems[1].tok_lo, elems[1].tok_hi), (2, 3));
        assert_eq!(elems[2].kind, ElemKind::Err);
        assert_eq!((elems[2].ev_lo, elems[2].ev_hi), (6, 9));
        assert_eq!((elems[2].tok_lo, elems[2].tok_hi), (3, 4));
        // malformed shapes are rejected, not misparsed
        assert!(top_level_elements(&events[1..]).is_none());
        let skipped = [
            Event::Open { prod: 0, alt: 0 },
            Event::Token { index: 1 }, // token 0 missing
            Event::Close,
        ];
        assert!(top_level_elements(&skipped).is_none());
    }

    #[test]
    fn split_elements_accepts_unwrapped_streams_at_any_token_base() {
        // node(tok5 tok6) tok7 error(tok8) — a window drive's raw output
        let events = [
            Event::Open { prod: 1, alt: 0 },
            Event::Token { index: 5 },
            Event::Token { index: 6 },
            Event::Close,
            Event::Token { index: 7 },
            Event::Open { prod: ERROR_NODE, alt: 0 },
            Event::Token { index: 8 },
            Event::Close,
        ];
        let elems = split_elements(&events, 5).unwrap();
        assert_eq!(elems.len(), 3);
        assert_eq!(elems[0].kind, ElemKind::Clean);
        assert_eq!((elems[0].ev_lo, elems[0].ev_hi), (0, 4));
        assert_eq!((elems[0].tok_lo, elems[0].tok_hi), (5, 7));
        assert_eq!(elems[1].kind, ElemKind::Tok);
        assert_eq!(elems[2].kind, ElemKind::Err);
        assert_eq!((elems[2].tok_lo, elems[2].tok_hi), (8, 9));
        // wrong base → out-of-sequence token indices → rejected
        assert!(split_elements(&events, 0).is_none());
        // unbalanced stream → rejected
        assert!(split_elements(&events[..3], 5).is_none());
    }

    #[test]
    fn truncation_drops_a_speculative_suffix() {
        let mut buf = vec![Event::Open { prod: 0, alt: 0 }, Event::Token { index: 0 }];
        let mark = buf.len();
        buf.push(Event::Open { prod: 1, alt: 0 });
        buf.push(Event::Token { index: 1 });
        // the speculative alternative failed:
        buf.truncate(mark);
        assert_eq!(
            buf,
            vec![Event::Open { prod: 0, alt: 0 }, Event::Token { index: 0 }]
        );
    }
}
