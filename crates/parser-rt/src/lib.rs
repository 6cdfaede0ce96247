//! Parser runtime for `sqlweave` — the from-scratch replacement for the
//! ANTLR/JavaCC parser generators the paper relies on.
//!
//! A [`Parser`] is built from a composed grammar plus its token set. Its
//! one engine interprets the compiled EBNF IR, deciding each choice with
//! LL(k ≤ 3) dispatch tables and FIRST-set pruning, in two modes (the
//! ablation of Experiment B4): [`EngineMode::Backtracking`] speculates
//! where the tables cannot decide (ordered alternatives with rollback,
//! PEG-style like ANTLR's syntactic predicates, plus O(1) failure
//! memoization); [`EngineMode::Ll1Table`] commits to every choice and
//! accepts exactly what the backtracking mode parses without a rollback,
//! with identical trees.
//!
//! The engine emits flat [`events::Event`] streams instead of building
//! nodes (backtracking is a buffer truncation), which a separate builder
//! materializes into an arena-backed [`tree::SyntaxTree`] with zero-copy
//! token text; [`tree::SyntaxTree::to_cst`] copies it into an owned tree
//! with a handful of allocations. Semantic layers walk either form
//! through the same [`SyntaxNode`] cursors. [`session::ParseSession`]
//! recycles every buffer across statements; [`Parser::parse_many`] and
//! [`Parser::parse_many_parallel`] batch over it.
//!
//! Beyond the strict single-error contract, [`Parser::parse_resilient`]
//! and [`session::ParseSession::parse_resilient`] run panic-mode error
//! recovery: every committed failure becomes a diagnostic, skipped tokens
//! fold into `error` nodes ([`events::ERROR_NODE`]), and the returned
//! [`session::ParseOutcome`] carries a tree covering every scanned token
//! plus all diagnostics in source order.
//!
//! [`codegen`] additionally *generates Rust source* for a standalone
//! recursive-descent parser, which is the closest analogue of the paper's
//! "use ANTLR to generate parser code" step.

pub mod codegen;
pub mod engine;
pub mod errors;
pub mod events;
pub mod reference;
pub mod session;
pub mod tree;

pub use engine::{EngineMode, Parser, ParserStats, RunCounters};
pub use errors::ParseError;
pub use events::{Event, ERROR_NODE};
pub use session::{
    EditError, EditOutcome, EditStats, LazyTree, ParseOutcome, ParseSession, ParsedStats,
};
pub use tree::{Sym, SyntaxElement, SyntaxNode, SyntaxToken, SyntaxTree, TokenInterner};
