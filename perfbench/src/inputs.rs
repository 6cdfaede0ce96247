//! Seeded input generation: SQL scripts sampled from each dialect's own
//! composed grammar, and keystroke edit scripts over a document. The
//! program under test only ever receives the resulting text and ranges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlweave_core::pipeline::Composed;
use sqlweave_grammar::sentence::SentenceGenerator;
use sqlweave_lexgen::Scanner;
use std::ops::Range;

/// Derivation depth budget per statement: deep enough for nested
/// subqueries and multi-way joins.
const MAX_DEPTH: usize = 10;
/// Repetition range inside sampled lexemes, so identifiers and literals
/// have the lengths of real schemas (9–19 byte identifiers).
const LEXEME_REPS: (usize, usize) = (8, 18);
/// Statements are wrapped at this column, continuation lines indented.
const WRAP_WIDTH: usize = 72;

/// A generated clean script.
pub struct Script {
    pub text: String,
    /// Statements generated (one `sql_statement` sentence each).
    pub statements: usize,
}

/// Generate a script of at least `target_bytes` bytes: `;`-terminated
/// statements one per (wrapped) line, with a comment line every eight
/// statements when the dialect has line comments.
pub fn script(composed: &Composed, seed: u64, target_bytes: usize) -> Script {
    let generator = SentenceGenerator::new(&composed.grammar, &composed.tokens)
        .unwrap_or_else(|e| panic!("sentence generator for {}: {e}", composed.name))
        .with_lexeme_reps(LEXEME_REPS.0, LEXEME_REPS.1);
    let mut rng = StdRng::seed_from_u64(seed);
    let has_semi = composed.tokens.get("SEMI").is_some();
    let has_comment = composed.tokens.get("LINE_COMMENT").is_some();
    let mut text = String::with_capacity(target_bytes + 4096);
    let mut statements = 0usize;
    while text.len() < target_bytes {
        if has_comment && statements.is_multiple_of(8) {
            text.push_str(&format!(
                "-- batch {}: generated {} workload\n",
                statements / 8,
                composed.name
            ));
        }
        let stmt = generator.generate_from("sql_statement", &mut rng, MAX_DEPTH);
        wrap_into(&mut text, &stmt);
        if has_semi {
            text.push(';');
        }
        text.push('\n');
        statements += 1;
    }
    Script { text, statements }
}

/// Append `stmt` (lexemes joined by single spaces) wrapped at
/// [`WRAP_WIDTH`], breaking only at spaces outside quoted lexemes.
fn wrap_into(out: &mut String, stmt: &str) {
    let mut col = 0usize;
    let mut quote: Option<char> = None;
    for c in stmt.chars() {
        match (quote, c) {
            (None, '\'' | '"') => quote = Some(c),
            (Some(q), c) if c == q => quote = None,
            (None, ' ') if col >= WRAP_WIDTH => {
                out.push_str("\n    ");
                col = 4;
                continue;
            }
            _ => {}
        }
        out.push(c);
        col += 1;
    }
}

/// Edit kinds of the keystroke mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Same-length one-byte replacement inside an identifier.
    Replace,
    /// Typing one character into an identifier.
    Insert,
    /// Deleting one character of an identifier.
    Delete,
    /// Deleting a `(` or `,` (usually breaks the syntax).
    Break,
    /// Restoring the `(` or `,` a break deleted.
    Repair,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Replace,
        Kind::Insert,
        Kind::Delete,
        Kind::Break,
        Kind::Repair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Replace => "replace",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
            Kind::Break => "break",
            Kind::Repair => "repair",
        }
    }
}

pub struct Edit {
    pub kind: Kind,
    pub range: Range<usize>,
    pub text: String,
}

/// A seeded, endless script of keystroke cycles over one document. A cycle
/// is one edit of each [`Kind`], in [`Kind::ALL`] order, at seeded
/// positions: a same-length replacement, typing one character and deleting
/// it again, deleting a `(` or `,` and restoring it. Every edit that
/// changes the length is undone inside its cycle, so the positions sampled
/// from the opening document stay valid forever and the document is clean
/// after every edit except a [`Kind::Break`].
pub struct EditScript {
    rng: StdRng,
    /// Interior byte offsets of identifiers (first and last byte excluded).
    ident: Vec<Range<usize>>,
    /// Offsets of `(` and `,` tokens.
    punct: Vec<usize>,
}

impl EditScript {
    pub fn new(doc: &str, scanner: &Scanner, seed: u64) -> EditScript {
        let kind = |name: &str| {
            scanner
                .kind_of(name)
                .unwrap_or_else(|| panic!("dialect has no {name} token"))
        };
        let (ident_kind, lparen, comma) = (kind("IDENT"), kind("LPAREN"), kind("COMMA"));
        let tokens = scanner.scan(doc).expect("generated document lexes cleanly");
        let ident = tokens
            .iter()
            .filter(|t| t.kind == ident_kind && t.end - t.start >= 6)
            .map(|t| t.start + 1..t.end - 1)
            .collect::<Vec<_>>();
        let punct = tokens
            .iter()
            .filter(|t| t.kind == lparen || t.kind == comma)
            .map(|t| t.start)
            .collect::<Vec<_>>();
        assert!(
            !ident.is_empty() && !punct.is_empty(),
            "document too small for an edit script"
        );
        EditScript {
            rng: StdRng::seed_from_u64(seed),
            ident,
            punct,
        }
    }

    fn ident_pos(&mut self) -> usize {
        let r = self.ident[self.rng.gen_range(0..self.ident.len())].clone();
        self.rng.gen_range(r)
    }

    /// The next cycle of edits, to be applied in order to `doc` as it is
    /// now (between cycles).
    pub fn cycle(&mut self, doc: &str) -> [Edit; 5] {
        let edit = |kind, range, text: &str| Edit {
            kind,
            range,
            text: text.to_string(),
        };
        let r = self.ident_pos();
        let rep = if doc.as_bytes()[r] == b'x' { "y" } else { "x" };
        let t = self.ident_pos();
        let b = self.punct[self.rng.gen_range(0..self.punct.len())];
        let c = &doc[b..b + 1];
        [
            edit(Kind::Replace, r..r + 1, rep),
            edit(Kind::Insert, t..t, "q"),
            edit(Kind::Delete, t..t + 1, ""),
            edit(Kind::Break, b..b + 1, ""),
            edit(Kind::Repair, b..b, c),
        ]
    }
}
