//! `edit`: a generated 4 MiB `full` document opened once, then seeded
//! keystroke cycles through `apply_edit`, with the tree materialized through
//! `LazyTree::get` after every [`MATERIALIZE_EVERY`]-th cycle, as an
//! editor's outline refresh would. One operation is one cycle: one edit of
//! each kind (see [`EditScript`]), diagnostics read after each edit.

use crate::inputs::{self, Edit, EditScript, Kind};
use crate::script::{add_counters, add_rates, build_parser, diff, SCRIPT_BYTES};
use crate::stats::{median, percentile};
use crate::trace::{self, span};
use crate::{run_for, Opts, Outcome, SETUP_REPS};
use sqlweave_dialects::Dialect;
use sqlweave_parser_rt::engine::EngineMode;
use sqlweave_parser_rt::{EditOutcome, ParseSession};
use sqlweave_sql_features::Catalog;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Cycles between tree refreshes. A synthetic choice (no measured editor
/// trace backs it): it sets how often `step_ms` is sampled, not what a
/// cycle costs.
pub const MATERIALIZE_EVERY: usize = 8;

/// Latencies and locality figures of a stretch of cycles.
#[derive(Default)]
struct Tally {
    cycle_ms: Vec<f64>,
    edit_us: Vec<f64>,
    by_kind: BTreeMap<Kind, Vec<f64>>,
    tree_ms: Vec<f64>,
    relexed: Vec<f64>,
    resync_max: usize,
    reparsed: Vec<f64>,
    full_reparses: usize,
}

/// Apply one edit inside an `apply_edit` span, read its diagnostics, and
/// tally it. Returns the outcome and whether the edit left the document as
/// clean as its kind requires (every edit but a break leaves it clean).
fn apply<'s, 'p>(
    session: &'s mut ParseSession<'p>,
    e: Edit,
    t: &mut Tally,
) -> (EditOutcome<'s, 'p>, bool) {
    let start = Instant::now();
    let (outcome, _) = span("parser-rt", "apply_edit", "full", || {
        session.apply_edit(e.range, &e.text)
    });
    black_box(outcome.errors.first().map(|d| d.at));
    let us = start.elapsed().as_secs_f64() * 1e6;
    t.edit_us.push(us);
    t.by_kind.entry(e.kind).or_default().push(us);
    let st = outcome.stats;
    t.relexed.push(st.relexed_tokens as f64);
    t.resync_max = t.resync_max.max(st.resync_bytes);
    t.reparsed.push(st.reparsed_tokens as f64);
    t.full_reparses += usize::from(st.full_reparse);
    let clean = e.kind == Kind::Break || outcome.errors.is_empty();
    (outcome, clean)
}

fn cycles(
    session: &mut ParseSession<'_>,
    script: &mut EditScript,
    seconds: f64,
    out: &mut Outcome,
) -> Tally {
    let mut t = Tally::default();
    run_for(seconds, || {
        let [replace, insert, delete, brk, repair] = script.cycle(session.document());
        let first = t.edit_us.len();
        let (s, tally) = (&mut *session, &mut t);
        let ((mut last, clean), _) = span("bench", "cycle", "full", move || {
            let mut clean = true;
            for e in [replace, insert, delete, brk] {
                clean &= apply(s, e, tally).1;
            }
            let (last, ok) = apply(s, repair, tally);
            (last, clean && ok)
        });
        let n = t.cycle_ms.len() + 1;
        t.cycle_ms
            .push(t.edit_us[first..].iter().sum::<f64>() / 1e3);
        if n.is_multiple_of(MATERIALIZE_EVERY) {
            let start = Instant::now();
            let (nodes, _) = span("bench", "tree", "full", || {
                span("parser-rt", "materialize", "full", || {
                    last.tree.get().node_count()
                })
                .0
            });
            t.tree_ms.push(start.elapsed().as_secs_f64() * 1e3);
            black_box(nodes);
        }
        drop(last);
        out.check(clean);
    });
    t
}

pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome {
        op_root: "cycle",
        ..Outcome::default()
    };
    let d = Dialect::Full;
    let composed = d.composed().unwrap_or_else(|e| panic!("compose full: {e}"));
    let doc = inputs::script(&composed, o.seed, SCRIPT_BYTES).text;
    drop(composed);
    out.line(format!(
        "# input document.full: {} bytes, fnv1a64 {:016x}",
        doc.len(),
        crate::stats::fnv1a(doc.as_bytes())
    ));

    // Set-up: catalog, configuration → compose → Parser::new, and
    // `open_document`. The last repetition's parser and session are kept.
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        black_box(Catalog::build());
        let parser = build_parser(d, EngineMode::Backtracking);
        let mut session = parser.session();
        black_box(session.open_document(&doc).errors.len());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    black_box(Catalog::build());
    let parser = build_parser(d, EngineMode::Backtracking);
    let mut session = parser.session();
    let opened_clean = session.open_document(&doc).errors.is_empty();
    setup_s.push(t.elapsed().as_secs_f64());
    out.check(opened_clean);
    out.line(format!(
        "# document: {} tokens",
        session.edit_stats().total_tokens
    ));

    let mut script = EditScript::new(&doc, parser.scanner(), o.seed);
    out.line(format!(
        "# edit script: seed {}, cycles of {}, tree materialized every {MATERIALIZE_EVERY} cycles",
        o.seed,
        Kind::ALL.map(Kind::name).join(", ")
    ));
    let t = cycles(&mut session, &mut script, o.untraced_seconds(), &mut out);
    out.end_to_end(&t.cycle_ms, &t.tree_ms, &setup_s);

    out.line(format!(
        "# edit: {} cycles, {} edits, {} materializations, {} full reparses",
        t.cycle_ms.len(),
        t.edit_us.len(),
        t.tree_ms.len(),
        t.full_reparses
    ));
    for (kind, us) in &t.by_kind {
        out.line(format!(
            "#   {}: apply_edit p50 {:.2} us",
            kind.name(),
            median(us)
        ));
    }
    out.line(format!("# edit_us_p50 = {:.3} us", median(&t.edit_us)));
    out.line(format!(
        "# edit_us_p99 = {:.3} us",
        percentile(&t.edit_us, 0.99)
    ));
    out.line(format!("# tree_ms_p50 = {:.4} ms", median(&t.tree_ms)));

    if o.trace {
        let before = session.counters();
        trace::start();
        let t = cycles(
            &mut session,
            &mut script,
            o.seconds - o.untraced_seconds(),
            &mut out,
        );
        out.spans = trace::finish();
        add_counters(&mut out, "full", &diff(before, session.counters()));
        let n = t.cycle_ms.len().max(1) as f64;
        for v in out.counts.values_mut() {
            *v /= n;
        }
        add_rates(&mut out);
        let edits = t.edit_us.len();
        out.line(format!(
            "# parser-rt.full_reparse_fallbacks = {} of {edits} edits",
            t.full_reparses
        ));
        let counts = [
            ("lexgen.relexed_tokens_p50", median(&t.relexed)),
            ("lexgen.resync_bytes_max", t.resync_max as f64),
            ("parser-rt.reparsed_tokens_p50", median(&t.reparsed)),
            (
                "parser-rt.reparsed_tokens_max",
                percentile(&t.reparsed, 1.0),
            ),
            (
                "parser-rt.full_reparse_fallbacks",
                t.full_reparses as f64 / edits.max(1) as f64,
            ),
            ("parser-rt.materialize_ms", median(&t.tree_ms)),
            ("lexgen.dfa_states", parser.scanner().dfa_states() as f64),
            (
                "lexgen.byte_classes",
                parser.scanner().byte_classes() as f64,
            ),
        ];
        for (k, v) in counts {
            out.counts.insert(k.into(), v);
        }
        for (kind, us) in &t.by_kind {
            out.counts.insert(
                format!("parser-rt.apply_edit_us_p50.{}", kind.name()),
                median(us),
            );
        }
    }

    // The incrementally maintained diagnostics and tree equal a
    // from-scratch resilient parse of the final text.
    let text = session.document().to_string();
    let (inc_errors, inc_tree) = {
        let outcome = session.try_document_outcome().expect("document open");
        (outcome.errors, outcome.tree.to_cst())
    };
    let mut fresh = parser.session();
    let scratch = fresh.parse_resilient(&text);
    let same = scratch.errors == inc_errors && scratch.tree.to_cst() == inc_tree;
    out.line(format!(
        "# check: incremental state {} a from-scratch parse ({} diagnostics)",
        if same { "equals" } else { "DIFFERS FROM" },
        inc_errors.len()
    ));
    out.check(same);
    out
}
