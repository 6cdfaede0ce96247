//! `script`: one generated 4 MiB script each for `core` and `full` through
//! the batch pipeline `parse_resilient` → `to_cst` → `analyze_script` →
//! `lower_script`, with the default engine. One operation is a round:
//! `core`, then `full`.

use crate::inputs;
use crate::stats::median;
use crate::trace::{self, shadow, span};
use crate::{ms, run_for, Opts, Outcome, SETUP_REPS, TAGS};
use sqlweave_dialects::Dialect;
use sqlweave_lexgen::Token;
use sqlweave_parser_rt::engine::{EngineMode, Parser, RunCounters};
use sqlweave_parser_rt::ParseSession;
use sqlweave_sema::{analyze_script, ResolverCaps};
use sqlweave_sql_ast::{lower_script, Statement};
use sqlweave_sql_features::{catalog, Catalog};
use std::hint::black_box;
use std::time::Instant;

/// Size of each generated script.
pub const SCRIPT_BYTES: usize = 4 << 20;
const DIALECTS: [Dialect; 2] = [Dialect::Core, Dialect::Full];

/// Accumulate a session's counter delta under `parser-rt.<counter>.<tag>`.
pub fn add_counters(out: &mut Outcome, tag: &str, c: &RunCounters) {
    for (name, v) in [
        ("alt_attempts", c.alt_attempts),
        ("backtracks", c.backtracks),
        ("decision_hits", c.decision_hits),
    ] {
        out.count(format!("parser-rt.{name}.{tag}"), v as f64);
    }
}

/// Backtracks ÷ speculative attempts, the wasted-work ratio.
pub fn add_rates(out: &mut Outcome) {
    for tag in TAGS {
        let get = |k: &str| {
            let key = format!("parser-rt.{k}.{tag}");
            out.counts.get(&key).copied().unwrap_or(0.0)
        };
        let (attempts, backtracks) = (get("alt_attempts"), get("backtracks"));
        let rate = if attempts > 0.0 {
            backtracks / attempts
        } else {
            0.0
        };
        out.counts
            .insert(format!("parser-rt.backtrack_rate.{tag}"), rate);
    }
}

pub fn diff(a: RunCounters, b: RunCounters) -> RunCounters {
    RunCounters {
        decision_hits: b.decision_hits - a.decision_hits,
        alt_attempts: b.alt_attempts - a.alt_attempts,
        backtracks: b.backtracks - a.backtracks,
        recoveries: b.recoveries - a.recoveries,
        skipped_tokens: b.skipped_tokens - a.skipped_tokens,
    }
}

/// The configuration → compose → `Parser::new` chain of one dialect.
pub fn build_parser(d: Dialect, mode: EngineMode) -> Parser {
    let config = d.configuration();
    catalog()
        .pipeline()
        .with_name(d.name())
        .compose(&config)
        .and_then(|c| c.into_parser_with_mode(mode))
        .unwrap_or_else(|e| panic!("build {}: {e}", d.name()))
}

struct Input {
    dialect: Dialect,
    text: String,
    statements: usize,
}

/// Per-pass results of one script through the pipeline.
struct Pass {
    parse_ms: f64,
    total_ms: f64,
    ok: bool,
    lowered: Option<Vec<Statement>>,
    /// Tree nodes, column edges and lowered statements: fixed by the input.
    sizes: [usize; 3],
}

/// Scanned bytes and nanoseconds of the traced scan shadows, and their
/// token buffer (reused, as a session reuses its own).
#[derive(Default)]
struct ScanTally {
    bytes: f64,
    ns: f64,
    toks: Vec<Token>,
}

fn pass(
    session: &mut ParseSession<'_>,
    inp: &Input,
    caps: &ResolverCaps,
    keep: bool,
    out: &mut Outcome,
    scan: &mut ScanTally,
) -> Pass {
    let dn = inp.dialect.name();
    let text = inp.text.as_str();
    let parser = session.parser();
    let before = session.counters();
    let t0 = Instant::now();
    let (p, _) = span("bench", "script", dn, || {
        let s = &mut *session;
        let (outcome, parse_span) = span("parser-rt", "parse", dn, move || s.parse_resilient(text));
        let parse_ms = ms(t0.elapsed());
        let errors = outcome.errors.len();
        let nodes = outcome.tree.node_count();
        let (cst, _) = span("parser-rt", "to_cst", dn, || outcome.tree.to_cst());
        let (analysis, _) = span("sema", "resolve", dn, || {
            analyze_script(text, &cst, caps, None)
        });
        let (lowered, _) = span("sql-ast", "lower", dn, || lower_script(&cst));
        let statements = lowered.as_ref().map_or(0, Vec::len);
        let ok = errors == 0 && statements == inp.statements;
        let edges: usize = analysis.statements.iter().map(|s| s.columns.len()).sum();
        // Freeing each owned result is part of its layer's cost.
        span("parser-rt", "free_cst", dn, || drop(cst));
        span("sema", "free_analysis", dn, || drop(analysis));
        let lowered = if keep {
            lowered.ok()
        } else {
            span("sql-ast", "free_ast", dn, || drop(lowered));
            None
        };
        let total_ms = ms(t0.elapsed());
        if let Some(parse_span) = parse_span {
            // `parse_resilient` scans first: re-run the scan on its own so
            // the parser's self time excludes it.
            scan.toks.clear();
            let t = Instant::now();
            shadow("lexgen", "scan", dn, parse_span, || {
                parser
                    .scanner()
                    .scan_into(text, &mut scan.toks)
                    .expect("clean script lexes")
            });
            scan.ns += t.elapsed().as_nanos() as f64;
            scan.bytes += text.len() as f64;
        }
        Pass {
            parse_ms,
            total_ms,
            ok,
            lowered,
            sizes: [nodes, edges, statements],
        }
    });
    if trace::enabled() {
        add_counters(out, dn, &diff(before, session.counters()));
    }
    out.check(p.ok);
    p
}

/// One operation: every script once, inside one root span. Returns the
/// per-script passes.
fn round(
    sessions: &mut [ParseSession<'_>],
    built: &[(Parser, ResolverCaps)],
    inputs: &[Input],
    out: &mut Outcome,
    scan: &mut ScanTally,
) -> Vec<Pass> {
    span("bench", "round", "all", || {
        inputs
            .iter()
            .enumerate()
            .map(|(i, inp)| pass(&mut sessions[i], inp, &built[i].1, false, out, scan))
            .collect()
    })
    .0
}

pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome {
        op_root: "round",
        ..Outcome::default()
    };
    let inputs: Vec<Input> = DIALECTS
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let composed = d
                .composed()
                .unwrap_or_else(|e| panic!("compose {}: {e}", d.name()));
            let s = inputs::script(
                &composed,
                o.seed
                    .wrapping_mul(DIALECTS.len() as u64)
                    .wrapping_add(i as u64),
                SCRIPT_BYTES,
            );
            Input {
                dialect: d,
                text: s.text,
                statements: s.statements,
            }
        })
        .collect();
    for inp in &inputs {
        out.line(format!(
            "# input script.{}: {} bytes, {} statements, fnv1a64 {:016x}",
            inp.dialect.name(),
            inp.text.len(),
            inp.statements,
            crate::stats::fnv1a(inp.text.as_bytes())
        ));
    }

    // Set-up: catalog, then configuration → compose → Parser::new and the
    // resolver capabilities for both dialects.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        black_box(Catalog::build());
        let parsers: Vec<(Parser, ResolverCaps)> = DIALECTS
            .iter()
            .map(|&d| {
                (
                    build_parser(d, EngineMode::Backtracking),
                    ResolverCaps::for_dialect(d),
                )
            })
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(parsers);
    }
    let built = built.expect("set-up ran");
    let mut sessions: Vec<ParseSession<'_>> = built.iter().map(|(p, _)| p.session()).collect();
    let mut scan = ScanTally::default();

    // Warm-up pass with the expensive checks: zero diagnostics and the
    // generated statement count everywhere, and for `full` the lowered
    // ASTs equal to the hand-written baseline parser's on the same text.
    for (i, inp) in inputs.iter().enumerate() {
        let p = pass(
            &mut sessions[i],
            inp,
            &built[i].1,
            true,
            &mut out,
            &mut scan,
        );
        let [nodes, edges, statements] = p.sizes;
        let dn = inp.dialect.name();
        out.line(format!(
            "# parser-rt.tree_nodes[{dn}] = {nodes}, sema.column_edges[{dn}] = {edges}, sql-ast.statements[{dn}] = {statements}"
        ));
        if inp.dialect == Dialect::Full {
            let baseline = sqlweave_baseline::parse_script(&inp.text);
            let equal = matches!((&baseline, &p.lowered), (Ok(b), Some(l)) if b == l);
            out.line(format!(
                "# check: full lowered ASTs {} baseline::parse_script ({} statements)",
                if equal { "equal" } else { "DIFFER FROM" },
                p.lowered.as_ref().map_or(0, Vec::len)
            ));
            out.check(equal);
        }
    }

    let mut per_script: [Vec<Pass>; 2] = [Vec::new(), Vec::new()];
    let (mut rounds, mut rounds_parse) = (Vec::new(), Vec::new());
    run_for(o.untraced_seconds(), || {
        let passes = round(&mut sessions, &built, &inputs, &mut out, &mut scan);
        rounds.push(passes.iter().map(|p| p.total_ms).sum());
        rounds_parse.push(passes.iter().map(|p| p.parse_ms).sum());
        for (i, p) in passes.into_iter().enumerate() {
            per_script[i].push(p);
        }
    });
    out.end_to_end(&rounds, &rounds_parse, &setup_s);

    let mib: f64 = inputs.iter().map(|i| i.text.len() as f64).sum::<f64>() / (1u64 << 20) as f64;
    out.line(format!(
        "# script: {} rounds (ms): {}",
        rounds.len(),
        rounds
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let parse_p50 = |ps: &[Pass]| median(&ps.iter().map(|p| p.parse_ms).collect::<Vec<_>>());
    for (i, inp) in inputs.iter().enumerate() {
        let total: Vec<f64> = per_script[i].iter().map(|p| p.total_ms).collect();
        out.line(format!(
            "#   {}: parse_resilient p50 {:.3} ms, pipeline p50 {:.3} ms",
            inp.dialect.name(),
            parse_p50(&per_script[i]),
            median(&total)
        ));
    }
    out.line(format!(
        "# parse_mib_s = {:.3} MiB/s",
        mib / (median(&rounds_parse) / 1e3)
    ));
    out.line(format!(
        "# analyze_mib_s = {:.3} MiB/s",
        mib / (median(&rounds) / 1e3)
    ));

    if o.trace {
        out.counts.clear();
        let mut traced_rounds = 0u32;
        trace::start();
        run_for(o.seconds - o.untraced_seconds(), || {
            round(&mut sessions, &built, &inputs, &mut out, &mut scan);
            traced_rounds += 1;
        });
        out.spans = trace::finish();
        for v in out.counts.values_mut() {
            *v /= traced_rounds as f64;
        }
        add_rates(&mut out);
        out.counts.insert(
            "lexgen.scan_mib_s".into(),
            scan.bytes / (1u64 << 20) as f64 / (scan.ns / 1e9),
        );
        let full = &built[1].0;
        out.counts.insert(
            "lexgen.dfa_states".into(),
            full.scanner().dfa_states() as f64,
        );
        out.counts.insert(
            "lexgen.byte_classes".into(),
            full.scanner().byte_classes() as f64,
        );

        // The predictive engine on the same text: informs the one-engine
        // decision and moves no end-to-end metric.
        drop(sessions);
        for (i, inp) in inputs.iter().enumerate() {
            let ll1 = build_parser(inp.dialect, EngineMode::Ll1Table);
            let mut session = ll1.session();
            // A first parse sizes the session's buffers; time the second.
            black_box(session.parse_resilient(&inp.text).errors.len());
            let t = Instant::now();
            let diagnostics = session.parse_resilient(&inp.text).errors.len();
            let ll1_ms = ms(t.elapsed());
            let tag = inp.dialect.name();
            out.line(format!(
                "# parser-rt.ll1.parse_ms[{tag}] = {ll1_ms:.3} ms ({:.3}x backtracking), parser-rt.ll1.diagnostics[{tag}] = {diagnostics}",
                ll1_ms / parse_p50(&per_script[i])
            ));
            out.counts
                .insert(format!("parser-rt.ll1.parse_ms.{tag}"), ll1_ms);
            out.counts.insert(
                format!("parser-rt.ll1.diagnostics.{tag}"),
                diagnostics as f64,
            );
        }
    }
    out
}
