//! `construct`: from a feature selection to a parser that has parsed its
//! dialect's curated corpus, for each of the six presets.
//!
//! One operation is a round: each of the six presets, in a seeded order,
//! through `Dialect::configuration` → compose → `Parser::new` →
//! `parse_resilient` of every curated statement.

use crate::stats::median;
use crate::trace::{self, shadow, span};
use crate::{ms, run_for, Opts, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlweave_dialects::Dialect;
use sqlweave_grammar::analysis::analyze;
use sqlweave_grammar::lookahead::{analyze_lookahead, K_MAX};
use sqlweave_parser_rt::engine::Parser;
use sqlweave_sql_features::{catalog, Catalog};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Build `d`'s parser and parse its curated corpus. Returns the parser and
/// whether every statement was accepted. When tracing, the phases
/// `Parser::new` runs internally are re-run as shadow spans so their time
/// comes out of `Parser::new`'s self time, and the parse counters are
/// recorded.
fn build_and_parse(d: Dialect, stmts: &[&str], out: &mut Outcome) -> (Parser, bool) {
    let dn = d.name();
    let (config, _) = span("feature-model", "complete", dn, || d.configuration());
    let (composed, _) = span("core", "compose", dn, || {
        catalog()
            .pipeline()
            .with_name(dn)
            .compose(&config)
            .unwrap_or_else(|e| panic!("compose {dn}: {e}"))
    });
    let (parser, new_span) = span("parser-rt", "compile", dn, || {
        Parser::new(composed.grammar, &composed.tokens)
            .unwrap_or_else(|e| panic!("build {dn}: {e}"))
    });
    if let Some(new_span) = new_span {
        let analysis = shadow("grammar", "analysis", dn, new_span, || {
            analyze(parser.grammar()).expect("analysis")
        });
        let la = shadow("grammar", "lookahead", dn, new_span, || {
            (!analysis.conflicts().is_empty()).then(|| analyze_lookahead(&analysis, K_MAX))
        });
        shadow("lexgen", "build", dn, new_span, || {
            black_box(composed.tokens.build().expect("scanner"))
        });
        if d == Dialect::Full {
            let la = la.expect("full has LL(1) conflicts");
            for (k, v) in [
                ("grammar.lookahead_decisions", la.decisions.len()),
                ("grammar.lookahead_residual", la.residual()),
                ("lexgen.dfa_states", parser.scanner().dfa_states()),
                ("lexgen.byte_classes", parser.scanner().byte_classes()),
            ] {
                out.counts.insert(k.into(), v as f64);
            }
        }
    }
    let ((accepted, counters), _) = span("parser-rt", "first_parse", dn, || {
        let mut session = parser.session();
        let accepted = stmts
            .iter()
            .all(|stmt| session.parse_resilient(stmt).errors.is_empty());
        (accepted, session.counters())
    });
    if trace::enabled() && crate::TAGS.contains(&dn) {
        crate::script::add_counters(out, dn, &counters);
    }
    (parser, accepted)
}

/// Catalog builds timed for `setup_s`.
const SETUP_REPS: usize = 50;

pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome {
        op_root: "round",
        ..Outcome::default()
    };

    // Set-up: the process-wide feature catalog (first build fills the
    // shared instance the operations use, later builds are discarded). It
    // takes milliseconds, so it is repeated more often than elsewhere.
    let mut setup_s = Vec::new();
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        if i == 0 {
            black_box(catalog());
        } else {
            black_box(Catalog::build());
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let corpora: BTreeMap<&str, Vec<&str>> = Dialect::ALL
        .iter()
        .map(|d| (d.name(), sqlweave_bench::corpus(*d)))
        .collect();
    let mut rng = StdRng::seed_from_u64(o.seed);
    let op = |d: Dialect, out: &mut Outcome| -> f64 {
        let t = Instant::now();
        let ((parser, accepted), _) = span("bench", "construct", d.name(), || {
            build_and_parse(d, &corpora[d.name()], out)
        });
        let elapsed = ms(t.elapsed());
        // Untimed check: the preset's feature-boundary witness is rejected.
        let witness_ok = sqlweave_bench::rejection_witness(d)
            .is_none_or(|w| !parser.session().parse_resilient(w).errors.is_empty());
        out.check(accepted && witness_ok);
        elapsed
    };
    let mut round = |out: &mut Outcome, per_dialect: &mut BTreeMap<&str, Vec<f64>>| -> f64 {
        let mut order = Dialect::ALL;
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        span("bench", "round", "all", || {
            order
                .iter()
                .map(|&d| {
                    let t = op(d, out);
                    per_dialect.entry(d.name()).or_default().push(t);
                    t
                })
                .sum()
        })
        .0
    };

    let mut rounds = Vec::new();
    let mut per_dialect: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    run_for(o.untraced_seconds(), || {
        rounds.push(round(&mut out, &mut per_dialect))
    });
    out.end_to_end(&rounds, &per_dialect["full"], &setup_s);

    out.line(format!(
        "# construct: {} rounds over {} presets (ms): {}",
        rounds.len(),
        Dialect::ALL.len(),
        rounds
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for d in Dialect::ALL {
        out.line(format!(
            "#   ttfp[{}] p50 = {:.3} ms",
            d.name(),
            median(&per_dialect[d.name()])
        ));
    }
    out.line(format!(
        "# ttfp_full_ms = {:.3} ms",
        median(&per_dialect["full"])
    ));
    out.line(format!("# ttfp_family_s = {:.4} s", median(&rounds) / 1e3));

    if o.trace {
        let mut traced_rounds = 0u32;
        trace::start();
        let mut scratch = BTreeMap::new();
        run_for(o.seconds - o.untraced_seconds(), || {
            round(&mut out, &mut scratch);
            traced_rounds += 1;
        });
        out.spans = trace::finish();
        // The parse counters were summed over the traced rounds, one
        // operation of each dialect per round.
        for (k, v) in out.counts.iter_mut() {
            if k.starts_with("parser-rt.") {
                *v /= traced_rounds as f64;
            }
        }
        crate::script::add_rates(&mut out);
    }
    out
}
