//! `sqlweave-perfbench`: end-to-end and per-layer benchmark of the
//! sqlweave parser product line.
//!
//! ```text
//! sqlweave-perfbench --workload <construct|script|edit> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Every workload is one caller in a closed loop on one worker thread.
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it first repeats the untraced loop for half the time, then
//! records spans around every public call for the other half and prints
//! the per-layer metrics, the tracing overhead, and how much of the
//! untraced operation time the layer self times account for. Human-
//! readable lines start with `# `; the last line is one JSON object.
//! The process exits non-zero when an output check fails.

mod alloc;
mod construct;
mod edit;
mod inputs;
mod script;
mod stats;
mod trace;

use stats::{mean, median, percentile, Metrics};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: Option<PathBuf>,
}

impl Opts {
    /// Seconds of untraced measurement (half the run when tracing).
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What a workload reports back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of the untraced loop.
    pub e2e: Metrics,
    /// Per-layer counters (metric name → value); absent ones read 0.
    pub counts: BTreeMap<String, f64>,
    /// Name of the root span of one operation.
    pub op_root: &'static str,
    /// Mean operation time of the untraced loop, in nanoseconds.
    pub untraced_op_ns: f64,
    pub spans: Vec<trace::Span>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn line(&mut self, s: String) {
        self.report.push(s);
    }

    /// Add `v` to counter `key`.
    pub fn count(&mut self, key: impl Into<String>, v: f64) {
        *self.counts.entry(key.into()).or_default() += v;
    }

    /// Record the end-to-end metrics every workload reports, right after
    /// its untraced loop: `op_ms` (p50) and `op_mean_ms` of the operation
    /// times, `step_ms` (p50) of the workload's headline step, `setup_s`
    /// (median of the set-up repetitions) and `peak_rss_mib`.
    pub fn end_to_end(&mut self, op_ms: &[f64], step_ms: &[f64], setup_s: &[f64]) {
        let peak = alloc::peak_rss_mib().unwrap_or(0.0);
        self.untraced_op_ns = mean(op_ms) * 1e6;
        self.e2e.put("op_ms", median(op_ms), "ms");
        self.e2e.put("op_mean_ms", mean(op_ms), "ms");
        self.e2e.put("step_ms", median(step_ms), "ms");
        self.e2e.put("setup_s", median(setup_s), "s");
        self.e2e.put("peak_rss_mib", peak, "MiB");
        self.line(format!(
            "# {} operations, {} steps, {} set-ups",
            op_ms.len(),
            step_ms.len(),
            setup_s.len()
        ));
        // The highest percentile with at least ten samples beyond it.
        for (name, v) in [("op_ms", op_ms), ("step_ms", step_ms)] {
            if v.len() >= 20 {
                let p = (v.len() - 10) as f64 / v.len() as f64;
                self.line(format!(
                    "# {name} p{:.1} = {:.4} ms over {} samples",
                    100.0 * p,
                    percentile(v, p),
                    v.len()
                ));
            }
        }
    }
}

/// Call `step` until `seconds` have passed (at least once).
pub fn run_for(seconds: f64, mut step: impl FnMut()) {
    let start = Instant::now();
    loop {
        step();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub const LAYERS: [&str; 7] = [
    "feature-model",
    "core",
    "grammar",
    "lexgen",
    "parser-rt",
    "sema",
    "sql-ast",
];

/// The two dialects whose phases and parse counters are reported.
pub const TAGS: [&str; 2] = ["core", "full"];

/// Spans reported as self time per call for each of [`TAGS`], as
/// `<layer>.<phase>_ms.<dialect>`: construction phases (`construct`) and
/// batch-pipeline phases (`script`).
const PHASES: [(&str, &str); 12] = [
    ("feature-model", "complete"),
    ("core", "compose"),
    ("grammar", "analysis"),
    ("grammar", "lookahead"),
    ("lexgen", "build"),
    ("parser-rt", "compile"),
    ("parser-rt", "first_parse"),
    ("lexgen", "scan"),
    ("parser-rt", "parse"),
    ("parser-rt", "to_cst"),
    ("sema", "resolve"),
    ("sql-ast", "lower"),
];

/// Per-layer counters every traced run reports (0 where a workload does
/// not exercise them). Counters fixed by the input alone (tree nodes,
/// column edges, lowered statements) are report lines instead.
const COUNTS: [(&str, &str); 28] = [
    ("grammar.lookahead_decisions", "count"),
    ("grammar.lookahead_residual", "count"),
    ("lexgen.dfa_states", "count"),
    ("lexgen.byte_classes", "count"),
    ("parser-rt.alt_attempts.core", "count"),
    ("parser-rt.alt_attempts.full", "count"),
    ("parser-rt.backtracks.core", "count"),
    ("parser-rt.backtracks.full", "count"),
    ("parser-rt.decision_hits.core", "count"),
    ("parser-rt.decision_hits.full", "count"),
    ("parser-rt.backtrack_rate.core", "ratio"),
    ("parser-rt.backtrack_rate.full", "ratio"),
    ("lexgen.scan_mib_s", "MiB/s"),
    ("parser-rt.ll1.parse_ms.core", "ms"),
    ("parser-rt.ll1.parse_ms.full", "ms"),
    ("parser-rt.ll1.diagnostics.core", "count"),
    ("parser-rt.ll1.diagnostics.full", "count"),
    ("lexgen.relexed_tokens_p50", "count"),
    ("lexgen.resync_bytes_max", "bytes"),
    ("parser-rt.reparsed_tokens_p50", "count"),
    ("parser-rt.reparsed_tokens_max", "count"),
    ("parser-rt.full_reparse_fallbacks", "ratio"),
    ("parser-rt.apply_edit_us_p50.replace", "us"),
    ("parser-rt.apply_edit_us_p50.insert", "us"),
    ("parser-rt.apply_edit_us_p50.delete", "us"),
    ("parser-rt.apply_edit_us_p50.break", "us"),
    ("parser-rt.apply_edit_us_p50.repair", "us"),
    ("parser-rt.materialize_ms", "ms"),
];

/// The traced run's metrics: per-layer self time and allocations per
/// operation, per-call phase times, counters, and the tracing overhead.
fn per_layer(out: &mut Outcome) -> Metrics {
    let s = trace::Summary::of(&out.spans);
    let (ops, op_ns) = s.roots.get(out.op_root).copied().unwrap_or((0, 0));
    let ops_f = ops.max(1) as f64;
    let traced_op_ns = op_ns as f64 / ops_f;
    let program_ns = s.sum(|r, l, _, _| r == out.op_root && l != "bench").self_ns as f64 / ops_f;
    let overhead = 100.0 * (traced_op_ns - out.untraced_op_ns) / out.untraced_op_ns;
    let accounted = 100.0 * program_ns / out.untraced_op_ns;
    out.line(format!(
        "# trace.op_ms = {:.4} ms over {ops} traced operations (untraced {:.4} ms)",
        traced_op_ns / 1e6,
        out.untraced_op_ns / 1e6
    ));
    out.line(format!("# trace.overhead_pct = {overhead:.2} %"));
    out.line(format!(
        "# trace.accounted_pct = {accounted:.2} % (layer self time / untraced operation time)"
    ));
    out.line(format!("# trace.spans = {}", out.spans.len()));
    // The layer spans must cover the operation: a missing or doubled span
    // would push the share far from 100 %.
    out.check((50.0..=150.0).contains(&accounted));

    let mut m = Metrics::default();
    m.put("trace.op_ms", traced_op_ns / 1e6, "ms");
    m.put("trace.overhead_pct", overhead, "%");
    // Per operation, over every root span of the traced loop (an edit
    // run's tree refreshes included).
    for layer in LAYERS {
        let t = s.sum(|_, l, _, _| l == layer);
        m.put(
            format!("{layer}.self_ms"),
            t.self_ns as f64 / 1e6 / ops_f,
            "ms",
        );
        m.put(format!("{layer}.allocs"), t.allocs as f64 / ops_f, "count");
        m.put(
            format!("{layer}.alloc_mib"),
            t.bytes as f64 / ops_f / (1u64 << 20) as f64,
            "MiB",
        );
    }
    for (layer, phase) in PHASES {
        for tag in TAGS {
            let t = s.sum(|_, l, n, d| l == layer && n == phase && d == tag);
            m.put(
                format!("{layer}.{phase}_ms.{tag}"),
                t.self_ns as f64 / 1e6 / t.count.max(1) as f64,
                "ms",
            );
        }
    }
    for (name, unit) in COUNTS {
        m.put(name, out.counts.get(name).copied().unwrap_or(0.0), unit);
    }
    // Absolute self times per span key, for the human report.
    for (&(root, layer, name, dialect), t) in &s.by_key {
        let calls = t.count.max(1) as f64;
        // Signed: a shadow-credited remainder can read below zero.
        out.report.push(format!(
            "# {layer}.{name}_ms[{dialect}] = {:.4} ms/call self, {:.1} allocs/call ({} calls in {root})",
            t.self_ns as f64 / 1e6 / calls,
            t.allocs as f64 / calls,
            t.count
        ));
    }
    m
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => o.workload = value,
            "--seed" => o.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = value == "1",
            "--trace-dir" => o.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["construct", "script", "edit"].contains(&o.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (construct, script, edit)",
            o.workload
        ));
    }
    if o.seconds.is_nan() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn run(o: Opts) -> i32 {
    let mut out = match o.workload.as_str() {
        "construct" => construct::run(&o),
        "script" => script::run(&o),
        _ => edit::run(&o),
    };
    let metrics = if o.trace {
        let m = per_layer(&mut out);
        if let Some(dir) = &o.trace_dir {
            let path = dir.join(format!("trace-{}-seed{}.jsonl", o.workload, o.seed));
            match std::fs::create_dir_all(dir).and_then(|_| trace::write_jsonl(&path, &out.spans)) {
                Ok(()) => out.line(format!(
                    "# trace: {} spans written to {}",
                    out.spans.len(),
                    path.display()
                )),
                Err(e) => out.line(format!("# trace: could not write {}: {e}", path.display())),
            }
        }
        m
    } else {
        std::mem::take(&mut out.e2e)
    };
    for line in &out.report {
        println!("{line}");
    }
    for (name, value, unit) in metrics.iter() {
        println!("# {name} = {value:.6} {unit}");
    }
    println!("# attempted = {}, failed = {}", out.attempted, out.failed);
    let correct = out.failed == 0;
    println!(
        "{}",
        stats::result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sqlweave-perfbench: {e}");
            eprintln!("usage: sqlweave-perfbench --workload <construct|script|edit> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]");
            std::process::exit(2);
        }
    };
    // One worker thread with a deep stack: both engines descend once over
    // a whole multi-MiB script, and the predictive engine's frames outgrow
    // the default 8 MiB main-thread stack.
    let code = std::thread::Builder::new()
        .name("perfbench".into())
        .stack_size(1 << 30)
        .spawn(move || run(opts))
        .expect("spawn benchmark thread")
        .join()
        .unwrap_or(101);
    std::process::exit(code);
}
