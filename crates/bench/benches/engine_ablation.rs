//! Experiment B4 — parse-mechanism ablation: the engine's backtracking
//! mode vs its predictive (no-speculation) mode, answering the paper's
//! closing question about "what kind of parsing mechanism is most suitable".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sqlweave_bench::{corpus, parser};
use sqlweave_dialects::Dialect;
use sqlweave_parser_rt::engine::EngineMode;
use std::hint::black_box;
use std::time::Duration;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("B4_engine_ablation");
    for d in [Dialect::Pico, Dialect::Tiny, Dialect::Core] {
        // Restrict to statements both modes accept, so the comparison is
        // apples-to-apples.
        let ll = parser(d, EngineMode::Ll1Table);
        let bt = parser(d, EngineMode::Backtracking);
        let stmts: Vec<&str> = corpus(d)
            .into_iter()
            .filter(|s| ll.parse(s).is_ok())
            .collect();
        assert!(!stmts.is_empty());
        let bytes: usize = stmts.iter().map(|s| s.len()).sum();
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_with_input(
            BenchmarkId::new("backtracking", d.name()),
            &stmts,
            |b, stmts| {
                b.iter(|| {
                    for s in stmts {
                        black_box(bt.parse(black_box(s)).unwrap());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ll1_table", d.name()),
            &stmts,
            |b, stmts| {
                b.iter(|| {
                    for s in stmts {
                        black_box(ll.parse(black_box(s)).unwrap());
                    }
                })
            },
        );
    }
    group.finish();

    // Rejection cost: how quickly does each engine fail on out-of-dialect
    // statements? (Error-path latency matters for interactive use.)
    let mut group = c.benchmark_group("B4_rejection_cost");
    let bad = [
        "SELECT a FROM t ORDER BY a",
        "INSERT INTO t VALUES (1)",
        "SELECT a FROM t UNION SELECT b FROM u",
    ];
    for mode in ["backtracking", "ll1_table"] {
        let engine = if mode == "backtracking" {
            EngineMode::Backtracking
        } else {
            EngineMode::Ll1Table
        };
        let p = parser(Dialect::Pico, engine);
        group.bench_function(BenchmarkId::new(mode, "pico_rejects"), |b| {
            b.iter(|| {
                for s in &bad {
                    black_box(p.parse(black_box(s)).is_err());
                }
            })
        });
    }
    group.finish();
}

criterion_group!{
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);
    targets = bench_engines
}
criterion_main!(benches);
