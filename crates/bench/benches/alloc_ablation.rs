//! Experiment B4 (allocation ablation) — seed per-node CST construction vs
//! the event-driven green core, isolating what tree materialization costs:
//!
//! * `seed_cst` — the preserved pre-event engines (`parse_reference`),
//!   which allocate a node with its own child vector per expansion and
//!   throw away whole subtrees on backtracking.
//! * `event_cst` — events → arena tree → owned copy (`Parser::parse`).
//! * `event_tree` — a recycled `ParseSession` yielding the borrowed arena
//!   tree; steady-state allocation-free.
//! * `batch` — `parse_many` over the whole corpus in one call.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sqlweave_bench::{corpus, parser};
use sqlweave_dialects::Dialect;
use sqlweave_parser_rt::engine::EngineMode;
use std::hint::black_box;
use std::time::Duration;

fn bench_alloc(c: &mut Criterion) {
    for mode in [EngineMode::Backtracking, EngineMode::Ll1Table] {
        let mode_name = sqlweave_bench::runner::engine_name(mode);
        let mut group = c.benchmark_group(format!("B4_alloc_ablation_{mode_name}"));
        for d in [Dialect::Pico, Dialect::Core, Dialect::Full] {
            let p = parser(d, mode);
            let stmts: Vec<&str> = corpus(d)
                .into_iter()
                .filter(|s| p.parse_reference(s).is_ok())
                .collect();
            assert!(!stmts.is_empty());
            let bytes: usize = stmts.iter().map(|s| s.len()).sum();
            group.throughput(Throughput::Bytes(bytes as u64));
            group.bench_with_input(BenchmarkId::new("seed_cst", d.name()), &stmts, |b, stmts| {
                b.iter(|| {
                    for s in stmts {
                        black_box(p.parse_reference(black_box(s)).unwrap());
                    }
                })
            });
            group.bench_with_input(BenchmarkId::new("event_cst", d.name()), &stmts, |b, stmts| {
                b.iter(|| {
                    for s in stmts {
                        black_box(p.parse(black_box(s)).unwrap());
                    }
                })
            });
            group.bench_with_input(BenchmarkId::new("event_tree", d.name()), &stmts, |b, stmts| {
                let mut session = p.session();
                b.iter(|| {
                    for s in stmts {
                        let tree = session.parse_tree(black_box(s)).unwrap();
                        black_box(tree.node_count());
                    }
                })
            });
            group.bench_with_input(BenchmarkId::new("batch", d.name()), &stmts, |b, stmts| {
                b.iter(|| black_box(p.parse_many(black_box(stmts))))
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);
    targets = bench_alloc
}
criterion_main!(benches);
