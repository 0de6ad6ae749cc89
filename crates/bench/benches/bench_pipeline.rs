//! Staged-pipeline bench: exhaustive vs bound-pruned segmentation DP and
//! the cold-compile worker sweep, all with cold caches.
//!
//! Every iteration compiles from scratch with a fresh per-compilation
//! allocation cache, so the measured difference is exactly what the
//! analytic bound pruning saves on a first compile (a session's
//! cross-model cache only helps *repeated* segments). The two
//! modes provably produce identical schedules — asserted here on every
//! iteration — so this is a pure compile-time comparison.
//!
//! The `cold_registry` group sweeps `solve_workers` over the whole model
//! registry and writes a machine-readable `BENCH_pipeline.json` summary
//! to the repository root: per-worker wall clock, per-model wall clock
//! and the solver counters. It also asserts the PR's invariants on every
//! run (including CI's `CMSWITCH_BENCH_SMOKE` pass): plans bit-identical
//! across worker counts, pruning and warm-start-accept counters nonzero
//! in parallel mode.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cmswitch_arch::presets;
use cmswitch_core::{CompilerOptions, DpMode, Session};
use cmswitch_models::registry;

/// A fresh-cache session per DP mode. Each `compile_graph` still pays a
/// cold *per-compilation* cache because the bench clears it between
/// iterations via a new session.
fn compiler(mode: DpMode) -> Session {
    Session::builder(presets::dynaplasia())
        .options(CompilerOptions::default().with_dp_mode(mode))
        .workers(1)
        .build()
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("segmentation_dp");
    group.sample_size(3);
    for (model, seq) in [("bert-base", 32), ("resnet18", 0), ("opt-6.7b", 32)] {
        let graph = registry::build(model, 1, seq).expect("registered model");
        let reference = compiler(DpMode::BoundPruned)
            .compile_graph(&graph)
            .expect("compiles");
        for (label, mode) in [
            ("exhaustive", DpMode::Exhaustive),
            ("bound-pruned", DpMode::BoundPruned),
        ] {
            group.bench_with_input(BenchmarkId::new(label, model), &graph, |b, graph| {
                b.iter(|| {
                    let p = compiler(mode).compile_graph(graph).expect("compiles");
                    // Identical schedules regardless of DP mode.
                    assert_eq!(
                        p.predicted_latency.to_bits(),
                        reference.predicted_latency.to_bits()
                    );
                    assert_eq!(p.segments.len(), reference.segments.len());
                    p.stats.mip_solves + p.stats.fast_solves
                })
            });
        }
    }
    group.finish();
}

/// A cold session at the given allocation-solve worker count. The batch
/// worker pool stays at 1 so the sweep isolates the in-compile fan-out.
fn cold_session(solve_workers: usize) -> Session {
    Session::builder(presets::dynaplasia())
        .options(CompilerOptions::default().with_solve_workers(solve_workers))
        .workers(1)
        .build()
}

/// Cold-compile worker sweep over the full model registry.
///
/// For each `solve_workers` in {1, 2, 4} this compiles every registered
/// model with a fresh session (no cross-compile cache), asserting:
///
/// * plans are bit-identical to the single-worker reference,
/// * the DP pruned candidate windows (`dp_windows_pruned > 0`), and
/// * in parallel mode at least one injected warm start was accepted.
///
/// An instrumented pass collects per-model wall clock and the solver
/// counters into `BENCH_pipeline.json` at the repository root; the
/// criterion samples measure the same sweep.
fn bench_cold_registry(c: &mut Criterion) {
    let models = registry::build_all(1, 32).expect("registry builds");
    // name -> predicted-latency bits at solve_workers = 1.
    let mut reference: Vec<(String, u64)> = Vec::new();
    let mut sweeps = String::new();

    let mut group = c.benchmark_group("cold_registry");
    group.sample_size(3);
    for workers in [1usize, 2, 4] {
        // Instrumented pass: per-model wall clock, counters, invariants.
        let mut total = Duration::ZERO;
        let mut sums = [0u64; 6]; // mip, fast, pruned, warm_acc, warm_rej, batches
        let mut rows = String::new();
        for (name, graph) in &models {
            let t0 = Instant::now();
            let p = cold_session(workers).compile_graph(graph).expect("compiles");
            let wall = t0.elapsed();
            total += wall;
            sums[0] += p.stats.mip_solves;
            sums[1] += p.stats.fast_solves;
            sums[2] += p.stats.dp_windows_pruned;
            sums[3] += p.stats.warm_accepted;
            sums[4] += p.stats.warm_rejected;
            sums[5] += p.stats.solve_batches;
            let bits = p.predicted_latency.to_bits();
            if workers == 1 {
                reference.push((name.clone(), bits));
            } else {
                let (_, want) = reference
                    .iter()
                    .find(|(n, _)| n == name)
                    .expect("single-worker reference");
                assert_eq!(bits, *want, "plan drift for {name} at {workers} workers");
            }
            if !rows.is_empty() {
                rows.push(',');
            }
            write!(
                rows,
                "\n      {{\"name\": \"{name}\", \"ms\": {:.3}, \"segments\": {}}}",
                wall.as_secs_f64() * 1e3,
                p.stats.n_segments,
            )
            .unwrap();
        }
        assert!(sums[2] > 0, "DP pruned no windows at {workers} workers");
        if workers > 1 {
            assert!(sums[3] > 0, "no warm start accepted at {workers} workers");
        }
        if !sweeps.is_empty() {
            sweeps.push(',');
        }
        write!(
            sweeps,
            "\n  {{\"solve_workers\": {workers}, \"total_ms\": {:.3},\n   \
             \"counters\": {{\"mip_solves\": {}, \"fast_solves\": {}, \
             \"dp_windows_pruned\": {}, \"warm_accepted\": {}, \
             \"warm_rejected\": {}, \"solve_batches\": {}}},\n   \
             \"models\": [{rows}\n   ]}}",
            total.as_secs_f64() * 1e3,
            sums[0],
            sums[1],
            sums[2],
            sums[3],
            sums[4],
            sums[5],
        )
        .unwrap();

        group.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for (_, graph) in &models {
                    let p = cold_session(workers).compile_graph(graph).expect("compiles");
                    acc += p.predicted_latency;
                }
                acc
            })
        });
    }
    group.finish();

    let json = format!(
        "{{\"bench\": \"cold_registry\", \"batch\": 1, \"seq_len\": 32, \
         \"models\": {}, \"sweeps\": [{sweeps}\n]}}\n",
        models.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, json).expect("write BENCH_pipeline.json");
}

criterion_group!(benches, bench_pipeline, bench_cold_registry);
criterion_main!(benches);
