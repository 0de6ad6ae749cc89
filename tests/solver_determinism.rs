//! Solve-parallelism determinism: plans are bit-identical at every
//! `solve_workers` setting.
//!
//! The segmentation DP fans allocation solves out across a worker pool
//! (the compiler's private `solvepool`), but the set of windows to solve
//! and the recurrence that consumes them stay sequential, and warm
//! starts are a pure function of the window signature — so the compiled
//! plan may not depend on worker count, scheduling, or batch interleave.
//! This suite pins that contract:
//!
//! * the full 9-model registry × all 4 backends, compiled at
//!   `solve_workers` ∈ {1, 2, 4, 8}, must produce bit-identical
//!   [`CompiledProgram`]s (everything except the wall-clock fields of
//!   `stats`) against the sequential baseline;
//! * a property test over random MLP graphs × the 3 arch presets does
//!   the same for shapes the registry does not cover;
//! * with `reuse_cache` off, every counter still repeats at 1, 2 and 4
//!   workers.

use proptest::prelude::*;

use cmswitch::models::registry;
use cmswitch::prelude::*;

/// A fresh cold session: `kind` backend, `workers` solve workers. The
/// CNN models get a narrower DP window (`max_segment_ops`): their large
/// per-op tile counts make debug-build MIP solves expensive, and the
/// bit-identity property under test is independent of the window cap —
/// it only has to be the *same* cap at every worker count.
fn session(kind: BackendKind, workers: usize, model: &str) -> Session {
    session_with(kind, workers, model, true)
}

/// [`session`], with cache reuse on or off.
fn session_with(kind: BackendKind, workers: usize, model: &str, reuse: bool) -> Session {
    let mut options = CompilerOptions::default().with_reuse_cache(reuse);
    if ["mobilenetv2", "resnet18", "resnet50", "vgg16"].contains(&model) {
        options.max_segment_ops = 4;
    }
    options.solve_workers = workers;
    Session::builder(presets::dynaplasia())
        .backend_kind(kind)
        .options(options)
        .build()
}

/// The plan must match bit-for-bit, and so must every `CompileStats`
/// counter: pruning decisions and batch composition are made
/// sequentially, each window's allocation is solved once (the cache's
/// single-flight), and each lookup is counted once, by the allocator.
/// Only the wall-clock fields may differ.
fn assert_same_plan(base: &CompiledProgram, other: &CompiledProgram, what: &str) {
    assert_eq!(base.flow, other.flow, "flow differs: {what}");
    assert_eq!(base.ops, other.ops, "ops differ: {what}");
    assert_eq!(base.op_deps, other.op_deps, "op_deps differ: {what}");
    assert_eq!(base.segments, other.segments, "segments differ: {what}");
    assert_eq!(
        base.predicted_latency.to_bits(),
        other.predicted_latency.to_bits(),
        "predicted_latency differs: {what} ({} vs {})",
        base.predicted_latency,
        other.predicted_latency
    );
    assert_eq!(
        counters(&base.stats),
        counters(&other.stats),
        "counters differ: {what}"
    );
}

/// Every counter of `stats`, by name. The destructure names each field,
/// so a counter added to `CompileStats` cannot be skipped here.
fn counters(stats: &CompileStats) -> Vec<(&'static str, u64)> {
    let CompileStats {
        wall: _,
        stage_wall: _,
        mip_solves,
        fast_solves,
        cache_hits,
        cache_misses,
        mip_fallbacks,
        dp_windows_pruned,
        warm_accepted,
        warm_rejected,
        bnb_nodes,
        lp_solves,
        pivots,
        budget_exhausted,
        improved,
        solve_batches,
    } = *stats;
    vec![
        ("mip_solves", mip_solves),
        ("fast_solves", fast_solves),
        ("cache_hits", cache_hits),
        ("cache_misses", cache_misses),
        ("mip_fallbacks", mip_fallbacks),
        ("dp_windows_pruned", dp_windows_pruned),
        ("warm_accepted", warm_accepted),
        ("warm_rejected", warm_rejected),
        ("bnb_nodes", bnb_nodes),
        ("lp_solves", lp_solves),
        ("pivots", pivots),
        ("budget_exhausted", budget_exhausted),
        ("improved", improved),
        ("solve_batches", solve_batches),
    ]
}

#[test]
fn registry_plans_identical_at_every_worker_count_on_all_backends() {
    // Sequence length 8 keeps the billion-parameter transformers
    // affordable in debug builds; the bit-identity property under test
    // is independent of the op count. The default backend gets the full
    // {2, 4, 8} sweep; the baseline backends share the same DP + solve
    // pool underneath, so one parallel point each suffices.
    for kind in BackendKind::ALL {
        let sweep: &[usize] = if kind == BackendKind::CmSwitch {
            &[2, 4, 8]
        } else {
            &[4]
        };
        // Registry-wide (warm starts accepted, DP windows pruned) per
        // entry of `sweep`.
        let mut counters = vec![(0u64, 0u64); sweep.len()];
        for &model in registry::ALL_MODELS {
            let graph = registry::build(model, 1, 8).expect("registered model");
            let base = session(kind, 1, model)
                .compile_graph(&graph)
                .expect("sequential baseline compiles");
            for (&workers, sums) in sweep.iter().zip(&mut counters) {
                let p = session(kind, workers, model)
                    .compile_graph(&graph)
                    .expect("parallel compile succeeds");
                assert_same_plan(
                    &base,
                    &p,
                    &format!("{model} on {} at {workers} workers", kind.name()),
                );
                sums.0 += p.stats.warm_accepted;
                sums.1 += p.stats.dp_windows_pruned;
            }
        }
        // The parallel path is the real one, not a degenerate pass: the
        // pool's injected warm starts get accepted and the bound still
        // prunes windows.
        if kind == BackendKind::CmSwitch {
            for (&workers, &(warm_accepted, pruned)) in sweep.iter().zip(&counters) {
                assert!(warm_accepted > 0, "no warm start accepted at {workers} workers");
                assert!(pruned > 0, "DP pruned no windows at {workers} workers");
            }
        }
    }
}

/// Without cache reuse every window the DP asks for is solved, and a
/// window solved at top level while a neighbour lookup wants the same
/// signature is still solved once: the top-level solve holds the
/// in-flight mark the lookup waits on, claimed for it before its batch
/// fans out. So every counter repeats at any worker count.
#[test]
fn counters_repeat_at_every_worker_count_without_cache_reuse() {
    for model in ["bert-base", "resnet18", "llama2-7b"] {
        let graph = registry::build(model, 1, 8).expect("registered model");
        let compile = |workers| {
            session_with(BackendKind::CmSwitch, workers, model, false)
                .compile_graph(&graph)
                .expect("compiles")
        };
        let base = compile(1);
        assert_eq!(base.stats.cache_hits + base.stats.cache_misses, 0);
        for workers in [2, 4] {
            let what = format!("{model} without cache reuse at {workers} workers");
            assert_same_plan(&base, &compile(workers), &what);
        }
    }
}

#[test]
fn auto_worker_count_matches_the_sequential_plan() {
    // `solve_workers = 0` resolves to available parallelism — whatever
    // that is on the host, the plan must match workers = 1.
    let graph = registry::build("resnet18", 1, 0).unwrap();
    let base = session(BackendKind::CmSwitch, 1, "resnet18")
        .compile_graph(&graph)
        .unwrap();
    let auto = session(BackendKind::CmSwitch, 0, "resnet18")
        .compile_graph(&graph)
        .unwrap();
    assert_same_plan(&base, &auto, "resnet18 at auto workers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_mlps_identical_across_presets_and_worker_counts(
        preset_idx in 0usize..3,
        widths in proptest::collection::vec(8usize..192, 2..5),
        batch in 1usize..3,
        workers in 2usize..9,
    ) {
        let arch = match preset_idx {
            0 => presets::dynaplasia(),
            1 => presets::prime(),
            _ => presets::tiny(),
        };
        let graph = cmswitch::models::mlp::mlp(batch, &widths).expect("valid mlp");
        let seq = Session::builder(arch.clone())
            .options(CompilerOptions::default().with_solve_workers(1))
            .build()
            .compile_graph(&graph);
        // Oversized layers on the tiny preset fail identically in both
        // modes; the determinism claim is about successful plans.
        prop_assume!(seq.is_ok());
        let base = seq.unwrap();
        let par = Session::builder(arch)
            .options(CompilerOptions::default().with_solve_workers(workers))
            .build()
            .compile_graph(&graph)
            .expect("parallel compile succeeds where sequential did");
        assert_same_plan(&base, &par, &format!("mlp{widths:?} at {workers} workers"));
    }
}
