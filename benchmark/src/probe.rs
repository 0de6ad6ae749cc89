//! Layer measurements taken outside the passes, in a traced run only:
//! calls a pass cannot time from outside (the solver under the DP, the
//! wire codec under the store) replayed directly on the workload's own
//! inputs.

use std::path::Path;
use std::time::Instant;

use cmswitch::arch::DualModeArch;
use cmswitch::compiler::allocation::Allocator;
use cmswitch::compiler::artifact::{decode_program, encode_program};
use cmswitch::compiler::cost::CostModel;
use cmswitch::compiler::frontend::DepIndex;
use cmswitch::compiler::{
    AllocationCache, ArtifactStore, CompilerOptions, LowerStage, PartitionStage, PipelineCx,
};
use cmswitch::graph::Graph;
use cmswitch::sim::SequentialModel;
use cmswitch::solver::{alloc, LinearProgram, MipProblem, Relation};

use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::workload::{timed, Layers, Reference};

/// Windows replayed through the allocator.
const WINDOWS: usize = 200;
/// Repetitions of each fixed solver instance.
const SOLVER_REPS: usize = 15;

/// Replays a seeded sample of candidate windows of the workload's own
/// partitioned operator lists through a cold `Allocator::allocate` (no
/// cache, no neighbouring solve to warm-start from): the unit of work the
/// segmentation DP pays for, timed alone.
pub fn solve_windows(
    arch: &DualModeArch,
    options: &CompilerOptions,
    graphs: &[&Graph],
    rng: &mut Rng,
) -> Layers {
    let lists: Vec<_> = graphs
        .iter()
        .filter_map(|graph| {
            let mut cx = PipelineCx::new(arch, options);
            let lowered = cx.run(&LowerStage, *graph).ok()?;
            Some(cx.run(&PartitionStage, lowered).ok()?.list)
        })
        .collect();
    let mut solve_us = Vec::with_capacity(WINDOWS);
    if !lists.is_empty() {
        let indices: Vec<DepIndex> = lists.iter().map(DepIndex::new).collect();
        for _ in 0..WINDOWS {
            let g = rng.below(lists.len());
            let ops = &lists[g].ops;
            let len = 1 + rng.below(options.max_segment_ops.min(ops.len()));
            let lo = rng.below(ops.len() - len + 1);
            let hi = lo + len - 1;
            let deps = indices[g].window_local(lo, hi);
            let allocator = Allocator::new(CostModel::new(arch), options.allocator, false);
            let (_, s) = timed(|| std::hint::black_box(allocator.allocate(&ops[lo..=hi], &deps)));
            solve_us.push(s * 1e6);
        }
    }
    let mut layers = solver_instances();
    layers.insert("core.allocation.solve_p50_us", median(&solve_us));
    layers.insert(
        "core.allocation.solve_p95_us",
        percentile(&solve_us, 0.95).value,
    );
    layers
}

/// The three fixed instances of the repository's `bench_solver`: a 20x20
/// LP, an 8-integer MIP and a 12-operator allocation search.
fn solver_instances() -> Layers {
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = (0..20)
        .map(|i| lp.add_var(0.0, 10.0, 1.0 + (i % 7) as f64))
        .collect();
    for i in 0..20 {
        let terms = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, 1.0 + ((i + j) % 5) as f64))
            .collect();
        lp.add_constraint(terms, Relation::Le, 50.0 + i as f64)
            .expect("the fixed LP is well formed");
    }
    let mut mip = MipProblem::new();
    let vars: Vec<_> = (0..8)
        .map(|i| mip.add_int_var(0.0, 8.0, 1.0 + (i % 5) as f64))
        .collect();
    for i in 0..8 {
        let terms = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, 1.0 + ((i * j) % 4) as f64))
            .collect();
        mip.add_constraint(terms, Relation::Le, 30.0)
            .expect("the fixed MIP is well formed");
    }
    let ops: Vec<alloc::AllocOp> = (0..12)
        .map(|i| alloc::AllocOp {
            work: 1e6 * (1.0 + i as f64),
            min_compute: 1 + i % 4,
            ai: 10.0 + (i * 37 % 300) as f64,
            d_main: 64.0,
        })
        .collect();
    let chip = alloc::AllocChip {
        op_cim: 1600.0,
        d_cim: 4.0,
        n_arrays: 96,
    };
    let median_us = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..SOLVER_REPS).map(|_| timed(f).1 * 1e6).collect();
        median(&samples)
    };
    let mut layers = Layers::new();
    layers.insert(
        "solver.simplex_us",
        median_us(&|| drop(std::hint::black_box(lp.solve()))),
    );
    layers.insert(
        "solver.mip_us",
        median_us(&|| drop(std::hint::black_box(mip.solve()))),
    );
    layers.insert(
        "solver.alloc_us",
        median_us(&|| drop(std::hint::black_box(alloc::solve(&ops, &chip, 0)))),
    );
    layers
}

/// Decodes and re-encodes every reference program's wire bytes and
/// replays its flow through the sequential timing model; `archs` names
/// the chip each program was compiled for.
pub fn programs(reference: &Reference, archs: &[&DualModeArch]) -> Layers {
    let (mut decode_s, mut encode_s, mut timing_s, mut bytes) = (0.0, 0.0, 0.0, 0);
    for (facts, arch) in reference.facts.iter().zip(archs) {
        let (program, s) = timed(|| decode_program(&facts.plan_bytes));
        let Ok(program) = program else { continue };
        decode_s += s;
        encode_s += timed(|| std::hint::black_box(encode_program(&program))).1;
        timing_s += timed(|| std::hint::black_box(SequentialModel.simulate(&program.flow, arch))).1;
        bytes += facts.plan_bytes.len();
    }
    Layers::from([
        ("core.artifact.decode_s", decode_s),
        ("core.artifact.encode_s", encode_s),
        ("core.artifact.bytes", bytes as f64),
        ("sim.timing.busy_s", timing_s),
    ])
}

/// Loads `store`'s allocation snapshot into a fresh cache and saves it
/// again into a scratch store: the two halves of what a restarted process
/// pays before its first request.
pub fn snapshot(store: &ArtifactStore, scratch: &Path) -> Layers {
    let cache = AllocationCache::new();
    let start = Instant::now();
    store.load_alloc_snapshot(&cache);
    let load_s = start.elapsed().as_secs_f64();
    let save_s = ArtifactStore::open(scratch)
        .and_then(|sink| {
            let start = Instant::now();
            sink.save_alloc_snapshot(&cache)?;
            Ok(start.elapsed().as_secs_f64())
        })
        .unwrap_or(0.0);
    let _ = std::fs::remove_dir_all(scratch);
    Layers::from([
        ("core.store.snapshot_load_s", load_s),
        ("core.store.snapshot_save_s", save_s),
    ])
}
