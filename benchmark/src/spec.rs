//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root states the same lists for the driver; a unit test
//! keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the compiler, server or sweeper
/// sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before `--compare` calls it a regression.
    pub bound: f64,
    /// Simulated statistics and shares of checked outputs repeat
    /// exactly; `--compare` reports any difference in their nine
    /// significant digits as a change, whatever the bound.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

/// The driver wants a bound above zero to compare a spread with, so the
/// exact metrics carry the smallest bound that still prints; exactness
/// itself is enforced by `expected/<workload>.txt` and `--compare`.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: 0.001,
        exact: true,
    }
}

/// The bound of everything measured on the host. The issue asked for
/// 10-15%; ten runs of one build on the 2-vCPU sandbox spread (quartile
/// distance over median) 1-4% on these metrics on a quiet host (10% for
/// `dse_cold`) and up to 27% (`cold_par`, `latency_p95_ms`) on a busy one,
/// and the driver refuses a benchmark whose spread exceeds its bound, so
/// they carry the widest bound the driver allows. The README has the
/// measurements.
const MEASURED: f64 = 0.25;

pub const END_TO_END: &[EndToEnd] = &[
    timing("setup_s", "s", Better::Lower, MEASURED),
    timing("wall_s", "s", Better::Lower, MEASURED),
    timing("ops_per_s", "1/s", Better::Higher, MEASURED),
    timing("latency_p50_ms", "ms", Better::Lower, MEASURED),
    timing("latency_p95_ms", "ms", Better::Lower, MEASURED),
    exact("sim_cycles", "cycles", Better::Lower),
    exact("sim_energy_pj", "pJ", Better::Lower),
    exact("speedup_vs_cimmlc", "x", Better::Higher),
    exact("ok_share", "share", Better::Higher),
];

/// One per-layer metric; the layer is the module named by the prefix.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    lower("models.build_s", "s"),
    lower("graph.nodes", "count"),
    lower("core.lower.busy_s", "s"),
    lower("core.lower.ops", "count"),
    lower("core.partition.busy_s", "s"),
    lower("core.partition.ops", "count"),
    lower("core.segment.busy_s", "s"),
    lower("core.segment.segments", "count"),
    higher("core.segment.dp_windows_pruned", "count"),
    lower("core.segment.solve_batches", "count"),
    lower("core.allocation.solves", "count"),
    lower("core.allocation.mip_solves", "count"),
    higher("core.allocation.cache_hits", "count"),
    lower("core.allocation.cache_misses", "count"),
    higher("core.allocation.hit_ratio", "ratio"),
    higher("core.allocation.warm_accepted", "count"),
    lower("core.allocation.warm_rejected", "count"),
    higher("core.allocation.warm_accept_ratio", "ratio"),
    lower("core.allocation.mip_fallbacks", "count"),
    lower("core.allocation.solve_p50_us", "us"),
    lower("core.allocation.solve_p95_us", "us"),
    lower("solver.simplex_us", "us"),
    lower("solver.mip_us", "us"),
    lower("solver.alloc_us", "us"),
    lower("core.emit.busy_s", "s"),
    lower("core.emit.stmts", "count"),
    lower("core.emit.switches", "count"),
    lower("core.verify.busy_s", "s"),
    lower("core.verify.warn", "count"),
    lower("core.verify.deny", "count"),
    lower("core.artifact.encode_s", "s"),
    lower("core.artifact.decode_s", "s"),
    lower("core.artifact.bytes", "bytes"),
    lower("core.store.fetch_s", "s"),
    lower("core.store.put_s", "s"),
    higher("core.store.hits", "count"),
    lower("core.store.misses", "count"),
    lower("core.store.corrupt", "count"),
    lower("core.store.snapshot_save_s", "s"),
    lower("core.store.snapshot_load_s", "s"),
    lower("core.session.compile_s", "s"),
    lower("core.session.overhead_s", "s"),
    lower("sim.engine.busy_s", "s"),
    higher("sim.engine.stmts_per_s", "1/s"),
    higher("sim.engine.overlap_ratio", "ratio"),
    lower("sim.engine.switch_share", "ratio"),
    higher("sim.engine.memory_array_share", "ratio"),
    lower("sim.timing.busy_s", "s"),
    lower("baselines.cimmlc.compile_s", "s"),
    lower("baselines.cimmlc.cycles", "cycles"),
    lower("serve.queue_wait_p50_ms", "ms"),
    lower("serve.queue_wait_p95_ms", "ms"),
    lower("serve.service_p50_ms", "ms"),
    lower("serve.service_p95_ms", "ms"),
    higher("serve.submitted", "count"),
    lower("serve.rejected", "count"),
    higher("serve.served", "count"),
    lower("serve.failed", "count"),
    lower("serve.cancelled", "count"),
    higher("serve.store_served_ratio", "ratio"),
    lower("serve.solves", "count"),
    lower("dse.point_wall_p50_ms", "ms"),
    lower("dse.point_wall_max_ms", "ms"),
    lower("dse.price_s", "s"),
    lower("dse.pareto_s", "s"),
    lower("dse.solves", "count"),
    higher("dse.cache_hits", "count"),
    lower("dse.cache_misses", "count"),
    higher("dse.store_hits", "count"),
    lower("dse.store_misses", "count"),
    higher("dse.frontier_points", "count"),
    lower("dse.failed_points", "count"),
    // The whole process, not a layer. It is listed here, where metrics
    // carry no bound, because the driver refuses an end-to-end metric
    // whose spread over ten runs exceeds 25%, and `VmHWM` of `warm_serve`
    // settles during the first timed pass on one of three levels that
    // neither the seed nor the order of requests decides: ten runs of one
    // build read 54, 55, 56 and seven times 70-72 MiB.
    lower("process.peak_rss_mb", "MiB"),
    higher("trace.attributed_share", "share"),
    lower("trace.overhead_share", "share"),
];

/// The seven workloads and the reason each exists (one line, repeated in
/// `BENCHMARK.json` and explained at length in the README).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_cnn",
        "cold compile + simulate of 4 CNNs: >=95% segmentation DP and MIP solves, so solver work shows here and emit/verify/sim work must not",
    ),
    (
        "cold_llm",
        "cold compile + simulate of 5 transformer prefills and 3 decode steps at 128 tokens: 800-1600 segments and <40 solves, so emit, verify and the event engine dominate",
    ),
    (
        "cold_par",
        "the 9-model registry at seq 32 with 2 solve workers: the same compiler fanned out, where worker anti-scaling must show and nowhere else",
    ),
    (
        "warm_serve",
        "CompileServer with 2 workers and 2 closed-loop clients over a fully primed store: zero solves, so fetch + decode + re-verify + queueing are the whole request",
    ),
    (
        "mixed_serve",
        "same server over a half-primed store of 24 keys: cold compiles and store writes beside store reads, so a warm-path gain paid for by the write path shows",
    ),
    (
        "dse_cold",
        "SweepRunner over a 4-point architecture grid x 4 models with a fresh store: the whole stack with cross-model cache sharing and store write-back",
    ),
    (
        "dse_warm",
        "a fresh SweepRunner over the store a cold sweep left behind: zero solves, isolating decode + re-verify + re-simulate per model-point",
    ),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
