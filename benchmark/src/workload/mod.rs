//! The seven workloads: three families (cold compiles, serving, sweeps)
//! behind one trait, plus what they share — the per-target reference, the
//! CIM-MLC baseline and the stage-by-stage traced compile.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cmswitch::arch::DualModeArch;
use cmswitch::baselines::SessionBackendExt;
use cmswitch::compiler::{
    AllocationCache, ArtifactStore, BackendKind, CompiledProgram, CompilerOptions, Diagnostics,
    EmitStage, LowerStage, PartitionStage, PipelineCx, SegmentStage, Session, VerifyStage,
};
use cmswitch::graph::Graph;
use cmswitch::sim::{EngineReport, EventEngine};

use crate::check::{count_stmts, Exact, Facts};
use crate::rng::Rng;
use crate::trace::Recorder;

mod cold;
mod dse;
mod serve;

/// Per-layer metric values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// How a pass is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untimed first pass: fills caches and applies the full output
    /// checks (wire-byte equality) to every operation.
    Warmup,
    /// Timed, tracing off, cheap output checks.
    Timed,
    /// Spans and counters recorded around every call into a layer.
    Traced,
}

/// What one pass over the workload's operation list produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the pass in seconds.
    pub wall_s: f64,
    /// One latency per completed operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// One message per operation that failed, was refused or cancelled,
    /// or failed an output check.
    pub failures: Vec<String>,
    /// Counts and layer times only this pass can see.
    pub layers: Layers,
    /// The spans of a traced pass.
    pub recorder: Option<Recorder>,
}

impl Pass {
    /// A pass that could not be prepared: each of its `ops` operations
    /// fails for the same reason.
    fn unprepared(error: String, ops: usize) -> Pass {
        Pass {
            wall_s: 0.0,
            latencies_ms: Vec::new(),
            failures: vec![error; ops],
            layers: Layers::new(),
            recorder: None,
        }
    }
}

pub trait Workload {
    /// Operations one pass attempts.
    fn ops_per_pass(&self) -> usize;
    /// Hash of the operation list; equal seeds give equal hashes.
    fn ops_hash(&self) -> u64;
    fn pass(&mut self, mode: Mode) -> Pass;
    /// The per-target reference; complete once the warm-up pass has run.
    fn reference(&self) -> &Reference;
    /// Per-layer metrics measured during set-up.
    fn setup_layers(&self) -> &Layers;
    /// Layer measurements that are not part of a pass (replayed solver
    /// windows, wire encode and decode, snapshot save and load).
    fn probes(&mut self, rng: &mut Rng) -> Layers;
}

/// Builds the named workload. Everything here is set-up time.
///
/// # Errors
///
/// A set-up step that failed or produced a program failing its checks.
pub fn setup(name: &str, seed: u64, scratch: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cold_cnn" => Box::new(cold::Cold::setup(cold::Set::Cnn, seed)?),
        "cold_llm" => Box::new(cold::Cold::setup(cold::Set::Llm, seed)?),
        "cold_par" => Box::new(cold::Cold::setup(cold::Set::Registry, seed)?),
        "warm_serve" => Box::new(serve::Serve::setup(false, seed, scratch)?),
        "mixed_serve" => Box::new(serve::Serve::setup(true, seed, scratch)?),
        "dse_cold" => Box::new(dse::Dse::setup(false, seed, scratch)?),
        "dse_warm" => Box::new(dse::Dse::setup(true, seed, scratch)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The reference of a workload: for each distinct program it produces or
/// serves, in a fixed order that no seed changes, the facts of its cold
/// compile and the cycles of CIM-MLC's plan for the same target.
#[derive(Debug, Default)]
pub struct Reference {
    pub facts: Vec<Facts>,
    pub cimmlc_cycles: Vec<f64>,
}

impl Reference {
    /// The metrics that must repeat exactly. Sums run in target order, so
    /// their bits do not depend on the order a pass visits targets in.
    pub fn exact(&self) -> Exact {
        let log_ratio: f64 = self
            .facts
            .iter()
            .zip(&self.cimmlc_cycles)
            .map(|(f, mlc)| (mlc / f.cycles).ln())
            .sum();
        Exact {
            sim_cycles: self.facts.iter().map(|f| f.cycles).sum(),
            sim_energy_pj: self.facts.iter().map(|f| f.energy_pj).sum(),
            speedup_vs_cimmlc: (log_ratio / self.facts.len().max(1) as f64).exp(),
            segments: self.facts.iter().map(|f| f.segments).sum(),
            stmts: self.facts.iter().map(|f| f.stmts).sum(),
        }
    }

    /// Per-layer metrics that describe the reference plans themselves —
    /// their size after each stage and their simulated statistics — and
    /// so repeat exactly; a host-time optimisation must leave them alone.
    pub fn plan_layers(&self, layers: &mut Layers) {
        let sum = |f: fn(&Facts) -> f64| self.facts.iter().map(f).sum::<f64>();
        layers.insert("core.segment.segments", sum(|f| f.segments as f64));
        layers.insert("core.emit.stmts", sum(|f| f.stmts as f64));
        layers.insert("core.emit.switches", sum(|f| f.switches as f64));
        layers.insert("core.verify.warn", sum(|f| f.warn as f64));
        // A `Deny` finding fails the program's checks before it gets here.
        layers.insert("core.verify.deny", 0.0);
        let (cycles, serialized) = (sum(|f| f.cycles), sum(|f| f.serialized_cycles));
        layers.insert(
            "sim.engine.overlap_ratio",
            ratio(serialized - cycles, serialized),
        );
        layers.insert(
            "sim.engine.switch_share",
            ratio(sum(|f| f.switch_cycles), cycles),
        );
        layers.insert(
            "sim.engine.memory_array_share",
            ratio(sum(|f| f.memory_array_cycles), sum(|f| f.array_cycles)),
        );
        layers.insert("baselines.cimmlc.cycles", self.cimmlc_cycles.iter().sum());
    }
}

/// What every set-up measures of itself: graph building, the graphs'
/// size, and CIM-MLC's compiles of them.
fn setup_layers<'a>(
    build_s: f64,
    graphs: impl Iterator<Item = &'a Graph>,
    cimmlc_s: f64,
) -> Layers {
    Layers::from([
        ("models.build_s", build_s),
        ("graph.nodes", graphs.map(|g| g.len() as f64).sum()),
        ("baselines.cimmlc.compile_s", cimmlc_s),
    ])
}

fn open_store(dir: &Path) -> Result<Arc<ArtifactStore>, String> {
    ArtifactStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// `part / whole`, zero when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Compiles `graph` with the CIM-MLC backend and simulates its plan on
/// the same event engine CMSwitch's plans run on.
pub fn cimmlc_cycles(arch: &DualModeArch, graph: &Graph) -> Result<f64, String> {
    let session = Session::builder(arch.clone())
        .backend_kind(BackendKind::CimMlc)
        .workers(1)
        .build();
    let program = session
        .compile_graph(graph)
        .map_err(|e| format!("cim-mlc compile of {}: {e}", graph.name()))?;
    simulate(&program, arch).map(|sim| sim.total_cycles)
}

pub fn simulate(program: &CompiledProgram, arch: &DualModeArch) -> Result<EngineReport, String> {
    EventEngine::new()
        .simulate_program(program, arch)
        .map_err(|e| format!("simulation failed: {e}"))
}

/// One cold compile driven stage by stage through the public pipeline,
/// exactly as `Session::compile` composes it, with a span around each
/// stage and the layer's counts taken where the work happens.
pub fn staged_compile(
    rec: &mut Recorder,
    op: u32,
    arch: &DualModeArch,
    options: &CompilerOptions,
    cache: &Arc<AllocationCache>,
    graph: &Graph,
) -> Result<(CompiledProgram, Diagnostics), String> {
    let mut cx = PipelineCx::with_shared_cache(arch, options, Arc::clone(cache));
    let fail = |e: cmswitch::compiler::CompileError| format!("compile of {}: {e}", graph.name());
    let lowered = rec
        .span("core.lower", op, |_| cx.run(&LowerStage, graph))
        .map_err(fail)?;
    rec.count("core.lower.ops", lowered.list.ops.len() as f64);
    let partitioned = rec
        .span("core.partition", op, |_| cx.run(&PartitionStage, lowered))
        .map_err(fail)?;
    rec.count("core.partition.ops", partitioned.list.ops.len() as f64);
    let segmented = rec
        .span("core.segment", op, |_| cx.run(&SegmentStage, partitioned))
        .map_err(fail)?;
    let program = rec
        .span("core.emit", op, |_| cx.run(&EmitStage, segmented))
        .map_err(fail)?;
    let mut program = rec
        .span("core.verify", op, |_| cx.run(&VerifyStage, program))
        .map_err(fail)?;
    let diagnostics = cx.finalize(&mut program.stats);
    count_compile(rec, &program, &diagnostics);
    Ok((program, diagnostics))
}

/// Folds one compile's own counters (its statistics and diagnostics)
/// into the pass's per-layer counts.
pub fn count_compile(rec: &mut Recorder, program: &CompiledProgram, diagnostics: &Diagnostics) {
    let stats = &program.stats;
    let (hits, misses) = diagnostics.cache_traffic();
    for (name, value) in [
        ("core.segment.dp_windows_pruned", stats.dp_windows_pruned),
        ("core.segment.solve_batches", stats.solve_batches),
        (
            "core.allocation.solves",
            stats.mip_solves + stats.fast_solves,
        ),
        ("core.allocation.mip_solves", stats.mip_solves),
        ("core.allocation.cache_hits", hits),
        ("core.allocation.cache_misses", misses),
        ("core.allocation.warm_accepted", stats.warm_accepted),
        ("core.allocation.warm_rejected", stats.warm_rejected),
        ("core.allocation.mip_fallbacks", diagnostics.mip_fallbacks()),
    ] {
        rec.count(name, value as f64);
    }
}

/// Simulates under a `sim.engine` span, counting the statements the
/// engine walked.
pub fn traced_simulate(
    rec: &mut Recorder,
    op: u32,
    program: &CompiledProgram,
    arch: &DualModeArch,
) -> Result<EngineReport, String> {
    let sim = rec.span("sim.engine", op, |_| simulate(program, arch))?;
    rec.count("sim.engine.stmts", count_stmts(program.flow.stmts()) as f64);
    Ok(sim)
}

/// Span names whose summed self time is a per-layer metric of its own.
const BUSY: &[(&str, &str)] = &[
    ("core.lower", "core.lower.busy_s"),
    ("core.partition", "core.partition.busy_s"),
    ("core.segment", "core.segment.busy_s"),
    ("core.emit", "core.emit.busy_s"),
    ("core.verify", "core.verify.busy_s"),
    ("core.store.fetch", "core.store.fetch_s"),
    ("core.store.put", "core.store.put_s"),
    ("sim.engine", "sim.engine.busy_s"),
    ("dse.price", "dse.price_s"),
    ("dse.pareto", "dse.pareto_s"),
];

/// The per-layer metrics a traced pass's recorder holds: counters under
/// their own names, layer self times, and the ratios of the two.
pub fn layers_of(rec: &Recorder) -> Layers {
    let mut layers: Layers = rec.counters().clone();
    let self_s = rec.self_seconds();
    for &(span, metric) in BUSY {
        layers.insert(metric, self_s.get(span).copied().unwrap_or(0.0));
    }
    let (hits, misses) = (
        rec.counter("core.allocation.cache_hits"),
        rec.counter("core.allocation.cache_misses"),
    );
    layers.insert("core.allocation.hit_ratio", ratio(hits, hits + misses));
    let (accepted, rejected) = (
        rec.counter("core.allocation.warm_accepted"),
        rec.counter("core.allocation.warm_rejected"),
    );
    layers.insert(
        "core.allocation.warm_accept_ratio",
        ratio(accepted, accepted + rejected),
    );
    layers.insert(
        "sim.engine.stmts_per_s",
        ratio(rec.counter("sim.engine.stmts"), layers["sim.engine.busy_s"]),
    );
    layers.insert("trace.attributed_share", rec.attributed_share());
    layers
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
