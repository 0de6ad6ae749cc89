//! The staged compilation pipeline: typed artifacts, explicit stages,
//! one shared context.
//!
//! CIM-MLC and PIMCOMP structure their compiler stacks as explicit
//! multi-level pass pipelines; this module does the same for CMSwitch.
//! A compilation is a chain of [`Stage`]s transforming typed artifacts:
//!
//! ```text
//! &Graph ──LowerStage──► Lowered ──PartitionStage──► Partitioned
//!        ──SegmentStage──► Segmented ──EmitStage──► CompiledProgram
//! ```
//!
//! Every stage runs through a [`PipelineCx`], which carries the target
//! architecture, the [`CompilerOptions`], the (optionally shared)
//! [`AllocationCache`], per-stage wall-clock timings and the solver
//! counters. CMSwitch ([`crate::BackendKind::CmSwitch`]) composes
//! exactly these stages; the baseline kinds compose the same lower /
//! partition / emit stages and swap only the segmentation stage, so
//! every backend pays the same physics and reports the same per-stage
//! timing breakdown.
//!
//! Custom composers (e.g. an experiment that produces its own segment
//! chain) can skip [`SegmentStage`] and build a [`Segmented`] artifact
//! directly — [`crate::segment::greedy`] packs and solves one, and
//! [`Segmented::from_chain`] charges the Eq. 4 inter costs for an
//! arbitrary `(range, allocation)` chain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cmswitch_arch::DualModeArch;
use cmswitch_graph::Graph;

use crate::allocation::{AllocationCache, Allocator, AllocatorStats};
use crate::compiler::{CompiledProgram, CompileStats};
use crate::cost::CostModel;
use crate::diagnostics::{DiagnosticEvent, Diagnostics};
use crate::frontend::{lower_graph, DepIndex, OpList};
use crate::partition::{effective_budget, partition};
use crate::segment::{self, chain_segments, DpStats, Segment};
use crate::session::CancelToken;
use crate::{codegen, CompileError, CompilerOptions};

/// One compilation pass: consumes an input artifact, produces the next.
///
/// The trait is generic over its input `I` (rather than using an
/// associated input type) so stages can borrow — [`LowerStage`] takes
/// `&Graph` — while the owned artifacts flow by value.
pub trait Stage<I> {
    /// The artifact this stage produces.
    type Output;

    /// Stable stage name used in timing breakdowns.
    fn name(&self) -> &'static str;

    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// Propagates the stage's [`CompileError`].
    fn run(&self, cx: &mut PipelineCx<'_>, input: I) -> Result<Self::Output, CompileError>;
}

/// Wall-clock time one stage spent, as recorded by [`PipelineCx::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageWall {
    /// The stage's [`Stage::name`].
    pub stage: &'static str,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
}

/// Shared state threaded through every stage of one compilation:
/// architecture, options, allocation cache, diagnostics and the run's
/// [`CompileStats`] (per-stage timings and solver counters).
#[derive(Debug)]
pub struct PipelineCx<'a> {
    arch: &'a DualModeArch,
    options: &'a CompilerOptions,
    shared_cache: Option<Arc<AllocationCache>>,
    cancel: CancelToken,
    diags: Diagnostics,
    stats: CompileStats,
}

impl<'a> PipelineCx<'a> {
    /// Creates a context compiling for `arch` under `options`, with a
    /// private per-compilation allocation cache (when
    /// `options.reuse_cache`).
    pub fn new(arch: &'a DualModeArch, options: &'a CompilerOptions) -> Self {
        PipelineCx {
            arch,
            options,
            shared_cache: None,
            cancel: CancelToken::new(),
            diags: Diagnostics::new(),
            stats: CompileStats::default(),
        }
    }

    /// Attaches a cancellation token: [`PipelineCx::run`] checks it
    /// before every stage, and the segmentation DP polls it inside its
    /// window loop (see [`crate::segment::segment`]).
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The cancellation token in effect (never-cancelled by default).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Records a typed diagnostic event.
    pub fn emit(&mut self, event: DiagnosticEvent) {
        self.diags.push(event);
    }

    /// The diagnostics recorded so far.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diags
    }

    /// Creates a context whose allocations go through `cache`, which
    /// outlives the compilation and may be shared across models and
    /// threads (the [`crate::Session::compile_batch`] path). Ignored when
    /// `options.reuse_cache` is off.
    pub fn with_shared_cache(
        arch: &'a DualModeArch,
        options: &'a CompilerOptions,
        cache: Arc<AllocationCache>,
    ) -> Self {
        PipelineCx {
            shared_cache: Some(cache),
            ..PipelineCx::new(arch, options)
        }
    }

    /// The target architecture.
    pub fn arch(&self) -> &'a DualModeArch {
        self.arch
    }

    /// The compiler options in effect.
    pub fn options(&self) -> &'a CompilerOptions {
        self.options
    }

    /// A cost model for the target architecture.
    pub fn cost_model(&self) -> CostModel<'a> {
        CostModel::new(self.arch)
    }

    /// Builds the dual-mode allocator the options call for: allocator
    /// kind from the options, reading and writing the shared cache when
    /// one was provided and caching is enabled, else a private cache
    /// that only serves its MIP warm starts (or, with caching on and no
    /// shared cache, this compile's repeats).
    pub fn allocator(&self) -> Allocator<'a> {
        match &self.shared_cache {
            Some(cache) if self.options.reuse_cache => Allocator::with_cache(
                self.cost_model(),
                self.options.allocator,
                Arc::clone(cache),
            ),
            _ => Allocator::new(
                self.cost_model(),
                self.options.allocator,
                self.options.reuse_cache,
            ),
        }
    }

    /// Folds an allocator's solve counters into the compilation's
    /// statistics (call once per allocator, after its last use).
    pub fn record_allocator(&mut self, stats: &AllocatorStats) {
        stats.add_to(&mut self.stats);
    }

    /// Folds the segmentation DP's window counters into the
    /// compilation's statistics and emits the matching
    /// [`DiagnosticEvent::DpWindowsPruned`] event.
    pub fn record_dp(&mut self, dp: &DpStats) {
        self.stats.dp_windows_pruned += dp.skipped();
        self.stats.solve_batches += dp.solve_batches;
        self.diags.push(DiagnosticEvent::DpWindowsPruned {
            windows: dp.windows,
            infeasible: dp.infeasible_skipped,
            bound_pruned: dp.bound_pruned,
        });
    }

    /// Runs `stage` on `input`, recording its wall-clock time under
    /// [`Stage::name`]. Checks the cancellation token first, so a fired
    /// deadline aborts at the next stage boundary.
    ///
    /// # Errors
    ///
    /// Propagates the stage's error (the timing entry is still
    /// recorded), or [`CompileError::Cancelled`] when the token fired
    /// (no timing entry: the stage never ran).
    pub fn run<I, S: Stage<I>>(
        &mut self,
        stage: &S,
        input: I,
    ) -> Result<S::Output, CompileError> {
        self.cancel.check()?;
        let start = Instant::now();
        let result = stage.run(self, input);
        self.stats.stage_wall.push(StageWall {
            stage: stage.name(),
            wall: start.elapsed(),
        });
        result
    }

    /// The per-stage timings recorded so far, in execution order.
    pub fn timings(&self) -> &[StageWall] {
        &self.stats.stage_wall
    }

    /// Consumes the context, moving its timings and solver counters into
    /// `stats` (all but `stats.wall`: the caller sets that itself, so
    /// the total covers the caller's own overhead too), and returns the
    /// run's diagnostics.
    pub fn finalize(mut self, stats: &mut CompileStats) -> Diagnostics {
        self.flush_aggregate_events();
        *stats = CompileStats {
            wall: stats.wall,
            ..self.stats
        };
        self.diags
    }

    /// Consumes the context and returns just its diagnostics — the
    /// error path, where there is no [`CompileStats`] to stamp.
    pub fn into_diagnostics(mut self) -> Diagnostics {
        self.flush_aggregate_events();
        self.diags
    }

    /// Emits the events derived from accumulated counters (cache
    /// traffic, MIP fallbacks, warm starts, solver effort) exactly once,
    /// at context teardown.
    fn flush_aggregate_events(&mut self) {
        let s = &self.stats;
        if s.cache_hits + s.cache_misses > 0 {
            self.diags.push(DiagnosticEvent::CacheTraffic {
                hits: s.cache_hits,
                misses: s.cache_misses,
            });
        }
        if s.mip_fallbacks > 0 {
            self.diags.push(DiagnosticEvent::MipFallback {
                count: s.mip_fallbacks,
            });
        }
        if s.warm_accepted + s.warm_rejected > 0 {
            self.diags.push(DiagnosticEvent::WarmStart {
                accepted: s.warm_accepted,
                rejected: s.warm_rejected,
            });
        }
        if s.mip_solves > 0 {
            self.diags.push(DiagnosticEvent::SolverEffort {
                mip_solves: s.mip_solves,
                bnb_nodes: s.bnb_nodes,
                lp_solves: s.lp_solves,
                pivots: s.pivots,
                budget_exhausted: s.budget_exhausted,
                improved: s.improved,
            });
        }
    }
}

/// Artifact of [`LowerStage`]: the CIM-supportable operator list
/// (§4.3.1's `O_1…O_m` with dependency relation `W`).
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// The model name (threaded through to the emitted flow).
    pub name: String,
    /// The lowered operator list.
    pub list: OpList,
}

/// Artifact of [`PartitionStage`]: the operator list with oversized
/// operators split into chip-fitting sub-operators.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioned {
    /// The model name.
    pub name: String,
    /// The partitioned operator list.
    pub list: OpList,
}

/// Artifact of a segmentation stage: the scheduled segment chain plus
/// the DP-objective total latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmented {
    /// The model name.
    pub name: String,
    /// The operator list the segments index into.
    pub list: OpList,
    /// Segments in execution order, inter costs charged.
    pub segments: Vec<Segment>,
    /// Predicted end-to-end latency (cycles), including the final
    /// write-back of network outputs.
    pub total_latency: f64,
}

impl Segmented {
    /// Builds the artifact from an externally produced `(range,
    /// allocation)` chain: charges the Eq. 4 inter costs via
    /// [`chain_segments`] (over `deps`, `list`'s index) and totals
    /// `Σ (inter + intra)` plus the final write-back. Used by the greedy
    /// packer and ad-hoc composers.
    pub fn from_chain(
        name: impl Into<String>,
        list: OpList,
        deps: &DepIndex,
        cm: &CostModel<'_>,
        parts: Vec<((usize, usize), crate::allocation::SegmentAllocation)>,
    ) -> Self {
        let segments = chain_segments(&list, deps, cm, parts);
        let total_latency = segments
            .iter()
            .map(|s| s.inter_before + s.alloc.latency)
            .sum::<f64>()
            + cm.final_writeback_cost(&list);
        Segmented {
            name: name.into(),
            list,
            segments,
            total_latency,
        }
    }
}

/// Lowers a graph into the compiler's operator list (`&Graph →
/// [`Lowered`]`).
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerStage;

impl<'g> Stage<&'g Graph> for LowerStage {
    type Output = Lowered;

    fn name(&self) -> &'static str {
        "lower"
    }

    fn run(&self, cx: &mut PipelineCx<'_>, graph: &'g Graph) -> Result<Lowered, CompileError> {
        Ok(Lowered {
            name: graph.name().to_string(),
            list: lower_graph(graph, cx.arch())?,
        })
    }
}

/// Splits oversized operators into chip-fitting sub-operators
/// (`[`Lowered`] → [`Partitioned`]`, §4.3.1), honoring
/// [`CompilerOptions::partition_budget`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionStage;

impl Stage<Lowered> for PartitionStage {
    type Output = Partitioned;

    fn name(&self) -> &'static str {
        "partition"
    }

    fn run(&self, cx: &mut PipelineCx<'_>, input: Lowered) -> Result<Partitioned, CompileError> {
        let fraction = cx.options().partition_budget;
        let exact = cx.arch().n_arrays() as f64 * fraction;
        let arrays = effective_budget(cx.arch(), fraction);
        if (arrays as f64 - exact).abs() > 1e-12 {
            cx.emit(DiagnosticEvent::PartitionBudgetRounded {
                fraction,
                exact,
                arrays,
            });
        }
        Ok(Partitioned {
            name: input.name,
            list: partition(&input.list, cx.arch(), fraction)?,
        })
    }
}

/// CMSwitch's dual-mode-aware segmentation DP (`[`Partitioned`] →
/// [`Segmented`]`, Eq. 3 with the Eq. 5-9 allocation per candidate
/// window, bound-pruned by default — see [`crate::DpMode`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentStage;

impl Stage<Partitioned> for SegmentStage {
    type Output = Segmented;

    fn name(&self) -> &'static str {
        "segment"
    }

    fn run(&self, cx: &mut PipelineCx<'_>, input: Partitioned) -> Result<Segmented, CompileError> {
        let allocator = cx.allocator();
        let cm = cx.cost_model();
        let cancel = cx.cancel_token().clone();
        let res = segment::segment(input, &allocator, &cm, cx.options(), &cancel);
        // Solver counters are real work even when the DP aborts.
        cx.record_allocator(&allocator.stats);
        let (segmented, dp) = res?;
        cx.record_dp(&dp);
        Ok(segmented)
    }
}

/// Code generation and packaging (`[`Segmented`] →
/// [`CompiledProgram`]`): physical array assignment, `CM.switch`
/// insertion and flow validation. The segments, operators and
/// dependencies move into the program as they are.
///
/// The produced program's `stats` are empty; whoever owns the context
/// stamps wall times and solver counters via [`PipelineCx::finalize`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EmitStage;

impl Stage<Segmented> for EmitStage {
    type Output = CompiledProgram;

    fn name(&self) -> &'static str {
        "emit"
    }

    fn run(&self, cx: &mut PipelineCx<'_>, input: Segmented) -> Result<CompiledProgram, CompileError> {
        let flow = codegen::generate(&input.name, &input.list, &input.segments, cx.arch())?;
        cmswitch_metaop::validate_on(&flow, cx.arch().n_arrays())?;
        Ok(CompiledProgram {
            flow,
            ops: input.list.ops,
            op_deps: input.list.deps,
            segments: input.segments,
            predicted_latency: input.total_latency,
            stats: CompileStats::default(),
        })
    }
}

/// Drives the standard stage chain with a swapped-in segmentation
/// stage: [`LowerStage`] → [`PartitionStage`] → `segmenter` →
/// [`EmitStage`], all through `cx`.
///
/// This is the one compose-point every [`crate::Backend`] shares —
/// CMSwitch passes [`SegmentStage`], each baseline kind its own — so
/// stage timings, cancellation checks and diagnostics are uniform
/// across backends. The caller still owns `cx` afterwards (to
/// [`PipelineCx::finalize`] it into the program's stats).
///
/// # Errors
///
/// Propagates any stage's [`CompileError`], including
/// [`CompileError::Cancelled`] from the context's token.
pub fn compile_with_segmenter<S>(
    cx: &mut PipelineCx<'_>,
    segmenter: &S,
    graph: &Graph,
) -> Result<CompiledProgram, CompileError>
where
    S: Stage<Partitioned, Output = Segmented>,
{
    let lowered = cx.run(&LowerStage, graph)?;
    let partitioned = cx.run(&PartitionStage, lowered)?;
    let segmented = cx.run(segmenter, partitioned)?;
    let program = cx.run(&EmitStage, segmented)?;
    if cx.options().verify {
        cx.run(&crate::verify::VerifyStage, program)
    } else {
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;

    #[test]
    fn stages_compose_into_a_valid_program() {
        let graph = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let arch = presets::tiny();
        let opts = CompilerOptions::default();
        let mut cx = PipelineCx::new(&arch, &opts);
        let lowered = cx.run(&LowerStage, &graph).unwrap();
        let partitioned = cx.run(&PartitionStage, lowered).unwrap();
        let segmented = cx.run(&SegmentStage, partitioned).unwrap();
        assert!(!segmented.segments.is_empty());
        let mut program = cx.run(&EmitStage, segmented).unwrap();
        let names: Vec<_> = cx.timings().iter().map(|t| t.stage).collect();
        assert_eq!(names, ["lower", "partition", "segment", "emit"]);
        cx.finalize(&mut program.stats);
        assert_eq!(program.stats.stage_wall.len(), 4);
        assert!(program.stats.solver_invocations() > 0);
        assert!(program.predicted_latency > 0.0);
        cmswitch_metaop::validate(&program.flow).unwrap();
    }

    #[test]
    fn from_chain_totals_inter_plus_intra_plus_final_writeback() {
        let graph = cmswitch_models::mlp::mlp(1, &[64, 64, 64]).unwrap();
        let arch = presets::tiny();
        let opts = CompilerOptions::default();
        let mut cx = PipelineCx::new(&arch, &opts);
        let lowered = cx.run(&LowerStage, &graph).unwrap();
        let partitioned = cx.run(&PartitionStage, lowered).unwrap();
        let cm = cx.cost_model();
        let allocator = cx.allocator();
        let list = partitioned.list;
        let m = list.ops.len();
        // One segment per op, allocated with the real allocator.
        let parts: Vec<_> = (0..m)
            .map(|i| {
                let a = allocator.allocate(&list.ops[i..=i], &[]).unwrap();
                ((i, i), a)
            })
            .collect();
        let deps = DepIndex::new(&list);
        let segmented = Segmented::from_chain("chain", list, &deps, &cm, parts);
        assert_eq!(segmented.segments.len(), m);
        let expect: f64 = segmented
            .segments
            .iter()
            .map(|s| s.inter_before + s.alloc.latency)
            .sum::<f64>()
            + cm.final_writeback_cost(&segmented.list);
        assert_eq!(segmented.total_latency.to_bits(), expect.to_bits());
        // And the chain emits a valid program.
        let program = cx.run(&EmitStage, segmented).unwrap();
        cmswitch_metaop::validate(&program.flow).unwrap();
    }

    #[test]
    fn stage_error_still_records_timing() {
        let empty = cmswitch_graph::Graph::from_nodes("empty", Vec::new());
        let arch = presets::tiny();
        let opts = CompilerOptions::default();
        let mut cx = PipelineCx::new(&arch, &opts);
        assert!(cx.run(&LowerStage, &empty).is_err());
        assert_eq!(cx.timings().len(), 1);
        assert_eq!(cx.timings()[0].stage, "lower");
    }

    #[test]
    fn cancelled_context_refuses_to_run_stages() {
        let graph = cmswitch_models::mlp::mlp(1, &[64, 64]).unwrap();
        let arch = presets::tiny();
        let opts = CompilerOptions::default();
        let token = CancelToken::new();
        token.cancel();
        let mut cx = PipelineCx::new(&arch, &opts).with_cancel(token);
        match cx.run(&LowerStage, &graph) {
            Err(CompileError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The stage never ran: no timing entry.
        assert!(cx.timings().is_empty());
    }

    #[test]
    fn compile_with_segmenter_emits_typed_diagnostics() {
        let graph = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let arch = presets::tiny();
        // A fractional budget that rounds (8 arrays · 0.9 = 7.2 -> 7).
        let opts = CompilerOptions::default().with_partition_budget(0.9);
        let mut cx = PipelineCx::new(&arch, &opts);
        let mut program = compile_with_segmenter(&mut cx, &SegmentStage, &graph).unwrap();
        let diags = cx.finalize(&mut program.stats);
        assert!(diags.partition_budget_rounded(), "{diags}");
        // The DP ran: exactly one windows event, counts matching stats.
        assert_eq!(diags.windows_pruned(), program.stats.dp_windows_pruned);
        let (hits, misses) = diags.cache_traffic();
        assert_eq!(hits, program.stats.cache_hits);
        assert!(misses > 0, "cold compile must miss its private cache");
    }
}
