use std::time::Duration;

use cmswitch_metaop::Flow;

use crate::frontend::SegOp;
use crate::pipeline::StageWall;
use crate::segment::Segment;

/// What one compile did: wall clock, per-stage walls and solver
/// counters. This is run history, not plan: it is never persisted, so a
/// program served from the store carries one `store` stage, its wall
/// time and zero counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Wall-clock compilation time.
    pub wall: Duration,
    /// Wall-clock time per pipeline stage, in execution order (see
    /// [`crate::pipeline`]).
    pub stage_wall: Vec<StageWall>,
    /// MIP solves performed.
    pub mip_solves: u64,
    /// Fast-allocator solves performed.
    pub fast_solves: u64,
    /// Allocation cache hits.
    pub cache_hits: u64,
    /// Candidate DP windows skipped without an allocator invocation
    /// (capacity prefilter + analytic bound, [`crate::DpMode`]).
    pub dp_windows_pruned: u64,
    /// MIP solves whose warm start was feasible and seeded the
    /// branch-and-bound incumbent. Every MIP solve is offered the better
    /// of the fast allocator's solution and the neighbor window's
    /// extended by one op, at any worker count
    /// ([`crate::allocation::AllocatorStats::warm_accepted`]).
    pub warm_accepted: u64,
    /// MIP warm-start candidates rejected: infeasible against the
    /// problem, or ignored by the solver in favour of a cold search.
    pub warm_rejected: u64,
    /// Allocation batches fanned out by the segmentation DP. A pure
    /// function of pruning decisions — identical at every
    /// [`crate::CompilerOptions::solve_workers`] setting.
    pub solve_batches: u64,
}

impl CompileStats {
    /// The wall-clock time recorded for stage `name`, if it ran
    /// (summed, should a pipeline run a stage more than once).
    pub fn stage_wall(&self, name: &str) -> Option<Duration> {
        let mut total = Duration::ZERO;
        let mut seen = false;
        for t in &self.stage_wall {
            if t.stage == name {
                total += t.wall;
                seen = true;
            }
        }
        seen.then_some(total)
    }
}

/// The compiler's output: meta-operator flow plus the plan behind it.
///
/// Everything but [`CompiledProgram::stats`] is the plan, and exactly
/// the plan is what [`crate::artifact`] persists. Operator and segment
/// counts are `ops.len()` and `segments.len()`; a segment's operators
/// are `ops[range.0..=range.1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The meta-operator flow (validated).
    pub flow: Flow,
    /// The scheduled operators (after partitioning), in order.
    pub ops: Vec<SegOp>,
    /// `(producer, consumer)` dependencies as [`SegOp::source`] indices
    /// (every op of the producer feeds every op of the consumer).
    /// Downstream consumers — the event-driven simulator in
    /// `cmswitch-sim` — use these to tell truly dependent segments apart
    /// from segments that merely sit next to each other in the flow and
    /// may therefore overlap.
    pub op_deps: Vec<(usize, usize)>,
    /// The segments in execution order, as the segmentation stage chose
    /// them.
    pub segments: Vec<Segment>,
    /// The DP's predicted end-to-end latency (cycles).
    pub predicted_latency: f64,
    /// What this compile did (not part of the plan).
    pub stats: CompileStats,
}

impl CompiledProgram {
    /// Average fraction of used arrays in memory mode across segments.
    pub fn average_memory_ratio(&self) -> f64 {
        crate::allocation::mean_memory_ratio(self.segments.iter().map(|s| &s.alloc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocatorKind, CompileError, CompilerOptions, DpMode, Session};
    use cmswitch_arch::presets;
    use cmswitch_graph::Graph;

    /// One compile on the tiny chip through a session of its own (fresh
    /// allocation cache).
    fn compile(options: CompilerOptions, graph: &Graph) -> Result<CompiledProgram, CompileError> {
        Session::builder(presets::tiny())
            .options(options)
            .build()
            .compile_graph(graph)
    }

    #[test]
    fn compiles_mlp_end_to_end() {
        let g = cmswitch_models::mlp::mlp(4, &[256, 512, 128]).unwrap();
        let p = compile(CompilerOptions::default(), &g).unwrap();
        assert!(p.predicted_latency > 0.0);
        assert!(!p.segments.is_empty());
        assert!(p.ops.len() >= 2);
        assert!(!p.flow.is_empty());
        cmswitch_metaop::validate(&p.flow).unwrap();
    }

    #[test]
    fn fast_allocator_compiles_too() {
        let g = cmswitch_models::mlp::mlp(4, &[256, 512, 128]).unwrap();
        let fast = CompilerOptions::default().with_allocator(AllocatorKind::Fast);
        let p = compile(fast, &g).unwrap();
        assert!(p.predicted_latency.is_finite());
        assert!(p.stats.fast_solves > 0);
        assert_eq!(p.stats.mip_solves, 0);
    }

    #[test]
    fn cache_reduces_solves_on_repeated_blocks() {
        // Two identical layers -> identical segment signatures. Run the
        // exhaustive DP: it enumerates every repeated window, which is
        // exactly what the signature cache deduplicates (the pruned DP
        // skips most repeats before the cache is even consulted).
        let g = cmswitch_models::mlp::mlp(1, &[64, 64, 64, 64, 64]).unwrap();
        let exhaustive = CompilerOptions::default().with_dp_mode(DpMode::Exhaustive);
        let cached = compile(exhaustive.clone(), &g).unwrap();
        let uncached = compile(exhaustive.with_reuse_cache(false), &g).unwrap();
        assert!(cached.stats.cache_hits > 0);
        assert!(
            cached.stats.mip_solves + cached.stats.fast_solves
                < uncached.stats.mip_solves + uncached.stats.fast_solves
        );
        // Same schedule quality.
        assert!(
            (cached.predicted_latency - uncached.predicted_latency).abs()
                / uncached.predicted_latency
                < 1e-9
        );
    }

    #[test]
    fn stage_timings_reported() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128]).unwrap();
        let p = compile(CompilerOptions::default(), &g).unwrap();
        let names: Vec<_> = p.stats.stage_wall.iter().map(|t| t.stage).collect();
        assert_eq!(names, ["lower", "partition", "segment", "emit"]);
        assert!(p.stats.stage_wall("segment").is_some());
        assert!(p.stats.stage_wall("warp").is_none());
        // The stage sum cannot exceed the total compile wall.
        let sum: Duration = p.stats.stage_wall.iter().map(|t| t.wall).sum();
        assert!(sum <= p.stats.wall);
    }

    #[test]
    fn dp_modes_produce_identical_programs() {
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 256, 128, 64]).unwrap();
        let pruned = compile(CompilerOptions::default(), &g).unwrap();
        let exhaustive =
            compile(CompilerOptions::default().with_dp_mode(DpMode::Exhaustive), &g).unwrap();
        assert_eq!(pruned.segments, exhaustive.segments);
        assert_eq!(
            pruned.predicted_latency.to_bits(),
            exhaustive.predicted_latency.to_bits()
        );
        assert_eq!(pruned.flow, exhaustive.flow);
        assert_eq!(exhaustive.stats.dp_windows_pruned, 0);
        assert!(
            pruned.stats.mip_solves + pruned.stats.fast_solves
                <= exhaustive.stats.mip_solves + exhaustive.stats.fast_solves
        );
    }

    #[test]
    fn rejects_cyclic_graph_via_error_type() {
        // Graph validation failure propagates as CompileError::Graph.
        use cmswitch_graph::GraphError;
        let empty = Graph::from_nodes("empty", Vec::new());
        match compile(CompilerOptions::default(), &empty) {
            Err(CompileError::Graph(GraphError::Empty)) => {}
            other => panic!("expected empty-graph error, got {other:?}"),
        }
    }
}
