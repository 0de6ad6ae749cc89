use std::time::Duration;

use cmswitch_metaop::Flow;

use crate::frontend::SegOp;
use crate::pipeline::StageWall;
use crate::segment::Segment;

/// What one compile did: wall clock, per-stage walls and every solver
/// and DP counter — the one counter record of the compiler. The
/// allocator's atomics add into it ([`crate::allocation::AllocatorStats::add_to`]),
/// [`crate::PipelineCx`] accumulates it and renders the aggregate
/// diagnostic events from it, [`crate::BatchStats::programs`] sums it
/// over a batch ([`CompileStats::absorb`]).
///
/// This is run history, not plan: it is never persisted, so a program
/// served from the store carries one `store` stage, its wall time and
/// zero counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Wall-clock compilation time.
    pub wall: Duration,
    /// Wall-clock time per pipeline stage, in execution order (see
    /// [`crate::pipeline`]).
    pub stage_wall: Vec<StageWall>,
    /// MIP solves performed. Independent of
    /// [`crate::CompilerOptions::solve_workers`] under
    /// [`crate::CompilerOptions::reuse_cache`]; without it, the same on
    /// the registry at 1, 2 and 4 workers but not schedule-free by
    /// construction (see `reuse_cache`), while the plan always is.
    pub mip_solves: u64,
    /// Fast-allocator solves performed (including MIP fallbacks). Every
    /// MIP solve also runs one embedded fast solve as its warm start,
    /// so under [`crate::AllocatorKind::Mip`] one cache miss counts
    /// here and in `mip_solves`. Schedule-dependent exactly when
    /// `mip_solves` is.
    pub fast_solves: u64,
    /// Allocation cache lookups answered without a solve: the DP's
    /// windows and the MIP's neighbour warm-start windows alike. Each
    /// lookup is counted once, by the allocator that made it, so the
    /// count does not depend on
    /// [`crate::CompilerOptions::solve_workers`].
    pub cache_hits: u64,
    /// Allocation cache lookups that missed and went to a solver (zero,
    /// like `cache_hits`, when the allocator runs without
    /// [`crate::CompilerOptions::reuse_cache`]).
    pub cache_misses: u64,
    /// MIP solves that returned an error — infeasible, node budget spent
    /// before any incumbent, or numerical trouble — so the fast
    /// allocator's solution stood. A search that exhausts its budget
    /// *with* an incumbent counts under `budget_exhausted` instead.
    pub mip_fallbacks: u64,
    /// Candidate DP windows skipped without an allocator invocation
    /// (capacity prefilter + analytic bound, [`crate::DpMode`]).
    pub dp_windows_pruned: u64,
    /// MIP solves whose warm start was feasible and seeded the
    /// branch-and-bound incumbent. Every MIP solve is offered the better
    /// of the fast allocator's solution and the neighbor window's
    /// extended by one op, at any worker count.
    pub warm_accepted: u64,
    /// MIP warm-start candidates rejected: infeasible against the
    /// problem, wasted on a solve that then failed and fell back, or
    /// ignored by the solver in favour of a cold search.
    pub warm_rejected: u64,
    /// Branch-and-bound nodes explored by the MIP solves that returned a
    /// solution (as are the four counters below).
    pub bnb_nodes: u64,
    /// LP relaxations those searches solved.
    pub lp_solves: u64,
    /// Simplex pivots inside those LPs.
    pub pivots: u64,
    /// Searches that stopped on the node budget with optimality unproven
    /// and returned their best incumbent.
    pub budget_exhausted: u64,
    /// Searches that returned something other than the warm start they
    /// were seeded with (or were not seeded at all).
    pub improved: u64,
    /// Allocation batches fanned out by the segmentation DP. A pure
    /// function of pruning decisions — identical at every
    /// [`crate::CompilerOptions::solve_workers`] setting.
    pub solve_batches: u64,
}

impl CompileStats {
    /// Solver invocations performed (MIP + fast, counting a MIP solve
    /// and its embedded warm-start fast solve separately).
    pub fn solver_invocations(&self) -> u64 {
        self.mip_solves + self.fast_solves
    }

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

    /// Adds `other` into `self`: every counter and the wall are summed,
    /// and stage walls merge by name in first-seen order (so a sum over
    /// compiles run on several workers is CPU time, not wall clock).
    pub fn absorb(&mut self, other: &CompileStats) {
        let CompileStats {
            wall,
            stage_wall,
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
        } = other;
        self.wall += *wall;
        for t in stage_wall {
            match self.stage_wall.iter_mut().find(|s| s.stage == t.stage) {
                Some(s) => s.wall += t.wall,
                None => self.stage_wall.push(t.clone()),
            }
        }
        self.mip_solves += mip_solves;
        self.fast_solves += fast_solves;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.mip_fallbacks += mip_fallbacks;
        self.dp_windows_pruned += dp_windows_pruned;
        self.warm_accepted += warm_accepted;
        self.warm_rejected += warm_rejected;
        self.bnb_nodes += bnb_nodes;
        self.lp_solves += lp_solves;
        self.pivots += pivots;
        self.budget_exhausted += budget_exhausted;
        self.improved += improved;
        self.solve_batches += solve_batches;
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
        assert!(cached.stats.solver_invocations() < uncached.stats.solver_invocations());
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
        assert!(pruned.stats.solver_invocations() <= exhaustive.stats.solver_invocations());
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
