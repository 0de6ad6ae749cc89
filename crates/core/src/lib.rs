//! CMSwitch — the dual-mode-aware compilation optimization (DACO) of the
//! paper, §4.
//!
//! The compiler takes a DNN graph (`cmswitch-graph`) and a dual-mode CIM
//! architecture description (`cmswitch-arch`, the DEHA of §4.2) and
//! produces a meta-operator flow (`cmswitch-metaop`, §4.4) annotated with
//! `CM.switch` operators. The pipeline is the paper's divide-and-conquer
//! two-step policy:
//!
//! 1. [`frontend`] lowers the graph to the CIM operator list and
//!    [`partition`] greedily splits operators whose weights exceed the
//!    chip into sub-operators (§4.3.1),
//! 2. [`segment`] runs the dynamic program of Eq. 3 over contiguous
//!    operator ranges, scoring each candidate segment with the
//!    mixed-integer allocation of [`allocation`] (constraints Eqs. 5-8,
//!    objective Eq. 9, latency model Eq. 10 in [`cost`]) and charging the
//!    inter-segment mode-switch overheads of Eqs. 1, 2 and 4 — by
//!    default in [`DpMode::BoundPruned`] mode, which skips candidate
//!    windows whose analytic lower bound already loses to a greedy
//!    incumbent (identical schedules, far fewer allocator solves),
//! 3. [`codegen`] assigns physical arrays, inserts `CM.switch(TOM|TOC)`
//!    statements and emits the final [`cmswitch_metaop::Flow`].
//!
//! The steps are materialized as explicit [`pipeline`] stages
//! ([`LowerStage`] → [`PartitionStage`] → [`SegmentStage`] →
//! [`EmitStage`]) driven through a shared [`PipelineCx`], which carries
//! the architecture, options, allocation cache, cancellation token,
//! diagnostics sink and per-stage wall timings. Every [`BackendKind`]
//! composes exactly those stages: CMSwitch with [`SegmentStage`], the
//! PUMA / OCC / CIM-MLC baselines by swapping only the segmentation rule
//! and its window solver ([`backend`]).
//!
//! The public surface is the [`session`] module: a [`Session`] (built
//! via [`Session::builder`]) serves typed [`CompileRequest`]s through
//! any [`Backend`] strategy — any [`BackendKind`], CMSwitch by default,
//! or a custom one — with a shared cross-model
//! [`AllocationCache`], a worker pool for batches
//! ([`Session::compile_batch`]), deadline/token cancellation
//! ([`CancelToken`]) and structured [`Diagnostics`] in every
//! [`CompileOutcome`]; the [`service`] module holds what a batch
//! reports ([`BatchReport`]).
//!
//! # Example
//!
//! ```
//! use cmswitch_arch::presets;
//! use cmswitch_core::{CompileRequest, Session};
//!
//! let graph = cmswitch_models::mlp::mlp(4, &[256, 512, 128]).unwrap();
//! let session = Session::builder(presets::tiny()).build();
//! let outcome = session.compile(CompileRequest::new(graph))?;
//! assert!(!outcome.program.flow.is_empty());
//! assert!(outcome.program.predicted_latency > 0.0);
//! assert!(!outcome.diagnostics.is_empty());
//! # Ok::<(), cmswitch_core::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::needless_pass_by_value, clippy::redundant_clone)]

mod compiler;
mod error;

pub mod allocation;
pub mod artifact;
pub mod backend;
pub mod codegen;
pub mod cost;
pub mod diagnostics;
pub mod frontend;
pub mod partition;
pub mod pipeline;
pub mod segment;
pub mod service;
pub mod session;
mod solvepool;
pub mod store;
pub mod verify;

pub use allocation::AllocationCache;
pub use artifact::ArtifactError;
pub use backend::{Backend, BackendKind, UnknownBackend};
pub use compiler::{CompiledProgram, CompileStats};
pub use diagnostics::{DiagnosticEvent, Diagnostics};
pub use error::CompileError;
pub use pipeline::{
    compile_with_segmenter, EmitStage, Lowered, LowerStage, Partitioned, PartitionStage,
    PipelineCx, Segmented, SegmentStage, Stage, StageWall,
};
pub use service::{BatchOutcome, BatchReport, BatchStats};
pub use session::{CancelToken, CompileOutcome, CompileRequest, Session, SessionBuilder};
pub use store::{ArtifactStore, StoreFetch, StoreKey, StoreStats, StoredReport};
pub use verify::{Severity, Verifier, VerifyFinding, VerifyReport, VerifyStage};

/// Which per-segment allocator the compiler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocatorKind {
    /// The paper's mixed-integer program solved by branch-and-bound,
    /// falling back to the fast allocator if the node budget is hit.
    #[default]
    Mip,
    /// The specialized exact binary-search allocator (compile-time
    /// ablation; same objective, no Eq. 6 reuse coupling in the search).
    Fast,
}

/// How the segmentation DP explores candidate windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DpMode {
    /// Pay a full allocation solve for every feasible candidate window
    /// (the reference implementation of Eq. 3 / Algorithm 1).
    Exhaustive,
    /// Skip windows that a min-tiles capacity check proves infeasible or
    /// whose analytic Eq. 9/10 lower bound already loses to a greedy
    /// incumbent schedule. Provably returns the identical segmentation
    /// with far fewer allocator invocations (see [`segment`]).
    #[default]
    BoundPruned,
}

/// Compiler options.
///
/// `#[non_exhaustive]` with `with_*` setters, so future knobs are
/// non-breaking: start from [`CompilerOptions::default`] and chain
/// setters instead of struct literals.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerOptions {
    /// Maximum operators per segment considered by the DP (bounds the
    /// `O(m·W²)` search; the paper prunes impossible cases similarly).
    /// Every backend reads 0 as 1.
    pub max_segment_ops: usize,
    /// Which allocator scores candidate segments.
    pub allocator: AllocatorKind,
    /// Whether identical segment shapes share one allocation result (the
    /// paper's transformer block-reuse observation, §5.6).
    ///
    /// Plans never depend on it or on `solve_workers`, and with it on
    /// every [`CompileStats`] counter but the walls is the same at any
    /// worker count. With it off, every window the DP asks for is
    /// solved, under the same in-flight mark a MIP warm-start neighbour
    /// lookup takes: a lookup of a signature a top-level solve is
    /// working on waits for it and finds the result, as it would one
    /// worker later (bert-base at seq 32 on DynaPlasia pays 1 252 solver
    /// invocations at one, two and four workers). The DP claims every
    /// mark of a solve batch before fanning it out, shortest window
    /// first, so no lookup can reach a batch window's signature before
    /// its top-level solve owns it: the counters are schedule-free by
    /// construction. `tests/solver_determinism.rs` holds every counter
    /// equal at 1, 2 and 4 workers on the registry.
    pub reuse_cache: bool,
    /// Whether inter-segment switch overheads (Eqs. 1, 2, 4) are charged
    /// in the DP (ablation: overhead-oblivious segmentation).
    pub switch_aware: bool,
    /// Fraction of the chip a single partitioned sub-operator may claim.
    pub partition_budget: f64,
    /// Whether the segmentation DP prunes candidate windows with
    /// analytic bounds before paying an allocation solve.
    pub dp_mode: DpMode,
    /// Whether the static verifier ([`verify`]) runs as a final pipeline
    /// stage, failing the compile on any `Deny` finding.
    pub verify: bool,
    /// Worker threads the segmentation DP fans allocation solves out to
    /// (a scoped solve pool per compile). `1` (the default) solves
    /// inline on the calling thread; `0` means auto (available
    /// parallelism, capped at 8). Plans are bit-identical at every worker count — see
    /// [`segment`].
    pub solve_workers: usize,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            max_segment_ops: 12,
            allocator: AllocatorKind::Mip,
            reuse_cache: true,
            switch_aware: true,
            partition_budget: 1.0,
            dp_mode: DpMode::default(),
            verify: false,
            solve_workers: 1,
        }
    }
}

impl CompilerOptions {
    /// Sets the maximum operators per DP segment window.
    #[must_use]
    pub fn with_max_segment_ops(mut self, max_segment_ops: usize) -> Self {
        self.max_segment_ops = max_segment_ops;
        self
    }

    /// Selects the per-segment allocator.
    #[must_use]
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Enables or disables allocation-result reuse across identical
    /// segment shapes.
    #[must_use]
    pub fn with_reuse_cache(mut self, reuse_cache: bool) -> Self {
        self.reuse_cache = reuse_cache;
        self
    }

    /// Enables or disables charging inter-segment switch overheads in
    /// the DP (the overhead-oblivious ablation sets `false`).
    #[must_use]
    pub fn with_switch_aware(mut self, switch_aware: bool) -> Self {
        self.switch_aware = switch_aware;
        self
    }

    /// Sets the fraction of the chip a partitioned sub-operator may
    /// claim.
    #[must_use]
    pub fn with_partition_budget(mut self, partition_budget: f64) -> Self {
        self.partition_budget = partition_budget;
        self
    }

    /// Selects how the segmentation DP explores candidate windows.
    #[must_use]
    pub fn with_dp_mode(mut self, dp_mode: DpMode) -> Self {
        self.dp_mode = dp_mode;
        self
    }

    /// Enables or disables the static verification stage
    /// ([`VerifyStage`]): when on, any `Deny` finding fails the compile
    /// with [`CompileError::VerifyRejected`].
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the solve-pool worker count for the segmentation DP
    /// (`1` = inline, `0` = auto).
    #[must_use]
    pub fn with_solve_workers(mut self, solve_workers: usize) -> Self {
        self.solve_workers = solve_workers;
        self
    }

    /// The resolved solve-pool thread count: `0` maps to the machine's
    /// available parallelism capped at 8 (mirroring the batch worker
    /// pool of [`Session`]); explicit counts are clamped to the
    /// machine's available parallelism.
    ///
    /// The clamp is deliberate: plans are bit-identical at every worker
    /// count, so extra workers only ever buy wall-clock — and a solve
    /// pool wider than the machine *loses* wall-clock to scheduling
    /// churn (the `cold_par` workload of `BENCHMARK.json` measures the
    /// full-registry cold compile at 2 solve workers). A single
    /// oversubscribed compile wastes milliseconds; a design-space sweep
    /// fanning out hundreds of compiles compounds the waste into
    /// minutes.
    pub fn effective_solve_workers(&self) -> usize {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        if self.solve_workers == 0 {
            available.min(8)
        } else {
            self.solve_workers.min(available)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_workers_clamp_to_available_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Auto mode: available parallelism, capped at 8.
        let auto = CompilerOptions::default().with_solve_workers(0);
        assert_eq!(auto.effective_solve_workers(), available.min(8));
        // Inline mode always passes through.
        let inline = CompilerOptions::default().with_solve_workers(1);
        assert_eq!(inline.effective_solve_workers(), 1);
        // An explicit count wider than the machine is clamped: an
        // oversubscribed solve pool only loses wall-clock, and plans are
        // worker-count-invariant, so the clamp is observationally safe.
        let oversubscribed = CompilerOptions::default().with_solve_workers(available + 7);
        assert_eq!(oversubscribed.effective_solve_workers(), available);
    }
}
