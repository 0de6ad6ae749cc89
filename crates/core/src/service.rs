//! What a batch compile reports: [`crate::Session::compile_batch`]
//! returns a [`BatchReport`] — one [`BatchOutcome`] per request, in
//! submission order, plus aggregate [`BatchStats`].
//!
//! Compiling a fleet of models one-by-one wastes the structure the paper
//! itself points out (§5.6): DNNs — transformers especially — repeat
//! identical blocks, and identical blocks across *different* models
//! (BERT-base and BERT-large share layer shapes, LLaMA and OPT share
//! projection shapes at equal hidden sizes) produce identical per-segment
//! allocation problems. The batch engine exploits both axes:
//!
//! * **Concurrency** — requests are compiled by a pool of `workers` OS
//!   threads ([`std::thread::scope`]) pulling from a shared atomic
//!   counter, so long models do not convoy short ones. A pool of one is
//!   the calling thread itself.
//! * **Cross-model allocation caching** — every compilation reads and
//!   writes the session's one [`crate::AllocationCache`], keyed by a
//!   stable hash of `(architecture fingerprint, allocator kind, segment
//!   signature)`. A segment seen in any earlier model — or earlier
//!   batch — skips the MIP solve entirely and reuses the identical
//!   allocation.
//!
//! Cached hits return exactly what a fresh solve would have produced, so
//! results are deterministic: the same batch compiled with 1 or 8
//! workers, cold or warm, yields bit-identical schedules.
//!
//! # Example
//!
//! ```
//! use cmswitch_arch::presets;
//! use cmswitch_core::{CompileRequest, Session};
//!
//! let session = Session::builder(presets::tiny()).build();
//! let requests = vec![
//!     CompileRequest::new(cmswitch_models::mlp::mlp(1, &[64, 64, 64]).unwrap()).with_label("a"),
//!     CompileRequest::new(cmswitch_models::mlp::mlp(1, &[64, 64, 64]).unwrap()).with_label("b"),
//! ];
//! let report = session.compile_batch(&requests);
//! assert_eq!(report.stats.compiled, 2);
//! // Model "b" is shape-identical to "a": its segments all hit the cache.
//! assert!(report.stats.cache_hits > 0);
//! ```

use std::time::Duration;

use crate::diagnostics::Diagnostics;
use crate::{CompileError, CompileStats, CompiledProgram};

/// Result of one request in a batch.
#[non_exhaustive]
#[derive(Debug)]
pub struct BatchOutcome {
    /// The job's name (the request's label, or the graph's name).
    pub name: String,
    /// Wall-clock time this model spent compiling (on its worker).
    pub wall: Duration,
    /// Typed diagnostics of this job's compilation (present even when
    /// the compilation failed).
    pub diagnostics: Diagnostics,
    /// The compiled program, or the per-model failure. One model failing
    /// never sinks the rest of the batch.
    pub result: Result<CompiledProgram, CompileError>,
}

/// Aggregate statistics of one [`crate::Session::compile_batch`] call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Wall-clock time of the whole batch (all workers).
    pub wall: Duration,
    /// Worker threads actually used.
    pub workers: usize,
    /// Models compiled successfully.
    pub compiled: usize,
    /// Models that failed to compile.
    pub failed: usize,
    /// Allocation-cache hits of the batch's requests — each one an
    /// allocation solve the cache saved. Like every traffic field
    /// below, this is the sum of the outcomes' own diagnostics
    /// ([`Diagnostics::cache_traffic`], [`Diagnostics::store_traffic`]):
    /// each lookup is counted once, by the allocator that made it, so
    /// the count does not depend on the worker count, failed requests'
    /// lookups are in it, and another batch sharing the cache adds
    /// nothing. A request whose backend panicked reports no counters,
    /// so its lookups are not in it.
    pub cache_hits: u64,
    /// Allocation-cache lookups of the batch's requests that went to a
    /// solver.
    pub cache_misses: u64,
    /// Persistent-store probes answered from disk (zero without an
    /// attached [`crate::ArtifactStore`]).
    pub store_hits: u64,
    /// Persistent-store probes that found no artifact.
    pub store_misses: u64,
    /// The [`CompileStats`] of the batch's *successfully compiled*
    /// programs, summed ([`CompileStats::absorb`]): walls and stage
    /// walls are CPU time across workers, so they can exceed the batch
    /// wall. A model that errors mid-compilation is left out; its
    /// lookups still appear in the traffic fields above, and its
    /// counters in its outcome's diagnostics.
    pub programs: CompileStats,
}

impl BatchStats {
    /// Allocation solves the cache saved (one per hit; under the MIP
    /// allocator each would have cost a MIP *and* its warm-start fast
    /// solve).
    pub fn solves_saved(&self) -> u64 {
        self.cache_hits
    }

    /// Cache hit rate over the batch's allocation lookups
    /// (`hits / (hits + misses)`), in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// One-line per-stage timing breakdown (empty string when no model
    /// compiled), e.g. `lower 1.2ms · partition 0.3ms · segment 840ms ·
    /// emit 12ms`.
    pub fn stage_breakdown(&self) -> String {
        self.programs
            .stage_wall
            .iter()
            .map(|t| format!("{} {:.1?}", t.stage, t.wall))
            .collect::<Vec<_>>()
            .join(" · ")
    }
}

/// Everything a batch produced: per-model outcomes in job order, plus
/// aggregate statistics.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job outcomes, in the order the jobs were submitted.
    pub outcomes: Vec<BatchOutcome>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

impl BatchReport {
    /// The outcome for the job named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&BatchOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// A human-readable per-model summary table (used by the
    /// `batch_compile` example and handy in logs).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for o in &self.outcomes {
            match &o.result {
                Ok(p) => {
                    let _ = writeln!(
                        out,
                        "{:>14}  {:>9.1?}  {:>4} segments  {:>5} solves  {:>5} hits",
                        o.name,
                        o.wall,
                        p.segments.len(),
                        p.stats.solver_invocations(),
                        p.stats.cache_hits,
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:>14}  {:>9.1?}  FAILED: {e}", o.name, o.wall);
                }
            }
        }
        let s = &self.stats;
        let _ = writeln!(
            out,
            "batch: {}/{} ok in {:.1?} on {} workers — {} solver invocations, {} saved by cache ({:.0}% hit rate), {} DP windows pruned",
            s.compiled,
            s.compiled + s.failed,
            s.wall,
            s.workers,
            s.programs.solver_invocations(),
            s.solves_saved(),
            s.hit_rate() * 100.0,
            s.programs.dp_windows_pruned,
        );
        if s.store_hits + s.store_misses > 0 {
            let _ = writeln!(
                out,
                "store: {} served from disk, {} misses",
                s.store_hits, s.store_misses,
            );
        }
        if s.programs.warm_accepted + s.programs.warm_rejected > 0 {
            let _ = writeln!(
                out,
                "warm starts: {} accepted, {} rejected",
                s.programs.warm_accepted, s.programs.warm_rejected,
            );
        }
        if !s.programs.stage_wall.is_empty() {
            let _ = writeln!(out, "stages (CPU time across workers): {}", s.stage_breakdown());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{ArtifactStore, BackendKind, CompileRequest, Session};
    use cmswitch_arch::presets;
    use cmswitch_models::mlp::mlp;
    use std::sync::Arc;

    fn session(workers: usize) -> Session {
        Session::builder(presets::tiny()).workers(workers).build()
    }

    fn fleet() -> Vec<CompileRequest> {
        vec![
            CompileRequest::new(mlp(1, &[64, 64, 64, 64]).unwrap()).with_label("mlp-a"),
            CompileRequest::new(mlp(1, &[64, 64, 64, 64]).unwrap()).with_label("mlp-b"),
            CompileRequest::new(mlp(2, &[128, 256, 128]).unwrap()).with_label("mlp-c"),
        ]
    }

    #[test]
    fn batch_preserves_job_order_and_compiles_all() {
        let report = session(2).compile_batch(&fleet());
        assert_eq!(
            report.outcomes.iter().map(|o| o.name.as_str()).collect::<Vec<_>>(),
            vec!["mlp-a", "mlp-b", "mlp-c"]
        );
        assert_eq!(report.stats.compiled, 3);
        assert_eq!(report.stats.failed, 0);
        assert!(report.get("mlp-b").unwrap().result.is_ok());
        assert!(report.get("nope").is_none());
    }

    #[test]
    fn identical_models_share_allocations() {
        // mlp-b is shape-identical to mlp-a: every one of its segment
        // lookups must hit the cache entry mlp-a populated.
        let report = session(1).compile_batch(&fleet());
        let a = report.get("mlp-a").unwrap().result.as_ref().unwrap();
        let b = report.get("mlp-b").unwrap().result.as_ref().unwrap();
        assert!(b.stats.solver_invocations() < a.stats.solver_invocations());
        assert_eq!(a.predicted_latency, b.predicted_latency);
        assert!(report.stats.hit_rate() > 0.0);
        assert_eq!(report.stats.solves_saved(), report.stats.cache_hits);
    }

    #[test]
    fn warm_batch_saves_solver_invocations_and_matches_cold() {
        let session = session(2);
        let cold = session.compile_batch(&fleet());
        let warm = session.compile_batch(&fleet());
        let (warm_solves, cold_solves) = (
            warm.stats.programs.solver_invocations(),
            cold.stats.programs.solver_invocations(),
        );
        assert!(
            warm_solves < cold_solves,
            "warm {warm_solves} vs cold {cold_solves}"
        );
        // Determinism: cached results are exactly what fresh solves give.
        for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
            let (c, w) = (c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
            assert_eq!(c.predicted_latency, w.predicted_latency);
            assert_eq!(c.segments, w.segments);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let requests = fleet();
        let serial = session(1).compile_batch(&requests);
        let parallel = session(4).compile_batch(&requests);
        assert!(parallel.stats.workers <= 3, "clamped to request count");
        for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
            let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(a.predicted_latency, b.predicted_latency);
            assert_eq!(a.flow, b.flow);
        }
    }

    #[test]
    fn mip_hit_rate_counts_lookups_not_solver_runs() {
        // Under the MIP allocator every cache miss runs one MIP solve
        // plus its embedded warm-start fast solve. The hit rate must be
        // computed over lookups (hits + misses), not solver runs, or it
        // would under-report by up to 2x on the default options.
        let report = session(1).compile_batch(&fleet());
        let s = &report.stats;
        let p = &s.programs;
        assert!(p.mip_solves > 0);
        // Every model compiles, so per-model solve sums line up exactly
        // with the batch's cache misses.
        assert_eq!(s.cache_misses, p.mip_solves, "one MIP-path solve per miss");
        assert_eq!(
            p.fast_solves, p.mip_solves,
            "one embedded warm start per MIP solve"
        );
        assert!(s.cache_hits > 0);
        let over_lookups = s.cache_hits as f64 / (s.cache_hits + s.cache_misses) as f64;
        assert!((s.hit_rate() - over_lookups).abs() < 1e-12);
        let over_solver_runs = s.cache_hits as f64 / (s.cache_hits + p.solver_invocations()) as f64;
        assert!(s.hit_rate() > over_solver_runs);
    }

    #[test]
    fn batch_aggregates_stage_timings() {
        let report = session(2).compile_batch(&fleet());
        let names: Vec<_> = report
            .stats
            .programs
            .stage_wall
            .iter()
            .map(|t| t.stage)
            .collect();
        assert_eq!(names, ["lower", "partition", "segment", "emit"]);
        // Aggregated per-stage CPU time equals the sum over models.
        let per_model: std::time::Duration = report
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .flat_map(|p| p.stats.stage_wall.iter())
            .filter(|t| t.stage == "segment")
            .map(|t| t.wall)
            .sum();
        let aggregated = report.stats.programs.stage_wall("segment").unwrap();
        assert_eq!(per_model, aggregated);
        let breakdown = report.stats.stage_breakdown();
        assert!(breakdown.contains("segment"), "{breakdown}");
        assert!(report.summary().contains("stages"), "{}", report.summary());
    }

    #[test]
    fn generic_backend_service_matches_standalone_compiles() {
        // Batches are backend-generic: a backend handed to the builder
        // explicitly (here CMSwitch through the generic path) gets the
        // same pool + cache + report machinery as the default one.
        let session = Session::builder(presets::tiny())
            .backend(Box::new(BackendKind::CmSwitch))
            .workers(2)
            .build();
        assert_eq!(session.backend_name(), "cmswitch");
        let report = session.compile_batch(&fleet());
        assert_eq!(report.stats.compiled, 3);
        let standalone = Session::builder(presets::tiny())
            .build()
            .compile_graph(&fleet()[0].graph)
            .unwrap();
        let batched = report.get("mlp-a").unwrap().result.as_ref().unwrap();
        assert_eq!(batched.predicted_latency, standalone.predicted_latency);
        assert_eq!(batched.flow, standalone.flow);
        // Per-request typed diagnostics ride along.
        assert!(!report.get("mlp-a").unwrap().diagnostics.is_empty());
    }

    #[test]
    fn cache_survives_batches_and_is_shareable() {
        let first = session(1);
        let _ = first.compile_batch(&fleet());
        assert!(!first.cache().is_empty());
        // A second session on the same chip reuses the warm cache.
        let second = Session::builder(presets::tiny())
            .cache(Arc::clone(first.cache()))
            .build();
        let report = second.compile_batch(&fleet());
        assert_eq!(report.stats.programs.solver_invocations(), 0);
        assert_eq!(report.stats.hit_rate(), 1.0);
    }

    #[test]
    fn summary_surfaces_store_and_warm_start_traffic() {
        let dir = std::env::temp_dir().join(format!(
            "cmswitch-service-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store_session = || {
            let store = ArtifactStore::open(&dir).unwrap();
            Session::builder(presets::tiny()).store(store).workers(1).build()
        };
        let cold = store_session().compile_batch(&fleet());
        // mlp-a and mlp-b are content-identical, so with one worker the
        // second request already hits the artifact the first one wrote —
        // content addressing dedups even inside a cold batch.
        assert_eq!(cold.stats.store_misses, 2);
        assert_eq!(cold.stats.store_hits, 1);
        assert!(
            cold.stats.programs.warm_accepted + cold.stats.programs.warm_rejected > 0,
            "default MIP allocator attempts warm starts"
        );
        let summary = cold.summary();
        assert!(summary.contains("store:"), "{summary}");
        assert!(summary.contains("warm starts:"), "{summary}");

        // A fresh session on the same directory is a process restart in
        // miniature: every model serves from disk, zero solver work.
        let warm = store_session().compile_batch(&fleet());
        assert_eq!(warm.stats.store_hits, 3);
        assert_eq!(warm.stats.programs.solver_invocations(), 0);
        assert!(warm.summary().contains("served from disk"), "{}", warm.summary());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_compile_goes_through_cache() {
        let session = session(1);
        let g = mlp(1, &[64, 64, 64]).unwrap();
        let p1 = session.compile_graph(&g).unwrap();
        let p2 = session.compile_graph(&g).unwrap();
        assert!(p2.stats.solver_invocations() < p1.stats.solver_invocations());
        assert_eq!(p1.predicted_latency, p2.predicted_latency);
    }
}
