//! Structured compilation diagnostics.
//!
//! Every compilation driven through a [`crate::Session`] collects typed
//! [`DiagnosticEvent`]s in a [`Diagnostics`] sink threaded through the
//! [`crate::PipelineCx`]. The events replace the stringly prose that
//! previously had to be fished out of summary text: callers match on
//! variants and read counters instead of parsing lines.
//!
//! The sink is per-compilation: a [`crate::CompileOutcome`] carries exactly
//! the events of its own run, and batch outcomes carry one sink per job.

use std::fmt;

/// One typed diagnostic event recorded during a compilation.
///
/// The enum is `#[non_exhaustive]`: future pipeline stages may add
/// variants without breaking callers, so always keep a catch-all arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum DiagnosticEvent {
    /// The segmentation DP enumerated `windows` candidate windows and
    /// skipped `infeasible + bound_pruned` of them without paying an
    /// allocator solve (see [`crate::DpMode::BoundPruned`]).
    DpWindowsPruned {
        /// Candidate windows enumerated by the DP.
        windows: u64,
        /// Windows skipped by the min-tiles capacity prefilter.
        infeasible: u64,
        /// Windows skipped because their analytic lower bound already
        /// lost to the greedy incumbent schedule.
        bound_pruned: u64,
    },
    /// The partition stage rounded the fractional array budget
    /// (`fraction · n_arrays = exact`) to a whole-array budget.
    ///
    /// Emitted only when rounding actually moved the budget, i.e. the
    /// exact product was not an integer.
    PartitionBudgetRounded {
        /// The requested [`crate::CompilerOptions::partition_budget`].
        fraction: f64,
        /// The exact (fractional) array product before rounding.
        exact: f64,
        /// The whole-array budget actually enforced.
        arrays: usize,
    },
    /// Allocation-cache traffic of this compilation: `hits` lookups were
    /// answered from the (private or session-shared) cache, `misses`
    /// went to a solver.
    CacheTraffic {
        /// Lookups answered without a solver run.
        hits: u64,
        /// Lookups that required a solver run.
        misses: u64,
    },
    /// The MIP allocator fell back to the fast allocator's solution
    /// `count` times because the solve returned an error (infeasible,
    /// node budget spent before any incumbent, or numerical trouble) —
    /// the baseline fallback path of [`crate::AllocatorKind::Mip`]. A
    /// search that runs out of budget *with* an incumbent is not a
    /// fallback; [`DiagnosticEvent::SolverEffort`] counts those.
    MipFallback {
        /// Number of segments whose MIP solve fell back.
        count: u64,
    },
    /// Warm-start traffic of the MIP allocator: `accepted` solves were
    /// seeded with a feasible incumbent (from the fast allocator or the
    /// neighbor-window extension), `rejected` candidates were discarded
    /// as infeasible or wasted on a failed solve.
    WarmStart {
        /// Solves whose warm start seeded the branch-and-bound
        /// incumbent.
        accepted: u64,
        /// Warm-start candidates discarded.
        rejected: u64,
    },
    /// What the MIP allocator's branch-and-bound searches cost and what
    /// they bought, over the `mip_solves` solves of this compilation
    /// (the five other fields cover the solves that returned a
    /// solution). Counts, not times: they repeat exactly at one solve
    /// worker.
    SolverEffort {
        /// MIP solves performed.
        mip_solves: u64,
        /// Branch-and-bound nodes explored.
        bnb_nodes: u64,
        /// LP relaxations solved (one per node; no LP is solved twice).
        lp_solves: u64,
        /// Simplex pivots inside those LPs.
        pivots: u64,
        /// Searches that stopped on the node budget, optimality unproven,
        /// and returned their best incumbent.
        budget_exhausted: u64,
        /// Searches that returned something other than the warm start
        /// they were seeded with.
        improved: u64,
    },
    /// An event-engine simulation of the compiled program completed
    /// (emitted by `cmswitch-sim`'s `Session::simulate` extension, not
    /// by the compilation pipeline itself).
    Simulated {
        /// End-to-end makespan of the event schedule, cycles.
        pipelined_cycles: f64,
        /// The same flow fully serialized (the sequential reference
        /// model), cycles — `pipelined ≤ serialized` always holds.
        serialized_cycles: f64,
        /// Estimated energy of the run, picojoules.
        energy_pj: f64,
        /// Total array mode switches executed (both directions).
        switches: u64,
    },
    /// The static verifier ran over the compiled program (the opt-in
    /// [`crate::VerifyStage`], or [`crate::Session::verify`] callers
    /// recording their result).
    Verified {
        /// `Deny`-severity findings (any makes [`crate::VerifyStage`]
        /// fail the compile).
        deny: u64,
        /// `Warn`-severity findings.
        warn: u64,
    },
    /// The compilation was served from the persistent
    /// [`crate::ArtifactStore`]: a valid artifact under `key` decoded,
    /// passed the static verifier and replaced the entire pipeline run.
    StoreHit {
        /// The [`crate::StoreKey`] hash the artifact was addressed by.
        key: u64,
    },
    /// The persistent store was probed at `key` and held no artifact;
    /// the compilation ran cold and (on success) wrote one.
    StoreMiss {
        /// The [`crate::StoreKey`] hash probed.
        key: u64,
    },
    /// A store artifact at `key` was rejected — checksum/decode failure
    /// or a `Deny` finding from the verify-before-serve gate — and the
    /// compilation degraded to a cold run that overwrote the entry.
    StoreCorrupt {
        /// The [`crate::StoreKey`] hash of the rejected artifact.
        key: u64,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// A tenant's program was re-segmented mid-flight: its growing
    /// memory-mode footprint (KV cache) no longer fit its chip
    /// partition, so the decode loop recompiled the tenant's graph at
    /// the grown sequence length through the real session (emitted by
    /// `cmswitch-sim`'s tenancy driver, not the compilation pipeline).
    Resegmented {
        /// The tenant whose plan was replaced.
        tenant: String,
        /// The KV length (sequence position) the new plan was compiled
        /// at.
        kv_len: usize,
        /// Allocator solves the re-segmentation paid (0 when served
        /// warm from the allocation cache / artifact store).
        solves: u64,
    },
}

impl fmt::Display for DiagnosticEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosticEvent::DpWindowsPruned {
                windows,
                infeasible,
                bound_pruned,
            } => write!(
                f,
                "segmentation DP: {windows} windows, {infeasible} infeasible-skipped, \
                 {bound_pruned} bound-pruned"
            ),
            DiagnosticEvent::PartitionBudgetRounded {
                fraction,
                exact,
                arrays,
            } => write!(
                f,
                "partition budget {fraction} rounded: {exact:.3} -> {arrays} arrays"
            ),
            DiagnosticEvent::CacheTraffic { hits, misses } => {
                write!(f, "allocation cache: {hits} hits, {misses} misses")
            }
            DiagnosticEvent::MipFallback { count } => {
                write!(f, "MIP allocator fell back to the fast allocator {count}x")
            }
            DiagnosticEvent::WarmStart { accepted, rejected } => {
                write!(f, "MIP warm starts: {accepted} accepted, {rejected} rejected")
            }
            DiagnosticEvent::SolverEffort {
                mip_solves,
                bnb_nodes,
                lp_solves,
                pivots,
                budget_exhausted,
                improved,
            } => write!(
                f,
                "MIP search effort: {mip_solves} solves, {bnb_nodes} nodes, \
                 {lp_solves} LPs, {pivots} pivots; {budget_exhausted} ended on the \
                 node budget, {improved} improved on their warm start"
            ),
            DiagnosticEvent::Simulated {
                pipelined_cycles,
                serialized_cycles,
                energy_pj,
                switches,
            } => write!(
                f,
                "simulated: {pipelined_cycles:.3e} cycles pipelined \
                 ({serialized_cycles:.3e} serialized), {energy_pj:.3e} pJ, \
                 {switches} mode switches"
            ),
            DiagnosticEvent::Verified { deny, warn } => {
                write!(f, "verified: {deny} deny, {warn} warn findings")
            }
            DiagnosticEvent::StoreHit { key } => {
                write!(f, "artifact store hit: served {key:#018x} from disk")
            }
            DiagnosticEvent::StoreMiss { key } => {
                write!(f, "artifact store miss at {key:#018x}")
            }
            DiagnosticEvent::StoreCorrupt { key, reason } => {
                write!(f, "artifact store entry {key:#018x} rejected: {reason}")
            }
            DiagnosticEvent::Resegmented {
                tenant,
                kv_len,
                solves,
            } => write!(
                f,
                "tenant {tenant} re-segmented at kv_len {kv_len} ({solves} solves)"
            ),
        }
    }
}

/// The per-compilation sink of [`DiagnosticEvent`]s.
///
/// Collected by [`crate::PipelineCx`] while the stages run and handed
/// back in the [`crate::CompileOutcome`] (or per-job in a
/// [`crate::BatchOutcome`]). Convenience accessors aggregate the common
/// counters so tests and dashboards do not have to fold the event list
/// themselves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    events: Vec<DiagnosticEvent>,
}

impl Diagnostics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event.
    pub fn push(&mut self, event: DiagnosticEvent) {
        self.events.push(event);
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[DiagnosticEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total DP windows skipped without an allocator invocation, summed
    /// over every [`DiagnosticEvent::DpWindowsPruned`] event.
    pub fn windows_pruned(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                DiagnosticEvent::DpWindowsPruned {
                    infeasible,
                    bound_pruned,
                    ..
                } => infeasible + bound_pruned,
                _ => 0,
            })
            .sum()
    }

    /// Aggregate allocation-cache `(hits, misses)` over every
    /// [`DiagnosticEvent::CacheTraffic`] event.
    pub fn cache_traffic(&self) -> (u64, u64) {
        self.events.iter().fold((0, 0), |(h, m), e| match e {
            DiagnosticEvent::CacheTraffic { hits, misses } => (h + hits, m + misses),
            _ => (h, m),
        })
    }

    /// Total MIP→fast fallbacks over every
    /// [`DiagnosticEvent::MipFallback`] event.
    pub fn mip_fallbacks(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                DiagnosticEvent::MipFallback { count } => *count,
                _ => 0,
            })
            .sum()
    }

    /// Aggregate MIP warm-start `(accepted, rejected)` counts over every
    /// [`DiagnosticEvent::WarmStart`] event.
    pub fn warm_start_counts(&self) -> (u64, u64) {
        self.events.iter().fold((0, 0), |(a, r), e| match e {
            DiagnosticEvent::WarmStart { accepted, rejected } => (a + accepted, r + rejected),
            _ => (a, r),
        })
    }

    /// The most recent [`DiagnosticEvent::SolverEffort`] event, if the
    /// compilation solved any MIP (a compilation emits at most one).
    pub fn solver_effort(&self) -> Option<&DiagnosticEvent> {
        self.events
            .iter()
            .rev()
            .find(|e| matches!(e, DiagnosticEvent::SolverEffort { .. }))
    }

    /// The simulated `(pipelined, serialized)` cycle pair of the most
    /// recent [`DiagnosticEvent::Simulated`] event, if any.
    pub fn simulated_cycles(&self) -> Option<(f64, f64)> {
        self.events.iter().rev().find_map(|e| match e {
            DiagnosticEvent::Simulated {
                pipelined_cycles,
                serialized_cycles,
                ..
            } => Some((*pipelined_cycles, *serialized_cycles)),
            _ => None,
        })
    }

    /// The `(deny, warn)` finding counts of the most recent
    /// [`DiagnosticEvent::Verified`] event, if the verifier ran.
    pub fn verified_counts(&self) -> Option<(u64, u64)> {
        self.events.iter().rev().find_map(|e| match e {
            DiagnosticEvent::Verified { deny, warn } => Some((*deny, *warn)),
            _ => None,
        })
    }

    /// Aggregate persistent-store traffic `(hits, misses, corrupt)`
    /// over every store event of this compilation.
    pub fn store_traffic(&self) -> (u64, u64, u64) {
        self.events.iter().fold((0, 0, 0), |(h, m, c), e| match e {
            DiagnosticEvent::StoreHit { .. } => (h + 1, m, c),
            DiagnosticEvent::StoreMiss { .. } => (h, m + 1, c),
            DiagnosticEvent::StoreCorrupt { .. } => (h, m, c + 1),
            _ => (h, m, c),
        })
    }

    /// Number of [`DiagnosticEvent::Resegmented`] events recorded (the
    /// tenancy decode loop's mid-flight plan replacements).
    pub fn resegmentations(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, DiagnosticEvent::Resegmented { .. }))
            .count() as u64
    }

    /// Whether the partition budget was rounded during this compilation.
    pub fn partition_budget_rounded(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, DiagnosticEvent::PartitionBudgetRounded { .. }))
    }
}

impl fmt::Display for Diagnostics {
    /// Renders one line per event (empty string when no events).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a DiagnosticEvent;
    type IntoIter = std::slice::Iter<'a, DiagnosticEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_and_renders() {
        let mut d = Diagnostics::new();
        assert!(d.is_empty());
        d.push(DiagnosticEvent::DpWindowsPruned {
            windows: 10,
            infeasible: 3,
            bound_pruned: 4,
        });
        d.push(DiagnosticEvent::CacheTraffic { hits: 5, misses: 2 });
        d.push(DiagnosticEvent::MipFallback { count: 1 });
        d.push(DiagnosticEvent::PartitionBudgetRounded {
            fraction: 0.999,
            exact: 63.936,
            arrays: 64,
        });
        assert_eq!(d.len(), 4);
        assert_eq!(d.windows_pruned(), 7);
        assert_eq!(d.cache_traffic(), (5, 2));
        assert_eq!(d.mip_fallbacks(), 1);
        assert!(d.partition_budget_rounded());
        let text = d.to_string();
        assert!(text.contains("10 windows"), "{text}");
        assert!(text.contains("5 hits"), "{text}");
        assert!(text.contains("63.936 -> 64 arrays"), "{text}");
        assert_eq!((&d).into_iter().count(), 4);
    }

    #[test]
    fn warm_start_event_renders_and_aggregates() {
        let mut d = Diagnostics::new();
        assert_eq!(d.warm_start_counts(), (0, 0));
        d.push(DiagnosticEvent::WarmStart {
            accepted: 7,
            rejected: 2,
        });
        d.push(DiagnosticEvent::WarmStart {
            accepted: 1,
            rejected: 0,
        });
        assert_eq!(d.warm_start_counts(), (8, 2));
        let text = d.to_string();
        assert!(text.contains("7 accepted, 2 rejected"), "{text}");
    }

    #[test]
    fn solver_effort_event_renders_and_is_found() {
        let mut d = Diagnostics::new();
        assert_eq!(d.solver_effort(), None);
        let effort = DiagnosticEvent::SolverEffort {
            mip_solves: 4,
            bnb_nodes: 80,
            lp_solves: 84,
            pivots: 1600,
            budget_exhausted: 2,
            improved: 1,
        };
        d.push(effort.clone());
        d.push(DiagnosticEvent::CacheTraffic { hits: 1, misses: 4 });
        assert_eq!(d.solver_effort(), Some(&effort));
        let text = d.to_string();
        assert!(text.contains("4 solves, 80 nodes, 84 LPs, 1600 pivots"), "{text}");
        assert!(text.contains("2 ended on the node budget, 1 improved"), "{text}");
    }

    #[test]
    fn simulated_event_renders_and_reports_cycles() {
        let mut d = Diagnostics::new();
        assert_eq!(d.simulated_cycles(), None);
        d.push(DiagnosticEvent::Simulated {
            pipelined_cycles: 90.0,
            serialized_cycles: 100.0,
            energy_pj: 1.5e6,
            switches: 12,
        });
        assert_eq!(d.simulated_cycles(), Some((90.0, 100.0)));
        let text = d.to_string();
        assert!(text.contains("12 mode switches"), "{text}");
    }

    #[test]
    fn store_events_render_and_aggregate() {
        let mut d = Diagnostics::new();
        assert_eq!(d.store_traffic(), (0, 0, 0));
        d.push(DiagnosticEvent::StoreHit { key: 0xABCD });
        d.push(DiagnosticEvent::StoreMiss { key: 0x1234 });
        d.push(DiagnosticEvent::StoreCorrupt {
            key: 0x5678,
            reason: "checksum mismatch".into(),
        });
        assert_eq!(d.store_traffic(), (1, 1, 1));
        let text = d.to_string();
        assert!(text.contains("store hit"), "{text}");
        assert!(text.contains("store miss"), "{text}");
        assert!(text.contains("rejected: checksum mismatch"), "{text}");
    }

    #[test]
    fn resegmented_event_renders_and_counts() {
        let mut d = Diagnostics::new();
        assert_eq!(d.resegmentations(), 0);
        d.push(DiagnosticEvent::Resegmented {
            tenant: "t0".into(),
            kv_len: 384,
            solves: 0,
        });
        assert_eq!(d.resegmentations(), 1);
        let text = d.to_string();
        assert!(text.contains("tenant t0 re-segmented at kv_len 384"), "{text}");
    }

    #[test]
    fn verified_event_renders_and_reports_counts() {
        let mut d = Diagnostics::new();
        assert_eq!(d.verified_counts(), None);
        d.push(DiagnosticEvent::Verified { deny: 2, warn: 1 });
        assert_eq!(d.verified_counts(), Some((2, 1)));
        let text = d.to_string();
        assert!(text.contains("verified: 2 deny, 1 warn"), "{text}");
    }
}
