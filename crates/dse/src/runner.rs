//! The sweep harness: drive every grid point through the real compiler
//! and simulator.
//!
//! A [`SweepRunner`] holds a workload (named graphs), compiler options
//! and an [`AreaPowerModel`], and evaluates each [`SweepPoint`] by
//! building a [`Session`] *for that chip* on top of a **shared**
//! [`AllocationCache`] (and, optionally, a shared [`ArtifactStore`]).
//! Warmth is layered like the rest of the stack:
//!
//! * **L0 — record memo.** Evaluation is deterministic (bit-identical
//!   records across worker counts, proven in `tests/dse_sweep.rs`), so
//!   the runner memoizes the finished [`SweepRecord`] per architecture
//!   fingerprint. Re-sweeping a point the *same runner* already
//!   evaluated returns the memoized record without recompiling,
//!   re-verifying or re-simulating — the steady state of a long-lived
//!   explorer (the disk-warm counterpart is the `dse_warm` workload of
//!   `BENCHMARK.json`).
//! * **L1 — allocation cache.** Shared across points and runners; keyed
//!   on the architecture's *allocation* fingerprint
//!   ([`cmswitch_arch::DualModeArch::allocation_fingerprint`]), so points
//!   whose allocator inputs differ never cross-contaminate, while a point
//!   that differs from an earlier one only in switch latency, switch
//!   method or buffer capacity solves nothing at all, and *new* points
//!   with repeated segments skip those MIP solves.
//! * **L2 — artifact store.** Whole compiled programs served from disk,
//!   across runners and processes.
//!
//! Every compiled program is checked with the static [`Verifier`]
//! before it is simulated — by the session where it already does so
//! (store hits, the verify stage), by the runner otherwise; a `Deny`
//! finding fails the point (it never silently enters the frontier). Points are evaluated sequentially in
//! grid order — parallelism lives *inside* each point (the session's
//! batch worker pool and solve pool) — so records come out in a
//! deterministic order regardless of worker counts.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cmswitch_core::{
    AllocationCache, ArtifactStore, BatchReport, BatchStats, CompileError, CompileRequest,
    CompilerOptions, Session, Verifier,
};
use cmswitch_graph::Graph;
use cmswitch_metaop::MetaOpError;
use cmswitch_sim::{EnergyReport, EventEngine, ModeOccupancy};

use crate::cost::{AreaPowerModel, ChipCost};
use crate::pareto::ParetoFrontier;
use crate::space::{PointSpec, RejectedPoint, SweepGrid, SweepPoint};

/// Why a valid grid point failed evaluation.
#[derive(Debug)]
pub enum SweepFailure {
    /// A model failed to compile on this chip.
    Compile(CompileError),
    /// The static verifier denied the compiled program.
    VerifyDenied {
        /// Number of `Deny` findings.
        deny: usize,
    },
    /// The event engine rejected the compiled flow.
    Simulate(MetaOpError),
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepFailure::Compile(e) => write!(f, "compile failed: {e}"),
            SweepFailure::VerifyDenied { deny } => {
                write!(f, "verifier denied the program ({deny} findings)")
            }
            SweepFailure::Simulate(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

/// A grid point that compiled-or-simulated unsuccessfully, with the
/// model that sank it.
#[derive(Debug)]
pub struct FailedPoint {
    /// Grid coordinates of the failed point.
    pub spec: PointSpec,
    /// The model whose compilation/simulation failed.
    pub model: String,
    /// What went wrong.
    pub failure: SweepFailure,
}

/// Per-model latency/energy at one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelResult {
    /// Model name (the batch label).
    pub name: String,
    /// Event-engine makespan, cycles.
    pub cycles: f64,
    /// Flow energy, pJ.
    pub energy_pj: f64,
}

/// Everything the sweep measured at one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Grid coordinates.
    pub spec: PointSpec,
    /// The instantiated architecture's name.
    pub arch_name: String,
    /// The architecture fingerprint (the store-key and record-memo
    /// component; the allocation cache keys on the narrower
    /// allocation fingerprint).
    pub fingerprint: u64,
    /// Workload latency: summed event-engine makespans over all models,
    /// cycles.
    pub latency_cycles: f64,
    /// Workload energy: summed flow energy over all models, pJ.
    pub energy_pj: f64,
    /// Static chip cost (area, leakage, peak power).
    pub cost: ChipCost,
    /// Average power over the workload (mode-weighted leakage plus
    /// dynamic), mW.
    pub avg_power_mw: f64,
    /// Mode occupancy of the workload (cycle-weighted over models).
    pub occupancy: ModeOccupancy,
    /// Verifier `Warn` findings across all models (`Deny` fails the
    /// point instead).
    pub verify_warnings: usize,
    /// Allocation solver invocations this point cost (MIP + fast).
    pub solves: u64,
    /// Allocation-cache hits while compiling this point.
    pub cache_hits: u64,
    /// Artifact-store hits while compiling this point.
    pub store_hits: u64,
    /// Wall-clock spent evaluating this point. Counters and wall are
    /// from the evaluation that *produced* the record; a memo-served
    /// re-sweep returns them unchanged.
    pub wall: Duration,
    /// Per-model breakdown, in workload order.
    pub per_model: Vec<ModelResult>,
}

impl SweepRecord {
    /// The three minimized objectives: (latency cycles, energy pJ,
    /// area mm²).
    pub fn objectives(&self) -> [f64; 3] {
        [self.latency_cycles, self.energy_pj, self.cost.area_mm2]
    }
}

/// Everything a sweep produced: measured records in grid order, carried
/// rejections, evaluation failures and aggregate counters.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Measured points, in grid order.
    pub records: Vec<SweepRecord>,
    /// Grid coordinates the space rejected before evaluation.
    pub rejected: Vec<RejectedPoint>,
    /// Valid points whose evaluation failed.
    pub failed: Vec<FailedPoint>,
    /// Wall-clock of the whole sweep.
    pub wall: Duration,
    /// Total allocation solver invocations across points.
    pub solves: u64,
    /// Total allocation-cache hits across points.
    pub cache_hits: u64,
    /// Total allocation-cache misses across points.
    pub cache_misses: u64,
    /// Total artifact-store hits across points.
    pub store_hits: u64,
    /// Total artifact-store misses across points.
    pub store_misses: u64,
    /// Points served from the runner's record memo (L0) without
    /// re-evaluation. Memo-served points contribute nothing to the
    /// other counters of *this* report.
    pub point_hits: u64,
}

impl SweepReport {
    /// The Pareto frontier of the measured records over
    /// (latency, energy, area).
    pub fn frontier(&self) -> ParetoFrontier {
        ParetoFrontier::extract(&self.records)
    }

    /// One-line aggregate summary.
    pub fn summary(&self) -> String {
        format!(
            "{} points measured ({} rejected, {} failed) in {:.2?} — {} solves, \
             {} memo hits, {} cache hits, {} store hits, frontier {}",
            self.records.len(),
            self.rejected.len(),
            self.failed.len(),
            self.wall,
            self.solves,
            self.point_hits,
            self.cache_hits,
            self.store_hits,
            self.frontier().len(),
        )
    }

    /// All measured records as an aligned text table, grid order, with
    /// a `*` marking frontier membership.
    pub fn table(&self) -> String {
        let frontier = self.frontier();
        let mut s = String::new();
        s.push_str(&format!(
            "{:<2} {:<28} {:>12} {:>14} {:>9} {:>9} {:>9}\n",
            "", "point", "cycles", "energy_uJ", "area_mm2", "avg_mW", "solves"
        ));
        for (i, r) in self.records.iter().enumerate() {
            s.push_str(&format!(
                "{:<2} {:<28} {:>12.0} {:>14.2} {:>9.3} {:>9.1} {:>9}\n",
                if frontier.contains(i) { "*" } else { "" },
                r.spec.label(),
                r.latency_cycles,
                r.energy_pj / 1e6,
                r.cost.area_mm2,
                r.avg_power_mw,
                r.solves,
            ));
        }
        s
    }

    /// All measured records as CSV (header + one row per point, grid
    /// order) with a `pareto` membership column.
    pub fn csv(&self) -> String {
        let frontier = self.frontier();
        let mut s = String::from(
            "point,rows,cols,n_arrays,switch_cycles,buffer_bytes,bus_width,\
             latency_cycles,energy_pj,area_mm2,leakage_mw,peak_power_mw,avg_power_mw,\
             solves,cache_hits,store_hits,verify_warnings,pareto\n",
        );
        for (i, r) in self.records.iter().enumerate() {
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{:.0},{:.1},{:.4},{:.3},{:.1},{:.2},{},{},{},{},{}\n",
                r.spec.label(),
                r.spec.rows,
                r.spec.cols,
                r.spec.n_arrays,
                r.spec.switch_cycles,
                r.spec.buffer_bytes,
                r.spec.bus_width,
                r.latency_cycles,
                r.energy_pj,
                r.cost.area_mm2,
                r.cost.leakage_mw,
                r.cost.peak_power_mw,
                r.avg_power_mw,
                r.solves,
                r.cache_hits,
                r.store_hits,
                r.verify_warnings,
                frontier.contains(i),
            ));
        }
        s
    }
}

/// Evaluates design points against a fixed workload through the real
/// `Session` batch layer and the event-driven simulator.
///
/// ```no_run
/// use cmswitch_arch::presets;
/// use cmswitch_dse::{SweepRunner, SweepSpace};
///
/// let models = vec![(
///     "mlp".to_string(),
///     cmswitch_models::mlp::mlp(4, &[256, 512, 128]).unwrap(),
/// )];
/// let grid = SweepSpace::around(presets::tiny())
///     .with_array_counts([4, 8, 16])
///     .instantiate();
/// let report = SweepRunner::new(models).run(&grid);
/// println!("{}", report.frontier().table(&report.records));
/// ```
#[derive(Debug)]
pub struct SweepRunner {
    models: Vec<(String, Graph)>,
    options: CompilerOptions,
    workers: usize,
    cache: Arc<AllocationCache>,
    store: Option<Arc<ArtifactStore>>,
    cost_model: AreaPowerModel,
    /// L0: finished records memoized per architecture fingerprint.
    /// Sound because evaluation is deterministic for a fixed
    /// (workload, options, cost model) — the setters that change those
    /// clear it.
    memo: Mutex<HashMap<u64, SweepRecord>>,
}

impl SweepRunner {
    /// A runner evaluating `models` (name, graph) with default compiler
    /// options, a fresh shared allocation cache, no artifact store and
    /// the default [`AreaPowerModel`].
    pub fn new(models: impl IntoIterator<Item = (String, Graph)>) -> Self {
        SweepRunner {
            models: models.into_iter().collect(),
            options: CompilerOptions::default(),
            workers: 0,
            cache: AllocationCache::new(),
            store: None,
            cost_model: AreaPowerModel::default(),
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Sets the compiler options used at every point. Clears the record
    /// memo: options can change what is measured.
    #[must_use]
    pub fn with_options(mut self, options: CompilerOptions) -> Self {
        self.options = options;
        self.memo.get_mut().unwrap().clear();
        self
    }

    /// Sets the per-point batch worker count (`0` = auto).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Shares an existing allocation cache (L1) — hand the same cache to
    /// a second runner (or keep the runner alive across sweeps) and a
    /// re-sweep of the same grid solves nothing.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<AllocationCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a persistent artifact store (L2): repeated sweeps are
    /// served from disk even across processes.
    #[must_use]
    pub fn with_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the area/power model pricing every point (its
    /// [`cmswitch_sim::EnergyModel`] is also what the simulator
    /// charges, keeping energy and power consistent). Clears the record
    /// memo: the model changes every priced quantity.
    #[must_use]
    pub fn with_cost_model(mut self, model: AreaPowerModel) -> Self {
        self.cost_model = model;
        self.memo.get_mut().unwrap().clear();
        self
    }

    /// The shared allocation cache.
    pub fn cache(&self) -> &Arc<AllocationCache> {
        &self.cache
    }

    /// The area/power model in use.
    pub fn cost_model(&self) -> &AreaPowerModel {
        &self.cost_model
    }

    /// The workload, in evaluation order.
    pub fn models(&self) -> &[(String, Graph)] {
        &self.models
    }

    /// Evaluates every valid point of `grid` (carrying its rejections
    /// into the report). Records come out in grid order; the order and
    /// every measured quantity except `wall` are deterministic across
    /// worker counts.
    pub fn run(&self, grid: &SweepGrid) -> SweepReport {
        let started = Instant::now();
        let mut report = SweepReport {
            rejected: grid.rejected.clone(),
            ..SweepReport::default()
        };
        for point in &grid.points {
            let fingerprint = point.arch.fingerprint();
            if let Some(record) = self.memo.lock().unwrap().get(&fingerprint) {
                report.point_hits += 1;
                report.records.push(record.clone());
                continue;
            }
            match self.run_point(point) {
                Ok((record, batch)) => {
                    report.solves += record.solves;
                    report.cache_hits += batch.cache_hits;
                    report.cache_misses += batch.cache_misses;
                    report.store_hits += batch.store_hits;
                    report.store_misses += batch.store_misses;
                    self.memo
                        .lock()
                        .unwrap()
                        .insert(fingerprint, record.clone());
                    report.records.push(record);
                }
                Err(failed) => report.failed.push(failed),
            }
        }
        report.wall = started.elapsed();
        report
    }

    /// Evaluates a bare list of architectures (no grid), deriving each
    /// point's spec from the chip itself.
    pub fn run_archs(&self, archs: &[cmswitch_arch::DualModeArch]) -> SweepReport {
        let grid = SweepGrid {
            points: archs
                .iter()
                .map(|arch| SweepPoint {
                    spec: PointSpec::of(arch),
                    arch: arch.clone(),
                })
                .collect(),
            rejected: Vec::new(),
        };
        self.run(&grid)
    }

    /// Compiles, verifies and simulates every model on `point`; returns
    /// the point's record and its batch's [`BatchStats`].
    fn run_point(&self, point: &SweepPoint) -> Result<(SweepRecord, BatchStats), FailedPoint> {
        let started = Instant::now();
        let mut builder = Session::builder(point.arch.clone())
            .options(self.options.clone())
            .workers(self.workers)
            .cache(Arc::clone(&self.cache));
        if let Some(store) = &self.store {
            builder = builder.store(Arc::clone(store));
        }
        let session = builder.build();

        let requests: Vec<CompileRequest> = self
            .models
            .iter()
            .map(|(name, graph)| CompileRequest::new(graph.clone()).with_label(name.clone()))
            .collect();
        let BatchReport { outcomes, stats } = session.compile_batch(&requests);

        let fail = |model: &str, failure: SweepFailure| FailedPoint {
            spec: point.spec,
            model: model.to_string(),
            failure,
        };

        let engine = EventEngine::with_energy_model(self.cost_model.energy.clone());
        let n_arrays = point.arch.n_arrays();

        let mut latency = 0.0_f64;
        let mut energy = EnergyReport::default();
        let mut warnings = 0usize;
        let mut occ_sum = ModeOccupancy::default();
        let mut per_model = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            let program = match outcome.result {
                Ok(p) => p,
                Err(e) => return Err(fail(&outcome.name, SweepFailure::Compile(e))),
            };
            // The session has usually verified the program already (its
            // store-hit gate, or the verify stage when the options enable
            // it) and says so in the diagnostics; verify here only if not.
            let (deny, warn) = match outcome.diagnostics.verified_counts() {
                Some((deny, warn)) => (deny as usize, warn as usize),
                None => {
                    let verdict = Verifier::new().run(&program, &point.arch);
                    (verdict.deny_count(), verdict.warn_count())
                }
            };
            if deny > 0 {
                return Err(fail(&outcome.name, SweepFailure::VerifyDenied { deny }));
            }
            warnings += warn;
            let sim = match engine.simulate_program(&program, &point.arch) {
                Ok(r) => r,
                Err(e) => return Err(fail(&outcome.name, SweepFailure::Simulate(e))),
            };
            let occ = sim.mode_occupancy(n_arrays);
            // Cycle-weighted occupancy: long models shape the workload's
            // average power more than short ones.
            occ_sum.compute += occ.compute * sim.total_cycles;
            occ_sum.memory += occ.memory * sim.total_cycles;
            occ_sum.switching += occ.switching * sim.total_cycles;
            occ_sum.idle += occ.idle * sim.total_cycles;
            latency += sim.total_cycles;
            energy.absorb(&sim.energy);
            per_model.push(ModelResult {
                name: outcome.name,
                cycles: sim.total_cycles,
                energy_pj: sim.energy.total_pj(),
            });
        }

        let occupancy = if latency > 0.0 {
            ModeOccupancy {
                compute: occ_sum.compute / latency,
                memory: occ_sum.memory / latency,
                switching: occ_sum.switching / latency,
                idle: occ_sum.idle / latency,
            }
        } else {
            ModeOccupancy {
                idle: 1.0,
                ..ModeOccupancy::default()
            }
        };

        let cost = self.cost_model.price(&point.arch);
        let avg_power_mw =
            self.cost_model
                .average_power_mw(&point.arch, latency, &energy, occupancy);

        Ok((
            SweepRecord {
                spec: point.spec,
                arch_name: point.arch.name().to_string(),
                fingerprint: point.arch.fingerprint(),
                latency_cycles: latency,
                energy_pj: energy.total_pj(),
                cost,
                avg_power_mw,
                occupancy,
                verify_warnings: warnings,
                solves: stats.programs.solver_invocations(),
                cache_hits: stats.cache_hits,
                store_hits: stats.store_hits,
                wall: started.elapsed(),
                per_model,
            },
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SweepSpace;
    use cmswitch_arch::presets;

    fn tiny_workload() -> Vec<(String, Graph)> {
        vec![
            (
                "mlp-a".to_string(),
                cmswitch_models::mlp::mlp(2, &[64, 96, 32]).unwrap(),
            ),
            (
                "mlp-b".to_string(),
                cmswitch_models::mlp::mlp(2, &[96, 64, 48]).unwrap(),
            ),
        ]
    }

    #[test]
    fn sweep_measures_every_valid_point_in_grid_order() {
        let grid = SweepSpace::around(presets::tiny())
            .with_array_counts([4, 8])
            .with_bus_widths([8, 16])
            .instantiate();
        let runner = SweepRunner::new(tiny_workload());
        let report = runner.run(&grid);
        assert_eq!(report.records.len(), 4);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        for (record, point) in report.records.iter().zip(&grid.points) {
            assert_eq!(record.spec, point.spec);
            assert_eq!(record.fingerprint, point.arch.fingerprint());
            assert!(record.latency_cycles > 0.0);
            assert!(record.energy_pj > 0.0);
            assert!(record.cost.area_mm2 > 0.0);
            assert!(record.avg_power_mw > 0.0);
            // DRAM energy is billed over its transfer window, so the
            // average can never exceed the saturated-rate peak rating.
            assert!(
                record.avg_power_mw <= record.cost.peak_power_mw,
                "avg {} mW exceeds peak {} mW",
                record.avg_power_mw,
                record.cost.peak_power_mw
            );
            assert!(record.avg_power_mw > record.cost.leakage_mw * 0.1);
            assert_eq!(record.per_model.len(), 2);
            let occ = record.occupancy;
            let total = occ.compute + occ.memory + occ.switching + occ.idle;
            assert!((total - 1.0).abs() < 1e-6, "occupancy sums to {total}");
        }
        assert!(!report.frontier().is_empty());
        assert!(report.table().contains("cycles"));
        assert!(report.csv().lines().count() == 5);
    }

    #[test]
    fn memo_makes_a_resweep_solve_and_simulation_free() {
        let grid = SweepSpace::around(presets::tiny())
            .with_array_counts([4, 8])
            .instantiate();
        let runner = SweepRunner::new(tiny_workload());
        let cold = runner.run(&grid);
        assert!(cold.solves > 0, "cold sweep must pay real solves");
        assert_eq!(cold.point_hits, 0);
        let warm = runner.run(&grid);
        assert_eq!(warm.solves, 0, "warm re-sweep must not touch the solver");
        assert_eq!(
            warm.point_hits,
            grid.points.len() as u64,
            "every point is served from the L0 record memo"
        );
        // The records are identical either way.
        for (c, w) in cold.records.iter().zip(&warm.records) {
            assert_eq!(c, w);
        }
    }

    #[test]
    fn changing_the_cost_model_invalidates_the_memo() {
        let grid = SweepSpace::around(presets::tiny()).instantiate();
        let runner = SweepRunner::new(tiny_workload());
        let before = runner.run(&grid);
        let mut pricier = AreaPowerModel::default();
        pricier.cell_um2 *= 2.0;
        let runner = runner.with_cost_model(pricier);
        let after = runner.run(&grid);
        assert_eq!(after.point_hits, 0, "stale records must not be served");
        assert!(after.records[0].cost.area_mm2 > before.records[0].cost.area_mm2);
    }
}
