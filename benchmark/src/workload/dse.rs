//! `dse_cold` and `dse_warm`: a `SweepRunner` over a 4-point grid of
//! chips around DynaPlasia, four models a point. One operation is one
//! sweep point; the sweep is sequential, so point walls sum to the pass.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cmswitch::arch::DualModeArch;
use cmswitch::compiler::{
    AllocationCache, ArtifactStore, CompilerOptions, StoreFetch, StoreKey, Verifier,
};
use cmswitch::dse::{SweepGrid, SweepPoint, SweepReport, SweepRunner, SweepSpace};
use cmswitch::graph::Graph;
use cmswitch::models::registry;
use cmswitch::prelude::presets;

use super::{
    cimmlc_cycles, layers_of, open_store, staged_compile, timed, traced_simulate, Layers, Mode,
    Pass, Reference, Workload,
};
use crate::check::{self, check_program, Facts};
use crate::probe;
use crate::rng::{hash_labels, Rng};
use crate::stats::median;
use crate::trace::Recorder;

/// One encoder, one small and one large CNN, one decoder.
const MODELS: &[&str] = &["bert-base", "resnet18", "vgg16", "llama2-7b"];
const SEQ: usize = 32;
/// Compile workers inside a point. One, not the runner's default of one
/// per core: with two workers on the sandbox's two virtual cores whole
/// runs came out 25% apart (1.14 s to 1.46 s for the same sweep), with one
/// they repeat. `cold_par` is the workload that measures fan-out.
const WORKERS: usize = 1;

pub struct Dse {
    warm: bool,
    options: CompilerOptions,
    models: Vec<(String, Graph)>,
    /// Points in grid order; the reference follows it, model-minor.
    points: Vec<SweepPoint>,
    /// The same points in the seeded order a pass sweeps them in.
    grid: SweepGrid,
    reference: Reference,
    setup_layers: Layers,
    /// `dse_warm`: the store the set-up sweep left behind.
    primed: Option<PathBuf>,
    /// `dse_cold`: the store of the latest pass, kept for the probes.
    latest: Option<PathBuf>,
    scratch: PathBuf,
    passes: usize,
}

impl Dse {
    pub fn setup(warm: bool, seed: u64, scratch: &Path) -> Result<Self, String> {
        let options = check::options();
        let (models, build_s) = timed(|| {
            MODELS
                .iter()
                .map(|m| registry::build(m, 1, SEQ).map(|g| (m.to_string(), g)))
                .collect::<Result<Vec<_>, _>>()
        });
        let models = models.map_err(|e| e.to_string())?;
        // Four points, not the issue's eight (it also swept the buffer
        // over 40 and 80 KiB): a cold sweep of eight takes 1.8 s, so a run
        // held five of them and its best pass spread 10% over ten runs;
        // at 0.9 s a run holds ten.
        let mut grid = SweepSpace::around(presets::dynaplasia())
            .with_switch_latencies([1, 4])
            .with_bus_widths([16, 32])
            .instantiate();
        if !grid.rejected.is_empty() {
            return Err(format!(
                "the grid rejects {} of its points",
                grid.rejected.len()
            ));
        }
        let points = grid.points.clone();
        Rng::new(seed, 3).shuffle(&mut grid.points);

        let (cimmlc, cimmlc_s) = timed(|| {
            points
                .iter()
                .flat_map(|p| models.iter().map(|(_, g)| cimmlc_cycles(&p.arch, g)))
                .collect::<Result<Vec<_>, _>>()
        });
        let setup_layers = super::setup_layers(build_s, models.iter().map(|(_, g)| g), cimmlc_s);
        let mut dse = Dse {
            warm,
            options,
            models,
            points,
            grid,
            reference: Reference {
                facts: Vec::new(),
                cimmlc_cycles: cimmlc?,
            },
            setup_layers,
            primed: None,
            latest: None,
            scratch: scratch.to_path_buf(),
            passes: 0,
        };
        if warm {
            // The cold sweep whose store every pass re-sweeps.
            let dir = scratch.join("primed");
            let store = open_store(&dir)?;
            let report = dse.runner(&store).run(&dse.grid);
            dse.check_report(&report, false)?;
            let facts = dse.evaluate(&store, &report)?;
            dse.set_reference(facts);
            dse.primed = Some(dir);
        }
        Ok(dse)
    }

    fn runner(&self, store: &Arc<ArtifactStore>) -> SweepRunner {
        SweepRunner::new(self.models.clone())
            .with_options(self.options.clone())
            .with_workers(WORKERS)
            .with_store(Arc::clone(store))
    }

    fn set_reference(&mut self, facts: Vec<Facts>) {
        self.reference.facts = facts;
        self.reference.plan_layers(&mut self.setup_layers);
    }

    fn store_key(&self, arch: &DualModeArch, graph: &Graph) -> StoreKey {
        StoreKey::for_compile(arch, "cmswitch", &self.options, graph)
    }

    /// Reads every program the sweep left in `store` back and applies the
    /// full output checks, in reference order; each program's makespan
    /// must be the one the sweep reported for it.
    fn evaluate(&self, store: &ArtifactStore, report: &SweepReport) -> Result<Vec<Facts>, String> {
        let mut facts = Vec::with_capacity(self.points.len() * self.models.len());
        for point in &self.points {
            let label = point.spec.label();
            let record = report
                .records
                .iter()
                .find(|r| r.fingerprint == point.arch.fingerprint())
                .ok_or_else(|| format!("{label}: no record"))?;
            for ((name, graph), result) in self.models.iter().zip(&record.per_model) {
                let StoreFetch::Hit(program) =
                    store.fetch_program(self.store_key(&point.arch, graph))
                else {
                    return Err(format!("{label}/{name}: not in the sweep's store"));
                };
                let f = check_program(&program, &point.arch)
                    .map_err(|e| format!("{label}/{name}: {e}"))?;
                if f.cycles.to_bits() != result.cycles.to_bits() {
                    return Err(format!(
                        "{label}/{name}: the sweep reported another makespan"
                    ));
                }
                facts.push(f);
            }
        }
        Ok(facts)
    }

    /// The checks every sweep gets: all points measured, and — once the
    /// reference exists — every model's makespan equal to it bit for bit.
    fn check_report(&self, report: &SweepReport, warm: bool) -> Result<(), String> {
        if let Some(failed) = report.failed.first() {
            return Err(format!(
                "{}/{}: {}",
                failed.spec.label(),
                failed.model,
                failed.failure
            ));
        }
        if report.records.len() != self.points.len() {
            return Err(format!(
                "{} of {} points measured",
                report.records.len(),
                self.points.len()
            ));
        }
        if warm && (report.solves > 0 || report.store_misses > 0) {
            return Err(format!(
                "a warm sweep must be served from the store ({} solves, {} store misses)",
                report.solves, report.store_misses
            ));
        }
        if self.reference.facts.is_empty() {
            return Ok(());
        }
        for (p, point) in self.points.iter().enumerate() {
            let record = report
                .records
                .iter()
                .find(|r| r.fingerprint == point.arch.fingerprint())
                .ok_or_else(|| format!("{}: no record", point.spec.label()))?;
            let facts = &self.reference.facts[p * self.models.len()..];
            if record
                .per_model
                .iter()
                .zip(facts)
                .any(|(m, f)| m.cycles.to_bits() != f.cycles.to_bits())
            {
                return Err(format!(
                    "{}: makespan differs from the reference sweep",
                    point.spec.label()
                ));
            }
        }
        Ok(())
    }

    /// Repeats, span by span, what the sweep did for its first point: a
    /// cold point compiles each model stage by stage, writes it back,
    /// verifies and simulates it; a warm point fetches, lets the session
    /// re-verify, then verifies and simulates like the cold one.
    fn replay_point(
        &self,
        rec: &mut Recorder,
        served: &ArtifactStore,
        sink: &ArtifactStore,
    ) -> Result<(), String> {
        let point = &self.grid.points[0];
        let cache = AllocationCache::new();
        for (op, (_, graph)) in self.models.iter().enumerate() {
            let op = op as u32;
            let key = self.store_key(&point.arch, graph);
            let program = if self.warm {
                let fetched = rec.span("core.store.fetch", op, |_| served.fetch_program(key));
                let StoreFetch::Hit(program) = fetched else {
                    return Err("the primed store no longer holds the program".into());
                };
                rec.span("core.verify", op, |_| {
                    Verifier::new().run(&program, &point.arch)
                });
                *program
            } else {
                let (program, _) =
                    staged_compile(rec, op, &point.arch, &self.options, &cache, graph)?;
                rec.span("core.store.put", op, |_| sink.put_program(key, &program))
                    .map_err(|e| e.to_string())?;
                program
            };
            rec.span("core.verify", op, |_| {
                Verifier::new().run(&program, &point.arch)
            });
            traced_simulate(rec, op, &program, &point.arch)?;
        }
        Ok(())
    }
}

impl Workload for Dse {
    fn ops_per_pass(&self) -> usize {
        self.grid.points.len()
    }

    fn ops_hash(&self) -> u64 {
        let labels: Vec<String> = self.grid.points.iter().map(|p| p.spec.label()).collect();
        hash_labels(labels.iter().map(String::as_str))
    }

    fn pass(&mut self, mode: Mode) -> Pass {
        self.passes += 1;
        let n_points = self.grid.points.len();
        let fail = |e: String| Pass::unprepared(e, n_points);
        // Untimed preparation: the pass's store (fresh for a cold sweep)
        // and a fresh runner, so no record memo or cache survives a pass.
        let dir = match &self.primed {
            Some(dir) => dir.clone(),
            None => self.scratch.join(format!("pass-{}", self.passes)),
        };
        let sink_dir = self.scratch.join("sink");
        let (store, replay) = match (open_store(&dir), open_store(&dir), open_store(&sink_dir)) {
            (Ok(store), Ok(served), Ok(sink)) => (store, (served, sink)),
            (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => return fail(e),
        };
        let runner = self.runner(&store);
        let mut recorder = (mode == Mode::Traced).then(|| Recorder::new(Instant::now(), 0));

        let sweep = || timed(|| runner.run(&self.grid));
        let (report, wall_s) = match &mut recorder {
            None => sweep(),
            Some(rec) => rec.span("pass", 0, |rec| {
                let start = Instant::now();
                let (report, wall_s) = sweep();
                // The runner reports each point's wall, not its start;
                // the sweep is sequential, so lay them end to end.
                let mut at = start;
                for (op, record) in report.records.iter().enumerate() {
                    rec.record("dse.point", op as u32, at, at + record.wall);
                    at += record.wall;
                }
                let frontier = rec.span("dse.pareto", 0, |_| report.frontier());
                rec.count("dse.frontier_points", frontier.len() as f64);
                rec.span("dse.price", 0, |_| {
                    for point in &self.grid.points {
                        std::hint::black_box(runner.cost_model().price(&point.arch));
                    }
                });
                (report, wall_s)
            }),
        };

        let mut failures = Vec::new();
        if let Err(e) = self.check_report(&report, self.warm) {
            failures.push(e);
        }
        if mode == Mode::Warmup && !self.warm {
            match self.evaluate(&store, &report) {
                Ok(facts) => self.set_reference(facts),
                Err(e) => failures.push(e),
            }
        }
        let walls_ms: Vec<f64> = report
            .records
            .iter()
            .map(|r| r.wall.as_secs_f64() * 1e3)
            .collect();
        let mut layers = Layers::new();
        if let Some(rec) = &mut recorder {
            if let Err(e) = rec.span("replay", 0, |rec| {
                self.replay_point(rec, &replay.0, &replay.1)
            }) {
                failures.push(format!("replay: {e}"));
            }
            for (name, n) in [
                ("dse.solves", report.solves),
                ("dse.cache_hits", report.cache_hits),
                ("dse.cache_misses", report.cache_misses),
                ("dse.store_hits", report.store_hits),
                ("dse.store_misses", report.store_misses),
                ("core.store.hits", report.store_hits),
                ("core.store.misses", report.store_misses),
                ("core.store.corrupt", store.stats().corrupt),
                ("dse.failed_points", report.failed.len() as u64),
            ] {
                rec.count(name, n as f64);
            }
            layers = layers_of(rec);
            layers.insert("dse.point_wall_p50_ms", median(&walls_ms));
            layers.insert(
                "dse.point_wall_max_ms",
                walls_ms.iter().copied().fold(0.0, f64::max),
            );
        }
        let _ = std::fs::remove_dir_all(&sink_dir);
        if self.primed.is_none() {
            if let Some(previous) = self.latest.replace(dir) {
                let _ = std::fs::remove_dir_all(previous);
            }
        }
        // A failed sweep fails every point it did not measure; a failed
        // check fails the pass's points alike, since any could be wrong.
        if !failures.is_empty() {
            let first = failures[0].clone();
            failures.resize(n_points, first);
        }
        Pass {
            wall_s,
            latencies_ms: walls_ms,
            failures,
            layers,
            recorder,
        }
    }

    fn reference(&self) -> &Reference {
        &self.reference
    }

    fn setup_layers(&self) -> &Layers {
        &self.setup_layers
    }

    fn probes(&mut self, rng: &mut Rng) -> Layers {
        let base = presets::dynaplasia();
        let graphs: Vec<&Graph> = self.models.iter().map(|(_, g)| g).collect();
        let mut layers = probe::solve_windows(&base, &self.options, &graphs, rng);
        let archs: Vec<&DualModeArch> = self
            .points
            .iter()
            .flat_map(|p| std::iter::repeat_n(&p.arch, self.models.len()))
            .collect();
        layers.extend(probe::programs(&self.reference, &archs));
        if let Some(store) = self
            .primed
            .as_ref()
            .or(self.latest.as_ref())
            .and_then(|d| open_store(d).ok())
        {
            layers.extend(probe::snapshot(
                &store,
                &self.scratch.join("snapshot-probe"),
            ));
        }
        layers
    }
}
