//! Integration tests for the design-space exploration subsystem
//! (`cmswitch::dse`): grid instantiation, typed rejection, sweep
//! determinism across worker counts, engine reports kept in the store,
//! and property-tested Pareto frontier minimality/completeness.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use cmswitch::arch::presets;
use cmswitch::compiler::{StoreFetch, StoreKey, StoreStats};
use cmswitch::dse::{
    frontier_indices, AreaPowerModel, ParetoFrontier, SweepError, SweepGrid, SweepRecord,
};
use cmswitch::prelude::*;

fn workload() -> Vec<(String, Graph)> {
    vec![
        (
            "mlp-a".to_string(),
            cmswitch::models::mlp::mlp(2, &[96, 128, 64]).unwrap(),
        ),
        (
            "mlp-b".to_string(),
            cmswitch::models::mlp::mlp(3, &[64, 96, 96, 32]).unwrap(),
        ),
    ]
}

#[test]
fn degenerate_single_point_space_sweeps_the_base_chip() {
    let base = presets::tiny();
    let grid = SweepSpace::around(base.clone()).instantiate();
    assert_eq!(grid.points.len(), 1);
    assert!(grid.rejected.is_empty());
    assert_eq!(grid.points[0].arch.fingerprint(), base.fingerprint());

    let report = SweepRunner::new(workload()).run(&grid);
    assert_eq!(report.records.len(), 1);
    assert!(report.failed.is_empty());
    let record = &report.records[0];
    assert!(record.latency_cycles > 0.0);
    assert!(record.energy_pj > 0.0);
    assert!(record.cost.area_mm2 > 0.0);
    assert!(record.avg_power_mw <= record.cost.peak_power_mw);
    // The single point trivially is the whole frontier.
    let frontier = report.frontier();
    assert_eq!(frontier.indices, vec![0]);
    assert!(frontier.contains(0));
}

#[test]
fn invalid_grid_points_are_rejected_with_typed_diagnostics() {
    // Zero arrays, zero switch latency and a capacity-less buffer are
    // all invalid for different, *distinguishable* reasons — and none
    // of them panic.
    let grid = SweepSpace::around(presets::tiny())
        .with_array_counts([0, 8])
        .with_switch_latencies([0, 1])
        .with_buffer_bytes([0, 4096])
        .instantiate();
    assert_eq!(grid.points.len(), 1, "only the fully valid corner survives");
    assert_eq!(grid.rejected.len(), 7);
    assert!(grid
        .rejected
        .iter()
        .any(|r| matches!(r.reason, SweepError::ZeroSwitchLatency)));
    assert!(grid
        .rejected
        .iter()
        .any(|r| matches!(r.reason, SweepError::BufferWithoutCapacity)));
    assert!(grid
        .rejected
        .iter()
        .any(|r| matches!(r.reason, SweepError::Arch(_))));
    for r in &grid.rejected {
        // Every rejection renders a human-readable diagnostic.
        assert!(!r.reason.to_string().is_empty());
    }

    // Rejections ride along into the sweep report; the valid point still
    // gets measured.
    let report = SweepRunner::new(workload()).run(&grid);
    assert_eq!(report.records.len(), 1);
    assert_eq!(report.rejected.len(), 7);
    assert!(report.failed.is_empty());
}

#[test]
fn sweep_records_are_deterministic_across_worker_counts() {
    let grid = SweepSpace::around(presets::tiny())
        .with_array_counts([4, 8])
        .with_switch_latencies([1, 4])
        .instantiate();
    let reports: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| {
            SweepRunner::new(workload())
                .with_workers(workers)
                .with_options(CompilerOptions::default().with_solve_workers(workers))
                .run(&grid)
        })
        .collect();
    let reference = &reports[0];
    assert_eq!(reference.records.len(), 4);
    for report in &reports[1..] {
        assert_eq!(report.records.len(), reference.records.len());
        for (a, b) in report.records.iter().zip(&reference.records) {
            // Everything measured is bit-identical; only wall time may
            // differ.
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.latency_cycles, b.latency_cycles);
            assert_eq!(a.energy_pj, b.energy_pj);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.avg_power_mw, b.avg_power_mw);
            assert_eq!(a.per_model, b.per_model);
            // Every measured point obeys the power envelope: DRAM
            // energy is billed over its transfer window, so average
            // power cannot exceed the saturated-rate peak rating.
            assert!(
                a.avg_power_mw <= a.cost.peak_power_mw,
                "avg {} mW exceeds peak {} mW",
                a.avg_power_mw,
                a.cost.peak_power_mw
            );
        }
        assert_eq!(report.frontier().indices, reference.frontier().indices);
    }
}

#[test]
fn shared_cache_warms_across_runners() {
    let grid = SweepSpace::around(presets::tiny())
        .with_array_counts([4, 8])
        .instantiate();
    let first = SweepRunner::new(workload());
    let cold = first.run(&grid);
    assert!(cold.solves > 0);

    // A *different* runner sharing the same cache is warm from the
    // start.
    let second = SweepRunner::new(workload()).with_cache(std::sync::Arc::clone(first.cache()));
    let warm = second.run(&grid);
    assert_eq!(warm.solves, 0);
    assert!(warm.cache_hits > 0);
    for (c, w) in cold.records.iter().zip(&warm.records) {
        assert_eq!(c.latency_cycles, w.latency_cycles);
        assert_eq!(c.energy_pj, w.energy_pj);
    }
}

/// The L1 cache keys on what the allocator reads, so a point that only
/// changes the switch latency is served every allocation by its earlier
/// sibling — and sharing never changes what a point measures.
#[test]
fn switch_siblings_share_every_solve_and_measure_what_they_measure_alone() {
    let grid = SweepSpace::around(presets::tiny())
        .with_array_counts([4, 8])
        .with_switch_latencies([1, 4])
        .instantiate();
    let report = SweepRunner::new(workload()).run(&grid);
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    let solves: Vec<u64> = report.records.iter().map(|r| r.solves).collect();
    let hits: Vec<u64> = report.records.iter().map(|r| r.cache_hits).collect();
    // Grid order: (4, sw1), (4, sw4), (8, sw1), (8, sw4). Each sw4
    // sibling is served all five of its windows by the sw1 point before
    // it (a MIP miss counts two solver runs: its fast warm start too).
    // The 8-array sw1 point's MIP solves also ask for three neighbour
    // windows (their warm starts) that are already cached: three hits.
    assert_eq!(solves, [10, 0, 10, 0], "measured solves per point");
    assert_eq!(hits, [0, 5, 3, 5], "measured cache hits per point");

    for (shared, point) in report.records.iter().zip(&grid.points) {
        let alone = SweepRunner::new(workload()).run(&SweepGrid {
            points: vec![point.clone()],
            rejected: Vec::new(),
        });
        let alone = &alone.records[0];
        assert!(alone.solves > 0, "{}: a fresh runner solves", point.spec);
        assert_eq!(shared.spec, alone.spec);
        assert_eq!(shared.fingerprint, alone.fingerprint);
        assert_eq!(shared.latency_cycles.to_bits(), alone.latency_cycles.to_bits());
        assert_eq!(shared.energy_pj.to_bits(), alone.energy_pj.to_bits());
        assert_eq!(shared.cost, alone.cost);
        assert_eq!(shared.avg_power_mw.to_bits(), alone.avg_power_mw.to_bits());
        assert_eq!(shared.occupancy, alone.occupancy);
        assert_eq!(shared.per_model, alone.per_model);
    }
}

/// The bus width is an allocator input (`D_main`): bus-width siblings
/// are distinct allocation problems and each still solves.
#[test]
fn bus_width_siblings_still_solve() {
    let grid = SweepSpace::around(presets::tiny())
        .with_bus_widths([8, 16])
        .instantiate();
    let report = SweepRunner::new(workload()).run(&grid);
    assert_eq!(report.records.len(), 2);
    for record in &report.records {
        assert!(record.solves > 0, "{} solved nothing", record.spec);
    }
}

#[test]
fn empty_sweep_has_empty_frontier() {
    let report = SweepRunner::new(workload()).run(&SweepGrid::default());
    assert!(report.records.is_empty());
    assert!(report.frontier().is_empty());
    assert_eq!(report.table().lines().count(), 1, "header only");
}

fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    cmswitch::dse::dominates(a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The frontier is *minimal*: no returned point is dominated by any
    // input point (in particular not by another frontier point).
    #[test]
    fn pareto_frontier_is_minimal(
        points in proptest::collection::vec(
            proptest::array::uniform3(0.0f64..100.0), 1..40),
    ) {
        let pts: Vec<[f64; 3]> = points;
        let frontier = frontier_indices(&pts);
        prop_assert!(!frontier.is_empty(), "a non-empty set has a frontier");
        for &i in &frontier {
            for (j, other) in pts.iter().enumerate() {
                prop_assert!(
                    !dominates(other, &pts[i]),
                    "frontier point {i} {:?} is dominated by {j} {:?}",
                    pts[i], other
                );
            }
        }
    }

    // The frontier is *complete*: every non-dominated input point is
    // returned.
    #[test]
    fn pareto_frontier_is_complete(
        points in proptest::collection::vec(
            proptest::array::uniform3(0.0f64..100.0), 1..40),
    ) {
        let pts: Vec<[f64; 3]> = points;
        let frontier = frontier_indices(&pts);
        for (i, p) in pts.iter().enumerate() {
            let dominated = pts.iter().any(|other| dominates(other, p));
            prop_assert!(
                frontier.contains(&i) != dominated,
                "point {i} {p:?} membership disagrees with dominance"
            );
        }
    }

    // Quantized coordinates force ties and duplicates; the two
    // properties must survive them (duplicates of a frontier point all
    // stay on the frontier).
    #[test]
    fn pareto_frontier_handles_ties_and_duplicates(
        points in proptest::collection::vec(
            proptest::array::uniform3(0.0f64..4.0), 2..30),
    ) {
        let pts: Vec<[f64; 3]> = points
            .into_iter()
            .map(|p| [p[0].floor(), p[1].floor(), p[2].floor()])
            .collect();
        let frontier = frontier_indices(&pts);
        for &i in &frontier {
            // A duplicate of a frontier point is also on the frontier.
            for (j, other) in pts.iter().enumerate() {
                if *other == pts[i] {
                    prop_assert!(frontier.contains(&j));
                }
            }
        }
        // Minimality under ties: no frontier member dominates another.
        for &i in &frontier {
            for &j in &frontier {
                prop_assert!(!dominates(&pts[i], &pts[j]) || i == j);
            }
        }
    }
}

#[test]
fn frontier_extraction_matches_raw_indices_on_real_records() {
    let grid = SweepSpace::around(presets::tiny())
        .with_array_counts([4, 8])
        .with_bus_widths([8, 16])
        .instantiate();
    let report = SweepRunner::new(workload()).run(&grid);
    let frontier: ParetoFrontier = report.frontier();
    let raw: Vec<[f64; 3]> = report.records.iter().map(|r| r.objectives()).collect();
    assert_eq!(frontier.indices, frontier_indices(&raw));
    // The rendered table lists exactly the frontier rows (plus header).
    let table = frontier.table(&report.records);
    assert_eq!(table.lines().count(), frontier.len() + 1);
}

/// The runner takes the verifier's verdict from the session when the
/// session has one (store hits are always gated, cold compiles only
/// when the options enable the verify stage) and runs the verifier
/// itself otherwise. Either way a `Deny` fails the point, and what a
/// point measures does not depend on which of the two verified it.
#[test]
fn unverified_sessions_still_gate_points_and_records_match_across_warmth() {
    let unverified = CompilerOptions::default().with_verify(false);
    let grid = SweepSpace::around(presets::tiny())
        .with_array_counts([4, 8])
        .instantiate();

    // A poisoned allocation cache: every cached window grants its last
    // op far more output buffers than the chip has arrays. Code
    // generation hands out what exists and the compile succeeds; only
    // the verifier can object.
    let honest = SweepRunner::new(workload()).with_options(unverified.clone());
    assert!(honest.run(&grid).failed.is_empty());
    let mut entries = honest.cache().export_entries();
    for (_, _, alloc) in &mut entries {
        if let Some(op) = alloc.as_mut().and_then(|a| a.ops.last_mut()) {
            op.mem_out += 1000;
        }
    }
    let poisoned = AllocationCache::new();
    poisoned.import_entries(entries);
    // With a store attached the poisoned programs are written back, but
    // the runner's verifier refuses them before any report is read or
    // written.
    let poisoned_dir = temp_store_dir("poisoned");
    let poisoned_store = ArtifactStore::open(&poisoned_dir).unwrap();
    let report = SweepRunner::new(workload())
        .with_options(unverified.clone())
        .with_cache(poisoned)
        .with_store(Arc::clone(&poisoned_store))
        .run(&grid);
    let stats = poisoned_store.stats();
    assert!(stats.writes > 0, "the poisoned programs were stored");
    assert_eq!((stats.report_hits, stats.report_writes), (0, 0));
    assert_eq!(report_files(&poisoned_store), 0, "a denied point wrote a report");
    assert_eq!((report.simulations, report.reports_reused), (0, 0));
    let _ = std::fs::remove_dir_all(&poisoned_dir);
    assert!(report.records.is_empty(), "poisoned plans entered the frontier");
    assert_eq!(report.failed.len(), grid.points.len());
    for failed in &report.failed {
        assert!(
            matches!(failed.failure, cmswitch::dse::SweepFailure::VerifyDenied { deny } if deny > 0),
            "{}: {}",
            failed.model,
            failed.failure
        );
    }

    // Cold (runner verifies), memo-warm (nothing runs) and disk-warm
    // (the session's store-hit gate verifies) measure the same thing.
    let dir = std::env::temp_dir().join(format!("cmswitch-dse-warmth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).unwrap();
    let first = SweepRunner::new(workload())
        .with_options(unverified.clone())
        .with_store(std::sync::Arc::clone(&store));
    let cold = first.run(&grid);
    let memo_warm = first.run(&grid);
    let disk_warm = SweepRunner::new(workload())
        .with_options(unverified)
        .with_store(store)
        .run(&grid);
    assert!(cold.solves > 0 && cold.failed.is_empty());
    assert_eq!(disk_warm.solves, 0);
    assert!(disk_warm.store_hits > 0);
    assert_eq!(disk_warm.simulations, 0, "the store holds every report");
    assert_eq!(memo_warm.records, cold.records);
    assert_same_measurements(&cold, &disk_warm);
    let _ = std::fs::remove_dir_all(&dir);
}

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmswitch-dse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn report_files(store: &ArtifactStore) -> usize {
    std::fs::read_dir(store.root().join("reports")).map_or(0, |dir| dir.count())
}

fn report_grid() -> SweepGrid {
    SweepSpace::around(presets::tiny())
        .with_array_counts([4, 8])
        .instantiate()
}

/// A cold sweep that fills a fresh store at `dir`: every program is
/// simulated once and its report written beside it.
fn prime(dir: &std::path::Path, grid: &SweepGrid) -> SweepReport {
    let store = ArtifactStore::open(dir).unwrap();
    let cold = SweepRunner::new(workload())
        .with_store(Arc::clone(&store))
        .run(grid);
    let programs = (grid.points.len() * workload().len()) as u64;
    assert!(cold.failed.is_empty(), "{:?}", cold.failed);
    assert_eq!((cold.simulations, cold.reports_reused), (programs, 0));
    assert_eq!(store.stats().report_writes, programs);
    cold
}

/// A fresh runner on a fresh store handle, as a new process would
/// have: nothing memoized, nothing vouched for.
fn rerun(dir: &std::path::Path, grid: &SweepGrid) -> (SweepReport, StoreStats) {
    let store = ArtifactStore::open(dir).unwrap();
    let report = SweepRunner::new(workload())
        .with_store(Arc::clone(&store))
        .run(grid);
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    (report, store.stats())
}

fn assert_same_measurements(a: &SweepReport, b: &SweepReport) {
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert!(x.same_measurement(y), "{x:?}\nvs\n{y:?}");
    }
}

fn without_wall(records: &[SweepRecord]) -> Vec<SweepRecord> {
    let mut records = records.to_vec();
    for r in &mut records {
        r.wall = Duration::ZERO;
    }
    records
}

/// The store key of `model` (in `workload()` order) at `grid` point `p`.
fn key_of(grid: &SweepGrid, p: usize, model: usize) -> StoreKey {
    let options = CompilerOptions::default();
    StoreKey::for_compile(&grid.points[p].arch, "cmswitch", &options, &workload()[model].1)
}

#[test]
fn a_fresh_runner_over_a_primed_store_simulates_nothing() {
    let dir = temp_store_dir("reports-warm");
    let grid = report_grid();
    let cold = prime(&dir, &grid);
    let programs = cold.simulations;

    let (warm, stats) = rerun(&dir, &grid);
    assert_eq!((warm.simulations, warm.reports_reused), (0, programs));
    assert_eq!((warm.solves, warm.store_misses), (0, 0));
    assert_eq!((stats.report_hits, stats.report_misses, stats.report_writes), (programs, 0, 0));
    assert!(warm.summary().contains("0 simulations"), "{}", warm.summary());
    assert_same_measurements(&cold, &warm);

    // Without the reports the same warm sweep simulates every program,
    // writes each report back and records exactly what the report-served
    // sweep did, run history included.
    std::fs::remove_dir_all(dir.join("reports")).unwrap();
    std::fs::create_dir(dir.join("reports")).unwrap();
    let (simulated, stats) = rerun(&dir, &grid);
    assert_eq!((simulated.simulations, simulated.reports_reused), (programs, 0));
    assert_eq!((stats.report_misses, stats.report_writes), (programs, programs));
    assert_eq!(without_wall(&simulated.records), without_wall(&warm.records));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_program_overwritten_under_its_key_is_simulated_again() {
    let dir = temp_store_dir("reports-stale");
    let grid = report_grid();
    let cold = prime(&dir, &grid);

    // Other bytes under one key: the same plan with another predicted
    // latency, which the verifier accepts and the engine never reads.
    let store = ArtifactStore::open(&dir).unwrap();
    let key = key_of(&grid, 1, 0);
    let StoreFetch::Hit(mut program) = store.fetch_program(key) else {
        panic!("the primed store holds the program");
    };
    program.predicted_latency += 1.0;
    store.put_program(key, &program).unwrap();

    let (warm, stats) = rerun(&dir, &grid);
    assert_eq!((warm.simulations, warm.reports_reused), (1, cold.simulations - 1));
    assert_eq!((stats.report_misses, stats.report_writes), (1, 1));
    assert_same_measurements(&cold, &warm);
    // The rewritten report names the new payload.
    let (again, _) = rerun(&dir, &grid);
    assert_eq!(again.simulations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_reports_are_counted_simulated_and_rewritten() {
    let dir = temp_store_dir("reports-corrupt");
    let grid = report_grid();
    let cold = prime(&dir, &grid);

    let store = ArtifactStore::open(&dir).unwrap();
    let model = AreaPowerModel::default().energy.fingerprint();
    let truncated = store.report_path(key_of(&grid, 0, 0), model);
    let bytes = std::fs::read(&truncated).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() - 3]).unwrap();
    let flipped = store.report_path(key_of(&grid, 1, 1), model);
    let mut bytes = std::fs::read(&flipped).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    std::fs::write(&flipped, bytes).unwrap();

    let (warm, stats) = rerun(&dir, &grid);
    assert_eq!((warm.simulations, warm.reports_reused), (2, cold.simulations - 2));
    assert_eq!((stats.report_corrupt, stats.report_writes), (2, 2));
    assert_eq!(stats.corrupt, 0, "a bad report is not a bad program");
    assert_same_measurements(&cold, &warm);
    let (again, stats) = rerun(&dir, &grid);
    assert_eq!((again.simulations, stats.report_corrupt), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_runner_with_another_energy_model_reuses_nothing() {
    let dir = temp_store_dir("reports-model");
    let grid = report_grid();
    let cold = prime(&dir, &grid);

    let mut pricier = AreaPowerModel::default();
    pricier.energy.pj_per_mac *= 2.0;
    let store = ArtifactStore::open(&dir).unwrap();
    let report = SweepRunner::new(workload())
        .with_cost_model(pricier.clone())
        .with_store(Arc::clone(&store))
        .run(&grid);
    assert_eq!((report.simulations, report.reports_reused), (cold.simulations, 0));
    assert_eq!(store.stats().report_writes, cold.simulations);
    assert_eq!(report_files(&store) as u64, 2 * cold.simulations, "one per model");
    for (c, p) in cold.records.iter().zip(&report.records) {
        assert_eq!(c.latency_cycles, p.latency_cycles);
        assert!(p.energy_pj > c.energy_pj);
    }
    // Each model finds its own reports.
    let (default_model, _) = rerun(&dir, &grid);
    assert_eq!(default_model.simulations, 0);
    assert_same_measurements(&cold, &default_model);
    let again = SweepRunner::new(workload())
        .with_cost_model(pricier)
        .with_store(ArtifactStore::open(&dir).unwrap())
        .run(&grid);
    assert_eq!(again.simulations, 0);
    assert_same_measurements(&report, &again);
    let _ = std::fs::remove_dir_all(&dir);
}
