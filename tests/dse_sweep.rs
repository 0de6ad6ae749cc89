//! Integration tests for the design-space exploration subsystem
//! (`cmswitch::dse`): grid instantiation, typed rejection, sweep
//! determinism across worker counts, and property-tested Pareto
//! frontier minimality/completeness.

use proptest::prelude::*;

use cmswitch::arch::presets;
use cmswitch::dse::{frontier_indices, ParetoFrontier, SweepError, SweepGrid};
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
    let report = SweepRunner::new(workload())
        .with_options(unverified.clone())
        .with_cache(poisoned)
        .run(&grid);
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
    assert_eq!(memo_warm.records, cold.records);
    for (c, w) in cold.records.iter().zip(&disk_warm.records) {
        assert_eq!(c.spec, w.spec);
        assert_eq!(c.fingerprint, w.fingerprint);
        assert_eq!(c.latency_cycles, w.latency_cycles);
        assert_eq!(c.energy_pj, w.energy_pj);
        assert_eq!(c.cost, w.cost);
        assert_eq!(c.avg_power_mw, w.avg_power_mw);
        assert_eq!(c.occupancy, w.occupancy);
        assert_eq!(c.verify_warnings, w.verify_warnings);
        assert_eq!(c.per_model, w.per_model);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
