//! Design-space exploration quickstart — and the CI smoke gate for the
//! `dse` subsystem.
//!
//! Sweeps a small grid of chip variants around the tiny preset through
//! the real compiler and cycle-level simulator, prices each point with
//! the analytic area/power model, and prints the per-point table, the
//! Pareto frontier and the CSV export. Exits non-zero if any point
//! fails compilation/verification/simulation, if a point whose
//! allocation fingerprint matches an earlier point's pays a single
//! solve, if the sweep is not warm-served on a re-run through the same
//! runner, if a fresh runner over the store the first sweep filled
//! solves or simulates anything or measures any point differently, or
//! if the frontier comes out empty — those are the invariants CI holds
//! the subsystem to.
//!
//! ```text
//! cargo run --release --example dse_frontier
//! ```

use cmswitch::arch::presets;
use cmswitch::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The first sweep fills a temporary store; the disk-warm leg reads
    // it back through a fresh runner.
    let dir = std::env::temp_dir().join(format!("cmswitch-dse-frontier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run(dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error>> {
    // 2 array counts x 2 switch latencies x 2 bus widths = 8 chips,
    // including an invalid zero-latency row to show typed rejection.
    let grid = SweepSpace::around(presets::tiny())
        .with_array_counts([4, 8])
        .with_switch_latencies([0, 1, 8])
        .with_bus_widths([8, 16])
        .instantiate();
    println!(
        "grid: {} valid points, {} rejected",
        grid.points.len(),
        grid.rejected.len()
    );
    for r in &grid.rejected {
        println!("  rejected {}: {}", r.spec, r.reason);
    }

    let workload = vec![
        (
            "mlp-wide".to_string(),
            cmswitch::models::mlp::mlp(4, &[256, 512, 128])?,
        ),
        (
            "mlp-deep".to_string(),
            cmswitch::models::mlp::mlp(2, &[128, 128, 128, 128, 64])?,
        ),
    ];
    let runner = SweepRunner::new(workload.clone()).with_store(ArtifactStore::open(dir)?);

    let cold = runner.run(&grid);
    if let Some(failed) = cold.failed.first() {
        return Err(format!(
            "point {} failed on {}: {}",
            failed.spec, failed.model, failed.failure
        )
        .into());
    }
    println!("\ncold sweep: {}", cold.summary());
    print!("{}", cold.table());

    // The L1 cache keys on what the allocator reads, so a point that
    // differs from an earlier one only in switch latency (or buffer
    // size, or switch method) must be served every allocation.
    let mut classes: Vec<u64> = Vec::new();
    for (point, record) in grid.points.iter().zip(&cold.records) {
        let class = point.arch.allocation_fingerprint();
        if !classes.contains(&class) {
            classes.push(class);
        } else if record.solves != 0 {
            return Err(format!(
                "{} repeats an earlier point's allocation problems but paid {} solves",
                point.spec, record.solves
            )
            .into());
        }
    }
    println!(
        "{} allocation classes: {} of {} points solved nothing",
        classes.len(),
        grid.points.len() - classes.len(),
        grid.points.len()
    );

    // Same grid again through the same runner: every point is served
    // from the L0 record memo without recompiling or re-simulating.
    let warm = runner.run(&grid);
    println!("warm sweep: {}", warm.summary());
    if warm.solves != 0 {
        return Err(format!(
            "warm re-sweep paid {} solves — warmth must serve all of them",
            warm.solves
        )
        .into());
    }
    if warm.point_hits != grid.points.len() as u64 {
        return Err(format!(
            "warm re-sweep evaluated {} of {} points — the record memo must serve them all",
            grid.points.len() as u64 - warm.point_hits,
            grid.points.len()
        )
        .into());
    }

    // A fresh runner on a fresh store handle, as a new process would
    // have: every program is read, checksummed and verified, and every
    // engine report is read from beside it — nothing solves or simulates.
    let disk_warm = SweepRunner::new(workload)
        .with_store(ArtifactStore::open(dir)?)
        .run(&grid);
    println!("disk-warm sweep: {}", disk_warm.summary());
    if disk_warm.solves != 0 || disk_warm.simulations != 0 {
        return Err(format!(
            "disk-warm re-sweep paid {} solves and {} simulations — the store must serve all of them",
            disk_warm.solves, disk_warm.simulations
        )
        .into());
    }
    if disk_warm.records.len() != cold.records.len()
        || disk_warm
            .records
            .iter()
            .zip(&cold.records)
            .any(|(w, c)| !w.same_measurement(c))
    {
        return Err("the disk-warm re-sweep measured a point differently".into());
    }

    let frontier = cold.frontier();
    if frontier.is_empty() {
        return Err("sweep produced an empty Pareto frontier".into());
    }
    println!("\nPareto frontier over (latency, energy, area):");
    print!("{}", frontier.table(&cold.records));

    println!("\nCSV export:\n{}", cold.csv());
    Ok(())
}
