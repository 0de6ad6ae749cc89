//! Fleet compilation: every model in the registry, one service, one
//! persistent artifact store.
//!
//! Builds the full benchmark registry (`cmswitch::models::registry`) and
//! compiles it three times:
//!
//! 1. **cold** — empty in-memory cache, empty store: every solve is paid;
//! 2. **warm cache** — the same session again: the allocation cache
//!    (L1) skips almost every MIP solve;
//! 3. **fresh process** — a brand-new session over the same store
//!    directory, in-memory caches empty: programs come straight off
//!    disk (L2) with *zero* solver invocations.
//!
//! The batch summaries print per-model compile times, solver
//! invocations, warm-start acceptance and the store hit/miss traffic.
//! Last, the cold registry is compiled again on one batch worker at 1
//! and at 2 solve workers.
//!
//! The example exits non-zero unless the cold batch's program totals
//! equal the sum of its outcomes' stats, the cold batch paid solves,
//! the warm batch paid fewer, the disk-warm batch paid none, and every
//! program's counters (all of `CompileStats` but the walls) are the same
//! at 1 and 2 solve workers.
//!
//! ```text
//! cargo run --release --example batch_compile
//! ```

use cmswitch::arch::presets;
use std::time::Duration;

use cmswitch::compiler::{ArtifactStore, CompileRequest, CompileStats, CompilerOptions, Session};
use cmswitch::models::registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = presets::dynaplasia();
    let (batch, seq) = (1, 64);
    let requests: Vec<CompileRequest> = registry::build_all(batch, seq)?
        .into_iter()
        .map(|(name, graph)| CompileRequest::new(graph).with_label(name))
        .collect();

    let store_dir =
        std::env::temp_dir().join(format!("cmswitch-batch-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let session = Session::builder(arch.clone())
        .store(ArtifactStore::open(&store_dir)?)
        .workers(4)
        .build();
    println!(
        "fleet: {} models (batch {batch}, seq {seq}) on {} workers, store at {}\n",
        requests.len(),
        session.workers(),
        store_dir.display()
    );

    println!("── cold batch (empty cache, empty store) ──");
    let cold = session.compile_batch(&requests);
    print!("{}", cold.summary());

    println!("\n── warm batch (in-memory cache reused) ──");
    let warm = session.compile_batch(&requests);
    print!("{}", warm.summary());

    println!(
        "\nwarm vs cold: {} → {} solver invocations ({:.1}x fewer), {:.2?} → {:.2?} wall",
        cold.stats.programs.solver_invocations(),
        warm.stats.programs.solver_invocations(),
        cold.stats.programs.solver_invocations() as f64
            / warm.stats.programs.solver_invocations().max(1) as f64,
        cold.stats.wall,
        warm.stats.wall,
    );
    println!(
        "warm starts: cold {} accepted / {} rejected",
        cold.stats.programs.warm_accepted, cold.stats.programs.warm_rejected
    );
    println!(
        "stage breakdown (cold, CPU time across workers): {}",
        cold.stats.stage_breakdown()
    );
    println!(
        "stage breakdown (warm):                          {}",
        warm.stats.stage_breakdown()
    );
    println!(
        "DP windows pruned without a solve: cold {}, warm {}",
        cold.stats.programs.dp_windows_pruned, warm.stats.programs.dp_windows_pruned
    );
    println!(
        "cache: {} entries; hit rate cold {:.0}%, warm {:.0}%",
        session.cache().len(),
        cold.stats.hit_rate() * 100.0,
        warm.stats.hit_rate() * 100.0
    );
    session.persist_alloc_snapshot()?;

    // The batch totals are the outcomes' own counter records, summed.
    let mut summed = CompileStats::default();
    for p in cold.outcomes.iter().filter_map(|o| o.result.as_ref().ok()) {
        summed.absorb(&p.stats);
    }
    if summed != cold.stats.programs {
        return Err(format!(
            "cold program totals {:?} differ from the sum of the outcomes' stats {summed:?}",
            cold.stats.programs
        )
        .into());
    }
    let (cold_solves, warm_solves) = (
        cold.stats.programs.solver_invocations(),
        warm.stats.programs.solver_invocations(),
    );
    if cold_solves == 0 || warm_solves >= cold_solves {
        return Err(format!(
            "expected a cold batch that solves and a warm one that solves less: \
             cold {cold_solves}, warm {warm_solves}"
        )
        .into());
    }

    // The restart: a fresh session, nothing shared but the directory.
    println!("\n── fresh process over the same store (disk-warm) ──");
    let fresh = Session::builder(arch.clone())
        .store(ArtifactStore::open(&store_dir)?)
        .workers(4)
        .build();
    let disk = fresh.compile_batch(&requests);
    print!("{}", disk.summary());
    println!(
        "\ndisk-warm: {} solver invocations, {} of {} served from the store, {:.2?} wall \
         ({:.1}x faster than cold)",
        disk.stats.programs.solver_invocations(),
        disk.stats.store_hits,
        requests.len(),
        disk.stats.wall,
        cold.stats.wall.as_secs_f64() / disk.stats.wall.as_secs_f64().max(1e-9),
    );
    if disk.stats.programs.solver_invocations() > 0 {
        return Err("a primed store must serve the registry without solving".into());
    }

    let _ = std::fs::remove_dir_all(&store_dir);

    // Every lookup is counted once, by the allocator that made it, and
    // every window is solved once: a program's counters do not depend
    // on the solve workers. One batch worker, so the models meet the
    // cold cache in a fixed order.
    let cold_at = |solve_workers: usize| {
        Session::builder(arch.clone())
            .options(CompilerOptions::default().with_solve_workers(solve_workers))
            .workers(1)
            .build()
            .compile_batch(&requests)
    };
    let (one, two) = (cold_at(1), cold_at(2));
    let counters = |stats: &CompileStats| CompileStats {
        wall: Duration::ZERO,
        stage_wall: Vec::new(),
        ..stats.clone()
    };
    for (a, b) in one.outcomes.iter().zip(&two.outcomes) {
        let (Ok(pa), Ok(pb)) = (&a.result, &b.result) else {
            return Err(format!("{} failed to compile cold", a.name).into());
        };
        if counters(&pa.stats) != counters(&pb.stats) {
            return Err(format!(
                "{}: counters differ between 1 and 2 solve workers: {:?} vs {:?}",
                a.name,
                counters(&pa.stats),
                counters(&pb.stats)
            )
            .into());
        }
    }
    println!(
        "\nsolve workers 1 vs 2: {} programs count the same ({} solves, {} cache hits, {} misses)",
        one.outcomes.len(),
        one.stats.programs.solver_invocations(),
        one.stats.cache_hits,
        one.stats.cache_misses,
    );
    Ok(())
}
