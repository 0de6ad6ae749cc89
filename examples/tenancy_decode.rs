//! Multi-tenant continuous decode on one dual-mode chip.
//!
//! Two independently compiled decoder tenants share a DynaPlasia chip
//! under static array partitions while a continuous-batching decode
//! loop grows their KV caches token by token. When a tenant's plan no
//! longer fits its partition the loop re-segments it mid-flight
//! through a partition sub-session — hitting the parent session's
//! allocation cache, so a warm re-run plans without a single allocator
//! solve. The partitioned co-schedule outruns back-to-back
//! single-tenant execution, every solo baseline being the event engine's
//! own makespan; a time-sliced run of the same programs shows what
//! sharing arrays costs in re-switches.
//!
//! ```text
//! cargo run --release --example tenancy_decode
//! ```

use cmswitch::models::transformer::{decode_step, TransformerConfig};
use cmswitch::prelude::*;
use cmswitch::sim::{DecodeLoop, DecodeOptions, DecodeReport, SwitchAmortization, TenancyError};

fn tenant_cfg(name: &str, layers: usize, hidden: usize) -> TransformerConfig {
    TransformerConfig {
        name: name.into(),
        layers,
        hidden,
        heads: hidden / 32,
        ffn_hidden: 2 * hidden,
        vocab: 512,
        gated_ffn: false,
        lm_head: true,
    }
}

fn run_loop(session: &Session, steps: usize) -> Result<DecodeReport, TenancyError> {
    let alpha = tenant_cfg("alpha", 2, 128);
    let beta = tenant_cfg("beta", 1, 256);
    DecodeLoop::new(session)
        .tenant(DecodeTenant::new("alpha", 1, 8, 1024, move |kv| {
            decode_step(&alpha, 1, kv)
        }))
        .tenant(DecodeTenant::new("beta", 1, 16, 2048, move |kv| {
            decode_step(&beta, 1, kv)
        }))
        .with_options(DecodeOptions {
            steps,
            // Re-segment once a tenant's KV cache has grown 4 KiB past
            // its compiled plan.
            kv_headroom_bytes: 4096,
            ..DecodeOptions::default()
        })
        .run()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = presets::dynaplasia();
    let session = Session::builder(arch.clone()).build();
    let steps = 8;

    // Cold run: tenants compile from scratch, then decode with
    // mid-flight re-segmentation as the KV caches grow.
    let cold = run_loop(&session, steps)?;
    println!(
        "cold decode: {} tenants x {} steps = {} tokens in {:.0} cycles ({:.0} tokens/sec/chip @1GHz)",
        cold.tenants.len(),
        cold.steps,
        cold.tokens,
        cold.total_cycles,
        cold.tokens_per_sec
    );
    for t in &cold.tenants {
        println!(
            "  {:>6}: final kv {:>3}, {} re-segmentation(s), {} allocator solve(s)",
            t.name, t.final_kv, t.resegmentations, t.solves
        );
    }
    assert!(
        cold.resegmentations > 0,
        "KV growth must force at least one mid-flight re-segmentation"
    );
    assert_eq!(
        cold.diagnostics.resegmentations(),
        cold.resegmentations,
        "every re-segmentation must surface as a typed diagnostic"
    );

    // Admission verification ran on every (re-)admitted program set —
    // a verifier finding would have failed the run with a typed error.
    // Double-check the final programs verify clean, per tenant.
    let verifier = Verifier::new();
    for t in &cold.tenants {
        let sub = arch.partition(arch.n_arrays() / cold.tenants.len())?;
        let report = verifier.run(&t.final_program, &sub);
        assert_eq!(
            report.deny_count(),
            0,
            "tenant {} final plan must verify clean",
            t.name
        );
    }
    println!("verifier: all final tenant plans clean");

    // Warm run: same loop, same session — every compile (initial and
    // re-segmentation) is served from the shared allocation cache.
    let warm = run_loop(&session, steps)?;
    assert_eq!(warm.solves, 0, "warm re-run must be solve-free");
    assert_eq!(warm.total_cycles, cold.total_cycles);
    println!(
        "warm re-run: {} allocator solves across {} compiles (cache-served)",
        warm.solves,
        warm.resegmentations + warm.tenants.len() as u64
    );

    // The partitioned co-schedule of the final programs beats running
    // the tenants back-to-back on the same chip — and "back-to-back" is
    // the event engine's word: one scheduler prices both sides.
    let report = &cold.tenancy;
    println!(
        "co-scheduled step: {:.0} cycles vs {:.0} serialized ({:.2}x), fairness {:.3}",
        report.total_cycles,
        report.serialized_cycles,
        report.speedup(),
        report.fairness
    );
    let sub = arch.partition(arch.n_arrays() / cold.tenants.len())?;
    for (t, decoded) in report.tenants.iter().zip(&cold.tenants) {
        let alone = EventEngine::new().simulate_program(&decoded.final_program, &sub)?;
        assert_eq!(
            t.solo_cycles.to_bits(),
            alone.total_cycles.to_bits(),
            "tenant {}: the solo baseline must be the event engine's makespan",
            t.name
        );
        assert!(t.solo_cycles <= report.total_cycles);
    }
    assert!(report.total_cycles <= report.serialized_cycles);
    let print_switches = |what: &str, sw: &SwitchAmortization| {
        assert_eq!(sw.requested, sw.executed + sw.amortized);
        println!(
            "{what} switches: {} requested, {} executed, {} amortized, {} injected",
            sw.requested, sw.executed, sw.amortized, sw.injected
        );
    };
    print_switches("partitioned", &report.switches);

    // The same two programs time-sliced over the same arrays instead:
    // they spare each other some switches and pay for others.
    let tenants: Vec<TenantProgram> = cold
        .tenants
        .iter()
        .map(|t| TenantProgram::new(&t.name, &t.final_program))
        .collect();
    let sliced = session.co_simulate(&tenants, CoSimOptions::default())?;
    println!(
        "time-sliced step: {:.0} cycles ({:.2}x), fairness {:.3}",
        sliced.total_cycles,
        sliced.speedup(),
        sliced.fairness
    );
    print_switches("time-sliced", &sliced.switches);
    Ok(())
}
