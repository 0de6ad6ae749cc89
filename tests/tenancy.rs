//! Integration tests for multi-tenant co-scheduling (`sim::tenancy`):
//! determinism across solve-worker counts, energy conservation across
//! tenants, mid-flight re-segmentation equivalence with cold
//! compilation, and the pinned co-scheduling speedup of the decode loop.

use cmswitch::models::registry;
use cmswitch::models::transformer::{decode_step, TransformerConfig};
use cmswitch::prelude::*;
use cmswitch::sim::{DecodeLoop, DecodeOptions, DecodeReport, TenancyError};

fn tiny_llm(name: &str) -> TransformerConfig {
    TransformerConfig {
        name: name.into(),
        layers: 2,
        hidden: 128,
        heads: 4,
        ffn_hidden: 256,
        vocab: 512,
        gated_ffn: false,
        lm_head: true,
    }
}

/// Time-sliced co-simulation of two registry models is bit-identical
/// no matter how many solver workers compiled the programs. Two
/// whole-chip programs have little to share, so time-slicing them is
/// worth what the pins say — about 1.00x, in either tenant order
/// (partitions are where co-scheduling pays: see the decode pins below).
#[test]
fn time_sliced_cosim_is_deterministic_across_solve_workers() {
    let arch = presets::dynaplasia();
    let reports: Vec<[TenancyReport; 2]> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| {
            let session = Session::builder(arch.clone())
                .options(CompilerOptions::default().with_solve_workers(workers))
                .build();
            let bert = session
                .compile_graph(&registry::build("bert-base", 1, 16).unwrap())
                .unwrap();
            let resnet = session
                .compile_graph(&registry::build("resnet18", 1, 16).unwrap())
                .unwrap();
            let bert = TenantProgram::new("bert-base", &bert);
            let resnet = TenantProgram::new("resnet18", &resnet);
            [[bert, resnet], [resnet, bert]].map(|tenants| {
                session
                    .co_simulate(&tenants, CoSimOptions::default())
                    .unwrap()
            })
        })
        .collect();

    let reference = &reports[0];
    for (order, speedup) in reference.iter().zip([1.002, 1.002]) {
        assert!(
            (order.speedup() - speedup).abs() <= 0.0005,
            "{} first: speedup over serialized moved from {speedup} to {:.4}",
            order.tenants[0].name,
            order.speedup()
        );
        assert!(order.fairness > 0.0 && order.fairness <= 1.0);
    }
    for report in &reports[1..] {
        // `TenancyReport` is PartialEq over f64 fields: bit-identity.
        assert_eq!(report, reference);
    }
}

/// The chip-level energy report is exactly the component-wise sum of
/// the per-tenant reports — energy is schedule-invariant, so slicing
/// the chip between tenants cannot create or destroy picojoules.
#[test]
fn tenant_energies_sum_to_the_chip_total() {
    let arch = presets::dynaplasia();
    let session = Session::builder(arch).build();
    let a = session
        .compile_graph(&cmswitch::models::mlp::mlp(2, &[256, 512, 256, 64]).unwrap())
        .unwrap();
    let b = session
        .compile_graph(&registry::build("resnet18", 1, 16).unwrap())
        .unwrap();
    let report = session
        .co_simulate(
            &[TenantProgram::new("mlp", &a), TenantProgram::new("resnet", &b)],
            CoSimOptions::default(),
        )
        .unwrap();

    let mut sum = cmswitch::sim::EnergyReport::default();
    for tenant in &report.tenants {
        assert!(tenant.energy.total_pj() > 0.0);
        sum.absorb(&tenant.energy);
    }
    assert_eq!(sum, report.energy);
    assert!(report.energy.total_pj() > 0.0);
}

/// A decode loop that re-segments on every step of KV growth ends on
/// exactly the plan a cold compile at the grown sequence length
/// produces — re-segmentation is a shortcut, not a different compiler.
#[test]
fn reseg_final_plan_matches_cold_compile_at_grown_kv() {
    let arch = presets::dynaplasia();
    let session = Session::builder(arch.clone()).build();
    let cfg = tiny_llm("tenant-llm");
    let kv_start = 8;
    let steps = 3;

    let run = |session: &Session| -> Result<DecodeReport, TenancyError> {
        let cfg = cfg.clone();
        cmswitch::sim::DecodeLoop::new(session)
            .tenant(DecodeTenant::new("llm", 1, kv_start, 1024, move |kv| {
                decode_step(&cfg, 1, kv)
            }))
            .with_options(cmswitch::sim::DecodeOptions {
                steps,
                // Zero headroom: every step of KV growth forces a
                // re-segmentation.
                kv_headroom_bytes: 0,
                ..cmswitch::sim::DecodeOptions::default()
            })
            .run()
    };

    let report = run(&session).unwrap();
    assert_eq!(report.resegmentations, steps as u64);
    assert_eq!(report.diagnostics.resegmentations(), steps as u64);
    let tenant = &report.tenants[0];
    assert_eq!(tenant.final_kv, kv_start + steps);

    // Cold compile the same decode graph at the grown KV length
    // against the same partition, with a completely fresh session.
    let cold_session = Session::builder(arch.clone())
        .build()
        .partitioned(arch.n_arrays())
        .unwrap();
    let cold = cold_session
        .compile_graph(&decode_step(&cfg, 1, tenant.final_kv).unwrap())
        .unwrap();
    let hot = &tenant.final_program;
    assert_eq!(hot.flow.stmts(), cold.flow.stmts());
    assert_eq!(hot.segments, cold.segments);
    assert_eq!(hot.op_deps, cold.op_deps);
    assert_eq!(hot.predicted_latency, cold.predicted_latency);

    // Warm path: the same loop against the same parent session hits
    // the shared allocation cache — zero allocator solves end to end.
    let warm = run(&session).unwrap();
    assert_eq!(warm.solves, 0, "warm re-run must be solve-free");
    assert_eq!(warm.resegmentations, report.resegmentations);
    assert_eq!(warm.total_cycles, report.total_cycles);
}

/// Co-scheduled decode at tenancy 2 and 4 — one-layer decoders under a
/// tight KV headroom, KV starts staggered so tenants re-segment on
/// different steps, like continuous batching. Re-segmentations fire, a
/// warm re-run is solve-free and bit-equal, and co-scheduling beats
/// running the tenants back-to-back by a pinned factor. Simulated
/// cycles are deterministic, so the pins hold to the published three
/// decimals: a change that moves them says so in CHANGES.md and re-pins.
#[test]
fn co_scheduled_decode_beats_serialization_by_the_pinned_factor() {
    let session = Session::builder(presets::dynaplasia()).build();
    for (tenancy, speedup) in [(2usize, 1.761), (4, 2.902)] {
        let run = || {
            let mut decode = DecodeLoop::new(&session).with_options(DecodeOptions {
                steps: 4,
                kv_headroom_bytes: 2048,
                ..DecodeOptions::default()
            });
            for i in 0..tenancy {
                let name = format!("tenant{i}");
                let cfg = TransformerConfig {
                    layers: 1,
                    ..tiny_llm(&name)
                };
                decode = decode.tenant(DecodeTenant::new(name, 1, 8 + 4 * i, 1024, move |kv| {
                    decode_step(&cfg, 1, kv)
                }));
            }
            decode.run().unwrap()
        };
        let cold = run();
        assert!(
            cold.resegmentations > 0,
            "tenancy {tenancy}: KV growth must force a re-segmentation"
        );
        let warm = run();
        assert_eq!(warm.solves, 0, "tenancy {tenancy}: warm re-run must be solve-free");
        assert_eq!(warm.total_cycles.to_bits(), cold.total_cycles.to_bits());
        assert!(
            cold.tenancy.total_cycles < cold.tenancy.serialized_cycles,
            "tenancy {tenancy}: co-scheduling must beat serialization"
        );
        // Partitions are disjoint: sharing the bus and the vector unit
        // can only delay a tenant, and nobody flips a neighbour's arrays.
        let switches = &cold.tenancy.switches;
        assert_eq!((switches.injected, switches.amortized), (0, 0));
        assert_eq!(switches.requested, switches.executed);
        for t in &cold.tenancy.tenants {
            assert!(t.solo_cycles <= t.finish_cycles, "tenancy {tenancy}: {t:?}");
            assert!(t.finish_cycles <= cold.tenancy.total_cycles, "tenancy {tenancy}: {t:?}");
        }
        assert!(
            (cold.tenancy.speedup() - speedup).abs() <= 0.0005,
            "tenancy {tenancy}: speedup over serialized moved from {speedup} to {:.4}",
            cold.tenancy.speedup()
        );
    }
}
