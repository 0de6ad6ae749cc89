//! End-to-end integration: models → compiler/baselines → simulator,
//! checking the paper's headline orderings hold across the stack.

use cmswitch::arch::presets;
use cmswitch::bench::harness::run_workload;
use cmswitch::bench::workloads::build;
use cmswitch::compiler::artifact::{decode_program, encode_program};
use cmswitch::prelude::*;

#[test]
fn every_benchmark_compiles_and_simulates_on_dynaplasia() {
    let arch = presets::dynaplasia();
    for model in ["mobilenetv2", "resnet18"] {
        let w = build(model, 1, 0, 0, 1.0, 1).unwrap();
        for kind in BackendKind::ALL {
            let session = Session::builder(arch.clone()).backend_kind(kind).build();
            let r = run_workload(&session, &w).unwrap_or_else(|e| panic!("{model}/{kind}: {e}"));
            assert!(
                r.cycles.is_finite() && r.cycles > 0.0,
                "{model}/{kind} produced {} cycles",
                r.cycles
            );
        }
    }
    // VGG16 is the largest CNN (13 partitioned FC chunks); exercise it on
    // the two backends the paper's headline comparison needs.
    let w = build("vgg16", 1, 0, 0, 1.0, 1).unwrap();
    for kind in [BackendKind::CimMlc, BackendKind::CmSwitch] {
        let session = Session::builder(arch.clone()).backend_kind(kind).build();
        let r = run_workload(&session, &w).unwrap_or_else(|e| panic!("vgg16/{kind}: {e}"));
        assert!(r.cycles > 0.0);
    }
}

#[test]
fn transformers_compile_and_simulate_depth_scaled() {
    let arch = presets::dynaplasia();
    for model in ["bert-base", "bert-large", "llama2-7b", "opt-6.7b", "opt-13b"] {
        let w = build(model, 1, 32, 32, 0.06, 1).unwrap();
        let session = Session::builder(arch.clone()).build();
        let r = run_workload(&session, &w).unwrap();
        assert!(r.cycles > 0.0, "{model}");
    }
}

#[test]
fn cmswitch_dominates_mlc_across_benchmark_sweep() {
    // The dual-mode space strictly contains the all-compute space, so
    // under the shared cost model CMSwitch must never lose by more than
    // model/simulator divergence noise (2%).
    let arch = presets::dynaplasia();
    for (model, inl, outl) in [
        ("bert-large", 64, 0),
        ("opt-6.7b", 64, 64),
        ("resnet18", 0, 0),
    ] {
        let w = build(model, 2, inl, outl, 0.06, 1).unwrap();
        let mlc = Session::builder(arch.clone()).backend_kind(BackendKind::CimMlc).build();
        let ours = Session::builder(arch.clone()).build();
        let rm = run_workload(&mlc, &w).unwrap();
        let ro = run_workload(&ours, &w).unwrap();
        assert!(
            ro.cycles <= rm.cycles * 1.02,
            "{model}: cmswitch {} vs mlc {}",
            ro.cycles,
            rm.cycles
        );
    }
}

#[test]
fn decode_heavy_workload_shows_dual_mode_gain() {
    // Paper Fig. 16 regime: batched generative inference with a long
    // sequence is where dual-mode switching pays off most.
    let arch = presets::dynaplasia();
    let w = build("opt-6.7b", 8, 256, 256, 0.06, 2).unwrap();
    let mlc = Session::builder(arch.clone()).backend_kind(BackendKind::CimMlc).build();
    let ours = Session::builder(arch).build();
    let rm = run_workload(&mlc, &w).unwrap();
    let ro = run_workload(&ours, &w).unwrap();
    let speedup = rm.cycles / ro.cycles;
    assert!(
        speedup > 1.1,
        "expected >1.1x dual-mode gain on decode-heavy workload, got {speedup:.3}"
    );
    assert!(
        ro.memory_ratio > 0.05,
        "CMSwitch should hold a visible share of arrays in memory mode, got {}",
        ro.memory_ratio
    );
}

#[test]
fn compiled_flows_always_validate_and_roundtrip() {
    let arch = presets::dynaplasia();
    for model in ["resnet18", "bert-base"] {
        let w = build(model, 1, 32, 0, 0.06, 1).unwrap();
        let g = match &w {
            cmswitch::bench::workloads::Workload::Single(g) => g.clone(),
            cmswitch::bench::workloads::Workload::Generative(gen) => gen.prefill.clone(),
        };
        let mut program = Session::builder(arch.clone()).build().compile_graph(&g)
            .unwrap();
        cmswitch::metaop::validate(&program.flow).unwrap();
        let bytes = encode_program(&program);
        let decoded = decode_program(&bytes).unwrap();
        // The wire carries the plan, not the run history.
        program.stats = CompileStats::default();
        assert_eq!(decoded, program, "{model} program does not roundtrip");
        assert_eq!(encode_program(&decoded), bytes, "{model} re-encode differs");
    }
}

#[test]
fn predicted_latency_tracks_simulation() {
    // The DP's analytic total and the simulator's execution of the
    // emitted flow implement the same model; they must agree closely.
    let arch = presets::dynaplasia();
    for model in ["resnet18", "vgg11"] {
        let w = build(model, 1, 0, 0, 1.0, 1).unwrap();
        let g = match &w {
            cmswitch::bench::workloads::Workload::Single(g) => g.clone(),
            _ => unreachable!("cnn"),
        };
        let program = Session::builder(arch.clone()).build().compile_graph(&g)
            .unwrap();
        let report = simulate(&program.flow, &arch).unwrap();
        let ratio = report.total_cycles / program.predicted_latency;
        assert!(
            (0.5..2.0).contains(&ratio),
            "{model}: sim/predicted = {ratio:.3}"
        );
    }
}
