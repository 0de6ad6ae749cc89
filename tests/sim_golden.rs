//! Golden snapshots of the event-driven simulator over the full model
//! registry.
//!
//! Pins the engine-report summaries (total latency, energy, switch
//! count) for all 9 registry models compiled on the default DynaPlasia
//! preset with default compiler options. The numbers are fully
//! deterministic — the segmentation DP is exact, code generation is
//! deterministic, and the event schedule depends only on the emitted
//! flow — so any drift here means compiler or simulator behavior
//! actually changed.
//!
//! Regenerating after an *intentional* change:
//!
//! ```text
//! CMSWITCH_BLESS=1 cargo test --test sim_golden
//! ```
//!
//! then review and commit the updated `tests/golden/sim_registry.txt`,
//! `tests/golden/engine_reports.txt` (the second test: a digest of
//! every schedule-dependent field of every report, on every backend),
//! `tests/golden/co_schedules.txt` (the third: what the same forward
//! pass makes of several flows at once) and
//! `tests/golden/paper_figures.txt` (the fourth: the quick §5 reports
//! that print no wall clock). A diff in the first two means the
//! one-flow schedule moved; a diff in the third alone means the
//! arbitration rule or the amortized / injected switch handling did; a
//! diff in the fourth alone means a figure's own arithmetic did.
//! `tests/golden/plans.txt` is written beside the second: every
//! backend's plan (stage names, segment ranges, allocations, inter
//! costs and predicted latency, folded into one digest per model) plus
//! the greedy packer over the dual-mode allocator. A diff there with
//! none in `engine_reports.txt` means a plan or a prediction moved
//! without moving the flow the engine runs.

use std::fmt::Write as _;

use cmswitch::arch::presets;
use cmswitch::bench::experiments::{run_experiment, ExpConfig};
use cmswitch::models::registry;
use cmswitch::models::transformer::{decode_step, TransformerConfig};
use cmswitch::prelude::*;
use cmswitch::sim::{ChipScheduler, DecodeOptions, EngineTrace, TenancyPolicy};
use cmswitch::compiler::pipeline::Segmented;
use cmswitch::compiler::segment::{self, Segment};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sim_registry.txt"
);

/// One line per registry model: pipelined cycles, total energy and the
/// number of array mode switches, printed with 9 significant digits.
fn render() -> String {
    let session = Session::builder(presets::dynaplasia()).build();
    let mut out = String::new();
    for &model in registry::ALL_MODELS {
        let graph = registry::build(model, 1, 16).expect("registered model builds");
        let outcome = session
            .compile(CompileRequest::new(graph).with_label(model))
            .expect("registered model compiles");
        let sim = session.simulate(&outcome).expect("compiled flow simulates");
        writeln!(
            out,
            "{model} cycles={:.9e} energy_pj={:.9e} switches={}",
            sim.report.total_cycles,
            sim.report.energy.total_pj(),
            sim.report.switches_to_compute + sim.report.switches_to_memory,
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Compares `current` with the snapshot at `path`, or rewrites the
/// snapshot under `CMSWITCH_BLESS`.
fn check_golden(path: &str, current: &str) {
    if std::env::var_os("CMSWITCH_BLESS").is_some() {
        std::fs::write(path, current).expect("write golden snapshot");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden snapshot missing; regenerate with \
         `CMSWITCH_BLESS=1 cargo test --test sim_golden`",
    );
    assert_eq!(
        golden, current,
        "engine output drifted from {path}; if the change is intentional, \
         regenerate with CMSWITCH_BLESS=1 and commit the diff"
    );
}

#[test]
fn registry_engine_summaries_match_golden() {
    check_golden(GOLDEN_PATH, &render());
}

const REPORTS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/engine_reports.txt"
);

/// Every schedule-dependent bit of an [`EngineReport`] and of the
/// timelines recorded beside it, folded into one word: the three cycle
/// totals, the busy breakdown, every segment window, every timeline
/// interval and every critical-path step.
fn digest(trace: &EngineTrace) -> u64 {
    let report = &trace.report;
    let mut words = vec![
        report.total_cycles.to_bits(),
        report.serialized_cycles.to_bits(),
        report.switch_process_cycles.to_bits(),
        report.breakdown.switch.to_bits(),
        report.breakdown.weight_load.to_bits(),
        report.breakdown.compute.to_bits(),
        report.breakdown.mem_traffic.to_bits(),
        report.breakdown.vector.to_bits(),
    ];
    for s in &report.segments {
        words.extend([
            s.index as u64,
            s.start.to_bits(),
            s.end.to_bits(),
            s.load_cycles.to_bits(),
            s.exec_cycles.to_bits(),
            s.compute_ops as u64,
            s.energy_pj.to_bits(),
        ]);
    }
    for t in &trace.timelines {
        words.extend([
            u64::from(t.array.0),
            t.final_mode as u64,
            t.intervals.len() as u64,
        ]);
        for iv in &t.intervals {
            words.extend([iv.start.to_bits(), iv.end.to_bits(), iv.kind as u64]);
        }
    }
    for step in &report.critical_path {
        words.push(step.label.len() as u64);
        words.extend(step.label.bytes().map(u64::from));
        words.extend([step.start.to_bits(), step.end.to_bits()]);
    }
    cmswitch::solver::stable_hash64(&words)
}

fn report_line(out: &mut String, what: &str, model: &str, trace: &EngineTrace) {
    let intervals: usize = trace.timelines.iter().map(|t| t.intervals.len()).sum();
    writeln!(
        out,
        "{what} {model} events={} intervals={intervals} digest={:016x}",
        trace.report.critical_path.len(),
        digest(trace),
    )
    .expect("writing to a String cannot fail");
}

const PLANS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plans.txt");

/// One plan line: the stages that ran, the segment count, and a digest
/// of every segment's range, allocation and inter cost plus the total
/// predicted latency, all as exact bits.
fn plan_line(
    out: &mut String,
    what: &str,
    model: &str,
    stages: &[&str],
    segments: &[Segment],
    predicted_latency: f64,
) {
    let mut words = vec![predicted_latency.to_bits(), segments.len() as u64];
    for s in segments {
        let a = &s.alloc;
        words.extend([s.range.0, s.range.1, a.ops.len(), a.reuse.len()].map(|n| n as u64));
        words.extend([s.inter_before.to_bits(), a.latency.to_bits()]);
        for op in &a.ops {
            words.extend([op.compute, op.mem_in, op.mem_out].map(|n| n as u64));
        }
        for &((p, c), r) in &a.reuse {
            words.extend([p, c, r].map(|n| n as u64));
        }
    }
    writeln!(
        out,
        "{what} {model} stages={} segments={} digest={:016x}",
        stages.join(","),
        segments.len(),
        cmswitch::solver::stable_hash64(&words),
    )
    .expect("writing to a String cannot fail");
}

/// The ablation's greedy path: [`segment::greedy`] with the dual-mode
/// allocator.
fn greedy_plan_line(out: &mut String, arch: &DualModeArch, model: &str, graph: &Graph) {
    let opts = CompilerOptions::default();
    let mut cx = PipelineCx::new(arch, &opts);
    let lowered = cx.run(&LowerStage, graph).expect("registered model lowers");
    let partitioned = cx.run(&PartitionStage, lowered).expect("registered model partitions");
    let segmented = segment::greedy(partitioned, &cx.allocator(), &cx.cost_model(), &opts)
        .expect("every range allocates");
    let stages: Vec<_> = cx.timings().iter().map(|t| t.stage).collect();
    let Segmented { segments, total_latency, .. } = segmented;
    plan_line(out, "greedy-dual-mode", model, &stages, &segments, total_latency);
}

/// One line per backend x registry model (`trace_program`), then one
/// per model for the CMSwitch flow simulated bare (`trace`, no operator
/// dependencies): the whole report and its timelines, not just its
/// summary. `tests/sim_invariants.rs` pins that `simulate*` returns the
/// same report without them. The same compiles fill the plan golden.
#[test]
fn registry_engine_reports_match_golden_digest() {
    let arch = presets::dynaplasia();
    let engine = EventEngine::new();
    let mut out = String::new();
    let mut bare = String::new();
    let mut plans = String::new();
    let mut greedy = String::new();
    for kind in BackendKind::ALL {
        let session = Session::builder(arch.clone()).backend_kind(kind).build();
        for &model in registry::ALL_MODELS {
            let graph = registry::build(model, 1, 16).expect("registered model builds");
            let program = session
                .compile_graph(&graph)
                .expect("registered model compiles");
            let trace = engine
                .trace_program(&program, &arch)
                .expect("compiled flow simulates");
            report_line(&mut out, kind.name(), model, &trace);
            let stages: Vec<_> = program.stats.stage_wall.iter().map(|t| t.stage).collect();
            plan_line(
                &mut plans,
                kind.name(),
                model,
                &stages,
                &program.segments,
                program.predicted_latency,
            );
            if kind == BackendKind::CmSwitch {
                let trace = engine
                    .trace(&program.flow, &arch)
                    .expect("bare flow simulates");
                report_line(&mut bare, "bare-flow", model, &trace);
                greedy_plan_line(&mut greedy, &arch, model, &graph);
            }
        }
    }
    out.push_str(&bare);
    plans.push_str(&greedy);
    check_golden(REPORTS_PATH, &out);
    check_golden(PLANS_PATH, &plans);
}

const CO_SCHEDULES_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/co_schedules.txt"
);

/// One co-schedule per line: the numbers a reader compares, then a
/// digest of every bit the shared forward pass decided.
fn co_schedule_line(out: &mut String, what: &str, report: &TenancyReport) {
    let sw = &report.switches;
    let mut words = vec![
        report.total_cycles.to_bits(),
        report.serialized_cycles.to_bits(),
        report.fairness.to_bits(),
        sw.requested,
        sw.executed,
        sw.amortized,
        sw.injected,
        sw.switch_cycles.to_bits(),
    ];
    for t in &report.tenants {
        words.extend([t.finish_cycles, t.busy_cycles, t.solo_cycles].map(f64::to_bits));
    }
    writeln!(
        out,
        "{what} tenants={} cycles={:.9e} speedup={:.4} requested={} executed={} amortized={} \
         injected={} digest={:016x}",
        report.tenants.len(),
        report.total_cycles,
        report.speedup(),
        sw.requested,
        sw.executed,
        sw.amortized,
        sw.injected,
        cmswitch::solver::stable_hash64(&words),
    )
    .expect("writing to a String cannot fail");
}

/// The multi-flow side of the engine: the two pinned decode runs of
/// `tests/tenancy.rs` (partitioned), three time-sliced registry pairs
/// and two MLPs on half a `tiny` chip each.
#[test]
fn co_schedules_match_golden_digest() {
    let arch = presets::dynaplasia();
    let session = Session::builder(arch.clone()).build();
    let mut out = String::new();

    for tenancy in [2usize, 4] {
        let mut decode = DecodeLoop::new(&session).with_options(DecodeOptions {
            steps: 4,
            kv_headroom_bytes: 2048,
            ..DecodeOptions::default()
        });
        for i in 0..tenancy {
            let cfg = TransformerConfig {
                name: format!("tenant{i}"),
                layers: 1,
                hidden: 128,
                heads: 4,
                ffn_hidden: 256,
                vocab: 512,
                gated_ffn: false,
                lm_head: true,
            };
            decode = decode.tenant(DecodeTenant::new(
                cfg.name.clone(),
                1,
                8 + 4 * i,
                1024,
                move |kv| decode_step(&cfg, 1, kv),
            ));
        }
        let report = decode.run().expect("decode loop runs");
        co_schedule_line(&mut out, &format!("decode-partitioned-{tenancy}"), &report.tenancy);
    }

    for (a, b) in [
        ("bert-base", "resnet18"),
        ("resnet18", "bert-base"),
        ("resnet18", "llama2-7b"),
    ] {
        let [pa, pb] = [a, b].map(|model| {
            let graph = registry::build(model, 1, 16).expect("registered model builds");
            session.compile_graph(&graph).expect("registered model compiles")
        });
        let report = session
            .co_simulate(
                &[TenantProgram::new(a, &pa), TenantProgram::new(b, &pb)],
                CoSimOptions::default(),
            )
            .expect("time-sliced co-simulation");
        co_schedule_line(&mut out, &format!("time-sliced {a}+{b}"), &report);
    }

    let tiny = presets::tiny();
    let half = Session::builder(tiny.partition(4).expect("half a tiny chip")).build();
    let [pa, pb] = [&[96, 128, 64][..], &[64, 96, 32]].map(|dims| {
        let graph = cmswitch::models::mlp::mlp(2, dims).expect("mlp builds");
        half.compile_graph(&graph).expect("mlp compiles")
    });
    let report = ChipScheduler::new(tiny)
        .with_options(CoSimOptions {
            policy: TenancyPolicy::Partitioned { shares: vec![4, 4] },
            ..CoSimOptions::default()
        })
        .co_simulate(&[TenantProgram::new("a", &pa), TenantProgram::new("b", &pb)])
        .expect("partitioned co-simulation");
    co_schedule_line(&mut out, "tiny-partitioned-4+4 mlp+mlp", &report);

    check_golden(CO_SCHEDULES_PATH, &out);
}

const PAPER_FIGURES_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/paper_figures.txt"
);

/// The §5 experiments whose quick reports print no wall clock (`fig18`
/// and `ablation` report compile times, so they stay unpinned).
const PINNED_FIGURES: &[&str] = &[
    "fig1b", "fig5c", "fig6a", "fig6b", "fig14", "fig15", "fig16", "fig17", "overhead", "prime",
];

/// The paper's figures as `experiments <name> --quick` prints them: four
/// of them are CMSwitch-over-CIM-MLC speedups, so a baseline plan that
/// moves shows here even when no CMSwitch plan does.
#[test]
fn paper_figures_match_golden() {
    let cfg = ExpConfig {
        quick: true,
        ..ExpConfig::default()
    };
    let mut out = String::new();
    for &name in PINNED_FIGURES {
        let report = run_experiment(name, &cfg).expect("pinned experiment is registered");
        writeln!(out, "# {name}\n\n{report}").expect("writing to a String cannot fail");
    }
    check_golden(PAPER_FIGURES_PATH, &out);
}
