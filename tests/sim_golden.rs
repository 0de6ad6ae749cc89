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
//! then review and commit the updated `tests/golden/sim_registry.txt`
//! and `tests/golden/engine_reports.txt` (the second test: a digest of
//! every schedule-dependent field of every report, on every backend).

use std::fmt::Write as _;

use cmswitch::arch::presets;
use cmswitch::models::registry;
use cmswitch::prelude::*;

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

/// Every schedule-dependent bit of an [`EngineReport`], folded into one
/// word: the three cycle totals, the busy breakdown, every segment
/// window, every timeline interval and every critical-path step.
fn digest(report: &EngineReport) -> u64 {
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
    for t in &report.timelines {
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

fn report_line(out: &mut String, what: &str, model: &str, report: &EngineReport) {
    let intervals: usize = report.timelines.iter().map(|t| t.intervals.len()).sum();
    writeln!(
        out,
        "{what} {model} events={} intervals={intervals} digest={:016x}",
        report.critical_path.len(),
        digest(report),
    )
    .expect("writing to a String cannot fail");
}

/// One line per backend x registry model (`simulate_program`), then one
/// per model for the CMSwitch flow simulated bare (`simulate`, no
/// operator dependencies): the whole report, not just its summary.
#[test]
fn registry_engine_reports_match_golden_digest() {
    let arch = presets::dynaplasia();
    let engine = EventEngine::new();
    let mut out = String::new();
    let mut bare = String::new();
    for kind in BackendKind::ALL {
        let session = Session::builder(arch.clone()).backend_kind(kind).build();
        for &model in registry::ALL_MODELS {
            let graph = registry::build(model, 1, 16).expect("registered model builds");
            let program = session
                .compile_graph(&graph)
                .expect("registered model compiles");
            let report = engine
                .simulate_program(&program, &arch)
                .expect("compiled flow simulates");
            report_line(&mut out, kind.name(), model, &report);
            if kind == BackendKind::CmSwitch {
                let report = engine
                    .simulate(&program.flow, &arch)
                    .expect("bare flow simulates");
                report_line(&mut bare, "bare-flow", model, &report);
            }
        }
    }
    out.push_str(&bare);
    check_golden(REPORTS_PATH, &out);
}
