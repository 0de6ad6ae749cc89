//! Compile-and-simulate driver shared by all experiments.

use std::time::Duration;

use cmswitch_core::{CompileError, Session};
use cmswitch_graph::Graph;
use cmswitch_sim::EventEngine;

use crate::workloads::Workload;

/// Outcome of running one workload through one backend.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Backend name.
    pub backend: String,
    /// Workload name.
    pub workload: String,
    /// Simulated end-to-end cycles on the event engine (generative:
    /// prefill + weighted decode).
    pub cycles: f64,
    /// The same schedule fully serialized (the sequential reference
    /// model) — `cycles <= serialized_cycles` always holds; the gap is
    /// the latency hidden by overlap.
    pub serialized_cycles: f64,
    /// The compiler's own latency prediction (cycles).
    pub predicted: f64,
    /// Total compilation wall time.
    pub compile_time: Duration,
    /// Segments in the plan (prefill plan for generative workloads).
    pub segments: usize,
    /// Average memory-mode array ratio across segments (averaged over
    /// phases for generative workloads, weighted by cycles).
    pub memory_ratio: f64,
    /// Fraction of simulated time in the mode-switch process (§5.5).
    pub switch_fraction: f64,
}

/// Compiles `workload` through `session` and simulates it, executing
/// the compiled plan on the event-driven engine (`cmswitch-sim::engine`)
/// so every backend is scored by the same cycle-level model, pipelining
/// and contention included.
///
/// Generative workloads compile the prefill graph and every decode
/// sample, summing simulated cycles weighted by the steps each sample
/// represents; a single graph is one phase of weight 1.
///
/// # Errors
///
/// Propagates [`CompileError`] (simulation failures of validated flows
/// are compiler bugs and surface as [`CompileError::InvalidFlow`]).
pub fn run_workload(session: &Session, workload: &Workload) -> Result<RunResult, CompileError> {
    let phases: Vec<(&Graph, f64)> = match workload {
        Workload::Single(graph) => vec![(graph, 1.0)],
        Workload::Generative(gen) => std::iter::once((&gen.prefill, 1.0))
            .chain(gen.decode_samples.iter().map(|s| (&s.graph, s.steps)))
            .collect(),
    };
    let engine = EventEngine::new();
    let mut r = RunResult {
        backend: session.backend_name().to_string(),
        workload: workload.name().to_string(),
        cycles: 0.0,
        serialized_cycles: 0.0,
        predicted: 0.0,
        compile_time: Duration::ZERO,
        segments: 0,
        memory_ratio: 0.0,
        switch_fraction: 0.0,
    };
    for (i, (graph, steps)) in phases.into_iter().enumerate() {
        let program = session.compile_graph(graph)?;
        let report = engine
            .simulate_program(&program, session.arch())
            .map_err(CompileError::InvalidFlow)?;
        let step_cycles = report.total_cycles * steps;
        r.cycles += step_cycles;
        r.serialized_cycles += report.serialized_cycles * steps;
        r.predicted += program.predicted_latency * steps;
        r.compile_time += program.stats.wall;
        if i == 0 {
            r.segments = program.segments.len();
        }
        r.memory_ratio += program.average_memory_ratio() * step_cycles;
        r.switch_fraction += report.switch_process_fraction() * step_cycles;
    }
    if r.cycles > 0.0 {
        r.memory_ratio /= r.cycles;
        r.switch_fraction /= r.cycles;
    }
    Ok(r)
}

/// Runs `workload` through several sessions (one per backend),
/// returning results in the same order. Sessions run in parallel
/// (scoped threads).
///
/// # Errors
///
/// Propagates the first [`CompileError`] encountered.
pub fn run_backends(
    sessions: &[Session],
    workload: &Workload,
) -> Result<Vec<RunResult>, CompileError> {
    let mut slots: Vec<Option<Result<RunResult, CompileError>>> =
        (0..sessions.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, session) in slots.iter_mut().zip(sessions) {
            s.spawn(move || {
                *slot = Some(run_workload(session, workload));
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Speedup of `ours` relative to `baseline` (higher = ours faster).
pub fn speedup(baseline: &RunResult, ours: &RunResult) -> f64 {
    if ours.cycles <= 0.0 {
        return f64::INFINITY;
    }
    baseline.cycles / ours.cycles
}

/// Geometric mean of a set of ratios.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build;
    use cmswitch_arch::presets;
    use cmswitch_baselines::{BackendKind, SessionBackendExt};

    #[test]
    fn runs_single_and_generative() {
        let session = Session::builder(presets::dynaplasia()).build();
        let w = build("bert-base", 1, 16, 0, 0.1, 1).unwrap();
        let r = run_workload(&session, &w).unwrap();
        assert!(r.cycles > 0.0);
        assert!(
            r.cycles <= r.serialized_cycles,
            "the event engine may never lose to the serial replay: {} vs {}",
            r.cycles,
            r.serialized_cycles
        );
        let w = build("llama2-7b", 1, 8, 8, 0.06, 1).unwrap();
        let r = run_workload(&session, &w).unwrap();
        assert!(r.cycles > 0.0);
        assert!(r.cycles <= r.serialized_cycles);
        assert!(r.memory_ratio >= 0.0 && r.memory_ratio <= 1.0);
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn parallel_backends_agree_with_serial() {
        let arch = presets::dynaplasia();
        let sessions = [BackendKind::CimMlc, BackendKind::CmSwitch]
            .map(|kind| Session::builder(arch.clone()).backend_kind(kind).build());
        let w = build("bert-base", 1, 16, 0, 0.1, 1).unwrap();
        let par = run_backends(&sessions, &w).unwrap();
        let ser: Vec<_> = sessions.iter().map(|s| run_workload(s, &w).unwrap()).collect();
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.backend, s.backend);
            assert!((p.cycles - s.cycles).abs() < 1e-6 * s.cycles.max(1.0));
        }
    }
}
