//! Output checks. A program that fails one fails the operation that
//! produced it.
//!
//! Three references, none of them written by a timed run: the
//! repository's hand-committed `tests/golden/sim_registry.txt` (read at
//! compile time, never written), this package's `expected/<workload>.txt`
//! (written only by `--bless`), and within a run the facts of each
//! target's own cold compile, which every later compile or store fetch of
//! that target must reproduce bit for bit.

use std::fmt::Write as _;
use std::path::PathBuf;

use cmswitch::arch::DualModeArch;
use cmswitch::compiler::artifact::encode_program;
use cmswitch::compiler::{CompileStats, CompiledProgram, CompilerOptions, Session, Verifier};
use cmswitch::metaop::Stmt;
use cmswitch::models::registry;
use cmswitch::prelude::presets;
use cmswitch::sim::{latency_lower_bound, EngineReport, EventEngine};

/// What the checks establish about one compiled program, kept as the
/// reference for every later compile or fetch of the same target.
#[derive(Debug, Clone)]
pub struct Facts {
    /// The program's wire bytes with the compile statistics zeroed (wall
    /// times differ between any two compiles; the plan must not).
    pub plan_bytes: Vec<u8>,
    pub latency_bits: u64,
    pub segments: u64,
    /// Statements of the flow, counting inside `parallel` blocks.
    pub stmts: u64,
    pub switches: u64,
    pub warn: u64,
    pub cycles: f64,
    pub serialized_cycles: f64,
    pub switch_cycles: f64,
    pub energy_pj: f64,
    pub memory_array_cycles: f64,
    pub array_cycles: f64,
}

/// The wire bytes of the plan alone.
pub fn plan_bytes(program: &CompiledProgram) -> Vec<u8> {
    let mut plan = program.clone();
    plan.stats = CompileStats::default();
    encode_program(&plan)
}

pub fn count_stmts(stmts: &[Stmt]) -> u64 {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Parallel(body) => 1 + count_stmts(body),
            _ => 1,
        })
        .sum()
}

/// Every check one program gets: no `Deny` finding from the static
/// verifier, a flow that passes `metaop::validate`, and a simulated
/// makespan between the analytic lower bound and the serialized replay.
///
/// # Errors
///
/// The first check that failed, in words.
pub fn check_program(program: &CompiledProgram, arch: &DualModeArch) -> Result<Facts, String> {
    let verdict = Verifier::new().run(program, arch);
    if verdict.deny_count() > 0 {
        return Err(format!("verifier denied the program:\n{verdict}"));
    }
    cmswitch::metaop::validate(&program.flow).map_err(|e| format!("flow invalid: {e}"))?;
    let sim = EventEngine::new()
        .simulate_program(program, arch)
        .map_err(|e| format!("simulation failed: {e}"))?;
    check_makespan(program, arch, &sim)?;
    Ok(Facts {
        plan_bytes: plan_bytes(program),
        latency_bits: program.predicted_latency.to_bits(),
        segments: program.segments.len() as u64,
        stmts: count_stmts(program.flow.stmts()),
        switches: program.flow.stats().switch_ops,
        warn: verdict.warn_count() as u64,
        cycles: sim.total_cycles,
        serialized_cycles: sim.serialized_cycles,
        switch_cycles: sim.switch_process_cycles,
        energy_pj: sim.energy.total_pj(),
        memory_array_cycles: sim.breakdown.memory_mode(),
        array_cycles: sim.breakdown.total_array_cycles(),
    })
}

fn check_makespan(
    program: &CompiledProgram,
    arch: &DualModeArch,
    sim: &EngineReport,
) -> Result<(), String> {
    let bound = latency_lower_bound(&program.flow, arch);
    if bound <= sim.total_cycles && sim.total_cycles <= sim.serialized_cycles {
        Ok(())
    } else {
        Err(format!(
            "makespan {} outside [lower bound {bound}, serialized {}]",
            sim.total_cycles, sim.serialized_cycles
        ))
    }
}

impl Facts {
    /// The cheap per-operation check on the timed path: the plan's
    /// predicted latency and shape equal the reference's.
    pub fn same_plan(&self, program: &CompiledProgram) -> bool {
        program.predicted_latency.to_bits() == self.latency_bits
            && program.segments.len() as u64 == self.segments
    }

    /// The full check on the untimed path: identical wire bytes.
    pub fn same_bytes(&self, program: &CompiledProgram) -> bool {
        plan_bytes(program) == self.plan_bytes
    }
}

const GOLDEN: &str = include_str!("../../tests/golden/sim_registry.txt");

/// Compiles and simulates the registry at seq 16 exactly as
/// `tests/sim_golden.rs` does and compares with the committed snapshot.
///
/// # Errors
///
/// The first line that differs.
pub fn golden_registry() -> Result<(), String> {
    let session = Session::builder(presets::dynaplasia()).build();
    let mut lines = GOLDEN.lines();
    for &model in registry::ALL_MODELS {
        let graph = registry::build(model, 1, 16).map_err(|e| e.to_string())?;
        let program = session.compile_graph(&graph).map_err(|e| e.to_string())?;
        let sim = EventEngine::new()
            .simulate_program(&program, session.arch())
            .map_err(|e| e.to_string())?;
        let line = format!(
            "{model} cycles={:.9e} energy_pj={:.9e} switches={}",
            sim.total_cycles,
            sim.energy.total_pj(),
            sim.switches_to_compute + sim.switches_to_memory,
        );
        let want = lines.next().unwrap_or("<missing>");
        if line != want {
            return Err(format!(
                "tests/golden/sim_registry.txt: got `{line}`, committed `{want}`"
            ));
        }
    }
    Ok(())
}

/// The metrics of one workload that repeat exactly, whatever the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    pub sim_cycles: f64,
    pub sim_energy_pj: f64,
    pub speedup_vs_cimmlc: f64,
    pub segments: u64,
    pub stmts: u64,
}

impl Exact {
    /// Nine significant digits, one metric a line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "sim_cycles {:.8e}", self.sim_cycles).unwrap();
        writeln!(out, "sim_energy_pj {:.8e}", self.sim_energy_pj).unwrap();
        writeln!(out, "speedup_vs_cimmlc {:.8e}", self.speedup_vs_cimmlc).unwrap();
        writeln!(out, "core.segment.segments {}", self.segments).unwrap();
        writeln!(out, "core.emit.stmts {}", self.stmts).unwrap();
        out
    }
}

fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected")).join(format!("{workload}.txt"))
}

/// Compares a run's exact metrics with `expected/<workload>.txt`, or
/// rewrites the file when `bless` is set.
///
/// # Errors
///
/// The rendered difference, or the I/O error.
pub fn check_expected(workload: &str, exact: &Exact, bless: bool) -> Result<(), String> {
    let path = expected_path(workload);
    let got = exact.render();
    if bless {
        return std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))
            .and_then(|()| std::fs::write(&path, got))
            .map_err(|e| format!("{}: {e}", path.display()));
    }
    let want = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (write it with --bless)", path.display()))?;
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "exact metrics differ from {}:\n--- expected\n{want}--- got\n{got}",
            path.display()
        ))
    }
}

/// The options every workload compiles under: defaults plus the verify
/// stage, so a `Deny` finding fails the compile itself.
pub fn options() -> CompilerOptions {
    CompilerOptions::default().with_verify(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metrics_render_nine_significant_digits() {
        let exact = Exact {
            sim_cycles: 4_801_619.2,
            sim_energy_pj: 5.601_550_936e9,
            speedup_vs_cimmlc: 1.397_123_456_789,
            segments: 36,
            stmts: 1234,
        };
        assert_eq!(
            exact.render(),
            "sim_cycles 4.80161920e6\nsim_energy_pj 5.60155094e9\n\
             speedup_vs_cimmlc 1.39712346e0\ncore.segment.segments 36\ncore.emit.stmts 1234\n"
        );
    }

    #[test]
    fn statements_inside_parallel_blocks_count() {
        use cmswitch::arch::ArrayId;
        use cmswitch::metaop::SwitchKind;
        let switch = || Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]);
        let flow = [switch(), Stmt::Parallel(vec![switch(), switch()])];
        assert_eq!(count_stmts(&flow), 4);
    }

    #[test]
    fn a_compiled_program_passes_and_a_broken_one_does_not() {
        let arch = presets::tiny();
        let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 64]).unwrap();
        let session = Session::builder(arch.clone()).options(options()).build();
        let program = session.compile_graph(&graph).unwrap();
        let facts = check_program(&program, &arch).unwrap();
        assert!(facts.cycles > 0.0 && facts.cycles <= facts.serialized_cycles);
        assert!(facts.same_plan(&program) && facts.same_bytes(&program));
        // Wall times differ between compiles; the plan bytes must not.
        let again = session.compile_graph(&graph).unwrap();
        assert!(facts.same_bytes(&again));

        let mut broken = program.clone();
        broken.predicted_latency += 1.0;
        assert!(!facts.same_plan(&broken) && !facts.same_bytes(&broken));
        // Dropping the switches leaves arrays in the wrong mode.
        let mut unswitched = cmswitch::metaop::Flow::new("broken");
        for stmt in program.flow.stmts() {
            if !matches!(stmt, Stmt::Switch { .. }) {
                unswitched.push(stmt.clone());
            }
        }
        broken.flow = unswitched;
        assert!(check_program(&broken, &arch).is_err());
    }
}
