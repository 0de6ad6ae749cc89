//! Static verification sweep: every registry model, every backend, two
//! chips.
//!
//! Compiles the full benchmark registry (`cmswitch::models::registry`)
//! with each of the four backends (CMSwitch plus the PUMA / OCC /
//! CIM-MLC baselines) on the paper's DynaPlasia chip and on PRIME,
//! which splits the large transformers along other seams, runs the
//! `cmswitch::compiler::verify` rule book over every compiled program
//! via [`Session::verify`], and prints the findings. It also runs the
//! mode-discipline check the simulators run,
//! `cmswitch::metaop::validate_on`, on every program against its chip,
//! and simulates and traces every program on the event engine: the
//! traced report must equal the simulated one (the engine keeps its
//! per-array state by the run, and its per-id busy log only when
//! tracing), and the makespan must lie between the analytic lower bound
//! and the sequential replay. Exits non-zero if any `Deny` finding
//! fires, any flow fails that check or any simulation breaks either
//! rule — CI runs this as a whole-registry soundness gate.
//!
//! ```text
//! cargo run --release --example verify_registry
//! ```

use cmswitch::arch::presets;
use cmswitch::baselines::SessionBackendExt;
use cmswitch::compiler::{BackendKind, CompileRequest, Session};
use cmswitch::models::registry;
use cmswitch::sim::{latency_lower_bound, EventEngine, SequentialModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (batch, seq) = (1, 64);
    let models = registry::build_all(batch, seq)?;
    let chips = [presets::dynaplasia(), presets::prime()];
    println!(
        "verifying {} models x {} backends on {} chips\n",
        models.len(),
        BackendKind::ALL.len(),
        chips.len()
    );

    let mut deny = 0usize;
    let mut warn = 0usize;
    let mut checked = 0usize;
    let mut valid = 0usize;
    let mut simulated = 0usize;
    let engine = EventEngine::new();
    for arch in &chips {
        for kind in BackendKind::ALL {
            let session = Session::builder(arch.clone()).backend_kind(kind).build();
            for (name, graph) in &models {
                let outcome =
                    session.compile(CompileRequest::new(graph.clone()).with_label(name.clone()))?;
                let report = session.verify(&outcome);
                checked += 1;
                match cmswitch::metaop::validate_on(&outcome.program.flow, arch.n_arrays()) {
                    Ok(()) => valid += 1,
                    Err(e) => println!(
                        "{:>10} {:>8} {name:<12} validate_on: {e}",
                        arch.name(),
                        kind.name()
                    ),
                }
                let program = &outcome.program;
                let report_sim = engine.simulate_program(program, arch)?;
                let trace = engine.trace_program(program, arch)?;
                let sequential = SequentialModel.simulate(&program.flow, arch)?.total_cycles;
                let bound = latency_lower_bound(&program.flow, arch);
                let cycles = report_sim.total_cycles;
                if trace.report == report_sim && bound <= cycles && cycles <= sequential {
                    simulated += 1;
                } else {
                    println!(
                        "{:>10} {:>8} {name:<12} engine: trace == simulate {}, \
                         {bound} <= {cycles} <= {sequential}",
                        arch.name(),
                        kind.name(),
                        trace.report == report_sim,
                    );
                }
                deny += report.deny_count();
                warn += report.warn_count();
                let verdict = if !report.is_clean() {
                    "DENY"
                } else if report.warn_count() > 0 {
                    "warn"
                } else {
                    "ok"
                };
                println!(
                    "{:>10} {:>8} {:<12} {:>4} segments  {:>2} findings  {verdict}",
                    arch.name(),
                    kind.name(),
                    name,
                    outcome.program.segments.len(),
                    report.findings().len()
                );
                for finding in report.findings() {
                    println!("           {finding}");
                }
            }
        }
    }

    println!("\n{checked} programs verified: {deny} deny, {warn} warn findings");
    println!("{valid} of {checked} flows pass validate_on (each chip's arrays)");
    println!(
        "{simulated} of {checked} programs trace as they simulate, between the lower bound \
         and the sequential replay"
    );
    if deny > 0 {
        return Err(format!("{deny} deny findings across the registry").into());
    }
    if valid != checked {
        return Err(format!("{} flows fail validate_on", checked - valid).into());
    }
    if simulated != checked {
        return Err(format!("{} programs fail the engine's checks", checked - simulated).into());
    }
    Ok(())
}
