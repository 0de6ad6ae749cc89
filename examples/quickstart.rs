//! Quickstart: compile a small MLP for a tiny dual-mode chip and inspect
//! the emitted meta-operator flow.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cmswitch::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A network. The builder runs shape inference at every step.
    let mut b = GraphBuilder::new("quickstart-mlp");
    let x = b.input("x", vec![8, 256]);
    let h = b.linear("fc1", x, 512)?;
    let h = b.relu("relu1", h)?;
    let h = b.linear("fc2", h, 512)?;
    let h = b.relu("relu2", h)?;
    let _y = b.linear("fc3", h, 64)?;
    let graph = b.finish()?;

    // 2. A dual-mode chip (8 arrays of 64x64 — the tiny test preset; use
    //    presets::dynaplasia() for the paper's Table 2 chip).
    let arch = presets::tiny();
    println!(
        "chip: {} arrays of {}x{}, OP_cim={:.0} MACs/cyc, D_cim={:.0} B/cyc, D_main={:.0} B/cyc",
        arch.n_arrays(),
        arch.array_rows(),
        arch.array_cols(),
        arch.op_cim(),
        arch.d_cim(),
        arch.d_main()
    );

    // 3. A session (the unified entry point: backend-generic, cached,
    //    cancellable), then compile: DP segmentation + MIP dual-mode
    //    allocation + codegen.
    let session = Session::builder(arch.clone()).build();
    let outcome = session.compile(CompileRequest::new(graph).with_label("quickstart"))?;
    let program = &outcome.program;
    println!(
        "\ncompiled {} ops into {} segments, predicted latency {:.0} cycles",
        program.ops.len(),
        program.segments.len(),
        program.predicted_latency
    );
    for (i, seg) in program.segments.iter().enumerate() {
        let names: Vec<_> = program.ops[seg.range.0..=seg.range.1]
            .iter()
            .map(|o| &o.name)
            .collect();
        println!(
            "  segment {i}: ops {names:?}  compute={} memory={} ({}% memory)",
            seg.alloc.total_compute(),
            seg.alloc.total_memory(),
            (seg.alloc.memory_ratio() * 100.0).round()
        );
    }

    // 4. Typed diagnostics: what the compiler did, structurally.
    print!("\ndiagnostics:\n{}", outcome.diagnostics);

    // 5. The meta-operator flow (Fig. 13 syntax) — note the CM.switch ops.
    println!("\nmeta-operator flow:\n{}", print_flow(&program.flow));

    // 6. Execute on the timing simulator.
    let report = simulate(&program.flow, &arch)?;
    println!(
        "simulated {:.0} cycles ({} array-switches to compute, {} to memory, switch process {:.2}% of time)",
        report.total_cycles,
        report.switches_to_compute,
        report.switches_to_memory,
        report.switch_process_fraction() * 100.0
    );
    Ok(())
}
