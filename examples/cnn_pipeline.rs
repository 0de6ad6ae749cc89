//! CNN compilation: ResNet-18 on the DynaPlasia chip.
//!
//! Shows the per-segment dual-mode allocation for a convolutional
//! network — earlier high-arithmetic-intensity layers lean compute-heavy,
//! wide later layers pick up memory-mode arrays for bandwidth, echoing
//! the paper's Fig. 15(a) discussion. Ends with the event engine's
//! per-array utilization histogram, from the one entry point that records
//! per-array timelines (`EventEngine::trace_program`).
//!
//! ```text
//! cargo run --release --example cnn_pipeline
//! ```

use cmswitch::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = presets::dynaplasia();
    let graph = cmswitch::models::resnet::resnet18(1)?;

    let session = Session::builder(arch.clone()).build();
    let program = session.compile_graph(&graph)?;
    println!(
        "resnet18: {} CIM ops -> {} segments, predicted {:.2}M cycles, compiled in {:?}",
        program.ops.len(),
        program.segments.len(),
        program.predicted_latency / 1e6,
        program.stats.wall
    );
    println!("\nper-segment allocation (compute | memory arrays):");
    for (i, seg) in program.segments.iter().enumerate() {
        let ops = &program.ops[seg.range.0..=seg.range.1];
        let (first, last) = (&ops[0].name, &ops[ops.len() - 1].name);
        let c = seg.alloc.total_compute();
        let m = seg.alloc.total_memory();
        let bar: String = "#".repeat(c / 2) + &"=".repeat(m / 2);
        println!(
            "  seg {i:>2} [{first} .. {last}] ({} ops)  C={c:<3} M={m:<3} {bar}",
            ops.len()
        );
    }

    let report = simulate(&program.flow, &arch)?;
    println!(
        "\nsimulated {:.2}M cycles; mode-switch process {:.2}% of runtime (paper: 3-5%)",
        report.total_cycles / 1e6,
        report.switch_process_fraction() * 100.0
    );

    // Per-array detail is recorded on request: `trace_program` is
    // `simulate_program` plus the busy timelines the histogram reads.
    let trace = EventEngine::new().trace_program(&program, &arch)?;
    let histogram = trace.utilization_histogram();
    println!(
        "event engine {:.2}M cycles; arrays by utilization (0-9% .. 90-99%, 100%): {histogram:?}",
        trace.report.total_cycles / 1e6
    );
    let counted: u64 = histogram.iter().sum();
    if counted != arch.n_arrays() as u64 {
        return Err(format!(
            "utilization histogram counts {counted} arrays, the chip has {}",
            arch.n_arrays()
        )
        .into());
    }
    Ok(())
}
