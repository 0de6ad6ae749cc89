//! Generative LLM inference: the paper's headline workload.
//!
//! Compiles an OPT-6.7B-shaped decoder (depth-scaled for speed) as a
//! prefill + decode workload on the DynaPlasia chip, with CMSwitch and
//! with the strongest all-compute baseline (CIM-MLC), and compares
//! simulated latency. The decode phase is where dual-mode switching
//! shines: KV cache and activations live in memory-mode arrays instead of
//! round-tripping through main memory.
//!
//! ```text
//! cargo run --release --example llm_inference
//! ```

use cmswitch::bench::harness::run_workload;
use cmswitch::bench::workloads::build;
use cmswitch::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = presets::dynaplasia();
    let (batch, in_len, out_len) = (1, 64, 64);
    // Depth scale 0.1 keeps per-layer shapes identical to OPT-6.7B and
    // shrinks the layer count for a fast demo; pass 1.0 for full depth.
    let workload = build("opt-6.7b", batch, in_len, out_len, 0.1, 2)?;
    println!(
        "workload: {} (batch {batch}, prefill {in_len} tokens, decode {out_len} tokens)\n",
        workload.name()
    );

    let mut rows = Vec::new();
    for kind in BackendKind::ALL {
        let session = Session::builder(arch.clone()).backend_kind(kind).build();
        let r = run_workload(&session, &workload)?;
        println!(
            "{:>9}: {:>12.0} cycles   memory-array ratio {:>5.1}%   compile {:?}",
            kind.name(),
            r.cycles,
            r.memory_ratio * 100.0,
            r.compile_time
        );
        rows.push((kind.name(), r.cycles));
    }
    let mlc = rows.iter().find(|(n, _)| *n == "cim-mlc").expect("ran").1;
    let ours = rows.iter().find(|(n, _)| *n == "cmswitch").expect("ran").1;
    println!(
        "\nCMSwitch speedup over CIM-MLC: {:.2}x (paper band for OPT-6.7B: 1.2x-2.0x)",
        mlc / ours
    );
    Ok(())
}
