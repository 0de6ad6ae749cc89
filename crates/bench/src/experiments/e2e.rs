//! Fig. 14: end-to-end speedup of CMSwitch vs PUMA / OCC / CIM-MLC
//! across the six benchmark networks and batch sizes.

use cmswitch_arch::presets;
use cmswitch_baselines::{BackendKind, SessionBackendExt};
use cmswitch_core::Session;

use crate::experiments::ExpConfig;
use crate::harness::{geomean, run_backends};
use crate::table::{ratio, Table};
use crate::workloads::{build, FIG14_MODELS};

/// Runs the end-to-end comparison.
pub fn run(cfg: &ExpConfig) -> String {
    let arch = presets::dynaplasia();
    let sessions =
        BackendKind::ALL.map(|kind| Session::builder(arch.clone()).backend_kind(kind).build());
    let batches: &[usize] = if cfg.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut t = Table::new(&[
        "model",
        "batch",
        "puma",
        "occ",
        "cim-mlc",
        "cmswitch",
        "speedup vs cim-mlc",
    ]);
    let mut mlc_speedups = Vec::new();
    for &batch in batches {
        for &model in FIG14_MODELS {
            // Transformers use sequence length 64 (paper setting);
            // generative models decode 64 tokens.
            let w = match build(model, batch, 64, 64, cfg.scale, cfg.decode_samples) {
                Ok(w) => w,
                Err(e) => {
                    t.row(vec![model.into(), batch.to_string(), format!("error: {e}"), String::new(), String::new(), String::new(), String::new()]);
                    continue;
                }
            };
            let results = match run_backends(&sessions, &w) {
                Ok(r) => r,
                Err(e) => {
                    t.row(vec![model.into(), batch.to_string(), format!("error: {e}"), String::new(), String::new(), String::new(), String::new()]);
                    continue;
                }
            };
            // Normalized performance relative to PUMA (paper's y-axis).
            let puma_cycles = results[0].cycles;
            let perf: Vec<f64> = results.iter().map(|r| puma_cycles / r.cycles).collect();
            let speedup_vs_mlc = results[2].cycles / results[3].cycles;
            mlc_speedups.push(speedup_vs_mlc);
            t.row(vec![
                model.to_string(),
                batch.to_string(),
                format!("{:.2}", perf[0]),
                format!("{:.2}", perf[1]),
                format!("{:.2}", perf[2]),
                format!("{:.2}", perf[3]),
                ratio(speedup_vs_mlc),
            ]);
        }
    }
    let gm = geomean(&mlc_speedups);
    format!(
        "## Fig. 14: end-to-end performance (normalized to PUMA)\n\n{}\n\
         Geomean speedup of CMSwitch over CIM-MLC: **{}** (paper: 1.31x average)\n",
        t.to_markdown(),
        ratio(gm)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_workload;

    #[test]
    fn cmswitch_at_least_matches_mlc_on_bert() {
        let arch = presets::dynaplasia();
        let w = build("bert-large", 1, 64, 0, 0.08, 1).unwrap();
        let mlc = Session::builder(arch.clone()).backend_kind(BackendKind::CimMlc).build();
        let ours = Session::builder(arch).backend_kind(BackendKind::CmSwitch).build();
        let rm = run_workload(&mlc, &w).unwrap();
        let ro = run_workload(&ours, &w).unwrap();
        assert!(
            ro.cycles <= rm.cycles * 1.02,
            "cmswitch {} vs mlc {}",
            ro.cycles,
            rm.cycles
        );
    }

    #[test]
    fn cmswitch_beats_mlc_on_llm_decode() {
        // The paper's headline case: decode-heavy generative inference.
        let arch = presets::dynaplasia();
        let w = build("opt-13b", 1, 32, 32, 0.05, 1).unwrap();
        let mlc = Session::builder(arch.clone()).backend_kind(BackendKind::CimMlc).build();
        let ours = Session::builder(arch).backend_kind(BackendKind::CmSwitch).build();
        let rm = run_workload(&mlc, &w).unwrap();
        let ro = run_workload(&ours, &w).unwrap();
        assert!(
            ro.cycles < rm.cycles,
            "cmswitch {} should beat mlc {} on decode",
            ro.cycles,
            rm.cycles
        );
    }
}
