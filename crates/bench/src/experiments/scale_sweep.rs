//! Fig. 16: workload-scale study — speedup over CIM-MLC and average
//! memory-array ratio across sequence lengths and batch sizes.

use cmswitch_arch::presets;
use cmswitch_baselines::{BackendKind, SessionBackendExt};
use cmswitch_core::Session;

use crate::experiments::ExpConfig;
use crate::harness::run_workload;
use crate::table::{percent, ratio, Table};
use crate::workloads::{build, FIG16_MODELS};

/// Runs the sweep.
pub fn run(cfg: &ExpConfig) -> String {
    let arch = presets::dynaplasia();
    let mlc = Session::builder(arch.clone()).backend_kind(BackendKind::CimMlc).build();
    let ours = Session::builder(arch).backend_kind(BackendKind::CmSwitch).build();
    let seqs: &[usize] = if cfg.quick {
        &[32, 128, 512]
    } else {
        &[32, 64, 128, 256, 512, 1024, 2048]
    };
    let batches: &[usize] = if cfg.quick { &[4] } else { &[4, 8, 16] };
    let mut out = String::from("## Fig. 16: effectiveness across workload scales\n\n");
    for &model in FIG16_MODELS {
        let mut t = Table::new(&[
            "batch",
            "seq len",
            "speedup vs cim-mlc",
            "avg memory-array ratio",
        ]);
        for &batch in batches {
            for &seq in seqs {
                let Ok(w) = build(model, batch, seq, seq, cfg.scale, cfg.decode_samples)
                else {
                    continue;
                };
                let (rm, ro) = match (
                    run_workload(&mlc, &w),
                    run_workload(&ours, &w),
                ) {
                    (Ok(a), Ok(b)) => (a, b),
                    _ => continue,
                };
                t.row(vec![
                    batch.to_string(),
                    seq.to_string(),
                    ratio(rm.cycles / ro.cycles),
                    percent(ro.memory_ratio),
                ]);
            }
        }
        out.push_str(&format!("### {model}\n\n{}\n", t.to_markdown()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_speedup_decays_toward_parity_with_seq() {
        // Paper Fig. 16: BERT's CMSwitch-over-CIM-MLC speedup shrinks from
        // ~1.19x at short sequences to ~1.0x beyond 512, where the
        // workload turns compute-bound and both compilers converge.
        let arch = presets::dynaplasia();
        let ours = Session::builder(arch.clone()).backend_kind(BackendKind::CmSwitch).build();
        let mlc = Session::builder(arch).backend_kind(BackendKind::CimMlc).build();
        let speedup = |seq: usize| {
            let w = build("bert-large", 4, seq, 0, 0.08, 1).unwrap();
            let ro = run_workload(&ours, &w).unwrap();
            let rm = run_workload(&mlc, &w).unwrap();
            rm.cycles / ro.cycles
        };
        let short = speedup(64);
        let long = speedup(512);
        assert!(
            short >= long - 0.02,
            "speedup should not grow with seq: short {short} long {long}"
        );
        assert!(
            (0.9..1.3).contains(&long),
            "long-sequence speedup should approach parity, got {long}"
        );
    }

    #[test]
    fn report_renders_quick() {
        let md = run(&ExpConfig::quick_test());
        assert!(md.contains("bert-large"));
        assert!(md.contains("speedup vs cim-mlc"));
    }
}
