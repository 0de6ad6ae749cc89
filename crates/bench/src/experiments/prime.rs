//! §5.5 scalability: CMSwitch on the PRIME-like ReRAM configuration.

use cmswitch_arch::presets;
use cmswitch_baselines::{BackendKind, SessionBackendExt};
use cmswitch_core::Session;

use crate::experiments::ExpConfig;
use crate::harness::run_workload;
use crate::table::{ratio, Table};
use crate::workloads::build;

/// Runs the PRIME comparison (paper: 1.48x BERT, 1.09x LLaMA2-7B,
/// 1.10x OPT-13B over CIM-MLC).
pub fn run(cfg: &ExpConfig) -> String {
    let arch = presets::prime();
    let mlc = Session::builder(arch.clone()).backend_kind(BackendKind::CimMlc).build();
    let ours = Session::builder(arch).backend_kind(BackendKind::CmSwitch).build();
    let mut t = Table::new(&["model", "speedup vs cim-mlc on PRIME"]);
    for &(model, inl, outl) in &[("bert-large", 64, 0), ("llama2-7b", 64, 64), ("opt-13b", 64, 64)]
    {
        let Ok(w) = build(model, 1, inl, outl, cfg.scale, cfg.decode_samples) else {
            continue;
        };
        let (rm, ro) = match (
            run_workload(&mlc, &w),
            run_workload(&ours, &w),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            _ => continue,
        };
        t.row(vec![model.to_string(), ratio(rm.cycles / ro.cycles)]);
    }
    format!(
        "## §5.5 scalability: PRIME architecture\n\n{}\n\
         (paper: 1.48x / 1.09x / 1.10x for BERT / LLaMA2-7B / OPT-13B)\n",
        t.to_markdown()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmswitch_not_worse_on_prime() {
        let arch = presets::prime();
        let w = build("bert-large", 1, 64, 0, 0.08, 1).unwrap();
        let mlc = Session::builder(arch.clone()).backend_kind(BackendKind::CimMlc).build();
        let ours = Session::builder(arch).backend_kind(BackendKind::CmSwitch).build();
        let rm = run_workload(&mlc, &w).unwrap();
        let ro = run_workload(&ours, &w).unwrap();
        assert!(ro.cycles <= rm.cycles * 1.02, "{} vs {}", ro.cycles, rm.cycles);
    }
}
