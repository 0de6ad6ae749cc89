//! §5.5: dual-mode switch overhead — the fraction of execution time the
//! mode-switch process (Fig. 10 write-back + switch steps) contributes.

use cmswitch_arch::presets;
use cmswitch_baselines::{BackendKind, SessionBackendExt};
use cmswitch_core::Session;

use crate::experiments::ExpConfig;
use crate::harness::run_workload;
use crate::table::{percent, Table};
use crate::workloads::{build, FIG14_MODELS};

/// Runs the overhead measurement with CMSwitch.
pub fn run(cfg: &ExpConfig) -> String {
    let arch = presets::dynaplasia();
    let ours = Session::builder(arch).backend_kind(BackendKind::CmSwitch).build();
    let mut t = Table::new(&["model", "switch-process share of runtime"]);
    for &model in FIG14_MODELS {
        let Ok(w) = build(model, 1, 64, 64, cfg.scale, cfg.decode_samples) else {
            continue;
        };
        let Ok(r) = run_workload(&ours, &w) else {
            continue;
        };
        t.row(vec![model.to_string(), percent(r.switch_fraction)]);
    }
    format!(
        "## §5.5: dual-mode switch overhead\n\n{}\n\
         (paper: the switch process contributes ~3-5% of execution time)\n",
        t.to_markdown()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_minor() {
        let arch = presets::dynaplasia();
        let ours = Session::builder(arch).backend_kind(BackendKind::CmSwitch).build();
        let w = build("bert-base", 1, 64, 0, 0.08, 1).unwrap();
        let r = run_workload(&ours, &w).unwrap();
        // The switch process must stay a small fraction of runtime —
        // the §5.5 claim that motivated including it in the DP at all.
        assert!(
            r.switch_fraction < 0.35,
            "switch overhead {} too large",
            r.switch_fraction
        );
    }
}
