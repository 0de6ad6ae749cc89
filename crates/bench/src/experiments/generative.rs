//! Fig. 17: generative-model stages — fixed input length varying output
//! length, and vice versa.

use cmswitch_arch::presets;
use cmswitch_baselines::{BackendKind, SessionBackendExt};
use cmswitch_core::Session;

use crate::experiments::ExpConfig;
use crate::harness::run_workload;
use crate::table::{ratio, Table};
use crate::workloads::build;

/// Runs both sweeps for LLaMA2-7B and OPT-13B.
pub fn run(cfg: &ExpConfig) -> String {
    let arch = presets::dynaplasia();
    let mlc = Session::builder(arch.clone()).backend_kind(BackendKind::CimMlc).build();
    let ours = Session::builder(arch).backend_kind(BackendKind::CmSwitch).build();
    let lens: &[usize] = if cfg.quick {
        &[32, 256]
    } else {
        &[32, 64, 128, 256, 512, 1024, 2048]
    };
    let mut out = String::from("## Fig. 17: generative models across inference stages\n\n");
    for &model in &["llama2-7b", "opt-13b"] {
        for (title, fixed_in) in [("fixed input 128, varying output", true), ("fixed output 128, varying input", false)] {
            let mut t = Table::new(&["varied len", "speedup vs cim-mlc"]);
            for &len in lens {
                let (inl, outl) = if fixed_in { (128, len) } else { (len, 128) };
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
                t.row(vec![len.to_string(), ratio(rm.cycles / ro.cycles)]);
            }
            out.push_str(&format!("### {model}: {title}\n\n{}\n", t.to_markdown()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_quick() {
        let md = run(&ExpConfig::quick_test());
        assert!(md.contains("llama2-7b"));
        assert!(md.contains("opt-13b"));
        assert!(md.contains("fixed input 128"));
    }
}
