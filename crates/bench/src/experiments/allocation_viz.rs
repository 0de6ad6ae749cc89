//! Fig. 15: per-segment compute/memory allocation after compilation,
//! for VGG16 and one OPT-6.7B layer.

use cmswitch_arch::presets;
use cmswitch_core::Session;
use cmswitch_graph::Graph;

use crate::experiments::ExpConfig;
use crate::table::{percent, Table};

fn viz(graph: &Graph, title: &str) -> String {
    let compiler = Session::builder(presets::dynaplasia()).build();
    let program = match compiler.compile_graph(graph) {
        Ok(p) => p,
        Err(e) => return format!("### {title}\n\ncompilation failed: {e}\n"),
    };
    let mut t = Table::new(&["segment", "operators", "compute arrays", "memory arrays", "memory %"]);
    for (i, seg) in program.segments.iter().enumerate() {
        let ops = &program.ops[seg.range.0..=seg.range.1];
        let names = if ops.len() > 4 {
            format!(
                "{} … {} ({} ops)",
                ops[0].name,
                ops[ops.len() - 1].name,
                ops.len()
            )
        } else {
            ops.iter().map(|o| &*o.name).collect::<Vec<_>>().join(", ")
        };
        t.row(vec![
            i.to_string(),
            names,
            seg.alloc.total_compute().to_string(),
            seg.alloc.total_memory().to_string(),
            percent(seg.alloc.memory_ratio()),
        ]);
    }
    format!(
        "### {title}\n\n{}\naverage memory ratio: {}\n",
        t.to_markdown(),
        percent(program.average_memory_ratio())
    )
}

/// Runs both visualizations.
pub fn run(cfg: &ExpConfig) -> String {
    let vgg = cmswitch_models::vgg::vgg16(1).expect("vgg16 builds");
    // One OPT-6.7B layer, as in Fig. 15(b).
    let mut opt_cfg = cmswitch_models::opt::opt_6_7b();
    opt_cfg.layers = 1;
    opt_cfg.lm_head = false;
    let seq = if cfg.quick { 32 } else { 64 };
    let opt =
        cmswitch_models::transformer::stack(&opt_cfg, 1, seq).expect("opt layer builds");
    format!(
        "## Fig. 15: dual-mode allocation per segment\n\n{}\n{}",
        viz(&vgg, "VGG16 (batch 1)"),
        viz(&opt, "OPT-6.7B, one layer")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_both_models() {
        let md = run(&ExpConfig::quick_test());
        assert!(md.contains("VGG16"));
        assert!(md.contains("OPT-6.7B"));
        assert!(md.contains("memory %"));
    }

    #[test]
    fn opt_layer_allocates_memory_arrays() {
        // Fig. 15(b): attention/FFN segments use 33-67% memory arrays.
        let mut cfg = cmswitch_models::opt::opt_6_7b();
        cfg.layers = 1;
        cfg.lm_head = false;
        let g = cmswitch_models::transformer::stack(&cfg, 1, 32).unwrap();
        let compiler = Session::builder(presets::dynaplasia()).build();
        let p = compiler.compile_graph(&g).unwrap();
        assert!(
            p.average_memory_ratio() > 0.0,
            "OPT layer should use some memory-mode arrays"
        );
    }
}
