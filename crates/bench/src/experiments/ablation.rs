//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. DP segmentation (Eq. 3) vs greedy largest-fit packing,
//! 2. exact MIP allocation vs the fast binary-search allocator,
//! 3. switch-overhead-aware DP vs overhead-oblivious DP,
//! 4. allocation-cache (block reuse) on vs off — compile time.

use cmswitch_arch::presets;
use cmswitch_core::pipeline::{EmitStage, LowerStage, PartitionStage};
use cmswitch_core::segment;
use cmswitch_core::{AllocatorKind, CompilerOptions, PipelineCx, Session};
use cmswitch_graph::Graph;
use cmswitch_sim::timing::simulate;

use crate::experiments::ExpConfig;
use crate::table::{ratio, Table};
use crate::workloads::{build, Workload};

/// Greedy-segmentation variant of CMSwitch: same dual-mode allocator,
/// largest-fit packing ([`segment::greedy`]) instead of the DP, between
/// [`PartitionStage`] and [`EmitStage`].
fn greedy_dual_mode_cycles(graph: &Graph) -> Option<f64> {
    let arch = presets::dynaplasia();
    let opts = CompilerOptions::default();
    let mut cx = PipelineCx::new(&arch, &opts);
    let lowered = cx.run(&LowerStage, graph).ok()?;
    let partitioned = cx.run(&PartitionStage, lowered).ok()?;
    let segmented = segment::greedy(partitioned, &cx.allocator(), &cx.cost_model(), &opts).ok()?;
    let program = cx.run(&EmitStage, segmented).ok()?;
    simulate(&program.flow, &arch).ok().map(|r| r.total_cycles)
}

fn single_graph(w: &Workload) -> &Graph {
    match w {
        Workload::Single(g) => g,
        Workload::Generative(gen) => &gen.prefill,
    }
}

/// Runs all ablations.
pub fn run(cfg: &ExpConfig) -> String {
    let arch = presets::dynaplasia();
    let session = |options: CompilerOptions| Session::builder(arch.clone()).options(options).build();
    let models: &[(&str, usize, usize)] = if cfg.quick {
        &[("bert-large", 64, 0)]
    } else {
        &[("bert-large", 64, 0), ("opt-6.7b", 64, 64), ("resnet18", 0, 0)]
    };
    let mut out = String::from("## Ablations\n\n");

    // 1. DP vs greedy segmentation.
    let mut t = Table::new(&["model", "greedy cycles / DP cycles"]);
    for &(model, inl, outl) in models {
        let Ok(w) = build(model, 1, inl, outl, cfg.scale, cfg.decode_samples) else {
            continue;
        };
        let g = single_graph(&w);
        let Ok(p) = session(CompilerOptions::default()).compile_graph(g) else {
            continue;
        };
        let Ok(dpr) = simulate(&p.flow, &arch) else { continue };
        let Some(greedy) = greedy_dual_mode_cycles(g) else {
            continue;
        };
        t.row(vec![model.to_string(), ratio(greedy / dpr.total_cycles)]);
    }
    out.push_str(&format!("### DP segmentation vs greedy packing\n\n{}\n", t.to_markdown()));

    // 2. MIP vs fast allocator + 4. cache on/off (compile time).
    let mut t = Table::new(&[
        "model",
        "mip latency / fast latency",
        "mip compile / fast compile",
        "cache-off compile / cache-on compile",
    ]);
    for &(model, inl, outl) in models {
        let Ok(w) = build(model, 1, inl, outl, cfg.scale, cfg.decode_samples) else {
            continue;
        };
        let g = single_graph(&w);
        let mip = CompilerOptions::default();
        let fast = CompilerOptions::default().with_allocator(AllocatorKind::Fast);
        let nocache = CompilerOptions::default().with_reuse_cache(false);
        // Compile times are noisy; take the best of three runs each, every
        // run on a fresh session so none is served from a warm cache.
        let timed = |options: &CompilerOptions| -> Option<(f64, f64)> {
            let mut best = f64::INFINITY;
            let mut latency = 0.0;
            for _ in 0..3 {
                let p = session(options.clone()).compile_graph(g).ok()?;
                best = best.min(p.stats.wall.as_secs_f64());
                latency = p.predicted_latency;
            }
            Some((latency, best))
        };
        let (Some((lm, tm)), Some((lf, tf)), Some((_, tn))) =
            (timed(&mip), timed(&fast), timed(&nocache))
        else {
            continue;
        };
        t.row(vec![
            model.to_string(),
            format!("{:.3}", lm / lf),
            ratio(tm / tf.max(1e-9)),
            ratio(tn / tm.max(1e-9)),
        ]);
    }
    out.push_str(&format!(
        "### MIP vs fast allocator, and allocation-cache effect\n\n{}\n",
        t.to_markdown()
    ));

    // 3. Switch-aware vs oblivious DP.
    let mut t = Table::new(&["model", "oblivious cycles / aware cycles"]);
    for &(model, inl, outl) in models {
        let Ok(w) = build(model, 1, inl, outl, cfg.scale, cfg.decode_samples) else {
            continue;
        };
        let g = single_graph(&w);
        let aware = session(CompilerOptions::default());
        let oblivious = session(CompilerOptions::default().with_switch_aware(false));
        let (Ok(pa), Ok(po)) = (aware.compile_graph(g), oblivious.compile_graph(g)) else {
            continue;
        };
        let (Ok(ra), Ok(ro)) = (simulate(&pa.flow, &arch), simulate(&po.flow, &arch)) else {
            continue;
        };
        t.row(vec![
            model.to_string(),
            ratio(ro.total_cycles / ra.total_cycles),
        ]);
    }
    out.push_str(&format!(
        "### Switch-overhead-aware vs oblivious segmentation\n\n{}\n",
        t.to_markdown()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_not_worse_than_greedy() {
        let w = build("bert-base", 1, 32, 0, 0.08, 1).unwrap();
        let g = single_graph(&w);
        let arch = presets::dynaplasia();
        let p = Session::builder(arch.clone()).build().compile_graph(g).unwrap();
        let dpr = simulate(&p.flow, &arch).unwrap();
        let greedy = greedy_dual_mode_cycles(g).unwrap();
        assert!(
            dpr.total_cycles <= greedy * 1.05,
            "dp {} greedy {}",
            dpr.total_cycles,
            greedy
        );
    }

    #[test]
    fn report_renders_quick() {
        let md = run(&ExpConfig::quick_test());
        assert!(md.contains("Ablations"));
        assert!(md.contains("MIP vs fast"));
    }
}
