//! Fig. 1(b) / Fig. 5(a)(b): normalized performance as the fraction of
//! arrays in compute mode varies under a *static* partition.
//!
//! The paper's motivating experiment fixes `C` arrays in compute mode and
//! `N − C` in memory mode (no switching) and measures each network's
//! theoretical performance. CNNs peak at high compute fractions;
//! single-batch LLM inference peaks at low fractions.

use cmswitch_arch::DualModeArch;
use cmswitch_core::allocation::{OpAllocation, SegmentAllocation};
use cmswitch_core::cost::CostModel;
use cmswitch_core::frontend::{lower_graph, DepIndex};
use cmswitch_core::partition::partition;
use cmswitch_core::pipeline::Segmented;
use cmswitch_core::segment::greedy_ranges;
use cmswitch_graph::Graph;

use crate::experiments::ExpConfig;
use crate::table::Table;
use crate::workloads::{build, Workload};

/// Latency of `graph` under a static compute/memory split.
///
/// Returns `None` if even the minimal mapping cannot fit `compute`
/// arrays.
pub fn static_partition_cycles(
    graph: &Graph,
    arch: &DualModeArch,
    compute: usize,
) -> Option<f64> {
    let compute = compute.max(1).min(arch.n_arrays());
    let memory = arch.n_arrays() - compute;
    let frac = compute as f64 / arch.n_arrays() as f64;
    let list = lower_graph(graph, arch).ok()?;
    let list = partition(&list, arch, frac).ok()?;
    let cm = CostModel::new(arch);

    // Greedy packing within the compute-array budget.
    let ranges = greedy_ranges(&list, compute, 12);
    let mut parts = Vec::with_capacity(ranges.len());
    for r in ranges {
        let ops = &list.ops[r.0..=r.1];
        let mut allocs: Vec<OpAllocation> = ops
            .iter()
            .map(|o| OpAllocation {
                compute: o.min_tiles.max(1),
                mem_in: 0,
                mem_out: 0,
            })
            .collect();
        let used: usize = allocs.iter().map(|a| a.compute).sum();
        if used > compute {
            return None;
        }
        // Duplicate into leftover compute arrays.
        let mut leftover_c = compute - used;
        loop {
            let (worst, cur) = bottleneck(&cm, ops, &allocs)?;
            if leftover_c == 0 {
                break;
            }
            let mut trial = allocs[worst];
            trial.compute += 1;
            if cm.op_latency(&ops[worst], &trial) < cur - 1e-12 {
                allocs[worst] = trial;
                leftover_c -= 1;
            } else {
                break;
            }
        }
        // Distribute the static memory arrays to bottleneck ops.
        let mut leftover_m = memory;
        while leftover_m > 0 {
            let (worst, cur) = bottleneck(&cm, ops, &allocs)?;
            let mut trial = allocs[worst];
            trial.mem_in += 1;
            if cm.op_latency(&ops[worst], &trial) < cur - 1e-12 {
                allocs[worst] = trial;
                leftover_m -= 1;
            } else {
                break;
            }
        }
        let mut alloc = SegmentAllocation {
            ops: allocs,
            reuse: Vec::new(),
            latency: 0.0,
        };
        alloc.latency = cm.intra_latency(ops, &alloc);
        parts.push((r, alloc));
    }
    let deps = DepIndex::new(&list);
    let total = Segmented::from_chain(graph.name(), list, &deps, &cm, parts).total_latency;
    total.is_finite().then_some(total)
}

fn bottleneck(
    cm: &CostModel<'_>,
    ops: &[cmswitch_core::frontend::SegOp],
    allocs: &[OpAllocation],
) -> Option<(usize, f64)> {
    allocs
        .iter()
        .enumerate()
        .map(|(i, a)| (i, cm.op_latency(&ops[i], a)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("comparable"))
}

/// Workload-level static-partition latency (generative workloads weight
/// decode samples).
pub fn workload_cycles(w: &Workload, arch: &DualModeArch, compute: usize) -> Option<f64> {
    match w {
        Workload::Single(g) => static_partition_cycles(g, arch, compute),
        Workload::Generative(gen) => {
            let mut total = static_partition_cycles(&gen.prefill, arch, compute)?;
            for s in &gen.decode_samples {
                total += static_partition_cycles(&s.graph, arch, compute)? * s.steps;
            }
            Some(total)
        }
    }
}

/// Runs the sweep for the motivating model set.
pub fn run(cfg: &ExpConfig) -> String {
    let arch = cmswitch_arch::presets::dynaplasia();
    let fractions: &[f64] = if cfg.quick {
        &[0.1, 0.5, 0.9]
    } else {
        &[0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    let models: &[(&str, usize, usize)] = &[
        // (model, in_len, out_len) — out_len 0 means single forward.
        // LLaMA2 runs the paper's motivating decode-heavy configuration
        // (long generation, single batch), where memory mode matters most.
        ("llama2-7b", 128, 512),
        ("resnet50", 0, 0),
        ("vgg16", 0, 0),
        ("bert-large", 64, 0),
    ];
    let mut header: Vec<String> = vec!["compute fraction".into()];
    header.extend(models.iter().map(|(m, _, _)| m.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);

    // Collect latencies, then normalize per model to its best.
    let mut lat: Vec<Vec<Option<f64>>> = Vec::new();
    for &f in fractions {
        let compute = ((arch.n_arrays() as f64) * f).round() as usize;
        let mut row = Vec::new();
        for &(model, inl, outl) in models {
            let w = build(model, 1, inl, outl, cfg.scale, cfg.decode_samples).unwrap();
            row.push(workload_cycles(&w, &arch, compute));
        }
        lat.push(row);
    }
    for (mi, _) in models.iter().enumerate() {
        let best = lat
            .iter()
            .filter_map(|row| row[mi])
            .fold(f64::INFINITY, f64::min);
        for row in lat.iter_mut() {
            if let Some(v) = row[mi] {
                row[mi] = Some(best / v); // normalized performance
            }
        }
    }
    for (fi, &f) in fractions.iter().enumerate() {
        let mut cells = vec![format!("{:.0}%", f * 100.0)];
        for (mi, _) in models.iter().enumerate() {
            cells.push(match lat[fi][mi] {
                Some(v) => format!("{v:.2}"),
                None => "-".into(),
            });
        }
        t.row(cells);
    }
    format!(
        "## Fig. 1(b) / Fig. 5(a)(b): normalized performance vs compute-mode fraction\n\n\
         (static partition of the {}-array chip; 1.00 = that model's best)\n\n{}",
        arch.n_arrays(),
        t.to_markdown()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;

    #[test]
    fn cnn_prefers_high_compute_fraction() {
        let arch = presets::dynaplasia();
        let g = cmswitch_models::resnet::resnet18(1).unwrap();
        let low = static_partition_cycles(&g, &arch, 10).unwrap();
        let high = static_partition_cycles(&g, &arch, 86).unwrap();
        assert!(
            high < low,
            "resnet18 should prefer compute arrays: low-frac {low} high-frac {high}"
        );
    }

    #[test]
    fn decode_prefers_low_compute_fraction() {
        let arch = presets::dynaplasia();
        let cfg = crate::workloads::scaled(
            cmswitch_models::llama::llama2_7b(),
            0.06,
        );
        let g = cmswitch_models::transformer::decode_step(&cfg, 1, 128).unwrap();
        let low = static_partition_cycles(&g, &arch, 24).unwrap();
        let high = static_partition_cycles(&g, &arch, 92).unwrap();
        assert!(
            low <= high * 1.05,
            "decode should not need high compute fraction: low {low} high {high}"
        );
    }

    #[test]
    fn sweep_report_renders() {
        let md = run(&ExpConfig::quick_test());
        assert!(md.contains("compute fraction"));
        assert!(md.contains("llama2-7b"));
    }
}
