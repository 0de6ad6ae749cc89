//! Shared machinery for the all-compute baselines.

use cmswitch_core::allocation::{balance_reload, OpAllocation, SegmentAllocation};
use cmswitch_core::cost::CostModel;
use cmswitch_core::frontend::{OpList, SegOp};

/// All-compute allocation for a slice of ops: every operator gets its
/// minimal weight tiles; with `duplicate`, leftover arrays are granted
/// greedily to the operator with the highest current latency (weight
/// duplication).
pub fn all_compute_alloc(
    ops: &[SegOp],
    cm: &CostModel<'_>,
    duplicate: bool,
) -> Option<SegmentAllocation> {
    let n = cm.arch().n_arrays();
    let mut alloc = SegmentAllocation {
        ops: ops
            .iter()
            .map(|o| OpAllocation {
                compute: o.min_tiles.max(1),
                mem_in: 0,
                mem_out: 0,
            })
            .collect(),
        reuse: Vec::new(),
        latency: 0.0,
    };
    let used = alloc.total_compute();
    if used > n {
        return None;
    }
    if duplicate {
        let mut leftover = n - used;
        while leftover > 0 {
            let (worst, cur) = alloc
                .ops
                .iter()
                .enumerate()
                .map(|(i, a)| (i, cm.op_latency(&ops[i], a)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("comparable"))?;
            let mut trial = alloc.ops[worst];
            trial.compute += 1;
            if cm.op_latency(&ops[worst], &trial) < cur - 1e-12 {
                alloc.ops[worst] = trial;
                leftover -= 1;
            } else {
                break;
            }
        }
        // Duplication vs reload, the same trade the dual-mode allocator
        // makes; it also sets the latency.
        balance_reload(cm, ops, &mut alloc);
    } else {
        alloc.latency = cm.intra_latency(ops, &alloc);
    }
    Some(alloc)
}

/// Greedy segmentation: pack consecutive operators while their minimal
/// tiles fit `cap` arrays (capped at `max_ops` per segment; 0 counts as
/// 1). An operator wider than `cap` still gets a segment of its own.
pub fn greedy_ranges(list: &OpList, cap: usize, max_ops: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut tiles = 0usize;
    for (i, op) in list.ops.iter().enumerate() {
        let need = op.min_tiles.max(1);
        if i > start && (tiles + need > cap || i - start >= max_ops) {
            ranges.push((start, i - 1));
            start = i;
            tiles = 0;
        }
        tiles += need;
    }
    if start < list.ops.len() {
        ranges.push((start, list.ops.len() - 1));
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_core::frontend::lower_graph;
    use cmswitch_core::partition::partition;
    use cmswitch_core::segment::chain_segments;
    use cmswitch_arch::presets;

    fn list() -> (OpList, cmswitch_arch::DualModeArch) {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let arch = presets::tiny();
        let l = lower_graph(&g, &arch).unwrap();
        (partition(&l, &arch, 1.0).unwrap(), arch)
    }

    #[test]
    fn all_compute_has_no_memory_arrays() {
        let (l, arch) = list();
        let cm = CostModel::new(&arch);
        let a = all_compute_alloc(&l.ops[0..1], &cm, true).unwrap();
        assert_eq!(a.total_memory(), 0);
        assert!(a.total_compute() >= 1);
    }

    #[test]
    fn duplication_improves_or_matches() {
        let (l, arch) = list();
        let cm = CostModel::new(&arch);
        let base = all_compute_alloc(&l.ops[0..1], &cm, false).unwrap();
        let dup = all_compute_alloc(&l.ops[0..1], &cm, true).unwrap();
        assert!(dup.latency <= base.latency + 1e-9);
    }

    #[test]
    fn greedy_ranges_cover_contiguously() {
        let (l, arch) = list();
        let ranges = greedy_ranges(&l, arch.n_arrays(), 8);
        let mut next = 0;
        for (lo, hi) in &ranges {
            assert_eq!(*lo, next);
            next = hi + 1;
        }
        assert_eq!(next, l.ops.len());
    }

    #[test]
    fn chain_charges_inter_costs() {
        let (l, arch) = list();
        let cm = CostModel::new(&arch);
        let ranges = greedy_ranges(&l, arch.n_arrays(), 2);
        let parts: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let a = all_compute_alloc(&l.ops[r.0..=r.1], &cm, true).unwrap();
                (r, a)
            })
            .collect();
        let segments = chain_segments(&l, &cm, parts);
        assert!(segments[0].inter_before > 0.0); // initial switch + load
        if segments.len() > 1 {
            assert!(segments[1].inter_before > 0.0); // reload at least
        }
    }
}
