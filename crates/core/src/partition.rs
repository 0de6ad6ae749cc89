//! Greedy partitioning of oversized operators into sub-operators
//! (§4.3.1: "For operators that cannot fit directly onto the CIM
//! accelerator, we will partition them into smaller sub-operators … with
//! the partition granularity determined by the available on-chip
//! resources").
//!
//! The split is along the output dimension `N` first (each chunk keeps the
//! full reduction `K`, so chunks are independent), and along `K` as well
//! when even a single output-column strip exceeds the budget (chunks then
//! produce partial sums that are accumulated on the vector unit).

use cmswitch_arch::DualModeArch;

use crate::frontend::{OpList, SegOp};
use crate::CompileError;

/// The whole-array budget a fractional `budget_fraction` grants on
/// `arch`.
///
/// Rounds to nearest: truncation would silently drop an array when the
/// product lands just under an integer (0.999 · 64 = 63.936 must mean a
/// 64-array budget, not 63). The partition stage emits a
/// [`crate::DiagnosticEvent::PartitionBudgetRounded`] event whenever
/// rounding moves the budget off the exact product.
pub fn effective_budget(arch: &DualModeArch, budget_fraction: f64) -> usize {
    ((arch.n_arrays() as f64 * budget_fraction).round() as usize).max(1)
}

/// Splits every operator whose weight tiles exceed
/// [`effective_budget`]`(arch, budget_fraction)`. Chunks keep their
/// operator's [`SegOp::source`], and the dependencies pass through.
///
/// # Errors
///
/// Returns [`CompileError::OperatorTooLarge`] if an operator cannot be
/// made to fit even at the smallest granularity (single array tile).
pub fn partition(
    list: &OpList,
    arch: &DualModeArch,
    budget_fraction: f64,
) -> Result<OpList, CompileError> {
    let budget = effective_budget(arch, budget_fraction);
    let mut ops: Vec<SegOp> = Vec::with_capacity(list.ops.len());
    for op in &list.ops {
        if op.min_tiles <= budget {
            ops.push(op.clone());
        } else {
            ops.extend(split_op(op, arch, budget)?);
        }
    }
    // `W` stays at source granularity: every chunk of a producer feeds
    // every chunk of its consumer, and `DepIndex` expands those pairs
    // only where a query looks. Sibling chunks of one k-split accumulate
    // independently (no intra-op dependency is needed for scheduling —
    // they may run in the same segment or consecutive ones).
    Ok(OpList {
        ops,
        deps: list.deps.clone(),
        dep_bytes: list.dep_bytes.clone(),
    })
}

fn split_op(op: &SegOp, arch: &DualModeArch, budget: usize) -> Result<Vec<SegOp>, CompileError> {
    let rows = arch.array_rows();
    let cols = arch.array_cols();
    let k_tiles = op.k.div_ceil(rows);

    // How many K tiles fit per chunk (1 column strip)?
    let k_tiles_per_chunk = k_tiles.min(budget);
    if k_tiles_per_chunk == 0 {
        return Err(CompileError::OperatorTooLarge {
            op: op.name.to_string(),
            tiles_needed: op.min_tiles,
            available: budget,
        });
    }
    let k_chunks = k_tiles.div_ceil(k_tiles_per_chunk);
    // Columns strips per chunk given the K depth of a chunk.
    let col_tiles_per_chunk = (budget / k_tiles_per_chunk).max(1);
    let n_tiles = op.n.div_ceil(cols);
    let n_chunks = n_tiles.div_ceil(col_tiles_per_chunk);

    let mut chunks = Vec::with_capacity(k_chunks * n_chunks);
    for ki in 0..k_chunks {
        let k_lo = ki * k_tiles_per_chunk * rows;
        let k_hi = (((ki + 1) * k_tiles_per_chunk) * rows).min(op.k);
        let k_len = k_hi - k_lo;
        for ni in 0..n_chunks {
            let n_lo = ni * col_tiles_per_chunk * cols;
            let n_hi = (((ni + 1) * col_tiles_per_chunk) * cols).min(op.n);
            let n_len = n_hi - n_lo;
            if k_len == 0 || n_len == 0 {
                continue;
            }
            let frac = (k_len as f64 / op.k as f64) * (n_len as f64 / op.n as f64);
            let work = op.work * frac;
            // Each chunk streams its K slice of the input; partial sums
            // from k-splits are accumulated on the vector unit.
            let in_bytes =
                ((op.in_bytes as f64) * (k_len as f64 / op.k as f64)).ceil() as u64;
            let out_frac = n_len as f64 / op.n as f64;
            let out_bytes = ((op.out_bytes as f64) * out_frac).ceil() as u64;
            let extra_aux = if k_chunks > 1 { out_bytes } else { 0 };
            chunks.push(SegOp {
                source: op.source,
                name: format!("{}#p{}_{}", op.name, ki, ni).into(),
                m: op.m,
                k: k_len,
                n: n_len,
                units: op.units,
                weight_static: op.weight_static,
                work,
                in_bytes,
                out_bytes,
                weight_bytes: (op.units * k_len * n_len) as u64,
                aux_flops: (op.aux_flops as f64 * frac) as u64 + extra_aux,
                min_tiles: arch.weight_tiles(k_len, n_len),
            });
        }
    }
    debug_assert!(chunks.iter().all(|c| c.min_tiles <= budget));
    Ok(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::lower_graph;
    use cmswitch_arch::presets;

    fn big_fc_list() -> (OpList, cmswitch_arch::DualModeArch) {
        // tiny arch: 8 arrays of 64x64. 512x512 weights need 8*8=64 tiles.
        let g = cmswitch_models::mlp::mlp(1, &[512, 512, 64]).unwrap();
        let arch = presets::tiny();
        (lower_graph(&g, &arch).unwrap(), arch)
    }

    #[test]
    fn oversized_fc_is_split() {
        let (list, arch) = big_fc_list();
        assert_eq!(list.ops[0].min_tiles, 64); // > 8 arrays
        let parts = partition(&list, &arch, 1.0).unwrap();
        // fc0 split into chunks of <= 8 tiles each; fc1 (8x1=8 tiles) kept.
        assert!(parts.ops.len() > 2);
        assert!(parts.ops.iter().all(|o| o.min_tiles <= 8));
        // Work is conserved.
        let orig_work: f64 = list.ops.iter().map(|o| o.work).sum();
        let part_work: f64 = parts.ops.iter().map(|o| o.work).sum();
        assert!((orig_work - part_work).abs() / orig_work < 1e-9);
    }

    #[test]
    fn weight_bytes_conserved() {
        let (list, arch) = big_fc_list();
        let parts = partition(&list, &arch, 1.0).unwrap();
        let orig: u64 = list.ops.iter().map(|o| o.weight_bytes).sum();
        let part: u64 = parts.ops.iter().map(|o| o.weight_bytes).sum();
        assert_eq!(orig, part);
    }

    #[test]
    fn deps_remapped_to_chunks() {
        let (list, arch) = big_fc_list();
        let parts = partition(&list, &arch, 1.0).unwrap();
        // `W` is unchanged; the chunks of fc0 carry its source, so the
        // last op (fc1, unsplit) depends on every one of them.
        assert_eq!(
            (&parts.deps, &parts.dep_bytes),
            (&list.deps, &list.dep_bytes)
        );
        let fc1_idx = parts.ops.len() - 1;
        assert!(parts.ops[..fc1_idx].iter().all(|o| o.source == 0));
        assert_eq!(parts.ops[fc1_idx].source, 1);
    }

    #[test]
    fn budget_fraction_tightens_chunks() {
        let (list, arch) = big_fc_list();
        let full = partition(&list, &arch, 1.0).unwrap();
        let half = partition(&list, &arch, 0.5).unwrap();
        assert!(half.ops.len() > full.ops.len());
        assert!(half.ops.iter().all(|o| o.min_tiles <= 4));
    }

    #[test]
    fn budget_rounds_to_nearest_at_fraction_boundaries() {
        // 64 arrays at fraction 0.999: 63.936 must round to a 64-array
        // budget — truncation would shave an array off and needlessly
        // split any operator using the full chip.
        let arch = cmswitch_arch::DualModeArch::builder("round-test")
            .n_arrays(64)
            .array_size(64, 64)
            .buffer_bytes(4 * 1024)
            .internal_bw(4)
            .extern_bw(16)
            .buffer_bw(16)
            .compute_pass_cycles(16)
            .switch_cycles(1, 1)
            .write_parallelism(4)
            .build()
            .unwrap();
        // 512x512 weights on 64x64 arrays: exactly 64 tiles.
        let g = cmswitch_models::mlp::mlp(1, &[512, 512, 64]).unwrap();
        let list = lower_graph(&g, &arch).unwrap();
        assert_eq!(list.ops[0].min_tiles, 64);
        let full = partition(&list, &arch, 0.999).unwrap();
        assert_eq!(
            full.ops.len(),
            list.ops.len(),
            "0.999 of 64 arrays must not split a 64-tile operator"
        );
        // A genuinely smaller fraction still tightens the budget:
        // 0.492 · 64 = 31.488 rounds to 31.
        let half = partition(&list, &arch, 0.492).unwrap();
        assert!(half.ops.len() > list.ops.len());
        assert!(half.ops.iter().all(|o| o.min_tiles <= 31));
    }

    #[test]
    fn small_ops_untouched() {
        let g = cmswitch_models::mlp::mlp(1, &[64, 64]).unwrap();
        let arch = presets::tiny();
        let list = lower_graph(&g, &arch).unwrap();
        let parts = partition(&list, &arch, 1.0).unwrap();
        assert_eq!(parts.ops.len(), 1);
        assert_eq!(&*parts.ops[0].name, "fc0");
    }

    #[test]
    fn k_split_adds_accumulation_flops() {
        // Force K split: budget 1 tile, K spans 8 tiles.
        let (list, arch) = big_fc_list();
        let parts = partition(&list, &arch, 0.125).unwrap(); // budget 1
        let chunk = parts.ops.iter().find(|o| o.name.contains("#p1_")).unwrap();
        assert!(chunk.aux_flops > 0);
    }
}
