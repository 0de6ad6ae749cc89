//! Code generation: physical array assignment and meta-operator emission
//! (§4.4).
//!
//! Segments arrive with *counts* of arrays per operator and role; codegen
//! binds them to physical [`ArrayId`]s, preferring arrays already in the
//! target mode so that the emitted `CM.switch` statements match the
//! Eq. 1 switch counts the DP assumed. Between segments it emits the
//! Fig. 10 three-step sequence: write back spilled live data, switch
//! modes, load the next segment's weights.

use cmswitch_arch::{ArrayId, ArrayMode, DualModeArch};
use cmswitch_metaop::{
    ComputeStmt, Flow, MemDirection, MemLoc, MemStmt, Stmt, SwitchKind, VectorStmt,
    WeightLoadStmt,
};

use crate::cost::CostModel;
use crate::frontend::{DepIndex, OpList};
use crate::segment::Segment;
use crate::CompileError;

/// Emits the meta-operator flow for a segmentation plan.
///
/// # Errors
///
/// Returns [`CompileError::NoFeasibleSchedule`] if physical assignment
/// cannot satisfy a segment's compute demand (an internal invariant
/// violation — allocations are capacity-checked upstream).
pub fn generate(
    name: &str,
    list: &OpList,
    segments: &[Segment],
    arch: &DualModeArch,
) -> Result<Flow, CompileError> {
    let n = arch.n_arrays();
    let mut modes = vec![ArrayMode::Memory; n];
    let mut flow = Flow::new(name);
    let cm = CostModel::new(arch);
    // Indexed once: the per-boundary write-back queries below otherwise
    // rescan the full dep list for every segment.
    let deps = DepIndex::new(list);

    for (seg_idx, seg) in segments.iter().enumerate() {
        let (lo, hi) = seg.range;
        let ops = &list.ops[lo..=hi];

        // ---- Step 1 (Fig. 10): write back spilled live data. ----
        if seg_idx > 0 {
            let prev = &segments[seg_idx - 1];
            let bytes = cm.spill_bytes(&deps, prev.range, seg.range, &seg.alloc);
            if bytes > 0 {
                flow.push(Stmt::Mem(MemStmt {
                    loc: MemLoc::Main,
                    direction: MemDirection::Write,
                    bytes,
                    label: format!("seg{seg_idx} writeback"),
                }));
            }
        }

        // ---- Physical assignment. ----
        // Demands per op: compute, fresh mem_in (minus reused), mem_out.
        let mut reused_in = vec![0usize; ops.len()];
        for &((_, c), r) in &seg.alloc.reuse {
            reused_in[c] += r;
        }
        // Pools of array ids by current mode.
        let mut compute_pool: Vec<ArrayId> = Vec::new();
        let mut memory_pool: Vec<ArrayId> = Vec::new();
        for (i, &mode) in modes.iter().enumerate() {
            match mode {
                ArrayMode::Compute => compute_pool.push(ArrayId(i as u32)),
                ArrayMode::Memory => memory_pool.push(ArrayId(i as u32)),
            }
        }
        let take = |want_mode: ArrayMode,
                        count: usize,
                        compute_pool: &mut Vec<ArrayId>,
                        memory_pool: &mut Vec<ArrayId>|
         -> Vec<ArrayId> {
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let preferred = match want_mode {
                    ArrayMode::Compute => compute_pool.pop().or_else(|| memory_pool.pop()),
                    ArrayMode::Memory => memory_pool.pop().or_else(|| compute_pool.pop()),
                };
                match preferred {
                    Some(id) => out.push(id),
                    None => break,
                }
            }
            out
        };

        let mut per_op_compute: Vec<Vec<ArrayId>> = Vec::with_capacity(ops.len());
        let mut per_op_mem_out: Vec<Vec<ArrayId>> = Vec::with_capacity(ops.len());
        let mut per_op_mem_in_fresh: Vec<Vec<ArrayId>> = Vec::with_capacity(ops.len());
        for (oi, a) in seg.alloc.ops.iter().enumerate() {
            let comp = take(
                ArrayMode::Compute,
                a.compute,
                &mut compute_pool,
                &mut memory_pool,
            );
            if comp.len() < a.compute {
                return Err(CompileError::NoFeasibleSchedule);
            }
            let fresh_in = a.mem_in.saturating_sub(reused_in[oi]);
            let mem_in =
                take(ArrayMode::Memory, fresh_in, &mut compute_pool, &mut memory_pool);
            let mem_out = take(
                ArrayMode::Memory,
                a.mem_out,
                &mut compute_pool,
                &mut memory_pool,
            );
            per_op_compute.push(comp);
            per_op_mem_in_fresh.push(mem_in);
            per_op_mem_out.push(mem_out);
        }
        // Wire reused arrays: consumer's mem_in borrows producer's
        // mem_out. A per-producer cursor guarantees each physical array is
        // lent to exactly one consumer.
        let mut per_op_mem_in: Vec<Vec<ArrayId>> = per_op_mem_in_fresh;
        let mut out_cursor = vec![0usize; ops.len()];
        for &((p, c), r) in &seg.alloc.reuse {
            let start = out_cursor[p];
            let end = (start + r).min(per_op_mem_out[p].len());
            per_op_mem_in[c].extend_from_slice(&per_op_mem_out[p][start..end]);
            out_cursor[p] = end;
        }

        // ---- Step 2 (Fig. 10): mode switches. ----
        let mut to_compute = Vec::new();
        let mut to_memory = Vec::new();
        for (oi, comp) in per_op_compute.iter().enumerate() {
            for &id in comp {
                if modes[id.index()] != ArrayMode::Compute {
                    to_compute.push(id);
                    modes[id.index()] = ArrayMode::Compute;
                }
            }
            for &id in per_op_mem_in[oi].iter().chain(&per_op_mem_out[oi]) {
                if modes[id.index()] != ArrayMode::Memory {
                    to_memory.push(id);
                    modes[id.index()] = ArrayMode::Memory;
                }
            }
        }
        to_compute.sort_unstable();
        to_compute.dedup();
        to_memory.sort_unstable();
        to_memory.dedup();
        if !to_memory.is_empty() {
            flow.push(Stmt::switch(SwitchKind::ToMemory, to_memory));
        }
        if !to_compute.is_empty() {
            flow.push(Stmt::switch(SwitchKind::ToCompute, to_compute));
        }

        // ---- Step 3 (Fig. 10) + segment body. ----
        let mut body: Vec<Stmt> = Vec::new();
        for (oi, op) in ops.iter().enumerate() {
            if op.weight_static && !per_op_compute[oi].is_empty() {
                body.push(Stmt::LoadWeights(WeightLoadStmt {
                    op: op.name.clone(),
                    arrays: per_op_compute[oi].as_slice().into(),
                    bytes: per_op_compute[oi].len() as u64 * arch.array_bytes(),
                }));
            }
            body.push(Stmt::Compute(ComputeStmt {
                op: op.name.clone(),
                compute_arrays: per_op_compute[oi].as_slice().into(),
                mem_in_arrays: per_op_mem_in[oi].as_slice().into(),
                mem_out_arrays: per_op_mem_out[oi].as_slice().into(),
                m: op.m,
                k: op.k,
                n: op.n,
                units: op.units,
                in_bytes: op.in_bytes,
                out_bytes: op.out_bytes,
                weight_static: op.weight_static,
            }));
            if op.aux_flops > 0 {
                body.push(Stmt::Vector(VectorStmt {
                    op: format!("{}.aux", op.name),
                    flops: op.aux_flops,
                }));
            }
        }
        flow.push(Stmt::Parallel(body));
    }

    // Final write-back of network outputs.
    let final_out = list.output_bytes();
    if final_out > 0 {
        flow.push(Stmt::Mem(MemStmt {
            loc: MemLoc::Main,
            direction: MemDirection::Write,
            bytes: final_out,
            label: "final output".into(),
        }));
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocator;
    use crate::frontend::lower_graph;
    use crate::partition::partition;
    use crate::pipeline::Partitioned;
    use crate::{segment::segment, AllocatorKind, CompilerOptions};
    use cmswitch_arch::presets;

    fn flow_for(graph: &cmswitch_graph::Graph) -> (Flow, usize) {
        let arch = presets::tiny();
        let opts = CompilerOptions::default();
        let list = lower_graph(graph, &arch).unwrap();
        let input = Partitioned {
            name: graph.name().to_string(),
            list: partition(&list, &arch, 1.0).unwrap(),
        };
        let cm = CostModel::new(&arch);
        let allocator = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, true);
        let (segmented, _) =
            segment(input, &allocator, &cm, &opts, &crate::CancelToken::new()).unwrap();
        let flow = generate(graph.name(), &segmented.list, &segmented.segments, &arch).unwrap();
        (flow, segmented.segments.len())
    }

    #[test]
    fn generated_flow_validates() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let (flow, n_segments) = flow_for(&g);
        cmswitch_metaop::validate(&flow).unwrap();
        assert_eq!(flow.stats().segments as usize, n_segments);
    }

    #[test]
    fn emits_switches_and_loads() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let (flow, _) = flow_for(&g);
        let stats = flow.stats();
        assert!(stats.switch_ops > 0);
        assert!(stats.weight_bytes > 0);
        assert!(stats.compute_ops > 0);
    }

    #[test]
    fn multi_segment_flow_has_final_writeback() {
        let g = cmswitch_models::mlp::mlp(1, &[256, 256, 256, 64]).unwrap();
        let (flow, segs) = flow_for(&g);
        assert!(segs >= 2);
        let last = flow.stmts().last().unwrap();
        assert!(matches!(last, Stmt::Mem(m) if m.label == "final output"));
    }
}
