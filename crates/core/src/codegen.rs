//! Code generation: physical array assignment and meta-operator emission
//! (§4.4).
//!
//! Segments arrive with *counts* of arrays per operator and role; codegen
//! binds them to physical [`ArrayId`]s, preferring arrays already in the
//! target mode so that the emitted `CM.switch` statements match the
//! Eq. 1 switch counts the DP assumed. Between segments it emits the
//! Fig. 10 three-step sequence: write back spilled live data, switch
//! modes, load the next segment's weights.
//!
//! # Cost contract
//!
//! Binding is block-wise: each op's compute, input and output arrays are
//! one drain off the end of the preferred mode pool (highest id first),
//! continued from the other pool when it runs dry — the ids, and their
//! order, that popping one id at a time would give. The two pools (one
//! pass over the mode table per segment), the segment's bound ids and
//! their per-op spans are buffers kept across segments and refilled in
//! place; what a segment allocates is what its statements own (array
//! lists, the `parallel` body). Statements name their op by its index
//! in the flow's op table, which is built once from the op list (each
//! entry shares its op's name), so no name is copied or formatted per
//! statement.

use std::ops::Range;

use cmswitch_arch::{ArrayId, ArrayMode, DualModeArch};
use cmswitch_metaop::{
    ArraySet, ComputeStmt, Flow, MemDirection, MemKind, MemLoc, MemStmt, Stmt, SwitchKind,
    VectorStmt, WeightLoadStmt,
};

use crate::cost::CostModel;
use crate::frontend::{DepIndex, OpList, SegOp};
use crate::segment::Segment;
use crate::CompileError;

/// Where one op's arrays sit in the segment's bound ids: its compute
/// arrays, its fresh (not borrowed) input buffers and its output buffers.
struct OpSpans {
    compute: Range<usize>,
    mem_in: Range<usize>,
    mem_out: Range<usize>,
}

/// Binds up to `count` ids: drains them off the end of `first` (the
/// pool in the wanted mode) onto `out`, highest id first, then the rest
/// off the end of `second`. Returns the span of `out` they fill.
fn take(
    out: &mut Vec<ArrayId>,
    count: usize,
    first: &mut Vec<ArrayId>,
    second: &mut Vec<ArrayId>,
) -> Range<usize> {
    let start = out.len();
    for pool in [first, second] {
        let k = (count - (out.len() - start)).min(pool.len());
        out.extend(pool.drain(pool.len() - k..).rev());
    }
    start..out.len()
}

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
    let mut flow = Flow::with_ops(name, list.ops.iter().map(SegOp::flow_op).collect());
    let cm = CostModel::new(arch);
    // Indexed once: the per-boundary write-back queries below otherwise
    // rescan the full dep list for every segment.
    let deps = DepIndex::new(list);

    // Buffers kept across segments (see "Cost contract").
    let mut compute_pool: Vec<ArrayId> = Vec::with_capacity(n);
    let mut memory_pool: Vec<ArrayId> = Vec::with_capacity(n);
    let mut bound: Vec<ArrayId> = Vec::with_capacity(n);
    let mut spans: Vec<OpSpans> = Vec::new();
    let mut reused_in: Vec<usize> = Vec::new();
    let mut out_cursor: Vec<usize> = Vec::new();
    // Per reuse entry: the consumer and the lent span of `bound`.
    let mut lent: Vec<(usize, Range<usize>)> = Vec::new();
    let mut mem_in_ids: Vec<ArrayId> = Vec::new();
    let mut to_compute: Vec<ArrayId> = Vec::with_capacity(n);
    let mut to_memory: Vec<ArrayId> = Vec::with_capacity(n);

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
                    kind: MemKind::Writeback {
                        segment: seg_idx as u32,
                    },
                }));
            }
        }

        // ---- Physical assignment. ----
        // Demands per op: compute, fresh mem_in (minus reused), mem_out.
        reused_in.clear();
        reused_in.resize(ops.len(), 0);
        for &((_, c), r) in &seg.alloc.reuse {
            reused_in[c] += r;
        }
        // Pools of array ids by current mode, ascending.
        compute_pool.clear();
        memory_pool.clear();
        for (i, &mode) in modes.iter().enumerate() {
            match mode {
                ArrayMode::Compute => compute_pool.push(ArrayId(i as u32)),
                ArrayMode::Memory => memory_pool.push(ArrayId(i as u32)),
            }
        }
        bound.clear();
        spans.clear();
        for (oi, a) in seg.alloc.ops.iter().enumerate() {
            let compute = take(&mut bound, a.compute, &mut compute_pool, &mut memory_pool);
            if compute.len() < a.compute {
                return Err(CompileError::NoFeasibleSchedule);
            }
            let fresh_in = a.mem_in.saturating_sub(reused_in[oi]);
            let mem_in = take(&mut bound, fresh_in, &mut memory_pool, &mut compute_pool);
            let mem_out = take(&mut bound, a.mem_out, &mut memory_pool, &mut compute_pool);
            spans.push(OpSpans {
                compute,
                mem_in,
                mem_out,
            });
        }
        // Wire reused arrays: consumer's mem_in borrows producer's
        // mem_out. A per-producer cursor guarantees each physical array is
        // lent to exactly one consumer.
        out_cursor.clear();
        out_cursor.resize(ops.len(), 0);
        lent.clear();
        for &((p, c), r) in &seg.alloc.reuse {
            let out = &spans[p].mem_out;
            let start = out_cursor[p];
            let end = (start + r).min(out.len());
            lent.push((c, out.start + start..out.start + end));
            out_cursor[p] = end;
        }

        // ---- Step 2 (Fig. 10): mode switches. ----
        // Every bound id is bound once; borrowed inputs are some op's
        // outputs, already counted there.
        to_compute.clear();
        to_memory.clear();
        for span in &spans {
            for &id in &bound[span.compute.clone()] {
                if modes[id.index()] != ArrayMode::Compute {
                    to_compute.push(id);
                    modes[id.index()] = ArrayMode::Compute;
                }
            }
            for &id in bound[span.mem_in.clone()]
                .iter()
                .chain(&bound[span.mem_out.clone()])
            {
                if modes[id.index()] != ArrayMode::Memory {
                    to_memory.push(id);
                    modes[id.index()] = ArrayMode::Memory;
                }
            }
        }
        to_compute.sort_unstable();
        to_memory.sort_unstable();
        if !to_memory.is_empty() {
            flow.push(Stmt::switch(SwitchKind::ToMemory, to_memory.as_slice()));
        }
        if !to_compute.is_empty() {
            flow.push(Stmt::switch(SwitchKind::ToCompute, to_compute.as_slice()));
        }

        // ---- Step 3 (Fig. 10) + segment body. ----
        let mut body: Vec<Stmt> = Vec::with_capacity(3 * ops.len());
        for (oi, op) in ops.iter().enumerate() {
            let index = (lo + oi) as u32;
            let span = &spans[oi];
            let compute = &bound[span.compute.clone()];
            let mem_in_arrays: ArraySet = if lent.iter().any(|&(c, _)| c == oi) {
                mem_in_ids.clear();
                mem_in_ids.extend_from_slice(&bound[span.mem_in.clone()]);
                for (_, ids) in lent.iter().filter(|&&(c, _)| c == oi) {
                    mem_in_ids.extend_from_slice(&bound[ids.clone()]);
                }
                mem_in_ids.as_slice().into()
            } else {
                bound[span.mem_in.clone()].into()
            };
            if op.weight_static && !compute.is_empty() {
                body.push(Stmt::LoadWeights(WeightLoadStmt {
                    op: index,
                    arrays: compute.into(),
                    bytes: compute.len() as u64 * arch.array_bytes(),
                }));
            }
            body.push(Stmt::Compute(ComputeStmt {
                op: index,
                compute_arrays: compute.into(),
                mem_in_arrays,
                mem_out_arrays: bound[span.mem_out.clone()].into(),
            }));
            if op.aux_flops > 0 {
                body.push(Stmt::Vector(VectorStmt {
                    op: index,
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
            kind: MemKind::FinalOutput,
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
        assert!(matches!(last, Stmt::Mem(m) if m.kind == MemKind::FinalOutput));
    }
}
