//! Lowering from the operator graph to the CIM-supportable operator list.
//!
//! The compiler (DACO, §4.3) operates on the topologically sorted list of
//! CIM-supportable operators — MVM/MMM-reducible nodes (§4.3.1). This
//! module extracts that list:
//!
//! * convolutions are unrolled to their im2col-equivalent MMM dimensions
//!   (§2.1.2, Fig. 12),
//! * linear layers fold batch/sequence dims into the streamed `M`
//!   dimension,
//! * dynamic batched matmuls (`Q·Kᵀ`, `S·V`) become MMM *units* whose
//!   "weights" are runtime data and must be written into arrays at
//!   execution time,
//! * non-CIM operators (softmax, norms, activations, elementwise) are
//!   attached to their nearest upstream CIM operator as vector-unit work.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::{Graph, GraphError, NodeId, OpKind};

/// A CIM-supportable operator in MMM normal form.
///
/// The operator consists of `units` independent `[M,K]·[K,N]` matrix
/// multiplications (`units > 1` for grouped convolutions and batched
/// dynamic matmuls). Totals (MACs, bytes) are across all units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CimOp {
    /// Originating graph node.
    pub node: NodeId,
    /// Layer name (from the graph).
    pub name: String,
    /// Streamed rows per unit.
    pub m: usize,
    /// Reduction dimension per unit (maps to array rows).
    pub k: usize,
    /// Output dimension per unit (maps to array columns).
    pub n: usize,
    /// Number of independent `[M,K]·[K,N]` products.
    pub units: usize,
    /// Whether the `[K,N]` operand is a static trained weight (can be
    /// pre-written into compute arrays offline) or runtime data.
    pub weight_static: bool,
    /// Total multiply-accumulates: `units·m·k·n`.
    pub macs: u64,
    /// Dynamic input bytes streamed through the arrays (int8).
    pub in_bytes: u64,
    /// Output bytes produced (int8).
    pub out_bytes: u64,
    /// Bytes of the `[K,N]` operand(s): `units·k·n` (int8). For dynamic
    /// ops these bytes are produced at runtime and written into arrays.
    pub weight_bytes: u64,
    /// Vector-unit FLOPs of the non-CIM nodes fused after this operator
    /// (softmax, norms, activations, residual adds).
    pub aux_flops: u64,
}

impl CimOp {
    /// Arithmetic intensity with weights resident: MACs per dynamic input
    /// byte (the `AI_Oi` of Eq. 10; for an `[M,N]×[N,K]` MMM the paper
    /// derives `AI = K`, i.e. the per-unit output dimension here).
    pub fn ai_resident(&self) -> f64 {
        if self.in_bytes == 0 {
            0.0
        } else {
            self.macs as f64 / self.in_bytes as f64
        }
    }
}

/// Output of lowering: the CIM operator list plus dependency structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoweredGraph {
    /// CIM operators in topological order.
    pub ops: Vec<CimOp>,
    /// Direct dependencies `(producer, consumer)` as indices into `ops`,
    /// where the producer's output reaches the consumer possibly through
    /// non-CIM glue nodes. These are the `w_{i,j} ∈ W` of §4.3.1.
    pub deps: Vec<(usize, usize)>,
    /// Bytes flowing along each entry in `deps` (used for the buffer-reuse
    /// bound in constraint Eq. 6).
    pub dep_bytes: Vec<u64>,
}

/// Lowers a graph to its CIM operator list.
///
/// # Errors
///
/// Propagates [`GraphError`] for malformed graphs.
pub fn lower(graph: &Graph) -> Result<LoweredGraph, GraphError> {
    graph.validate()?;
    let order = graph.topo_order();
    let mut ops: Vec<CimOp> = Vec::new();
    // For each graph node, the index of the CIM op whose output (possibly
    // through glue nodes) that node carries; None before any CIM op.
    let mut carrier: Vec<Option<usize>> = vec![None; graph.len()];
    let mut deps: BTreeSet<(usize, usize)> = BTreeSet::new();

    for &id in &order {
        let node = graph.node(id)?;
        if node.op.is_cim_supported() {
            let op = lower_node(graph, id)?;
            let idx = ops.len();
            for &input in &node.inputs {
                if let Some(src) = carrier[input.index()] {
                    if src != idx {
                        deps.insert((src, idx));
                    }
                }
            }
            ops.push(op);
            carrier[id.index()] = Some(idx);
        } else {
            // Glue node: carries its (single relevant) upstream CIM op and
            // contributes vector-unit work to it.
            let mut src: Option<usize> = None;
            for &input in &node.inputs {
                if let Some(s) = carrier[input.index()] {
                    // If two different CIM ops merge at a glue node (e.g.
                    // residual add), carry the later one and record that the
                    // earlier one's data is still live into it.
                    src = Some(match src {
                        Some(prev) if prev != s => {
                            deps.insert((prev.min(s), prev.max(s)));
                            prev.max(s)
                        }
                        _ => s,
                    });
                }
            }
            carrier[id.index()] = src;
            if let Some(s) = src {
                let p = crate::analysis::profile_node(graph, node)?;
                ops[s].aux_flops += p.flops;
            }
        }
    }

    // Glue-node chains can also create producer→consumer edges: a consumer
    // CIM op whose input carries producer op s was handled above when the
    // consumer was created. Now compute per-edge byte volumes.
    let deps: Vec<(usize, usize)> = deps.into_iter().collect();
    let dep_bytes = deps
        .iter()
        .map(|&(p, _)| ops[p].out_bytes)
        .collect::<Vec<_>>();

    Ok(LoweredGraph {
        ops,
        deps,
        dep_bytes,
    })
}

fn lower_node(graph: &Graph, id: NodeId) -> Result<CimOp, GraphError> {
    let node = graph.node(id)?;
    let in_shape: Vec<usize> = graph.node(node.inputs[0])?.shape.clone();
    let out_numel = node.out_numel() as u64;

    let (m, k, n, units, weight_static, in_bytes) = match &node.op {
        OpKind::Linear { out_features } => {
            let in_features = *in_shape.last().unwrap_or(&1);
            let rows: usize = in_shape.iter().product::<usize>() / in_features.max(1);
            (
                rows,
                in_features,
                *out_features,
                1usize,
                true,
                (rows * in_features) as u64,
            )
        }
        OpKind::Conv2d {
            out_channels,
            kernel,
            groups,
            ..
        } => {
            let (batch, in_c) = (in_shape[0], in_shape[1]);
            let (oh, ow) = (node.shape[2], node.shape[3]);
            let m = batch * oh * ow;
            let k = in_c / groups * kernel * kernel;
            let n = out_channels / groups;
            // im2col patches per unit stream m*k bytes; groups share the
            // input image but read disjoint channel slices.
            (m, k, n, *groups, true, (*groups * m * k) as u64)
        }
        OpKind::BatchMatMul { transpose_rhs } => {
            let a = &in_shape;
            let b = &graph.node(node.inputs[1])?.shape;
            let (batch, m, k) = if a.len() == 3 {
                (a[0], a[1], a[2])
            } else {
                (1, a[0], a[1])
            };
            let n = if b.len() == 3 {
                if *transpose_rhs {
                    b[1]
                } else {
                    b[2]
                }
            } else if *transpose_rhs {
                b[0]
            } else {
                b[1]
            };
            // The streamed operand is A; B is the array-resident operand
            // (runtime data -> weight_static = false).
            (m, k, n, batch, false, (batch * m * k) as u64)
        }
        other => {
            return Err(GraphError::InvalidArgument(format!(
                "node {id} ({other}) is not CIM-supportable"
            )))
        }
    };

    let macs = (units as u64) * (m as u64) * (k as u64) * (n as u64);
    Ok(CimOp {
        node: id,
        name: node.name.clone(),
        m,
        k,
        n,
        units,
        weight_static,
        macs,
        in_bytes,
        out_bytes: out_numel,
        weight_bytes: (units * k * n) as u64,
        aux_flops: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn lowers_mlp_chain() {
        let mut b = GraphBuilder::new("mlp");
        let x = b.input("x", vec![4, 64]);
        let h = b.linear("fc1", x, 128).unwrap();
        let h = b.relu("r1", h).unwrap();
        let _ = b.linear("fc2", h, 10).unwrap();
        let g = b.finish().unwrap();
        let l = lower(&g).unwrap();
        assert_eq!(l.ops.len(), 2);
        assert_eq!((l.ops[0].m, l.ops[0].k, l.ops[0].n), (4, 64, 128));
        assert_eq!((l.ops[1].m, l.ops[1].k, l.ops[1].n), (4, 128, 10));
        assert_eq!(l.deps, [(0, 1)]);
        assert_eq!(l.dep_bytes, [4 * 128]);
        // The relu's flops are attached to fc1.
        assert_eq!(l.ops[0].aux_flops, 4 * 128);
    }

    #[test]
    fn conv_lowering_uses_im2col_dims() {
        let mut b = GraphBuilder::new("conv");
        let x = b.input("x", vec![2, 3, 32, 32]);
        b.conv2d("c1", x, 16, 3, 1, 1).unwrap();
        let g = b.finish().unwrap();
        let l = lower(&g).unwrap();
        let op = &l.ops[0];
        assert_eq!(op.m, 2 * 32 * 32);
        assert_eq!(op.k, 27);
        assert_eq!(op.n, 16);
        assert_eq!(op.units, 1);
        assert!(op.weight_static);
        assert_eq!(op.macs, (2 * 32 * 32 * 27 * 16) as u64);
    }

    #[test]
    fn grouped_conv_units() {
        let mut b = GraphBuilder::new("dw");
        let x = b.input("x", vec![1, 32, 8, 8]);
        b.conv2d_grouped("dw", x, 32, 3, 1, 1, 32).unwrap();
        let g = b.finish().unwrap();
        let l = lower(&g).unwrap();
        let op = &l.ops[0];
        assert_eq!(op.units, 32);
        assert_eq!(op.k, 9);
        assert_eq!(op.n, 1);
        assert_eq!(op.macs, (32 * 64 * 9) as u64);
    }

    #[test]
    fn dynamic_matmul_not_static() {
        let mut b = GraphBuilder::new("attn");
        let q = b.input("q", vec![8, 64, 96]);
        let k = b.input("k", vec![8, 64, 96]);
        let s = b.matmul("qk", q, k, true).unwrap();
        let p = b.softmax("probs", s).unwrap();
        let v = b.input("v", vec![8, 64, 96]);
        let _ = b.matmul("sv", p, v, false).unwrap();
        let g = b.finish().unwrap();
        let l = lower(&g).unwrap();
        assert_eq!(l.ops.len(), 2);
        assert!(!l.ops[0].weight_static);
        assert_eq!(l.ops[0].units, 8);
        assert_eq!((l.ops[0].m, l.ops[0].k, l.ops[0].n), (64, 96, 64));
        // softmax flops attach to the QK^T op; SV depends on QK^T.
        assert!(l.ops[0].aux_flops > 0);
        assert!(l.deps.contains(&(0, 1)));
    }

    #[test]
    fn residual_merge_records_dependency() {
        // fc1 -> fc2 -> add(fc1 out, fc2 out) -> fc3: fc1 must still feed
        // fc3's input through the add.
        let mut b = GraphBuilder::new("res");
        let x = b.input("x", vec![1, 32]);
        let a = b.linear("fc1", x, 32).unwrap();
        let c = b.linear("fc2", a, 32).unwrap();
        let s = b.add("res", a, c).unwrap();
        let _ = b.linear("fc3", s, 32).unwrap();
        let g = b.finish().unwrap();
        let l = lower(&g).unwrap();
        assert_eq!(l.ops.len(), 3);
        assert!(l.deps.contains(&(0, 1)));
        assert!(l.deps.contains(&(1, 2)));
        // The merge records fc1's liveness into fc2's range.
        assert!(l.deps.contains(&(0, 1)) || l.deps.contains(&(0, 2)));
    }

    #[test]
    fn ai_resident_equals_output_dim_for_big_m() {
        // Paper: for [M,N]x[N,K] MMM, AI = K (per-unit output dim n here),
        // when output write-back is not counted. ai_resident counts only
        // input bytes, so it equals n exactly.
        let mut b = GraphBuilder::new("mm");
        let x = b.input("x", vec![128, 256]);
        b.linear("fc", x, 512).unwrap();
        let g = b.finish().unwrap();
        let l = lower(&g).unwrap();
        assert!((l.ops[0].ai_resident() - 512.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_cim_node_lowering() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", vec![1, 4]);
        let r = b.relu("r", x).unwrap();
        let g = b.finish().unwrap();
        assert!(lower_node(&g, r).is_err());
    }
}
