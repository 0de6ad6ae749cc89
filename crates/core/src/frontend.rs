//! Frontend: lowering the graph into the compiler's operator list.
//!
//! Produces [`SegOp`]s — the topologically sorted, CIM-supportable
//! operators of §4.3.1 (`O_1 … O_m`) together with their dependency
//! relation `W` — annotated with everything the cost model needs.

use std::ops::Range;
use std::sync::Arc;

use cmswitch_arch::DualModeArch;
use cmswitch_graph::{lower, Graph};
use cmswitch_metaop::FlowOp;

use crate::CompileError;

/// One schedulable operator (or sub-operator after partitioning).
#[derive(Debug, Clone, PartialEq)]
pub struct SegOp {
    /// Index of the originating op in the lowered graph, which every
    /// dependency edge uses (sub-operators of one op share it and sit
    /// next to each other, so sources ascend from 0 in steps of 0 or 1).
    pub source: usize,
    /// Name (sub-operators get a `#part` suffix), shared with the op
    /// table of the flow emitted for it ([`SegOp::flow_op`]).
    pub name: Arc<str>,
    /// Streamed rows per unit.
    pub m: usize,
    /// Reduction dim per unit.
    pub k: usize,
    /// Output dim per unit.
    pub n: usize,
    /// Independent matmul units (batch·heads or conv groups).
    pub units: usize,
    /// Whether the resident operand is a static trained weight.
    pub weight_static: bool,
    /// Total MACs.
    pub work: f64,
    /// Dynamic input bytes streamed.
    pub in_bytes: u64,
    /// Output bytes produced.
    pub out_bytes: u64,
    /// Resident-operand bytes (`units·k·n`).
    pub weight_bytes: u64,
    /// Vector-unit FLOPs fused after this operator.
    pub aux_flops: u64,
    /// Minimum compute arrays: tiles to hold one unit's `[K,N]` operand.
    pub min_tiles: usize,
}

impl SegOp {
    /// The op's entry in an emitted flow's op table: its name (the same
    /// allocation, not a copy), source and the shape statements are
    /// priced by.
    pub fn flow_op(&self) -> FlowOp {
        FlowOp {
            name: Arc::clone(&self.name),
            source: self.source,
            m: self.m,
            k: self.k,
            n: self.n,
            units: self.units,
            in_bytes: self.in_bytes,
            out_bytes: self.out_bytes,
            weight_static: self.weight_static,
        }
    }

    /// Arithmetic intensity `AI_Oi`: MACs per streamed input byte
    /// (Eq. 10; equals the per-unit output dim for an MMM, as the paper
    /// derives in Fig. 12).
    pub fn ai(&self) -> f64 {
        if self.in_bytes == 0 {
            f64::INFINITY
        } else {
            self.work / self.in_bytes as f64
        }
    }
}

/// The compiler's working set: operators plus the dependency relation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpList {
    /// Operators in topological order.
    pub ops: Vec<SegOp>,
    /// `(producer, consumer)` pairs (`w_{i,j} ∈ W`, a set) of
    /// [`SegOp::source`] indices.
    pub deps: Vec<(usize, usize)>,
    /// Bytes flowing along each dep.
    pub dep_bytes: Vec<u64>,
}

impl OpList {
    /// Bytes of the network's final outputs: what the ops no other op
    /// consumes produce.
    pub(crate) fn output_bytes(&self) -> u64 {
        let consumed: std::collections::HashSet<usize> =
            self.deps.iter().map(|&(p, _)| p).collect();
        self.ops
            .iter()
            .filter(|op| !consumed.contains(&op.source))
            .map(|op| op.out_bytes)
            .sum()
    }
}

/// `first[s]..first[s + 1]` are the ops split from lowered op `s`:
/// partitioning keeps each source's ops contiguous and sources
/// ascending from 0 (the artifact decoder refuses anything else).
pub fn source_spans(ops: &[SegOp]) -> Vec<usize> {
    let mut first = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        while first.len() <= op.source {
            first.push(i);
        }
    }
    first.push(ops.len());
    first
}

/// Producer-sorted dependency index: answers "all deps produced inside
/// op range `lo..=hi`" without a scan over the full dependency list.
///
/// [`OpList::deps`] relates sources: every op of a producer feeds every
/// op of its consumer, each pair carrying `bytes / (pn · cn)`. A window
/// query expands only the pairs whose producer it covers, so its cost is
/// the window's own dependency count, and a model split into `10^5` ops
/// never holds the `10^9` pairs of the full expansion; a crossing query
/// sums each edge's consumer span without expanding it.
///
/// Pairs come out ordered by `(producer, consumer, bytes)`, a pure
/// function of the dependency *set* — so every construction order
/// yields the same index and downstream iteration order stays
/// deterministic.
#[derive(Debug)]
pub struct DepIndex {
    /// Each op's [`SegOp::source`].
    source: Vec<usize>,
    /// Per edge: producer source, the consumer's op span and the bytes
    /// of each pair, sorted ascending.
    edges: Vec<(usize, usize, usize, u64)>,
    /// `out[s]..out[s + 1]` spans the edges out of source `s`.
    out: Vec<usize>,
}

impl DepIndex {
    /// Builds the index for `list` (O(ops + D log D) once per compile).
    pub fn new(list: &OpList) -> Self {
        let first = source_spans(&list.ops);
        let mut edges: Vec<(usize, usize, usize, u64)> = list
            .deps
            .iter()
            .zip(&list.dep_bytes)
            .map(|(&(p, c), &b)| {
                let pairs = (first[p + 1] - first[p]) * (first[c + 1] - first[c]);
                (p, first[c], first[c + 1], b / pairs as u64)
            })
            .collect();
        edges.sort_unstable();
        let mut out = vec![0usize; first.len()];
        for &(p, ..) in &edges {
            out[p + 1] += 1;
        }
        for s in 1..out.len() {
            out[s] += out[s - 1];
        }
        let source = list.ops.iter().map(|op| op.source).collect();
        DepIndex { source, edges, out }
    }

    /// Every pair whose producer lies in `lo..=hi`, each consumer span
    /// narrowed by `clip(producer, span)`.
    fn pairs<'a>(
        &'a self,
        lo: usize,
        hi: usize,
        clip: impl Fn(usize, Range<usize>) -> Range<usize> + Copy + 'a,
    ) -> impl Iterator<Item = (usize, usize, u64)> + 'a {
        (lo..hi.saturating_add(1).min(self.source.len())).flat_map(move |p| {
            let s = self.source[p];
            self.edges[self.out[s]..self.out[s + 1]].iter().flat_map(
                move |&(_, first, end, bytes)| clip(p, first..end).map(move |c| (p, c, bytes)),
            )
        })
    }

    /// The bytes of the deps crossing out of `range` (producer inside,
    /// consumer after it), split into those whose consumer lies in `next`
    /// and the rest. Summed a consumer span at a time — `pairs × bytes`
    /// per edge, the same `u64` total as adding the pairs one by one —
    /// so a segment transition costs the edges out of `range`, not the
    /// chunk pairs they expand to.
    pub fn crossing_bytes(&self, range: (usize, usize), next: (usize, usize)) -> (u64, u64) {
        let (lo, hi) = range;
        let (mut to_next, mut beyond) = (0u64, 0u64);
        for p in lo..hi.saturating_add(1).min(self.source.len()) {
            let s = self.source[p];
            for &(_, first, end, bytes) in &self.edges[self.out[s]..self.out[s + 1]] {
                let start = first.max(hi + 1);
                if start >= end {
                    continue;
                }
                let inside = end
                    .min(next.1.saturating_add(1))
                    .saturating_sub(start.max(next.0));
                to_next += inside as u64 * bytes;
                beyond += (end - start - inside) as u64 * bytes;
            }
        }
        (to_next, beyond)
    }

    /// The window's dependency list (`producer < consumer`, both inside
    /// `lo..=hi`), re-indexed to window-local op positions — the
    /// `local_deps` input of the allocators.
    pub fn window_local(&self, lo: usize, hi: usize) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        self.window_local_into(lo, hi, &mut out);
        out
    }

    /// [`DepIndex::window_local`] written into `out` (replacing its
    /// contents), so a caller that keeps `out` allocates only when a
    /// window has more dependencies than any before it.
    pub(crate) fn window_local_into(
        &self,
        lo: usize,
        hi: usize,
        out: &mut Vec<(usize, usize, u64)>,
    ) {
        let clip = move |p: usize, span: Range<usize>| span.start.max(p + 1)..span.end.min(hi + 1);
        let pairs = self.pairs(lo, hi, clip);
        out.clear();
        out.extend(pairs.map(|(p, c, b)| (p - lo, c - lo, b)));
    }
}

/// Lowers `graph` into the compiler's operator list for `arch`.
///
/// # Errors
///
/// Propagates [`CompileError::Graph`] for malformed graphs.
pub fn lower_graph(graph: &Graph, arch: &DualModeArch) -> Result<OpList, CompileError> {
    let lowered = lower::lower(graph)?;
    let ops = lowered
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| SegOp {
            source: i,
            name: op.name.as_str().into(),
            m: op.m,
            k: op.k,
            n: op.n,
            units: op.units,
            weight_static: op.weight_static,
            work: op.macs as f64,
            in_bytes: op.in_bytes,
            out_bytes: op.out_bytes,
            weight_bytes: op.weight_bytes,
            aux_flops: op.aux_flops,
            min_tiles: arch.weight_tiles(op.k, op.n),
        })
        .collect();
    Ok(OpList {
        ops,
        deps: lowered.deps,
        dep_bytes: lowered.dep_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;

    #[test]
    fn lowers_mlp_with_tiles() {
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 64]).unwrap();
        let arch = presets::tiny(); // 64x64 arrays
        let l = lower_graph(&g, &arch).unwrap();
        assert_eq!(l.ops.len(), 2);
        // fc0: 256x512 weights on 64x64 arrays -> 4*8 tiles.
        assert_eq!(l.ops[0].min_tiles, 4 * 8);
        assert_eq!(l.ops[1].min_tiles, 8);
        assert!(l.ops[0].ai() > 0.0);
        assert_eq!(l.deps, [(0, 1)]);
        assert_eq!(l.dep_bytes, [2 * 512]);
    }

    #[test]
    fn crossing_deps_filters_range() {
        let g = cmswitch_models::mlp::mlp(1, &[64, 64, 64, 64]).unwrap();
        let list = lower_graph(&g, &presets::tiny()).unwrap();
        let deps = DepIndex::new(&list);
        // 3 ops chained; deps (0,1), (1,2).
        let b01 = list.dep_bytes[0];
        assert_eq!(deps.crossing_bytes((0, 0), (1, 2)), (b01, 0));
        assert_eq!(deps.crossing_bytes((0, 0), (2, 2)), (0, b01));
        assert_eq!(deps.crossing_bytes((0, 2), (3, 3)), (0, 0));
    }
}
