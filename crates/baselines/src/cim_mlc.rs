//! CIM-MLC-style backend (Qu et al., ASPLOS'24) — the paper's main
//! baseline: multi-grained pipelining and weight duplication with
//! DP-optimized segmentation, but **all arrays fixed in compute mode**.
//!
//! Implemented as the same segmentation DP as CMSwitch with the
//! allocation restricted to compute-only (minimal tiles + duplication),
//! so CMSwitch-vs-CIM-MLC comparisons isolate exactly the dual-mode
//! dimension the paper adds.

use std::collections::HashMap;

use cmswitch_core::allocation::SegmentAllocation;
use cmswitch_core::cost::CostModel;
use cmswitch_core::frontend::{DepIndex, OpList};
use cmswitch_core::pipeline::{compile_with_segmenter, Partitioned, Segmented, Stage};
use cmswitch_core::{Backend, CancelToken, CompileError, CompiledProgram, PipelineCx};
use cmswitch_graph::Graph;

use crate::common::all_compute_alloc;

/// CIM-MLC's segmentation policy as a pipeline stage: CMSwitch's Eq. 3
/// DP over candidate windows, scored with all-compute allocations.
#[derive(Debug, Clone, Copy)]
pub struct CimMlcSegmentStage {
    /// Maximum operators per DP window.
    pub max_segment_ops: usize,
}

/// A segment chain before inter costs: `(range, allocation)` parts.
type Parts = Vec<((usize, usize), SegmentAllocation)>;

impl CimMlcSegmentStage {
    fn dp_parts(
        &self,
        list: &OpList,
        cm: &CostModel<'_>,
        cancel: &CancelToken,
    ) -> Result<Parts, CompileError> {
        let m = list.ops.len();
        let window = self.max_segment_ops;
        let deps = DepIndex::new(list);
        let mut allocs: HashMap<(usize, usize), Option<SegmentAllocation>> = HashMap::new();
        let mut alloc_of = |i: usize, j: usize| -> Option<SegmentAllocation> {
            if let Some(hit) = allocs.get(&(i, j)) {
                return hit.clone();
            }
            let a = all_compute_alloc(&list.ops[i..=j], cm, true);
            allocs.insert((i, j), a.clone());
            a
        };

        let mut dp: HashMap<(usize, usize), (f64, usize)> = HashMap::new();
        for j in 0..m {
            let i_lo = j + 1 - window.min(j + 1);
            for i in i_lo..=j {
                // Same abort granularity as the CMSwitch DP: one poll
                // per candidate window.
                cancel.check()?;
                let Some(alloc) = alloc_of(i, j) else { continue };
                let intra = alloc.latency;
                let ops = &list.ops[i..=j];
                if i == 0 {
                    let cost = cm.inter_cost(&deps, None, (i, j), ops, &alloc);
                    dp.insert((0, j), (cost + intra, usize::MAX));
                    continue;
                }
                let k_lo = i - window.min(i);
                let mut best: Option<(f64, usize)> = None;
                for k in k_lo..i {
                    let Some(&(prev_cost, _)) = dp.get(&(k, i - 1)) else {
                        continue;
                    };
                    let Some(prev_alloc) = alloc_of(k, i - 1) else { continue };
                    let prev = Some(((k, i - 1), &prev_alloc));
                    let inter = cm.inter_cost(&deps, prev, (i, j), ops, &alloc);
                    let total = prev_cost + inter + intra;
                    if best.is_none_or(|(b, _)| total < b) {
                        best = Some((total, k));
                    }
                }
                if let Some(b) = best {
                    dp.insert((i, j), b);
                }
            }
        }
        let (mut i, mut j) = (0..m)
            .filter_map(|i| dp.get(&(i, m - 1)).map(|&(c, _)| (i, c)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("comparable"))
            .map(|(i, _)| (i, m - 1))
            .ok_or(CompileError::NoFeasibleSchedule)?;
        let mut ranges = Vec::new();
        loop {
            ranges.push((i, j));
            let &(_, prev) = dp.get(&(i, j)).expect("on path");
            if prev == usize::MAX {
                break;
            }
            j = i - 1;
            i = prev;
        }
        ranges.reverse();
        Ok(ranges
            .into_iter()
            .map(|r| {
                let a = alloc_of(r.0, r.1).expect("on path");
                (r, a)
            })
            .collect())
    }
}

impl Stage<Partitioned> for CimMlcSegmentStage {
    type Output = Segmented;

    fn name(&self) -> &'static str {
        "segment:cim-mlc-dp"
    }

    fn run(&self, cx: &mut PipelineCx<'_>, input: Partitioned) -> Result<Segmented, CompileError> {
        let cm = cx.cost_model();
        let cancel = cx.cancel_token().clone();
        let parts = self.dp_parts(&input.list, &cm, &cancel)?;
        Ok(Segmented::from_chain(input.name, input.list, &cm, parts))
    }
}

/// The CIM-MLC baseline.
#[derive(Debug, Clone, Copy)]
pub struct CimMlc;

impl Backend for CimMlc {
    fn name(&self) -> &str {
        "cim-mlc"
    }

    fn compile_in(
        &self,
        cx: &mut PipelineCx<'_>,
        graph: &Graph,
    ) -> Result<CompiledProgram, CompileError> {
        let stage = CimMlcSegmentStage {
            max_segment_ops: cx.options().max_segment_ops,
        };
        compile_with_segmenter(cx, &stage, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, SessionBackendExt};
    use cmswitch_arch::presets;
    use cmswitch_core::Session;

    fn compile(kind: BackendKind, g: &Graph) -> CompiledProgram {
        let session = Session::builder(presets::tiny()).backend_kind(kind).build();
        session.compile_graph(g).unwrap()
    }

    #[test]
    fn mlc_is_all_compute() {
        let g = cmswitch_models::mlp::mlp(2, &[256, 256, 128, 64]).unwrap();
        let p = compile(BackendKind::CimMlc, &g);
        for s in &p.segments {
            assert_eq!(s.alloc.total_memory(), 0, "{:?}", s.alloc);
        }
        cmswitch_metaop::validate(&p.flow).unwrap();
    }

    #[test]
    fn mlc_beats_or_matches_greedy_baselines() {
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 256, 128]).unwrap();
        let mlc = compile(BackendKind::CimMlc, &g);
        let puma = compile(BackendKind::Puma, &g);
        let occ = compile(BackendKind::Occ, &g);
        assert!(mlc.predicted_latency <= puma.predicted_latency * 1.001);
        assert!(mlc.predicted_latency <= occ.predicted_latency * 1.001);
    }

    #[test]
    fn cmswitch_beats_or_matches_mlc() {
        // The headline property: the dual-mode-aware compiler optimizes a
        // strict superset of CIM-MLC's space, so it can never be worse
        // under the shared cost model.
        let g = cmswitch_models::mlp::mlp(4, &[256, 512, 256, 128]).unwrap();
        let ours = compile(BackendKind::CmSwitch, &g);
        let mlc = compile(BackendKind::CimMlc, &g);
        assert!(
            ours.predicted_latency <= mlc.predicted_latency * 1.01,
            "cmswitch {} vs mlc {}",
            ours.predicted_latency,
            mlc.predicted_latency
        );
    }
}
