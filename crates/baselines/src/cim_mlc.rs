//! CIM-MLC-style backend (Qu et al., ASPLOS'24) — the paper's main
//! baseline: multi-grained pipelining and weight duplication with
//! DP-optimized segmentation, but **all arrays fixed in compute mode**.
//!
//! Implemented as CMSwitch's own segmentation DP
//! ([`cmswitch_core::segment::segment`]) with a window solver that
//! grants compute arrays only (minimal tiles + duplication), so
//! CMSwitch-vs-CIM-MLC comparisons isolate exactly the dual-mode
//! dimension the paper adds: pruning, batching, cancellation and the
//! DP's statistics are the same code for both.

use cmswitch_core::allocation::SegmentAllocation;
use cmswitch_core::cost::CostModel;
use cmswitch_core::frontend::{DepIndex, OpList};
use cmswitch_core::pipeline::{compile_with_segmenter, Partitioned, Segmented, Stage};
use cmswitch_core::segment::{self, WindowSolver};
use cmswitch_core::{Backend, CompileError, CompiledProgram, PipelineCx};
use cmswitch_graph::Graph;

use crate::common::all_compute_alloc;

/// CIM-MLC's window solver: the all-compute allocation with weight
/// duplication. It reads no dependencies, so it never builds the
/// window-local lists the dual-mode allocator needs.
struct AllCompute<'c>(&'c CostModel<'c>);

impl WindowSolver for AllCompute<'_> {
    fn solve(
        &self,
        list: &OpList,
        _deps: &DepIndex,
        (i, j): (usize, usize),
    ) -> Option<SegmentAllocation> {
        all_compute_alloc(&list.ops[i..=j], self.0, true)
    }
}

/// CIM-MLC's segmentation policy as a pipeline stage: CMSwitch's Eq. 3
/// DP over candidate windows, scored with all-compute allocations.
#[derive(Debug, Clone, Copy, Default)]
pub struct CimMlcSegmentStage;

impl Stage<Partitioned> for CimMlcSegmentStage {
    type Output = Segmented;

    fn name(&self) -> &'static str {
        "segment:cim-mlc-dp"
    }

    fn run(&self, cx: &mut PipelineCx<'_>, input: Partitioned) -> Result<Segmented, CompileError> {
        let cm = cx.cost_model();
        let cancel = cx.cancel_token().clone();
        let (segmented, dp) =
            segment::segment(input, &AllCompute(&cm), &cm, cx.options(), &cancel)?;
        cx.record_dp(&dp);
        Ok(segmented)
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
        compile_with_segmenter(cx, &CimMlcSegmentStage, graph)
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
