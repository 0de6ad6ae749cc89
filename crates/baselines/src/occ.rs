//! OCC-style backend: per-operator tiling with sequential execution
//! (Siemieniuk et al., TCAD'21).

use cmswitch_core::pipeline::{compile_with_segmenter, Partitioned, Segmented, Stage};
use cmswitch_core::{Backend, CompileError, CompiledProgram, PipelineCx};
use cmswitch_graph::Graph;

use crate::common::{all_compute_alloc, greedy_ranges};

/// OCC's segmentation policy as a pipeline stage: greedy packing with
/// minimal-tile mapping (no duplication) and *sequential* operator
/// execution — segment latency is the sum of op latencies, not the
/// pipeline bottleneck.
#[derive(Debug, Clone, Copy, Default)]
pub struct OccSegmentStage;

impl Stage<Partitioned> for OccSegmentStage {
    type Output = Segmented;

    fn name(&self) -> &'static str {
        "segment:occ-sequential"
    }

    fn run(&self, cx: &mut PipelineCx<'_>, input: Partitioned) -> Result<Segmented, CompileError> {
        let cm = cx.cost_model();
        let max_ops = cx.options().max_segment_ops;
        let ranges = greedy_ranges(&input.list, cx.arch().n_arrays(), max_ops);
        let mut parts = Vec::with_capacity(ranges.len());
        for r in ranges {
            let ops = &input.list.ops[r.0..=r.1];
            let mut alloc =
                all_compute_alloc(ops, &cm, false).ok_or(CompileError::NoFeasibleSchedule)?;
            alloc.latency = ops
                .iter()
                .zip(&alloc.ops)
                .map(|(op, a)| cm.op_latency(op, a))
                .sum();
            parts.push((r, alloc));
        }
        Ok(Segmented::from_chain(input.name, input.list, &cm, parts))
    }
}

/// The OCC baseline.
#[derive(Debug, Clone, Copy)]
pub struct Occ;

impl Backend for Occ {
    fn name(&self) -> &str {
        "occ"
    }

    fn compile_in(
        &self,
        cx: &mut PipelineCx<'_>,
        graph: &Graph,
    ) -> Result<CompiledProgram, CompileError> {
        compile_with_segmenter(cx, &OccSegmentStage, graph)
    }
}

#[cfg(test)]
mod tests {
    use crate::{BackendKind, SessionBackendExt};
    use cmswitch_arch::presets;
    use cmswitch_core::Session;

    #[test]
    fn sequential_slower_than_pipelined_puma_per_segment() {
        let g = cmswitch_models::mlp::mlp(4, &[128, 256, 256, 64]).unwrap();
        let compile = |kind| {
            let session = Session::builder(presets::tiny()).backend_kind(kind).build();
            session.compile_graph(&g).unwrap()
        };
        let occ = compile(BackendKind::Occ);
        let puma = compile(BackendKind::Puma);
        // Both valid; OCC uses minimal tiles only.
        for s in &occ.segments {
            assert_eq!(s.alloc.total_memory(), 0);
        }
        assert!(occ.predicted_latency.is_finite());
        assert!(puma.predicted_latency.is_finite());
    }
}
