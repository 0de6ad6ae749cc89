//! PUMA-style backend: operator duplication + pipeline scheduling over
//! all-compute arrays (Ankit et al., ASPLOS'19).

use cmswitch_core::pipeline::{compile_with_segmenter, Partitioned, Segmented, Stage};
use cmswitch_core::{Backend, CompileError, CompiledProgram, PipelineCx};
use cmswitch_graph::Graph;

use crate::common::{all_compute_alloc, greedy_ranges};

/// PUMA's segmentation policy as a pipeline stage: greedy packing,
/// all-compute allocation with weight duplication into leftover arrays,
/// and a coarse-synchronization penalty — PUMA pipelines at operator
/// granularity, so each segment pays the slowest op once more as a
/// fill/drain cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumaSegmentStage;

impl Stage<Partitioned> for PumaSegmentStage {
    type Output = Segmented;

    fn name(&self) -> &'static str {
        "segment:puma-greedy"
    }

    fn run(&self, cx: &mut PipelineCx<'_>, input: Partitioned) -> Result<Segmented, CompileError> {
        let cm = cx.cost_model();
        let max_ops = cx.options().max_segment_ops;
        let ranges = greedy_ranges(&input.list, cx.arch().n_arrays(), max_ops);
        let mut parts = Vec::with_capacity(ranges.len());
        for r in ranges {
            let ops = &input.list.ops[r.0..=r.1];
            let mut alloc =
                all_compute_alloc(ops, &cm, true).ok_or(CompileError::NoFeasibleSchedule)?;
            // Coarse synchronization penalty: one extra bottleneck pass.
            alloc.latency *= 2.0;
            parts.push((r, alloc));
        }
        Ok(Segmented::from_chain(input.name, input.list, &cm, parts))
    }
}

/// The PUMA baseline.
#[derive(Debug, Clone, Copy)]
pub struct Puma;

impl Backend for Puma {
    fn name(&self) -> &str {
        "puma"
    }

    fn compile_in(
        &self,
        cx: &mut PipelineCx<'_>,
        graph: &Graph,
    ) -> Result<CompiledProgram, CompileError> {
        compile_with_segmenter(cx, &PumaSegmentStage, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;
    use cmswitch_core::Session;

    fn puma() -> Session {
        Session::builder(presets::tiny()).backend(Box::new(Puma)).build()
    }

    #[test]
    fn compiles_all_compute() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
        let p = puma().compile_graph(&g).unwrap();
        for s in &p.segments {
            assert_eq!(s.alloc.total_memory(), 0);
        }
        assert!(p.predicted_latency.is_finite());
        cmswitch_metaop::validate(&p.flow).unwrap();
    }

    #[test]
    fn reports_stage_timings_like_cmswitch() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
        let p = puma().compile_graph(&g).unwrap();
        let names: Vec<_> = p.stats.stage_wall.iter().map(|t| t.stage).collect();
        assert_eq!(names, ["lower", "partition", "segment:puma-greedy", "emit"]);
    }
}
