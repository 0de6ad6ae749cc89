//! The backend abstraction: compilation strategies over the shared
//! staged pipeline.
//!
//! A [`Backend`] is a stateless *strategy* — it decides how the standard
//! stages ([`crate::LowerStage`] → [`crate::PartitionStage`] → a
//! segmentation stage → [`crate::EmitStage`]) compose for one
//! compilation, while the environment (architecture, options, allocation
//! cache, cancellation, diagnostics) is owned by the [`crate::Session`]
//! and handed over in a [`crate::PipelineCx`]. That split is what lets a
//! session serve *any* backend — CMSwitch itself or the paper's PUMA /
//! OCC / CIM-MLC baselines — with the same worker pool, shared cache and
//! deadline handling.
//!
//! [`BackendKind`] is the paper's four compilers (§5.1); each kind is a
//! [`Backend`] pairing a window solver with a segmentation rule:
//!
//! | kind | window solver | segmentation | stage name |
//! |---|---|---|---|
//! | CMSwitch | dual-mode [`crate::allocation::Allocator`] | [`segment::segment`] (Eq. 3 DP) | `segment` |
//! | CIM-MLC | all-compute ([`all_compute_alloc`]), duplicated | [`segment::segment`] | `segment:cim-mlc-dp` |
//! | PUMA | all-compute, duplicated, latency doubled | [`segment::greedy`] | `segment:puma-greedy` |
//! | OCC | all-compute, minimal tiles, ops in sequence | [`segment::greedy`] | `segment:occ-sequential` |

use std::fmt;

use cmswitch_graph::Graph;

use crate::allocation::{all_compute_alloc, SegmentAllocation};
use crate::compiler::CompiledProgram;
use crate::cost::CostModel;
use crate::frontend::{DepIndex, OpList};
use crate::pipeline::{
    compile_with_segmenter, Partitioned, PipelineCx, SegmentStage, Segmented, Stage,
};
use crate::segment::{self, WindowSolver};
use crate::CompileError;

/// A compilation strategy producing a full [`CompiledProgram`].
///
/// Implemented by every [`BackendKind`], so sessions, batches and the
/// experiment harness sweep over backends uniformly; a custom strategy
/// implements it too.
pub trait Backend: Send + Sync {
    /// Short backend name (`puma`, `occ`, `cim-mlc`, `cmswitch`).
    fn name(&self) -> &str;

    /// Compiles `graph` through a caller-prepared pipeline context.
    ///
    /// The context is authoritative: architecture, options, shared
    /// allocation cache, cancellation token and diagnostics sink all
    /// come from `cx`. Implementations compose [`crate::pipeline`]
    /// stages via [`PipelineCx::run`] so stage timings, cancellation
    /// checks and diagnostics land uniformly.
    ///
    /// # Errors
    ///
    /// Propagates any stage's [`CompileError`], including
    /// [`CompileError::Cancelled`] when `cx`'s token fires.
    fn compile_in(
        &self,
        cx: &mut PipelineCx<'_>,
        graph: &Graph,
    ) -> Result<CompiledProgram, CompileError>;
}

/// The published backend strategies, each a [`Backend`] (see the module
/// docs for what each one segments and solves with).
/// [`BackendKind::from_name`] parses the wire names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// PUMA-style duplication + pipelining (Ankit et al., ASPLOS'19).
    Puma,
    /// OCC-style tiling with sequential execution (Siemieniuk et al.,
    /// TCAD'21).
    Occ,
    /// CIM-MLC multi-grained pipelining, all-compute DP (Qu et al.,
    /// ASPLOS'24).
    CimMlc,
    /// CMSwitch, the paper's dual-mode-aware compiler.
    CmSwitch,
}

impl BackendKind {
    /// Every published backend, in the paper's plotting order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Puma,
        BackendKind::Occ,
        BackendKind::CimMlc,
        BackendKind::CmSwitch,
    ];

    /// The backend's wire name (`puma`, `occ`, `cim-mlc`, `cmswitch`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Puma => "puma",
            BackendKind::Occ => "occ",
            BackendKind::CimMlc => "cim-mlc",
            BackendKind::CmSwitch => "cmswitch",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownBackend`] — whose message lists every known
    /// name — when `name` is not a published backend.
    pub fn from_name(name: &str) -> Result<BackendKind, UnknownBackend> {
        BackendKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| UnknownBackend {
                requested: name.to_string(),
            })
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error of [`BackendKind::from_name`]: the requested backend does not
/// exist. The display message suggests the known names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    requested: String,
}

impl UnknownBackend {
    /// The name that failed to resolve.
    pub fn requested(&self) -> &str {
        &self.requested
    }
}

impl fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let known = BackendKind::ALL.map(BackendKind::name);
        write!(
            f,
            "unknown backend {:?}; known backends: {}",
            self.requested,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownBackend {}

impl Backend for BackendKind {
    fn name(&self) -> &str {
        BackendKind::name(*self)
    }

    fn compile_in(
        &self,
        cx: &mut PipelineCx<'_>,
        graph: &Graph,
    ) -> Result<CompiledProgram, CompileError> {
        compile_with_segmenter(cx, &KindSegment(*self), graph)
    }
}

/// A kind's segmentation rule as its pipeline stage: CMSwitch runs
/// [`SegmentStage`], CIM-MLC the same DP over [`AllCompute`], PUMA and
/// OCC the greedy packer over it.
struct KindSegment(BackendKind);

impl Stage<Partitioned> for KindSegment {
    type Output = Segmented;

    fn name(&self) -> &'static str {
        match self.0 {
            BackendKind::Puma => "segment:puma-greedy",
            BackendKind::Occ => "segment:occ-sequential",
            BackendKind::CimMlc => "segment:cim-mlc-dp",
            BackendKind::CmSwitch => SegmentStage.name(),
        }
    }

    fn run(&self, cx: &mut PipelineCx<'_>, input: Partitioned) -> Result<Segmented, CompileError> {
        let cm = cx.cost_model();
        let solver = AllCompute(self.0, &cm);
        match self.0 {
            BackendKind::CmSwitch => SegmentStage.run(cx, input),
            BackendKind::CimMlc => {
                let cancel = cx.cancel_token().clone();
                let (segmented, dp) = segment::segment(input, &solver, &cm, cx.options(), &cancel)?;
                cx.record_dp(&dp);
                Ok(segmented)
            }
            BackendKind::Puma | BackendKind::Occ => {
                segment::greedy(input, &solver, &cm, cx.options())
            }
        }
    }
}

/// The baselines' window solver: [`all_compute_alloc`] (duplicating
/// weights except for OCC), then the kind's latency rule. It reads no
/// dependencies.
struct AllCompute<'c>(BackendKind, &'c CostModel<'c>);

impl WindowSolver for AllCompute<'_> {
    fn solve(
        &self,
        list: &OpList,
        _deps: &DepIndex,
        (i, j): (usize, usize),
    ) -> Option<SegmentAllocation> {
        let (kind, cm) = (self.0, self.1);
        let ops = &list.ops[i..=j];
        let mut alloc = all_compute_alloc(ops, cm, kind != BackendKind::Occ)?;
        match kind {
            // PUMA pipelines at operator granularity with coarse
            // synchronization: each segment pays its slowest op once
            // more as a fill/drain cost.
            BackendKind::Puma => alloc.latency *= 2.0,
            // OCC runs a segment's ops one after another.
            BackendKind::Occ => {
                alloc.latency = ops
                    .iter()
                    .zip(&alloc.ops)
                    .map(|(op, a)| cm.op_latency(op, a))
                    .sum();
            }
            BackendKind::CimMlc | BackendKind::CmSwitch => {}
        }
        Some(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;

    fn compile(kind: BackendKind, g: &Graph) -> CompiledProgram {
        let session = crate::Session::builder(presets::tiny())
            .backend(Box::new(kind))
            .build();
        session.compile_graph(g).unwrap()
    }

    #[test]
    fn cmswitch_backend_compiles() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
        let session = crate::Session::builder(presets::tiny())
            .backend(Box::new(BackendKind::CmSwitch))
            .build();
        let p = session.compile_graph(&g).unwrap();
        assert!(p.predicted_latency > 0.0);
        assert_eq!(session.backend_name(), "cmswitch");
        assert_eq!(session.arch().name(), presets::tiny().name());
    }

    #[test]
    fn kind_roundtrips_names() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(kind.name()), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn unknown_backend_lists_known_names() {
        let err = BackendKind::from_name("tvm").unwrap_err();
        assert_eq!(err.requested(), "tvm");
        let msg = err.to_string();
        for name in ["puma", "occ", "cim-mlc", "cmswitch"] {
            assert!(msg.contains(name), "{msg}");
        }
    }

    #[test]
    fn compiles_all_compute() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
        let p = compile(BackendKind::Puma, &g);
        for s in &p.segments {
            assert_eq!(s.alloc.total_memory(), 0);
        }
        assert!(p.predicted_latency.is_finite());
        cmswitch_metaop::validate(&p.flow).unwrap();
    }

    #[test]
    fn reports_stage_timings_like_cmswitch() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
        let p = compile(BackendKind::Puma, &g);
        let names: Vec<_> = p.stats.stage_wall.iter().map(|t| t.stage).collect();
        assert_eq!(names, ["lower", "partition", "segment:puma-greedy", "emit"]);
    }

    #[test]
    fn sequential_slower_than_pipelined_puma_per_segment() {
        let g = cmswitch_models::mlp::mlp(4, &[128, 256, 256, 64]).unwrap();
        let occ = compile(BackendKind::Occ, &g);
        let puma = compile(BackendKind::Puma, &g);
        // Both valid; OCC uses minimal tiles only.
        for s in &occ.segments {
            assert_eq!(s.alloc.total_memory(), 0);
        }
        assert!(occ.predicted_latency.is_finite());
        assert!(puma.predicted_latency.is_finite());
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
