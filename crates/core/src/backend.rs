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
//! OCC / CIM-MLC baselines (`cmswitch-baselines`) — with the same worker
//! pool, shared cache and deadline handling.
//!
//! [`CmSwitch`] is the native dual-mode-aware strategy; the baseline
//! strategies live in `cmswitch-baselines` and are selected by
//! [`BackendKind`] through that crate's `backend_for`.

use std::fmt;

use cmswitch_graph::Graph;

use crate::compiler::CompiledProgram;
use crate::pipeline::{compile_with_segmenter, PipelineCx, SegmentStage};
use crate::CompileError;

/// A compilation strategy producing a full [`CompiledProgram`].
///
/// Implemented by the three baselines (`cmswitch-baselines`) and by
/// CMSwitch itself ([`CmSwitch`]), so sessions, batches and the
/// experiment harness sweep over backends uniformly.
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

/// CMSwitch's dual-mode-aware strategy as a [`Backend`]: the standard
/// four stages with the Eq. 3 segmentation DP.
#[derive(Debug, Clone, Copy)]
pub struct CmSwitch;

impl Backend for CmSwitch {
    fn name(&self) -> &str {
        "cmswitch"
    }

    fn compile_in(
        &self,
        cx: &mut PipelineCx<'_>,
        graph: &Graph,
    ) -> Result<CompiledProgram, CompileError> {
        compile_with_segmenter(cx, &SegmentStage, graph)
    }
}

/// The published backend strategies, as a closed selector.
///
/// [`BackendKind::from_name`] parses the wire names; the actual
/// instantiation lives in `cmswitch-baselines` (`backend_for`), which
/// owns the baseline implementations.
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
        let known: Vec<&str> = BackendKind::ALL.iter().map(|k| k.name()).collect();
        write!(
            f,
            "unknown backend {:?}; known backends: {}",
            self.requested,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownBackend {}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;

    #[test]
    fn cmswitch_backend_compiles() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
        let session = crate::Session::builder(presets::tiny())
            .backend(Box::new(CmSwitch))
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
}
