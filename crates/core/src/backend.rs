//! The backend abstraction: compilation strategies over the shared
//! staged pipeline.
//!
//! A [`Backend`] is a *strategy* — it decides how the standard stages
//! ([`crate::LowerStage`] → [`crate::PartitionStage`] → a segmentation
//! stage → [`crate::EmitStage`]) compose for one compilation, while the
//! environment (architecture, options, allocation cache, cancellation,
//! diagnostics) is carried by the [`crate::PipelineCx`] the caller
//! prepares. That split is what lets a [`crate::Session`] serve *any*
//! backend — CMSwitch itself or the paper's PUMA / OCC / CIM-MLC
//! baselines (`cmswitch-baselines`) — with the same worker pool, shared
//! cache and deadline handling.
//!
//! [`CmSwitch`] is the native dual-mode-aware strategy; the baseline
//! strategies live in `cmswitch-baselines` and are selected by
//! [`BackendKind`] through that crate's `backend_for`.

use std::fmt;
use std::time::Instant;

use cmswitch_arch::DualModeArch;
use cmswitch_graph::Graph;

use crate::compiler::CompiledProgram;
use crate::pipeline::{compile_with_segmenter, PipelineCx, SegmentStage};
use crate::{CompileError, CompilerOptions};

/// A compilation strategy producing a full [`CompiledProgram`].
///
/// Implemented by the three baselines (`cmswitch-baselines`) and by
/// CMSwitch itself ([`CmSwitch`]), so sessions, batch services and the
/// experiment harness sweep over backends uniformly.
pub trait Backend: Send + Sync {
    /// Short backend name (`puma`, `occ`, `cim-mlc`, `cmswitch`).
    fn name(&self) -> &str;

    /// The architecture this backend targets.
    fn arch(&self) -> &DualModeArch;

    /// The options this backend applies when compiled standalone via
    /// [`Backend::compile`]. A [`crate::Session`] ignores this and
    /// supplies its own (or the request's) options through the
    /// [`PipelineCx`].
    fn default_options(&self) -> CompilerOptions {
        CompilerOptions::default()
    }

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

    /// Compiles `graph` standalone: a fresh private context with
    /// [`Backend::default_options`], no shared cache, no cancellation.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] for infeasible or malformed inputs.
    fn compile(&self, graph: &Graph) -> Result<CompiledProgram, CompileError> {
        let options = self.default_options();
        let start = Instant::now();
        let mut cx = PipelineCx::new(self.arch(), &options);
        let mut program = self.compile_in(&mut cx, graph)?;
        let _ = cx.finalize(&mut program.stats);
        program.stats.wall = start.elapsed();
        Ok(program)
    }
}

/// CMSwitch's dual-mode-aware strategy as a [`Backend`]: the standard
/// four stages with the Eq. 3 segmentation DP.
#[derive(Debug, Clone)]
pub struct CmSwitch {
    arch: DualModeArch,
    options: CompilerOptions,
}

impl CmSwitch {
    /// Creates the backend with default compiler options.
    pub fn new(arch: DualModeArch) -> Self {
        Self::with_options(arch, CompilerOptions::default())
    }

    /// Creates the backend with explicit standalone options (used by
    /// [`Backend::compile`]; sessions supply their own).
    pub fn with_options(arch: DualModeArch, options: CompilerOptions) -> Self {
        CmSwitch { arch, options }
    }
}

impl Backend for CmSwitch {
    fn name(&self) -> &str {
        "cmswitch"
    }

    fn arch(&self) -> &DualModeArch {
        &self.arch
    }

    fn default_options(&self) -> CompilerOptions {
        self.options.clone()
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
/// instantiation for a given architecture lives in `cmswitch-baselines`
/// (`backend_for`), which owns the baseline implementations.
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
        let b = CmSwitch::new(presets::tiny());
        let p = b.compile(&g).unwrap();
        assert!(p.predicted_latency > 0.0);
        assert_eq!(b.name(), "cmswitch");
        assert_eq!(b.arch().name(), presets::tiny().name());
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
