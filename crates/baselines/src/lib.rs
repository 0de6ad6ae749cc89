//! Baseline CIM compilation strategies (§5.1 of the paper).
//!
//! Three prior compilers are re-implemented as scheduling policies over
//! the same IR, hardware abstraction, cost model and code generator as
//! CMSwitch, so benchmark comparisons isolate exactly the dual-mode
//! contribution. All three treat every CIM array as a *compute* array
//! (the paper's central criticism):
//!
//! * [`Puma`] — operator duplication and coarse pipeline scheduling
//!   (Ankit et al., ASPLOS'19): greedy segment packing, leftover arrays
//!   duplicate the hottest operators, operators pipeline within a
//!   segment.
//! * [`Occ`] — tiling/loop-unrolling mapping (Siemieniuk et al., TCAD'21):
//!   greedy packing with minimal-tile mapping and *sequential* operator
//!   execution (no cross-operator pipeline, no duplication).
//! * [`CimMlc`] — multi-grained pipelining + duplication (Qu et al.,
//!   ASPLOS'24), the paper's main baseline: CMSwitch's own segmentation
//!   DP (`cmswitch_core::segment::segment`) with a window solver that
//!   grants compute-mode arrays only.
//!
//! All backends implement [`cmswitch_core::Backend`], as does CMSwitch
//! itself via [`cmswitch_core::CmSwitch`]. Every baseline is expressed
//! over the *same staged pipeline* as CMSwitch
//! (`cmswitch_core::pipeline`): it composes the
//! shared `LowerStage` → `PartitionStage` → `EmitStage` chain and swaps
//! in its own segmentation stage ([`PumaSegmentStage`],
//! [`OccSegmentStage`], [`CimMlcSegmentStage`]; each reads
//! `max_segment_ops` from the session's options), so backend comparisons
//! share the lowering, partitioning, cost physics, codegen — and the
//! per-stage timing breakdown.

mod backend;

pub mod cim_mlc;
pub mod common;
pub mod occ;
pub mod puma;

pub use backend::{backend_for, SessionBackendExt};
pub use cim_mlc::{CimMlc, CimMlcSegmentStage};
pub use cmswitch_core::{BackendKind, UnknownBackend};
pub use occ::{Occ, OccSegmentStage};
pub use puma::{Puma, PumaSegmentStage};

/// All baseline names in the paper's plotting order.
pub const BASELINE_NAMES: &[&str] = &["puma", "occ", "cim-mlc"];
