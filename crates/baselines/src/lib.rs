//! Backend selection sugar for the session builder.
//!
//! The paper's three prior compilers (§5.1: PUMA, OCC, CIM-MLC) and
//! CMSwitch are the four [`BackendKind`]s of `cmswitch-core`, each a
//! (window solver, segmentation rule) pair over one IR, cost model and
//! code generator (`cmswitch_core::backend`). This crate adds only
//! [`SessionBackendExt`]: select a kind by value or by wire name.

#![warn(missing_docs)]

mod backend;

pub use backend::SessionBackendExt;
pub use cmswitch_core::{BackendKind, UnknownBackend};
