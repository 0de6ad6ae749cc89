//! Dual-mode meta-operator flow — the compiler's output format
//! (§4.4 / Fig. 13 of the paper).
//!
//! CMSwitch expresses compilation results as a *meta-operator flow* rather
//! than machine code, "for better generality": the flow can be lowered to
//! any dual-mode chip's ISA. The vocabulary is
//!
//! * `CM.switch(TOM|TOC, arrays)` — the new dual-mode switch operator,
//! * standard CIM compute / memory-access operators,
//! * `parallel { ... }` blocks — one per network segment, whose operators
//!   execute pipelined.
//!
//! This crate defines the IR ([`Stmt`], [`Flow`]), a printer emitting the
//! Fig. 13 concrete syntax, and a validator that checks mode discipline
//! (no array computes while in memory mode, no array is two things at once
//! inside a segment).
//!
//! A flow holds one op table ([`Flow::ops`], a [`FlowOp`] per operator:
//! name and shape). Compute, weight-load and vector
//! statements carry a `u32` index into it rather than a name, and a
//! compute statement carries no shape of its own: every reader — the
//! printer, the validator, the compiler's prices and verifier, both
//! simulators and the artifact codec — looks both up in the table. A
//! [`VectorStmt`] is the fused work of the op it names, and a
//! [`MemStmt`] says which plan step emitted it ([`MemKind`]) instead of
//! carrying a label. An index past the table is an error, never a panic
//! ([`MetaOpError::UnknownOp`]).
//!
//! Every array list a statement carries is an [`ArraySet`]: an ordered
//! sequence of ids (duplicates kept) stored as maximal runs of step ±1,
//! three of them inline. The allocator grants each operator contiguous
//! blocks, so a list of dozens of ids is usually one run; consumers walk
//! lists through [`Stmt::for_each_array_set`] and the id-level walkers
//! built on it, never through a `Vec` of ids.
//!
//! # Example
//!
//! ```
//! use cmswitch_arch::{ArrayId, ArrayMode};
//! use cmswitch_metaop::{Flow, Stmt, SwitchKind};
//!
//! let mut flow = Flow::new("demo");
//! flow.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0), ArrayId(1)]));
//! assert_eq!(flow.stats().switch_ops, 1);
//! assert_eq!(flow.stats().arrays_switched_to(ArrayMode::Compute), 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::needless_pass_by_value, clippy::redundant_clone)]

mod arrays;
pub mod dense;
mod error;
mod flow;
mod op;
mod printer;
mod validate;
pub mod walk;

pub use arrays::{ArrayRun, ArraySet};
pub use error::MetaOpError;
pub use flow::{Flow, FlowStats};
pub use op::{
    ComputeStmt, FlowOp, MemDirection, MemKind, MemLoc, MemStmt, Stmt, SwitchKind, VectorStmt,
    WeightLoadStmt,
};
pub use printer::print_flow;
pub use validate::{validate, validate_on};
pub use walk::{walk_flow, FlowEvent, StmtPos};
