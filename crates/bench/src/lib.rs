//! Experiment harness regenerating every table and figure of the
//! CMSwitch paper's evaluation (§5).
//!
//! The harness glues the stack together: build a benchmark workload
//! ([`workloads`]), compile it with one of the four backends
//! (`cmswitch_core::BackendKind`), execute the flow on the timing simulator
//! (`cmswitch-sim`) and aggregate [`RunResult`]s into the paper's
//! tables. Each `experiments::fig*` module regenerates one figure; the
//! `experiments` binary drives them
//! (`cargo run -p cmswitch-bench --release --bin experiments -- <name>`).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod table;
pub mod workloads;

pub use harness::{run_workload, RunResult};
pub use workloads::Workload;
