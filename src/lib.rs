//! CMSwitch reproduction — facade crate.
//!
//! Re-exports the whole stack under one roof:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`tensor`] | `cmswitch-tensor` | reference numerics (PyTorch substitute) |
//! | [`graph`] | `cmswitch-graph` | DNN graph IR (ONNX substitute) |
//! | [`models`] | `cmswitch-models` | benchmark network zoo |
//! | [`arch`] | `cmswitch-arch` | DEHA hardware abstraction (§4.2) |
//! | [`solver`] | `cmswitch-solver` | LP/MIP solver (Gurobi substitute) |
//! | [`metaop`] | `cmswitch-metaop` | meta-operator flow with `CM.switch` (§4.4) |
//! | [`compiler`] | `cmswitch-core` | the DACO compiler (§4.3) |
//! | [`baselines`] | `cmswitch-baselines` | backend selection by kind or name |
//! | [`sim`] | `cmswitch-sim` | dual-mode chip simulator |
//! | [`dse`] | `cmswitch-dse` | architecture design-space exploration |
//! | [`serve`] | `cmswitch-serve` | long-running compile server |
//! | `bench` | `cmswitch-bench` | experiment harness (§5 figures) |
//!
//! # Quickstart
//!
//! The public surface is the [`compiler::Session`] API: one typed entry
//! point for every backend (CMSwitch and the PUMA / OCC / CIM-MLC
//! baselines), with batching, cancellation/deadlines and structured
//! diagnostics.
//!
//! ```
//! use cmswitch::prelude::*;
//!
//! // A small model, a session for the tiny test chip (use
//! // presets::dynaplasia() for the paper's Table 2 chip).
//! let graph = cmswitch::models::mlp::mlp(4, &[256, 512, 128]).unwrap();
//! let session = Session::builder(presets::tiny()).build();
//! let outcome = session.compile(CompileRequest::new(graph).with_label("quickstart"))?;
//!
//! // The result is a meta-operator flow with explicit CM.switch ops …
//! let text = print_flow(&outcome.program.flow);
//! assert!(text.contains("CM.switch"));
//!
//! // … plus typed diagnostics (windows pruned, cache traffic, …) …
//! assert!(!outcome.diagnostics.is_empty());
//!
//! // … and the event-driven simulator executes the compiled plan
//! // (SessionSimExt). The pipelined makespan never loses to the fully
//! // serialized replay. Per-array busy timelines and utilization are
//! // recorded on request: `sim::EventEngine::trace_program`.
//! let sim = session.simulate(&outcome).unwrap();
//! assert!(sim.report.total_cycles > 0.0);
//! assert!(sim.report.total_cycles <= sim.report.serialized_cycles);
//! # Ok::<(), cmswitch::compiler::CompileError>(())
//! ```
//!
//! Baseline backends ride the same session (`SessionBackendExt` adds
//! `.backend_kind(BackendKind::CimMlc)` to the builder), fleets batch
//! through [`compiler::Session::compile_batch`] over a worker pool with
//! one shared [`compiler::AllocationCache`] (see
//! `examples/batch_compile.rs`), and a
//! [`compiler::CompileRequest::with_deadline`] aborts a compile mid-solve
//! with [`compiler::CompileError::Cancelled`].
//!
//! Compiled programs persist across processes: attach a
//! [`compiler::ArtifactStore`] to the session builder and compiles are
//! served from a content-addressed on-disk store (the L2 behind the
//! in-memory allocation cache) with **zero solver invocations** after a
//! priming run. The [`serve`] crate wraps such a session in a
//! long-running server — bounded queue, per-tenant deadlines, worker
//! pool — driven by the `cmswitch-serve` binary.
//!
//! Because compiles are cached and verified, exploring *architectures*
//! is cheap too: the [`dse`] module sweeps a grid of chip variants
//! ([`dse::SweepSpace`]) through the real compiler and simulator
//! ([`dse::SweepRunner`]), prices each with an analytic area/power
//! model ([`dse::AreaPowerModel`]) and reports the Pareto frontier over
//! latency, energy and area (see `examples/dse_frontier.rs`).

#![warn(missing_docs)]

pub use cmswitch_arch as arch;
pub use cmswitch_baselines as baselines;
pub use cmswitch_bench as bench;
pub use cmswitch_core as compiler;
pub use cmswitch_dse as dse;
pub use cmswitch_graph as graph;
pub use cmswitch_metaop as metaop;
pub use cmswitch_models as models;
pub use cmswitch_serve as serve;
pub use cmswitch_sim as sim;
pub use cmswitch_solver as solver;
pub use cmswitch_tensor as tensor;

/// The items most programs need.
pub mod prelude {
    pub use cmswitch_arch::{presets, ArrayMode, DualModeArch};
    pub use cmswitch_baselines::SessionBackendExt;
    pub use cmswitch_core::{
        AllocationCache, ArtifactStore, Backend, BackendKind, BatchReport, CancelToken,
        CompileError, CompileOutcome, CompileRequest, CompileStats, CompiledProgram,
        CompilerOptions, DiagnosticEvent, Diagnostics, DpMode, EmitStage, LowerStage,
        PartitionStage, PipelineCx, SegmentStage, Session, SessionBuilder, Severity, Stage,
        StoreFetch, StoreKey, UnknownBackend, Verifier, VerifyReport, VerifyStage,
    };
    pub use cmswitch_dse::{ParetoFrontier, SweepReport, SweepRunner, SweepSpace};
    pub use cmswitch_graph::{Graph, GraphBuilder};
    pub use cmswitch_serve::{CompileServer, ServeReply, ServeRequest, ServerOptions, Ticket};
    pub use cmswitch_metaop::{print_flow, Flow};
    pub use cmswitch_sim::timing::simulate;
    pub use cmswitch_sim::{
        CoSimOptions, DecodeLoop, DecodeOptions, DecodeTenant, EngineReport, EventEngine,
        SequentialModel, SessionSimExt, TenancyReport, TenantProgram,
    };
}
