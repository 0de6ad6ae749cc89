//! Dual-mode CIM chip simulator.
//!
//! Substitutes the paper's evaluation stack (§5.1): a timing simulator in
//! the spirit of the NeuroSim/MNSim derivatives the authors modified for
//! DynaPlasia, plus a functional simulator standing in for the PyTorch
//! cross-check.
//!
//! * [`engine`] is the event-driven, cycle-level simulator and the one
//!   scheduler of this crate: one forward pass over the flow — or over
//!   several flows sharing the chip — on dense per-array state
//!   (dependencies only point backwards, so no event queue is needed),
//!   with explicit mode-switch events, shared-bus contention and
//!   inter-segment pipelining. `simulate*` returns an enriched
//!   [`EngineReport`] (per-segment and per-mode latency/energy
//!   breakdown, critical path) at a cost per *statement*; `trace*`
//!   returns an [`EngineTrace`]: an equal report plus the per-array
//!   busy timelines and the utilization histogram read from them — the
//!   one thing that costs per array *reference*, recorded only when
//!   asked for. Surfaced through the `Session` API by [`SessionSimExt`].
//! * [`timing`] is the sequential reference model ([`SequentialModel`]):
//!   it executes a compiled meta-operator flow statement by statement,
//!   charging the Table 2 latencies. Both simulators price every
//!   statement through the compiler's own price list,
//!   [`cmswitch_core::cost`], so the engine must dominate the replay
//!   (equal on serial flows, faster wherever overlap is legal), and both
//!   first check the flow with the compiler's own mode-discipline check,
//!   [`cmswitch_metaop::validate_on`], so they reject what it rejects,
//!   with the same error.
//! * [`energy`] estimates per-component energy of a flow
//!   (schedule-invariant, so both simulators report identical totals).
//! * [`functional`] executes the *graph* numerically with int8-quantized
//!   CIM semantics (im2col + integer matmul, §2.1.2) and compares against
//!   the f32 reference from `cmswitch-tensor` — verifying that what the
//!   compiler schedules is what the network computes.
//! * [`tenancy`] admits several compiled programs onto one chip (static
//!   partitions or time-slicing), runs them through the engine's forward
//!   pass — a tenant alone costs exactly what [`EventEngine`] reports —
//!   and drives continuous-batching autoregressive decode with
//!   mid-flight re-segmentation ([`ChipScheduler`], [`DecodeLoop`]).
//!
//! # Example
//!
//! ```
//! use cmswitch_arch::presets;
//! use cmswitch_core::Session;
//! use cmswitch_sim::{EventEngine, SequentialModel};
//!
//! let graph = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
//! let session = Session::builder(presets::tiny()).build();
//! let program = session.compile_graph(&graph).unwrap();
//! let sequential = SequentialModel.simulate(&program.flow, session.arch()).unwrap();
//! let pipelined = EventEngine::new()
//!     .simulate_program(&program, session.arch())
//!     .unwrap();
//! assert!(pipelined.total_cycles > 0.0);
//! assert!(pipelined.total_cycles <= sequential.total_cycles);
//! ```

#![warn(missing_docs)]

pub mod energy;
pub mod engine;
pub mod functional;
pub mod stats;
pub mod tenancy;
pub mod timing;

pub use energy::{EnergyModel, EnergyReport};
pub use engine::{
    latency_lower_bound, EventEngine, SequentialModel, SessionSimExt, SimulationOutcome,
};
pub use stats::{
    utilization_percent, ArrayTimeline, BusyBreakdown, BusyInterval, BusyKind, CriticalStep,
    EngineReport, EngineTrace, ModeOccupancy, SegmentTiming, SegmentWindow, SimReport,
    SwitchAmortization,
};
pub use tenancy::{
    ChipScheduler, CoSimOptions, DecodeLoop, DecodeOptions, DecodeReport, DecodeTenant,
    DecodeTenantReport, TenancyError, TenancyPolicy, TenancyReport, TenantProgram, TenantReport,
};
