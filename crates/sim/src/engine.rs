//! The event-driven, cycle-level dual-mode simulator.
//!
//! [`crate::timing::simulate`] replays a flow strictly in statement
//! order, which cannot show how CIM-mode compute, memory-mode
//! buffering and mode-switch overheads *overlap and contend* on a real
//! chip — the effect the paper's end-to-end evaluation rests on. This
//! module grows the simulator into that role: statements become events
//! that occupy arrays, and an event starts as soon as — but no sooner
//! than — its data and resources allow.
//!
//! # One forward pass
//!
//! There is no event queue. Every dependency of an event points
//! *backwards* in flow order: the previous occupant of an array it
//! touches, the last data / bus / vector-unit event, its own segment's
//! weight loads, the write-back statements emitted ahead of its segment
//! and the segments that produce its inputs. All of those were lowered —
//! and therefore timed — earlier, so an event's start is the `max` over
//! dense state the moment its statement is reached, and one walk over
//! the flow yields the exact schedule a completion queue would
//! rediscover.
//!
//! The same pass schedules **N flows on one chip** — that is all
//! multi-tenant co-simulation ([`crate::tenancy`]) is. Array release
//! times and modes, the bus and the vector unit are shared state of the
//! pass; a flow keeps only its position and its data dependencies, and
//! must pass the mode-discipline prepass *on its own*. Flows meet at
//! mode switches: a requested `CM.switch` skips exactly the arrays
//! another flow already left in the target mode (*amortized* — a flow's
//! own redundant switch is still driven in full), and a statement that
//! needs an array in a mode another flow flipped it out of is preceded
//! by a re-switch of exactly those arrays, charged to the flow that
//! needs them back (*injected*). Weight loads contend for their arrays
//! only. One flow is the N = 1 case of the same code: nobody else exists
//! to amortize or flip anything. Four rules keep every report bit stable:
//!
//! 1. **Binding-dependency order** — the critical-path predecessor of an
//!    event is the *first* dependency attaining the `max`, visited in a
//!    fixed order (switch / weight load: its arrays in statement order;
//!    memory: data, bus, arrays; vector: data, vector unit; segment
//!    execution: its weight loads in body order, the arrays it
//!    references ascending by id, the write-back prologue in flow order,
//!    then its producer segments — or the last data event when there is
//!    no plan). Ties keep the earlier dependency. Arrays are waited on a
//!    piece of equal release state at a time, in that order: the same
//!    as id by id, because a repeated `(event, time)` moves nothing.
//! 2. **First release wins** — a segment releases each lane's arrays as
//!    the lane drains; when it names an array twice (two lanes, or a
//!    lane and a memory role) successors wait for the first release
//!    recorded, so an array's free time is written once per event.
//! 3. **Same kernel, same order** — durations, `serialized_cycles`,
//!    `switch_process_cycles` and energy come from [`cmswitch_core::cost`]
//!    and [`crate::energy`] in flow order, after a separate
//!    [`validate_on`] prepass per flow, so a flow violating mode
//!    discipline (a wrong-mode use, an Eq. 6 claim conflict inside a
//!    segment, an id the chip lacks, or a `parallel` block nested in
//!    another, whose work nothing would price) is rejected before any
//!    event exists, with the error the compiler's own check reports.
//! 4. **One arbitration rule** — the next top-level statement lowered is
//!    that of the unfinished flow whose last data-producing event
//!    finishes earliest; ties go to the flow that lowered last, then to
//!    the lower index. Nothing is peeked at or priced twice, and an
//!    event never starts before one lowered earlier on the same resource.
//!
//! `tests/golden/engine_reports.txt` pins a digest of every field of
//! every one-flow report these rules protect, and
//! `tests/golden/co_schedules.txt` what they make of several flows.
//!
//! # Event model
//!
//! Every statement of the flow becomes one event (segments become a
//! weight-load event per operator plus one pipelined execution event).
//! An event waits for:
//!
//! * **arrays** — an array serves one event at a time, so consecutive
//!   touches of the same array serialize (the pass keeps each array's
//!   last occupant and release time; the busy windows themselves are
//!   recorded as per-array timelines only by [`EventEngine::trace`] /
//!   [`EventEngine::trace_program`]; `CM.switch` events are explicit
//!   occupants costed from the [`DualModeArch`] switch latencies and
//!   the [`EnergyModel`] switch energy);
//! * **data** — a segment's execution waits for the segments it
//!   actually consumes (taken from [`CompiledProgram::op_deps`] when
//!   simulating a compiled program; a plain flow conservatively chains
//!   segments) and for any write-back statement emitted ahead of it;
//! * **shared resources** — bulk memory statements contend for the one
//!   off-chip/buffer port (they serialize among themselves on a bus
//!   timeline), and top-level vector statements serialize on the single
//!   vector function unit.
//!
//! Everything else overlaps: the next segment's mode switches and
//! weight loads start while the previous segment still executes on
//! *other* arrays, write-backs stream out while unrelated arrays
//! reconfigure, and truly independent segments pipeline.
//!
//! Both simulators price statements through the compiler's price list,
//! [`cmswitch_core::cost`], so the event engine can never be slower than
//! the sequential replay — on a fully serial flow the two agree
//! bit-for-bit, and every admitted overlap only moves events earlier.
//! `tests/sim_differential.rs` checks exactly that across the full model
//! registry.
//!
//! # Cost contract
//!
//! A simulation pays for what its caller reads. The flow is range-checked
//! once per array run (`validate_on`), so a forged run costs one
//! comparison. After that, per-array state (release time, mode) is kept
//! by the run ([`RunTable`]), and every statement works on its lists a
//! run at a time: a run is waited on, released and mode-switched one
//! piece of equal state at a time, a body's referenced set is its runs
//! sorted and merged, and its memory-mode occupancy is a list of runs.
//! So work is per run and per piece, not per array reference. Only the
//! per-id float sums (`breakdown.compute`, `breakdown.mem_traffic`) stay
//! per id — each adds its term once per id, in the per-id order, so the
//! report's rounding does not move. Alone on the chip a flow's modes
//! need no realignment, so one flow only moves a body's own switches.
//! Each lane is priced once per segment ([`cost::segment_phases`]), into
//! a reused buffer the occupancy pass reads back. Heap traffic is
//! bounded by the number of *statements* — one
//! fixed-size event each, whose label borrows its op's name from the
//! flow's op table and is rendered only for the steps of the critical
//! path — never by the
//! number of references. The per-array busy log (one [`BusyInterval`]
//! per reference, megabytes on an LLM flow) exists exactly when a
//! `trace*` entry point asked for it; `simulate*` runs the same
//! statements without it and returns an equal report.
//! `tests/verify_allocs.rs` pins both as allocator counts.

use cmswitch_arch::{ArrayId, ArrayMode, DualModeArch};
use cmswitch_core::cost;
use cmswitch_core::frontend::source_spans;
use cmswitch_core::{CompileOutcome, CompiledProgram, DiagnosticEvent, Diagnostics, Session};
use cmswitch_metaop::dense::RunTable;
use cmswitch_metaop::{
    validate_on, ArrayRun, ArraySet, Flow, FlowOp, MemKind, MemLoc, MetaOpError, Stmt, SwitchKind,
};

use crate::energy::{self, EnergyModel, EnergyReport};
use crate::tenancy::{ChipScheduler, CoSimOptions, TenancyError, TenancyReport, TenantProgram};

use crate::stats::{
    ArrayTimeline, BusyBreakdown, BusyInterval, BusyKind, CriticalStep, EngineReport, EngineTrace,
    SegmentWindow, SimReport, SwitchAmortization,
};
use crate::timing;

/// What a memory statement outside the CIM arrays occupies.
static NO_ARRAYS: ArraySet = ArraySet::new();

/// The sequential reference model: the event engine must never report a
/// longer makespan than this replay, and on single-segment flows the
/// two match bit-exactly (see `tests/sim_invariants.rs`).
///
/// A thin, named wrapper over [`crate::timing::simulate`] so harnesses
/// can hold "a simulator" without committing to one implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialModel;

impl SequentialModel {
    /// Replays `flow` strictly in statement order.
    ///
    /// # Errors
    ///
    /// Returns [`MetaOpError`] if the flow violates mode discipline.
    pub fn simulate(&self, flow: &Flow, arch: &DualModeArch) -> Result<SimReport, MetaOpError> {
        timing::simulate(flow, arch)
    }
}

/// Analytic lower bound on any schedule of `flow` on `arch`: the
/// slowest compute statement priced by the Eq. 9/10 relaxation with the
/// *whole chip* granted to it ([`cost::lane_lower_bound`], the relaxation
/// the segmentation DP's pruning bound starts from). No event schedule
/// can beat it, because every compute event's own duration already
/// exceeds its bound. A compute statement naming an op past the flow's
/// table bounds nothing (no simulator runs such a flow).
pub fn latency_lower_bound(flow: &Flow, arch: &DualModeArch) -> f64 {
    fn visit(flow: &Flow, stmts: &[Stmt], arch: &DualModeArch) -> f64 {
        let mut lb = 0.0f64;
        for stmt in stmts {
            match stmt {
                Stmt::Parallel(body) => lb = lb.max(visit(flow, body, arch)),
                Stmt::Compute(c) => {
                    if let Some(op) = flow.op(c.op) {
                        lb = lb.max(cost::lane_lower_bound(op, arch));
                    }
                }
                _ => {}
            }
        }
        lb
    }
    visit(flow, flow.stmts(), arch)
}

/// The event-driven simulator. Construct once (optionally with a custom
/// [`EnergyModel`]) and reuse across flows.
#[derive(Debug, Clone, Default)]
pub struct EventEngine {
    energy: EnergyModel,
}

impl EventEngine {
    /// An engine with the default energy model.
    pub fn new() -> Self {
        EventEngine::default()
    }

    /// An engine charging energy through `model`.
    pub fn with_energy_model(model: EnergyModel) -> Self {
        EventEngine { energy: model }
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Simulates a bare flow. Without operator dependency information,
    /// segments are conservatively chained (each waits for the previous
    /// one's data); switches, weight loads and write-backs still overlap
    /// wherever arrays and the bus allow.
    ///
    /// # Errors
    ///
    /// Returns [`validate_on`]'s [`MetaOpError`] if the flow violates
    /// mode discipline on `arch`.
    pub fn simulate(&self, flow: &Flow, arch: &DualModeArch) -> Result<EngineReport, MetaOpError> {
        Ok(self.run((flow, None), arch, None)?.report)
    }

    /// [`EventEngine::simulate`], also recording every array's busy
    /// windows: the same schedule and an equal report, plus the
    /// timelines (and the allocation they cost).
    ///
    /// # Errors
    ///
    /// As [`EventEngine::simulate`].
    pub fn trace(&self, flow: &Flow, arch: &DualModeArch) -> Result<EngineTrace, MetaOpError> {
        self.run((flow, None), arch, Some(idle_timelines(arch)))
            .map(ForwardPass::into_trace)
    }

    /// Simulates a compiled program: segment-level data dependencies are
    /// derived from [`CompiledProgram::op_deps`], so segments with no
    /// producer-consumer relation may overlap ("inter-segment
    /// pipelining"). Falls back to the conservative chain of
    /// [`EventEngine::simulate`] if the flow's segment count does not
    /// match the plan.
    ///
    /// The engine *trusts* `op_deps`: a missing edge silently legalizes
    /// an overlap that reads data before it exists. The `dep-missing`
    /// rule of `cmswitch-core`'s `verify` module statically checks that
    /// every shared-buffer and planned-reuse dependence has its edge.
    ///
    /// # Errors
    ///
    /// Returns [`MetaOpError`] if the emitted flow violates mode
    /// discipline (a compiler bug this simulator exists to catch).
    pub fn simulate_program(
        &self,
        program: &CompiledProgram,
        arch: &DualModeArch,
    ) -> Result<EngineReport, MetaOpError> {
        let deps = segment_deps(program);
        Ok(self
            .run((&program.flow, deps.as_deref()), arch, None)?
            .report)
    }

    /// [`EventEngine::simulate_program`], also recording every array's
    /// busy windows (see [`EventEngine::trace`]).
    ///
    /// # Errors
    ///
    /// As [`EventEngine::simulate_program`].
    pub fn trace_program(
        &self,
        program: &CompiledProgram,
        arch: &DualModeArch,
    ) -> Result<EngineTrace, MetaOpError> {
        let deps = segment_deps(program);
        self.run(
            (&program.flow, deps.as_deref()),
            arch,
            Some(idle_timelines(arch)),
        )
        .map(ForwardPass::into_trace)
    }

    fn run<'a>(
        &'a self,
        flow: FlowInput<'a>,
        arch: &'a DualModeArch,
        timelines: Option<Vec<ArrayTimeline>>,
    ) -> Result<ForwardPass<'a>, MetaOpError> {
        schedule(&[flow], arch, &self.energy, timelines).map_err(|(_, violation)| violation)
    }
}

/// An empty timeline per array of `arch`: what a `trace*` entry point
/// hands the pass to fill.
fn idle_timelines(arch: &DualModeArch) -> Vec<ArrayTimeline> {
    (0..arch.n_arrays() as u32)
        .map(|i| ArrayTimeline {
            array: ArrayId(i),
            final_mode: ArrayMode::Memory,
            intervals: Vec::new(),
        })
        .collect()
}

/// Projects a plan's operator dependencies onto segment indices: per
/// segment, the earlier segments it consumes, in the order the
/// expanded op pairs first name them (the tie-break of
/// `Ready::wait`). `None` when the flow's segment count does not match
/// the plan.
pub(crate) fn segment_deps(program: &CompiledProgram) -> Option<Vec<Vec<usize>>> {
    // Count what `push_segment` counts — `parallel` blocks AND bare
    // top-level compute statements — so segment indices cannot
    // silently misalign with the plan's dependency table.
    let n_flow_segments = program
        .flow
        .stmts()
        .iter()
        .filter(|s| matches!(s, Stmt::Parallel(_) | Stmt::Compute(_)))
        .count();
    (n_flow_segments == program.segments.len()).then(|| {
        let mut op_seg = vec![usize::MAX; program.ops.len()];
        for (si, seg) in program.segments.iter().enumerate() {
            for slot in op_seg
                .iter_mut()
                .take(seg.range.1 + 1)
                .skip(seg.range.0)
            {
                *slot = si;
            }
        }
        // A source's segments in op order; a run of ops in one segment
        // names nothing its first op did not.
        let first = source_spans(&program.ops);
        let segs_of = |s: usize| {
            let ops = first
                .get(s..s.saturating_add(2))
                .map_or(&[][..], |w| &op_seg[w[0]..w[1]]);
            ops.chunk_by(|a, b| a == b).map(|run| run[0])
        };
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); program.segments.len()];
        for &(p, c) in &program.op_deps {
            for sp in segs_of(p) {
                for sc in segs_of(c) {
                    if sp != usize::MAX && sc != usize::MAX && sp != sc {
                        let (from, to) = if sp < sc { (sp, sc) } else { (sc, sp) };
                        if !deps[to].contains(&from) {
                            deps[to].push(from);
                        }
                    }
                }
            }
        }
        deps
    })
}

/// One flow of a forward pass: its statements and, when it came from a
/// compiled program, its [`segment_deps`].
pub(crate) type FlowInput<'a> = (&'a Flow, Option<&'a [Vec<usize>]>);

/// Schedules `flows` together on `arch` — the one scheduler of this
/// crate. Fails with the index of the first flow that violates mode
/// discipline on its own, before any event exists. With `timelines`
/// (one per array of `arch`) the pass also logs every busy window into
/// them; nothing else it computes depends on whether it does.
pub(crate) fn schedule<'a>(
    flows: &[FlowInput<'a>],
    arch: &'a DualModeArch,
    energy_model: &'a EnergyModel,
    timelines: Option<Vec<ArrayTimeline>>,
) -> Result<ForwardPass<'a>, (usize, MetaOpError)> {
    Ok(ForwardPass::run(flows, arch, energy_model, timelines)?.finish())
}

/// What an event is, borrowing op names from the flow's op table:
/// rendered to a [`CriticalStep::label`] only for the events on the
/// critical path. `idx` is the top-level statement, `seg` the segment
/// within its flow.
#[derive(Clone, Copy)]
enum Label<'a> {
    Switch {
        idx: usize,
        kind: SwitchKind,
        n: usize,
    },
    Realign {
        idx: usize,
        kind: SwitchKind,
        n: usize,
    },
    Load {
        idx: usize,
        op: &'a str,
    },
    SegLoad {
        seg: usize,
        op: &'a str,
    },
    Mem {
        idx: usize,
        kind: MemKind,
    },
    Vector {
        idx: usize,
        op: &'a str,
    },
    SegExec {
        seg: usize,
    },
}

impl Label<'_> {
    fn render(self) -> String {
        match self {
            Label::Switch { idx, kind, n } => format!("switch#{idx}({} x{n})", kind.keyword()),
            Label::Realign { idx, kind, n } => format!("realign#{idx}({} x{n})", kind.keyword()),
            Label::Load { idx, op } => format!("load#{idx}({op})"),
            Label::SegLoad { seg, op } => format!("seg{seg}.load({op})"),
            Label::Mem { idx, kind } => format!("mem#{idx}({kind})"),
            Label::Vector { idx, op } => format!("vector#{idx}({op})"),
            Label::SegExec { seg } => format!("seg{seg}.exec"),
        }
    }
}

/// One timed event.
struct Event<'a> {
    label: Label<'a>,
    start: f64,
    finish: f64,
    /// The binding dependency: the critical-path predecessor.
    critical: Option<usize>,
}

/// Running `max` over one event's dependencies, remembering the first
/// dependency that attains it.
#[derive(Default)]
struct Ready {
    start: f64,
    critical: Option<usize>,
}

impl Ready {
    fn wait(&mut self, event: usize, until: f64) {
        if self.critical.is_none() || until > self.start {
            self.start = self.start.max(until);
            self.critical = Some(event);
        }
    }
}

/// What the pass keeps per flow: its position, its data dependencies
/// (the chip's resources are shared state of the pass) and what it cost.
#[derive(Default)]
pub(crate) struct FlowState<'a> {
    ops: &'a [FlowOp],
    stmts: &'a [Stmt],
    seg_deps: Option<&'a [Vec<usize>]>,
    /// Next top-level statement to lower.
    next: usize,
    /// Last data-producing event (segment exec, bulk memory, vector).
    data: Option<usize>,
    /// Execution event of each segment, in segment order.
    seg_events: Vec<usize>,
    /// Mem/vector events since the previous segment: the next segment's
    /// prologue (its write-back/reload traffic), which gates it even
    /// when its producers lie further back.
    prologue: Vec<usize>,
    /// Cycle the flow's last event retired.
    pub(crate) finish: f64,
    /// What the flow's statements cost serialized: amortized switches
    /// skipped, injected re-switches added.
    pub(crate) busy: f64,
}

/// The forward pass: events in lowering order, per-array release and
/// mode state kept by the run, and the report filled in as each event
/// is timed.
/// [`schedule`] returns it finished: `report` (every flow's events on
/// the one chip), `switches` and each flow's cost are final.
pub(crate) struct ForwardPass<'a> {
    arch: &'a DualModeArch,
    energy_model: &'a EnergyModel,
    /// In input order.
    pub(crate) flows: Vec<FlowState<'a>>,
    /// The flow whose statement is being lowered.
    cur: usize,
    events: Vec<Event<'a>>,
    /// Per array: the event that last occupied it and the cycle that
    /// event released it (none: untouched, free from cycle 0).
    released: RunTable<Option<(usize, f64)>>,
    /// Per array: its mode and the flow whose switch set it (none: the
    /// reset state).
    modes: RunTable<(ArrayMode, Option<usize>)>,
    /// Last bulk-memory event (the shared off-chip/buffer port).
    bus: Option<usize>,
    /// Last top-level vector event (the single vector function unit).
    fu: Option<usize>,
    /// Per-statement scratch, reused: the arrays to drive into each
    /// mode (indexed by it, as runs in the order they are driven), the
    /// arrays a body references (as `(first, last)` spans), the price of
    /// each of its lanes, and how long it keeps each memory-mode array
    /// busy.
    to_switch: [Vec<ArrayRun>; 2],
    referenced: Vec<(u32, u32)>,
    lanes: Vec<f64>,
    mem_busy: MemBusy,
    pub(crate) switches: SwitchAmortization,
    pub(crate) report: EngineReport,
    /// The per-array busy log, when the caller asked for one.
    timelines: Option<Vec<ArrayTimeline>>,
}

impl<'a> ForwardPass<'a> {
    /// The whole schedule, every event timed, short of the summary
    /// [`ForwardPass::finish`] draws from it.
    fn run(
        flows: &[FlowInput<'a>],
        arch: &'a DualModeArch,
        energy_model: &'a EnergyModel,
        timelines: Option<Vec<ArrayTimeline>>,
    ) -> Result<Self, (usize, MetaOpError)> {
        // ---- Mode-discipline prepass, each flow on a fresh chip: the
        // check the sequential model and the compiler run. ----
        for (f, (flow, _)) in flows.iter().enumerate() {
            validate_on(flow, arch.n_arrays()).map_err(|violation| (f, violation))?;
        }

        let mut pass = ForwardPass {
            arch,
            energy_model,
            flows: flows
                .iter()
                .map(|&(flow, seg_deps)| FlowState {
                    ops: flow.ops(),
                    stmts: flow.stmts(),
                    seg_deps,
                    ..FlowState::default()
                })
                .collect(),
            cur: 0,
            events: Vec::new(),
            released: RunTable::new(None),
            modes: RunTable::new((ArrayMode::Memory, None)),
            bus: None,
            fu: None,
            to_switch: [Vec::new(), Vec::new()],
            referenced: Vec::new(),
            lanes: Vec::new(),
            mem_busy: MemBusy::default(),
            switches: SwitchAmortization::default(),
            report: EngineReport {
                total_cycles: 0.0,
                serialized_cycles: 0.0,
                switch_process_cycles: 0.0,
                switches_to_compute: 0,
                switches_to_memory: 0,
                breakdown: BusyBreakdown::default(),
                segments: Vec::new(),
                energy: EnergyReport::default(),
                critical_path: Vec::new(),
            },
            timelines,
        };
        // ---- The schedule: one walk, every event timed as it is
        // lowered; rule 4 picks whose statement comes next. ----
        while let Some(f) = pass.next_flow() {
            pass.cur = f;
            let idx = pass.flows[f].next;
            pass.flows[f].next += 1;
            let stmts = pass.flows[f].stmts;
            pass.push_stmt(&stmts[idx], idx);
        }
        Ok(pass)
    }

    /// Rule 4: the unfinished flow whose data is ready earliest, ties to
    /// the flow that lowered last, then to the lower index.
    fn next_flow(&self) -> Option<usize> {
        let mut best: Option<(f64, bool, usize)> = None;
        for (f, flow) in self.flows.iter().enumerate() {
            if flow.next < flow.stmts.len() {
                let data_ready = flow.data.map_or(0.0, |e| self.events[e].finish);
                let key = (data_ready, f != self.cur, f);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(.., f)| f)
    }

    /// Adds `stmt`'s energy to the chip total.
    fn charge(&mut self, stmt: &Stmt) {
        let ops = self.flows[self.cur].ops;
        energy::accumulate_stmt(ops, stmt, self.arch, self.energy_model, &mut self.report.energy);
    }

    /// The name of op `op` of the current flow (the prepass checked
    /// every index against its table).
    fn op_name(&self, op: u32) -> &'a str {
        &self.flows[self.cur].ops[op as usize].name
    }

    fn wait_finish(&self, event: Option<usize>, ready: &mut Ready) {
        if let Some(e) = event {
            ready.wait(e, self.events[e].finish);
        }
    }

    /// Waits for the arrays of `run`, in its order: once per piece of
    /// equal release state, which is a wait per id (rule 1) because a
    /// repeated `(event, time)` moves nothing.
    fn wait_arrays(&self, run: ArrayRun, ready: &mut Ready) {
        self.released.read(run, |_, released| {
            if let Some((user, free_at)) = *released {
                ready.wait(user, free_at);
            }
        });
    }

    /// Times one event of the current flow; returns `(id, start, finish)`.
    fn record(&mut self, label: Label<'a>, ready: Ready, duration: f64) -> (usize, f64, f64) {
        let (start, finish) = (ready.start, ready.start + duration);
        self.events.push(Event {
            label,
            start,
            finish,
            critical: ready.critical,
        });
        let flow = &mut self.flows[self.cur];
        flow.finish = flow.finish.max(finish);
        (self.events.len() - 1, start, finish)
    }

    /// `event` keeps the arrays of `run` busy for `busy` (logged when
    /// timelines are recorded) and frees them at its end — except the
    /// ones `event` already released (rule 2).
    fn occupy(&mut self, run: ArrayRun, event: usize, busy: BusyInterval) {
        if let Some(timelines) = &mut self.timelines {
            for a in run.iter() {
                timelines[a.index()].intervals.push(busy);
            }
        }
        self.release(run, event, busy.end);
    }

    /// Rule 2 over a run: `event` frees its arrays at `free_at`, except
    /// those it already released.
    fn release(&mut self, run: ArrayRun, event: usize, free_at: f64) {
        self.released.update(run, |_, released| {
            if released.is_none_or(|(user, _)| user != event) {
                *released = Some((event, free_at));
            }
        });
    }

    /// An event that drives `arrays` one after another at `stride`
    /// cycles each (a mode switch, a weight load): it waits only for
    /// those arrays and holds all of them until the last is done.
    fn push_serial(
        &mut self,
        label: Label<'a>,
        runs: &[ArrayRun],
        duration: f64,
        stride: f64,
        kind: BusyKind,
    ) {
        let mut ready = Ready::default();
        for &run in runs {
            self.wait_arrays(run, &mut ready);
        }
        let (id, start, finish) = self.record(label, ready, duration);
        let mut i = 0;
        for &run in runs {
            if let Some(timelines) = &mut self.timelines {
                for a in run.iter() {
                    timelines[a.index()].intervals.push(BusyInterval {
                        start: start + stride * i as f64,
                        end: start + stride * (i + 1) as f64,
                        kind,
                    });
                    i += 1;
                }
            }
            self.release(run, id, finish);
        }
    }

    /// A weight load, top-level or inside a segment; returns its cycles.
    fn push_load(&mut self, label: Label<'a>, arrays: &ArraySet) -> f64 {
        let duration = cost::load_duration(arrays.len(), self.arch);
        let stride = cost::load_duration(1, self.arch);
        self.push_serial(label, arrays.runs(), duration, stride, BusyKind::WeightLoad);
        self.report.breakdown.weight_load += duration;
        duration
    }

    /// A mode switch actually driven over `arrays`, requested or
    /// injected, at the current flow's expense.
    fn push_switch(&mut self, label: Label<'a>, kind: SwitchKind, arrays: &[ArrayRun]) {
        let n: usize = arrays.iter().map(|r| r.count() as usize).sum();
        let duration = cost::switch_duration(kind, n, self.arch);
        self.flows[self.cur].busy += duration;
        self.report.switch_process_cycles += duration;
        self.switches.switch_cycles += duration;
        let stride = cost::switch_duration(kind, 1, self.arch);
        self.push_serial(label, arrays, duration, stride, BusyKind::Switch);
        self.report.breakdown.switch += duration;
    }

    /// Walks `stmts` in order, as the prepass does: a switch among them
    /// moves its arrays' modes for free (it has no event of its own), and
    /// every other statement gets a re-switch injected of each array it
    /// needs in a mode another flow flipped it out of — one event per
    /// kind, before the statements. Only another flow can have: alone on
    /// the chip `modes` retraces the prepass, and there is nothing to find.
    fn realign(&mut self, stmts: &[Stmt], idx: usize) {
        let by = Some(self.cur);
        let shared = self.flows.len() > 1;
        let mut to_switch = std::mem::take(&mut self.to_switch);
        for s in stmts {
            if let Stmt::Switch { kind, arrays } = s {
                let set = (kind.target_mode(), by);
                for &run in arrays.runs() {
                    self.modes.assign(run, &set);
                }
            } else if shared {
                s.for_each_required_mode(&mut |arrays, needed| {
                    for &run in arrays.runs() {
                        self.modes.update(run, |piece, mode| {
                            if mode.0 != needed {
                                *mode = (needed, by);
                                push_joined(&mut to_switch[needed as usize], piece);
                            }
                        });
                    }
                });
            }
        }
        for kind in [SwitchKind::ToCompute, SwitchKind::ToMemory] {
            let arrays = &mut to_switch[kind.target_mode() as usize];
            if !arrays.is_empty() {
                let n = ids_in(arrays);
                self.switches.injected += n as u64;
                let label = Label::Realign { idx, kind, n };
                self.push_switch(label, kind, arrays);
                arrays.clear();
            }
        }
        self.to_switch = to_switch;
    }

    fn push_stmt(&mut self, stmt: &'a Stmt, idx: usize) {
        match stmt {
            Stmt::Switch { kind, arrays } => {
                self.charge(stmt);
                match kind {
                    SwitchKind::ToCompute => self.report.switches_to_compute += arrays.len() as u64,
                    SwitchKind::ToMemory => self.report.switches_to_memory += arrays.len() as u64,
                }
                // Amortized: arrays another flow already left in the
                // target mode are not driven again.
                let (target, by) = (kind.target_mode(), Some(self.cur));
                let mut to_switch = std::mem::take(&mut self.to_switch);
                let driven = &mut to_switch[target as usize];
                for &run in arrays.runs() {
                    self.modes.update(run, |piece, mode| {
                        if mode.0 != target || mode.1.is_none() || mode.1 == by {
                            *mode = (target, by);
                            push_joined(driven, piece);
                        }
                    });
                }
                let n = ids_in(driven);
                self.switches.requested += arrays.len() as u64;
                self.switches.executed += n as u64;
                self.switches.amortized += (arrays.len() - n) as u64;
                let label = Label::Switch {
                    idx,
                    kind: *kind,
                    n,
                };
                self.push_switch(label, *kind, driven);
                driven.clear();
                self.to_switch = to_switch;
            }
            Stmt::LoadWeights(w) => {
                self.charge(stmt);
                self.realign(std::slice::from_ref(stmt), idx);
                let label = Label::Load {
                    idx,
                    op: self.op_name(w.op),
                };
                let duration = self.push_load(label, &w.arrays);
                self.flows[self.cur].busy += duration;
                self.report.switch_process_cycles += duration;
            }
            Stmt::Mem(m) => {
                self.charge(stmt);
                self.realign(std::slice::from_ref(stmt), idx);
                let duration = cost::mem_duration(m.bytes, &m.loc, self.arch);
                self.flows[self.cur].busy += duration;
                self.report.switch_process_cycles += duration;
                let arrays = match &m.loc {
                    MemLoc::CimArrays(a) => a,
                    _ => &NO_ARRAYS,
                };
                let mut ready = Ready::default();
                self.wait_finish(self.flows[self.cur].data, &mut ready);
                self.wait_finish(self.bus, &mut ready);
                for &run in arrays.runs() {
                    self.wait_arrays(run, &mut ready);
                }
                let label = Label::Mem { idx, kind: m.kind };
                let (id, start, end) = self.record(label, ready, duration);
                let kind = BusyKind::MemTraffic;
                for &run in arrays.runs() {
                    self.occupy(run, id, BusyInterval { start, end, kind });
                    add_per_id(&mut self.report.breakdown.mem_traffic, duration, run);
                }
                self.bus = Some(id);
                let flow = &mut self.flows[self.cur];
                flow.data = Some(id);
                flow.prologue.push(id);
            }
            Stmt::Vector(v) => {
                self.charge(stmt);
                let duration = cost::vector_duration(v.flops);
                self.flows[self.cur].busy += duration;
                let mut ready = Ready::default();
                self.wait_finish(self.flows[self.cur].data, &mut ready);
                self.wait_finish(self.fu, &mut ready);
                let label = Label::Vector {
                    idx,
                    op: self.op_name(v.op),
                };
                let (id, ..) = self.record(label, ready, duration);
                self.report.breakdown.vector += duration;
                self.fu = Some(id);
                let flow = &mut self.flows[self.cur];
                flow.data = Some(id);
                flow.prologue.push(id);
            }
            Stmt::Parallel(body) => self.push_segment(body, idx),
            Stmt::Compute(_) => self.push_segment(std::slice::from_ref(stmt), idx),
        }
    }

    fn push_segment(&mut self, body: &'a [Stmt], idx: usize) {
        let index = self.flows[self.cur].seg_events.len();

        // Energy: per statement into the chip total (same order as
        // `energy::estimate`) and into this segment's own bucket.
        let ops = self.flows[self.cur].ops;
        let mut seg_energy = EnergyReport::default();
        for s in body {
            self.charge(s);
            energy::accumulate_stmt(ops, s, self.arch, self.energy_model, &mut seg_energy);
        }

        let phases = cost::segment_phases(ops, body, self.arch, &mut self.lanes);
        let exec_cycles = phases.exec_and_loose();
        let flow = &mut self.flows[self.cur];
        flow.busy += phases.load_phase;
        flow.busy += exec_cycles;
        self.realign(body, idx);

        // Weight-load events: each op's load waits only for its own
        // arrays, so loads on arrays the previous segment is done with
        // start while that segment still runs elsewhere.
        let first_load = self.events.len();
        for s in body {
            if let Stmt::LoadWeights(w) = s {
                let label = Label::SegLoad {
                    seg: index,
                    op: self.op_name(w.op),
                };
                self.push_load(label, &w.arrays);
            }
        }
        let exec = self.events.len();

        // Dependencies: the load barrier, every referenced array, the
        // write-back prologue, and the data producers.
        let mut ready = Ready::default();
        for load in first_load..exec {
            ready.wait(load, self.events[load].finish);
        }
        // Ascending by id: the spans the body's runs cover, sorted and
        // merged, each walked upwards.
        let mut referenced = std::mem::take(&mut self.referenced);
        referenced.clear();
        for s in body {
            if matches!(s, Stmt::Compute(_) | Stmt::Mem(_)) {
                s.for_each_array_set(&mut |arrays| {
                    let spans = arrays.runs().iter().map(|r| (r.min().0, r.max().0));
                    referenced.extend(spans);
                });
            }
        }
        referenced.sort_unstable();
        let mut spans = referenced.iter().copied();
        if let Some(mut open) = spans.next() {
            for (lo, hi) in spans {
                if lo <= open.1.saturating_add(1) {
                    open.1 = open.1.max(hi);
                } else {
                    self.wait_arrays(span(open.0, open.1), &mut ready);
                    open = (lo, hi);
                }
            }
            self.wait_arrays(span(open.0, open.1), &mut ready);
        }
        self.referenced = referenced;
        let flow = &self.flows[self.cur];
        match flow.seg_deps {
            Some(all) => {
                for &event in &flow.prologue {
                    ready.wait(event, self.events[event].finish);
                }
                for &producer in all.get(index).into_iter().flatten() {
                    self.wait_finish(flow.seg_events.get(producer).copied(), &mut ready);
                }
            }
            None => self.wait_finish(flow.data, &mut ready),
        }
        let (id, start, finish) = self.record(Label::SegExec { seg: index }, ready, exec_cycles);

        // Occupancy: each lane holds its compute arrays until the lane
        // drains; a memory-mode array is held for the longest lane (or
        // loose memory statement) that names it.
        let mut mem_busy = std::mem::take(&mut self.mem_busy);
        mem_busy.pieces.clear();
        let lanes = std::mem::take(&mut self.lanes);
        let mut prices = lanes.iter().copied();
        for s in body {
            match s {
                Stmt::Compute(c) => {
                    let lane = prices.next().expect("one price per lane");
                    let (end, kind) = (start + lane, BusyKind::Compute);
                    for &run in c.compute_arrays.runs() {
                        self.occupy(run, id, BusyInterval { start, end, kind });
                        add_per_id(&mut self.report.breakdown.compute, lane, run);
                    }
                    for buffers in [&c.mem_in_arrays, &c.mem_out_arrays] {
                        for &run in buffers.runs() {
                            mem_busy.note(run, lane);
                        }
                    }
                }
                Stmt::Mem(m) => {
                    if let MemLoc::CimArrays(arrays) = &m.loc {
                        for &run in arrays.runs() {
                            mem_busy.note(run, exec_cycles);
                        }
                    }
                }
                _ => {}
            }
        }
        for &(run, busy) in &mem_busy.pieces {
            let (end, kind) = (start + busy, BusyKind::MemTraffic);
            self.occupy(run, id, BusyInterval { start, end, kind });
            add_per_id(&mut self.report.breakdown.mem_traffic, busy, run);
        }
        self.mem_busy = mem_busy;
        self.lanes = lanes;

        self.report.segments.push(SegmentWindow {
            index,
            start: self.events[first_load..exec]
                .iter()
                .fold(start, |first, load| first.min(load.start)),
            end: finish,
            load_cycles: phases.load_phase,
            exec_cycles,
            compute_ops: phases.n_ops,
            energy_pj: seg_energy.total_pj(),
        });
        let flow = &mut self.flows[self.cur];
        flow.prologue.clear();
        flow.seg_events.push(id);
        flow.data = Some(id);
    }

    /// Makespan and critical path: back from the first event attaining
    /// the latest finish, along each event's binding dependency.
    fn finish(mut self) -> Self {
        let mut last: Option<usize> = None;
        for (i, event) in self.events.iter().enumerate() {
            if last.is_none() || event.finish > self.report.total_cycles {
                self.report.total_cycles = event.finish;
                last = Some(i);
            }
        }
        while let Some(i) = last {
            let event = &self.events[i];
            self.report.critical_path.push(CriticalStep {
                label: event.label.render(),
                start: event.start,
                end: event.finish,
            });
            last = event.critical;
        }
        self.report.critical_path.reverse();
        for timeline in self.timelines.iter_mut().flatten() {
            timeline.final_mode = self.modes.get(timeline.array).0;
        }
        self.report.serialized_cycles = self.flows.iter().map(|f| f.busy).sum();
        self
    }

    /// The finished pass of a `trace*` entry point as its result.
    fn into_trace(self) -> EngineTrace {
        EngineTrace {
            report: self.report,
            timelines: self
                .timelines
                .expect("trace entry points pass timelines to record into"),
        }
    }
}

/// Adds `term` to `sum` once per id of `run`, as a walk over the ids
/// would: repeated addition rounds differently from one multiplication,
/// and the report must not move.
fn add_per_id(sum: &mut f64, term: f64, run: ArrayRun) {
    for _ in 0..run.count() {
        *sum += term;
    }
}

/// The ascending run `first..=last` of arrays a chip has.
fn span(first: u32, last: u32) -> ArrayRun {
    ArrayRun::between(ArrayId(first), ArrayId(last)).expect("a chip's ids are fewer than 2^32")
}

/// The run over `lo..=hi` of arrays a chip has, upwards or downwards.
fn span_toward(lo: u32, hi: u32, ascending: bool) -> ArrayRun {
    if ascending {
        span(lo, hi)
    } else {
        span(hi, lo)
    }
}

/// Appends `piece` to `runs`, as part of the last run if it carries on
/// from it.
fn push_joined(runs: &mut Vec<ArrayRun>, piece: ArrayRun) {
    match runs
        .last_mut()
        .and_then(|last| Some((last.joined(piece)?, last)))
    {
        Some((joined, last)) => *last = joined,
        None => runs.push(piece),
    }
}

/// How many ids `runs` hold.
fn ids_in(runs: &[ArrayRun]) -> usize {
    runs.iter().map(|r| r.count() as usize).sum()
}

/// How long one segment keeps each memory-mode array busy: disjoint
/// runs, each with the longest lane (or loose memory statement) that
/// names its arrays, in the order the ids were first named — the order
/// their busy time is summed in.
#[derive(Default)]
struct MemBusy {
    pieces: Vec<(ArrayRun, f64)>,
}

impl MemBusy {
    /// Notes that the arrays of `run` are busy for `busy`: ids noted
    /// before keep the longer time, new ids join the end in run order.
    fn note(&mut self, run: ArrayRun, busy: f64) {
        let ascending = run.ascending();
        let oriented = |lo, hi| span_toward(lo, hi, ascending);
        // The ids of `run` not yet walked, as `from..=to`.
        let (mut from, mut to) = (run.min().0, run.max().0);
        loop {
            // The noted piece the rest of the run meets first, and the
            // ids the two share.
            let mut met: Option<(usize, u32, u32)> = None;
            for (i, &(piece, _)) in self.pieces.iter().enumerate() {
                let (lo, hi) = (piece.min().0.max(from), piece.max().0.min(to));
                let first = match met {
                    None => true,
                    Some((_, l, h)) => {
                        if ascending {
                            lo < l
                        } else {
                            hi > h
                        }
                    }
                };
                if lo <= hi && first {
                    met = Some((i, lo, hi));
                }
            }
            let Some((i, lo, hi)) = met else {
                self.pieces.push((oriented(from, to), busy));
                return;
            };
            // New ids before the shared ones, in run order.
            if ascending && from < lo {
                self.pieces.push((oriented(from, lo - 1), busy));
            } else if !ascending && hi < to {
                self.pieces.push((oriented(hi + 1, to), busy));
            }
            if busy > self.pieces[i].1 {
                self.raise(i, lo, hi, busy);
            }
            if ascending && hi < to {
                from = hi + 1;
            } else if !ascending && from < lo {
                to = lo - 1;
            } else {
                return;
            }
        }
    }

    /// Raises ids `lo..=hi` of piece `i` to `busy`, cutting the piece
    /// in its own order so the ids keep their places.
    fn raise(&mut self, i: usize, lo: u32, hi: u32, busy: f64) {
        let (piece, was) = self.pieces[i];
        let (min, max) = (piece.min().0, piece.max().0);
        let oriented = |lo, hi| span_toward(lo, hi, piece.ascending());
        let (below, above) = (
            (min < lo).then(|| oriented(min, lo - 1)),
            (hi < max).then(|| oriented(hi + 1, max)),
        );
        let (before, after) = if piece.ascending() {
            (below, above)
        } else {
            (above, below)
        };
        self.pieces[i] = (oriented(lo, hi), busy);
        if let Some(after) = after {
            self.pieces.insert(i + 1, (after, was));
        }
        if let Some(before) = before {
            self.pieces.insert(i, (before, was));
        }
    }
}

/// What [`SessionSimExt::simulate`] returns: the engine's enriched
/// report plus the typed diagnostics of the simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// The event engine's report.
    pub report: EngineReport,
    /// Typed events describing the run (contains a
    /// [`DiagnosticEvent::Simulated`] summary).
    pub diagnostics: Diagnostics,
}

/// Surfaces the event engine through the `Session` API: compile with
/// the session, then execute the outcome on the same architecture.
///
/// ```
/// use cmswitch_arch::presets;
/// use cmswitch_core::{CompileRequest, Session};
/// use cmswitch_sim::SessionSimExt;
///
/// let session = Session::builder(presets::tiny()).build();
/// let graph = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
/// let outcome = session.compile(CompileRequest::new(graph)).unwrap();
/// let sim = session.simulate(&outcome).unwrap();
/// assert!(sim.report.total_cycles > 0.0);
/// assert!(sim.diagnostics.simulated_cycles().is_some());
/// ```
pub trait SessionSimExt {
    /// Executes a compiled outcome on the event engine, emitting a
    /// [`DiagnosticEvent::Simulated`] summary.
    ///
    /// # Errors
    ///
    /// Returns [`MetaOpError`] if the compiled flow violates mode
    /// discipline (a compiler bug the simulator exists to catch).
    fn simulate(&self, outcome: &CompileOutcome) -> Result<SimulationOutcome, MetaOpError>;

    /// Co-schedules several compiled programs on this session's chip
    /// (see [`crate::tenancy::ChipScheduler`]).
    ///
    /// # Errors
    ///
    /// Returns [`TenancyError`] on admission rejection or malformed
    /// partition shares.
    fn co_simulate(
        &self,
        tenants: &[TenantProgram],
        options: CoSimOptions,
    ) -> Result<TenancyReport, TenancyError>;
}

impl SessionSimExt for Session {
    fn simulate(&self, outcome: &CompileOutcome) -> Result<SimulationOutcome, MetaOpError> {
        let report = EventEngine::new().simulate_program(&outcome.program, self.arch())?;
        let mut diagnostics = Diagnostics::new();
        diagnostics.push(DiagnosticEvent::Simulated {
            pipelined_cycles: report.total_cycles,
            serialized_cycles: report.serialized_cycles,
            energy_pj: report.energy.total_pj(),
            switches: report.switches_to_compute + report.switches_to_memory,
        });
        Ok(SimulationOutcome {
            report,
            diagnostics,
        })
    }

    fn co_simulate(
        &self,
        tenants: &[TenantProgram],
        options: CoSimOptions,
    ) -> Result<TenancyReport, TenancyError> {
        ChipScheduler::new(self.arch().clone())
            .with_options(options)
            .co_simulate(tenants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;
    use cmswitch_core::{CompileRequest, Session};
    use cmswitch_metaop::{ComputeStmt, MemDirection, MemStmt, WeightLoadStmt};

    /// Adds a static `[m,64]·[64,64]` op named `name` to `flow`'s table.
    fn op(flow: &mut Flow, name: &str, m: usize) -> u32 {
        flow.push_op(FlowOp {
            name: name.into(),
            source: 0,
            m,
            k: 64,
            n: 64,
            units: 1,
            in_bytes: (m * 64) as u64,
            out_bytes: (m * 64) as u64,
            weight_static: true,
        })
    }

    fn compute(op: u32, arrays: Vec<ArrayId>) -> Stmt {
        Stmt::Compute(ComputeStmt {
            op,
            compute_arrays: arrays.into(),
            mem_in_arrays: vec![].into(),
            mem_out_arrays: vec![].into(),
        })
    }

    fn load(op: u32, arrays: Vec<ArrayId>) -> Stmt {
        let bytes = arrays.len() as u64 * 64;
        Stmt::LoadWeights(WeightLoadStmt {
            op,
            arrays: arrays.into(),
            bytes,
        })
    }

    fn mem(loc: MemLoc, bytes: u64, kind: MemKind) -> Stmt {
        Stmt::Mem(MemStmt {
            loc,
            direction: MemDirection::Write,
            bytes,
            kind,
        })
    }

    #[test]
    fn single_segment_flow_matches_sequential_bit_exactly() {
        let arch = presets::tiny();
        let mut flow = Flow::new("single");
        let (a, b) = (op(&mut flow, "a", 16), op(&mut flow, "b", 256));
        flow.push(Stmt::switch(
            SwitchKind::ToCompute,
            vec![ArrayId(0), ArrayId(1)],
        ));
        flow.push(Stmt::Parallel(vec![
            load(a, vec![ArrayId(0)]),
            compute(a, vec![ArrayId(0)]),
            load(b, vec![ArrayId(1)]),
            compute(b, vec![ArrayId(1)]),
        ]));
        flow.push(mem(MemLoc::Main, 2048, MemKind::FinalOutput));
        let seq = SequentialModel.simulate(&flow, &arch).unwrap();
        let eng = EventEngine::new().simulate(&flow, &arch).unwrap();
        assert_eq!(eng.total_cycles.to_bits(), seq.total_cycles.to_bits());
        assert_eq!(eng.serialized_cycles.to_bits(), seq.total_cycles.to_bits());
        assert_eq!(eng.overlap_saved(), 0.0);
    }

    #[test]
    fn writeback_overlaps_next_segments_switch_and_load() {
        // seg0 on arrays {0,1}; write-back; seg1 on arrays {2,3}. The
        // write-back streams on the bus while arrays 2,3 switch and
        // load, so the engine beats the serial replay.
        let arch = presets::tiny();
        let mut flow = Flow::new("overlap");
        let (a, b) = (op(&mut flow, "a", 64), op(&mut flow, "b", 64));
        flow.push(Stmt::switch(
            SwitchKind::ToCompute,
            vec![ArrayId(0), ArrayId(1)],
        ));
        flow.push(Stmt::Parallel(vec![
            load(a, vec![ArrayId(0), ArrayId(1)]),
            compute(a, vec![ArrayId(0), ArrayId(1)]),
        ]));
        flow.push(mem(MemLoc::Main, 1 << 16, MemKind::Writeback { segment: 1 }));
        flow.push(Stmt::switch(
            SwitchKind::ToCompute,
            vec![ArrayId(2), ArrayId(3)],
        ));
        flow.push(Stmt::Parallel(vec![
            load(b, vec![ArrayId(2), ArrayId(3)]),
            compute(b, vec![ArrayId(2), ArrayId(3)]),
        ]));
        let seq = SequentialModel.simulate(&flow, &arch).unwrap();
        let trace = EventEngine::new().trace(&flow, &arch).unwrap();
        let eng = &trace.report;
        assert!(
            eng.total_cycles < seq.total_cycles,
            "engine {} vs sequential {}",
            eng.total_cycles,
            seq.total_cycles
        );
        assert!(eng.overlap_saved() > 0.0);
        // The timelines prove the pipelining: seg1's switch and weight
        // load on arrays 2,3 completed while seg0 still ran on arrays
        // 0,1 — i.e. strictly before the write-back (which cannot even
        // *start* until seg0's data is complete) finished.
        let seg0_end = trace.timelines[0]
            .intervals
            .iter()
            .chain(&trace.timelines[1].intervals)
            .map(|iv| iv.end)
            .fold(0.0f64, f64::max);
        for t in [&trace.timelines[2], &trace.timelines[3]] {
            let prep: Vec<_> = t
                .intervals
                .iter()
                .filter(|iv| matches!(iv.kind, BusyKind::Switch | BusyKind::WeightLoad))
                .collect();
            assert!(!prep.is_empty(), "array {:?} never prepared", t.array);
            for iv in prep {
                assert!(
                    iv.end <= seg0_end,
                    "array {:?}: {:?} did not overlap seg0 (ends {seg0_end})",
                    t.array,
                    iv
                );
            }
        }
    }

    #[test]
    fn segment_deps_name_predecessors_in_op_pair_order() {
        // `Ready::wait` breaks ties by predecessor order, so the source
        // projection must list segments as the expanded op pairs
        // (every op of the producer, then every op of the consumer)
        // first name them.
        let arch = presets::tiny();
        let g = cmswitch_models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
        let program = Session::builder(arch).build().compile_graph(&g).unwrap();
        let seg_of = |i: usize| {
            let mut segs = program.segments.iter();
            segs.position(|s| (s.range.0..=s.range.1).contains(&i))
                .unwrap()
        };
        let ops_of = |s: usize| -> Vec<usize> {
            (0..program.ops.len())
                .filter(|&i| program.ops[i].source == s)
                .collect()
        };
        let mut expected: Vec<Vec<usize>> = vec![Vec::new(); program.segments.len()];
        for &(p, c) in &program.op_deps {
            for pi in ops_of(p) {
                for ci in ops_of(c) {
                    let (from, to) = (seg_of(pi).min(seg_of(ci)), seg_of(pi).max(seg_of(ci)));
                    if from != to && !expected[to].contains(&from) {
                        expected[to].push(from);
                    }
                }
            }
        }
        assert!(
            expected.iter().any(|d| d.len() > 1),
            "no segment waits on two"
        );
        assert_eq!(segment_deps(&program), Some(expected));
    }

    #[test]
    fn statements_naming_ops_past_the_table_are_errors_not_panics() {
        // A compiled program's statements re-pushed into a flow with an
        // empty op table.
        let arch = presets::tiny();
        let g = cmswitch_models::mlp::mlp(1, &[128, 128, 64]).unwrap();
        let mut program = Session::builder(arch.clone()).build().compile_graph(&g).unwrap();
        let mut bare = Flow::new("broken");
        for s in program.flow.stmts() {
            bare.push(s.clone());
        }
        program.flow = bare;
        let unknown = |r: Result<(), MetaOpError>| matches!(r, Err(MetaOpError::UnknownOp { .. }));
        let engine = EventEngine::new();
        assert!(unknown(engine.simulate_program(&program, &arch).map(drop)));
        assert!(unknown(engine.trace_program(&program, &arch).map(drop)));
        assert!(unknown(SequentialModel.simulate(&program.flow, &arch).map(drop)));
        assert_eq!(latency_lower_bound(&program.flow, &arch), 0.0);
        assert!(energy::estimate(&program.flow, &arch, &EnergyModel::default()).compute_pj == 0.0);
    }

    #[test]
    fn independent_segments_overlap_with_op_deps() {
        // Compile a program, then rewrite its op_deps so segment 1 does
        // not consume segment 0: the engine may start both at once.
        let arch = presets::tiny();
        let g = cmswitch_models::mlp::mlp(1, &[256, 256, 256, 64]).unwrap();
        let session = Session::builder(arch.clone()).build();
        let mut program = session.compile_graph(&g).unwrap();
        assert!(program.segments.len() >= 2, "need a multi-segment plan");
        let chained = EventEngine::new().simulate_program(&program, &arch).unwrap();
        // Sever all inter-segment dependencies.
        program.op_deps.clear();
        let free = EventEngine::new().simulate_program(&program, &arch).unwrap();
        assert!(
            free.total_cycles <= chained.total_cycles,
            "independent segments must not schedule later: {} vs {}",
            free.total_cycles,
            chained.total_cycles
        );
    }

    #[test]
    fn session_simulate_emits_diagnostics() {
        let session = Session::builder(presets::tiny()).build();
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128]).unwrap();
        let outcome = session.compile(CompileRequest::new(g)).unwrap();
        let sim = session.simulate(&outcome).unwrap();
        let (pipelined, serialized) = sim.diagnostics.simulated_cycles().unwrap();
        assert!(pipelined > 0.0 && pipelined <= serialized);
        assert_eq!(pipelined, sim.report.total_cycles);
        assert!(!sim.report.critical_path.is_empty());
        assert!(sim.report.energy.total_pj() > 0.0);
        // Start times are monotone along the critical chain (windows
        // may overlap: a predecessor can release the binding resource
        // before its own end), and the chain ends at the makespan.
        for pair in sim.report.critical_path.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        let last = sim.report.critical_path.last().unwrap();
        assert_eq!(last.end, sim.report.total_cycles);
    }

    #[test]
    fn engine_dominates_sequential_and_matches_energy() {
        let arch = presets::tiny();
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 256, 128]).unwrap();
        let session = Session::builder(arch.clone()).build();
        let program = session.compile_graph(&g).unwrap();
        let seq = SequentialModel.simulate(&program.flow, &arch).unwrap();
        let eng = EventEngine::new().simulate_program(&program, &arch).unwrap();
        assert!(eng.total_cycles <= seq.total_cycles);
        assert_eq!(eng.serialized_cycles.to_bits(), seq.total_cycles.to_bits());
        let direct = energy::estimate(&program.flow, &arch, &EnergyModel::default());
        assert_eq!(eng.energy.total_pj().to_bits(), direct.total_pj().to_bits());
        assert!(eng.total_cycles >= latency_lower_bound(&program.flow, &arch));
    }

    #[test]
    fn timelines_never_overlap_and_histogram_counts_arrays() {
        let arch = presets::tiny();
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let program = Session::builder(arch.clone())
            .build()
            .compile_graph(&g)
            .unwrap();
        let eng = EventEngine::new().trace_program(&program, &arch).unwrap();
        for t in &eng.timelines {
            for pair in t.intervals.windows(2) {
                assert!(
                    pair[0].end <= pair[1].start + 1e-9,
                    "array {:?}: {:?} overlaps {:?}",
                    t.array,
                    pair[0],
                    pair[1]
                );
            }
        }
        let hist = eng.utilization_histogram();
        assert_eq!(
            hist.iter().sum::<u64>() as usize,
            arch.n_arrays(),
            "every array lands in exactly one bucket"
        );
        assert_eq!(eng.report.segments.len(), program.segments.len());
    }

    fn ids(ids: std::ops::RangeInclusive<u32>) -> Vec<ArrayId> {
        ids.map(ArrayId).collect()
    }

    /// A compute statement with buffers.
    fn lane(op: u32, arrays: [Vec<ArrayId>; 3]) -> Stmt {
        let [compute_arrays, mem_in, mem_out] = arrays;
        let Stmt::Compute(mut c) = compute(op, compute_arrays) else {
            unreachable!("`compute` builds a compute statement")
        };
        c.mem_in_arrays = mem_in.into();
        c.mem_out_arrays = mem_out.into();
        Stmt::Compute(c)
    }

    /// Every event of `flows` timed, with timelines.
    fn pass<'a>(
        flows: &[FlowInput<'a>],
        arch: &'a DualModeArch,
        energy: &'a EnergyModel,
    ) -> ForwardPass<'a> {
        ForwardPass::run(flows, arch, energy, Some(idle_timelines(arch))).unwrap()
    }

    fn lane_cycles(flow: &Flow, s: &Stmt, body: &[Stmt], arch: &DualModeArch) -> f64 {
        let Stmt::Compute(c) = s else { unreachable!() };
        cost::lane_duration(flow.ops(), c, body, arch)
    }

    #[test]
    fn an_array_named_twice_in_a_segment_is_freed_by_its_first_lane() {
        // Rule 2: op `a` runs two lanes over array 0, the first on more
        // arrays and so shorter; successors wait for the first lane's
        // release, not the later one.
        let arch = presets::tiny();
        let mut flow = Flow::new("twice");
        let a = op(&mut flow, "a", 256);
        let (b, c) = (op(&mut flow, "b", 1), op(&mut flow, "c", 1));
        let body = vec![
            compute(a, vec![ArrayId(0), ArrayId(2), ArrayId(3)]),
            compute(a, ids(0..=1)),
        ];
        flow.push(Stmt::switch(SwitchKind::ToCompute, ids(0..=3)));
        flow.push(Stmt::Parallel(body.clone()));
        flow.push(load(b, vec![ArrayId(0)]));
        flow.push(load(c, vec![ArrayId(1)]));
        let energy = EnergyModel::default();
        let pass = pass(&[(&flow, None)], &arch, &energy);
        let short = lane_cycles(&flow, &body[0], &body, &arch);
        let long = lane_cycles(&flow, &body[1], &body, &arch);
        assert!(short < long);
        let exec = pass
            .events
            .iter()
            .find(|e| matches!(e.label, Label::SegExec { .. }));
        let exec = exec.unwrap();
        let load_start = |name: &str| {
            let load = |e: &&Event| matches!(e.label, Label::Load { op, .. } if op == name);
            pass.events.iter().find(load).unwrap().start
        };
        assert_eq!(load_start("b"), exec.start + short);
        assert_eq!(load_start("c"), exec.start + long);
        // Both lanes log their window on array 0.
        let timeline = &pass.timelines.as_ref().unwrap()[0];
        let lanes = timeline
            .intervals
            .iter()
            .filter(|i| i.kind == BusyKind::Compute);
        assert_eq!(lanes.count(), 2);
    }

    #[test]
    fn lanes_ending_at_different_cycles_split_one_run() {
        // `a` writes arrays 6, 5, 4 (one descending run), `b` reads 5..=7
        // (Eq. 6 reuse): arrays both name stay busy for the longer lane,
        // and the busy time is summed id by id in first-named order.
        let arch = presets::tiny();
        let mut flow = Flow::new("lanes");
        let (a, b) = (op(&mut flow, "a", 16), op(&mut flow, "b", 256));
        let body = vec![
            lane(a, [ids(0..=1), vec![], ids(4..=6).into_iter().rev().collect()]),
            lane(b, [ids(2..=3), ids(5..=7), vec![]]),
        ];
        flow.push(Stmt::switch(SwitchKind::ToCompute, ids(0..=3)));
        flow.push(Stmt::Parallel(body.clone()));
        flow.push(Stmt::switch(SwitchKind::ToMemory, ids(0..=3)));
        let energy = EnergyModel::default();
        let pass = pass(&[(&flow, None)], &arch, &energy);
        let la = lane_cycles(&flow, &body[0], &body, &arch);
        let lb = lane_cycles(&flow, &body[1], &body, &arch);
        assert!(la < lb);
        let (exec_id, exec) = pass
            .events
            .iter()
            .enumerate()
            .find(|(_, e)| matches!(e.label, Label::SegExec { .. }))
            .unwrap();
        let freed = |a: u32| *pass.released.get(ArrayId(a));
        for (a, busy) in [(4, la), (5, lb), (6, lb), (7, lb)] {
            assert_eq!(freed(a), Some((exec_id, exec.start + busy)), "array {a}");
        }
        for (a, busy) in [(0, la), (1, la)] {
            let last = pass.timelines.as_ref().unwrap()[a].intervals.iter().rev();
            let compute = last.clone().find(|i| i.kind == BusyKind::Compute).unwrap();
            assert_eq!(compute.end, exec.start + busy, "array {a}");
        }
        let mut mem_traffic = 0.0;
        for busy in [lb, lb, la, lb] {
            mem_traffic += busy;
        }
        assert_eq!(
            pass.report.breakdown.mem_traffic.to_bits(),
            mem_traffic.to_bits()
        );
        // The switch over the whole run 0..=3 waits for its slowest piece.
        let back = pass.events.last().unwrap();
        assert_eq!(back.start, exec.start + lb);
        assert_eq!(back.critical, Some(exec_id));
    }

    #[test]
    fn one_flow_re_switches_nothing_a_body_switches_after_use() {
        // The prepass checks a body statement by statement, so array 0
        // computes before the body switches it away. Alone on the chip
        // nothing is injected: the engine's serial cost is the
        // sequential replay's, where a re-switch would add a cycle.
        let arch = presets::tiny();
        let mut flow = Flow::new("after-use");
        let a = op(&mut flow, "a", 16);
        flow.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        flow.push(Stmt::Parallel(vec![
            load(a, vec![ArrayId(0)]),
            compute(a, vec![ArrayId(0)]),
            Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]),
        ]));
        let seq = SequentialModel.simulate(&flow, &arch).unwrap();
        let eng = EventEngine::new().simulate(&flow, &arch).unwrap();
        assert_eq!(eng.serialized_cycles.to_bits(), seq.total_cycles.to_bits());
        assert_eq!(eng.total_cycles.to_bits(), seq.total_cycles.to_bits());
    }

    #[test]
    fn two_flows_re_switch_nothing_a_body_switches_after_use() {
        // The same body beside a flow that touches no array: checked in
        // statement order, array 0 computes while still in compute mode,
        // so no flow caused a re-switch and none is injected.
        let arch = presets::tiny();
        let mut flow = Flow::new("after-use");
        let a = op(&mut flow, "a", 16);
        flow.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        flow.push(Stmt::Parallel(vec![
            load(a, vec![ArrayId(0)]),
            compute(a, vec![ArrayId(0)]),
            Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]),
        ]));
        let mut other = Flow::new("bus-only");
        other.push(mem(MemLoc::Main, 4096, MemKind::Transfer));
        let energy = EnergyModel::default();
        let pass = pass(&[(&flow, None), (&other, None)], &arch, &energy);
        assert_eq!(pass.switches.injected, 0);
        let realigned = pass.events.iter().any(|e| matches!(e.label, Label::Realign { .. }));
        assert!(!realigned);
        // The body's own switch still leaves array 0 in memory mode.
        assert_eq!(*pass.modes.get(ArrayId(0)), (ArrayMode::Memory, Some(0)));
    }

    #[test]
    fn a_flipped_run_is_re_switched_once_per_flow_that_needs_it() {
        // `a` computes on arrays 0..=3; `b` buffers on 2..=5 in between.
        // `b` re-switches 2, 3 to memory, then `a` re-switches them back.
        let arch = presets::tiny();
        let quad = ids(0..=3);
        let mut a = Flow::new("a");
        a.push(Stmt::switch(SwitchKind::ToCompute, quad.clone()));
        for name in ["a0", "a1"] {
            let op = op(&mut a, name, 64);
            let body = vec![load(op, quad.clone()), compute(op, quad.clone())];
            a.push(Stmt::Parallel(body));
        }
        let mut b = Flow::new("b");
        b.push(mem(MemLoc::CimArrays(ids(2..=5).into()), 4096, MemKind::Transfer));
        let energy = EnergyModel::default();
        let pass = pass(&[(&a, None), (&b, None)], &arch, &energy);
        let realigns: Vec<(SwitchKind, usize)> = pass
            .events
            .iter()
            .filter_map(|e| match e.label {
                Label::Realign { kind, n, .. } => Some((kind, n)),
                _ => None,
            })
            .collect();
        assert_eq!(
            realigns,
            [(SwitchKind::ToMemory, 2), (SwitchKind::ToCompute, 2)]
        );
        assert_eq!(pass.switches.injected, 4);
        assert_eq!(*pass.modes.get(ArrayId(2)), (ArrayMode::Compute, Some(0)));
        assert_eq!(*pass.modes.get(ArrayId(4)), (ArrayMode::Memory, None));
        // Each re-switched array logs both injected switches.
        for t in &pass.timelines.as_ref().unwrap()[2..=3] {
            let switches = t
                .intervals
                .iter()
                .filter(|i| i.kind == BusyKind::Switch)
                .count();
            assert_eq!(switches, 3, "{t:?}");
        }
    }

    #[test]
    fn two_flows_share_arrays_bus_and_one_critical_path() {
        // What `TimeSliced` co-simulation runs: `a` computes on arrays 0
        // and 1, `b` spills through them in memory mode, so each flips
        // arrays the other still needs.
        let arch = presets::tiny();
        let traffic = |loc| mem(loc, 4096, MemKind::Transfer);
        let pair = vec![ArrayId(0), ArrayId(1)];
        let on_pair = || MemLoc::CimArrays(pair.clone().into());
        let mut a = Flow::new("a");
        a.push(Stmt::switch(SwitchKind::ToCompute, pair.clone()));
        for name in ["a0", "a1"] {
            let op = op(&mut a, name, 64);
            let body = vec![load(op, pair.clone()), compute(op, pair.clone())];
            a.push(Stmt::Parallel(body));
            a.push(traffic(MemLoc::Main));
        }
        let mut b = Flow::new("b");
        for loc in [on_pair(), MemLoc::Main, on_pair()] {
            b.push(traffic(loc));
        }
        let flows = [(&a, None), (&b, None)];
        let energy_model = EnergyModel::default();
        let timelines = Some(idle_timelines(&arch));
        let pass = ForwardPass::run(&flows, &arch, &energy_model, timelines).unwrap();

        // Bulk-memory events serialize on the one port, in lowering order.
        let on_bus = |e: &&Event| matches!(e.label, Label::Mem { .. });
        let bus: Vec<_> = pass.events.iter().filter(on_bus).collect();
        assert_eq!(bus.len(), 5);
        assert!(bus.windows(2).all(|w| w[0].finish <= w[1].start));

        let pass = pass.finish();
        let apart = |w: &[BusyInterval]| w[0].end <= w[1].start + 1e-9;
        for t in pass.timelines.iter().flatten() {
            assert!(t.intervals.windows(2).all(apart), "{t:?}");
        }
        let (report, switches) = (&pass.report, &pass.switches);
        assert!(switches.injected >= 4, "{switches:?}");
        assert_eq!(switches.requested, switches.executed + switches.amortized);
        let last = report.critical_path.last().unwrap();
        assert_eq!(last.end, report.total_cycles);
        let finishes = pass.flows.iter().map(|f| f.finish);
        assert_eq!(report.total_cycles, finishes.fold(0.0, f64::max));
        let busy: f64 = pass.flows.iter().map(|f| f.busy).sum();
        assert_eq!(report.serialized_cycles, busy);
    }
}
