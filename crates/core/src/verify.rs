//! Static verification of compiled programs: one fixed rule book over
//! [`CompiledProgram`] + [`cmswitch_metaop::Flow`] + [`Segment`].
//!
//! `metaop::validate` enforces mode discipline but stops at the first
//! error, and nothing cross-checks the emitted flow against the segment
//! plans or the `op_deps` relation that the event-driven simulator
//! trusts to decide which segments may legally overlap. This module is
//! the collect-everything counterpart: [`Verifier::run`] runs five
//! analyses over the program, in a fixed order, and records **all**
//! their findings in one [`VerifyReport`], so a defective artifact
//! produces a complete defect list instead of one error.
//!
//! | analysis, in run order | rules |
//! |---|---|
//! | mode-interval dataflow | `mode-discipline`, `use-before-load`, `dead-weight-load`, `redundant-switch` |
//! | capacity | `capacity-arrays`, `capacity-weights`, `capacity-load-bytes`, `capacity-claim-mismatch` |
//! | dependence soundness | `dep-order`, `dep-cycle`, `dep-missing` |
//! | parallel races | `race-conflict`, `race-nested` |
//! | flow/plan consistency | `plan-segments`, `plan-ops`, `plan-alloc-counts`, `plan-weight-loads` |
//!
//! Run it three ways: [`Session::verify`] on a
//! [`CompileOutcome`], the opt-in pipeline stage
//! ([`VerifyStage`], enabled via
//! [`CompilerOptions::with_verify`](crate::CompilerOptions::with_verify),
//! which fails the compile with [`CompileError::VerifyRejected`] on any
//! `Deny` finding), or [`Verifier::run`] directly. Co-scheduler admission
//! runs two of the analyses through [`admission`]. A new rule is one more
//! function and one more call in [`Verifier::run`].
//!
//! The verifier gates every artifact served from the store, so it is
//! built to cost a linear pass: per-array state is kept by the run
//! ([`cmswitch_metaop::dense::RunTable`]), the flow's segment blocks are
//! indexed once per [`Verifier::run`], and names, array lists and
//! messages are only built for findings — a clean program allocates a
//! few dozen times whatever its size. Array ids are untrusted (they come
//! from decoded artifacts): ids beyond the chip are findings, never
//! panics, and cost nothing proportional to their value. Array lists are
//! runs, and every analysis walks a run clipped to the chip
//! ([`cmswitch_metaop::ArraySet::clipped_runs`]): its part on the chip as
//! one run, its part beyond the chip as that part's first id. An analysis
//! reads and updates its table a piece of equal state at a time, so work
//! is per run and per piece, not per reference; only a finding lists its
//! arrays id by id — a forged run of four billion ids is one
//! `capacity-arrays` finding, not four billion.
//!
//! The [`mutate`] submodule injects known defect classes into valid
//! programs; the test suite uses it to prove every rule actually fires
//! (mutation-kill testing).

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;

use cmswitch_arch::{ArrayId, ArrayMode, DualModeArch};
use cmswitch_metaop::dense::{BlockClaims, RunTable};
use cmswitch_metaop::walk::{walk_flow, FlowEvent};
use cmswitch_metaop::{
    ArrayRun, ArraySet, ComputeStmt, Flow, FlowOp, MemLoc, Stmt, WeightLoadStmt,
};

use crate::compiler::CompiledProgram;
use crate::diagnostics::DiagnosticEvent;
use crate::frontend::source_spans;
use crate::pipeline::{PipelineCx, Stage};
use crate::segment::Segment;
use crate::session::{CompileOutcome, Session};
use crate::CompileError;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not unsound: the program still executes correctly
    /// (e.g. a weight load nothing consumes).
    Warn,
    /// Unsound: executing or overlapping this program as compiled would
    /// be wrong. [`VerifyStage`] fails the compile on any `Deny`.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Rule identifiers of the verifier's analyses, and the severity policy.
///
/// Findings carry one of these ids; the severity of a rule is fixed by
/// [`rules::severity`] so reports stay consistent across analyses.
pub mod rules {
    use super::Severity;

    /// An array is used in the wrong mode (compute on a memory-mode
    /// array, buffering or scratchpad access on a compute-mode array,
    /// weight load into a memory-mode array).
    pub const MODE_DISCIPLINE: &str = "mode-discipline";
    /// A static-weight compute runs on arrays that do not hold its
    /// weights (no load, or another op's weights).
    pub const USE_BEFORE_LOAD: &str = "use-before-load";
    /// A weight load is overwritten or mode-switched away before any
    /// compute consumes it, or survives to the end of the flow unused.
    pub const DEAD_WEIGHT_LOAD: &str = "dead-weight-load";
    /// A switch targets arrays already in that mode, or re-switches
    /// arrays untouched since their previous switch.
    pub const REDUNDANT_SWITCH: &str = "redundant-switch";
    /// A segment claims more physical arrays than the chip has, or a
    /// statement (inside a segment or not) references an array id beyond
    /// the chip.
    pub const CAPACITY_ARRAYS: &str = "capacity-arrays";
    /// A static op's compute-array allocation cannot hold its weights
    /// (fewer than `min_tiles` arrays).
    pub const CAPACITY_WEIGHTS: &str = "capacity-weights";
    /// A weight load writes more bytes than its destination arrays hold.
    pub const CAPACITY_LOAD_BYTES: &str = "capacity-load-bytes";
    /// The distinct arrays a segment's statements touch differ from the
    /// arrays its [`SegmentAllocation`](crate::allocation::SegmentAllocation)
    /// claims.
    pub const CAPACITY_CLAIM_MISMATCH: &str = "capacity-claim-mismatch";
    /// An `op_deps` edge runs backwards (producer source at or after its
    /// consumer source) or names a source no op has.
    pub const DEP_ORDER: &str = "dep-order";
    /// `op_deps` contains a cycle.
    pub const DEP_CYCLE: &str = "dep-cycle";
    /// A real data dependence (shared buffer arrays, or a planned Eq. 6
    /// reuse) has no `op_deps` edge — the simulator would overlap
    /// dependent segments.
    pub const DEP_MISSING: &str = "dep-missing";
    /// Conflicting array claims inside one `parallel` segment beyond the
    /// Eq. 6 producer-out/consumer-in reuse pattern.
    pub const RACE_CONFLICT: &str = "race-conflict";
    /// A `parallel` block nests inside another.
    pub const RACE_NESTED: &str = "race-nested";
    /// The flow's segment count or the plans' op ranges do not tile the
    /// program.
    pub const PLAN_SEGMENTS: &str = "plan-segments";
    /// A segment's compute statements do not match the ops its plan
    /// promises (missing, reordered, or wrong-shaped), or a statement
    /// names an op past the flow's op table.
    pub const PLAN_OPS: &str = "plan-ops";
    /// An emitted statement's array counts differ from the segment
    /// allocation.
    pub const PLAN_ALLOC_COUNTS: &str = "plan-alloc-counts";
    /// Weight loads do not match the plan: missing for a static op,
    /// duplicated, targeting foreign arrays, or for an op outside the
    /// segment.
    pub const PLAN_WEIGHT_LOADS: &str = "plan-weight-loads";

    /// The fixed severity of a rule id (unknown ids are `Deny`, the
    /// conservative default).
    pub fn severity(rule: &str) -> Severity {
        match rule {
            DEAD_WEIGHT_LOAD | REDUNDANT_SWITCH => Severity::Warn,
            _ => Severity::Deny,
        }
    }
}

/// One verification finding.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyFinding {
    /// The rule that fired (see [`rules`]).
    pub rule: &'static str,
    /// Severity per [`rules::severity`].
    pub severity: Severity,
    /// Top-level flow statement index the finding anchors to, if any.
    pub stmt: Option<usize>,
    /// Index into [`CompiledProgram::ops`], if the finding is about one
    /// op.
    pub op: Option<usize>,
    /// Arrays involved (possibly empty).
    pub arrays: Vec<ArrayId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.severity, self.rule, self.message)?;
        if let Some(stmt) = self.stmt {
            write!(f, " (stmt {stmt})")?;
        }
        if let Some(op) = self.op {
            write!(f, " (op {op})")?;
        }
        Ok(())
    }
}

/// Everything the analyses found, in emission order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyReport {
    findings: Vec<VerifyFinding>,
}

impl VerifyReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finding under `rule`, with the severity fixed by
    /// [`rules::severity`].
    pub fn push(
        &mut self,
        rule: &'static str,
        stmt: Option<usize>,
        op: Option<usize>,
        arrays: Vec<ArrayId>,
        message: impl Into<String>,
    ) {
        self.findings.push(VerifyFinding {
            rule,
            severity: rules::severity(rule),
            stmt,
            op,
            arrays,
            message: message.into(),
        });
    }

    /// All findings, in emission order.
    pub fn findings(&self) -> &[VerifyFinding] {
        &self.findings
    }

    /// Number of `Deny` findings.
    pub fn deny_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Deny).count()
    }

    /// Number of `Warn` findings.
    pub fn warn_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warn).count()
    }

    /// Whether the program passed: no `Deny` findings (warnings
    /// allowed).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Whether nothing at all was found.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Whether any finding carries `rule`.
    pub fn has_rule(&self, rule: &str) -> bool {
        self.findings.iter().any(|f| f.rule == rule)
    }

    /// The distinct rule ids that fired, in first-seen order.
    pub fn fired_rules(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for f in &self.findings {
            if !seen.contains(&f.rule) {
                seen.push(f.rule);
            }
        }
        seen
    }
}

impl fmt::Display for VerifyReport {
    /// One line per finding plus a summary line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(
            f,
            "verify: {} deny, {} warn",
            self.deny_count(),
            self.warn_count()
        )
    }
}

/// What every analysis sees: the program under verification, the chip it
/// was compiled for, the flow's op table and its segment blocks, indexed
/// once.
struct VerifyCx<'a> {
    program: &'a CompiledProgram,
    arch: &'a DualModeArch,
    ops: &'a [FlowOp],
    index: BlockIndex<'a>,
}

impl<'a> VerifyCx<'a> {
    fn new(program: &'a CompiledProgram, arch: &'a DualModeArch) -> Self {
        VerifyCx {
            program,
            arch,
            ops: program.flow.ops(),
            index: BlockIndex::of(&program.flow),
        }
    }

    /// The op-table entry a statement names, if the table has it.
    fn op(&self, op: u32) -> Option<&'a FlowOp> {
        self.ops.get(op as usize)
    }

    /// How messages name the op a statement names (`plan-ops` reports
    /// an index past the table).
    fn name(&self, op: u32) -> Cow<'a, str> {
        self.program.flow.op_name(op)
    }

    /// The flow's segments, in order.
    fn blocks(&self) -> &[SegmentBlock<'a>] {
        &self.index.blocks
    }

    /// The compute statements of `block`, in order.
    fn computes(&self, block: &SegmentBlock<'a>) -> &[&'a ComputeStmt] {
        &self.index.computes[block.computes.clone()]
    }
}

/// One segment of the flow, in the same counting the event engine uses:
/// each top-level `parallel` block or bare compute statement.
#[derive(Debug)]
struct SegmentBlock<'a> {
    stmt: usize,
    body: &'a [Stmt],
    /// This block's slice of [`BlockIndex::computes`].
    computes: Range<usize>,
}

/// Every segment block of a flow and, flattened behind them, their
/// compute statements — built once per run and shared by the analyses.
#[derive(Debug, Default)]
struct BlockIndex<'a> {
    blocks: Vec<SegmentBlock<'a>>,
    computes: Vec<&'a ComputeStmt>,
}

impl<'a> BlockIndex<'a> {
    fn of(flow: &'a Flow) -> Self {
        let mut index = BlockIndex::default();
        for (stmt, s) in flow.stmts().iter().enumerate() {
            let body = match s {
                Stmt::Parallel(body) => body.as_slice(),
                Stmt::Compute(_) => std::slice::from_ref(s),
                _ => continue,
            };
            let start = index.computes.len();
            index.computes.extend(body.iter().filter_map(|s| match s {
                Stmt::Compute(c) => Some(c),
                _ => None,
            }));
            index.blocks.push(SegmentBlock {
                stmt,
                body,
                computes: start..index.computes.len(),
            });
        }
        index
    }
}

/// The ids of `arrays` a finding names: the list walked clipped to the
/// chip, so a run reaching past it is named by its first stray id.
fn listed(arrays: &ArraySet, n_arrays: usize) -> Vec<ArrayId> {
    arrays.clipped(n_arrays).collect()
}

/// Formats a short array list for messages.
fn fmt_arrays(arrays: &[ArrayId]) -> String {
    let mut s = String::new();
    for (i, a) in arrays.iter().take(6).enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("a{}", a.0));
    }
    if arrays.len() > 6 {
        s.push_str(&format!(", … ({} total)", arrays.len()));
    }
    s
}

// ---------------------------------------------------------------------
// Analysis 1: mode-interval dataflow.
// ---------------------------------------------------------------------

#[derive(Clone, Default, PartialEq)]
struct ArrayState {
    mode: Option<ArrayMode>, // None = initial memory mode
    load: Option<PendingLoad>,
    switched_at: Option<usize>,
    used_since_switch: bool,
}

/// The weights an array holds: the op (its table index) of the load
/// that wrote them.
#[derive(Clone, PartialEq)]
struct PendingLoad {
    op: u32,
    stmt: usize,
    consumed: bool,
}

impl ArrayState {
    fn mode(&self) -> ArrayMode {
        self.mode.unwrap_or(ArrayMode::Memory)
    }
}

fn flag_dead_load(
    cx: &VerifyCx<'_>,
    report: &mut VerifyReport,
    a: ArrayId,
    load: &PendingLoad,
    why: &str,
) {
    report.push(
        rules::DEAD_WEIGHT_LOAD,
        Some(load.stmt),
        None,
        vec![a],
        format!("weights for {} loaded into a{} are {why}", cx.name(load.op), a.0),
    );
}

/// Reconstructs per-array mode timelines and flags wrong-mode uses,
/// computes running before their weights are loaded, dead weight loads
/// and redundant switches.
fn mode_intervals(cx: &VerifyCx<'_>, report: &mut VerifyReport) {
    let n_arrays = cx.arch.n_arrays();
    let mut states = RunTable::new(ArrayState::default());
    let _: Result<(), std::convert::Infallible> = walk_flow(&cx.program.flow, |event| {
        let FlowEvent::Stmt { pos, stmt } = event else {
            return Ok(());
        };
        let idx = pos.stmt;
        // Uses in the wrong mode, by the mode the role needs.
        let (mut bad_compute, mut bad_memory) = (Vec::new(), Vec::new());
        stmt.for_each_required_mode(&mut |arrays, needed| {
            let bad = match needed {
                ArrayMode::Compute => &mut bad_compute,
                ArrayMode::Memory => &mut bad_memory,
            };
            for run in arrays.clipped_runs(n_arrays) {
                states.read(run, |piece, st| {
                    if st.mode() != needed {
                        bad.extend(piece.iter());
                    }
                });
            }
        });
        match stmt {
            Stmt::Switch { kind, arrays } => {
                let target = kind.target_mode();
                let mut same_mode = Vec::new();
                let mut unused = Vec::new();
                for run in arrays.clipped_runs(n_arrays) {
                    states.update(run, |piece, st| {
                        if st.mode() == target {
                            same_mode.extend(piece.iter());
                        } else if st.switched_at.is_some() && !st.used_since_switch {
                            unused.extend(piece.iter());
                        }
                        if st.mode() != target {
                            if let Some(load) = st.load.take().filter(|l| !l.consumed) {
                                for a in piece.iter() {
                                    flag_dead_load(
                                        cx,
                                        report,
                                        a,
                                        &load,
                                        "mode-switched away before any compute uses them",
                                    );
                                }
                            }
                        }
                        st.mode = Some(target);
                        st.switched_at = Some(idx);
                        st.used_since_switch = false;
                    });
                }
                if !same_mode.is_empty() {
                    let list = fmt_arrays(&same_mode);
                    report.push(
                        rules::REDUNDANT_SWITCH,
                        Some(idx),
                        None,
                        same_mode,
                        format!(
                            "{} switches arrays already in {:?} mode: {list}",
                            kind.keyword(),
                            target
                        ),
                    );
                }
                if !unused.is_empty() {
                    let list = fmt_arrays(&unused);
                    report.push(
                        rules::REDUNDANT_SWITCH,
                        Some(idx),
                        None,
                        unused,
                        format!(
                            "back-to-back switch: arrays untouched since their \
                             previous switch: {list}"
                        ),
                    );
                }
            }
            Stmt::Compute(c) => {
                let mut unloaded = Vec::new();
                // An op past the table holds no weights to check.
                let weight_static = cx.op(c.op).is_some_and(|op| op.weight_static);
                for run in c.compute_arrays.clipped_runs(n_arrays) {
                    states.update(run, |piece, st| {
                        st.used_since_switch = true;
                        if !weight_static {
                            return;
                        }
                        match &mut st.load {
                            Some(load) if load.op == c.op => load.consumed = true,
                            _ => unloaded.extend(piece.iter()),
                        }
                    });
                }
                for buffers in [&c.mem_in_arrays, &c.mem_out_arrays] {
                    for run in buffers.clipped_runs(n_arrays) {
                        states.update(run, |_, st| st.used_since_switch = true);
                    }
                }
                if !bad_compute.is_empty() {
                    let list = fmt_arrays(&bad_compute);
                    report.push(
                        rules::MODE_DISCIPLINE,
                        Some(idx),
                        None,
                        bad_compute,
                        format!("{} computes on memory-mode arrays: {list}", cx.name(c.op)),
                    );
                }
                if !bad_memory.is_empty() {
                    let list = fmt_arrays(&bad_memory);
                    report.push(
                        rules::MODE_DISCIPLINE,
                        Some(idx),
                        None,
                        bad_memory,
                        format!("{} buffers on compute-mode arrays: {list}", cx.name(c.op)),
                    );
                }
                if !unloaded.is_empty() {
                    let list = fmt_arrays(&unloaded);
                    report.push(
                        rules::USE_BEFORE_LOAD,
                        Some(idx),
                        None,
                        unloaded,
                        format!(
                            "{} computes on arrays that do not hold its weights: {list}",
                            cx.name(c.op)
                        ),
                    );
                }
            }
            Stmt::LoadWeights(w) => {
                for run in w.arrays.clipped_runs(n_arrays) {
                    states.update(run, |piece, st| {
                        st.used_since_switch = true;
                        let load = PendingLoad {
                            op: w.op,
                            stmt: idx,
                            consumed: false,
                        };
                        if let Some(prev) = st.load.replace(load).filter(|l| !l.consumed) {
                            for a in piece.iter() {
                                flag_dead_load(
                                    cx,
                                    report,
                                    a,
                                    &prev,
                                    "overwritten before any compute uses them",
                                );
                            }
                        }
                    });
                }
                if !bad_compute.is_empty() {
                    let list = fmt_arrays(&bad_compute);
                    report.push(
                        rules::MODE_DISCIPLINE,
                        Some(idx),
                        None,
                        bad_compute,
                        format!(
                            "weight load for {} into memory-mode arrays: {list}",
                            cx.name(w.op)
                        ),
                    );
                }
            }
            Stmt::Mem(m) => {
                if let MemLoc::CimArrays(arrays) = &m.loc {
                    for run in arrays.clipped_runs(n_arrays) {
                        states.update(run, |_, st| st.used_since_switch = true);
                    }
                    if !bad_memory.is_empty() {
                        let list = fmt_arrays(&bad_memory);
                        report.push(
                            rules::MODE_DISCIPLINE,
                            Some(idx),
                            None,
                            bad_memory,
                            format!(
                                "scratchpad access `{}` on compute-mode arrays: {list}",
                                m.kind
                            ),
                        );
                    }
                }
            }
            // Nested blocks are the race analysis's business.
            Stmt::Vector(_) | Stmt::Parallel(_) => {}
        }
        Ok(())
    });
    // Loads never consumed by the end of the flow, in array order.
    // Only ids a clipped walk reached hold a load, so these pieces
    // are on the chip or one stray id each.
    for (first, last, st) in states.iter() {
        if let Some(load) = st.load.as_ref().filter(|l| !l.consumed) {
            for a in first.0..=last.0 {
                flag_dead_load(cx, report, ArrayId(a), load, "never consumed by any compute");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Analysis 2: capacity.
// ---------------------------------------------------------------------

/// Checks claimed arrays and loaded bytes against the chip's limits,
/// cross-checking the flow's claims against each
/// [`SegmentAllocation`](crate::allocation::SegmentAllocation).
fn capacity(cx: &VerifyCx<'_>, report: &mut VerifyReport) {
    let program = cx.program;
    let n_arrays = cx.arch.n_arrays();
    let blocks = cx.blocks();
    let aligned = blocks.len() == program.segments.len();
    // Whether the block at hand touched each array: counts distinct
    // arrays per block without a set.
    let mut touched = RunTable::new(false);

    for (si, plan) in program.segments.iter().enumerate() {
        let block_stmt = aligned.then(|| blocks[si].stmt);
        // Plan-side capacity: Eq. 8.
        let used = plan.alloc.arrays_used();
        if used > n_arrays {
            report.push(
                rules::CAPACITY_ARRAYS,
                block_stmt,
                None,
                Vec::new(),
                format!("segment {si} claims {used} arrays, chip has {n_arrays}"),
            );
        }
        // Plan-side weight capacity: every static op needs at least
        // its min-tiles worth of compute arrays to hold the [K,N]
        // operand.
        for (oi, a) in plan.alloc.ops.iter().enumerate() {
            let Some(gi) = plan.range.0.checked_add(oi) else { break };
            let Some(op) = program.ops.get(gi) else { continue };
            if op.weight_static && a.compute < op.min_tiles {
                report.push(
                    rules::CAPACITY_WEIGHTS,
                    block_stmt,
                    Some(gi),
                    Vec::new(),
                    format!(
                        "{} gets {} compute arrays but needs {} to hold its weights",
                        op.name, a.compute, op.min_tiles
                    ),
                );
            }
        }
        if !aligned {
            continue;
        }
        // Flow-side cross-checks against the aligned block.
        let block = &blocks[si];
        touched.reset(false);
        let mut distinct = 0usize;
        let mut out_of_range: Vec<ArrayId> = Vec::new();
        for s in block.body {
            s.for_each_array_set(&mut |arrays| {
                for run in arrays.clipped_runs(n_arrays) {
                    // A clipped piece past the chip is one stray id.
                    if let Some(a) = run.first_beyond(n_arrays) {
                        if !out_of_range.contains(&a) {
                            out_of_range.push(a);
                        }
                        continue;
                    }
                    touched.update(run, |piece, seen| {
                        if !*seen {
                            *seen = true;
                            distinct += piece.count() as usize;
                        }
                    });
                }
            });
            if let Stmt::LoadWeights(w) = s {
                let capacity = (w.arrays.len() as u64).saturating_mul(cx.arch.array_bytes());
                if w.bytes > capacity {
                    report.push(
                        rules::CAPACITY_LOAD_BYTES,
                        Some(block.stmt),
                        None,
                        listed(&w.arrays, n_arrays),
                        format!(
                            "weight load for {} writes {} bytes into {} arrays \
                             holding {capacity}",
                            cx.name(w.op),
                            w.bytes,
                            w.arrays.len()
                        ),
                    );
                }
            }
        }
        distinct += out_of_range.len();
        if !out_of_range.is_empty() {
            let list = fmt_arrays(&out_of_range);
            report.push(
                rules::CAPACITY_ARRAYS,
                Some(block.stmt),
                None,
                out_of_range,
                format!("segment {si} references arrays beyond the chip: {list}"),
            );
        }
        if distinct != used {
            report.push(
                rules::CAPACITY_CLAIM_MISMATCH,
                Some(block.stmt),
                None,
                Vec::new(),
                format!(
                    "segment {si} touches {distinct} distinct arrays but its allocation \
                     claims {used}"
                ),
            );
        }
    }

    // Statements the aligned blocks above do not cover address the
    // chip too: the simulator indexes its array state by every id it
    // meets, wherever the statement sits.
    for (idx, s) in program.flow.stmts().iter().enumerate() {
        if aligned && matches!(s, Stmt::Parallel(_) | Stmt::Compute(_)) {
            continue;
        }
        let mut out_of_range: Vec<ArrayId> = Vec::new();
        s.for_each_array_set(&mut |arrays| {
            for a in arrays.runs().iter().filter_map(|r| r.first_beyond(n_arrays)) {
                if !out_of_range.contains(&a) {
                    out_of_range.push(a);
                }
            }
        });
        if !out_of_range.is_empty() {
            let list = fmt_arrays(&out_of_range);
            report.push(
                rules::CAPACITY_ARRAYS,
                Some(idx),
                None,
                out_of_range,
                format!("statement {idx} references arrays beyond the chip: {list}"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Analysis 3: dependence soundness.
// ---------------------------------------------------------------------

/// Checks that `op_deps` is acyclic, respects flow order, and covers
/// every dependence implied by shared buffer arrays or planned reuse —
/// the edges the event engine trusts when overlapping segments. All
/// three run over sources, the granularity `op_deps` is written at.
fn dependence(cx: &VerifyCx<'_>, report: &mut VerifyReport) {
    let program = cx.program;
    // `op_deps` relates sources, each named by its first op.
    let first = source_spans(&program.ops);
    let n = first.len() - 1;
    let name = |s: usize| &program.ops[first[s]].name;
    let mut valid_edges: Vec<(usize, usize)> = Vec::with_capacity(program.op_deps.len());
    for (i, &(p, c)) in program.op_deps.iter().enumerate() {
        if p >= n || c >= n {
            report.push(
                rules::DEP_ORDER,
                None,
                None,
                Vec::new(),
                format!("op_deps[{i}] = ({p}, {c}) indexes past the {n} sources"),
            );
            continue;
        }
        if p >= c {
            report.push(
                rules::DEP_ORDER,
                None,
                Some(first[p]),
                Vec::new(),
                format!(
                    "op_deps[{i}] = ({p}, {c}) runs backwards: {} is scheduled \
                     at or after {}",
                    name(p),
                    name(c)
                ),
            );
        }
        valid_edges.push((p, c));
    }

    // Kahn's algorithm over the in-range edges: leftovers sit on a
    // cycle. (Backwards edges are still counted here so a genuine
    // cycle is reported as such, not only as order violations.)
    // Sorted by producer, the edge list is its own adjacency index:
    // `succs_from[p]..succs_from[p + 1]` are `p`'s out-edges.
    valid_edges.sort_unstable();
    let mut indegree = vec![0usize; n];
    let mut succs_from = vec![0usize; n + 1];
    for &(p, c) in &valid_edges {
        indegree[c] += 1;
        succs_from[p + 1] += 1;
    }
    for p in 0..n {
        succs_from[p + 1] += succs_from[p];
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut visited = 0usize;
    while let Some(i) = queue.pop() {
        visited += 1;
        for &(_, c) in &valid_edges[succs_from[i]..succs_from[i + 1]] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }
    if visited < n {
        let stuck = (0..n).filter(|&s| indegree[s] > 0).take(8);
        let stuck: Vec<usize> = stuck.map(|s| first[s]).collect();
        report.push(
            rules::DEP_CYCLE,
            None,
            stuck.first().copied(),
            Vec::new(),
            format!("op_deps contains a cycle through ops {stuck:?}"),
        );
    }

    // Coverage: every dependence the program implies must have an
    // edge between the two ops' sources, else the engine may overlap
    // dependent segments. An op index past the list has no source.
    let has_edge = |p: usize, c: usize| match (program.ops.get(p), program.ops.get(c)) {
        (Some(p), Some(c)) => valid_edges.binary_search(&(p.source, c.source)).is_ok(),
        _ => false,
    };
    let mut reported: HashSet<(usize, usize)> = HashSet::new();
    let mut require = |p: usize, c: usize, why: &str| {
        if !has_edge(p, c) && reported.insert((p, c)) {
            let name = |i: usize| {
                program.ops.get(i).map_or_else(|| format!("op {i}"), |o| o.name.to_string())
            };
            report.push(
                rules::DEP_MISSING,
                None,
                Some(p),
                Vec::new(),
                format!(
                    "{} -> {} is a real dependence ({why}) but op_deps has no edge",
                    name(p),
                    name(c)
                ),
            );
        }
    };
    // (a) Planned Eq. 6 reuse, mapped to global op indices.
    for plan in &program.segments {
        let (lo, hi) = plan.range;
        let width = hi.saturating_sub(lo);
        for &((lp, lc), r) in &plan.alloc.reuse {
            if r == 0 || lp > width || lc > width {
                continue;
            }
            if let (Some(p), Some(c)) = (lo.checked_add(lp), lo.checked_add(lc)) {
                require(p, c, "planned buffer reuse");
            }
        }
    }
    // (b) Shared buffer arrays between computes of one block
    // (producer's mem_out feeding a later op's mem_in).
    let blocks = cx.blocks();
    if blocks.len() == program.segments.len() {
        let n_arrays = cx.arch.n_arrays();
        let meet = |a: ArrayRun, b: ArrayRun| a.min().0 <= b.max().0 && b.min().0 <= a.max().0;
        for (plan, block) in program.segments.iter().zip(blocks) {
            let computes = cx.computes(block);
            // Checked: a decoded plan's range may be inverted.
            let (lo, hi) = plan.range;
            if hi.checked_sub(lo).and_then(|w| w.checked_add(1)) != Some(computes.len()) {
                continue; // plan-ops reports the mismatch
            }
            for (i, prod) in computes.iter().enumerate() {
                if prod.mem_out_arrays.is_empty() {
                    continue;
                }
                // The producer's output buffers, as clipped runs.
                let written = prod.mem_out_arrays.clipped_runs(n_arrays);
                for (j, cons) in computes.iter().enumerate().skip(i + 1) {
                    let reads = |run: ArrayRun| written.clone().any(|w| meet(w, run));
                    if cons.mem_in_arrays.clipped_runs(n_arrays).any(reads) {
                        // In range: the block's ops fit the plan.
                        require(
                            plan.range.0 + i,
                            plan.range.0 + j,
                            "shared buffer arrays in the flow",
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Analysis 4: parallel-block races.
// ---------------------------------------------------------------------

/// Reports **every** conflicting array claim inside each `parallel`
/// segment — the same Eq. 6 legality `metaop::validate` enforces
/// first-error-only — plus illegal nesting.
fn parallel_races(cx: &VerifyCx<'_>, report: &mut VerifyReport) {
    let n_arrays = cx.arch.n_arrays();
    let mut claims = BlockClaims::new();
    for (idx, stmt) in cx.program.flow.stmts().iter().enumerate() {
        let Stmt::Parallel(body) = stmt else { continue };
        claims.enter_block();
        // Arrays with at least one conflicting claim; the findings
        // themselves are worked out after the block, from its body.
        let mut contested: Vec<ArrayId> = Vec::new();
        for s in body {
            match s {
                Stmt::Parallel(_) => report.push(
                    rules::RACE_NESTED,
                    Some(idx),
                    None,
                    Vec::new(),
                    "parallel block nested inside another parallel block",
                ),
                Stmt::Compute(c) => {
                    claims.claim(c, n_arrays, |piece| contested.extend(piece.iter()));
                }
                _ => {}
            }
        }
        contested.sort_unstable();
        contested.dedup();
        for a in contested {
            report_conflict(cx, a, body, idx, report);
        }
    }
}

/// Describes how the computes of `body` fight over `a`, naming every
/// operator involved (each once, in claim order).
fn report_conflict(
    cx: &VerifyCx<'_>,
    a: ArrayId,
    body: &[Stmt],
    stmt: usize,
    report: &mut VerifyReport,
) {
    let (mut comp, mut ins, mut outs) = (Vec::new(), Vec::new(), Vec::new());
    for s in body {
        let Stmt::Compute(c) = s else { continue };
        let roles = [
            (&mut comp, &c.compute_arrays),
            (&mut ins, &c.mem_in_arrays),
            (&mut outs, &c.mem_out_arrays),
        ];
        for (ops, arrays) in roles {
            if arrays.contains(a) && !ops.contains(&c.op) {
                ops.push(c.op);
            }
        }
    }
    let join = |ops: &[u32], sep: &str| {
        let names: Vec<Cow<'_, str>> = ops.iter().map(|&op| cx.name(op)).collect();
        names.join(sep)
    };
    let why = if comp.len() > 1 {
        // Two operators computing on one array.
        format!("computed on by {}", join(&comp, " and "))
    } else if !comp.is_empty() && (!ins.is_empty() || !outs.is_empty()) {
        // Compute and buffer roles on one array — conflicting even
        // within one operator.
        format!("both compute ({}) and buffer in one segment", join(&comp, ", "))
    } else if ins.len() > 1 {
        // Two operators' input buffers on one array.
        format!("input buffer of {}", join(&ins, " and "))
    } else if outs.len() > 1 {
        // Two operators' output buffers on one array. A single out +
        // single in pair is the legal Eq. 6 reuse.
        format!("output buffer of {}", join(&outs, " and "))
    } else {
        return;
    };
    report.push(
        rules::RACE_CONFLICT,
        Some(stmt),
        None,
        vec![a],
        format!("array a{} is {why}", a.0),
    );
}

// ---------------------------------------------------------------------
// Analysis 5: flow/plan consistency.
// ---------------------------------------------------------------------

/// Checks that the emitted statements account for exactly the ops,
/// tiles and weight loads the segment plans promise.
fn flow_plan(cx: &VerifyCx<'_>, report: &mut VerifyReport) {
    let program = cx.program;
    // Every op a statement names must be in the flow's op table: the
    // simulators price statements by it.
    let _: Result<(), std::convert::Infallible> = walk_flow(&program.flow, |event| {
        if let FlowEvent::Stmt { pos, stmt } = event {
            if let Some(op) = stmt.op().filter(|&op| cx.op(op).is_none()) {
                report.push(
                    rules::PLAN_OPS,
                    Some(pos.stmt),
                    None,
                    Vec::new(),
                    format!(
                        "statement {} names op {op}, past the flow's table of {} ops",
                        pos.stmt,
                        cx.ops.len()
                    ),
                );
            }
        }
        Ok(())
    });
    let blocks = cx.blocks();
    if blocks.len() != program.segments.len() {
        report.push(
            rules::PLAN_SEGMENTS,
            None,
            None,
            Vec::new(),
            format!(
                "flow has {} segments but the plan promises {}",
                blocks.len(),
                program.segments.len()
            ),
        );
        return;
    }
    // The plans must tile 0..ops contiguously.
    let mut expected_start = 0usize;
    let mut ranges_ok = true;
    for (si, plan) in program.segments.iter().enumerate() {
        let (lo, hi) = plan.range;
        if lo != expected_start || hi < lo || hi >= program.ops.len() {
            report.push(
                rules::PLAN_SEGMENTS,
                None,
                None,
                Vec::new(),
                format!(
                    "segment {si} covers ops {lo}..={hi}, expected to start at \
                     {expected_start} within {} ops",
                    program.ops.len()
                ),
            );
            ranges_ok = false;
            break;
        }
        if plan.alloc.ops.len() != hi - lo + 1 {
            report.push(
                rules::PLAN_SEGMENTS,
                None,
                None,
                Vec::new(),
                format!(
                    "segment {si} allocates {} ops for range {lo}..={hi}",
                    plan.alloc.ops.len()
                ),
            );
            ranges_ok = false;
        }
        expected_start = hi + 1;
    }
    if ranges_ok && expected_start != program.ops.len() {
        report.push(
            rules::PLAN_SEGMENTS,
            None,
            None,
            Vec::new(),
            format!(
                "segments cover ops 0..{expected_start} but the program has {}",
                program.ops.len()
            ),
        );
        ranges_ok = false;
    }
    if !ranges_ok {
        return;
    }

    // Scratch reused across segments: each block's weight loads and
    // whether a compute has accounted for them yet.
    let mut loads = Vec::new();
    for (si, (plan, block)) in program.segments.iter().zip(blocks).enumerate() {
        flow_plan_segment(cx, si, plan, block, &mut loads, report);
    }
}

fn flow_plan_segment<'a>(
    cx: &VerifyCx<'a>,
    si: usize,
    plan: &Segment,
    block: &SegmentBlock<'a>,
    loads: &mut Vec<(&'a WeightLoadStmt, bool)>,
    report: &mut VerifyReport,
) {
    let program = cx.program;
    let n_arrays = cx.arch.n_arrays();
    let (lo, hi) = plan.range;
    let computes = cx.computes(block);
    if computes.len() != hi - lo + 1 {
        report.push(
            rules::PLAN_OPS,
            Some(block.stmt),
            None,
            Vec::new(),
            format!(
                "segment {si} emits {} compute statements for {} planned ops",
                computes.len(),
                hi - lo + 1
            ),
        );
        return;
    }
    for (oi, c) in computes.iter().enumerate() {
        let gi = lo + oi;
        let op = &program.ops[gi];
        // An op past the table is reported once, above. The table entry
        // is what the simulators price the statement by.
        let Some(e) = cx.op(c.op) else { continue };
        let priced = (e.m, e.k, e.n, e.units, e.in_bytes, e.out_bytes, e.weight_static);
        let planned = (op.m, op.k, op.n, op.units, op.in_bytes, op.out_bytes, op.weight_static);
        if c.op as usize != gi || priced != planned {
            report.push(
                rules::PLAN_OPS,
                Some(block.stmt),
                Some(gi),
                Vec::new(),
                format!(
                    "segment {si} emits {} {}x{}x{}x{} where the plan schedules \
                     {} {}x{}x{}x{}",
                    e.name, e.units, e.m, e.k, e.n, op.name, op.units, op.m, op.k, op.n
                ),
            );
        }
        let a = &plan.alloc.ops[oi];
        let emitted = (
            c.compute_arrays.len(),
            c.mem_in_arrays.len(),
            c.mem_out_arrays.len(),
        );
        if emitted != (a.compute, a.mem_in, a.mem_out) {
            report.push(
                rules::PLAN_ALLOC_COUNTS,
                Some(block.stmt),
                Some(gi),
                Vec::new(),
                format!(
                    "{} emits {}/{}/{} compute/in/out arrays, allocation grants \
                     {}/{}/{}",
                    op.name, emitted.0, emitted.1, emitted.2, a.compute, a.mem_in, a.mem_out
                ),
            );
        }
    }
    // Weight loads: exactly one per static op with compute arrays,
    // targeting exactly that op's compute arrays, sized to them. The
    // first compute of an op accounts for every load of that op.
    loads.clear();
    loads.extend(block.body.iter().filter_map(|s| match s {
        Stmt::LoadWeights(w) => Some((w, false)),
        _ => None,
    }));
    for (oi, c) in computes.iter().enumerate() {
        let gi = lo + oi;
        let op = &program.ops[gi];
        let mut seen = 0usize;
        let mut first = None;
        for (w, taken) in loads.iter_mut() {
            if !*taken && w.op as usize == gi {
                *taken = true;
                seen += 1;
                first = first.or(Some(*w));
            }
        }
        let wants_load = op.weight_static && !c.compute_arrays.is_empty();
        if !wants_load {
            if seen > 0 {
                report.push(
                    rules::PLAN_WEIGHT_LOADS,
                    Some(block.stmt),
                    Some(gi),
                    Vec::new(),
                    format!("{} needs no weight load but the segment emits one", op.name),
                );
            }
            continue;
        }
        match (first, seen) {
            (None, _) => report.push(
                rules::PLAN_WEIGHT_LOADS,
                Some(block.stmt),
                Some(gi),
                listed(&c.compute_arrays, n_arrays),
                format!("{} has static weights but segment {si} loads none", op.name),
            ),
            (Some(w), 1) => {
                if w.arrays != c.compute_arrays {
                    let loaded = listed(&w.arrays, n_arrays);
                    let message = format!(
                        "weight load for {} targets [{}], its compute arrays are [{}]",
                        op.name,
                        fmt_arrays(&loaded),
                        fmt_arrays(&listed(&c.compute_arrays, n_arrays))
                    );
                    report.push(
                        rules::PLAN_WEIGHT_LOADS,
                        Some(block.stmt),
                        Some(gi),
                        loaded,
                        message,
                    );
                } else if w.bytes != (w.arrays.len() as u64).saturating_mul(cx.arch.array_bytes()) {
                    report.push(
                        rules::PLAN_WEIGHT_LOADS,
                        Some(block.stmt),
                        Some(gi),
                        listed(&w.arrays, n_arrays),
                        format!(
                            "weight load for {} writes {} bytes into {} arrays of \
                             {} bytes each",
                            op.name,
                            w.bytes,
                            w.arrays.len(),
                            cx.arch.array_bytes()
                        ),
                    );
                }
            }
            (Some(_), many) => report.push(
                rules::PLAN_WEIGHT_LOADS,
                Some(block.stmt),
                Some(gi),
                Vec::new(),
                format!("{} is loaded {many} times in segment {si}", op.name),
            ),
        }
    }
    // Loads naming ops outside this segment, by name.
    let mut stray: Vec<Cow<'_, str>> = loads
        .iter()
        .filter(|(_, taken)| !taken)
        .map(|(w, _)| cx.name(w.op))
        .collect();
    stray.sort_unstable();
    stray.dedup();
    for name in stray {
        report.push(
            rules::PLAN_WEIGHT_LOADS,
            Some(block.stmt),
            None,
            Vec::new(),
            format!("segment {si} loads weights for {name}, which it does not run"),
        );
    }
}

// ---------------------------------------------------------------------
// The verifier.
// ---------------------------------------------------------------------

/// The rule book: five analyses, run in a fixed order over a compiled
/// program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verifier;

impl Verifier {
    /// The verifier.
    pub fn new() -> Self {
        Verifier
    }

    /// Runs every analysis over `program` as compiled for `arch`:
    /// mode-interval, capacity, dependence, parallel-race, flow-plan.
    pub fn run(&self, program: &CompiledProgram, arch: &DualModeArch) -> VerifyReport {
        let cx = VerifyCx::new(program, arch);
        let mut report = VerifyReport::new();
        mode_intervals(&cx, &mut report);
        capacity(&cx, &mut report);
        dependence(&cx, &mut report);
        parallel_races(&cx, &mut report);
        flow_plan(&cx, &mut report);
        report
    }
}

/// What co-scheduler admission checks before it trusts a program's
/// `op_deps` and array claims: the dependence analysis, then the
/// capacity analysis — the findings [`Verifier::run`] reports under
/// `dep-*` and then `capacity-*` rules, in its order.
pub fn admission(program: &CompiledProgram, arch: &DualModeArch) -> VerifyReport {
    let cx = VerifyCx::new(program, arch);
    let mut report = VerifyReport::new();
    dependence(&cx, &mut report);
    capacity(&cx, &mut report);
    report
}

impl Session {
    /// Statically verifies a compiled outcome with the [`Verifier`],
    /// next to `simulate` from `cmswitch-sim`. Returns the full report;
    /// check [`VerifyReport::is_clean`] for pass/fail.
    pub fn verify(&self, outcome: &CompileOutcome) -> VerifyReport {
        Verifier::new().run(&outcome.program, self.arch())
    }
}

/// The opt-in verification stage: runs the default [`Verifier`] after
/// emission, records a [`DiagnosticEvent::Verified`], and fails the
/// compile with [`CompileError::VerifyRejected`] on any `Deny` finding.
///
/// Enabled via
/// [`CompilerOptions::with_verify`](crate::CompilerOptions::with_verify);
/// [`crate::compile_with_segmenter`] appends it for every backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyStage;

impl Stage<CompiledProgram> for VerifyStage {
    type Output = CompiledProgram;

    fn name(&self) -> &'static str {
        "verify"
    }

    fn run(
        &self,
        cx: &mut PipelineCx<'_>,
        input: CompiledProgram,
    ) -> Result<CompiledProgram, CompileError> {
        let report = Verifier::new().run(&input, cx.arch());
        cx.emit(DiagnosticEvent::Verified {
            deny: report.deny_count() as u64,
            warn: report.warn_count() as u64,
        });
        if report.is_clean() {
            Ok(input)
        } else {
            Err(CompileError::VerifyRejected(Box::new(report)))
        }
    }
}

pub mod mutate {
    //! Defect injection for mutation-kill testing of the verifier.
    //!
    //! Each [`Mutation`] plants one defect class into a valid
    //! [`CompiledProgram`]; [`Mutation::expected_rule`] names the
    //! rule that must fire on the mutant. A mutation returns `None` when
    //! the program has no site to mutate (e.g. no planned reuse to drop
    //! an edge for) — callers skip those, and the kill suite asserts
    //! every *applicable* mutant is detected.

    use cmswitch_arch::ArrayId;
    use cmswitch_metaop::{Stmt, SwitchKind};

    use super::rules;
    use crate::compiler::CompiledProgram;

    /// One injectable defect class.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mutation {
        /// Remove the first `CM.switch`: its arrays are then used in the
        /// wrong mode.
        DropSwitch,
        /// Remove the first weight load: its op computes on unloaded
        /// arrays.
        DropWeightLoad,
        /// Duplicate the first weight load: the first copy is dead.
        DuplicateWeightLoad,
        /// Prepend a `TOM` switch of array 0, which starts in memory
        /// mode already.
        InsertRedundantSwitch,
        /// Remove the first compute statement of the first segment: the
        /// flow no longer accounts for the planned ops.
        DropComputeStmt,
        /// Make a compute statement claim one of its own compute arrays
        /// as an input buffer too.
        DuplicateClaim,
        /// Inflate a planned compute allocation far past any chip.
        OversubscribeAlloc,
        /// Reverse the first `op_deps` edge (a source pair).
        FlipDepEdge,
        /// Append the reverse of the first `op_deps` edge, closing a
        /// two-op cycle.
        AddDepCycle,
        /// Remove the `op_deps` edge backing the first planned buffer
        /// reuse: a real dependence loses its edge.
        DropReuseDepEdge,
    }

    /// Every mutation operator, for exhaustive kill suites.
    pub const ALL: [Mutation; 10] = [
        Mutation::DropSwitch,
        Mutation::DropWeightLoad,
        Mutation::DuplicateWeightLoad,
        Mutation::InsertRedundantSwitch,
        Mutation::DropComputeStmt,
        Mutation::DuplicateClaim,
        Mutation::OversubscribeAlloc,
        Mutation::FlipDepEdge,
        Mutation::AddDepCycle,
        Mutation::DropReuseDepEdge,
    ];

    impl Mutation {
        /// Stable operator name for reports.
        pub fn name(self) -> &'static str {
            match self {
                Mutation::DropSwitch => "drop-switch",
                Mutation::DropWeightLoad => "drop-weight-load",
                Mutation::DuplicateWeightLoad => "duplicate-weight-load",
                Mutation::InsertRedundantSwitch => "insert-redundant-switch",
                Mutation::DropComputeStmt => "drop-compute-stmt",
                Mutation::DuplicateClaim => "duplicate-claim",
                Mutation::OversubscribeAlloc => "oversubscribe-alloc",
                Mutation::FlipDepEdge => "flip-dep-edge",
                Mutation::AddDepCycle => "add-dep-cycle",
                Mutation::DropReuseDepEdge => "drop-reuse-dep-edge",
            }
        }

        /// The rule id that must fire on the mutant (other rules may
        /// fire too).
        pub fn expected_rule(self) -> &'static str {
            match self {
                Mutation::DropSwitch => rules::MODE_DISCIPLINE,
                Mutation::DropWeightLoad => rules::USE_BEFORE_LOAD,
                Mutation::DuplicateWeightLoad => rules::DEAD_WEIGHT_LOAD,
                Mutation::InsertRedundantSwitch => rules::REDUNDANT_SWITCH,
                Mutation::DropComputeStmt => rules::PLAN_OPS,
                Mutation::DuplicateClaim => rules::RACE_CONFLICT,
                Mutation::OversubscribeAlloc => rules::CAPACITY_ARRAYS,
                Mutation::FlipDepEdge => rules::DEP_ORDER,
                Mutation::AddDepCycle => rules::DEP_CYCLE,
                Mutation::DropReuseDepEdge => rules::DEP_MISSING,
            }
        }

        /// Applies the mutation to a copy of `program`, or `None` when
        /// the program offers no site for this defect class.
        pub fn apply(self, program: &CompiledProgram) -> Option<CompiledProgram> {
            match self {
                Mutation::DropSwitch => mutate_stmts(program, |stmts| {
                    let i = stmts.iter().position(|s| matches!(s, Stmt::Switch { .. }))?;
                    stmts.remove(i);
                    Some(())
                }),
                Mutation::DropWeightLoad => mutate_first_block(program, |body| {
                    let i =
                        body.iter().position(|s| matches!(s, Stmt::LoadWeights(_)))?;
                    body.remove(i);
                    Some(())
                }),
                Mutation::DuplicateWeightLoad => mutate_first_block(program, |body| {
                    let i =
                        body.iter().position(|s| matches!(s, Stmt::LoadWeights(_)))?;
                    let dup = body[i].clone();
                    body.insert(i, dup);
                    Some(())
                }),
                Mutation::InsertRedundantSwitch => mutate_stmts(program, |stmts| {
                    stmts.insert(
                        0,
                        Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]),
                    );
                    Some(())
                }),
                Mutation::DropComputeStmt => mutate_first_block(program, |body| {
                    let i = body.iter().position(|s| matches!(s, Stmt::Compute(_)))?;
                    body.remove(i);
                    Some(())
                }),
                Mutation::DuplicateClaim => mutate_first_block(program, |body| {
                    let c = body.iter_mut().find_map(|s| match s {
                        Stmt::Compute(c) if !c.compute_arrays.is_empty() => Some(c),
                        _ => None,
                    })?;
                    let stolen = c.compute_arrays.first()?;
                    c.mem_in_arrays.push(stolen);
                    Some(())
                }),
                Mutation::OversubscribeAlloc => {
                    let mut out = program.clone();
                    let op = out
                        .segments
                        .first_mut()
                        .and_then(|s| s.alloc.ops.first_mut())?;
                    op.compute += 1_000_000;
                    Some(out)
                }
                Mutation::FlipDepEdge => {
                    let mut out = program.clone();
                    let &(p, c) = out.op_deps.first()?;
                    out.op_deps[0] = (c, p);
                    Some(out)
                }
                Mutation::AddDepCycle => {
                    let mut out = program.clone();
                    let &(p, c) = out.op_deps.first()?;
                    out.op_deps.push((c, p));
                    Some(out)
                }
                Mutation::DropReuseDepEdge => {
                    let mut out = program.clone();
                    let (lo, (lp, lc)) = out.segments.iter().find_map(|seg| {
                        let mut reuse = seg.alloc.reuse.iter();
                        reuse.find_map(|&(pair, r)| (r > 0).then_some((seg.range.0, pair)))
                    })?;
                    let source = |l: usize| out.ops.get(lo + l).map(|o| o.source);
                    let edge = (source(lp)?, source(lc)?);
                    let i = out.op_deps.iter().position(|&e| e == edge)?;
                    out.op_deps.remove(i);
                    Some(out)
                }
            }
        }
    }

    /// Clones the program and hands the top-level statement list of its
    /// flow to `f` (the op table stays). `None` from `f` means no
    /// mutation site.
    fn mutate_stmts(
        program: &CompiledProgram,
        f: impl FnOnce(&mut Vec<Stmt>) -> Option<()>,
    ) -> Option<CompiledProgram> {
        let mut out = program.clone();
        f(out.flow.stmts_mut())?;
        Some(out)
    }

    /// Like [`mutate_stmts`], but `f` edits the body of the first
    /// `parallel` block.
    fn mutate_first_block(
        program: &CompiledProgram,
        f: impl FnOnce(&mut Vec<Stmt>) -> Option<()>,
    ) -> Option<CompiledProgram> {
        mutate_stmts(program, |stmts| {
            let body = stmts.iter_mut().find_map(|s| match s {
                Stmt::Parallel(body) => Some(body),
                _ => None,
            })?;
            f(body)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CompileRequest;
    use cmswitch_arch::presets;

    fn compile_mlp() -> (CompiledProgram, DualModeArch) {
        let arch = presets::tiny();
        let graph = cmswitch_models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
        let program = Session::builder(arch.clone())
            .build()
            .compile_graph(&graph)
            .unwrap();
        (program, arch)
    }

    #[test]
    fn clean_program_verifies_clean() {
        let (program, arch) = compile_mlp();
        let report = Verifier::new().run(&program, &arch);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.warn_count(), 0, "{report}");
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn verifier_lists_its_lints_and_rules() {
        // The 17 rules, each with the severity its doc gives it.
        use rules::*;
        let deny = [
            MODE_DISCIPLINE, USE_BEFORE_LOAD, CAPACITY_ARRAYS, CAPACITY_WEIGHTS,
            CAPACITY_LOAD_BYTES, CAPACITY_CLAIM_MISMATCH, DEP_ORDER, DEP_CYCLE, DEP_MISSING,
            RACE_CONFLICT, RACE_NESTED, PLAN_SEGMENTS, PLAN_OPS, PLAN_ALLOC_COUNTS,
            PLAN_WEIGHT_LOADS,
        ];
        let warn = [DEAD_WEIGHT_LOAD, REDUNDANT_SWITCH];
        for rule in deny {
            assert_eq!(severity(rule), Severity::Deny, "{rule}");
        }
        for rule in warn {
            assert_eq!(severity(rule), Severity::Warn, "{rule}");
        }
        let ids: HashSet<&str> = deny.into_iter().chain(warn).collect();
        assert_eq!(ids.len(), 17, "rule ids must be distinct");
        // Every rule the mutation suite expects is one of them.
        for m in mutate::ALL {
            assert!(ids.contains(m.expected_rule()), "{}", m.name());
        }
    }

    #[test]
    fn session_verify_runs_next_to_simulate() {
        let arch = presets::tiny();
        let graph = cmswitch_models::mlp::mlp(1, &[128, 128, 64]).unwrap();
        let session = Session::builder(arch).build();
        let outcome = session.compile(CompileRequest::new(graph)).unwrap();
        let report = session.verify(&outcome);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn verify_stage_accepts_clean_and_emits_event() {
        let arch = presets::tiny();
        let graph = cmswitch_models::mlp::mlp(1, &[128, 128, 64]).unwrap();
        let session = Session::builder(arch)
            .options(crate::CompilerOptions::default().with_verify(true))
            .build();
        let outcome = session.compile(CompileRequest::new(graph)).unwrap();
        assert_eq!(outcome.diagnostics.verified_counts(), Some((0, 0)));
        let names: Vec<_> = outcome
            .program
            .stats
            .stage_wall
            .iter()
            .map(|t| t.stage)
            .collect();
        assert_eq!(names, ["lower", "partition", "segment", "emit", "verify"]);
    }

    #[test]
    fn verify_stage_rejects_mutants() {
        let (program, arch) = compile_mlp();
        let mutant = mutate::Mutation::FlipDepEdge.apply(&program).unwrap();
        let opts = crate::CompilerOptions::default().with_verify(true);
        let mut cx = PipelineCx::new(&arch, &opts);
        match cx.run(&VerifyStage, mutant) {
            Err(CompileError::VerifyRejected(report)) => {
                assert!(report.has_rule(rules::DEP_ORDER), "{report}");
                assert!(!report.is_clean());
            }
            other => panic!("expected VerifyRejected, got {other:?}"),
        }
        assert!(cx
            .diagnostics()
            .events()
            .iter()
            .any(|e| matches!(e, DiagnosticEvent::Verified { deny, .. } if *deny > 0)));
    }

    #[test]
    fn every_mutation_is_killed_by_its_rule() {
        let (program, arch) = compile_mlp();
        let verifier = Verifier::new();
        assert!(verifier.run(&program, &arch).is_empty());
        let mut applied = 0usize;
        for m in mutate::ALL {
            let Some(mutant) = m.apply(&program) else { continue };
            applied += 1;
            let report = verifier.run(&mutant, &arch);
            assert!(
                report.has_rule(m.expected_rule()),
                "{} survived; expected {}, fired {:?}\n{report}",
                m.name(),
                m.expected_rule(),
                report.fired_rules()
            );
        }
        assert!(applied >= 8, "only {applied} mutations applicable to the mlp");
    }

    #[test]
    fn report_display_and_accessors() {
        let mut report = VerifyReport::new();
        assert!(report.is_clean() && report.is_empty());
        report.push(rules::DEP_MISSING, None, Some(3), Vec::new(), "edge gone");
        report.push(
            rules::REDUNDANT_SWITCH,
            Some(7),
            None,
            vec![ArrayId(1)],
            "double switch",
        );
        assert_eq!(report.deny_count(), 1);
        assert_eq!(report.warn_count(), 1);
        assert!(!report.is_clean());
        assert!(report.has_rule(rules::DEP_MISSING));
        assert!(!report.has_rule(rules::DEP_CYCLE));
        assert_eq!(
            report.fired_rules(),
            [rules::DEP_MISSING, rules::REDUNDANT_SWITCH]
        );
        let text = report.to_string();
        assert!(text.contains("[deny] dep-missing"), "{text}");
        assert!(text.contains("(stmt 7)"), "{text}");
        assert!(text.contains("1 deny, 1 warn"), "{text}");
    }
}
