//! Dual-mode-aware network segmentation (§4.3.1, Eq. 3, Algorithm 1).
//!
//! The topologically sorted operator list is cut into contiguous segments
//! executed serially; operators within a segment are mapped on-chip
//! simultaneously and pipelined. The dynamic program minimizes
//!
//! ```text
//! L[m] = min_i { L[i] + T_intra(i, m) + T_inter(i-1, i) }      (Eq. 3)
//! ```
//!
//! where `T_intra` comes from the per-segment allocation (Eq. 9/10) and
//! `T_inter = T_wb + T_swc + T_rw` (Eq. 4) charges write-backs, mode
//! switches (Eq. 1) and weight reloads (Eq. 2). Segments that cannot fit
//! the chip are pruned ("impossible cases are skipped", Algorithm 1 line
//! 8), and the segment width is bounded by
//! [`crate::CompilerOptions::max_segment_ops`] (0 counts as 1).
//!
//! # One DP and one greedy packer
//!
//! [`segment`] is the tree's only Eq. 3 recurrence, and [`greedy`] its
//! only greedy packer: it cuts the list at the capacity wall
//! ([`greedy_ranges`]) and solves each range once. What a window costs
//! is its [`WindowSolver`]'s business: CMSwitch passes the dual-mode
//! [`Allocator`] to the DP, CIM-MLC the all-compute solver
//! ([`crate::allocation::all_compute_alloc`]) to the DP, PUMA and OCC
//! that solver to the packer (see [`crate::BackendKind`]). Every DP
//! user gets the same pruning, batching, cancellation and [`DpStats`],
//! so a CMSwitch-vs-CIM-MLC comparison isolates the allocation alone.
//!
//! # Bound pruning ([`crate::DpMode::BoundPruned`])
//!
//! The dominant compile cost is the per-candidate-window allocation solve
//! (MIP, fast or all-compute). The pruned DP avoids most of them while
//! provably returning the *identical* schedule:
//!
//! 1. **Capacity prefilter.** Incremental prefix aggregates over the op
//!    list (work, min-tiles, output bytes) make `Σ min_tiles` of any
//!    window an O(1) lookup. If it exceeds the chip, every solver (MIP,
//!    fast and all-compute) is guaranteed to return infeasible — the
//!    window is skipped without a solve.
//! 2. **Analytic bound vs. incumbent.** A greedy feasible schedule
//!    (longest-fit packing, costed with the exact DP objective) seeds an
//!    incumbent upper bound. For each candidate window `(i, j)` the DP
//!    then computes, without solving,
//!    `L_min[i-1] + LB_inter(i,j) + LB_intra(i,j) + LB_suffix(j)` where
//!    `LB_intra` comes from the cost model's rate equations (Eq. 9/10,
//!    via [`CostModel::op_latency_lower_bound`] and the solver's
//!    [`cmswitch_solver::alloc::latency_lower_bound`] hook), `LB_inter`
//!    is the unavoidable weight-reload floor (Eq. 2 with minimal tiles)
//!    and `LB_suffix` lower-bounds the cost of scheduling the remaining
//!    ops. If the sum already loses to the incumbent, no plan through
//!    `(i, j)` can be optimal (or tie an optimal plan), so the window is
//!    skipped.
//!
//! Every quantity in the bound is a true lower bound of the
//! corresponding term for *any* feasible allocation, and pruning
//! requires a *strictly* worse bound (with a small safety margin against
//! floating-point noise), so every state on any optimal — or
//! tied-optimal — path survives with a DP value identical to the
//! exhaustive DP's. The result (segments and `total_latency`) is
//! bit-identical; only the number of allocator invocations drops. The
//! greedy incumbent only ever allocates windows the exhaustive DP would
//! allocate anyway, so the pruned DP's solve set is a strict subset.
//! The per-window bound ingredients (`max op_lb`, `max static tiles`)
//! are memoized in doubling sparse tables (`RangeMax`) built once from
//! the prefix aggregates, so every `Bounds` query is O(1).
//!
//! # Parallel solves ([`crate::CompilerOptions::solve_workers`])
//!
//! The DP itself stays strictly sequential; only the allocation solves
//! are fanned out. Each DP column `j` runs three passes: (1) a
//! sequential pruning pass decides which candidate windows survive —
//! these decisions read only prefix aggregates and `row_min` values from
//! *earlier columns*, never thread timing; (2) the surviving windows not
//! already memoized are batched through the compile's solve pool (the
//! greedy incumbent batches each step's candidate windows the same way);
//! (3) the Eq. 3 recurrence then runs sequentially in the original
//! window order against the completed memo. With one solve worker a
//! batch is a plain loop on the DP thread, with no lock and no result
//! slots; with more it is a shared work queue the DP thread drains
//! alongside its workers. Bit-identity at every worker count follows
//! because each window's allocation is a pure function of the window's
//! operator signature (see [`crate::allocation`]: caching, and warm
//! starts sourced from the signature-determined *neighbor* window, keep
//! results independent of solve order), so the only thing the schedule
//! can change is timing — never a result the recurrence consumes.
//!
//! # Cost contract
//!
//! A long plan (thousands of mostly one-op segments) must compile at the
//! pace of its solves, so the DP's own bookkeeping per column, window
//! and transition is bounded:
//!
//! * **Memo and table.** The allocation memo and the DP table are keyed
//!   by the packed window `j·W + (j − i)` (`W` the width bound, at most
//!   the op count) under a one-multiply hasher — no SipHash, no tuple
//!   keys — and hold only the windows the DP touched, never an `m × W`
//!   table.
//! * **One column** makes a few memo and table probes per surviving
//!   window and two per Eq. 3 transition, each one multiply; it
//!   allocates nothing of its own (the survivor and batch lists are
//!   buffers reused across columns) beyond the batch's result list and
//!   the entries it adds, and takes no lock with one solve worker.
//! * **One transition** sums the bytes crossing into the next segment
//!   per dependency edge ([`DepIndex::crossing_bytes`]), not per pair of
//!   split ops.
//! * **One greedy step** reads its winner back from the memo instead of
//!   cloning a candidate's allocation.
//! * **One window lookup** ([`WindowSolver::solve`] on the
//!   [`Allocator`]) builds the window's local dependency list into a
//!   per-thread buffer reused across lookups and allocates nothing of
//!   its own; the rest is the cache's contract
//!   ([`crate::allocation::AllocationCache`]).
//! * **Pass 1** of a column visits only the starts at or after the
//!   column's first capacity-feasible one (a two-pointer that never
//!   moves back) and counts the windows before it in one addition.
//! * **The backtrack** moves the optimal path's allocations out of the
//!   memo rather than cloning them.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::allocation::{Allocator, SegmentAllocation};
use crate::cost::CostModel;
use crate::frontend::{DepIndex, OpList};
use crate::pipeline::{Partitioned, Segmented};
use crate::session::CancelToken;
use crate::solvepool::{self, SolvePool};
use crate::{CompileError, CompilerOptions, DpMode};

/// One scheduled segment: the one segment record from the DP through
/// codegen to [`crate::CompiledProgram::segments`] and the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Inclusive op-index range `(first, last)` into the op list.
    pub range: (usize, usize),
    /// The dual-mode allocation for the segment; its
    /// [`SegmentAllocation::latency`] is the intra-segment pipeline
    /// latency (cycles).
    pub alloc: SegmentAllocation,
    /// Inter-segment cost paid before this segment starts (cycles):
    /// write-backs, mode switches and weight reloads.
    pub inter_before: f64,
}

/// Counters describing how much work the segmentation DP did (and, in
/// [`crate::DpMode::BoundPruned`] mode, saved).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DpStats {
    /// Candidate windows enumerated by the DP.
    pub windows: u64,
    /// Windows skipped by the min-tiles capacity prefilter (no solver
    /// invocation; every [`WindowSolver`] would return `None`).
    pub infeasible_skipped: u64,
    /// Windows skipped because their analytic lower bound already lost
    /// to the incumbent schedule.
    pub bound_pruned: u64,
    /// Non-empty solve batches fanned out to the solve-pool work
    /// queue (greedy incumbent steps and DP
    /// columns with at least one unmemoized surviving window). Purely a
    /// function of the pruning decisions, so identical at every worker
    /// count.
    pub solve_batches: u64,
}

impl DpStats {
    /// Total windows skipped without invoking the window solver.
    pub fn skipped(&self) -> u64 {
        self.infeasible_skipped + self.bound_pruned
    }
}

/// Chains `(range, allocation)` parts into [`Segment`]s, charging the
/// Eq. 4 inter costs with the shared cost model: the first segment pays
/// the all-arrays-start-in-memory-mode switch plus the initial weight
/// load, every later one the full `T_wb + T_swc + T_rw`.
///
/// Shared by the DP's backtrack materialization, the greedy packer
/// ([`greedy`]) and ad-hoc composers such as the bench experiments —
/// everyone pays the same physics. `deps` is `list`'s index, the one
/// the parts were solved against: per-boundary write-back queries then
/// cost O(segment deps), not O(all deps).
pub fn chain_segments(
    list: &OpList,
    deps: &DepIndex,
    cm: &CostModel<'_>,
    parts: Vec<((usize, usize), SegmentAllocation)>,
) -> Vec<Segment> {
    let mut segments: Vec<Segment> = Vec::with_capacity(parts.len());
    for (range, alloc) in parts {
        let prev = segments.last().map(|p| (p.range, &p.alloc));
        let inter_before = cm.inter_cost(deps, prev, range, &list.ops[range.0..=range.1], &alloc);
        segments.push(Segment {
            range,
            alloc,
            inter_before,
        });
    }
    segments
}

/// O(1) range-max queries over a fixed value list, built as a doubling
/// sparse table (O(m log m) once per DP run). Memoizes the per-window
/// bound ingredients so [`Bounds`] queries stop rescanning windows.
struct RangeMax<T> {
    /// `levels[k][i]` = max of `values[i..i + 2^k]`.
    levels: Vec<Vec<T>>,
}

impl<T: Copy + PartialOrd> RangeMax<T> {
    fn new(values: Vec<T>) -> Self {
        let mut levels = vec![values];
        loop {
            let prev = levels.last().unwrap();
            let span = 1usize << (levels.len() - 1);
            if prev.len() <= span {
                break;
            }
            let next: Vec<T> = (0..prev.len() - span)
                .map(|i| {
                    if prev[i] >= prev[i + span] {
                        prev[i]
                    } else {
                        prev[i + span]
                    }
                })
                .collect();
            levels.push(next);
        }
        RangeMax { levels }
    }

    /// Max over the inclusive index range `lo..=hi` as the max of two
    /// overlapping power-of-two spans. Order-insensitive for the types
    /// used here (non-NaN floats, integers), so memoization cannot
    /// perturb the pruning decisions.
    fn query(&self, lo: usize, hi: usize) -> T {
        let len = hi - lo + 1;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let a = self.levels[k][lo];
        let b = self.levels[k][hi + 1 - (1 << k)];
        if a >= b {
            a
        } else {
            b
        }
    }
}

/// Prefix aggregates and analytic bounds powering the pruned DP.
///
/// All window queries are O(1); nothing here invokes an allocator.
struct Bounds {
    /// Range-max over the per-op lower bounds on Eq. 10 latency with the
    /// whole chip granted ([`CostModel::op_latency_lower_bound`]).
    op_lb_max: RangeMax<f64>,
    /// Range-max over per-op `min_tiles.max(1)` of weight-static ops
    /// (0 for streaming ops), the Eq. 2 reload floor ingredient.
    static_tiles_max: RangeMax<u64>,
    /// `prefix_work[i]` = Σ work of ops `0..i`.
    prefix_work: Vec<f64>,
    /// `prefix_tiles[i]` = Σ `min_tiles.max(1)` of ops `0..i`.
    prefix_tiles: Vec<u64>,
    /// `suffix_op_lb[j]` = max of `op_lb` over ops `j..m`.
    suffix_op_lb: Vec<f64>,
    /// `N · OP_cim`, the whole chip's compute rate.
    chip_rate: f64,
    /// Physical arrays on the chip.
    n_arrays: u64,
    /// Per-array weight-write latency (Eq. 2 unit cost).
    lat_write: f64,
    /// Final write-back of network outputs, charged by every schedule.
    final_wb: f64,
    /// Whether the DP objective charges switch overheads (Eqs. 1/2/4).
    switch_aware: bool,
}

impl Bounds {
    fn new(list: &OpList, cm: &CostModel<'_>, opts: &CompilerOptions) -> Self {
        let m = list.ops.len();
        let op_lb: Vec<f64> = list
            .ops
            .iter()
            .map(|op| cm.op_latency_lower_bound(op))
            .collect();
        let mut prefix_work = Vec::with_capacity(m + 1);
        let mut prefix_tiles = Vec::with_capacity(m + 1);
        prefix_work.push(0.0);
        prefix_tiles.push(0u64);
        for op in &list.ops {
            prefix_work.push(prefix_work.last().unwrap() + op.work);
            prefix_tiles.push(prefix_tiles.last().unwrap() + op.min_tiles.max(1) as u64);
        }
        let mut suffix_op_lb = vec![0.0f64; m + 1];
        for j in (0..m).rev() {
            suffix_op_lb[j] = suffix_op_lb[j + 1].max(op_lb[j]);
        }
        let static_tiles: Vec<u64> = list
            .ops
            .iter()
            .map(|op| {
                if op.weight_static {
                    op.min_tiles.max(1) as u64
                } else {
                    0
                }
            })
            .collect();
        Bounds {
            op_lb_max: RangeMax::new(op_lb),
            static_tiles_max: RangeMax::new(static_tiles),
            prefix_work,
            prefix_tiles,
            suffix_op_lb,
            chip_rate: cm.arch().n_arrays() as f64 * cm.arch().op_cim(),
            n_arrays: cm.arch().n_arrays() as u64,
            lat_write: crate::cost::load_duration(1, cm.arch()),
            final_wb: cm.final_writeback_cost(list),
            switch_aware: opts.switch_aware,
        }
    }

    /// Whether window `(i, j)` provably cannot be allocated: its minimal
    /// weight tiles alone exceed the chip, which makes both the fast
    /// allocator and the MIP (capacity constraint Eq. 8 with
    /// `Com ≥ min_tiles`) infeasible.
    fn window_infeasible(&self, i: usize, j: usize) -> bool {
        self.prefix_tiles[j + 1] - self.prefix_tiles[i] > self.n_arrays
    }

    /// Lower bound on `T_intra(i, j)` over every feasible allocation:
    /// the capacity relaxation `Σ work / (N·OP_cim)` and the best
    /// per-op latency in the window.
    fn intra_lb(&self, i: usize, j: usize) -> f64 {
        let work = self.prefix_work[j + 1] - self.prefix_work[i];
        let lb = if self.chip_rate > 0.0 {
            work / self.chip_rate
        } else {
            0.0
        };
        lb.max(self.op_lb_max.query(i, j))
    }

    /// Lower bound on the inter cost the DP charges before segment
    /// `(i, j)`: the weight-reload floor (Eq. 2 at minimal tiles).
    /// The first segment of an overhead-oblivious DP charges nothing.
    fn inter_lb(&self, i: usize, j: usize) -> f64 {
        if i == 0 && !self.switch_aware {
            return 0.0;
        }
        self.static_tiles_max.query(i, j) as f64 * self.lat_write
    }

    /// Lower bound on the cost of scheduling ops `j+1..m` (zero when the
    /// window ends the list) plus the final write-back: every remaining
    /// op sits in some segment whose bottleneck is at least its `op_lb`,
    /// and the segments' bottlenecks together cover the remaining work
    /// at rate at most `N·OP_cim`.
    fn suffix_lb(&self, j: usize, m: usize) -> f64 {
        if j + 1 >= m {
            return self.final_wb;
        }
        let work = self.prefix_work[m] - self.prefix_work[j + 1];
        let rate_lb = if self.chip_rate > 0.0 {
            work / self.chip_rate
        } else {
            0.0
        };
        rate_lb.max(self.suffix_op_lb[j + 1]) + self.final_wb
    }
}

/// The exact DP-objective cost of transitioning into segment
/// `(range, alloc)` from `prev` (`None` for the first segment) —
/// identical arithmetic for the DP sweep and the greedy incumbent, so
/// the incumbent is a true upper bound on the DP's optimum.
fn transition_cost(
    list: &OpList,
    deps: &DepIndex,
    cm: &CostModel<'_>,
    switch_aware: bool,
    prev: Option<((usize, usize), &SegmentAllocation)>,
    range: (usize, usize),
    alloc: &SegmentAllocation,
) -> f64 {
    let ops = &list.ops[range.0..=range.1];
    if switch_aware {
        cm.inter_cost(deps, prev, range, ops, alloc)
    } else if prev.is_some() {
        // Oblivious ablation: weight reloads still exist physically, but
        // the DP ignores switch/writeback terms.
        cm.reload_cost(ops, alloc)
    } else {
        0.0
    }
}

/// What the segmentation DP asks of a candidate window: its allocation
/// (see "One DP, two solvers" in the module docs).
///
/// A solver must be a pure function of the window — the DP memoizes
/// and batches its results across the solve pool. The bound-pruned DP
/// also assumes it returns `None` for every window whose
/// `Σ max(min_tiles, 1)` exceeds the chip, and never reports a latency
/// below the cost model's Eq. 9/10 latency of an allocation that fits.
pub trait WindowSolver: Sync {
    /// The allocation for ops `window.0..=window.1` of `list`, or `None`
    /// when the window cannot be allocated.
    fn solve(
        &self,
        list: &OpList,
        deps: &DepIndex,
        window: (usize, usize),
    ) -> Option<SegmentAllocation>;

    /// Called on the submitting thread before a batch of `windows` is
    /// fanned out (its solves are taken in slice order): may put the
    /// batch in the order its solves must be taken in, and claims
    /// whatever each window's solve must own before any solve of the
    /// batch runs. Does nothing by default.
    fn reserve(&self, _list: &OpList, _deps: &DepIndex, _windows: &mut [(usize, usize)]) {}

    /// Called once the batch is over: releases what
    /// [`WindowSolver::reserve`] claimed and no solve took over.
    fn release(&self) {}
}

thread_local! {
    /// The [`Allocator`] lookup's window-local dependency list, reused
    /// per thread; taken for the lookup and put back after it.
    static WINDOW_DEPS: Cell<Vec<(usize, usize, u64)>> = const { Cell::new(Vec::new()) };
}

/// The dual-mode allocator solves a window from its operators and their
/// window-local dependencies (its cache and warm starts are
/// signature-keyed, so any solve order yields the same results, and its
/// single-flight cache keeps two same-shaped windows of one batch from
/// both paying a solve when reuse is on).
impl WindowSolver for Allocator<'_> {
    fn solve(
        &self,
        list: &OpList,
        deps: &DepIndex,
        (i, j): (usize, usize),
    ) -> Option<SegmentAllocation> {
        let mut local = WINDOW_DEPS.take();
        deps.window_local_into(i, j, &mut local);
        let alloc = self.allocate(&list.ops[i..=j], &local);
        WINDOW_DEPS.set(local);
        alloc
    }

    /// Without cache reuse: the batch shortest window first, and the
    /// in-flight mark of each window's signature, for its top-level
    /// solve to take over. With reuse, nothing: every solve probes the
    /// cache, in the DP's order.
    fn reserve(&self, list: &OpList, deps: &DepIndex, windows: &mut [(usize, usize)]) {
        if self.reuses_cache() {
            return;
        }
        windows.sort_by_key(|&(i, j)| j - i);
        let mut local = WINDOW_DEPS.take();
        for &(i, j) in windows.iter() {
            deps.window_local_into(i, j, &mut local);
            self.reserve_window(&list.ops[i..=j], &local);
        }
        WINDOW_DEPS.set(local);
    }

    fn release(&self) {
        self.release_reserved();
    }
}

/// Ends a batch's reservations ([`WindowSolver::release`]) when dropped,
/// so a cancelled or panicking batch frees them too.
struct Reserved<'s, S: WindowSolver>(&'s S);

impl<S: WindowSolver> Drop for Reserved<'_, S> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Greedy segmentation: packs consecutive operators while their minimal
/// tiles `Σ max(min_tiles, 1)` fit `cap` arrays, at most `max_ops` per
/// range (0 counts as 1). An operator wider than `cap` still gets a
/// range of its own. With `cap` the chip's arrays this is the capacity
/// wall the bound-pruned DP skips windows by.
pub fn greedy_ranges(list: &OpList, cap: usize, max_ops: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut tiles = 0usize;
    for (i, op) in list.ops.iter().enumerate() {
        let need = op.min_tiles.max(1);
        if i > start && (tiles + need > cap || i - start >= max_ops) {
            ranges.push((start, i - 1));
            start = i;
            tiles = 0;
        }
        tiles += need;
    }
    if start < list.ops.len() {
        ranges.push((start, list.ops.len() - 1));
    }
    ranges
}

/// The greedy packer: cuts `input` into [`greedy_ranges`] at the chip's
/// arrays and the options' width bound, solves each range once with
/// `solver` and chains the parts ([`Segmented::from_chain`]).
///
/// # Errors
///
/// [`CompileError::NoFeasibleSchedule`] when `solver` cannot allocate a
/// range (an operator wider than the chip, say).
pub fn greedy(
    input: Partitioned,
    solver: &impl WindowSolver,
    cm: &CostModel<'_>,
    opts: &CompilerOptions,
) -> Result<Segmented, CompileError> {
    let deps = DepIndex::new(&input.list);
    let mut parts = Vec::new();
    for r in greedy_ranges(&input.list, cm.arch().n_arrays(), opts.max_segment_ops) {
        let alloc = solver.solve(&input.list, &deps, r);
        parts.push((r, alloc.ok_or(CompileError::NoFeasibleSchedule)?));
    }
    Ok(Segmented::from_chain(
        input.name, input.list, &deps, cm, parts,
    ))
}

/// The solve pool the DP fans window solves out to: pure
/// `(i, j) → allocation` jobs; results live on the DP thread.
type WindowPool<'p, 'e, F> = SolvePool<'p, 'e, (usize, usize), Option<SegmentAllocation>, F>;

/// Hashes the DP's packed window keys ([`WindowTable`]) with one
/// multiply by the 64-bit golden ratio: the keys are distinct integers
/// the DP makes itself, so SipHash's flooding resistance buys nothing,
/// and the odd multiplier maps every run of consecutive keys onto
/// distinct low bits (the bucket index) while mixing the high bits
/// (the map's tag byte).
#[derive(Default)]
struct WindowHasher(u64);

impl Hasher for WindowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Per-window DP state keyed by the packed window `j·W + (j − i)`, where
/// `W` is the segment-width bound: every window the DP names has
/// `j − i < W`, so the key is unique. A map rather than an `m × W`
/// table, because the DP only ever touches the windows that survive
/// pruning (a dense table would cost ~260 MB on opt-13b's 391 940 ops
/// on the tiny chip).
struct WindowTable<V> {
    width: usize,
    map: HashMap<u64, V, BuildHasherDefault<WindowHasher>>,
}

impl<V> WindowTable<V> {
    fn new(width: usize) -> Self {
        WindowTable {
            width,
            map: HashMap::default(),
        }
    }

    fn key(&self, (i, j): (usize, usize)) -> u64 {
        debug_assert!(
            i <= j && j - i < self.width,
            "window ({i}, {j}) wider than {}",
            self.width
        );
        (j * self.width + (j - i)) as u64
    }

    fn get(&self, window: (usize, usize)) -> Option<&V> {
        self.map.get(&self.key(window))
    }

    fn contains(&self, window: (usize, usize)) -> bool {
        self.map.contains_key(&self.key(window))
    }

    fn insert(&mut self, window: (usize, usize), value: V) {
        let key = self.key(window);
        self.map.insert(key, value);
    }

    fn remove(&mut self, window: (usize, usize)) -> Option<V> {
        let key = self.key(window);
        self.map.remove(&key)
    }
}

/// The per-window allocation memo (`None` = the window cannot be
/// allocated) plus the reused list of one batch's unsolved windows.
struct AllocMemo {
    allocs: WindowTable<Option<SegmentAllocation>>,
    missing: Vec<(usize, usize)>,
}

impl AllocMemo {
    fn new(width: usize) -> Self {
        AllocMemo {
            allocs: WindowTable::new(width),
            missing: Vec::new(),
        }
    }

    /// The memoized allocation of `window`: `Some(None)` when it is
    /// known not to fit, `None` when it was never solved.
    fn get(&self, window: (usize, usize)) -> Option<Option<&SegmentAllocation>> {
        self.allocs.get(window).map(Option::as_ref)
    }

    /// Fans the not-yet-memoized windows of `wanted` out as one solve
    /// batch and memoizes the results. The batch composition depends
    /// only on the (sequentially decided) `wanted` set and the memo
    /// contents, so [`DpStats::solve_batches`] is identical at every
    /// worker count. `wanted` holds distinct windows: one column's
    /// starts, or one start's ends. `solver` reserves the batch
    /// ([`WindowSolver::reserve`]) before it fans out.
    fn solve_missing<F>(
        &mut self,
        pool: &WindowPool<'_, '_, F>,
        (solver, list, deps): (&impl WindowSolver, &OpList, &DepIndex),
        stats: &mut DpStats,
        wanted: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<(), CompileError>
    where
        F: Fn(&(usize, usize)) -> Option<SegmentAllocation> + Sync,
    {
        let allocs = &self.allocs;
        self.missing.clear();
        self.missing
            .extend(wanted.into_iter().filter(|&w| !allocs.contains(w)));
        if self.missing.is_empty() {
            return Ok(());
        }
        stats.solve_batches += 1;
        solver.reserve(list, deps, &mut self.missing);
        let reserved = Reserved(solver);
        let results = pool.run_batch(&self.missing);
        drop(reserved);
        let results = results?;
        for (&w, result) in self.missing.iter().zip(results) {
            self.allocs.insert(w, result);
        }
        Ok(())
    }
}

/// A feasible schedule's exact DP-objective cost, built by longest-fit
/// greedy packing. Returns `f64::INFINITY` when the greedy packer gets
/// stuck (the DP then runs unpruned apart from the capacity prefilter).
///
/// Each step batches its candidate windows (up to the capacity wall)
/// through the pool, then picks the longest prefix of allocatable
/// windows — the same choice the sequential walk makes — and reads the
/// winner back from the memo. Only windows of DP-legal width are
/// allocated, all through the shared memo, so no allocation happens here
/// that the exhaustive DP would not also perform.
#[allow(clippy::too_many_arguments)]
fn greedy_incumbent<F>(
    list: &OpList,
    deps: &DepIndex,
    cm: &CostModel<'_>,
    opts: &CompilerOptions,
    window: usize,
    bounds: &Bounds,
    cancel: &CancelToken,
    (pool, solver): (&WindowPool<'_, '_, F>, &impl WindowSolver),
    memo: &mut AllocMemo,
    stats: &mut DpStats,
) -> Result<f64, CompileError>
where
    F: Fn(&(usize, usize)) -> Option<SegmentAllocation> + Sync,
{
    let m = list.ops.len();
    let mut total = 0.0f64;
    let mut prev: Option<(usize, usize)> = None;
    let mut start = 0usize;
    while start < m {
        cancel.check()?;
        let mut wall = start;
        while wall < m && wall - start < window && !bounds.window_infeasible(start, wall) {
            wall += 1;
        }
        let batch = (solver, list, deps);
        memo.solve_missing(pool, batch, stats, (start..wall).map(|e| (start, e)))?;
        let Some(end) = (start..wall)
            .take_while(|&e| matches!(memo.get((start, e)), Some(Some(_))))
            .last()
        else {
            return Ok(f64::INFINITY);
        };
        let feasible = |w| memo.get(w).flatten().expect("window solved by a batch");
        let alloc = feasible((start, end));
        let inter = transition_cost(
            list,
            deps,
            cm,
            opts.switch_aware,
            prev.map(|r| (r, feasible(r))),
            (start, end),
            alloc,
        );
        total += inter + alloc.latency;
        prev = Some((start, end));
        start = end + 1;
    }
    Ok(total + bounds.final_wb)
}

/// Runs the segmentation DP over `input`'s operators with `solver`
/// allocating each candidate window ([`crate::DpMode`] selects
/// exhaustive vs. bound-pruned; both return identical schedules), and
/// returns the [`Segmented`] artifact plus the DP's work counters.
///
/// Allocation solves are fanned out across
/// [`crate::CompilerOptions::solve_workers`] pool threads (1 = inline);
/// the DP recurrence itself stays sequential, so plans are bit-identical
/// at every worker count (see the module docs for the argument).
///
/// `cancel` is polled once per candidate window — in the greedy
/// incumbent, in the DP sweep and before every pooled solve — so a
/// fired token or passed deadline aborts the dominant compile cost
/// mid-batch rather than only at stage boundaries. Pass
/// [`CancelToken::new`] when cancellation is not needed.
///
/// # Errors
///
/// Returns [`CompileError::OperatorTooLarge`] if some operator cannot fit
/// the chip alone, [`CompileError::NoFeasibleSchedule`] if no valid
/// segmentation exists, or [`CompileError::Cancelled`] when `cancel`
/// fires.
pub fn segment(
    input: Partitioned,
    solver: &impl WindowSolver,
    cm: &CostModel<'_>,
    opts: &CompilerOptions,
    cancel: &CancelToken,
) -> Result<(Segmented, DpStats), CompileError> {
    let (segments, total_latency, dp) = segment_list(&input.list, solver, cm, opts, cancel)?;
    let segmented = Segmented {
        name: input.name,
        list: input.list,
        segments,
        total_latency,
    };
    Ok((segmented, dp))
}

/// The body of [`segment`] on a borrowed list: the segments, their total
/// latency and the DP's counters.
fn segment_list(
    list: &OpList,
    solver: &impl WindowSolver,
    cm: &CostModel<'_>,
    opts: &CompilerOptions,
    cancel: &CancelToken,
) -> Result<(Vec<Segment>, f64, DpStats), CompileError> {
    if list.ops.is_empty() {
        return Ok((Vec::new(), 0.0, DpStats::default()));
    }

    // Single-op feasibility: every op must fit alone, otherwise no
    // segmentation exists at all.
    for op in &list.ops {
        if op.min_tiles > cm.arch().n_arrays() {
            return Err(CompileError::OperatorTooLarge {
                op: op.name.to_string(),
                tiles_needed: op.min_tiles,
                available: cm.arch().n_arrays(),
            });
        }
    }

    // Producer-sorted dep index: window dependency lists and the DP's
    // write-back terms in time proportional to the window, not the model.
    let deps = DepIndex::new(list);
    // The pool job: a pure function of the window (see
    // [`WindowSolver`]), so any schedule yields the same memo.
    let solve_window = |&w: &(usize, usize)| solver.solve(list, &deps, w);
    solvepool::with_pool(
        opts.effective_solve_workers(),
        cancel,
        solve_window,
        |pool| run_dp(list, &deps, cm, opts, cancel, (pool, solver)),
    )
}

/// The sequential DP body behind [`segment`]: prune → batch-solve →
/// recur, one column at a time.
fn run_dp<F>(
    list: &OpList,
    deps: &DepIndex,
    cm: &CostModel<'_>,
    opts: &CompilerOptions,
    cancel: &CancelToken,
    (pool, solver): (&WindowPool<'_, '_, F>, &impl WindowSolver),
) -> Result<(Vec<Segment>, f64, DpStats), CompileError>
where
    F: Fn(&(usize, usize)) -> Option<SegmentAllocation> + Sync,
{
    let m = list.ops.len();
    // No window is wider than the op list, so the clamp changes no plan;
    // it keeps the packed window keys and the survivor buffer sized by
    // the model, whatever width bound the options carry.
    let window = opts.max_segment_ops.clamp(1, m);

    // Per-range allocations, memoized on the DP thread and filled in
    // batches by the pool.
    let mut memo = AllocMemo::new(window);

    let mut dp_stats = DpStats::default();
    let bounds = match opts.dp_mode {
        DpMode::Exhaustive => None,
        DpMode::BoundPruned => Some(Bounds::new(list, cm, opts)),
    };
    let incumbent = match &bounds {
        Some(b) => greedy_incumbent(
            list,
            deps,
            cm,
            opts,
            window,
            b,
            cancel,
            (pool, solver),
            &mut memo,
            &mut dp_stats,
        )?,
        None => f64::INFINITY,
    };

    // dp[(i, j)] = (total cost of ops 0..=j with last segment (i..=j),
    //               previous segment start or usize::MAX for none).
    let mut dp: WindowTable<(f64, usize)> = WindowTable::new(window);
    // row_min[e] = min over starts k of dp[(k, e)]: the cheapest way to
    // schedule the prefix 0..=e (used by the pruning bound as L_min).
    let mut row_min: Vec<f64> = vec![f64::INFINITY; m];
    // One column's surviving starts, reused across columns.
    let mut survivors: Vec<usize> = Vec::with_capacity(window);
    // The first start whose window to column `j` fits the chip: every
    // earlier start's window is wider, so infeasible too, and a later
    // column only adds tiles, so it never moves back.
    let mut feasible_from = 0usize;

    for j in 0..m {
        let mut i_lo = j + 1 - window.min(j + 1);

        // Pass 1 (sequential): pruning decisions. These read only
        // prefix aggregates and `row_min` of earlier columns, so the
        // surviving set is independent of any solve scheduling.
        survivors.clear();
        if let Some(b) = &bounds {
            while feasible_from <= j && b.window_infeasible(feasible_from, j) {
                feasible_from += 1;
            }
            let walled = feasible_from.saturating_sub(i_lo) as u64;
            dp_stats.windows += walled;
            dp_stats.infeasible_skipped += walled;
            i_lo = i_lo.max(feasible_from);
        }
        for i in i_lo..=j {
            // Poll per window: each surviving window costs an allocator
            // solve, so this is the finest useful abort granularity.
            cancel.check()?;
            dp_stats.windows += 1;
            if let Some(b) = &bounds {
                let base = if i == 0 { 0.0 } else { row_min[i - 1] };
                if base.is_infinite() {
                    // No feasible predecessor: the exhaustive DP would
                    // find no transition either (it would only waste the
                    // allocation solve).
                    continue;
                }
                let optimistic =
                    base + b.inter_lb(i, j) + b.intra_lb(i, j) + b.suffix_lb(j, m);
                // Strictly-worse bound with a relative safety margin:
                // floating-point noise must never prune a tied path.
                if optimistic > incumbent * (1.0 + 1e-9) + 1e-9 {
                    dp_stats.bound_pruned += 1;
                    continue;
                }
            }
            survivors.push(i);
        }

        // Pass 2 (parallel): one batch for the column's unsolved
        // survivors.
        let batch = (solver, list, deps);
        memo.solve_missing(pool, batch, &mut dp_stats, survivors.iter().map(|&i| (i, j)))?;

        // Pass 3 (sequential): the Eq. 3 recurrence in original window
        // order — every allocation it reads is a memo hit.
        for &i in &survivors {
            let Some(alloc) = memo
                .get((i, j))
                .expect("survivor solved by its column's batch")
            else {
                continue;
            };
            let intra = alloc.latency;
            if i == 0 {
                // First segment: all arrays start in memory mode; charge
                // the switches to compute mode and the initial weight load.
                let cost =
                    transition_cost(list, deps, cm, opts.switch_aware, None, (0, j), alloc);
                dp.insert((0, j), (cost + intra, usize::MAX));
                row_min[j] = row_min[j].min(cost + intra);
                continue;
            }
            // Previous segment ends at i-1; its start k ranges over the
            // window.
            let k_lo = i - window.min(i);
            let mut best: Option<(f64, usize)> = None;
            for k in k_lo..i {
                let Some(&(prev_cost, _)) = dp.get((k, i - 1)) else {
                    continue;
                };
                let prev_alloc = memo
                    .get((k, i - 1))
                    .flatten()
                    .expect("dp state implies a memoized allocation");
                let inter = transition_cost(
                    list,
                    deps,
                    cm,
                    opts.switch_aware,
                    Some(((k, i - 1), prev_alloc)),
                    (i, j),
                    alloc,
                );
                let total = prev_cost + inter + intra;
                if best.is_none_or(|(b, _)| total < b) {
                    best = Some((total, k));
                }
            }
            if let Some(b) = best {
                row_min[j] = row_min[j].min(b.0);
                dp.insert((i, j), b);
            }
        }
    }

    // Terminal: best last segment ending at m-1, plus final write-back of
    // the network outputs.
    let final_wb = cm.final_writeback_cost(list);

    let mut best_end: Option<((usize, usize), f64)> = None;
    for i in (m - window)..m {
        if let Some(&(cost, _)) = dp.get((i, m - 1)) {
            let total = cost + final_wb;
            if best_end.is_none_or(|(_, b)| total < b) {
                best_end = Some(((i, m - 1), total));
            }
        }
    }
    let ((mut i, mut j), total_latency) = best_end.ok_or(CompileError::NoFeasibleSchedule)?;

    // Backtrack.
    let mut ranges = Vec::new();
    loop {
        ranges.push((i, j));
        let &(_, prev_start) = dp.get((i, j)).expect("state on optimal path");
        if prev_start == usize::MAX {
            break;
        }
        j = i - 1;
        i = prev_start;
    }
    ranges.reverse();

    // Materialize segments with their (always switch-aware, i.e.
    // physically real) inter costs. The path's windows are distinct, so
    // each allocation moves out of the memo.
    let parts: Vec<((usize, usize), SegmentAllocation)> = ranges
        .iter()
        .map(|&w| {
            let alloc = memo
                .allocs
                .remove(w)
                .flatten()
                .expect("allocation on optimal path");
            (w, alloc)
        })
        .collect();
    Ok((
        chain_segments(list, deps, cm, parts),
        total_latency,
        dp_stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{all_compute_alloc, mean_memory_ratio, Allocator};
    use crate::frontend::lower_graph;
    use crate::partition::partition;
    use crate::AllocatorKind;
    use cmswitch_arch::presets;

    /// Lowers and partitions `graph` into the segmentation DP's input.
    fn partitioned(
        graph: &cmswitch_graph::Graph,
        arch: &cmswitch_arch::DualModeArch,
        opts: &CompilerOptions,
    ) -> Partitioned {
        let list = lower_graph(graph, arch).unwrap();
        Partitioned {
            name: graph.name().to_string(),
            list: partition(&list, arch, opts.partition_budget).unwrap(),
        }
    }

    /// Segments `graph` under a fresh allocator; also returns its solver
    /// invocations.
    fn run(
        graph: &cmswitch_graph::Graph,
        arch: &cmswitch_arch::DualModeArch,
        opts: &CompilerOptions,
    ) -> (Segmented, DpStats, u64) {
        let cm = CostModel::new(arch);
        let allocator = Allocator::new(CostModel::new(arch), opts.allocator, opts.reuse_cache);
        let input = partitioned(graph, arch, opts);
        let (r, dp) = segment(input, &allocator, &cm, opts, &CancelToken::new()).unwrap();
        let mut stats = crate::CompileStats::default();
        allocator.stats.add_to(&mut stats);
        (r, dp, stats.solver_invocations())
    }

    /// Runs both DP modes on the same graph: `[exhaustive, pruned]`,
    /// each with its DP counters and solver invocations.
    fn run_both(
        graph: &cmswitch_graph::Graph,
        arch: &cmswitch_arch::DualModeArch,
        base: &CompilerOptions,
    ) -> [(Segmented, DpStats, u64); 2] {
        [DpMode::Exhaustive, DpMode::BoundPruned]
            .map(|mode| run(graph, arch, &base.clone().with_dp_mode(mode)))
    }

    #[test]
    fn covers_all_ops_contiguously() {
        let g = cmswitch_models::mlp::mlp(4, &[64, 128, 128, 64, 32]).unwrap();
        let arch = presets::tiny();
        let (r, ..) = run(&g, &arch, &CompilerOptions::default());
        // Segments tile [0, m) contiguously.
        let mut next = 0;
        for s in &r.segments {
            assert_eq!(s.range.0, next);
            next = s.range.1 + 1;
        }
        assert!(r.total_latency.is_finite() && r.total_latency > 0.0);
    }

    #[test]
    fn oversized_model_gets_multiple_segments() {
        // tiny chip: 8 arrays x 64x64 = 32 KiB weights. This MLP has
        // ~>100 KiB of weights, so it cannot be a single segment.
        let g = cmswitch_models::mlp::mlp(1, &[256, 256, 256, 256, 256]).unwrap();
        let arch = presets::tiny();
        let (r, ..) = run(&g, &arch, &CompilerOptions::default());
        assert!(r.segments.len() >= 2, "{} segments", r.segments.len());
    }

    #[test]
    fn small_model_single_segment() {
        let g = cmswitch_models::mlp::mlp(1, &[64, 64]).unwrap();
        let arch = presets::tiny();
        let (r, ..) = run(&g, &arch, &CompilerOptions::default());
        assert_eq!(r.segments.len(), 1);
    }

    #[test]
    fn pruned_dp_matches_exhaustive_bit_for_bit() {
        for widths in [
            vec![64, 128, 128, 64, 32],
            vec![256, 256, 256, 256, 256],
            vec![64, 64],
            vec![256, 512, 256, 128, 64],
        ] {
            let g = cmswitch_models::mlp::mlp(2, &widths).unwrap();
            for arch in [presets::tiny(), presets::dynaplasia()] {
                let [(ex, _, s_ex), (pr, dp, s_pr)] =
                    run_both(&g, &arch, &CompilerOptions::default());
                assert_eq!(ex.segments, pr.segments, "{widths:?} on {}", arch.name());
                assert_eq!(
                    ex.total_latency.to_bits(),
                    pr.total_latency.to_bits(),
                    "{widths:?} on {}",
                    arch.name()
                );
                assert!(s_pr <= s_ex, "pruned may never solve more: {s_pr} vs {s_ex}");
                assert!(dp.windows >= dp.skipped());
            }
        }
    }

    #[test]
    fn pruned_dp_matches_exhaustive_when_switch_oblivious() {
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 256, 128, 64]).unwrap();
        let arch = presets::tiny();
        let base = CompilerOptions {
            switch_aware: false,
            ..CompilerOptions::default()
        };
        let [(ex, _, s_ex), (pr, _, s_pr)] = run_both(&g, &arch, &base);
        assert_eq!(ex.segments, pr.segments);
        assert_eq!(ex.total_latency.to_bits(), pr.total_latency.to_bits());
        assert!(s_pr <= s_ex);
    }

    #[test]
    fn pruned_dp_skips_capacity_infeasible_windows_without_solving() {
        // Five 256-wide layers on the 8-array tiny chip: every pair of
        // adjacent ops overflows the chip, so all multi-op windows are
        // skipped by the prefilter and solves drop strictly.
        let g = cmswitch_models::mlp::mlp(1, &[256, 256, 256, 256, 256]).unwrap();
        let arch = presets::tiny();
        let [(ex, _, s_ex), (pr, dp, s_pr)] = run_both(&g, &arch, &CompilerOptions::default());
        assert_eq!(ex.segments, pr.segments);
        assert!(dp.infeasible_skipped > 0);
        assert!(
            s_pr < s_ex,
            "expected strictly fewer solves: pruned {s_pr} vs exhaustive {s_ex}"
        );
    }

    #[test]
    fn exhaustive_mode_reports_no_skips() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 128, 64]).unwrap();
        let arch = presets::tiny();
        let (_, dp, _) = run(
            &g,
            &arch,
            &CompilerOptions {
                dp_mode: DpMode::Exhaustive,
                ..CompilerOptions::default()
            },
        );
        assert_eq!(dp.skipped(), 0);
        assert!(dp.windows > 0);
    }

    #[test]
    fn switch_aware_never_worse() {
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 256, 128, 64]).unwrap();
        let arch = presets::tiny();
        let (aware, ..) = run(&g, &arch, &CompilerOptions::default());
        let (oblivious, ..) = run(
            &g,
            &arch,
            &CompilerOptions {
                switch_aware: false,
                ..CompilerOptions::default()
            },
        );
        // The oblivious DP optimizes a different (smaller) objective, so
        // its *real* cost — recomputed with overheads — can only be >= the
        // aware DP's optimum. Recompute real cost for the oblivious plan.
        let list = lower_graph(&g, &arch).unwrap();
        let list = partition(&list, &arch, 1.0).unwrap();
        let cm = CostModel::new(&arch);
        let deps = DepIndex::new(&list);
        let mut real = 0.0;
        let mut prev: Option<&Segment> = None;
        for s in &oblivious.segments {
            real += s.alloc.latency;
            let ops = &list.ops[s.range.0..=s.range.1];
            let prev_plan = prev.map(|p| (p.range, &p.alloc));
            real += cm.inter_cost(&deps, prev_plan, s.range, ops, &s.alloc);
            prev = Some(s);
        }
        real += cm.final_writeback_cost(&list);
        assert!(
            aware.total_latency <= real * 1.001 + 1e-6,
            "aware {} oblivious-real {}",
            aware.total_latency,
            real
        );
    }

    #[test]
    fn cancelled_token_aborts_the_dp_window_loop() {
        // Cancellation is polled inside the window loop itself (not only
        // at stage boundaries): calling the DP directly with a fired
        // token must abort before any allocator work happens.
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 256, 128, 64]).unwrap();
        let arch = presets::tiny();
        let opts = CompilerOptions::default();
        let cm = CostModel::new(&arch);
        let allocator = Allocator::new(CostModel::new(&arch), opts.allocator, opts.reuse_cache);
        let token = CancelToken::new();
        token.cancel();
        match segment(
            partitioned(&g, &arch, &opts),
            &allocator,
            &cm,
            &opts,
            &token,
        ) {
            Err(CompileError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let mut stats = crate::CompileStats::default();
        allocator.stats.add_to(&mut stats);
        assert_eq!(
            stats.solver_invocations(),
            0,
            "no allocator solve after cancellation"
        );
    }

    #[test]
    fn solve_workers_do_not_change_the_plan_or_the_dp_stats() {
        // Full artifact equality — including DpStats, so the batch count
        // itself must be worker-invariant.
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 256, 128, 64]).unwrap();
        let arch = presets::tiny();
        for mode in [DpMode::Exhaustive, DpMode::BoundPruned] {
            let base_opts = CompilerOptions::default().with_dp_mode(mode);
            let (base, base_dp, _) = run(&g, &arch, &base_opts);
            for workers in [0, 2, 4, 8] {
                let opts = base_opts.clone().with_solve_workers(workers);
                let (r, dp, _) = run(&g, &arch, &opts);
                assert_eq!(
                    (&base, base_dp),
                    (&r, dp),
                    "workers={workers} mode={mode:?}"
                );
            }
        }
    }

    #[test]
    fn unbounded_width_plans_as_the_op_count() {
        // A width bound past the op list ("no limit") must plan exactly
        // as a bound of the op count itself.
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 256, 128, 64]).unwrap();
        let arch = presets::tiny();
        let m = partitioned(&g, &arch, &CompilerOptions::default()).list.ops.len();
        for mode in [DpMode::Exhaustive, DpMode::BoundPruned] {
            let base = CompilerOptions::default().with_dp_mode(mode);
            let (at_m, at_m_dp, _) = run(&g, &arch, &base.clone().with_max_segment_ops(m));
            let (r, dp, _) = run(&g, &arch, &base.with_max_segment_ops(usize::MAX));
            assert_eq!((&at_m, at_m_dp), (&r, dp), "mode={mode:?} m={m}");
        }
    }

    #[test]
    fn memory_ratio_reported() {
        let g = cmswitch_models::mlp::mlp(4, &[64, 128, 64]).unwrap();
        let arch = presets::tiny();
        let (r, ..) = run(&g, &arch, &CompilerOptions::default());
        let ratio = mean_memory_ratio(r.segments.iter().map(|s| &s.alloc));
        assert!((0.0..=1.0).contains(&ratio));
    }

    /// A four-layer MLP's partitioned op list on the tiny chip.
    fn tiny_list() -> (OpList, cmswitch_arch::DualModeArch) {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let arch = presets::tiny();
        let opts = CompilerOptions::default();
        (partitioned(&g, &arch, &opts).list, arch)
    }

    #[test]
    fn greedy_ranges_cover_contiguously() {
        let (l, arch) = tiny_list();
        let ranges = greedy_ranges(&l, arch.n_arrays(), 8);
        let mut next = 0;
        for (lo, hi) in &ranges {
            assert_eq!(*lo, next);
            next = hi + 1;
        }
        assert_eq!(next, l.ops.len());
    }

    #[test]
    fn chain_charges_inter_costs() {
        let (l, arch) = tiny_list();
        let cm = CostModel::new(&arch);
        let ranges = greedy_ranges(&l, arch.n_arrays(), 2);
        let parts: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let a = all_compute_alloc(&l.ops[r.0..=r.1], &cm, true).unwrap();
                (r, a)
            })
            .collect();
        let segments = chain_segments(&l, &DepIndex::new(&l), &cm, parts);
        assert!(segments[0].inter_before > 0.0); // initial switch + load
        if segments.len() > 1 {
            assert!(segments[1].inter_before > 0.0); // reload at least
        }
    }

    #[test]
    fn greedy_width_zero_packs_one_op_per_range() {
        let (l, arch) = tiny_list();
        let singles: Vec<_> = (0..l.ops.len()).map(|i| (i, i)).collect();
        assert_eq!(greedy_ranges(&l, arch.n_arrays(), 0), singles);
        assert_eq!(greedy_ranges(&l, arch.n_arrays(), 1), singles);
        let cm = CostModel::new(&arch);
        let opts = CompilerOptions::default().with_max_segment_ops(0);
        let allocator = Allocator::new(CostModel::new(&arch), opts.allocator, opts.reuse_cache);
        let input = Partitioned {
            name: "mlp".into(),
            list: l,
        };
        let ranges: Vec<_> = greedy(input, &allocator, &cm, &opts)
            .unwrap()
            .segments
            .iter()
            .map(|s| s.range)
            .collect();
        assert_eq!(ranges, singles);
    }

    #[test]
    fn greedy_gives_a_chip_filling_op_a_range_of_its_own() {
        let (mut l, arch) = tiny_list();
        let n = arch.n_arrays();
        assert!(l.ops.len() >= 3);
        l.ops[1].min_tiles = n;
        let ranges = greedy_ranges(&l, n, 12);
        assert!(ranges.contains(&(1, 1)), "{ranges:?}");
        let cm = CostModel::new(&arch);
        let opts = CompilerOptions::default();
        let allocator = Allocator::new(CostModel::new(&arch), opts.allocator, opts.reuse_cache);
        let input = |list: &OpList| Partitioned {
            name: "mlp".into(),
            list: list.clone(),
        };
        let segmented = greedy(input(&l), &allocator, &cm, &opts).unwrap();
        let alone = segmented.segments.iter().find(|s| s.range == (1, 1));
        assert_eq!(alone.unwrap().alloc.arrays_used(), n);
        // One tile more and no solver can place it (a fresh allocator:
        // the cache keys on shapes, which imply the tiles).
        l.ops[1].min_tiles = n + 1;
        assert!(greedy_ranges(&l, n, 12).contains(&(1, 1)));
        let allocator = Allocator::new(CostModel::new(&arch), opts.allocator, opts.reuse_cache);
        match greedy(input(&l), &allocator, &cm, &opts) {
            Err(CompileError::NoFeasibleSchedule) => {}
            other => panic!("expected NoFeasibleSchedule, got {other:?}"),
        }
    }

    #[test]
    fn fast_allocator_modes_agree_too() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let arch = presets::dynaplasia();
        let base = CompilerOptions {
            allocator: AllocatorKind::Fast,
            ..CompilerOptions::default()
        };
        let [(ex, _, s_ex), (pr, _, s_pr)] = run_both(&g, &arch, &base);
        assert_eq!(ex.segments, pr.segments);
        assert_eq!(ex.total_latency.to_bits(), pr.total_latency.to_bits());
        assert!(s_pr <= s_ex);
    }
}
