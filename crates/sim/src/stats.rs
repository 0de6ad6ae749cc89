//! Simulation reports: the sequential [`SimReport`], the event engine's
//! enriched [`EngineReport`] (per-segment windows, per-mode breakdown,
//! energy, critical path) and — only from the engine's `trace*` entry
//! points — an [`EngineTrace`]: that report plus the per-array
//! [`ArrayTimeline`]s and the utilization figures derived from them.

use cmswitch_arch::{ArrayId, ArrayMode};

use crate::energy::EnergyReport;

/// Timing of one `parallel` segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentTiming {
    /// Segment index in flow order.
    pub index: usize,
    /// Cycles the segment body took (slowest lane).
    pub cycles: f64,
    /// Cycles of the slowest lane's weight load component.
    pub weight_load_cycles: f64,
    /// Number of compute operators in the segment.
    pub compute_ops: usize,
}

/// Full timing report of a flow execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// End-to-end cycles.
    pub total_cycles: f64,
    /// Cycles spent in `CM.switch` statements (pure driver reconfig).
    pub switch_cycles: f64,
    /// Cycles in top-level memory statements (write-backs / reloads of
    /// activations between segments).
    pub writeback_cycles: f64,
    /// Cycles inside segments (pipelined bodies).
    pub segment_cycles: f64,
    /// Cycles in top-level vector statements.
    pub vector_cycles: f64,
    /// The full mode-switch *process* overhead (Fig. 10 steps 1 + 2):
    /// write-backs plus switches — the quantity §5.5 reports as 3-5 %.
    pub switch_process_cycles: f64,
    /// Per-segment detail.
    pub segments: Vec<SegmentTiming>,
    /// Total arrays switched to compute mode.
    pub switches_to_compute: u64,
    /// Total arrays switched to memory mode.
    pub switches_to_memory: u64,
}

impl SimReport {
    /// Fraction of total time in the mode-switch process (§5.5 metric).
    pub fn switch_process_fraction(&self) -> f64 {
        if self.total_cycles == 0.0 {
            0.0
        } else {
            self.switch_process_cycles / self.total_cycles
        }
    }
}

/// What kind of work kept an array busy during a [`BusyInterval`].
///
/// The kind implies the array's mode: [`BusyKind::WeightLoad`] and
/// [`BusyKind::Compute`] happen in compute mode, [`BusyKind::MemTraffic`]
/// in memory mode, and [`BusyKind::Switch`] is the transition itself —
/// so aggregating intervals by kind (see [`BusyBreakdown`]) *is* the
/// per-mode occupancy breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusyKind {
    /// The array was being reconfigured between modes.
    Switch,
    /// Weights (or a runtime operand) were being written into the array.
    WeightLoad,
    /// The array executed streamed MACs in compute mode.
    Compute,
    /// The array buffered memory-mode traffic for an operator or a bulk
    /// memory statement.
    MemTraffic,
}

/// One busy window on one array's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyInterval {
    /// Start cycle.
    pub start: f64,
    /// End cycle (`end >= start`).
    pub end: f64,
    /// What occupied the array.
    pub kind: BusyKind,
}

impl BusyInterval {
    /// Length of the interval in cycles.
    pub fn cycles(&self) -> f64 {
        self.end - self.start
    }
}

/// One array's busy timeline, as the event engine's `trace*` entry
/// points record it while scheduling ([`EngineTrace::timelines`]; a plain
/// `simulate*` schedules identically and keeps no log).
///
/// Intervals are appended in start order and never overlap (shared
/// endpoints are allowed): an array serves one event at a time — that is
/// the resource constraint the engine schedules around, and
/// `tests/sim_invariants.rs` verifies it holds on every compiled flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayTimeline {
    /// The array this timeline belongs to.
    pub array: ArrayId,
    /// The array's mode after the flow completed.
    pub final_mode: ArrayMode,
    /// Busy windows in chronological order.
    pub intervals: Vec<BusyInterval>,
}

impl ArrayTimeline {
    /// Total busy cycles across all intervals.
    pub fn busy_cycles(&self) -> f64 {
        self.intervals.iter().map(BusyInterval::cycles).sum()
    }

    /// Busy cycles of one interval kind.
    pub fn busy_cycles_of(&self, kind: BusyKind) -> f64 {
        self.intervals
            .iter()
            .filter(|i| i.kind == kind)
            .map(BusyInterval::cycles)
            .sum()
    }
}

/// Array-cycle occupancy aggregated over every timeline, by busy kind
/// (the per-mode breakdown — see [`BusyKind`]) plus the vector
/// function-unit's serialized cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusyBreakdown {
    /// Array-cycles spent in mode transitions.
    pub switch: f64,
    /// Array-cycles spent writing weights/operands (compute mode).
    pub weight_load: f64,
    /// Array-cycles spent executing MACs (compute mode).
    pub compute: f64,
    /// Array-cycles spent buffering traffic (memory mode).
    pub mem_traffic: f64,
    /// Serialized cycles of top-level vector statements (not
    /// array-cycles: the vector unit is a single shared resource).
    pub vector: f64,
}

impl BusyBreakdown {
    /// Array-cycles in compute mode (weight loads + execution).
    pub fn compute_mode(&self) -> f64 {
        self.weight_load + self.compute
    }

    /// Array-cycles in memory mode.
    pub fn memory_mode(&self) -> f64 {
        self.mem_traffic
    }

    /// Total array-cycles across every busy kind (switching included;
    /// the vector unit is not an array and is excluded).
    pub fn total_array_cycles(&self) -> f64 {
        self.switch + self.weight_load + self.compute + self.mem_traffic
    }
}

/// Time-averaged occupancy of the array pool over a schedule's makespan:
/// the fractions of total array-time (`n_arrays × makespan`) spent in
/// each mode. This is the duty-cycle input an average-power model needs —
/// mode-dependent static power weighs compute-mode and memory-mode
/// residency differently, and everything not busy is idle.
///
/// Produced by [`EngineReport::mode_occupancy`] (from the busy-kind
/// totals — no timelines needed); fractions are clamped to
/// `[0, 1]` and `compute + memory + switching + idle == 1` up to float
/// rounding (idle absorbs the remainder).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModeOccupancy {
    /// Fraction of array-time in compute mode (weight loads + MACs).
    pub compute: f64,
    /// Fraction of array-time in memory mode (buffered traffic).
    pub memory: f64,
    /// Fraction of array-time spent switching between modes.
    pub switching: f64,
    /// Fraction of array-time idle.
    pub idle: f64,
}

/// Scheduling window of one segment under the event engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentWindow {
    /// Segment index in flow order.
    pub index: usize,
    /// Cycle the segment's weight-load barrier started.
    pub start: f64,
    /// Cycle the segment's slowest lane finished.
    pub end: f64,
    /// Weight-load barrier cycles (Eq. 2 `max_o Com_o · Latency_write`).
    pub load_cycles: f64,
    /// Post-barrier execution cycles (slowest lane / loose memory work).
    pub exec_cycles: f64,
    /// Number of compute operators in the segment.
    pub compute_ops: usize,
    /// Energy of the segment body's statements, picojoules.
    pub energy_pj: f64,
}

/// One step of the engine's critical path: the chain of events whose
/// start times bound each other, ending at the event that finished last.
///
/// Start times are non-decreasing along the chain, but consecutive
/// windows may overlap: a predecessor can hand over the binding
/// resource *before* its own end (a segment releases each lane's
/// arrays as the lane drains), and each step reports the event's full
/// window, not just the handoff instant.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    /// Human-readable event label (e.g. `seg2.exec`, `switch#5(TOC x12)`).
    pub label: String,
    /// Cycle the event started.
    pub start: f64,
    /// Cycle the event finished.
    pub end: f64,
}

/// The event engine's enriched report: end-to-end makespan plus the
/// per-segment and per-mode detail and the critical path the sequential
/// [`SimReport`] cannot express. Everything here is accumulated per
/// event; the per-array log is an [`EngineTrace`], recorded on request.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// End-to-end makespan of the event schedule (cycles).
    pub total_cycles: f64,
    /// What the same flow costs fully serialized — bit-identical to
    /// [`crate::timing::simulate`]'s `total_cycles`, accumulated from
    /// the same shared cost kernel in the same order.
    pub serialized_cycles: f64,
    /// Serialized cycles of the mode-switch process (switch statements
    /// plus top-level write-backs/reloads — Fig. 10 steps 1 + 2).
    pub switch_process_cycles: f64,
    /// Total arrays switched to compute mode.
    pub switches_to_compute: u64,
    /// Total arrays switched to memory mode.
    pub switches_to_memory: u64,
    /// Array-cycle occupancy by kind (the per-mode breakdown).
    pub breakdown: BusyBreakdown,
    /// Per-segment scheduling windows, in flow order.
    pub segments: Vec<SegmentWindow>,
    /// Energy of the whole flow (schedule-invariant, so identical to
    /// [`crate::energy::estimate`] on the same flow).
    pub energy: EnergyReport,
    /// The critical path, earliest event first.
    pub critical_path: Vec<CriticalStep>,
}

impl EngineReport {
    /// Cycles saved by overlapping events instead of serializing them.
    pub fn overlap_saved(&self) -> f64 {
        (self.serialized_cycles - self.total_cycles).max(0.0)
    }

    /// Fraction of the makespan the serialized mode-switch process
    /// represents (§5.5 metric; overlap can hide part of it, so this is
    /// an upper bound on the visible overhead).
    pub fn switch_process_fraction(&self) -> f64 {
        if self.total_cycles == 0.0 {
            0.0
        } else {
            self.switch_process_cycles / self.total_cycles
        }
    }

    /// The per-mode duty cycle of the whole array pool: busy-kind totals
    /// over `n_arrays × makespan`, idle as the remainder. `n_arrays` is
    /// the chip's array count (the report itself holds nothing per
    /// array). A zero makespan or zero `n_arrays` reports all-idle.
    pub fn mode_occupancy(&self, n_arrays: usize) -> ModeOccupancy {
        let denom = self.total_cycles * n_arrays as f64;
        if denom <= 0.0 {
            return ModeOccupancy {
                idle: 1.0,
                ..ModeOccupancy::default()
            };
        }
        let frac = |c: f64| (c / denom).clamp(0.0, 1.0);
        let compute = frac(self.breakdown.compute_mode());
        let memory = frac(self.breakdown.memory_mode());
        let switching = frac(self.breakdown.switch);
        ModeOccupancy {
            compute,
            memory,
            switching,
            idle: (1.0 - compute - memory - switching).clamp(0.0, 1.0),
        }
    }
}

/// What [`crate::EventEngine::trace`] and
/// [`crate::EventEngine::trace_program`] return: the report a plain
/// `simulate*` of the same input yields — field for field, bit for bit —
/// plus the per-array busy log only these entry points keep.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineTrace {
    /// The schedule's report.
    pub report: EngineReport,
    /// One timeline per array of the chip, in array order.
    pub timelines: Vec<ArrayTimeline>,
}

impl EngineTrace {
    /// Per-array utilization: busy cycles over the makespan, in array
    /// order. Zero makespan yields zeros.
    pub fn utilization(&self) -> Vec<f64> {
        let makespan = self.report.total_cycles;
        self.timelines
            .iter()
            .map(|t| {
                if makespan > 0.0 {
                    t.busy_cycles() / makespan
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Histogram of per-array utilization percentages in 11 buckets:
    /// `0-9 %`, `10-19 %`, …, `90-99 %`, and exactly-100 % arrays in the
    /// last bucket. Percentages are rounded to nearest
    /// ([`utilization_percent`]), so a 99.5 %-busy array counts as 100 %.
    pub fn utilization_histogram(&self) -> [u64; 11] {
        let mut buckets = [0u64; 11];
        for u in self.utilization() {
            let pct = utilization_percent(u);
            buckets[usize::from(pct) / 10] += 1;
        }
        buckets
    }
}

/// How mode switches played out when several flows shared one forward
/// pass ([`crate::engine`] defines amortized and injected);
/// `requested == executed + amortized`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwitchAmortization {
    /// Array-switches the flows' `CM.switch` statements requested.
    pub requested: u64,
    /// Requested array-switches actually driven.
    pub executed: u64,
    /// Requested array-switches skipped because another flow had
    /// already left the array in the target mode.
    pub amortized: u64,
    /// Array re-switches injected ahead of a statement because another
    /// flow had flipped an array it needs; charged to the flow that
    /// needs the array back.
    pub injected: u64,
    /// Cycles of every driven switch event, executed and injected.
    pub switch_cycles: f64,
}

/// Converts a busy fraction into a whole utilization percentage,
/// rounding to nearest and clamping to `0..=100`.
///
/// Rounding (not truncation) matters at the top of the scale: an array
/// busy 99.5 % of the makespan reports 100 %, not 99 % — truncating
/// toward zero would under-report every almost-saturated array by a
/// whole point and keep the 100 % histogram bucket empty on real
/// workloads.
pub fn utilization_percent(fraction: f64) -> u8 {
    let pct = (fraction * 100.0).round();
    if pct <= 0.0 {
        0
    } else if pct >= 100.0 {
        100
    } else {
        pct as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_handles_zero() {
        let r = SimReport::default();
        assert_eq!(r.switch_process_fraction(), 0.0);
    }

    #[test]
    fn fraction_computes() {
        let r = SimReport {
            total_cycles: 100.0,
            switch_process_cycles: 4.0,
            ..SimReport::default()
        };
        assert!((r.switch_process_fraction() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn utilization_percent_rounds_to_nearest() {
        // The 99.5 % → 100 % boundary: truncation toward zero reported
        // 99 here; round-to-nearest must report 100.
        assert_eq!(utilization_percent(0.995), 100);
        assert_eq!(utilization_percent(0.9949), 99);
        assert_eq!(utilization_percent(0.004), 0);
        assert_eq!(utilization_percent(0.005), 1);
        assert_eq!(utilization_percent(0.0), 0);
        assert_eq!(utilization_percent(1.0), 100);
        // Clamped, not wrapped, outside the meaningful range.
        assert_eq!(utilization_percent(1.7), 100);
        assert_eq!(utilization_percent(-0.2), 0);
    }

    #[test]
    fn timeline_busy_accounting() {
        let t = ArrayTimeline {
            array: ArrayId(3),
            final_mode: ArrayMode::Memory,
            intervals: vec![
                BusyInterval {
                    start: 0.0,
                    end: 4.0,
                    kind: BusyKind::Switch,
                },
                BusyInterval {
                    start: 4.0,
                    end: 10.0,
                    kind: BusyKind::Compute,
                },
            ],
        };
        assert_eq!(t.busy_cycles(), 10.0);
        assert_eq!(t.busy_cycles_of(BusyKind::Switch), 4.0);
        assert_eq!(t.busy_cycles_of(BusyKind::MemTraffic), 0.0);
    }

    #[test]
    fn mode_occupancy_partitions_array_time() {
        let r = EngineReport {
            total_cycles: 100.0,
            serialized_cycles: 100.0,
            switch_process_cycles: 0.0,
            switches_to_compute: 0,
            switches_to_memory: 0,
            breakdown: BusyBreakdown {
                switch: 20.0,
                weight_load: 30.0,
                compute: 50.0,
                mem_traffic: 100.0,
                vector: 7.0, // not array-time; must not appear below
            },
            segments: Vec::new(),
            energy: EnergyReport::default(),
            critical_path: Vec::new(),
        };
        assert_eq!(r.breakdown.total_array_cycles(), 200.0);
        let occ = r.mode_occupancy(4);
        assert!((occ.compute - 0.2).abs() < 1e-12);
        assert!((occ.memory - 0.25).abs() < 1e-12);
        assert!((occ.switching - 0.05).abs() < 1e-12);
        assert!((occ.idle - 0.5).abs() < 1e-12);
        assert!(
            (occ.compute + occ.memory + occ.switching + occ.idle - 1.0).abs() < 1e-12
        );
        // Degenerate pools report all-idle instead of dividing by zero.
        assert_eq!(r.mode_occupancy(0).idle, 1.0);
    }

    #[test]
    fn histogram_buckets_full_utilization_separately() {
        let timeline = |busy: f64| ArrayTimeline {
            array: ArrayId(0),
            final_mode: ArrayMode::Memory,
            intervals: vec![BusyInterval {
                start: 0.0,
                end: busy,
                kind: BusyKind::Compute,
            }],
        };
        let report = EngineReport {
            total_cycles: 100.0,
            serialized_cycles: 100.0,
            switch_process_cycles: 0.0,
            switches_to_compute: 0,
            switches_to_memory: 0,
            breakdown: BusyBreakdown::default(),
            segments: Vec::new(),
            energy: EnergyReport::default(),
            critical_path: Vec::new(),
        };
        let trace = EngineTrace {
            report,
            timelines: vec![timeline(99.5), timeline(94.0), timeline(5.0)],
        };
        let h = trace.utilization_histogram();
        assert_eq!(h[10], 1, "99.5% rounds to the 100% bucket");
        assert_eq!(h[9], 1);
        assert_eq!(h[0], 1);
    }
}
