//! The one price list: what a unit of work costs on a dual-mode chip,
//! for the compiler and for both simulators.
//!
//! The same prices appear in two shapes:
//!
//! * **Statement prices** — the cycles one emitted meta-operator takes:
//!   [`switch_duration`] (Eq. 1), [`load_duration`] (Eq. 2),
//!   [`mem_duration`] (a bulk move, such as Eq. 4's write-back),
//!   [`vector_duration`] (fused vector-unit work) and [`lane_duration`]
//!   (Eq. 10 for one compute statement), rolled up per segment body by
//!   [`segment_phases`] (the Eq. 2 load barrier, then the Eq. 9
//!   bottleneck). The sequential replay and the event engine in
//!   `cmswitch-sim` charge every statement through these, so the two
//!   price identical work identically, bit for bit, and may differ only
//!   in *scheduling* — which is what makes the
//!   engine-dominates-sequential invariant provable rather than
//!   approximate.
//! * **Plan prices** — [`CostModel`], the segmentation DP's objective:
//!   the same functions applied to the counts a plan implies.
//!   [`CostModel::op_latency`] is Eq. 10, [`CostModel::intra_latency`]
//!   Eq. 9, [`CostModel::switch_cost`] Eq. 1, [`CostModel::reload_cost`]
//!   Eq. 2 and [`CostModel::inter_cost`] Eq. 4.
//!
//! Eq. 10 is written once, and its rate term is the allocator's own
//! [`cmswitch_solver::alloc::op_latency`]: the allocator optimises, the
//! DP ranks and the simulators charge one formula, over chip constants
//! converted from the architecture in one place, [`CostModel::new`].

use cmswitch_arch::DualModeArch;
use cmswitch_metaop::{ComputeStmt, FlowOp, MemLoc, Stmt, SwitchKind};
use cmswitch_solver::alloc::{self, AllocChip, AllocOp, OpAlloc};

use crate::allocation::{OpAllocation, SegmentAllocation};
use crate::frontend::{DepIndex, OpList, SegOp};

/// Vector function-unit throughput used to cost the non-CIM operators
/// fused into segments (elementwise FLOPs per cycle).
pub const FU_FLOPS_PER_CYCLE: f64 = 64.0;

/// Cycles one `CM.switch` over `count` arrays takes — Eq. 1: the arrays
/// are reconfigured one after another at the per-array latency
/// `L_{m→c}` / `L_{c→m}`.
pub fn switch_duration(kind: SwitchKind, count: usize, arch: &DualModeArch) -> f64 {
    let per = match kind {
        SwitchKind::ToCompute => arch.switch_m2c_cycles(),
        SwitchKind::ToMemory => arch.switch_c2m_cycles(),
    };
    per as f64 * count as f64
}

/// Cycles a weight load over `count` arrays takes — Eq. 2: the per-array
/// cell-write latency, serialized across one operator's arrays
/// (different operators' loads overlap).
pub fn load_duration(count: usize, arch: &DualModeArch) -> f64 {
    count as f64 * arch.lat_write_array() as f64
}

/// Cycles `bytes` take to move at the bandwidth of `loc`: the
/// main-memory link, the original on-chip buffer, or the aggregate
/// bandwidth of the addressed memory-mode arrays.
pub fn mem_duration(bytes: u64, loc: &MemLoc, arch: &DualModeArch) -> f64 {
    let bw = match loc {
        MemLoc::Main => arch.extern_bw() as f64,
        MemLoc::Buffer => arch.d_main(),
        MemLoc::CimArrays(a) => (a.len().max(1) as f64) * arch.d_cim(),
    };
    bytes as f64 / bw
}

/// Cycles the vector function unit takes for `flops`.
pub fn vector_duration(flops: u64) -> f64 {
    flops as f64 / FU_FLOPS_PER_CYCLE
}

/// Execution-lane time of one compute statement — Eq. 10 over the
/// arrays it names and the shape of its entry in `ops` (the flow's op
/// table), plus the vector statements of the same body that name the
/// same op: an op's fused vector work runs in its lane. Weight loads are
/// a separate phase (Eq. 2), accounted by [`segment_phases`], which
/// prices every lane of a body at once, to the same bits.
///
/// # Panics
///
/// If `c` names an op past `ops` (`metaop::validate` rejects such a
/// flow, and both simulators run it first).
pub fn lane_duration(ops: &[FlowOp], c: &ComputeStmt, body: &[Stmt], arch: &DualModeArch) -> f64 {
    let aux = body.iter().filter_map(aux_work).filter(|&(op, _)| op == c.op);
    let aux_cycles = aux.fold(0.0, |sum, (_, cycles)| sum + cycles);
    CostModel::new(arch).lane_latency(&ops[c.op as usize], c, aux_cycles)
}

/// The op a vector statement's fused work belongs to, and its cycles.
fn aux_work(s: &Stmt) -> Option<(u32, f64)> {
    match s {
        Stmt::Vector(v) => Some((v.op, vector_duration(v.flops))),
        _ => None,
    }
}

/// Analytic lower bound on [`lane_duration`] of any compute statement of
/// `op` wherever it is placed: its Eq. 9/10 rate term with the whole
/// chip granted, the bound [`CostModel::op_latency_lower_bound`] starts
/// from.
pub fn lane_lower_bound(op: &FlowOp, arch: &DualModeArch) -> f64 {
    let cm = CostModel::new(arch);
    let (work, ai) = lane_work_ai(op);
    alloc::latency_lower_bound(&[cm.solver_op(work, ai, 1)], &cm.chip)
}

/// An op-table entry's MACs and arithmetic intensity (MACs per streamed
/// input byte, infinite when nothing streams).
fn lane_work_ai(op: &FlowOp) -> (f64, f64) {
    let work = (op.units * op.m * op.k * op.n) as f64;
    let ai = if op.in_bytes == 0 {
        f64::INFINITY
    } else {
        work / op.in_bytes as f64
    };
    (work, ai)
}

/// The two phases of one segment body (Fig. 10 step 3 then execution).
///
/// First every operator's weights are written into its compute arrays —
/// per-op loads overlap, serialized within one op, so the phase takes
/// `max_o(Com_o · Latency_write)` exactly as Eq. 2 — then the pipelined
/// execution phase runs, taking the slowest lane (Eq. 9). Body-level
/// memory statements without a lane execute alongside the lanes as one
/// serialized pseudo-lane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegmentPhases {
    /// Weight-load barrier: `max` over per-op load durations.
    pub load_phase: f64,
    /// Slowest compute lane.
    pub exec_phase: f64,
    /// Summed cycles of body memory statements without a lane.
    pub loose_cycles: f64,
    /// Number of compute operators in the body.
    pub n_ops: usize,
}

impl SegmentPhases {
    /// Cycles the post-barrier part of the segment takes: the slowest of
    /// the compute lanes and the loose-memory pseudo-lane.
    pub fn exec_and_loose(&self) -> f64 {
        self.exec_phase.max(self.loose_cycles)
    }

    /// Total segment cycles when nothing overlaps from outside:
    /// `load_phase + max(exec, loose)`.
    pub fn total(&self) -> f64 {
        self.load_phase + self.exec_and_loose()
    }
}

/// Computes the phase timings of one segment body of a flow whose op
/// table is `ops`, and the price of each of its lanes: `lanes` is
/// cleared and receives [`lane_duration`] of every compute statement, in
/// body order.
///
/// # Panics
///
/// As [`lane_duration`], if a compute statement names an op past `ops`.
pub fn segment_phases(
    ops: &[FlowOp],
    body: &[Stmt],
    arch: &DualModeArch,
    lanes: &mut Vec<f64>,
) -> SegmentPhases {
    let computes = || {
        body.iter().filter_map(|s| match s {
            Stmt::Compute(c) => Some(c),
            _ => None,
        })
    };
    // The fused vector cycles per lane, gathered in one pass over the
    // body: each vector statement adds into the lanes of its op, so every
    // lane sums them in body order, as `lane_duration` does.
    lanes.clear();
    lanes.extend(computes().map(|_| 0.0));
    for (op, cycles) in body.iter().filter_map(aux_work) {
        for (aux, c) in lanes.iter_mut().zip(computes()) {
            if c.op == op {
                *aux += cycles;
            }
        }
    }
    let cm = CostModel::new(arch);
    let mut phases = SegmentPhases::default();
    let mut lane = lanes.iter_mut();
    for stmt in body {
        match stmt {
            Stmt::Compute(c) => {
                let price = lane.next().expect("one lane per compute statement");
                *price = cm.lane_latency(&ops[c.op as usize], c, *price);
                phases.n_ops += 1;
                phases.exec_phase = phases.exec_phase.max(*price);
            }
            Stmt::LoadWeights(w) => {
                phases.load_phase = phases.load_phase.max(load_duration(w.arrays.len(), arch));
            }
            Stmt::Vector(_) => {} // folded into the lanes of its op
            Stmt::Mem(m) => phases.loose_cycles += mem_duration(m.bytes, &m.loc, arch),
            Stmt::Switch { .. } | Stmt::Parallel(_) => {}
        }
    }
    phases
}

/// The cost model, parameterized by the target architecture.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    arch: &'a DualModeArch,
    /// `arch` as the Eq. 9/10 allocation problem sees it (`OP_cim`,
    /// `D_cim`, `N_cim`).
    pub(crate) chip: AllocChip,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model for `arch`.
    pub fn new(arch: &'a DualModeArch) -> Self {
        CostModel {
            arch,
            chip: AllocChip {
                op_cim: arch.op_cim(),
                d_cim: arch.d_cim(),
                n_arrays: arch.n_arrays(),
            },
        }
    }

    /// The architecture being compiled for.
    pub fn arch(&self) -> &DualModeArch {
        self.arch
    }

    /// An operator of the solver's allocation problem. One streaming no
    /// input gets a finite stand-in intensity.
    fn solver_op(&self, work: f64, ai: f64, min_compute: usize) -> AllocOp {
        AllocOp {
            work,
            min_compute,
            ai: if ai.is_finite() { ai } else { 1e12 },
            d_main: self.arch.d_main(),
        }
    }

    /// `op` as an operator of the solver's allocation problem.
    pub(crate) fn alloc_op(&self, op: &SegOp) -> AllocOp {
        self.solver_op(op.work, op.ai(), op.min_tiles.max(1))
    }

    /// Cycles to write a runtime-produced resident operand (Q·Kᵀ, S·V)
    /// of `bytes` into the compute arrays. `memory` memory-mode arrays
    /// already holding the data (the paper's in-place K/V switch, §5.3)
    /// add their bandwidth to `D_main`.
    fn operand_write(&self, bytes: u64, memory: usize) -> f64 {
        bytes as f64 / (self.arch.d_main() + memory as f64 * self.chip.d_cim)
    }

    /// Eq. 10, written once:
    ///
    /// `L = OP / min(Com·OP_cim, (Mem·D_cim + D_main)·AI)` — the solver's
    /// [`alloc::op_latency`] — plus the dynamic-operand write (`None` for
    /// a static weight) and the fused vector-unit cycles.
    fn eq10_latency(
        &self,
        work: f64,
        ai: f64,
        arrays: OpAlloc,
        dynamic_operand: Option<u64>,
        aux_cycles: f64,
    ) -> f64 {
        // The allocation is given: its floor `min_compute` prices nothing.
        let op = AllocOp {
            work,
            min_compute: arrays.compute,
            ai,
            d_main: self.arch.d_main(),
        };
        alloc::op_latency(&op, arrays, &self.chip)
            + dynamic_operand.map_or(0.0, |bytes| self.operand_write(bytes, arrays.memory))
            + aux_cycles
    }

    /// Eq. 10 for one emitted compute statement of op `op`, given the
    /// cycles of its fused vector work.
    fn lane_latency(&self, op: &FlowOp, c: &ComputeStmt, aux_cycles: f64) -> f64 {
        let (work, ai) = lane_work_ai(op);
        let arrays = OpAlloc {
            compute: c.compute_arrays.len(),
            memory: c.mem_in_arrays.len() + c.mem_out_arrays.len(),
        };
        let dynamic_operand = (!op.weight_static).then_some((op.units * op.k * op.n) as u64);
        self.eq10_latency(work, ai, arrays, dynamic_operand, aux_cycles)
    }

    /// Operator latency under an allocation — Eq. 10, the price
    /// [`lane_duration`] charges the compute statement codegen emits for
    /// it: the streamed execution, the runtime-operand write for dynamic
    /// matmuls and the fused vector-unit work.
    pub fn op_latency(&self, op: &SegOp, alloc: &OpAllocation) -> f64 {
        let arrays = OpAlloc {
            compute: alloc.compute,
            memory: alloc.mem_in + alloc.mem_out,
        };
        let dynamic_operand = (!op.weight_static).then_some(op.weight_bytes);
        let aux_cycles = vector_duration(op.aux_flops);
        self.eq10_latency(op.work, op.ai(), arrays, dynamic_operand, aux_cycles)
    }

    /// Analytic lower bound on [`CostModel::op_latency`] over every
    /// allocation that fits the chip — the segmentation DP's pruning
    /// bound, computed without invoking any allocator.
    ///
    /// The rate part delegates to the solver's bound hook
    /// ([`cmswitch_solver::alloc::latency_lower_bound`], the Eq. 9/10
    /// relaxation with the whole chip granted to the op); the additive
    /// parts are [`CostModel::op_latency`]'s: dynamic operands are written
    /// at best through `D_main + N·D_cim`, and the fused vector-unit work
    /// is allocation-independent.
    pub fn op_latency_lower_bound(&self, op: &SegOp) -> f64 {
        let n = self.chip.n_arrays;
        alloc::latency_lower_bound(&[self.alloc_op(op)], &self.chip)
            + (!op.weight_static)
                .then_some(op.weight_bytes)
                .map_or(0.0, |bytes| self.operand_write(bytes, n))
            + vector_duration(op.aux_flops)
    }

    /// Intra-segment latency — Eq. 9: the pipeline bottleneck, i.e. the
    /// maximum operator latency in the segment.
    pub fn intra_latency(&self, ops: &[SegOp], alloc: &SegmentAllocation) -> f64 {
        ops.iter()
            .zip(&alloc.ops)
            .map(|(op, a)| self.op_latency(op, a))
            .fold(0.0, f64::max)
    }

    /// Mode-switch latency between adjacent segments — Eq. 1:
    /// `T_swc = L_{m→c}·Switch_{m→c} + L_{c→m}·Switch_{c→m}`, each term
    /// a [`switch_duration`].
    ///
    /// Idle arrays rest in memory mode, so the switch counts follow the
    /// change in total compute arrays.
    pub fn switch_cost(&self, prev: &SegmentAllocation, next: &SegmentAllocation) -> f64 {
        let (c_prev, c_next) = (prev.total_compute(), next.total_compute());
        let (m2c, c2m) = (c_next.saturating_sub(c_prev), c_prev.saturating_sub(c_next));
        switch_duration(SwitchKind::ToCompute, m2c, self.arch)
            + switch_duration(SwitchKind::ToMemory, c2m, self.arch)
    }

    /// Weight-reload latency for the next segment — Eq. 2:
    /// `T_rw = max_{O_l ∈ S} Com_{O_l} · Latency_write`, the largest
    /// [`load_duration`] over static-weight operators (dynamic operands
    /// are written during execution and costed in
    /// [`CostModel::op_latency`]).
    pub fn reload_cost(&self, ops: &[SegOp], alloc: &SegmentAllocation) -> f64 {
        ops.iter()
            .zip(&alloc.ops)
            .filter(|(op, _)| op.weight_static)
            .map(|(_, a)| load_duration(a.compute, self.arch))
            .fold(0.0, f64::max)
    }

    /// Bytes of live data crossing out of `prev_range` that the next
    /// segment cannot carry on chip (Fig. 10 step 1): data for the next
    /// segment beyond its memory arrays plus the buffer, and all data for
    /// later segments. Codegen writes exactly these bytes back.
    pub(crate) fn spill_bytes(
        &self,
        deps: &DepIndex,
        prev_range: (usize, usize),
        next_range: (usize, usize),
        next_alloc: &SegmentAllocation,
    ) -> u64 {
        let (to_next, beyond) = deps.crossing_bytes(prev_range, next_range);
        // Capacity the next segment offers for carried-over data.
        let carry_capacity =
            self.arch.mem_capacity(next_alloc.total_memory()) + self.arch.buffer_bytes();
        to_next.saturating_sub(carry_capacity) + beyond
    }

    /// Write-back latency — Eq. 4's `T_wb`: the main-memory price of
    /// twice the live bytes crossing out of `prev_range` that the next
    /// segment cannot carry on chip, because spilled bytes are written out
    /// and read back later.
    ///
    /// Known over-charge, kept until prediction and execution are
    /// reconciled: codegen emits one `Write` of the spilled bytes and no
    /// read-back, so both simulators charge half of this. On DynaPlasia
    /// (registry at batch 1, seq 16) every spilling model shows it —
    /// bert-base 1 536 charged vs 768 emitted cycles, resnet50
    /// 256 vs 128, vgg16 6 163 vs 3 081, llama2-7b 1 890 973 vs 945 487,
    /// opt-6.7b 1 597 616 vs 798 808, opt-13b 2 631 193 vs 1 315 597 —
    /// and on llama2-7b the difference is 99.6 % of the gap between
    /// predicted and sequential cycles. Fixing either side moves plans.
    pub fn writeback_cost(
        &self,
        deps: &DepIndex,
        prev_range: (usize, usize),
        next_range: (usize, usize),
        next_alloc: &SegmentAllocation,
    ) -> f64 {
        let spill = self.spill_bytes(deps, prev_range, next_range, next_alloc);
        mem_duration(2 * spill, &MemLoc::Main, self.arch)
    }

    /// Write-back of the network's final outputs to main memory.
    pub fn final_writeback_cost(&self, list: &OpList) -> f64 {
        mem_duration(list.output_bytes(), &MemLoc::Main, self.arch)
    }

    /// Total inter-segment cost before segment `next_range` — Eq. 4:
    /// `T_inter = T_wb + T_swc + T_rw`.
    ///
    /// `prev` is the previous segment's range and allocation, `None` for
    /// the first segment: nothing is live yet, and every array starts in
    /// memory mode.
    pub fn inter_cost(
        &self,
        deps: &DepIndex,
        prev: Option<((usize, usize), &SegmentAllocation)>,
        next_range: (usize, usize),
        next_ops: &[SegOp],
        next_alloc: &SegmentAllocation,
    ) -> f64 {
        let empty = SegmentAllocation::empty();
        let (writeback, prev_alloc) = match prev {
            Some((prev_range, prev_alloc)) => (
                self.writeback_cost(deps, prev_range, next_range, next_alloc),
                prev_alloc,
            ),
            None => (0.0, &empty),
        };
        writeback
            + self.switch_cost(prev_alloc, next_alloc)
            + self.reload_cost(next_ops, next_alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{OpAllocation, SegmentAllocation};
    use cmswitch_arch::{presets, ArrayId};
    use cmswitch_metaop::{VectorStmt, WeightLoadStmt};

    fn op(work: f64, in_bytes: u64, weight_static: bool) -> SegOp {
        SegOp {
            source: 0,
            name: "op".into(),
            m: 8,
            k: 64,
            n: 64,
            units: 1,
            weight_static,
            work,
            in_bytes,
            out_bytes: 512,
            weight_bytes: 4096,
            aux_flops: 0,
            min_tiles: 1,
        }
    }

    fn seg_alloc(allocs: Vec<OpAllocation>) -> SegmentAllocation {
        SegmentAllocation {
            ops: allocs,
            reuse: Vec::new(),
            latency: 0.0,
        }
    }

    /// An op table of static `[m,64]·[64,64]` ops, op `i` streaming
    /// `ms[i]` rows.
    fn table(ms: &[usize]) -> Vec<FlowOp> {
        let op = |m: usize| FlowOp {
            name: format!("op{m}").into(),
            source: 0,
            m,
            k: 64,
            n: 64,
            units: 1,
            in_bytes: (m * 64) as u64,
            out_bytes: (m * 64) as u64,
            weight_static: true,
        };
        ms.iter().map(|&m| op(m)).collect()
    }

    fn compute(op: u32, arrays: Vec<ArrayId>) -> Stmt {
        Stmt::Compute(ComputeStmt {
            op,
            compute_arrays: arrays.into(),
            mem_in_arrays: vec![].into(),
            mem_out_arrays: vec![].into(),
        })
    }

    #[test]
    fn switch_duration_serializes_arrays() {
        let arch = presets::tiny();
        let one = switch_duration(SwitchKind::ToCompute, 1, &arch);
        let four = switch_duration(SwitchKind::ToCompute, 4, &arch);
        assert_eq!(four, 4.0 * one);
        assert_eq!(one, arch.switch_m2c_cycles() as f64);
    }

    #[test]
    fn mem_duration_uses_location_bandwidth() {
        let arch = presets::tiny();
        let main = mem_duration(1024, &MemLoc::Main, &arch);
        let buffer = mem_duration(1024, &MemLoc::Buffer, &arch);
        let cim = mem_duration(
            1024,
            &MemLoc::CimArrays(vec![ArrayId(0), ArrayId(1)].into()),
            &arch,
        );
        assert_eq!(main, 1024.0 / arch.extern_bw() as f64);
        assert_eq!(buffer, 1024.0 / arch.d_main());
        assert_eq!(cim, 1024.0 / (2.0 * arch.d_cim()));
    }

    #[test]
    fn segment_phases_take_max_load_and_max_lane() {
        let arch = presets::tiny();
        let ops = table(&[8, 512]);
        let body = vec![
            Stmt::LoadWeights(WeightLoadStmt {
                op: 0,
                arrays: vec![ArrayId(0)].into(),
                bytes: 64,
            }),
            Stmt::LoadWeights(WeightLoadStmt {
                op: 1,
                arrays: vec![ArrayId(1), ArrayId(2)].into(),
                bytes: 128,
            }),
            compute(0, vec![ArrayId(0)]),
            compute(1, vec![ArrayId(1), ArrayId(2)]),
        ];
        let mut lanes = Vec::new();
        let p = segment_phases(&ops, &body, &arch, &mut lanes);
        assert_eq!(p.n_ops, 2);
        assert_eq!(p.load_phase, load_duration(2, &arch));
        assert_eq!(
            p.exec_phase,
            lane_duration(
                &ops,
                match &body[3] {
                    Stmt::Compute(c) => c,
                    _ => unreachable!(),
                },
                &body,
                &arch
            )
        );
        assert_eq!(p.total(), p.load_phase + p.exec_phase.max(p.loose_cycles));
    }

    #[test]
    fn segment_phases_price_every_lane_as_lane_duration() {
        // Vector work before and after its op, an op with two lanes, and
        // a vector statement of an op with no lane in the body.
        let arch = presets::tiny();
        let ops = table(&[8, 64, 16]);
        let (a, b, c) = (0, 1, 2);
        let aux = |op, flops| Stmt::Vector(VectorStmt { op, flops });
        let body = vec![
            aux(a, 100),
            compute(a, vec![ArrayId(0)]),
            compute(b, vec![ArrayId(1)]),
            aux(a, 37),
            compute(a, vec![ArrayId(2)]),
            aux(c, 1000),
        ];
        let mut lanes = vec![1.0; 9];
        let p = segment_phases(&ops, &body, &arch, &mut lanes);
        let expected: Vec<u64> = body
            .iter()
            .filter_map(|s| match s {
                Stmt::Compute(c) => Some(lane_duration(&ops, c, &body, &arch).to_bits()),
                _ => None,
            })
            .collect();
        assert_eq!(lanes.iter().map(|l| l.to_bits()).collect::<Vec<_>>(), expected);
        assert_eq!(p.exec_phase, lanes.iter().copied().fold(0.0, f64::max));
        // Both vector statements of `a` fuse into each of its lanes, in
        // body order; `b`'s lane fuses none.
        let Stmt::Compute(a0) = &body[1] else { unreachable!() };
        let Stmt::Compute(b0) = &body[2] else { unreachable!() };
        let aux = vector_duration(100) + vector_duration(37);
        assert_eq!(lanes[0], lane_duration(&ops, a0, &[], &arch) + aux);
        assert_eq!(lanes[2], lane_duration(&ops, a0, &[], &arch) + aux);
        assert_eq!(lanes[1], lane_duration(&ops, b0, &[], &arch));
    }

    #[test]
    fn latency_compute_bound_scales_with_arrays() {
        let arch = presets::dynaplasia();
        let cm = CostModel::new(&arch);
        let o = op(1e9, 1024, true); // AI huge -> compute bound
        let l1 = cm.op_latency(
            &o,
            &OpAllocation {
                compute: 1,
                mem_in: 0,
                mem_out: 0,
            },
        );
        let l4 = cm.op_latency(
            &o,
            &OpAllocation {
                compute: 4,
                mem_in: 0,
                mem_out: 0,
            },
        );
        assert!((l1 / l4 - 4.0).abs() < 1e-6);
    }

    #[test]
    fn latency_memory_bound_improves_with_memory_arrays() {
        let arch = presets::dynaplasia();
        let cm = CostModel::new(&arch);
        // AI = 1: work == in_bytes.
        let o = op(1e6, 1_000_000, true);
        let base = cm.op_latency(
            &o,
            &OpAllocation {
                compute: 8,
                mem_in: 0,
                mem_out: 0,
            },
        );
        let with_mem = cm.op_latency(
            &o,
            &OpAllocation {
                compute: 8,
                mem_in: 8,
                mem_out: 8,
            },
        );
        assert!(with_mem < base);
    }

    #[test]
    fn zero_compute_is_infinite() {
        let arch = presets::dynaplasia();
        let cm = CostModel::new(&arch);
        let l = cm.op_latency(
            &op(1e6, 1024, true),
            &OpAllocation {
                compute: 0,
                mem_in: 0,
                mem_out: 0,
            },
        );
        assert!(l.is_infinite());
    }

    #[test]
    fn dynamic_op_pays_operand_write() {
        let arch = presets::dynaplasia();
        let cm = CostModel::new(&arch);
        let alloc = OpAllocation {
            compute: 4,
            mem_in: 0,
            mem_out: 0,
        };
        let s = cm.op_latency(&op(1e6, 1024, true), &alloc);
        let d = cm.op_latency(&op(1e6, 1024, false), &alloc);
        assert!(d > s);
        assert!((d - s - 4096.0 / arch.d_main()).abs() < 1e-6);
    }

    #[test]
    fn switch_cost_counts_mode_deltas() {
        let arch = presets::dynaplasia();
        let cm = CostModel::new(&arch);
        let a = seg_alloc(vec![OpAllocation {
            compute: 10,
            mem_in: 2,
            mem_out: 2,
        }]);
        let b = seg_alloc(vec![OpAllocation {
            compute: 4,
            mem_in: 8,
            mem_out: 0,
        }]);
        // 10 -> 4 compute arrays: 6 switch to memory at 1 cycle each.
        assert!((cm.switch_cost(&a, &b) - 6.0).abs() < 1e-9);
        assert!((cm.switch_cost(&b, &a) - 6.0).abs() < 1e-9);
        assert_eq!(cm.switch_cost(&a, &a), 0.0);
    }

    #[test]
    fn reload_cost_is_max_over_static_ops() {
        let arch = presets::dynaplasia();
        let cm = CostModel::new(&arch);
        let ops = vec![op(1.0, 1, true), op(1.0, 1, true), op(1.0, 1, false)];
        let alloc = seg_alloc(vec![
            OpAllocation {
                compute: 3,
                mem_in: 0,
                mem_out: 0,
            },
            OpAllocation {
                compute: 7,
                mem_in: 0,
                mem_out: 0,
            },
            OpAllocation {
                compute: 50,
                mem_in: 0,
                mem_out: 0,
            },
        ]);
        let expect = 7.0 * arch.lat_write_array() as f64; // dynamic op ignored
        assert!((cm.reload_cost(&ops, &alloc) - expect).abs() < 1e-9);
    }

    #[test]
    fn intra_latency_is_bottleneck() {
        let arch = presets::dynaplasia();
        let cm = CostModel::new(&arch);
        let ops = vec![op(1e9, 1024, true), op(1e6, 1024, true)];
        let alloc = seg_alloc(vec![
            OpAllocation {
                compute: 2,
                mem_in: 0,
                mem_out: 0,
            },
            OpAllocation {
                compute: 2,
                mem_in: 0,
                mem_out: 0,
            },
        ]);
        let l = cm.intra_latency(&ops, &alloc);
        let l0 = cm.op_latency(&ops[0], &alloc.ops[0]);
        assert_eq!(l, l0);
    }
}
