//! Energy estimation for meta-operator flows.
//!
//! The paper argues dual-mode switching "can significantly boost overall
//! system performance **and energy efficiency**" (§3.2) but reports only
//! latency; this module makes the energy claim checkable. Per-event
//! energies follow the usual CIM-accelerator accounting (ISAAC/PRIME
//! style, normalized units): in-array MACs are cheap, on-chip SRAM/eDRAM
//! accesses cost ~an order of magnitude more per byte, and off-chip DRAM
//! traffic costs ~two orders more — which is exactly why keeping
//! activations in memory-mode arrays saves energy.

use cmswitch_arch::DualModeArch;
use cmswitch_metaop::{Flow, FlowOp, MemLoc, Stmt};

/// Per-event energy coefficients in picojoules (normalized; defaults are
/// representative of 8-bit CIM accelerators).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Energy per in-array MAC.
    pub pj_per_mac: f64,
    /// Energy per byte moved to/from memory-mode CIM arrays or the
    /// on-chip buffer.
    pub pj_per_onchip_byte: f64,
    /// Energy per byte moved to/from off-chip main memory.
    pub pj_per_dram_byte: f64,
    /// Energy per array-cell-write byte (weight/operand loads).
    pub pj_per_write_byte: f64,
    /// Energy per array mode switch (driver reconfiguration).
    pub pj_per_switch: f64,
    /// Energy per vector-unit FLOP.
    pub pj_per_vector_flop: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            pj_per_mac: 0.05,
            pj_per_onchip_byte: 1.0,
            pj_per_dram_byte: 60.0,
            pj_per_write_byte: 2.0,
            pj_per_switch: 10.0,
            pj_per_vector_flop: 0.5,
        }
    }
}

/// Energy breakdown of a flow execution, picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// In-array compute energy.
    pub compute_pj: f64,
    /// On-chip data movement (memory-mode arrays + buffer).
    pub onchip_pj: f64,
    /// Off-chip DRAM traffic (streamed inputs beyond on-chip supply,
    /// write-backs, weight fetches).
    pub dram_pj: f64,
    /// Array write energy (weight/operand loading).
    pub write_pj: f64,
    /// Mode-switch energy.
    pub switch_pj: f64,
    /// Vector function-unit energy.
    pub vector_pj: f64,
}

impl EnergyReport {
    /// Adds `other` into this report, component by component — the
    /// reduction used when summing per-model (or per-tenant) reports
    /// into a workload/chip total.
    pub fn absorb(&mut self, other: &EnergyReport) {
        self.compute_pj += other.compute_pj;
        self.onchip_pj += other.onchip_pj;
        self.dram_pj += other.dram_pj;
        self.write_pj += other.write_pj;
        self.switch_pj += other.switch_pj;
        self.vector_pj += other.vector_pj;
    }

    /// Total energy, picojoules.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj
            + self.onchip_pj
            + self.dram_pj
            + self.write_pj
            + self.switch_pj
            + self.vector_pj
    }
}

/// Estimates the energy of executing `flow` on `arch`.
///
/// Streamed operator inputs are split between on-chip supply (memory-mode
/// arrays, proportional to their share of the operator's bandwidth) and
/// DRAM — the same resource model the timing simulator uses, so latency
/// and energy winners agree for the right reason.
pub fn estimate(flow: &Flow, arch: &DualModeArch, model: &EnergyModel) -> EnergyReport {
    fn visit(
        ops: &[FlowOp],
        stmts: &[Stmt],
        arch: &DualModeArch,
        model: &EnergyModel,
        report: &mut EnergyReport,
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::Parallel(body) => visit(ops, body, arch, model, report),
                other => accumulate_stmt(ops, other, arch, model, report),
            }
        }
    }
    let mut report = EnergyReport::default();
    visit(flow.ops(), flow.stmts(), arch, model, &mut report);
    report
}

/// Charges one non-`parallel` statement's energy into `report`.
///
/// This is the per-event accounting both [`estimate`] and the event
/// engine ([`crate::engine`]) use — energy is schedule-invariant, so
/// attributing the same statements through the same function guarantees
/// the two agree component-for-component regardless of how the events
/// were scheduled. `parallel` blocks are containers, not events; passing
/// one charges nothing. A compute statement is charged by its op's
/// shape in `ops` (the flow's op table); one naming an op past the
/// table, which `metaop::validate` rejects, charges nothing.
pub fn accumulate_stmt(
    ops: &[FlowOp],
    stmt: &Stmt,
    arch: &DualModeArch,
    model: &EnergyModel,
    report: &mut EnergyReport,
) {
    match stmt {
        Stmt::Parallel(_) => {}
        Stmt::Switch { arrays, .. } => {
            report.switch_pj += arrays.len() as f64 * model.pj_per_switch;
        }
        Stmt::Compute(c) => {
            let Some(op) = ops.get(c.op as usize) else { return };
            let macs = (op.units * op.m * op.k * op.n) as f64;
            report.compute_pj += macs * model.pj_per_mac;
            // Input stream: memory-mode arrays supply their bandwidth
            // share, the rest comes over the DRAM link.
            let mem_bw =
                (c.mem_in_arrays.len() + c.mem_out_arrays.len()) as f64 * arch.d_cim();
            let total_bw = mem_bw + arch.d_main();
            let onchip_share = if total_bw > 0.0 { mem_bw / total_bw } else { 0.0 };
            let moved = (op.in_bytes + op.out_bytes) as f64;
            report.onchip_pj += moved * onchip_share * model.pj_per_onchip_byte;
            report.dram_pj += moved * (1.0 - onchip_share) * model.pj_per_dram_byte;
            let operand = (op.units * op.k * op.n) as f64;
            if op.weight_static {
                // Static weights are fetched from DRAM once per
                // segment, regardless of how many replicas the arrays
                // hold (the cell-write energy of replication is
                // charged at the LoadWeights statement).
                report.dram_pj += operand * model.pj_per_dram_byte;
            } else {
                // Runtime operand written into the arrays.
                report.write_pj += operand * model.pj_per_write_byte;
                report.onchip_pj += operand * onchip_share * model.pj_per_onchip_byte;
                report.dram_pj +=
                    operand * (1.0 - onchip_share) * model.pj_per_dram_byte;
            }
        }
        Stmt::LoadWeights(w) => {
            report.write_pj += w.bytes as f64 * model.pj_per_write_byte;
        }
        Stmt::Mem(m) => {
            let bytes = m.bytes as f64;
            match m.loc {
                MemLoc::Main => report.dram_pj += bytes * model.pj_per_dram_byte,
                MemLoc::Buffer | MemLoc::CimArrays(_) => {
                    report.onchip_pj += bytes * model.pj_per_onchip_byte
                }
            }
        }
        Stmt::Vector(v) => {
            report.vector_pj += v.flops as f64 * model.pj_per_vector_flop;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;
    use cmswitch_core::Session;

    fn flow_of(dims: &[usize]) -> (Flow, DualModeArch) {
        let arch = presets::tiny();
        let g = cmswitch_models::mlp::mlp(2, dims).unwrap();
        let p = Session::builder(arch.clone())
            .build()
            .compile_graph(&g)
            .unwrap();
        (p.flow, arch)
    }

    #[test]
    fn breakdown_sums_to_total() {
        let (flow, arch) = flow_of(&[128, 256, 64]);
        let r = estimate(&flow, &arch, &EnergyModel::default());
        let sum = r.compute_pj + r.onchip_pj + r.dram_pj + r.write_pj + r.switch_pj + r.vector_pj;
        assert!((r.total_pj() - sum).abs() < 1e-9);
        assert!(r.total_pj() > 0.0);
        assert!(r.compute_pj > 0.0);
        assert!(r.switch_pj > 0.0);
    }

    #[test]
    fn bigger_network_costs_more() {
        let (small, arch) = flow_of(&[64, 64]);
        let (large, _) = flow_of(&[128, 256, 128]);
        let m = EnergyModel::default();
        assert!(estimate(&large, &arch, &m).total_pj() > estimate(&small, &arch, &m).total_pj());
    }

    #[test]
    fn memory_arrays_reduce_dram_energy() {
        // Same compute statement with and without memory-mode arrays: the
        // on-chip share grows, DRAM energy falls.
        use cmswitch_arch::ArrayId;
        use cmswitch_metaop::{ComputeStmt, FlowOp, Stmt, SwitchKind};
        let arch = presets::dynaplasia();
        let m = EnergyModel::default();
        let mk = |mem: Vec<ArrayId>| {
            let mut f = Flow::new("e");
            let fc = f.push_op(FlowOp {
                name: "fc".into(),
                source: 0,
                m: 64,
                k: 64,
                n: 64,
                units: 1,
                in_bytes: 4096,
                out_bytes: 4096,
                weight_static: true,
            });
            f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
            f.push(Stmt::Compute(ComputeStmt {
                op: fc,
                compute_arrays: vec![ArrayId(0)].into(),
                mem_in_arrays: mem.into(),
                mem_out_arrays: vec![].into(),
            }));
            f
        };
        let without = estimate(&mk(vec![]), &arch, &m);
        let with = estimate(
            &mk((1..40).map(ArrayId).collect()),
            &arch,
            &m,
        );
        assert!(with.dram_pj < without.dram_pj);
        assert!(with.total_pj() < without.total_pj());
    }

    #[test]
    fn cmswitch_saves_energy_vs_all_compute_on_bandwidth_bound_work() {
        // The §3.2 energy-efficiency claim, checked end-to-end: compile a
        // bandwidth-hungry model both ways and compare energy.
        use cmswitch_baselines::{BackendKind, SessionBackendExt};
        use cmswitch_core::Session;
        let arch = presets::dynaplasia();
        let cfg = cmswitch_models::transformer::TransformerConfig {
            name: "tiny-opt".into(),
            layers: 2,
            hidden: 512,
            heads: 8,
            ffn_hidden: 2048,
            vocab: 1000,
            gated_ffn: false,
            lm_head: false,
        };
        let g = cmswitch_models::transformer::stack(&cfg, 4, 64).unwrap();
        let ours = Session::builder(arch.clone()).build().compile_graph(&g).unwrap();
        let mlc = Session::builder(arch.clone())
            .backend_kind(BackendKind::CimMlc)
            .build()
            .compile_graph(&g)
            .unwrap();
        let m = EnergyModel::default();
        let e_ours = estimate(&ours.flow, &arch, &m).total_pj();
        let e_mlc = estimate(&mlc.flow, &arch, &m).total_pj();
        assert!(
            e_ours <= e_mlc * 1.05,
            "cmswitch {e_ours:.3e} pJ vs mlc {e_mlc:.3e} pJ"
        );
    }
}
