//! Timing simulation of meta-operator flows (the sequential reference
//! model).
//!
//! Executes a flow against the Table 2 latencies. The model matches the
//! compiler's analytic cost model (Eqs. 1, 2, 10) in its resource
//! assumptions — each operator lane sees `D_main` plus its own memory
//! arrays — but it executes the *actual emitted flow*: real switch
//! statements, real write-backs, real weight loads, after the flow has
//! passed [`cmswitch_metaop::validate_on`] for the chip. Segment bodies
//! run pipelined: each compute operator forms a lane (weight load →
//! operand write → streamed execution → fused vector work) and the
//! segment takes its slowest lane.
//!
//! Statements *between* segments execute strictly in flow order — this
//! is the sequential reference the event-driven [`crate::engine`] must
//! dominate. Both simulators price statements through the compiler's
//! price list ([`cmswitch_core::cost`]) and accumulate serial time in the
//! same barrier order (segment arrival → load barrier → execution), so on
//! a fully serial flow the two produce bit-identical totals.

use cmswitch_arch::DualModeArch;
use cmswitch_core::cost;
use cmswitch_metaop::{validate_on, Flow, MetaOpError, Stmt, SwitchKind};

use crate::stats::{SegmentTiming, SimReport};

/// Simulates `flow` on `arch`.
///
/// # Errors
///
/// Returns [`validate_on`]'s [`MetaOpError`] if the flow violates mode
/// discipline on this chip (a compiler bug this simulator exists to
/// catch).
pub fn simulate(flow: &Flow, arch: &DualModeArch) -> Result<SimReport, MetaOpError> {
    validate_on(flow, arch.n_arrays())?;
    let mut report = SimReport::default();
    let mut lanes = Vec::new();

    for (idx, stmt) in flow.stmts().iter().enumerate() {
        match stmt {
            Stmt::Parallel(body) => {
                let t = simulate_segment(flow, body, arch, idx, &mut lanes, &mut report);
                report.segment_cycles += t.cycles;
                report.segments.push(t);
            }
            Stmt::Switch { kind, arrays } => {
                match kind {
                    SwitchKind::ToCompute => {
                        report.switches_to_compute += arrays.len() as u64;
                    }
                    SwitchKind::ToMemory => {
                        report.switches_to_memory += arrays.len() as u64;
                    }
                }
                let cycles = cost::switch_duration(*kind, arrays.len(), arch);
                report.switch_cycles += cycles;
                report.total_cycles += cycles;
            }
            Stmt::Mem(m) => {
                let cycles = cost::mem_duration(m.bytes, &m.loc, arch);
                report.writeback_cycles += cycles;
                report.total_cycles += cycles;
            }
            Stmt::LoadWeights(w) => {
                // Eq. 2 semantics: per-array cell-write latency,
                // serialized across one op's arrays.
                let cycles = cost::load_duration(w.arrays.len(), arch);
                report.writeback_cycles += cycles;
                report.total_cycles += cycles;
            }
            Stmt::Vector(v) => {
                let cycles = cost::vector_duration(v.flops);
                report.vector_cycles += cycles;
                report.total_cycles += cycles;
            }
            Stmt::Compute(_) => {
                // A bare compute statement outside `parallel` is a
                // single-lane segment.
                let body = std::slice::from_ref(stmt);
                let t = simulate_segment(flow, body, arch, idx, &mut lanes, &mut report);
                report.segment_cycles += t.cycles;
                report.segments.push(t);
            }
        }
    }

    report.switch_process_cycles = report.switch_cycles + report.writeback_cycles;
    Ok(report)
}

/// One pipelined segment: lanes = compute ops with their attached weight
/// loads and fused vector statements. Advances `report.total_cycles` in
/// barrier order (load phase, then the slowest of execution lanes and
/// loose memory work) — the same association the event engine uses, so
/// serial flows compare bit-exactly across the two simulators.
fn simulate_segment(
    flow: &Flow,
    body: &[Stmt],
    arch: &DualModeArch,
    seg_idx: usize,
    lanes: &mut Vec<f64>,
    report: &mut SimReport,
) -> SegmentTiming {
    let phases = cost::segment_phases(flow.ops(), body, arch, lanes);
    report.total_cycles += phases.load_phase;
    report.total_cycles += phases.exec_and_loose();

    SegmentTiming {
        index: seg_idx,
        cycles: phases.total(),
        weight_load_cycles: phases.load_phase,
        compute_ops: phases.n_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;
    use cmswitch_core::Session;

    fn compiled(dims: &[usize]) -> (cmswitch_metaop::Flow, f64) {
        let g = cmswitch_models::mlp::mlp(2, dims).unwrap();
        let p = Session::builder(presets::tiny())
            .build()
            .compile_graph(&g)
            .unwrap();
        (p.flow, p.predicted_latency)
    }

    #[test]
    fn simulates_compiled_flow() {
        let (flow, predicted) = compiled(&[128, 256, 128, 64]);
        let r = simulate(&flow, &presets::tiny()).unwrap();
        assert!(r.total_cycles > 0.0);
        assert!(!r.segments.is_empty());
        // The simulator executes the same model the compiler predicts
        // with, so totals should land in the same ballpark (pipelining
        // details differ slightly).
        let ratio = r.total_cycles / predicted;
        assert!((0.3..3.0).contains(&ratio), "sim/predicted = {ratio}");
    }

    #[test]
    fn counts_switches() {
        let (flow, _) = compiled(&[128, 256, 128, 64]);
        let r = simulate(&flow, &presets::tiny()).unwrap();
        assert!(r.switches_to_compute > 0);
        assert!(r.switch_cycles > 0.0);
        assert!(r.switch_process_fraction() < 0.5);
    }

    #[test]
    fn segment_takes_slowest_lane() {
        // Hand-build a segment with two unequal lanes.
        use cmswitch_arch::ArrayId;
        use cmswitch_metaop::{ComputeStmt, Flow, FlowOp, Stmt, SwitchKind};
        let arch = presets::tiny();
        let mut flow = Flow::new("t");
        flow.push(Stmt::switch(
            SwitchKind::ToCompute,
            vec![ArrayId(0), ArrayId(1)],
        ));
        let mut mk = |name: &str, arrays: Vec<ArrayId>, m: usize| {
            let op = flow.push_op(FlowOp {
                name: name.into(),
                m,
                k: 64,
                n: 64,
                units: 1,
                in_bytes: (m * 64) as u64,
                out_bytes: (m * 64) as u64,
                weight_static: true,
            });
            Stmt::Compute(ComputeStmt {
                op,
                compute_arrays: arrays.into(),
                mem_in_arrays: vec![].into(),
                mem_out_arrays: vec![].into(),
            })
        };
        let body = vec![
            mk("small", vec![ArrayId(0)], 8),
            mk("big", vec![ArrayId(1)], 512),
        ];
        flow.push(Stmt::Parallel(body));
        let r = simulate(&flow, &arch).unwrap();
        // Big lane: work = 512*64*64 at min(1*256, ...) rate; small lane
        // strictly less. The segment equals the big lane, not the sum.
        let seg = &r.segments[0];
        assert_eq!(seg.compute_ops, 2);
        let big_work = (512 * 64 * 64) as f64;
        let big_exec_lower_bound = big_work / (arch.n_arrays() as f64 * arch.op_cim());
        assert!(seg.cycles >= big_exec_lower_bound);
    }

    #[test]
    fn mode_violation_surfaces() {
        use cmswitch_arch::ArrayId;
        use cmswitch_metaop::{ComputeStmt, Flow, FlowOp, MetaOpError, Stmt};
        let mut flow = Flow::new("bad");
        let fc = flow.push_op(FlowOp {
            name: "fc".into(),
            m: 1,
            k: 1,
            n: 1,
            units: 1,
            in_bytes: 1,
            out_bytes: 1,
            weight_static: true,
        });
        let compute = |op| {
            Stmt::Compute(ComputeStmt {
                op,
                compute_arrays: vec![ArrayId(0)].into(), // still memory mode!
                mem_in_arrays: vec![].into(),
                mem_out_arrays: vec![].into(),
            })
        };
        flow.push(Stmt::Parallel(vec![compute(fc)]));
        assert!(matches!(
            simulate(&flow, &presets::tiny()),
            Err(MetaOpError::ModeViolation { .. })
        ));
    }
}
