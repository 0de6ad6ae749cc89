//! Flow↔graph consistency: the emitted meta-operator flow must execute
//! exactly the CIM work the graph contains — every lowered operator
//! appears exactly once, total MACs and weight bytes are conserved, and
//! switch statements reconcile with the segment allocations.

use std::collections::HashMap;

use cmswitch::graph::lower;
use cmswitch::metaop::Stmt;
use cmswitch::prelude::*;

fn compute_stmts(flow: &cmswitch::metaop::Flow) -> Vec<cmswitch::metaop::ComputeStmt> {
    let mut out = Vec::new();
    for stmt in flow.stmts() {
        match stmt {
            Stmt::Parallel(body) => {
                for s in body {
                    if let Stmt::Compute(c) = s {
                        out.push(c.clone());
                    }
                }
            }
            Stmt::Compute(c) => out.push(c.clone()),
            _ => {}
        }
    }
    out
}

#[test]
fn flow_covers_all_cim_work_exactly_once() {
    let graphs = [
        cmswitch::models::mlp::mlp(4, &[256, 512, 256, 64]).unwrap(),
        cmswitch::models::resnet::resnet18(1).unwrap(),
    ];
    for graph in graphs {
        let arch = presets::dynaplasia();
        let program = Session::builder(arch).build().compile_graph(&graph)
            .unwrap();
        let stmts = compute_stmts(&program.flow);

        // One compute statement per scheduled (sub-)operator, in order,
        // and the flow's op table is the program's ops.
        assert_eq!(stmts.len(), program.ops.len(), "{}", graph.name());
        let table = program.flow.ops();
        assert_eq!(table.len(), program.ops.len(), "{}", graph.name());
        for (i, (stmt, op)) in stmts.iter().zip(&program.ops).enumerate() {
            assert_eq!(stmt.op as usize, i);
            let entry = &table[i];
            assert_eq!(entry.name, op.name);
            assert_eq!((entry.m, entry.k, entry.n, entry.units), (op.m, op.k, op.n, op.units));
        }

        // MAC conservation against the unpartitioned lowering.
        let lowered = lower::lower(&graph).unwrap();
        let graph_macs: u64 = lowered.ops.iter().map(|o| o.macs).sum();
        let flow_macs: u64 = stmts
            .iter()
            .map(|c| &table[c.op as usize])
            .map(|op| (op.units * op.m * op.k * op.n) as u64)
            .sum();
        // Partitioning rounds chunk boundaries; allow 1% slack.
        let rel = (graph_macs as f64 - flow_macs as f64).abs() / graph_macs as f64;
        assert!(rel < 0.01, "{}: graph {graph_macs} flow {flow_macs}", graph.name());
    }
}

#[test]
fn per_op_allocation_matches_emitted_arrays() {
    let graph = cmswitch::models::mlp::mlp(2, &[256, 512, 128]).unwrap();
    let arch = presets::dynaplasia();
    let program = Session::builder(arch).build().compile_graph(&graph)
        .unwrap();
    let stmts = compute_stmts(&program.flow);
    let by_op: HashMap<u32, &cmswitch::metaop::ComputeStmt> =
        stmts.iter().map(|c| (c.op, c)).collect();
    for seg in &program.segments {
        let ops = &program.ops[seg.range.0..=seg.range.1];
        for (i, (name, alloc)) in ops.iter().map(|o| &o.name).zip(&seg.alloc.ops).enumerate() {
            let stmt = by_op[&((seg.range.0 + i) as u32)];
            assert_eq!(stmt.compute_arrays.len(), alloc.compute, "{name} compute");
            assert_eq!(stmt.mem_in_arrays.len(), alloc.mem_in, "{name} mem_in");
            assert_eq!(stmt.mem_out_arrays.len(), alloc.mem_out, "{name} mem_out");
        }
    }
}

#[test]
fn switch_statements_reconcile_with_allocations() {
    // Total arrays ever switched to compute must be at least the largest
    // per-segment compute demand and at most (switch ops can toggle back
    // and forth) the total across segments.
    let graph = cmswitch::models::mlp::mlp(1, &[256, 256, 256, 256]).unwrap();
    let arch = presets::tiny();
    let program = Session::builder(arch).build().compile_graph(&graph)
        .unwrap();
    let stats = program.flow.stats();
    let max_compute = program
        .segments
        .iter()
        .map(|s| s.alloc.total_compute() as u64)
        .max()
        .unwrap_or(0);
    let total_compute: u64 = program
        .segments
        .iter()
        .map(|s| s.alloc.total_compute() as u64)
        .sum();
    assert!(stats.arrays_to_compute >= max_compute);
    assert!(stats.arrays_to_compute <= total_compute);
}
