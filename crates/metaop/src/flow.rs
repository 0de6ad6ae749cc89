use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use cmswitch_arch::ArrayMode;

use crate::{FlowOp, Stmt, SwitchKind};

/// A complete meta-operator flow: the compiler's output for one network.
///
/// It holds one op table ([`Flow::ops`]) and the statement sequence. A
/// compute, weight-load or vector statement names its operator by its
/// index in the table, so names and shapes are stored once per
/// operator. The table is not checked against the statements when they
/// are pushed: [`crate::validate`] rejects an index past it
/// ([`crate::MetaOpError::UnknownOp`]), and so does every checker that
/// reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    name: String,
    ops: Vec<FlowOp>,
    stmts: Vec<Stmt>,
}

/// Aggregate statistics of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlowStats {
    /// Number of `CM.switch` statements.
    pub switch_ops: u64,
    /// Total array-switches to memory mode.
    pub arrays_to_memory: u64,
    /// Total array-switches to compute mode.
    pub arrays_to_compute: u64,
    /// Number of `parallel` segments.
    pub segments: u64,
    /// Number of compute statements (across segments).
    pub compute_ops: u64,
    /// Total bytes moved by memory statements.
    pub mem_bytes: u64,
    /// Total weight bytes loaded into compute arrays.
    pub weight_bytes: u64,
}

impl FlowStats {
    /// Array-switch count toward a given mode.
    pub fn arrays_switched_to(&self, mode: ArrayMode) -> u64 {
        match mode {
            ArrayMode::Memory => self.arrays_to_memory,
            ArrayMode::Compute => self.arrays_to_compute,
        }
    }
}

impl Flow {
    /// Creates an empty flow, with an empty op table, named after the
    /// compiled network.
    pub fn new(name: impl Into<String>) -> Self {
        Flow::with_ops(name, Vec::new())
    }

    /// Creates a flow with no statements over the op table `ops`.
    pub fn with_ops(name: impl Into<String>, ops: Vec<FlowOp>) -> Self {
        Flow {
            name: name.into(),
            ops,
            stmts: Vec::new(),
        }
    }

    /// The flow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The op table statements index.
    pub fn ops(&self) -> &[FlowOp] {
        &self.ops
    }

    /// The table entry at `index`, if the table has one.
    pub fn op(&self, index: u32) -> Option<&FlowOp> {
        self.ops.get(index as usize)
    }

    /// How reports name op `index`: its table name, or `?<index>` for an
    /// index past the table (which [`crate::validate`] rejects).
    pub fn op_name(&self, index: u32) -> Cow<'_, str> {
        match self.op(index) {
            Some(op) => Cow::Borrowed(&op.name),
            None => Cow::Owned(format!("?{index}")),
        }
    }

    /// Appends an operator to the table; returns its index.
    pub fn push_op(&mut self, op: FlowOp) -> u32 {
        self.ops.push(op);
        u32::try_from(self.ops.len() - 1).expect("fewer than 2^32 ops per flow")
    }

    /// Appends a statement.
    pub fn push(&mut self, stmt: Stmt) {
        self.stmts.push(stmt);
    }

    /// The statement sequence.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// The statement sequence, to edit in place; the op table stays.
    pub fn stmts_mut(&mut self) -> &mut Vec<Stmt> {
        &mut self.stmts
    }

    /// Number of top-level statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the flow is empty.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> FlowStats {
        let mut stats = FlowStats::default();
        fn visit(stmts: &[Stmt], stats: &mut FlowStats) {
            for s in stmts {
                match s {
                    Stmt::Switch { kind, arrays } => {
                        stats.switch_ops += 1;
                        match kind {
                            SwitchKind::ToMemory => {
                                stats.arrays_to_memory += arrays.len() as u64
                            }
                            SwitchKind::ToCompute => {
                                stats.arrays_to_compute += arrays.len() as u64
                            }
                        }
                    }
                    Stmt::Compute(_) => stats.compute_ops += 1,
                    Stmt::LoadWeights(w) => stats.weight_bytes += w.bytes,
                    Stmt::Mem(m) => stats.mem_bytes += m.bytes,
                    Stmt::Vector(_) => {}
                    Stmt::Parallel(inner) => {
                        stats.segments += 1;
                        visit(inner, stats);
                    }
                }
            }
        }
        visit(&self.stmts, &mut stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArraySet, ComputeStmt, MemDirection, MemKind, MemLoc, MemStmt, WeightLoadStmt};
    use cmswitch_arch::ArrayId;

    fn sample_flow() -> Flow {
        let mut f = Flow::new("sample");
        let fc = f.push_op(FlowOp {
            name: "fc".into(),
            m: 8,
            k: 64,
            n: 64,
            units: 1,
            in_bytes: 512,
            out_bytes: 512,
            weight_static: true,
        });
        f.push(Stmt::switch(
            SwitchKind::ToCompute,
            [ArrayId(0), ArrayId(1)],
        ));
        f.push(Stmt::Parallel(vec![
            Stmt::LoadWeights(WeightLoadStmt {
                op: fc,
                arrays: [ArrayId(0), ArrayId(1)].into(),
                bytes: 1000,
            }),
            Stmt::Compute(ComputeStmt {
                op: fc,
                compute_arrays: [ArrayId(0), ArrayId(1)].into(),
                mem_in_arrays: ArraySet::new(),
                mem_out_arrays: ArraySet::new(),
            }),
        ]));
        f.push(Stmt::switch(SwitchKind::ToMemory, [ArrayId(0)]));
        f.push(Stmt::Mem(MemStmt {
            loc: MemLoc::Main,
            direction: MemDirection::Write,
            bytes: 256,
            kind: MemKind::Writeback { segment: 1 },
        }));
        f
    }

    #[test]
    fn stats_aggregate_recursively() {
        let f = sample_flow();
        let s = f.stats();
        assert_eq!(s.switch_ops, 2);
        assert_eq!(s.arrays_to_compute, 2);
        assert_eq!(s.arrays_to_memory, 1);
        assert_eq!(s.segments, 1);
        assert_eq!(s.compute_ops, 1);
        assert_eq!(s.mem_bytes, 256);
        assert_eq!(s.weight_bytes, 1000);
    }

    #[test]
    fn arrays_switched_to_by_mode() {
        let s = sample_flow().stats();
        assert_eq!(s.arrays_switched_to(ArrayMode::Compute), 2);
        assert_eq!(s.arrays_switched_to(ArrayMode::Memory), 1);
    }

    #[test]
    fn ops_are_looked_up_by_index() {
        let f = sample_flow();
        assert_eq!(f.ops().len(), 1);
        assert_eq!(f.op(0).map(|op| &*op.name), Some("fc"));
        assert_eq!(f.op(1), None);
        assert_eq!((f.op_name(0), f.op_name(1)), ("fc".into(), "?1".into()));
    }

    #[test]
    fn empty_flow() {
        let f = Flow::new("e");
        assert!(f.ops().is_empty());
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.stats(), FlowStats::default());
    }
}
