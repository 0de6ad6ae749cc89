use serde::{Deserialize, Serialize};

use cmswitch_arch::ArrayMode;

use crate::{Stmt, SwitchKind};

/// A complete meta-operator flow: the compiler's output for one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    name: String,
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
    /// Creates an empty flow named after the compiled network.
    pub fn new(name: impl Into<String>) -> Self {
        Flow {
            name: name.into(),
            stmts: Vec::new(),
        }
    }

    /// The flow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a statement.
    pub fn push(&mut self, stmt: Stmt) {
        self.stmts.push(stmt);
    }

    /// The statement sequence.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
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
    use crate::{ArraySet, ComputeStmt, MemDirection, MemLoc, MemStmt, WeightLoadStmt};
    use cmswitch_arch::ArrayId;

    fn sample_flow() -> Flow {
        let mut f = Flow::new("sample");
        f.push(Stmt::switch(
            SwitchKind::ToCompute,
            [ArrayId(0), ArrayId(1)],
        ));
        f.push(Stmt::Parallel(vec![
            Stmt::LoadWeights(WeightLoadStmt {
                op: "fc".into(),
                arrays: [ArrayId(0), ArrayId(1)].into(),
                bytes: 1000,
            }),
            Stmt::Compute(ComputeStmt {
                op: "fc".into(),
                compute_arrays: [ArrayId(0), ArrayId(1)].into(),
                mem_in_arrays: ArraySet::new(),
                mem_out_arrays: ArraySet::new(),
                m: 8,
                k: 64,
                n: 64,
                units: 1,
                in_bytes: 512,
                out_bytes: 512,
                weight_static: true,
            }),
        ]));
        f.push(Stmt::switch(SwitchKind::ToMemory, [ArrayId(0)]));
        f.push(Stmt::Mem(MemStmt {
            loc: MemLoc::Main,
            direction: MemDirection::Write,
            bytes: 256,
            label: "writeback".into(),
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
    fn empty_flow() {
        let f = Flow::new("e");
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.stats(), FlowStats::default());
    }
}
