use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cmswitch_arch::{ArrayId, ArrayMode};

use crate::ArraySet;

/// Direction of the two `CM.switch` types (Fig. 13): `TOM` switches arrays
/// to memory mode, `TOC` to compute mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SwitchKind {
    /// `TOM`: switch the addressed arrays to memory mode.
    ToMemory,
    /// `TOC`: switch the addressed arrays to compute mode.
    ToCompute,
}

impl SwitchKind {
    /// The mode the arrays end up in.
    pub fn target_mode(self) -> ArrayMode {
        match self {
            SwitchKind::ToMemory => ArrayMode::Memory,
            SwitchKind::ToCompute => ArrayMode::Compute,
        }
    }

    /// The Fig. 13 keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            SwitchKind::ToMemory => "TOM",
            SwitchKind::ToCompute => "TOC",
        }
    }
}

/// Where data lives for a memory-access statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemLoc {
    /// Off-chip main memory.
    Main,
    /// The chip's original (non-CIM) buffer.
    Buffer,
    /// Memory-mode CIM arrays.
    CimArrays(ArraySet),
}

/// Direction of a memory access relative to the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemDirection {
    /// Read into the datapath.
    Read,
    /// Write out of the datapath.
    Write,
}

/// One operator of a flow's op table: the name reports show and the
/// shape the statements about it are priced by. Every compute, weight
/// load and vector statement names its operator by its index in
/// [`Flow::ops`](crate::Flow::ops), so a name and a shape are stored once
/// per operator, however many statements mention it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowOp {
    /// Operator name (graph layer; shared with the compiler's own op
    /// list, never copied per statement).
    pub name: Arc<str>,
    /// Index of the originating op in the lowered graph (split
    /// sub-operators share it).
    pub source: usize,
    /// Streamed rows per unit.
    pub m: usize,
    /// Reduction dim per unit.
    pub k: usize,
    /// Output dim per unit.
    pub n: usize,
    /// Independent `[M,K]·[K,N]` products.
    pub units: usize,
    /// Dynamic input bytes streamed.
    pub in_bytes: u64,
    /// Output bytes produced.
    pub out_bytes: u64,
    /// Whether the resident operand is a static trained weight.
    pub weight_static: bool,
}

/// A CIM compute statement: one MMM/MVM operator mapped onto compute-mode
/// arrays, streaming inputs from memory-mode arrays and/or main memory.
/// Its shape is its operator's table entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ComputeStmt {
    /// Index of the operator in the flow's op table.
    pub op: u32,
    /// Compute-mode arrays executing the MMM.
    pub compute_arrays: ArraySet,
    /// Memory-mode arrays buffering this operator's inputs.
    pub mem_in_arrays: ArraySet,
    /// Memory-mode arrays buffering this operator's outputs.
    pub mem_out_arrays: ArraySet,
}

/// A weight-load statement: writing an operator's `[K,N]` operand into its
/// compute arrays (inter-segment step 3, Eq. 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WeightLoadStmt {
    /// Index of the operator (in the flow's op table) whose weights are
    /// loaded.
    pub op: u32,
    /// Destination compute arrays.
    pub arrays: ArraySet,
    /// Bytes written.
    pub bytes: u64,
}

/// What a bulk memory transfer is for: the step of the plan that emits
/// it, which is also how reports name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemKind {
    /// Fig. 10 step 1: live data spilled before segment `segment` (its
    /// index in the flow) written back to main memory.
    Writeback {
        /// The segment the write-back precedes.
        segment: u32,
    },
    /// The network's outputs, written out after the last segment.
    FinalOutput,
    /// A transfer no plan step names (hand-built flows).
    Transfer,
}

impl fmt::Display for MemKind {
    /// The report name: `seg<k> writeback`, `final output` or `transfer`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemKind::Writeback { segment } => write!(f, "seg{segment} writeback"),
            MemKind::FinalOutput => f.write_str("final output"),
            MemKind::Transfer => f.write_str("transfer"),
        }
    }
}

/// A bulk memory transfer (inter-segment write-back / reload, steps 1 and
/// 3 of Fig. 10).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemStmt {
    /// Source/destination.
    pub loc: MemLoc,
    /// Read or write (relative to the chip datapath).
    pub direction: MemDirection,
    /// Bytes moved.
    pub bytes: u64,
    /// What the transfer is for.
    pub kind: MemKind,
}

/// A vector-function-unit statement: the non-CIM work (softmax, norms,
/// activations) fused after an operator, which runs in that operator's
/// lane.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorStmt {
    /// Index of the operator (in the flow's op table) whose fused work
    /// this is.
    pub op: u32,
    /// Elementwise operations to execute.
    pub flops: u64,
}

/// One statement of the meta-operator flow (Fig. 13 `<operators>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `CM.switch(<type>, arrayaddr)`.
    Switch {
        /// TOM or TOC.
        kind: SwitchKind,
        /// Arrays being switched.
        arrays: ArraySet,
    },
    /// A CIM compute operator.
    Compute(ComputeStmt),
    /// A weight (or runtime-operand) load into compute arrays.
    LoadWeights(WeightLoadStmt),
    /// A bulk memory access.
    Mem(MemStmt),
    /// A vector-unit operator.
    Vector(VectorStmt),
    /// `parallel { ... }`: a network segment whose statements execute
    /// concurrently (pipelined).
    Parallel(Vec<Stmt>),
}

impl Stmt {
    /// Convenience constructor for a switch statement.
    pub fn switch(kind: SwitchKind, arrays: impl Into<ArraySet>) -> Stmt {
        Stmt::Switch {
            kind,
            arrays: arrays.into(),
        }
    }

    /// The op-table index a compute, weight-load or vector statement
    /// names; `None` for the other kinds.
    pub fn op(&self) -> Option<u32> {
        match self {
            Stmt::Compute(c) => Some(c.op),
            Stmt::LoadWeights(w) => Some(w.op),
            Stmt::Vector(v) => Some(v.op),
            Stmt::Switch { .. } | Stmt::Mem(_) | Stmt::Parallel(_) => None,
        }
    }

    /// Calls `f` with every array list of this statement and, for
    /// `Parallel` blocks, of every statement in the subtree: a switch's
    /// arrays, a compute's compute / input-buffer / output-buffer
    /// arrays, a weight load's arrays, a scratchpad location's arrays.
    /// The one walker the id-level ones below are built on; a caller
    /// that can work a run at a time walks [`ArraySet::runs`] from here.
    pub fn for_each_array_set(&self, f: &mut impl FnMut(&ArraySet)) {
        match self {
            Stmt::Switch { arrays, .. } => f(arrays),
            Stmt::Compute(c) => {
                f(&c.compute_arrays);
                f(&c.mem_in_arrays);
                f(&c.mem_out_arrays);
            }
            Stmt::LoadWeights(w) => f(&w.arrays),
            Stmt::Mem(m) => {
                if let MemLoc::CimArrays(arrays) = &m.loc {
                    f(arrays);
                }
            }
            Stmt::Vector(_) => {}
            Stmt::Parallel(body) => body.iter().for_each(|s| s.for_each_array_set(f)),
        }
    }

    /// Calls `f` with every array reference of
    /// [`Stmt::for_each_array_set`], id by id and in the same order.
    /// Duplicates are preserved: an array claimed by two statements of a
    /// block is visited twice.
    pub fn for_each_array(&self, f: &mut impl FnMut(ArrayId)) {
        self.for_each_array_set(&mut |arrays| {
            for run in arrays.runs() {
                for a in run.iter() {
                    f(a);
                }
            }
        });
    }

    /// Calls `f` with every array list this statement *itself* uses and
    /// the mode that use needs, in [`Stmt::for_each_array_set`] order:
    /// weights load into and MACs run on compute-mode arrays, operator
    /// buffers and scratchpad traffic live in memory-mode arrays. A
    /// switch *sets* modes and a `parallel` block is only its body's
    /// container (callers iterate bodies themselves), so neither
    /// requires anything.
    ///
    /// The one table of which role needs which mode: the validator, the
    /// event engine's cross-flow re-switches and the verifier's
    /// mode-interval analysis all read it.
    pub fn for_each_required_mode(&self, f: &mut impl FnMut(&ArraySet, ArrayMode)) {
        match self {
            Stmt::LoadWeights(w) => f(&w.arrays, ArrayMode::Compute),
            Stmt::Compute(c) => {
                f(&c.compute_arrays, ArrayMode::Compute);
                f(&c.mem_in_arrays, ArrayMode::Memory);
                f(&c.mem_out_arrays, ArrayMode::Memory);
            }
            Stmt::Mem(m) => {
                if let MemLoc::CimArrays(arrays) = &m.loc {
                    f(arrays, ArrayMode::Memory);
                }
            }
            Stmt::Switch { .. } | Stmt::Vector(_) | Stmt::Parallel(_) => {}
        }
    }

    /// [`Stmt::for_each_array_set`] over mutable lists, in the same
    /// order: the one way to rewrite the array lists of a statement.
    pub fn for_each_array_set_mut(&mut self, f: &mut impl FnMut(&mut ArraySet)) {
        match self {
            Stmt::Switch { arrays, .. } => f(arrays),
            Stmt::Compute(c) => {
                f(&mut c.compute_arrays);
                f(&mut c.mem_in_arrays);
                f(&mut c.mem_out_arrays);
            }
            Stmt::LoadWeights(w) => f(&mut w.arrays),
            Stmt::Mem(m) => {
                if let MemLoc::CimArrays(arrays) = &mut m.loc {
                    f(arrays);
                }
            }
            Stmt::Vector(_) => {}
            Stmt::Parallel(body) => body.iter_mut().for_each(|s| s.for_each_array_set_mut(f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_kind_roundtrip() {
        assert_eq!(SwitchKind::ToMemory.target_mode(), ArrayMode::Memory);
        assert_eq!(SwitchKind::ToCompute.target_mode(), ArrayMode::Compute);
        assert_eq!(SwitchKind::ToMemory.keyword(), "TOM");
        assert_eq!(SwitchKind::ToCompute.keyword(), "TOC");
    }

    fn ids(ids: &[u32]) -> ArraySet {
        ids.iter().map(|&a| ArrayId(a)).collect()
    }

    fn fc() -> ComputeStmt {
        ComputeStmt {
            op: 0,
            compute_arrays: ids(&[0]),
            mem_in_arrays: ids(&[1]),
            mem_out_arrays: ids(&[2]),
        }
    }

    fn references(s: &Stmt) -> Vec<u32> {
        let mut all = Vec::new();
        s.for_each_array(&mut |a| all.push(a.0));
        all
    }

    #[test]
    fn stmt_arrays_collects_all_roles() {
        assert_eq!(references(&Stmt::Compute(fc())), [0, 1, 2]);
    }

    #[test]
    fn mutable_walker_visits_every_reference_in_the_same_order() {
        let mut block = Stmt::Parallel(vec![
            Stmt::switch(SwitchKind::ToCompute, [ArrayId(3)]),
            Stmt::LoadWeights(WeightLoadStmt {
                op: 0,
                arrays: ids(&[3, 4]),
                bytes: 8,
            }),
            Stmt::Compute(ComputeStmt {
                compute_arrays: ids(&[4, 3]),
                mem_in_arrays: ids(&[1]),
                mem_out_arrays: ids(&[2, 1]),
                ..fc()
            }),
            Stmt::Mem(MemStmt {
                loc: MemLoc::CimArrays(ids(&[7])),
                direction: MemDirection::Read,
                bytes: 64,
                kind: MemKind::Transfer,
            }),
        ]);
        let before = references(&block);
        let mut visited = Vec::new();
        block.for_each_array_set_mut(&mut |arrays| {
            visited.extend(arrays.iter().map(|a| a.0));
            *arrays = arrays.iter().map(|a| ArrayId(a.0 + 10)).collect();
        });
        assert_eq!(visited, before);
        let moved: Vec<u32> = before.iter().map(|a| a + 10).collect();
        assert_eq!(references(&block), moved);
    }

    #[test]
    fn parallel_arrays_require_recursion() {
        let block = Stmt::Parallel(vec![
            Stmt::switch(SwitchKind::ToCompute, [ArrayId(3)]),
            Stmt::LoadWeights(WeightLoadStmt {
                op: 0,
                arrays: ids(&[3, 4]),
                bytes: 8,
            }),
        ]);
        assert_eq!(references(&block), [3, 3, 4]);
        // A block requires no mode itself; its body's statements do.
        let mut required = 0;
        block.for_each_required_mode(&mut |_, _| required += 1);
        assert_eq!(required, 0);
    }

    #[test]
    fn mem_stmt_arrays_only_for_cim_loc() {
        let m = Stmt::Mem(MemStmt {
            loc: MemLoc::Main,
            direction: MemDirection::Write,
            bytes: 64,
            kind: MemKind::Writeback { segment: 1 },
        });
        assert!(references(&m).is_empty());
        let m = Stmt::Mem(MemStmt {
            loc: MemLoc::CimArrays(ids(&[7])),
            direction: MemDirection::Read,
            bytes: 64,
            kind: MemKind::Transfer,
        });
        assert_eq!(references(&m), [7]);
    }

    #[test]
    fn mem_kinds_print_their_plan_step_and_statements_name_their_op() {
        let names: Vec<String> = [
            MemKind::Writeback { segment: 3 },
            MemKind::FinalOutput,
            MemKind::Transfer,
        ]
        .iter()
        .map(MemKind::to_string)
        .collect();
        assert_eq!(names, ["seg3 writeback", "final output", "transfer"]);
        assert_eq!(Stmt::Compute(ComputeStmt { op: 4, ..fc() }).op(), Some(4));
        assert_eq!(Stmt::switch(SwitchKind::ToCompute, [ArrayId(0)]).op(), None);
    }
}
