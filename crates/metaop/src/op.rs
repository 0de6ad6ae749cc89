use serde::{Deserialize, Serialize};

use cmswitch_arch::{ArrayId, ArrayMode};

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
    CimArrays(Vec<ArrayId>),
}

/// Direction of a memory access relative to the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemDirection {
    /// Read into the datapath.
    Read,
    /// Write out of the datapath.
    Write,
}

/// A CIM compute statement: one MMM/MVM operator mapped onto compute-mode
/// arrays, streaming inputs from memory-mode arrays and/or main memory.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ComputeStmt {
    /// Operator name (graph layer).
    pub op: String,
    /// Compute-mode arrays executing the MMM.
    pub compute_arrays: Vec<ArrayId>,
    /// Memory-mode arrays buffering this operator's inputs.
    pub mem_in_arrays: Vec<ArrayId>,
    /// Memory-mode arrays buffering this operator's outputs.
    pub mem_out_arrays: Vec<ArrayId>,
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

/// A weight-load statement: writing an operator's `[K,N]` operand into its
/// compute arrays (inter-segment step 3, Eq. 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WeightLoadStmt {
    /// Operator whose weights are loaded.
    pub op: String,
    /// Destination compute arrays.
    pub arrays: Vec<ArrayId>,
    /// Bytes written.
    pub bytes: u64,
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
    /// Label for reports.
    pub label: String,
}

/// A vector-function-unit statement (softmax, norms, activations — the
/// non-CIM operators).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorStmt {
    /// Operator label.
    pub op: String,
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
        arrays: Vec<ArrayId>,
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
    pub fn switch(kind: SwitchKind, arrays: Vec<ArrayId>) -> Stmt {
        Stmt::Switch { kind, arrays }
    }

    /// Arrays referenced by this statement *itself*.
    ///
    /// Deliberately returns nothing for `Parallel` blocks so that a
    /// caller iterating a block's body and its container does not count
    /// the same arrays twice; use [`Stmt::arrays_recursive`] when the
    /// whole subtree's footprint is wanted.
    pub fn arrays(&self) -> Vec<ArrayId> {
        match self {
            Stmt::Parallel(_) => Vec::new(),
            own => own.arrays_recursive(),
        }
    }

    /// Arrays referenced by this statement and, for `Parallel` blocks,
    /// every statement in the subtree.
    ///
    /// Duplicates are preserved: an array claimed by two statements of a
    /// block appears twice, so callers can both count distinct arrays
    /// (`collect::<HashSet<_>>`) and detect double-claims.
    pub fn arrays_recursive(&self) -> Vec<ArrayId> {
        let mut all = Vec::new();
        self.for_each_array(&mut |a| all.push(a));
        all
    }

    /// Calls `f` with every array reference of
    /// [`Stmt::arrays_recursive`], in the same order, without building
    /// the list.
    pub fn for_each_array(&self, f: &mut impl FnMut(ArrayId)) {
        let mut each = |arrays: &[ArrayId]| arrays.iter().copied().for_each(&mut *f);
        match self {
            Stmt::Switch { arrays, .. } => each(arrays),
            Stmt::Compute(c) => {
                each(&c.compute_arrays);
                each(&c.mem_in_arrays);
                each(&c.mem_out_arrays);
            }
            Stmt::LoadWeights(w) => each(&w.arrays),
            Stmt::Mem(m) => {
                if let MemLoc::CimArrays(arrays) = &m.loc {
                    each(arrays);
                }
            }
            Stmt::Vector(_) => {}
            Stmt::Parallel(body) => body.iter().for_each(|s| s.for_each_array(f)),
        }
    }

    /// Calls `f` with every array this statement *itself* uses and the
    /// mode that use needs, in [`Stmt::for_each_array`] order: weights
    /// load into and MACs run on compute-mode arrays, operator buffers
    /// and scratchpad traffic live in memory-mode arrays. A switch *sets*
    /// modes and a `parallel` block is only its body's container (callers
    /// iterate bodies themselves), so neither requires anything.
    ///
    /// The one table of which role needs which mode: the validator, the
    /// event engine's cross-flow re-switches and the verifier's
    /// mode-interval lint all read it.
    pub fn for_each_required_mode(&self, f: &mut impl FnMut(ArrayId, ArrayMode)) {
        let mut each = |arrays: &[ArrayId], mode| arrays.iter().for_each(|&a| f(a, mode));
        match self {
            Stmt::LoadWeights(w) => each(&w.arrays, ArrayMode::Compute),
            Stmt::Compute(c) => {
                each(&c.compute_arrays, ArrayMode::Compute);
                each(&c.mem_in_arrays, ArrayMode::Memory);
                each(&c.mem_out_arrays, ArrayMode::Memory);
            }
            Stmt::Mem(m) => {
                if let MemLoc::CimArrays(arrays) = &m.loc {
                    each(arrays, ArrayMode::Memory);
                }
            }
            Stmt::Switch { .. } | Stmt::Vector(_) | Stmt::Parallel(_) => {}
        }
    }

    /// [`Stmt::for_each_array`] over mutable references, in the same
    /// order: the one way to rewrite every array id of a statement.
    pub fn for_each_array_mut(&mut self, f: &mut impl FnMut(&mut ArrayId)) {
        let mut each = |arrays: &mut [ArrayId]| arrays.iter_mut().for_each(&mut *f);
        match self {
            Stmt::Switch { arrays, .. } => each(arrays),
            Stmt::Compute(c) => {
                each(&mut c.compute_arrays);
                each(&mut c.mem_in_arrays);
                each(&mut c.mem_out_arrays);
            }
            Stmt::LoadWeights(w) => each(&mut w.arrays),
            Stmt::Mem(m) => {
                if let MemLoc::CimArrays(arrays) = &mut m.loc {
                    each(arrays);
                }
            }
            Stmt::Vector(_) => {}
            Stmt::Parallel(body) => body.iter_mut().for_each(|s| s.for_each_array_mut(f)),
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

    fn fc() -> ComputeStmt {
        ComputeStmt {
            op: "fc".into(),
            compute_arrays: vec![ArrayId(0)],
            mem_in_arrays: vec![ArrayId(1)],
            mem_out_arrays: vec![ArrayId(2)],
            m: 1,
            k: 1,
            n: 1,
            units: 1,
            in_bytes: 0,
            out_bytes: 0,
            weight_static: true,
        }
    }

    #[test]
    fn stmt_arrays_collects_all_roles() {
        let arrays = Stmt::Compute(fc()).arrays();
        assert_eq!(arrays, vec![ArrayId(0), ArrayId(1), ArrayId(2)]);
    }

    #[test]
    fn mutable_walker_visits_every_reference_in_the_same_order() {
        let mut block = Stmt::Parallel(vec![
            Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(3)]),
            Stmt::LoadWeights(WeightLoadStmt {
                op: "fc".into(),
                arrays: vec![ArrayId(3), ArrayId(4)],
                bytes: 8,
            }),
            Stmt::Compute(ComputeStmt {
                compute_arrays: vec![ArrayId(4), ArrayId(3)],
                mem_in_arrays: vec![ArrayId(1)],
                mem_out_arrays: vec![ArrayId(2), ArrayId(1)],
                ..fc()
            }),
            Stmt::Mem(MemStmt {
                loc: MemLoc::CimArrays(vec![ArrayId(7)]),
                direction: MemDirection::Read,
                bytes: 64,
                label: "ld".into(),
            }),
        ]);
        let before = block.arrays_recursive();
        let mut visited = Vec::new();
        block.for_each_array_mut(&mut |a| {
            visited.push(*a);
            a.0 += 10;
        });
        assert_eq!(visited, before);
        let moved: Vec<ArrayId> = before.iter().map(|a| ArrayId(a.0 + 10)).collect();
        assert_eq!(block.arrays_recursive(), moved);
    }

    #[test]
    fn parallel_arrays_require_recursion() {
        let block = Stmt::Parallel(vec![
            Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(3)]),
            Stmt::LoadWeights(WeightLoadStmt {
                op: "fc".into(),
                arrays: vec![ArrayId(3), ArrayId(4)],
                bytes: 8,
            }),
        ]);
        // Non-recursive: a block claims nothing itself.
        assert!(block.arrays().is_empty());
        // Recursive: the subtree's full footprint, duplicates kept.
        assert_eq!(
            block.arrays_recursive(),
            vec![ArrayId(3), ArrayId(3), ArrayId(4)]
        );
    }

    #[test]
    fn mem_stmt_arrays_only_for_cim_loc() {
        let m = Stmt::Mem(MemStmt {
            loc: MemLoc::Main,
            direction: MemDirection::Write,
            bytes: 64,
            label: "wb".into(),
        });
        assert!(m.arrays().is_empty());
        let m = Stmt::Mem(MemStmt {
            loc: MemLoc::CimArrays(vec![ArrayId(7)]),
            direction: MemDirection::Read,
            bytes: 64,
            label: "ld".into(),
        });
        assert_eq!(m.arrays(), vec![ArrayId(7)]);
    }
}
