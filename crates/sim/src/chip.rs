//! Chip state: per-array modes, with dynamic mode discipline
//! enforcement.

use cmswitch_arch::{ArrayId, ArrayMode, DualModeArch};
use cmswitch_metaop::{MemLoc, MetaOpError, Stmt};

/// The runtime state of the dual-mode array fabric.
#[derive(Debug, Clone)]
pub struct ChipState {
    modes: Vec<ArrayMode>,
}

impl ChipState {
    /// Fresh chip: every array in memory mode (the DynaPlasia reset
    /// state).
    pub fn new(arch: &DualModeArch) -> Self {
        ChipState {
            modes: vec![ArrayMode::Memory; arch.n_arrays()],
        }
    }

    /// Current mode of an array.
    pub fn mode(&self, id: ArrayId) -> ArrayMode {
        self.modes[id.index()]
    }

    /// Applies one (non-parallel) statement, enforcing mode discipline.
    /// Callers walk a top-level `parallel` body themselves and apply its
    /// statements one by one.
    ///
    /// # Errors
    ///
    /// Returns [`MetaOpError::ModeViolation`] when a statement uses an
    /// array in the wrong mode, or names an array the chip does not have
    /// (flows are public input: parsed text, or a program compiled for a
    /// larger chip), and [`MetaOpError::NestedParallel`] for a `parallel`
    /// block — here it can only be one nested inside a body, whose work
    /// no simulator prices.
    pub fn apply(&mut self, stmt: &Stmt, stmt_idx: usize) -> Result<(), MetaOpError> {
        if matches!(stmt, Stmt::Parallel(_)) {
            return Err(MetaOpError::NestedParallel { stmt: stmt_idx });
        }
        let n_arrays = self.modes.len();
        let mut stray = None;
        stmt.for_each_array(&mut |a| {
            if a.index() >= n_arrays {
                stray.get_or_insert(a);
            }
        });
        if let Some(array) = stray {
            return Err(MetaOpError::ModeViolation {
                array,
                stmt: stmt_idx,
                detail: format!("array id out of range: the chip has {n_arrays} arrays"),
            });
        }
        if let Stmt::Switch { kind, arrays } = stmt {
            for &a in arrays {
                self.modes[a.index()] = kind.target_mode();
            }
        }
        let mut wrong = None;
        for_each_required_mode(stmt, &mut |a, mode| {
            if self.modes[a.index()] != mode {
                wrong.get_or_insert((a, mode));
            }
        });
        let Some((array, needed)) = wrong else {
            return Ok(());
        };
        let detail = match (stmt, needed) {
            (Stmt::LoadWeights(w), _) => format!("weight load for {} on memory-mode array", w.op),
            (Stmt::Compute(c), ArrayMode::Compute) => {
                format!("{} computes on memory-mode array", c.op)
            }
            (Stmt::Compute(c), ArrayMode::Memory) => {
                format!("{} buffers on compute-mode array", c.op)
            }
            (Stmt::Mem(m), _) => format!("`{}` on compute-mode array", m.label),
            _ => unreachable!("only loads, computes and memory statements require a mode"),
        };
        Err(MetaOpError::ModeViolation {
            array,
            stmt: stmt_idx,
            detail,
        })
    }
}

/// Calls `f` with every array `stmt` itself uses and the mode that use
/// needs, in [`Stmt::for_each_array`] order: weights load into and MACs
/// run on compute-mode arrays, operator buffers and scratchpad traffic
/// live in memory-mode arrays. A switch *sets* modes and a `parallel`
/// block is only its body's container (callers iterate bodies
/// themselves), so neither requires anything.
pub(crate) fn for_each_required_mode(stmt: &Stmt, f: &mut impl FnMut(ArrayId, ArrayMode)) {
    let mut each = |arrays: &[ArrayId], mode| arrays.iter().for_each(|&a| f(a, mode));
    match stmt {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;
    use cmswitch_metaop::{SwitchKind, WeightLoadStmt};

    #[test]
    fn starts_all_memory() {
        let arch = presets::tiny();
        let chip = ChipState::new(&arch);
        for i in 0..arch.n_arrays() {
            assert_eq!(chip.mode(ArrayId(i as u32)), ArrayMode::Memory);
        }
    }

    #[test]
    fn switch_updates_modes_and_clears_residency() {
        let arch = presets::tiny();
        let mut chip = ChipState::new(&arch);
        chip.apply(&Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]), 0)
            .unwrap();
        assert_eq!(chip.mode(ArrayId(0)), ArrayMode::Compute);
        chip.apply(
            &Stmt::LoadWeights(WeightLoadStmt {
                op: "fc".into(),
                arrays: vec![ArrayId(0)],
                bytes: 8,
            }),
            1,
        )
        .unwrap();
        assert_eq!(chip.mode(ArrayId(0)), ArrayMode::Compute);
        chip.apply(&Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]), 2)
            .unwrap();
        assert_eq!(chip.mode(ArrayId(0)), ArrayMode::Memory);
    }

    #[test]
    fn rejects_load_on_memory_array() {
        let arch = presets::tiny();
        let mut chip = ChipState::new(&arch);
        let err = chip
            .apply(
                &Stmt::LoadWeights(WeightLoadStmt {
                    op: "fc".into(),
                    arrays: vec![ArrayId(3)],
                    bytes: 8,
                }),
                0,
            )
            .unwrap_err();
        assert!(matches!(err, MetaOpError::ModeViolation { .. }));
    }
}
