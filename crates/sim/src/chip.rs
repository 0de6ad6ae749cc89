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
    ///
    /// # Errors
    ///
    /// Returns [`MetaOpError::ModeViolation`] when a statement uses an
    /// array in the wrong mode, or names an array the chip does not have
    /// (flows are public input: parsed text, or a program compiled for a
    /// larger chip).
    pub fn apply(&mut self, stmt: &Stmt, stmt_idx: usize) -> Result<(), MetaOpError> {
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
        match stmt {
            Stmt::Switch { kind, arrays } => {
                for &a in arrays {
                    self.modes[a.index()] = kind.target_mode();
                }
            }
            Stmt::LoadWeights(w) => {
                for &a in &w.arrays {
                    if self.modes[a.index()] != ArrayMode::Compute {
                        return Err(MetaOpError::ModeViolation {
                            array: a,
                            stmt: stmt_idx,
                            detail: format!("weight load for {} on memory-mode array", w.op),
                        });
                    }
                }
            }
            Stmt::Compute(c) => {
                for &a in &c.compute_arrays {
                    if self.modes[a.index()] != ArrayMode::Compute {
                        return Err(MetaOpError::ModeViolation {
                            array: a,
                            stmt: stmt_idx,
                            detail: format!("{} computes on memory-mode array", c.op),
                        });
                    }
                }
                for &a in c.mem_in_arrays.iter().chain(&c.mem_out_arrays) {
                    if self.modes[a.index()] != ArrayMode::Memory {
                        return Err(MetaOpError::ModeViolation {
                            array: a,
                            stmt: stmt_idx,
                            detail: format!("{} buffers on compute-mode array", c.op),
                        });
                    }
                }
            }
            Stmt::Mem(m) => {
                if let MemLoc::CimArrays(arrays) = &m.loc {
                    for &a in arrays {
                        if self.modes[a.index()] != ArrayMode::Memory {
                            return Err(MetaOpError::ModeViolation {
                                array: a,
                                stmt: stmt_idx,
                                detail: format!("`{}` on compute-mode array", m.label),
                            });
                        }
                    }
                }
            }
            Stmt::Vector(_) => {}
            Stmt::Parallel(_) => {
                // Caller iterates parallel bodies itself.
            }
        }
        Ok(())
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
