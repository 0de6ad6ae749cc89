//! Mode-discipline validation of meta-operator flows.
//!
//! Enforces the paper's allocation constraints at the IR level:
//!
//! * an array computes only while in compute mode, and buffers only while
//!   in memory mode (arrays start in memory mode, the reset state of
//!   DynaPlasia's triple-mode cell),
//! * inside one `parallel` segment, an array serves at most one operator
//!   per role — except the Eq. 6 reuse pattern, where one operator's
//!   output buffer is another's input buffer,
//! * `parallel` blocks do not nest,
//! * every op index a statement carries names an entry of the flow's op
//!   table,
//! * and, checked against a chip ([`validate_on`]), every array id names
//!   one of its arrays.
//!
//! Which statement role needs which mode is
//! [`Stmt::for_each_required_mode`]; this module is the one checker of
//! these rules, run by the compiler's emit stage and both simulators.

use cmswitch_arch::ArrayMode;

use crate::dense::{BlockClaims, RunTable};
use crate::walk::{walk_flow, FlowEvent};
use crate::{Flow, MetaOpError, Stmt};

/// Validates a flow on its own, with no chip to check its ids against.
///
/// A thin first-error wrapper over [`walk_flow`]: the shared walker
/// delivers statements in program order and this visitor stops at the
/// first violation. The collect-everything verifier in `cmswitch-core`
/// rides the same walker but never stops.
///
/// Modes and claims are kept by the run ([`RunTable`]), so the cost is
/// per run and per piece of equal state it covers, however many ids a
/// run claims; a flow meant for a chip goes through [`validate_on`],
/// which also rejects the ids the chip lacks.
///
/// # Errors
///
/// Returns the first [`MetaOpError`] violation found.
pub fn validate(flow: &Flow) -> Result<(), MetaOpError> {
    check_flow(flow, None)
}

/// Validates a flow for a chip of `n_arrays` arrays: [`validate`]'s
/// checks, plus every array id must name one of the chip's arrays. This
/// is the check the compiler's emit stage and both simulators run, so a
/// flow one of them rejects, all of them reject with the same error.
///
/// Ids are range-checked a run at a time before any is walked, so a run
/// reaching past the chip costs one comparison however long it claims
/// to be.
///
/// # Errors
///
/// Returns the first [`MetaOpError`] violation found. An id
/// `>= n_arrays` is a [`MetaOpError::ModeViolation`], reported before
/// the mode and claim checks of the statement that names it.
pub fn validate_on(flow: &Flow, n_arrays: usize) -> Result<(), MetaOpError> {
    check_flow(flow, Some(n_arrays))
}

/// The one walk behind [`validate`] and [`validate_on`]: ids
/// `>= n_arrays` rejected when a chip is given.
fn check_flow(flow: &Flow, n_arrays: Option<usize>) -> Result<(), MetaOpError> {
    // All arrays start in memory mode.
    let mut modes = RunTable::new(ArrayMode::Memory);
    let mut claims = BlockClaims::new();
    let mut in_block = false;

    walk_flow(flow, |event| match event {
        FlowEvent::EnterParallel { .. } => {
            claims.enter_block();
            in_block = true;
            Ok(())
        }
        FlowEvent::ExitParallel { .. } => {
            in_block = false;
            Ok(())
        }
        FlowEvent::Stmt { pos, stmt } => {
            if matches!(stmt, Stmt::Parallel(_)) {
                return Err(MetaOpError::NestedParallel { stmt: pos.stmt });
            }
            check_stmt(
                flow,
                stmt,
                pos.stmt,
                n_arrays,
                &mut modes,
                in_block.then_some(&mut claims),
            )
        }
    })
}

fn check_stmt(
    flow: &Flow,
    stmt: &Stmt,
    idx: usize,
    n_arrays: Option<usize>,
    modes: &mut RunTable<ArrayMode>,
    claims: Option<&mut BlockClaims>,
) -> Result<(), MetaOpError> {
    let violation = |array, detail| {
        Err(MetaOpError::ModeViolation {
            array,
            stmt: idx,
            detail,
        })
    };
    if let Some(op) = stmt.op().filter(|&op| flow.op(op).is_none()) {
        return Err(MetaOpError::UnknownOp {
            stmt: idx,
            op,
            ops: flow.ops().len(),
        });
    }
    // The index was checked above.
    let name = |op: u32| &flow.ops()[op as usize].name;
    if let Some(n_arrays) = n_arrays {
        let mut stray = None;
        stmt.for_each_array_set(&mut |arrays| {
            if stray.is_none() {
                stray = arrays.runs().iter().find_map(|r| r.first_beyond(n_arrays));
            }
        });
        if let Some(array) = stray {
            return violation(
                array,
                format!("array id out of range: the chip has {n_arrays} arrays"),
            );
        }
    }
    if let Stmt::Switch { kind, arrays } = stmt {
        for &run in arrays.runs() {
            modes.assign(run, &kind.target_mode());
        }
        return Ok(());
    }
    // The first array not in the mode its role needs is the violation
    // to report; `detail` is only rendered for it.
    let mut wrong = None;
    stmt.for_each_required_mode(&mut |arrays, needed| {
        for &run in arrays.runs() {
            if wrong.is_some() {
                return;
            }
            modes.read(run, |piece, &mode| {
                if wrong.is_none() && mode != needed {
                    wrong = Some((piece.first(), needed));
                }
            });
        }
    });
    if let Some((array, needed)) = wrong {
        return violation(
            array,
            match (stmt, needed) {
                (Stmt::Compute(c), ArrayMode::Compute) => {
                    format!("{} computes on a memory-mode array", name(c.op))
                }
                (Stmt::Compute(c), ArrayMode::Memory) => {
                    format!("{} buffers on a compute-mode array", name(c.op))
                }
                (Stmt::LoadWeights(w), _) => {
                    format!("weight load for {} into a memory-mode array", name(w.op))
                }
                (Stmt::Mem(m), _) => {
                    format!("scratchpad access `{}` on a compute-mode array", m.kind)
                }
                _ => unreachable!("only loads, computes and memory statements require a mode"),
            },
        );
    }
    if let (Stmt::Compute(c), Some(claims)) = (stmt, claims) {
        let mut first = None;
        claims.claim(c, usize::MAX, |piece| first = first.or(Some(piece.first())));
        if let Some(array) = first {
            return Err(MetaOpError::ArrayConflict { array, stmt: idx });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeStmt, FlowOp, SwitchKind, WeightLoadStmt};
    use cmswitch_arch::ArrayId;

    /// The op table of every test flow, named by [`op`].
    const OPS: [&str; 4] = ["a", "b", "fc", "g"];

    fn op(name: &str) -> u32 {
        OPS.iter().position(|&o| o == name).expect("a test op") as u32
    }

    /// An empty flow over [`OPS`], each a unit-shaped static op.
    fn flow(name: &str) -> Flow {
        let ops = OPS.iter().map(|&name| FlowOp {
            name: name.into(),
            m: 1,
            k: 1,
            n: 1,
            units: 1,
            in_bytes: 0,
            out_bytes: 0,
            weight_static: true,
        });
        Flow::with_ops(name, ops.collect())
    }

    fn compute(name: &str, c: Vec<u32>, min: Vec<u32>, mout: Vec<u32>) -> Stmt {
        Stmt::Compute(ComputeStmt {
            op: op(name),
            compute_arrays: c.into_iter().map(ArrayId).collect(),
            mem_in_arrays: min.into_iter().map(ArrayId).collect(),
            mem_out_arrays: mout.into_iter().map(ArrayId).collect(),
        })
    }

    #[test]
    fn compute_requires_compute_mode() {
        let mut f = flow("f");
        f.push(compute("fc", vec![0], vec![], vec![]));
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::ModeViolation { .. })
        ));
        let mut f = flow("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(compute("fc", vec![0], vec![], vec![]));
        assert!(validate(&f).is_ok());
    }

    #[test]
    fn buffers_require_memory_mode() {
        let mut f = flow("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0), ArrayId(1)]));
        f.push(compute("fc", vec![0], vec![1], vec![]));
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::ModeViolation { .. })
        ));
    }

    #[test]
    fn weight_load_requires_compute_mode() {
        let mut f = flow("f");
        f.push(Stmt::LoadWeights(WeightLoadStmt {
            op: op("fc"),
            arrays: [ArrayId(2)].into(),
            bytes: 10,
        }));
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::ModeViolation { .. })
        ));
    }

    #[test]
    fn compute_conflict_within_segment() {
        let mut f = flow("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(Stmt::Parallel(vec![
            compute("a", vec![0], vec![], vec![]),
            compute("b", vec![0], vec![], vec![]),
        ]));
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::ArrayConflict { .. })
        ));
    }

    #[test]
    fn eq6_reuse_pattern_is_legal() {
        // Array 2 is op a's output buffer AND op b's input buffer.
        let mut f = flow("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0), ArrayId(1)]));
        f.push(Stmt::Parallel(vec![
            compute("a", vec![0], vec![], vec![2]),
            compute("b", vec![1], vec![2], vec![]),
        ]));
        assert!(validate(&f).is_ok());
    }

    #[test]
    fn compute_and_memory_roles_conflict() {
        let mut f = flow("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        // Array 0 computes for a and is claimed as b's buffer: mode check
        // fires first (buffer on compute-mode array).
        f.push(Stmt::Parallel(vec![
            compute("a", vec![0], vec![], vec![]),
            compute("b", vec![1], vec![0], vec![]),
        ]));
        assert!(validate(&f).is_err());
    }

    #[test]
    fn nested_parallel_rejected() {
        let mut f = flow("f");
        f.push(Stmt::Parallel(vec![Stmt::Parallel(vec![])]));
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::NestedParallel { .. })
        ));
    }

    #[test]
    fn switch_back_and_forth_ok() {
        let mut f = flow("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(compute("a", vec![0], vec![], vec![]));
        f.push(Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]));
        f.push(compute("b", vec![1], vec![0], vec![]));
        // b computes on array 1 which is still memory mode -> violation.
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::ModeViolation { .. })
        ));
        let mut f2 = flow("f2");
        f2.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0), ArrayId(1)]));
        f2.push(compute("a", vec![0], vec![], vec![]));
        f2.push(Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]));
        f2.push(compute("b", vec![1], vec![0], vec![]));
        assert!(validate(&f2).is_ok());
    }

    fn load(name: &str, array: u32) -> Stmt {
        Stmt::LoadWeights(WeightLoadStmt {
            op: op(name),
            arrays: [ArrayId(array)].into(),
            bytes: 8,
        })
    }

    #[test]
    fn starts_all_memory() {
        // Every array of the chip buffers without a switch; none computes.
        let mut f = flow("f");
        f.push(compute("fc", vec![], (0..8).collect(), vec![]));
        assert_eq!(validate_on(&f, 8), Ok(()));
        for a in 0..8 {
            let mut g = f.clone();
            g.push(compute("fc", vec![a], vec![], vec![]));
            let err = validate_on(&g, 8).unwrap_err();
            assert!(matches!(err, MetaOpError::ModeViolation { array, stmt: 1, .. } if array.0 == a));
        }
    }

    #[test]
    fn switch_updates_modes_and_clears_residency() {
        let mut f = flow("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(load("fc", 0));
        f.push(Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]));
        // Back in memory mode, the array buffers again and takes no load.
        let mut buffered = f.clone();
        buffered.push(compute("g", vec![], vec![0], vec![]));
        assert_eq!(validate_on(&buffered, 8), Ok(()));
        f.push(load("fc", 0));
        assert!(matches!(validate_on(&f, 8), Err(MetaOpError::ModeViolation { stmt: 3, .. })));
    }

    #[test]
    fn rejects_load_on_memory_array() {
        let mut f = flow("f");
        f.push(load("fc", 3));
        let detail = "weight load for fc into a memory-mode array".to_string();
        let err = MetaOpError::ModeViolation { array: ArrayId(3), stmt: 0, detail };
        assert_eq!(validate_on(&f, 8), Err(err.clone()));
        assert_eq!(validate(&f), Err(err));
    }

    #[test]
    fn out_of_range_ids_are_rejected_before_modes_and_claims() {
        // A conflicting claim, a wrong-mode buffer and a stray id in one
        // statement: the stray id is what gets reported.
        let mut f = flow("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(Stmt::Parallel(vec![
            compute("a", vec![0], vec![], vec![]),
            compute("b", vec![0], vec![0], vec![u32::MAX]),
        ]));
        let detail = "array id out of range: the chip has 8 arrays".to_string();
        let stray = MetaOpError::ModeViolation { array: ArrayId(u32::MAX), stmt: 1, detail };
        assert_eq!(validate_on(&f, 8), Err(stray));
        // Without a chip the id is just another array.
        assert!(matches!(validate(&f), Err(MetaOpError::ModeViolation { array: ArrayId(0), .. })));
    }

    #[test]
    fn an_op_index_past_the_table_is_an_error() {
        let mut f = flow("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(Stmt::Parallel(vec![load("fc", 0), compute("fc", vec![0], vec![], vec![])]));
        assert_eq!(validate_on(&f, 8), Ok(()));
        // The same statements over an empty table.
        let mut bare = Flow::new("bare");
        for s in f.stmts() {
            bare.push(s.clone());
        }
        let unknown = MetaOpError::UnknownOp { stmt: 1, op: op("fc"), ops: 0 };
        assert_eq!(validate_on(&bare, 8), Err(unknown.clone()));
        assert_eq!(validate(&bare), Err(unknown));
    }
}
