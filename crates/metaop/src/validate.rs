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
//! * `parallel` blocks do not nest.

use cmswitch_arch::{ArrayId, ArrayMode};

use crate::dense::{ArrayTable, BlockClaims};
use crate::walk::{walk_flow, FlowEvent};
use crate::{Flow, MemLoc, MetaOpError, Stmt};

/// How many array ids get dense state: one past the largest id the flow
/// names, but never more than the flow has array references — so an
/// absurd id in an untrusted flow cannot size the tables (ids beyond
/// the bound take [`ArrayTable`]'s spill path).
fn dense_len(flow: &Flow) -> usize {
    let (mut refs, mut max_id) = (0usize, 0u32);
    for stmt in flow.stmts() {
        stmt.for_each_array(&mut |a| {
            refs += 1;
            max_id = max_id.max(a.0);
        });
    }
    refs.min((max_id as usize).saturating_add(1))
}

/// Validates a flow.
///
/// A thin first-error wrapper over [`walk_flow`]: the shared walker
/// delivers statements in program order and this visitor stops at the
/// first violation. The collect-everything verifier in `cmswitch-core`
/// rides the same walker but never stops.
///
/// # Errors
///
/// Returns the first [`MetaOpError`] violation found.
pub fn validate(flow: &Flow) -> Result<(), MetaOpError> {
    let len = dense_len(flow);
    // All arrays start in memory mode.
    let mut modes = ArrayTable::new(len, ArrayMode::Memory);
    let mut claims = BlockClaims::new(len);
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
            check_stmt(stmt, pos.stmt, &mut modes, in_block.then_some(&mut claims))
        }
    })
}

fn check_stmt<'a>(
    stmt: &'a Stmt,
    idx: usize,
    modes: &mut ArrayTable<ArrayMode>,
    claims: Option<&mut BlockClaims<'a>>,
) -> Result<(), MetaOpError> {
    // The first array of `arrays` not in `mode`, as the violation to
    // report; `detail` is only rendered for it.
    let require = |modes: &ArrayTable<ArrayMode>,
                   arrays: &[ArrayId],
                   mode: ArrayMode,
                   detail: &dyn Fn() -> String| {
        match arrays.iter().find(|&&a| *modes.get(a) != mode) {
            Some(&array) => Err(MetaOpError::ModeViolation {
                array,
                stmt: idx,
                detail: detail(),
            }),
            None => Ok(()),
        }
    };
    match stmt {
        Stmt::Switch { kind, arrays } => {
            for &a in arrays {
                *modes.slot(a) = kind.target_mode();
            }
        }
        Stmt::Compute(c) => {
            require(modes, &c.compute_arrays, ArrayMode::Compute, &|| {
                format!("{} computes on a memory-mode array", c.op)
            })?;
            let buffers = || format!("{} buffers on a compute-mode array", c.op);
            require(modes, &c.mem_in_arrays, ArrayMode::Memory, &buffers)?;
            require(modes, &c.mem_out_arrays, ArrayMode::Memory, &buffers)?;
            if let Some(claims) = claims {
                let mut first = None;
                claims.claim(c, |a| first = first.or(Some(a)));
                if let Some(array) = first {
                    return Err(MetaOpError::ArrayConflict { array, stmt: idx });
                }
            }
        }
        Stmt::LoadWeights(w) => {
            require(modes, &w.arrays, ArrayMode::Compute, &|| {
                format!("weight load for {} into a memory-mode array", w.op)
            })?;
        }
        Stmt::Mem(m) => {
            if let MemLoc::CimArrays(arrays) = &m.loc {
                require(modes, arrays, ArrayMode::Memory, &|| {
                    format!("scratchpad access `{}` on a compute-mode array", m.label)
                })?;
            }
        }
        Stmt::Vector(_) => {}
        Stmt::Parallel(_) => unreachable!("handled by caller"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeStmt, SwitchKind, WeightLoadStmt};

    fn compute(op: &str, c: Vec<u32>, min: Vec<u32>, mout: Vec<u32>) -> Stmt {
        Stmt::Compute(ComputeStmt {
            op: op.into(),
            compute_arrays: c.into_iter().map(ArrayId).collect(),
            mem_in_arrays: min.into_iter().map(ArrayId).collect(),
            mem_out_arrays: mout.into_iter().map(ArrayId).collect(),
            m: 1,
            k: 1,
            n: 1,
            units: 1,
            in_bytes: 0,
            out_bytes: 0,
            weight_static: true,
        })
    }

    #[test]
    fn compute_requires_compute_mode() {
        let mut f = Flow::new("f");
        f.push(compute("fc", vec![0], vec![], vec![]));
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::ModeViolation { .. })
        ));
        let mut f = Flow::new("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(compute("fc", vec![0], vec![], vec![]));
        assert!(validate(&f).is_ok());
    }

    #[test]
    fn buffers_require_memory_mode() {
        let mut f = Flow::new("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0), ArrayId(1)]));
        f.push(compute("fc", vec![0], vec![1], vec![]));
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::ModeViolation { .. })
        ));
    }

    #[test]
    fn weight_load_requires_compute_mode() {
        let mut f = Flow::new("f");
        f.push(Stmt::LoadWeights(WeightLoadStmt {
            op: "fc".into(),
            arrays: vec![ArrayId(2)],
            bytes: 10,
        }));
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::ModeViolation { .. })
        ));
    }

    #[test]
    fn compute_conflict_within_segment() {
        let mut f = Flow::new("f");
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
        let mut f = Flow::new("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0), ArrayId(1)]));
        f.push(Stmt::Parallel(vec![
            compute("a", vec![0], vec![], vec![2]),
            compute("b", vec![1], vec![2], vec![]),
        ]));
        assert!(validate(&f).is_ok());
    }

    #[test]
    fn compute_and_memory_roles_conflict() {
        let mut f = Flow::new("f");
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
        let mut f = Flow::new("f");
        f.push(Stmt::Parallel(vec![Stmt::Parallel(vec![])]));
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::NestedParallel { .. })
        ));
    }

    #[test]
    fn switch_back_and_forth_ok() {
        let mut f = Flow::new("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(compute("a", vec![0], vec![], vec![]));
        f.push(Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]));
        f.push(compute("b", vec![1], vec![0], vec![]));
        // b computes on array 1 which is still memory mode -> violation.
        assert!(matches!(
            validate(&f),
            Err(MetaOpError::ModeViolation { .. })
        ));
        let mut f2 = Flow::new("f2");
        f2.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0), ArrayId(1)]));
        f2.push(compute("a", vec![0], vec![], vec![]));
        f2.push(Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]));
        f2.push(compute("b", vec![1], vec![0], vec![]));
        assert!(validate(&f2).is_ok());
    }
}
