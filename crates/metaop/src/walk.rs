//! Shared statement iteration over flows.
//!
//! Both the first-error validator ([`crate::validate`]) and the
//! collect-everything verifier in `cmswitch-core` need to walk a flow in
//! program order while tracking whether the current statement sits inside
//! a `parallel` segment. [`walk_flow`] is that single iteration helper:
//! visitors receive [`FlowEvent`]s and decide for themselves whether to
//! stop at the first problem (return `Err`) or keep collecting (always
//! return `Ok`).

use crate::{Flow, Stmt};

/// Position of a statement within a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtPos {
    /// Index of the enclosing top-level statement.
    pub stmt: usize,
    /// Index within the enclosing `parallel` block, if any.
    pub inner: Option<usize>,
}

/// One traversal event delivered by [`walk_flow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowEvent<'a> {
    /// Entering the top-level `parallel` block at statement `stmt`.
    EnterParallel {
        /// Top-level statement index of the block.
        stmt: usize,
    },
    /// A statement, either top-level (`pos.inner == None`) or inside a
    /// `parallel` block (`pos.inner == Some(i)`). An illegally *nested*
    /// `parallel` is delivered as a `Stmt::Parallel` with `pos.inner`
    /// set — it is not descended into, so visitors can flag it.
    Stmt {
        /// Where the statement sits.
        pos: StmtPos,
        /// The statement itself.
        stmt: &'a Stmt,
    },
    /// Leaving the top-level `parallel` block at statement `stmt`.
    ExitParallel {
        /// Top-level statement index of the block.
        stmt: usize,
    },
}

/// Walks `flow` in program order, delivering a [`FlowEvent`] per
/// statement plus enter/exit markers around each top-level `parallel`
/// block.
///
/// # Errors
///
/// Stops at the visitor's first `Err` and propagates it (this is how
/// [`crate::validate`] keeps its first-error contract); a visitor that
/// always returns `Ok` sees every statement.
pub fn walk_flow<'a, E>(
    flow: &'a Flow,
    mut visit: impl FnMut(FlowEvent<'a>) -> Result<(), E>,
) -> Result<(), E> {
    for (idx, stmt) in flow.stmts().iter().enumerate() {
        match stmt {
            Stmt::Parallel(body) => {
                visit(FlowEvent::EnterParallel { stmt: idx })?;
                for (inner, s) in body.iter().enumerate() {
                    visit(FlowEvent::Stmt {
                        pos: StmtPos { stmt: idx, inner: Some(inner) },
                        stmt: s,
                    })?;
                }
                visit(FlowEvent::ExitParallel { stmt: idx })?;
            }
            s => visit(FlowEvent::Stmt {
                pos: StmtPos { stmt: idx, inner: None },
                stmt: s,
            })?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SwitchKind, VectorStmt};
    use cmswitch_arch::ArrayId;

    fn vector(op: u32) -> Stmt {
        Stmt::Vector(VectorStmt { op, flops: 1 })
    }

    #[test]
    fn events_in_program_order() {
        let mut f = Flow::new("f");
        f.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
        f.push(Stmt::Parallel(vec![vector(0), vector(1)]));
        f.push(vector(2));

        let mut trace = Vec::new();
        let ok: Result<(), ()> = walk_flow(&f, |ev| {
            trace.push(match ev {
                FlowEvent::EnterParallel { stmt } => format!("enter:{stmt}"),
                FlowEvent::ExitParallel { stmt } => format!("exit:{stmt}"),
                FlowEvent::Stmt { pos, .. } => {
                    format!("stmt:{}:{}", pos.stmt, pos.inner.map_or(-1, |i| i as i64))
                }
            });
            Ok(())
        });
        ok.unwrap();
        assert_eq!(
            trace,
            vec!["stmt:0:-1", "enter:1", "stmt:1:0", "stmt:1:1", "exit:1", "stmt:2:-1"]
        );
    }

    #[test]
    fn first_error_stops_the_walk() {
        let mut f = Flow::new("f");
        f.push(vector(0));
        f.push(vector(1));
        let mut seen = 0usize;
        let err: Result<(), &str> = walk_flow(&f, |_| {
            seen += 1;
            Err("stop")
        });
        assert_eq!(err, Err("stop"));
        assert_eq!(seen, 1);
    }

    #[test]
    fn nested_parallel_is_delivered_not_descended() {
        let mut f = Flow::new("f");
        f.push(Stmt::Parallel(vec![Stmt::Parallel(vec![vector(3)])]));
        let mut nested = 0usize;
        let mut total = 0usize;
        let ok: Result<(), ()> = walk_flow(&f, |ev| {
            if let FlowEvent::Stmt { pos, stmt } = ev {
                total += 1;
                if matches!(stmt, Stmt::Parallel(_)) {
                    assert_eq!(pos, StmtPos { stmt: 0, inner: Some(0) });
                    nested += 1;
                }
            }
            Ok(())
        });
        ok.unwrap();
        assert_eq!(nested, 1);
        // The inner block's own body is not visited.
        assert_eq!(total, 1);
    }
}
