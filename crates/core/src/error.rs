use std::fmt;

use cmswitch_graph::GraphError;
use cmswitch_metaop::MetaOpError;
use cmswitch_solver::SolverError;

/// Error type of the compilation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The input graph is malformed.
    Graph(GraphError),
    /// A single sub-operator cannot fit the chip even after partitioning.
    OperatorTooLarge {
        /// Operator name.
        op: String,
        /// Arrays the operator's weights require.
        tiles_needed: usize,
        /// Arrays available.
        available: usize,
    },
    /// The segmentation DP found no feasible schedule.
    NoFeasibleSchedule,
    /// The compilation was cancelled — its [`crate::CancelToken`] was
    /// triggered or its deadline passed — before it completed.
    Cancelled,
    /// The allocation solver failed in an unexpected way.
    Solver(SolverError),
    /// Generated flow failed validation (internal invariant violation).
    InvalidFlow(MetaOpError),
    /// The opt-in static verifier found `Deny`-severity defects
    /// ([`CompilerOptions::with_verify`](crate::CompilerOptions::with_verify));
    /// the full report is attached.
    VerifyRejected(Box<crate::verify::VerifyReport>),
    /// The backend strategy panicked; the [`crate::Session`] contained
    /// the unwind, so only this request fails.
    BackendPanicked {
        /// The strategy's [`crate::Backend::name`].
        backend: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Graph(e) => write!(f, "graph error: {e}"),
            CompileError::OperatorTooLarge {
                op,
                tiles_needed,
                available,
            } => write!(
                f,
                "operator {op} needs {tiles_needed} arrays, chip has {available}"
            ),
            CompileError::NoFeasibleSchedule => write!(f, "no feasible schedule found"),
            CompileError::Cancelled => {
                write!(f, "compilation cancelled (token triggered or deadline passed)")
            }
            CompileError::Solver(e) => write!(f, "solver error: {e}"),
            CompileError::InvalidFlow(e) => write!(f, "generated flow invalid: {e}"),
            CompileError::VerifyRejected(report) => write!(
                f,
                "program verification rejected the compile ({} deny, {} warn):\n{report}",
                report.deny_count(),
                report.warn_count()
            ),
            CompileError::BackendPanicked { backend, message } => {
                write!(f, "backend {backend} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<GraphError> for CompileError {
    fn from(e: GraphError) -> Self {
        CompileError::Graph(e)
    }
}

impl From<SolverError> for CompileError {
    fn from(e: SolverError) -> Self {
        CompileError::Solver(e)
    }
}

impl From<MetaOpError> for CompileError {
    fn from(e: MetaOpError) -> Self {
        CompileError::InvalidFlow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: CompileError = GraphError::Cyclic.into();
        assert!(e.to_string().contains("cycle"));
        let e: CompileError = SolverError::Infeasible.into();
        assert!(e.to_string().contains("infeasible"));
        let e = CompileError::OperatorTooLarge {
            op: "fc".into(),
            tiles_needed: 100,
            available: 96,
        };
        assert!(e.to_string().contains("fc"));
        assert!(CompileError::Cancelled.to_string().contains("cancelled"));
    }
}
