use std::fmt;

use cmswitch_arch::ArrayId;

/// Error type for meta-operator flow validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOpError {
    /// An array is used for computation while in memory mode (or vice
    /// versa).
    ModeViolation {
        /// The offending array.
        array: ArrayId,
        /// Index of the offending statement.
        stmt: usize,
        /// Human-readable description.
        detail: String,
    },
    /// An array is claimed by two operators within one parallel segment
    /// (violates constraint Eq. 5 / Eq. 7).
    ArrayConflict {
        /// The doubly-claimed array.
        array: ArrayId,
        /// Index of the parallel block.
        stmt: usize,
    },
    /// `parallel` blocks may not nest.
    NestedParallel {
        /// Index of the offending statement.
        stmt: usize,
    },
    /// A statement names an operator past the flow's op table.
    UnknownOp {
        /// Index of the offending top-level statement.
        stmt: usize,
        /// The op index it names.
        op: u32,
        /// Entries in the flow's op table.
        ops: usize,
    },
}

impl fmt::Display for MetaOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaOpError::ModeViolation {
                array,
                stmt,
                detail,
            } => write!(f, "mode violation at statement {stmt} on {array}: {detail}"),
            MetaOpError::ArrayConflict { array, stmt } => {
                write!(f, "array {array} claimed twice inside segment {stmt}")
            }
            MetaOpError::NestedParallel { stmt } => {
                write!(f, "nested parallel block at statement {stmt}")
            }
            MetaOpError::UnknownOp { stmt, op, ops } => write!(
                f,
                "statement {stmt} names op {op}, past the flow's table of {ops} ops"
            ),
        }
    }
}

impl std::error::Error for MetaOpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = MetaOpError::ArrayConflict {
            array: ArrayId(4),
            stmt: 2,
        };
        assert!(e.to_string().contains("a4"));
    }
}
