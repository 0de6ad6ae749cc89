//! Pure-Rust LP/MIP solver — the Gurobi substitute of the CMSwitch
//! reproduction.
//!
//! The paper solves its per-segment dual-mode allocation problem
//! (§4.3.2) with Gurobi. This crate provides what that problem actually
//! needs:
//!
//! * [`LinearProgram`] + a dense two-phase **simplex** solver
//!   ([`LinearProgram::solve`]) whose kernel runs out of a reusable
//!   workspace and does pivot work proportional to the pivot row's
//!   non-zeros,
//! * [`MipProblem`] — **branch-and-bound** mixed-integer programming on
//!   top of the LP relaxation ([`MipProblem::solve`]): one workspace per
//!   solve, no LP solved twice, and [`MipSolution`] reports the LP
//!   solves and pivots the search cost,
//! * [`alloc`] — an independent exact solver specialized to the
//!   max-min-throughput allocation structure, used to cross-check the MIP
//!   and as a fast compilation path.
//!
//! # Example
//!
//! Maximize `3x + 2y` s.t. `x + y ≤ 4`, `x ≤ 2`:
//!
//! ```
//! use cmswitch_solver::{LinearProgram, Relation};
//!
//! let mut lp = LinearProgram::new();
//! let x = lp.add_var(0.0, f64::INFINITY, 3.0);
//! let y = lp.add_var(0.0, f64::INFINITY, 2.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0)?;
//! lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0)?;
//! let sol = lp.solve()?;
//! assert!((sol.objective - 10.0).abs() < 1e-6);
//! # Ok::<(), cmswitch_solver::SolverError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod mip;
mod problem;
mod simplex;

pub mod alloc;

pub use error::SolverError;
pub use mip::{MipProblem, MipSolution};
pub use problem::{stable_hash64, LinearProgram, LpSolution, Relation, VarId};
