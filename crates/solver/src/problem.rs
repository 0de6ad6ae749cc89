use crate::simplex::{self, Workspace};
use crate::SolverError;

/// Stable FNV-1a hash of a word sequence.
///
/// The compiler keys its allocation caches by *signatures* — word
/// sequences describing a problem's structure (segment shapes, dependency
/// bytes, architecture parameters). This helper collapses such a sequence
/// into one 64-bit key that is stable across processes and platforms
/// (unlike `std::hash`, whose `RandomState` is seeded per process), so
/// signatures can be compared, logged or persisted.
pub fn stable_hash64(words: &[u64]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// Identifier of a decision variable in a [`LinearProgram`] or
/// [`crate::MipProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub terms: Vec<(usize, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear program `maximize c·x  s.t.  A x {≤,=,≥} b,  lb ≤ x ≤ ub`.
///
/// Solved by a dense two-phase simplex with Bland's anti-cycling rule —
/// ample for the compiler's per-segment allocation problems (tens of
/// variables). Each call works in a scratch workspace of its own.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    pub(crate) objective: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

/// An optimal solution to a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// The optimal objective value.
    pub objective: f64,
    /// Optimal variable values, indexed by [`VarId`].
    pub values: Vec<f64>,
}

impl LpSolution {
    /// Value of a variable in the solution.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }
}

impl LinearProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lower, upper]` and objective
    /// coefficient `obj` (maximization). `upper` may be `f64::INFINITY`.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        let id = VarId(self.objective.len());
        self.objective.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        id
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds the constraint `Σ terms {≤,=,≥} rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVariable`] if a term references a
    /// variable that was never added.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> Result<(), SolverError> {
        let mut resolved = Vec::with_capacity(terms.len());
        for (var, coef) in terms {
            if var.index() >= self.n_vars() {
                return Err(SolverError::UnknownVariable(var.index()));
            }
            resolved.push((var.index(), coef));
        }
        self.constraints.push(Constraint {
            terms: resolved,
            relation,
            rhs,
        });
        Ok(())
    }

    /// Solves the program with bounds overridden by `(lower, upper)`
    /// (used by branch-and-bound to branch without copying constraints),
    /// in the caller's workspace.
    ///
    /// # Errors
    ///
    /// See [`LinearProgram::solve`].
    pub(crate) fn solve_with_bounds(
        &self,
        lower: &[f64],
        upper: &[f64],
        ws: &mut Workspace,
    ) -> Result<LpSolution, SolverError> {
        for (i, (&lb, &ub)) in lower.iter().zip(upper).enumerate() {
            if lb > ub || !lb.is_finite() {
                return Err(SolverError::InvalidBounds {
                    var: i,
                    lower: lb,
                    upper: ub,
                });
            }
        }
        simplex::solve(self, lower, upper, ws)
    }

    /// Solves the program.
    ///
    /// # Errors
    ///
    /// * [`SolverError::Infeasible`] if no point satisfies the
    ///   constraints,
    /// * [`SolverError::Unbounded`] if the objective can grow without
    ///   bound,
    /// * [`SolverError::InvalidBounds`] for inverted or non-finite lower
    ///   bounds,
    /// * [`SolverError::IterationLimit`] on numerical breakdown.
    pub fn solve(&self) -> Result<LpSolution, SolverError> {
        self.solve_with_bounds(&self.lower, &self.upper, &mut Workspace::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_maximization() {
        // max 3x + 2y, x+y<=4, x<=2 -> x=2, y=2, obj 10.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 3.0);
        let y = lp.add_var(0.0, f64::INFINITY, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 10.0).abs() < 1e-6);
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_variable_rejected() {
        let mut lp = LinearProgram::new();
        let _ = lp.add_var(0.0, 1.0, 1.0);
        let ghost = VarId(5);
        assert!(matches!(
            lp.add_constraint(vec![(ghost, 1.0)], Relation::Le, 1.0),
            Err(SolverError::UnknownVariable(5))
        ));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 5.0).unwrap();
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 3.0).unwrap();
        assert_eq!(lp.solve(), Err(SolverError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new();
        let _x = lp.add_var(0.0, f64::INFINITY, 1.0);
        assert_eq!(lp.solve(), Err(SolverError::Unbounded));
    }

    #[test]
    fn equality_and_ge_constraints() {
        // max x + y, x + y = 3, x >= 1 -> obj 3.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 3.0)
            .unwrap();
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert!(sol.value(x) >= 1.0 - 1e-9);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // max -x with x in [2, 10] -> x = 2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(2.0, 10.0, -1.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.objective + 2.0).abs() < 1e-6);
    }

    #[test]
    fn upper_bounds_respected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 3.5, 1.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 3.5).abs() < 1e-6);
    }

    #[test]
    fn stable_hash_is_deterministic_and_order_sensitive() {
        assert_eq!(stable_hash64(&[1, 2, 3]), stable_hash64(&[1, 2, 3]));
        assert_ne!(stable_hash64(&[1, 2, 3]), stable_hash64(&[3, 2, 1]));
        assert_ne!(stable_hash64(&[]), stable_hash64(&[0]));
        // Known FNV-1a property: the empty input hashes to the offset.
        assert_eq!(stable_hash64(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut lp = LinearProgram::new();
        let _x = lp.add_var(5.0, 1.0, 1.0);
        assert!(matches!(
            lp.solve(),
            Err(SolverError::InvalidBounds { .. })
        ));
    }
}
