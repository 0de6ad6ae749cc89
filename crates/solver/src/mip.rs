//! Best-first branch-and-bound mixed-integer programming.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::problem::{LinearProgram, LpSolution, Relation, VarId};
use crate::simplex::Workspace;
use crate::SolverError;

const INT_TOL: f64 = 1e-6;

/// A mixed-integer program: a [`LinearProgram`] plus integrality marks.
///
/// Solved exactly by best-first branch-and-bound over the LP relaxation.
/// This is the reproduction's Gurobi substitute for the paper's
/// per-segment allocation MIP (§4.3.2).
///
/// # Example
///
/// Knapsack-ish: maximize `5x + 4y` s.t. `6x + 5y ≤ 14`, integer `x, y ≥ 0`:
///
/// ```
/// use cmswitch_solver::{MipProblem, Relation};
///
/// let mut mip = MipProblem::new();
/// let x = mip.add_int_var(0.0, 10.0, 5.0);
/// let y = mip.add_int_var(0.0, 10.0, 4.0);
/// mip.add_constraint(vec![(x, 6.0), (y, 5.0)], Relation::Le, 14.0)?;
/// let sol = mip.solve()?;
/// assert_eq!(sol.int_value(x) + sol.int_value(y), 2); // x=1,y=1 or x=0,y=2
/// # Ok::<(), cmswitch_solver::SolverError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MipProblem {
    lp: LinearProgram,
    integer: Vec<bool>,
    node_limit: usize,
    relative_gap: f64,
    warm_start: Option<Vec<f64>>,
}

/// Solution of a [`MipProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct MipSolution {
    /// Objective value at the optimum.
    pub objective: f64,
    /// Variable values (integer variables are integral to tolerance).
    pub values: Vec<f64>,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Whether optimality was proven (false only if the node limit was hit
    /// after an incumbent was found).
    pub proven_optimal: bool,
    /// Whether a supplied warm start was feasible and seeded the initial
    /// incumbent (it may since have been displaced by a better one).
    pub used_warm_start: bool,
    /// LP relaxations solved: the root's, then one per explored node
    /// other than the root — `nodes_explored.max(1)`.
    pub lp_solves: usize,
    /// Simplex pivots (basis changes; bound flips are not pivots) over
    /// all of those LPs.
    pub pivots: usize,
}

impl MipSolution {
    /// Value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Rounded value of an integer variable.
    pub fn int_value(&self, var: VarId) -> i64 {
        self.values[var.index()].round() as i64
    }
}

/// An open node: the bound it inherited from its parent's relaxation
/// and the last bound change on its path from the root (`None`: the
/// root itself).
#[derive(Debug)]
struct Node {
    bound: f64,
    branch: Option<usize>,
}

/// One branching decision, chained to the decisions above it. A node's
/// variable bounds are the root's with its chain applied root to leaf,
/// so open nodes share their ancestors' decisions instead of each
/// carrying two full bound vectors.
#[derive(Debug, Clone, Copy)]
struct Branch {
    parent: Option<usize>,
    var: usize,
    bound: f64,
    /// `bound` replaces the variable's upper bound (down branch) or its
    /// lower bound (up branch).
    is_upper: bool,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on LP bound: explore most promising first.
        self.bound.partial_cmp(&other.bound).unwrap_or(Ordering::Equal)
    }
}

impl MipProblem {
    /// Creates an empty problem with the default node limit (200 000) and
    /// exact optimality (zero relative gap).
    pub fn new() -> Self {
        MipProblem {
            lp: LinearProgram::new(),
            integer: Vec::new(),
            node_limit: 200_000,
            relative_gap: 0.0,
            warm_start: None,
        }
    }

    /// Overrides the branch-and-bound node budget.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit.max(1);
    }

    /// Accepts incumbents within `gap` (relative) of the best bound —
    /// trades provable optimality for speed, like commercial solvers'
    /// `MIPGap` parameter.
    pub fn set_relative_gap(&mut self, gap: f64) {
        self.relative_gap = gap.max(0.0);
    }

    /// Supplies a known feasible assignment (like commercial solvers'
    /// MIP start). If it satisfies every constraint and integrality, it
    /// becomes the initial incumbent, which makes bound pruning effective
    /// from the first node.
    ///
    /// The vector must assign one value per variable added so far
    /// ([`MipProblem::n_vars`]). A mismatched length is rejected: the
    /// warm start is **not** stored and `false` is returned, so callers
    /// that built the vector against a stale variable count find out
    /// immediately instead of silently losing the incumbent at solve
    /// time. A correctly sized but infeasible warm start is accepted here
    /// (`true`) and ignored by [`MipProblem::solve`].
    #[must_use = "a rejected warm start means the incumbent is silently missing"]
    pub fn set_warm_start(&mut self, values: Vec<f64>) -> bool {
        if values.len() != self.n_vars() {
            return false;
        }
        self.warm_start = Some(values);
        true
    }

    /// Discards any stored warm start. The next [`MipProblem::solve`] runs
    /// cold. This is the only way to drop an accepted warm start: a
    /// *rejected* [`MipProblem::set_warm_start`] call deliberately leaves a
    /// previously accepted one in place.
    pub fn clear_warm_start(&mut self) {
        self.warm_start = None;
    }

    /// Whether a warm start is currently stored.
    pub fn has_warm_start(&self) -> bool {
        self.warm_start.is_some()
    }

    /// Evaluates an assignment: `Some(objective)` if it satisfies bounds,
    /// constraints and integrality (to tolerance), `None` otherwise.
    pub fn check_feasible(&self, values: &[f64]) -> Option<f64> {
        if values.len() != self.n_vars() {
            return None;
        }
        for (j, &v) in values.iter().enumerate() {
            if v < self.lp.lower[j] - 1e-7 || v > self.lp.upper[j] + 1e-7 {
                return None;
            }
            if self.integer[j] && (v - v.round()).abs() > INT_TOL {
                return None;
            }
        }
        for c in &self.lp.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * values[v]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + 1e-6,
                Relation::Ge => lhs >= c.rhs - 1e-6,
                Relation::Eq => (lhs - c.rhs).abs() <= 1e-6,
            };
            if !ok {
                return None;
            }
        }
        Some(
            values
                .iter()
                .zip(&self.lp.objective)
                .map(|(v, c)| v * c)
                .sum(),
        )
    }

    /// Adds a continuous variable (maximization coefficient `obj`).
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        self.integer.push(false);
        self.lp.add_var(lower, upper, obj)
    }

    /// Adds an integer variable.
    pub fn add_int_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        self.integer.push(true);
        self.lp.add_var(lower, upper, obj)
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.lp.n_vars()
    }

    /// Adds the constraint `Σ terms {≤,=,≥} rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::UnknownVariable`] for dangling variables.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> Result<(), SolverError> {
        self.lp.add_constraint(terms, relation, rhs)
    }

    /// Solves the MIP to optimality (within tolerances).
    ///
    /// # Errors
    ///
    /// * [`SolverError::Infeasible`] if no integer-feasible point exists,
    /// * [`SolverError::Unbounded`] if the relaxation is unbounded,
    /// * [`SolverError::NodeLimit`] if the node budget is exhausted before
    ///   any incumbent is found.
    pub fn solve(&self) -> Result<MipSolution, SolverError> {
        // One simplex workspace and one pair of bound buffers serve
        // every LP of this solve.
        let mut ws = Workspace::default();
        let mut lower = self.lp.lower.clone();
        let mut upper = self.lp.upper.clone();
        let root = self.lp.solve_with_bounds(&lower, &upper, &mut ws)?;

        let mut branches: Vec<Branch> = Vec::new();
        let mut path: Vec<usize> = Vec::new();
        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bound: root.objective,
            branch: None,
        });
        // Handed to the root node when it is popped, not solved again.
        let mut root = Some(root);

        let mut incumbent: Option<MipSolution> = self.warm_start.as_ref().and_then(|values| {
            self.check_feasible(values).map(|objective| MipSolution {
                objective,
                values: values.clone(),
                nodes_explored: 0,
                proven_optimal: false,
                used_warm_start: true,
                lp_solves: 0,
                pivots: 0,
            })
        });
        let warm_seeded = incumbent.is_some();
        let mut nodes = 0usize;
        let mut exhausted = false;

        while let Some(node) = heap.pop() {
            if nodes >= self.node_limit {
                exhausted = true;
                break;
            }
            if let Some(best) = &incumbent {
                let margin = INT_TOL + self.relative_gap * best.objective.abs();
                if node.bound <= best.objective + margin {
                    continue; // pruned by bound (within gap)
                }
            }
            nodes += 1;
            // The node's bounds: the root's, then its chain of branching
            // decisions from the root down (a deeper decision on the
            // same variable and side overrides a shallower one).
            lower.copy_from_slice(&self.lp.lower);
            upper.copy_from_slice(&self.lp.upper);
            path.clear();
            let mut at = node.branch;
            while let Some(i) = at {
                path.push(i);
                at = branches[i].parent;
            }
            for &i in path.iter().rev() {
                let decision = branches[i];
                let side = if decision.is_upper { &mut upper } else { &mut lower };
                side[decision.var] = decision.bound;
            }
            let relax = match node.branch {
                None => root.take().expect("the root node is pushed once"),
                Some(_) => match self.lp.solve_with_bounds(&lower, &upper, &mut ws) {
                    Ok(sol) => sol,
                    Err(SolverError::Infeasible) => continue,
                    Err(e) => return Err(e),
                },
            };
            if let Some(best) = &incumbent {
                let margin = INT_TOL + self.relative_gap * best.objective.abs();
                if relax.objective <= best.objective + margin {
                    continue;
                }
            }
            match self.most_fractional(&relax) {
                None => {
                    // Integer feasible: new incumbent.
                    let better = incumbent
                        .as_ref()
                        .is_none_or(|b| relax.objective > b.objective + INT_TOL);
                    if better {
                        incumbent = Some(MipSolution {
                            objective: relax.objective,
                            values: round_integers(&relax, &self.integer),
                            nodes_explored: nodes,
                            proven_optimal: true,
                            used_warm_start: warm_seeded,
                            lp_solves: 0,
                            pivots: 0,
                        });
                    }
                }
                Some(var) => {
                    let v = relax.values[var];
                    let mut push_child = |bound: f64, is_upper: bool| {
                        branches.push(Branch {
                            parent: node.branch,
                            var,
                            bound,
                            is_upper,
                        });
                        heap.push(Node {
                            bound: relax.objective,
                            branch: Some(branches.len() - 1),
                        });
                    };
                    // Down branch: x <= floor(v).
                    let floor = v.floor();
                    if floor >= lower[var] - INT_TOL {
                        push_child(floor, true);
                    }
                    // Up branch: x >= ceil(v).
                    let ceil = v.ceil();
                    if !upper[var].is_finite() || ceil <= upper[var] + INT_TOL {
                        push_child(ceil, false);
                    }
                }
            }
        }

        match incumbent {
            Some(mut sol) => {
                sol.nodes_explored = nodes;
                // Natural drain: every open node was pruned, so the
                // incumbent is optimal within the configured gap. A
                // search cut short by the node budget proves nothing.
                sol.proven_optimal = !exhausted;
                sol.lp_solves = ws.lp_solves;
                sol.pivots = ws.pivots;
                Ok(sol)
            }
            None if exhausted => Err(SolverError::NodeLimit),
            None => Err(SolverError::Infeasible),
        }
    }

    fn most_fractional(&self, sol: &LpSolution) -> Option<usize> {
        let mut worst: Option<(usize, f64)> = None;
        for (j, (&v, &is_int)) in sol.values.iter().zip(&self.integer).enumerate() {
            if !is_int {
                continue;
            }
            let frac = (v - v.round()).abs();
            if frac > INT_TOL {
                let dist = (v - v.floor()).min(v.ceil() - v);
                if worst.is_none_or(|(_, w)| dist > w) {
                    worst = Some((j, dist));
                }
            }
        }
        worst.map(|(j, _)| j)
    }
}

fn round_integers(sol: &LpSolution, integer: &[bool]) -> Vec<f64> {
    sol.values
        .iter()
        .zip(integer)
        .map(|(&v, &is_int)| if is_int { v.round() } else { v })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn knapsack_exact() {
        // max 10x1 + 13x2 + 7x3, 3x1+4x2+2x3 <= 6, xi in {0,1}
        // best: x1 + x3? 3+2=5 <=6 -> 17; x2+x3: 4+2=6 -> 20. Optimal 20.
        let mut mip = MipProblem::new();
        let x1 = mip.add_int_var(0.0, 1.0, 10.0);
        let x2 = mip.add_int_var(0.0, 1.0, 13.0);
        let x3 = mip.add_int_var(0.0, 1.0, 7.0);
        mip.add_constraint(
            vec![(x1, 3.0), (x2, 4.0), (x3, 2.0)],
            Relation::Le,
            6.0,
        )
        .unwrap();
        let sol = mip.solve().unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert_eq!(sol.int_value(x2), 1);
        assert_eq!(sol.int_value(x3), 1);
        assert!(sol.proven_optimal);
    }

    #[test]
    fn no_lp_is_solved_twice() {
        // The knapsack above branches: its root relaxation is fractional.
        // Every explored node costs exactly one LP — the root's
        // relaxation, solved up front for its bound, is handed to the
        // root node rather than solved again when that node is popped.
        let mut mip = MipProblem::new();
        let x1 = mip.add_int_var(0.0, 1.0, 10.0);
        let x2 = mip.add_int_var(0.0, 1.0, 13.0);
        let x3 = mip.add_int_var(0.0, 1.0, 7.0);
        mip.add_constraint(vec![(x1, 3.0), (x2, 4.0), (x3, 2.0)], Relation::Le, 6.0)
            .unwrap();
        let sol = mip.solve().unwrap();
        assert!(sol.nodes_explored > 1, "the instance must branch");
        assert_eq!(sol.lp_solves, sol.nodes_explored.max(1));
        assert!(sol.pivots >= sol.lp_solves, "every one of these LPs pivots");
        // A warm start that already meets the root bound prunes the root
        // unexplored: the one LP solved is the relaxation that proved it.
        let mut mip = MipProblem::new();
        let x = mip.add_int_var(0.0, 5.0, 1.0);
        mip.add_constraint(vec![(x, 2.0)], Relation::Le, 6.0).unwrap();
        assert!(mip.set_warm_start(vec![3.0]));
        let pruned = mip.solve().unwrap();
        assert_eq!((pruned.nodes_explored, pruned.lp_solves), (0, 1));
    }

    #[test]
    fn integrality_gap_case() {
        // LP relaxation gives fractional optimum; MIP must round down.
        // max x, 2x <= 3, x integer -> x = 1.
        let mut mip = MipProblem::new();
        let x = mip.add_int_var(0.0, 10.0, 1.0);
        mip.add_constraint(vec![(x, 2.0)], Relation::Le, 3.0).unwrap();
        let sol = mip.solve().unwrap();
        assert_eq!(sol.int_value(x), 1);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max x + y, x integer <= 2.5 bound via constraint, y continuous <= 0.7.
        let mut mip = MipProblem::new();
        let x = mip.add_int_var(0.0, f64::INFINITY, 1.0);
        let y = mip.add_var(0.0, 0.7, 1.0);
        mip.add_constraint(vec![(x, 1.0)], Relation::Le, 2.5).unwrap();
        let sol = mip.solve().unwrap();
        assert_eq!(sol.int_value(x), 2);
        assert!((sol.value(y) - 0.7).abs() < 1e-6);
    }

    #[test]
    fn warm_start_length_mismatch_rejected() {
        let mut mip = MipProblem::new();
        let x = mip.add_int_var(0.0, 5.0, 1.0);
        mip.add_constraint(vec![(x, 2.0)], Relation::Le, 7.0).unwrap();
        // Too short and too long vectors are both rejected up front …
        assert!(!mip.set_warm_start(vec![]));
        assert!(!mip.set_warm_start(vec![1.0, 1.0]));
        // … and do not linger as a bogus incumbent: the solve still finds
        // the true optimum x = 3.
        let sol = mip.solve().unwrap();
        assert_eq!(sol.int_value(x), 3);
        assert!(sol.proven_optimal);
        // A correctly sized start is accepted and used.
        assert!(mip.set_warm_start(vec![2.0]));
        let sol = mip.solve().unwrap();
        assert_eq!(sol.int_value(x), 3);
        assert!(sol.used_warm_start);
    }

    #[test]
    fn rejected_warm_start_keeps_prior_and_clear_removes_it() {
        let mut mip = MipProblem::new();
        let x = mip.add_int_var(0.0, 5.0, 1.0);
        mip.add_constraint(vec![(x, 2.0)], Relation::Le, 7.0).unwrap();
        // Accept a feasible warm start …
        assert!(mip.set_warm_start(vec![2.0]));
        assert!(mip.has_warm_start());
        // … then a rejected (wrong-length) call must clear nothing: the
        // previously accepted start still seeds the incumbent.
        assert!(!mip.set_warm_start(vec![1.0, 1.0]));
        assert!(mip.has_warm_start());
        let sol = mip.solve().unwrap();
        assert_eq!(sol.int_value(x), 3);
        assert!(sol.used_warm_start);
        // clear_warm_start is the explicit way to drop it.
        mip.clear_warm_start();
        assert!(!mip.has_warm_start());
        let sol = mip.solve().unwrap();
        assert_eq!(sol.int_value(x), 3);
        assert!(!sol.used_warm_start);
    }

    #[test]
    fn infeasible_warm_start_ignored_without_changing_solution() {
        let mut mip = MipProblem::new();
        let x = mip.add_int_var(0.0, 5.0, 1.0);
        mip.add_constraint(vec![(x, 2.0)], Relation::Le, 7.0).unwrap();
        let cold = mip.solve().unwrap();
        // x = 5 violates 2x <= 7: accepted at set time, ignored at solve
        // time, and the returned solution is identical to the cold one.
        assert!(mip.set_warm_start(vec![5.0]));
        let warm = mip.solve().unwrap();
        assert!(!warm.used_warm_start);
        assert_eq!(warm.values, cold.values);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn infeasible_integer() {
        // 0.4 <= x <= 0.6 has no integer point.
        let mut mip = MipProblem::new();
        let x = mip.add_int_var(0.0, 1.0, 1.0);
        mip.add_constraint(vec![(x, 1.0)], Relation::Ge, 0.4).unwrap();
        mip.add_constraint(vec![(x, 1.0)], Relation::Le, 0.6).unwrap();
        assert_eq!(mip.solve(), Err(SolverError::Infeasible));
    }

    #[test]
    fn equality_constrained_integers() {
        // x + y = 5, max 2x + y -> x = 5, y = 0.
        let mut mip = MipProblem::new();
        let x = mip.add_int_var(0.0, 10.0, 2.0);
        let y = mip.add_int_var(0.0, 10.0, 1.0);
        mip.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 5.0)
            .unwrap();
        let sol = mip.solve().unwrap();
        assert_eq!(sol.int_value(x), 5);
        assert_eq!(sol.int_value(y), 0);
    }

    /// Exhaustive-search reference for small pure-integer problems.
    fn brute_force(mip: &MipProblem, ub: i64) -> Option<f64> {
        let n = mip.n_vars();
        let mut best: Option<f64> = None;
        let mut assign = vec![0i64; n];
        loop {
            let feasible = mip.lp.constraints.iter().all(|c| {
                let lhs: f64 = c
                    .terms
                    .iter()
                    .map(|&(v, a)| a * assign[v] as f64)
                    .sum();
                match c.relation {
                    Relation::Le => lhs <= c.rhs + 1e-9,
                    Relation::Ge => lhs >= c.rhs - 1e-9,
                    Relation::Eq => (lhs - c.rhs).abs() < 1e-9,
                }
            });
            if feasible {
                let obj: f64 = assign
                    .iter()
                    .zip(&mip.lp.objective)
                    .map(|(&x, c)| x as f64 * c)
                    .sum();
                best = Some(best.map_or(obj, |b: f64| b.max(obj)));
            }
            // Increment odometer.
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                assign[i] += 1;
                if assign[i] > ub {
                    assign[i] = 0;
                    i += 1;
                } else {
                    break;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn matches_brute_force_on_random_ips(seed in 0u64..10_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(2usize..4);
            let ub = 4i64;
            let mut mip = MipProblem::new();
            let vars: Vec<_> = (0..n)
                .map(|_| mip.add_int_var(0.0, ub as f64, rng.gen_range(-1.0..5.0)))
                .collect();
            for _ in 0..rng.gen_range(1usize..4) {
                let terms: Vec<_> = vars
                    .iter()
                    .map(|&v| (v, rng.gen_range(-1.0..3.0)))
                    .collect();
                let rhs = rng.gen_range(1.0..12.0);
                mip.add_constraint(terms, Relation::Le, rhs).unwrap();
            }
            let brute = brute_force(&mip, ub);
            match mip.solve() {
                Ok(sol) => {
                    let b = brute.expect("solver found solution, brute force must too");
                    prop_assert!((sol.objective - b).abs() < 1e-5,
                        "solver {} vs brute {}", sol.objective, b);
                }
                Err(SolverError::Infeasible) => prop_assert!(brute.is_none()),
                Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
            }
        }
    }
}
