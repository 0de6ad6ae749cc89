//! Dense two-phase simplex with implicit variable bounds and Bland's
//! anti-cycling rule, run out of a reusable [`Workspace`].
//!
//! Problems are converted to standard form (shifted variables `y = x -
//! lb ≥ 0`, slack/surplus/artificial columns); phase 1 drives the
//! artificials to zero, phase 2 optimizes the real objective. Finite
//! upper bounds are handled *implicitly* by the bounded-variable rules
//! (bound flips via column complementing, upper-bound ratio tests on
//! basic variables) instead of as extra tableau rows: the allocation
//! MIPs bound every variable, so explicit rows would triple the row
//! count and dominate branch-and-bound time. Sizes in this codebase are
//! tens of variables, so a dense tableau is the right tool.
//!
//! # Cost contract
//!
//! Branch-and-bound solves hundreds of LPs that differ only in their
//! variable bounds, so the kernel owns no memory of its own:
//!
//! * **One workspace per MIP solve.** Tableau, rhs, basis, column
//!   bounds, marks, reduced costs and scratch live in a [`Workspace`]
//!   that one `MipProblem::solve` call owns and every node LP of that
//!   call refills. It is never shared between threads — concurrent
//!   solves each bring their own — and `LinearProgram::solve` runs the
//!   same kernel on a throw-away one.
//! * **No allocation per pivot or per node LP** beyond the returned
//!   `values`: the tableau is written straight from the program's
//!   constraints, and once the workspace has grown to the problem's
//!   size a solve only overwrites it.
//! * **Pivot work proportional to the pivot row's non-zeros.** A pivot
//!   lists the non-zero columns of the scaled pivot row once; the row
//!   eliminations and the reduced-cost update touch only those columns.
//!   On the allocation MIPs about 9% of a pivot row is non-zero.
//!   Skipping a zero is exact — `x − f·0 = x` — except for the sign of a
//!   zero result, which no comparison, division or output reads.
//!
//! # What must not move
//!
//! The allocation MIPs are degenerate max-min programs: many vertices
//! share the optimal objective, the pivot rule decides which one the LP
//! returns, that vertex decides where branch-and-bound branches, and the
//! integer point it ends on *is* the compiled plan. Speeding the kernel
//! up is therefore only safe as "the identical pivot sequence on the
//! identical numbers" (`tests/solver_golden.rs` pins it to the bit).
//! Four rules carry that:
//!
//! * **Entering column.** Dantzig's rule takes the most positive reduced
//!   cost and, among exact ties, the *last* such column; after 64
//!   stalled iterations Bland's rule takes the *first* improving column.
//!   Banned columns (artificials in phase 2) never enter. Repeated
//!   layers make exact ties the common case, so "first" versus "last"
//!   picks a different vertex.
//! * **Ratio test.** Rows are scanned in ascending order with the
//!   entering column's own bound flip as the first candidate; a row
//!   displaces a flip when `t < best + TOL`, and displaces another row
//!   when `t < best − TOL`, or within `TOL` when its basic variable has
//!   the smaller index. A variable leaving at its upper bound has its
//!   column complemented and its row negated before the pivot. Which of
//!   several tied rows leaves decides the next basis.
//! * **Arithmetic.** Eliminations skip rows whose factor is `≤ TOL` in
//!   magnitude, a basic value within `TOL` of zero snaps to zero, and
//!   `TOL`, `MAX_ITERS`, the phase 1 → drive-out → ban → phase 2 order
//!   and the value extraction are fixed: any of them changes a rounding
//!   somewhere, and a changed low bit is enough to flip a later tie.
//! * **Search** (in `mip.rs`). Best-first on the parent's relaxation
//!   objective, down child pushed before up child, prune margins and the
//!   node budget unchanged — the heap pops equal bounds in an order that
//!   depends on the exact push sequence.

use crate::problem::{LinearProgram, LpSolution, Relation};
use crate::SolverError;

const TOL: f64 = 1e-9;
const MAX_ITERS: usize = 50_000;

/// Every buffer the kernel works in, plus the effort it has spent.
///
/// [`solve`] refills it from scratch (nothing carries over from one LP
/// to the next but capacity and the two counters), so one workspace can
/// serve any sequence of programs of any size.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Constraint matrix, row-major `m × n_total`.
    a: Vec<f64>,
    /// Values of the basic variables (in tableau space), `0 ≤ b[r]`.
    b: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Upper bound of each column in tableau space (∞ when unbounded;
    /// complementing a column keeps its range `[0, u]`).
    upper: Vec<f64>,
    /// Columns currently substituted as `x = u - x̂` (nonbasic at upper
    /// bound, or re-entered from it).
    complemented: Vec<bool>,
    /// First artificial column: the layout is `[structural | slack and
    /// surplus | artificial]`, so the artificials are `art_start..n_total`.
    art_start: usize,
    /// Columns `0..enterable` may enter the basis: all of them in phase
    /// 1, `0..art_start` once phase 2 has banned the artificials.
    enterable: usize,
    /// Rows whose shifted rhs was negative and that were therefore
    /// written with every sign (and the relation) reversed.
    flipped: Vec<bool>,
    /// Reduced costs of the phase being optimized.
    cost: Vec<f64>,
    /// The non-zeros of the last scaled pivot row, `(column, value)`.
    pivot_row: Vec<(usize, f64)>,
    /// Extraction scratch: the row each column is basic in.
    row_of: Vec<usize>,
    n_total: usize,
    /// LPs solved through this workspace.
    pub(crate) lp_solves: usize,
    /// Basis-changing pivots performed through this workspace (bound
    /// flips are not pivots).
    pub(crate) pivots: usize,
}

enum Step {
    /// The entering column hit its own upper bound: no basis change.
    BoundFlip,
    /// Pivot at `row`; the leaving basic variable exits at its
    /// `upper` bound (true) or at zero (false).
    Pivot { row: usize, at_upper: bool },
}

/// `v` becomes `len` copies of `value`, keeping its capacity.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// The relation a row is written with once a negative rhs reversed it.
fn oriented(relation: Relation, flipped: bool) -> Relation {
    match (relation, flipped) {
        (Relation::Le, true) => Relation::Ge,
        (Relation::Ge, true) => Relation::Le,
        (relation, _) => relation,
    }
}

impl Workspace {
    #[inline]
    fn at(&self, r: usize, j: usize) -> f64 {
        self.a[r * self.n_total + j]
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let n = self.n_total;
        let scale = self.at(row, col);
        self.pivot_row.clear();
        for (j, v) in self.a[row * n..(row + 1) * n].iter_mut().enumerate() {
            if *v != 0.0 {
                *v /= scale;
                self.pivot_row.push((j, *v));
            }
        }
        self.b[row] /= scale;
        for r in 0..self.b.len() {
            if r == row {
                continue;
            }
            let target = &mut self.a[r * n..(r + 1) * n];
            let factor = target[col];
            if factor.abs() <= TOL {
                continue;
            }
            for &(j, p) in &self.pivot_row {
                target[j] -= factor * p;
            }
            self.b[r] -= factor * self.b[row];
            if self.b[r].abs() < TOL {
                self.b[r] = 0.0;
            }
        }
        self.basis[row] = col;
    }

    /// Substitutes column `col` as `x = upper - x̂`: negates the column,
    /// shifts the basic values, and flips the reduced cost. Used when a
    /// nonbasic variable moves to (or re-enters from) its upper bound.
    fn complement(&mut self, col: usize) {
        let u = self.upper[col];
        for r in 0..self.b.len() {
            let arj = self.a[r * self.n_total + col];
            if arj != 0.0 {
                self.b[r] -= arj * u;
                self.a[r * self.n_total + col] = -arj;
                if self.b[r].abs() < TOL {
                    self.b[r] = 0.0;
                }
            } else {
                self.a[r * self.n_total + col] = -arj;
            }
        }
        self.cost[col] = -self.cost[col];
        self.complemented[col] = !self.complemented[col];
    }

    /// Bounded-variable ratio test for entering column `col`: the step
    /// is limited by the entering variable's own upper bound, by basic
    /// variables dropping to zero, and by basic variables rising to
    /// their upper bounds. Ties break on the smaller basic-variable
    /// index (Bland-compatible).
    fn ratio_test(&self, col: usize) -> Option<(Step, f64)> {
        let mut best: Option<(Step, f64)> = None;
        if self.upper[col].is_finite() {
            best = Some((Step::BoundFlip, self.upper[col]));
        }
        for r in 0..self.b.len() {
            let arj = self.at(r, col);
            let (t, at_upper) = if arj > TOL {
                (self.b[r] / arj, false)
            } else if arj < -TOL && self.upper[self.basis[r]].is_finite() {
                ((self.upper[self.basis[r]] - self.b[r]) / -arj, true)
            } else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((Step::BoundFlip, bt)) => t < *bt + TOL,
                Some((Step::Pivot { row, .. }, bt)) => {
                    t < *bt - TOL || (t < *bt + TOL && self.basis[r] < self.basis[*row])
                }
            };
            if better {
                best = Some((Step::Pivot { row: r, at_upper }, t));
            }
        }
        best
    }

    /// Runs simplex iterations maximizing the objective described by the
    /// reduced costs in `self.cost` (updated in place), accumulating the
    /// objective delta into `obj`.
    ///
    /// Pivoting uses Dantzig's rule (steepest reduced cost) for speed and
    /// falls back to Bland's rule once the objective stalls, which
    /// guarantees termination on degenerate problems.
    fn optimize(&mut self, obj: &mut f64) -> Result<(), SolverError> {
        let mut stall = 0usize;
        for _ in 0..MAX_ITERS {
            let cost = &self.cost[..self.enterable];
            let entering = if stall < 64 {
                // Dantzig: most positive reduced cost (`max_by` keeps
                // the last of equal maxima).
                (0..cost.len())
                    .filter(|&j| cost[j] > TOL)
                    .max_by(|&a, &b| cost[a].partial_cmp(&cost[b]).expect("finite costs"))
            } else {
                // Bland: smallest-index improving column (anti-cycling).
                cost.iter().position(|&c| c > TOL)
            };
            let Some(col) = entering else {
                return Ok(());
            };
            let Some((step, t)) = self.ratio_test(col) else {
                return Err(SolverError::Unbounded);
            };
            if self.cost[col] * t > TOL {
                stall = 0;
            } else {
                stall += 1;
            }
            *obj += self.cost[col] * t;
            match step {
                Step::BoundFlip => {
                    // The entering variable walks to its own upper bound
                    // without driving any basic variable out.
                    self.complement(col);
                }
                Step::Pivot { row, at_upper } => {
                    if at_upper {
                        // The leaving variable exits at its upper bound:
                        // complement its column, then negate the row to
                        // restore a nonnegative rhs. The two negations
                        // cancel on the leaving column itself, which
                        // keeps its canonical +1 coefficient.
                        let leaving = self.basis[row];
                        self.b[row] = self.upper[leaving] - self.b[row];
                        let n = self.n_total;
                        for (j, v) in self.a[row * n..(row + 1) * n].iter_mut().enumerate() {
                            if j != leaving {
                                *v = -*v;
                            }
                        }
                        self.complemented[leaving] = !self.complemented[leaving];
                    }
                    self.pivot(row, col);
                    // Update reduced costs: eliminate the entering column
                    // over the pivot row's non-zeros `pivot` just listed.
                    let factor = self.cost[col];
                    if factor.abs() > 0.0 {
                        for &(j, p) in &self.pivot_row {
                            self.cost[j] -= factor * p;
                        }
                    }
                }
            }
        }
        Err(SolverError::IterationLimit)
    }

    /// Expresses the objective in `self.cost` in the current basis:
    /// subtracts multiples of the basic rows so reduced costs of basic
    /// variables vanish.
    fn canonicalize(&mut self, obj: &mut f64) {
        let n = self.n_total;
        for r in 0..self.b.len() {
            let coef = self.cost[self.basis[r]];
            if coef.abs() > 0.0 {
                for (cj, &arj) in self.cost.iter_mut().zip(&self.a[r * n..(r + 1) * n]) {
                    *cj -= coef * arj;
                }
                *obj += coef * self.b[r];
            }
        }
    }
}

/// Solves `lp` (maximization) with the supplied bounds, using (and
/// overwriting) `ws`.
pub(crate) fn solve(
    lp: &LinearProgram,
    lower: &[f64],
    upper: &[f64],
    ws: &mut Workspace,
) -> Result<LpSolution, SolverError> {
    ws.lp_solves += 1;
    let n = lp.n_vars();
    let m = lp.constraints.len();

    // Shift: y_j = x_j - lb_j in [0, ub_j - lb_j]. A row whose shifted
    // rhs comes out negative is written with every sign reversed.
    ws.b.clear();
    ws.flipped.clear();
    // Column layout: [structural 0..n | slack/surplus | artificial].
    let (mut n_slack, mut n_art) = (0, 0);
    for c in &lp.constraints {
        let mut rhs = c.rhs;
        for &(j, coef) in &c.terms {
            rhs -= coef * lower[j];
        }
        let flipped = rhs < 0.0;
        ws.b.push(if flipped { -rhs } else { rhs });
        ws.flipped.push(flipped);
        let relation = oriented(c.relation, flipped);
        n_slack += usize::from(relation != Relation::Eq);
        n_art += usize::from(relation != Relation::Le);
    }
    let n_total = n + n_slack + n_art;
    ws.n_total = n_total;

    refill(&mut ws.a, m * n_total, 0.0);
    refill(&mut ws.basis, m, 0);
    refill(&mut ws.complemented, n_total, false);
    ws.art_start = n + n_slack;
    ws.enterable = n_total;
    ws.upper.clear();
    ws.upper.extend(upper.iter().zip(lower).map(|(ub, lb)| ub - lb));
    ws.upper.resize(n_total, f64::INFINITY);
    let mut slack_cursor = n;
    let mut art_cursor = ws.art_start;

    for (i, c) in lp.constraints.iter().enumerate() {
        let row = &mut ws.a[i * n_total..(i + 1) * n_total];
        let flipped = ws.flipped[i];
        for &(j, coef) in &c.terms {
            row[j] += if flipped { -coef } else { coef };
        }
        match oriented(c.relation, flipped) {
            Relation::Le => {
                row[slack_cursor] = 1.0;
                ws.basis[i] = slack_cursor;
                slack_cursor += 1;
            }
            Relation::Ge => {
                row[slack_cursor] = -1.0;
                slack_cursor += 1;
                row[art_cursor] = 1.0;
                ws.basis[i] = art_cursor;
                art_cursor += 1;
            }
            Relation::Eq => {
                row[art_cursor] = 1.0;
                ws.basis[i] = art_cursor;
                art_cursor += 1;
            }
        }
    }

    // Phase 1: maximize -(sum of artificials).
    if n_art > 0 {
        refill(&mut ws.cost, n_total, 0.0);
        ws.cost[ws.art_start..].fill(-1.0);
        // Canonicalize: reduced costs must vanish on the basis.
        let mut obj1 = 0.0;
        ws.canonicalize(&mut obj1);
        ws.optimize(&mut obj1)?;
        if obj1 < -1e-7 {
            return Err(SolverError::Infeasible);
        }
        // Drive remaining basic artificials out where possible.
        for r in 0..m {
            if ws.basis[r] >= ws.art_start {
                if let Some(col) = (0..ws.art_start).find(|&j| ws.at(r, j).abs() > 1e-7) {
                    ws.pivot(r, col);
                }
            }
        }
        ws.enterable = ws.art_start;
    }

    // Phase 2: the real objective, expressed in tableau space (a
    // complemented column contributes with its sign flipped).
    refill(&mut ws.cost, n_total, 0.0);
    for j in 0..n {
        ws.cost[j] = if ws.complemented[j] {
            -lp.objective[j]
        } else {
            lp.objective[j]
        };
    }
    let mut obj2 = 0.0;
    ws.canonicalize(&mut obj2);
    ws.optimize(&mut obj2)?;

    // Extract: nonbasic columns sit at 0 in tableau space (their upper
    // bound when complemented); basic columns carry their row's value.
    refill(&mut ws.row_of, n_total, usize::MAX);
    for (r, &v) in ws.basis.iter().enumerate() {
        ws.row_of[v] = r;
    }
    let mut values = lower.to_vec();
    for (j, value) in values.iter_mut().enumerate() {
        let y = match ws.row_of[j] {
            usize::MAX => 0.0,
            r => ws.b[r],
        };
        *value += if ws.complemented[j] { ws.upper[j] - y } else { y };
    }
    let objective = values
        .iter()
        .zip(&lp.objective)
        .map(|(x, c)| x * c)
        .sum::<f64>();
    Ok(LpSolution { objective, values })
}

#[cfg(test)]
mod tests {
    use crate::{LinearProgram, Relation, SolverError};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate corner: multiple constraints through origin.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 0.0)
            .unwrap();
        lp.add_constraint(vec![(x, -1.0), (y, 1.0)], Relation::Le, 0.0)
            .unwrap();
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 2.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_handled() {
        // x >= -3 written as -x <= 3 ... rhs sign normalization path:
        // constraint with negative rhs: x - y <= -1 (i.e. y >= x + 1).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        let y = lp.add_var(0.0, 5.0, 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, -1.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        // y <= 5 so x <= 4.
        assert!((sol.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        // Same constraint again (redundant artificial row).
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn bound_flip_reaches_the_upper_bound() {
        // max x + y with x <= 3 (bound), x + y <= 5: x flips to its
        // upper bound without ever entering the basis.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 3.0, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!((sol.value(x) + sol.value(y) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn basic_variable_leaves_at_its_upper_bound() {
        // max 2x + y, y <= 4, x + y >= 3, x <= 2: the Ge row forces y
        // basic early; pushing x up drives y to its upper bound.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 2.0, 2.0);
        let y = lp.add_var(0.0, 4.0, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 3.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 4.0).abs() < 1e-6);
        assert!((sol.objective - 8.0).abs() < 1e-6);
    }

    #[test]
    fn all_variables_bounded_tight_box() {
        // Pure box problem, no rows at all.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 2.5, 3.0);
        let y = lp.add_var(0.5, 1.5, -1.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 2.5).abs() < 1e-6);
        assert!((sol.value(y) - 0.5).abs() < 1e-6);
        assert!((sol.objective - 7.0).abs() < 1e-6);
    }

    /// Brute-force LP check on a grid for 2-variable problems.
    fn brute_force_2d(lp: &LinearProgram, xmax: f64, ymax: f64) -> Option<f64> {
        let steps = 400;
        let mut best: Option<f64> = None;
        for i in 0..=steps {
            for j in 0..=steps {
                let x = xmax * i as f64 / steps as f64;
                let y = ymax * j as f64 / steps as f64;
                let feasible = lp.constraints.iter().all(|c| {
                    let lhs: f64 = c
                        .terms
                        .iter()
                        .map(|&(v, a)| a * if v == 0 { x } else { y })
                        .sum();
                    match c.relation {
                        Relation::Le => lhs <= c.rhs + 1e-9,
                        Relation::Ge => lhs >= c.rhs - 1e-9,
                        Relation::Eq => (lhs - c.rhs).abs() < 1e-6,
                    }
                });
                if feasible {
                    let obj = lp.objective[0] * x + lp.objective[1] * y;
                    best = Some(best.map_or(obj, |b: f64| b.max(obj)));
                }
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn matches_grid_search_on_random_2d_lps(seed in 0u64..10_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut lp = LinearProgram::new();
            let x = lp.add_var(0.0, 10.0, rng.gen_range(-2.0..4.0));
            let y = lp.add_var(0.0, 10.0, rng.gen_range(-2.0..4.0));
            for _ in 0..rng.gen_range(1..4) {
                let a = rng.gen_range(-2.0..3.0);
                let b = rng.gen_range(-2.0..3.0);
                let rhs = rng.gen_range(0.5..15.0);
                lp.add_constraint(vec![(x, a), (y, b)], Relation::Le, rhs).unwrap();
            }
            match lp.solve() {
                Ok(sol) => {
                    let brute = brute_force_2d(&lp, 10.0, 10.0)
                        .expect("solver found a solution so grid must too");
                    // Grid search undershoots; solver must be >= grid - eps
                    // and cannot exceed it by more than a grid cell.
                    prop_assert!(sol.objective >= brute - 1e-6);
                    prop_assert!(sol.objective <= brute + 0.3);
                }
                Err(SolverError::Infeasible) => {
                    prop_assert!(brute_force_2d(&lp, 10.0, 10.0).is_none());
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
            }
        }

        #[test]
        fn respects_random_boxes_and_matches_grid(seed in 0u64..10_000) {
            // Same grid cross-check, but with random finite bounds on
            // both variables — exercises bound flips and upper-bound
            // leaves that the unbounded test above cannot reach.
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
            let mut lp = LinearProgram::new();
            let ux = rng.gen_range(1.0..8.0);
            let uy = rng.gen_range(1.0..8.0);
            let x = lp.add_var(0.0, ux, rng.gen_range(-2.0..4.0));
            let y = lp.add_var(0.0, uy, rng.gen_range(-2.0..4.0));
            for _ in 0..rng.gen_range(1..4) {
                let a = rng.gen_range(-2.0..3.0);
                let b = rng.gen_range(-2.0..3.0);
                let rhs = rng.gen_range(0.5..15.0);
                lp.add_constraint(vec![(x, a), (y, b)], Relation::Le, rhs).unwrap();
            }
            match lp.solve() {
                Ok(sol) => {
                    prop_assert!(sol.value(x) <= ux + 1e-7);
                    prop_assert!(sol.value(y) <= uy + 1e-7);
                    let brute = brute_force_2d(&lp, ux, uy)
                        .expect("solver found a solution so grid must too");
                    prop_assert!(sol.objective >= brute - 1e-6);
                    prop_assert!(sol.objective <= brute + 0.3);
                }
                Err(SolverError::Infeasible) => {
                    prop_assert!(brute_force_2d(&lp, ux, uy).is_none());
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
            }
        }
    }
}
