//! Independent oracle for the trust base: the branch-and-bound MIP
//! against exhaustive enumeration, on the problem shape the compiler
//! actually solves.
//!
//! `mip::tests::matches_brute_force_on_random_ips` covers pure-integer
//! programs of at most three variables. The allocation MIP is mixed
//! (continuous rates `x`, continuous max-min `z`), bounds every
//! variable, and couples operators through the Eq. 6 reuse rows — so
//! this suite draws allocation-shaped instances (`tests/common`) small
//! enough to enumerate: every integer assignment of the array counts
//! `c`, `mi`, `mo` and the reuse counts `r` is visited, the continuous
//! variables take their closed-form maxima, and the best `z` is the
//! answer the solver must reproduce at gap 0.

mod common;

use proptest::prelude::*;

use cmswitch::solver::SolverError;

use common::{Chip, Op, Seeded, Shape};

const KINDS: &[Op] = &[
    Op { work: 64.0, min_tiles: 1, ai: 0.25 },
    Op { work: 96.0, min_tiles: 1, ai: 1.0 },
    Op { work: 512.0, min_tiles: 2, ai: 4.0 },
    Op { work: 640.0, min_tiles: 3, ai: 16.0 },
    Op { work: 4096.0, min_tiles: 2, ai: 2.0 },
    Op { work: 300.0, min_tiles: 1, ai: f64::INFINITY },
];

/// At most 3 operators on at most 8 arrays with 0–2 reuse edges.
fn small_shape(seed: u64) -> Shape {
    let mut rng = Seeded::new(seed);
    let chip = Chip {
        arrays: 3 + rng.below(6),
        op_cim: 16.0,
        d_cim: rng.pick(&[1.0, 2.0, 4.0]),
        d_main: rng.pick(&[4.0, 8.0]),
    };
    let n_ops = 1 + rng.below(3);
    let max_deps = rng.below(3);
    Shape::sample(&mut rng, chip, KINDS, n_ops, max_deps)
}

/// Best `z` over every integer assignment, `None` when there is none.
fn brute(shape: &Shape) -> Option<f64> {
    let n_ops = shape.ops.len();
    let mut best: Option<f64> = None;
    let mut reuse = vec![0usize; shape.deps.len()];
    loop {
        let (mut lent, mut absorbed) = (vec![0usize; n_ops], vec![0usize; n_ops]);
        for (&(p, c, _), &r) in shape.deps.iter().zip(&reuse) {
            lent[p] += r;
            absorbed[c] += r;
        }
        // Eq. 8: Σ(c + mi + mo) − Σr ≤ N.
        let budget = shape.chip.arrays + reuse.iter().sum::<usize>();
        assign(shape, 0, budget, f64::INFINITY, &lent, &absorbed, &mut best);
        // Odometer over the reuse counts.
        let mut e = 0;
        loop {
            if e == reuse.len() {
                return best;
            }
            reuse[e] += 1;
            if reuse[e] > shape.deps[e].2 {
                reuse[e] = 0;
                e += 1;
            } else {
                break;
            }
        }
    }
}

/// Operators `i..` take every `(c, mi, mo)` that fits `left` arrays,
/// covers what the reuse counts lend (`mo`) and absorb (`mi`), and
/// respects each variable's `[·, N]` box; `z` is the slowest scaled rate
/// so far.
fn assign(
    shape: &Shape,
    i: usize,
    left: usize,
    z: f64,
    lent: &[usize],
    absorbed: &[usize],
    best: &mut Option<f64>,
) {
    let Some(op) = shape.ops.get(i) else {
        *best = Some(best.map_or(z, |b| b.max(z)));
        return;
    };
    let n = shape.chip.arrays;
    let scale = op.work / shape.l0();
    for c in op.min_tiles..=n.min(left) {
        for mi in absorbed[i]..=n.min(left - c) {
            for mo in lent[i]..=n.min(left - c - mi) {
                let zi = shape.rate(i, c, mi + mo) / scale;
                assign(shape, i + 1, left - c - mi - mo, z.min(zi), lent, absorbed, best);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn mip_matches_exhaustive_search_on_small_allocation_windows(seed in 0u64..1_000_000) {
        let shape = small_shape(seed);
        // Gap 0 and the default node limit: the search runs to proof.
        let built = shape.build();
        match (built.mip.solve(), brute(&shape)) {
            (Ok(sol), Some(best)) => {
                prop_assert!(
                    (sol.objective - best).abs() < 1e-6,
                    "seed {seed}: solver {} vs exhaustive {best} on {shape:?}",
                    sol.objective
                );
                prop_assert!(sol.proven_optimal, "seed {seed}: not proven");
                prop_assert!(
                    built.mip.check_feasible(&sol.values).is_some(),
                    "seed {seed}: returned values are infeasible: {:?}",
                    sol.values
                );
            }
            (Err(SolverError::Infeasible), None) => {}
            (solver, exhaustive) => {
                return Err(TestCaseError::fail(format!(
                    "seed {seed}: solver {solver:?} vs exhaustive {exhaustive:?} on {shape:?}"
                )));
            }
        }
    }
}
