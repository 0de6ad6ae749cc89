//! Seeded allocation-shaped MIPs: the problem `core::allocation` hands
//! the solver — maximize the slowest operator's scaled rate `z` under
//! the paper's Eqs. 5–8 — rebuilt with the public solver API only, so
//! the solver's golden, its brute-force oracle and its allocation
//! budget all draw from one generator.
//!
//! `mod common;`-included by every test binary that needs it; no binary
//! uses every item.
#![allow(dead_code)]

use cmswitch::solver::{MipProblem, Relation, VarId};

/// splitmix64: a seed is the whole state, so an instance is its seed.
pub struct Seeded(u64);

impl Seeded {
    pub fn new(seed: u64) -> Self {
        Seeded(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// The four chip constants the allocation MIP reads.
#[derive(Debug, Clone, Copy)]
pub struct Chip {
    pub arrays: usize,
    pub op_cim: f64,
    pub d_cim: f64,
    pub d_main: f64,
}

impl Chip {
    /// DynaPlasia's constants (Table 2).
    pub const DYNAPLASIA: Chip = Chip {
        arrays: 96,
        op_cim: 1600.0,
        d_cim: 4.0,
        d_main: 64.0,
    };
}

/// What the MIP reads of one operator (`ai` may be infinite: no
/// streamed input, no Eq. 10 bandwidth row).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub work: f64,
    pub min_tiles: usize,
    pub ai: f64,
}

/// One window: its operators and `(producer, consumer, reuse cap)`
/// edges with `producer < consumer`.
#[derive(Debug, Clone)]
pub struct Shape {
    pub chip: Chip,
    pub ops: Vec<Op>,
    pub deps: Vec<(usize, usize, usize)>,
}

/// The built problem and where each decision variable sits.
pub struct AllocMip {
    pub mip: MipProblem,
    pub z: VarId,
    pub com: Vec<VarId>,
    pub mem_in: Vec<VarId>,
    pub mem_out: Vec<VarId>,
    pub rate: Vec<VarId>,
    pub reuse: Vec<VarId>,
}

/// Operator kinds at DynaPlasia scale: conv-like and GEMV-like work,
/// tile counts from one array to a seventh of the chip, arithmetic
/// intensities on both sides of the chip's balance point.
pub const DYNAPLASIA_KINDS: &[Op] = &[
    Op { work: 1.18e8, min_tiles: 1, ai: 49.0 },
    Op { work: 1.18e8, min_tiles: 2, ai: 196.0 },
    Op { work: 2.31e8, min_tiles: 4, ai: 784.0 },
    Op { work: 5.8e7, min_tiles: 6, ai: 16.0 },
    Op { work: 1.03e8, min_tiles: 14, ai: 3136.0 },
    Op { work: 4.1e6, min_tiles: 3, ai: 1.0 },
    Op { work: 2.5e7, min_tiles: 1, ai: f64::INFINITY },
];

/// Instance `seed` of the solver golden: 1–12 operators on DynaPlasia,
/// node limit and gap as `core::allocation` sets them, and on every odd
/// seed a feasible warm start (when the minimal tiles fit the chip).
pub fn dynaplasia_instance(seed: u64) -> (Shape, AllocMip) {
    let mut rng = Seeded::new(seed);
    let n_ops = 1 + rng.below(12);
    let shape = Shape::sample(&mut rng, Chip::DYNAPLASIA, DYNAPLASIA_KINDS, n_ops, n_ops);
    let mut built = shape.build();
    built.mip.set_node_limit((240 / n_ops).max(30));
    built.mip.set_relative_gap(2e-2);
    if seed % 2 == 1 {
        if let Some(start) = shape.greedy_start(&built) {
            assert!(
                built.mip.check_feasible(&start).is_some(),
                "seed {seed}: the greedy start must be feasible"
            );
            assert!(built.mip.set_warm_start(start));
        }
    }
    (shape, built)
}

impl Shape {
    /// `n_ops` operators drawn from a palette of three of `kinds`, up to
    /// `max_deps` distinct forward edges. Windows of real networks
    /// repeat layers, and repeated operators make reduced-cost and
    /// ratio ties *exact* — the place where a pivot rule decides which
    /// optimal vertex comes back.
    pub fn sample(
        rng: &mut Seeded,
        chip: Chip,
        kinds: &[Op],
        n_ops: usize,
        max_deps: usize,
    ) -> Shape {
        let palette = [rng.pick(kinds), rng.pick(kinds), rng.pick(kinds)];
        let ops: Vec<Op> = (0..n_ops).map(|_| rng.pick(&palette)).collect();
        let mut deps: Vec<(usize, usize, usize)> = Vec::new();
        if n_ops > 1 {
            for _ in 0..max_deps {
                let p = rng.below(n_ops - 1);
                // Mostly the next operator, sometimes a skip connection.
                let c = (p + 1 + rng.below(3) / 2).min(n_ops - 1);
                let cap = 1 + rng.below(3);
                if !deps.iter().any(|&(dp, dc, _)| (dp, dc) == (p, c)) {
                    deps.push((p, c, cap));
                }
            }
            deps.sort_unstable();
        }
        Shape { chip, ops, deps }
    }

    /// The reference latency `allocation.rs` scales `z` by: every
    /// operator at its minimal allocation.
    pub fn l0(&self) -> f64 {
        self.ops
            .iter()
            .map(|o| o.work / (o.min_tiles as f64 * self.chip.op_cim))
            .fold(0.0f64, f64::max)
            .max(1.0)
    }

    /// Closed-form maximum of operator `i`'s rate variable at `compute`
    /// compute arrays and `mem` memory arrays (input + output).
    pub fn rate(&self, i: usize, compute: usize, mem: usize) -> f64 {
        let Chip {
            arrays,
            op_cim,
            d_cim,
            d_main,
        } = self.chip;
        let ai = self.ops[i].ai;
        let mut x = (compute as f64 * op_cim).min(arrays as f64 * op_cim);
        if ai.is_finite() {
            x = x.min((mem as f64 * d_cim + d_main) * ai);
        }
        x
    }

    /// Builds the MIP row for row as `Allocator::solve_mip` does
    /// (variable order, row order and term order included), leaving
    /// node limit, gap and warm start at `MipProblem::new`'s defaults.
    pub fn build(&self) -> AllocMip {
        let Chip {
            arrays,
            op_cim,
            d_cim,
            d_main,
        } = self.chip;
        let n = arrays as f64;
        let l0 = self.l0();
        let mut mip = MipProblem::new();
        let z = mip.add_var(0.0, f64::INFINITY, 1.0);
        let (mut com, mut mem_in, mut mem_out, mut rate) = (vec![], vec![], vec![], vec![]);
        fn row(mip: &mut MipProblem, terms: Vec<(VarId, f64)>, rhs: f64) {
            mip.add_constraint(terms, Relation::Le, rhs)
                .expect("every term names a variable added above");
        }
        for op in &self.ops {
            let c = mip.add_int_var(op.min_tiles as f64, n, 0.0);
            let mi = mip.add_int_var(0.0, n, 0.0);
            let mo = mip.add_int_var(0.0, n, 0.0);
            let x = mip.add_var(0.0, n * op_cim, 0.0);
            row(&mut mip, vec![(x, 1.0), (c, -op_cim)], 0.0);
            if op.ai.is_finite() {
                let terms = vec![(x, 1.0), (mi, -d_cim * op.ai), (mo, -d_cim * op.ai)];
                row(&mut mip, terms, d_main * op.ai);
            }
            row(&mut mip, vec![(z, op.work / l0), (x, -1.0)], 0.0);
            com.push(c);
            mem_in.push(mi);
            mem_out.push(mo);
            rate.push(x);
        }
        let reuse: Vec<VarId> = self
            .deps
            .iter()
            .map(|&(_, _, cap)| mip.add_int_var(0.0, cap as f64, 0.0))
            .collect();
        for i in 0..self.ops.len() {
            // Operator `i` lends its output buffer at most once and
            // absorbs at most its own input buffer.
            for (lends, buffer) in [(true, mem_out[i]), (false, mem_in[i])] {
                let mut terms: Vec<(VarId, f64)> = self
                    .deps
                    .iter()
                    .zip(&reuse)
                    .filter(|(&(p, c, _), _)| if lends { p == i } else { c == i })
                    .map(|(_, &r)| (r, 1.0))
                    .collect();
                if !terms.is_empty() {
                    terms.push((buffer, -1.0));
                    row(&mut mip, terms, 0.0);
                }
            }
        }
        let mut terms = Vec::new();
        for i in 0..self.ops.len() {
            terms.extend([(com[i], 1.0), (mem_in[i], 1.0), (mem_out[i], 1.0)]);
        }
        terms.extend(reuse.iter().map(|&r| (r, -1.0)));
        row(&mut mip, terms, n);
        AllocMip {
            mip,
            z,
            com,
            mem_in,
            mem_out,
            rate,
            reuse,
        }
    }

    /// A feasible assignment in the spirit of the fast allocator's warm
    /// start: minimal tiles, then one array at a time to whichever
    /// operator is slowest (compute or input buffer, whichever binds).
    /// `None` when the minimal tiles alone overflow the chip.
    pub fn greedy_start(&self, vars: &AllocMip) -> Option<Vec<f64>> {
        let mut compute: Vec<usize> = self.ops.iter().map(|o| o.min_tiles).collect();
        let mut mem = vec![0usize; self.ops.len()];
        let mut left = self.chip.arrays.checked_sub(compute.iter().sum())?;
        let l0 = self.l0();
        let score = |i: usize, c: usize, m: usize| self.rate(i, c, m) * l0 / self.ops[i].work;
        while left > 0 {
            let slowest = (0..self.ops.len())
                .min_by(|&a, &b| {
                    score(a, compute[a], mem[a]).total_cmp(&score(b, compute[b], mem[b]))
                })
                .expect("a shape has at least one operator");
            let now = score(slowest, compute[slowest], mem[slowest]);
            if score(slowest, compute[slowest] + 1, mem[slowest]) > now {
                compute[slowest] += 1;
            } else if score(slowest, compute[slowest], mem[slowest] + 1) > now {
                mem[slowest] += 1;
            } else {
                break;
            }
            left -= 1;
        }
        let mut values = vec![0.0; vars.mip.n_vars()];
        let mut z = f64::INFINITY;
        for i in 0..self.ops.len() {
            values[vars.com[i].index()] = compute[i] as f64;
            values[vars.mem_in[i].index()] = mem[i] as f64;
            values[vars.rate[i].index()] = self.rate(i, compute[i], mem[i]);
            z = z.min(score(i, compute[i], mem[i]));
        }
        values[vars.z.index()] = z;
        Some(values)
    }
}
