//! Per-array state kept by the run, for the flow checkers and the event
//! engine.
//!
//! [`crate::validate`], the verifier in `cmswitch-core` and the
//! event engine in `cmswitch-sim` keep a little state per physical
//! array (its mode, its pending weight load, who claimed it inside the
//! current segment, when it is released) and touch it once per array
//! *list* — hundreds of thousands of ids on an LLM flow, in a few tens
//! of thousands of runs. [`RunTable`] holds that state as maximal runs
//! of equal state and takes whole [`ArrayRun`]s: a read or an update
//! visits the pieces of equal state a run covers, in the run's order,
//! so its cost is per run and per piece, never per id. [`BlockClaims`]
//! layers the Eq. 6 claim legality the validator and the verifier share
//! on top of it.
//!
//! **Cost contract.** A table covers every id from `0` to `u32::MAX`
//! and starts as one piece. An operation on a run costs a binary search
//! over the table's pieces, the pieces the run covers, and — when it
//! changes state — at most two pieces spliced in and the neighbours
//! that became equal merged away. A table never holds more pieces than
//! it was handed run ends, so an untrusted id costs memory proportional
//! to the flow that names it, never to its own value, and a forged run
//! of four billion ids is one piece. Callers coalesce ids into runs
//! before they reach a table: an update per single id pays the splice
//! per id, more than the one slot write of a table indexed by id.

use cmswitch_arch::ArrayId;

use crate::{ArrayRun, ComputeStmt};

/// A map from every [`ArrayId`] to `T`, stored as the maximal runs of
/// ids that share a state (see the module docs). Every id starts at the
/// fill value the table is built with.
#[derive(Debug, Clone)]
pub struct RunTable<T> {
    /// Each piece's first id, ascending from `0`, and its state: piece
    /// `k` holds `pieces[k].0..pieces[k + 1].0`, the last one up to
    /// `u32::MAX`. Neighbours always differ.
    pieces: Vec<(u32, T)>,
}

/// Pieces a table holds before its first reallocation: a chip's worth
/// of lanes and buffers, so a checker's tables mostly never grow.
const INITIAL_PIECES: usize = 32;

impl<T: Clone + PartialEq> RunTable<T> {
    /// A table where every id is at `fill`.
    pub fn new(fill: T) -> Self {
        let mut pieces = Vec::with_capacity(INITIAL_PIECES);
        pieces.push((0, fill));
        RunTable { pieces }
    }

    /// Puts every id back at `fill`, keeping the allocation.
    pub fn reset(&mut self, fill: T) {
        self.pieces.truncate(1);
        self.pieces[0].1 = fill;
    }

    /// The piece holding id `a`.
    #[inline]
    fn find(&self, a: u32) -> usize {
        self.pieces.partition_point(|&(start, _)| start <= a) - 1
    }

    /// The first id of piece `k`.
    #[inline]
    fn start(&self, k: usize) -> u32 {
        self.pieces[k].0
    }

    /// The last id of piece `k`.
    #[inline]
    fn end(&self, k: usize) -> u32 {
        self.pieces
            .get(k + 1)
            .map_or(u32::MAX, |&(next, _)| next - 1)
    }

    /// The state of `a`.
    #[inline]
    pub fn get(&self, a: ArrayId) -> &T {
        &self.pieces[self.find(a.0)].1
    }

    /// Calls `visit` with each piece of `run` whose ids share a state,
    /// and that state, in the run's order.
    #[inline]
    pub fn read(&self, run: ArrayRun, mut visit: impl FnMut(ArrayRun, &T)) {
        let (lo, hi) = (run.min().0, run.max().0);
        let piece = |k: usize| {
            let (from, to) = (self.start(k).max(lo), self.end(k).min(hi));
            if run.ascending() {
                ArrayRun::from_ends(from, to)
            } else {
                ArrayRun::from_ends(to, from)
            }
        };
        if run.ascending() {
            let mut k = self.find(lo);
            while k < self.pieces.len() && self.start(k) <= hi {
                visit(piece(k), &self.pieces[k].1);
                k += 1;
            }
        } else {
            let mut k = self.find(hi);
            loop {
                visit(piece(k), &self.pieces[k].1);
                if self.start(k) <= lo {
                    break;
                }
                k -= 1;
            }
        }
    }

    /// Calls `edit` with each piece of `run` whose ids share a state,
    /// in the run's order, to change that state for exactly those ids.
    pub fn update(&mut self, run: ArrayRun, mut edit: impl FnMut(ArrayRun, &mut T)) {
        let (lo, hi) = (run.min().0, run.max().0);
        let k = self.find(lo);
        if self.end(k) >= hi {
            // One piece: edit a copy, and touch the table only if the
            // state moved.
            let mut state = self.pieces[k].1.clone();
            edit(run, &mut state);
            if state != self.pieces[k].1 {
                self.put(k, lo, hi, state);
            }
            return;
        }
        let first = self.split(lo);
        let past = match hi.checked_add(1) {
            Some(next) => self.split(next),
            None => self.pieces.len(),
        };
        let ascending = run.ascending();
        let mut edit_piece = |k: usize| {
            let (from, to) = (self.start(k), self.end(k));
            let piece = if ascending {
                ArrayRun::from_ends(from, to)
            } else {
                ArrayRun::from_ends(to, from)
            };
            edit(piece, &mut self.pieces[k].1);
        };
        if ascending {
            (first..past).for_each(&mut edit_piece);
        } else {
            (first..past).rev().for_each(&mut edit_piece);
        }
        self.coalesce(first.saturating_sub(1), past.min(self.pieces.len() - 1));
    }

    /// Sets every id of `run` to `state`.
    pub fn assign(&mut self, run: ArrayRun, state: &T) {
        self.update(run, |_, s| s.clone_from(state));
    }

    /// Every piece in ascending id order, as its first and last id.
    pub fn iter(&self) -> impl Iterator<Item = (ArrayId, ArrayId, &T)> {
        (0..self.pieces.len()).map(|k| {
            (
                ArrayId(self.start(k)),
                ArrayId(self.end(k)),
                &self.pieces[k].1,
            )
        })
    }

    /// Sets ids `lo..=hi`, all inside piece `k`, to `state`, which
    /// differs from the piece's.
    fn put(&mut self, k: usize, lo: u32, hi: u32, state: T) {
        let (start, end) = (self.start(k), self.end(k));
        if hi < end {
            // The tail keeps the piece's state.
            let tail = (hi + 1, self.pieces[k].1.clone());
            self.pieces.insert(k + 1, tail);
        }
        let at = if start < lo {
            self.pieces.insert(k + 1, (lo, state));
            k + 1
        } else {
            self.pieces[k].1 = state;
            k
        };
        self.coalesce(at.saturating_sub(1), (at + 1).min(self.pieces.len() - 1));
    }

    /// Makes `at` the first id of a piece; returns that piece.
    fn split(&mut self, at: u32) -> usize {
        let k = self.find(at);
        if self.start(k) == at {
            return k;
        }
        let piece = (at, self.pieces[k].1.clone());
        self.pieces.insert(k + 1, piece);
        k + 1
    }

    /// Merges equal neighbours among pieces `from..=to`.
    fn coalesce(&mut self, from: usize, to: usize) {
        let mut kept = from;
        for k in from + 1..=to {
            if self.pieces[k].1 != self.pieces[kept].1 {
                kept += 1;
                self.pieces.swap(kept, k);
            }
        }
        if kept < to {
            self.pieces.drain(kept + 1..=to);
        }
    }
}

/// The role in which a compute statement claims an array.
#[derive(Debug, Clone, Copy)]
enum Role {
    Compute,
    MemIn,
    MemOut,
}

/// Per-array claim bookkeeping for one `parallel` segment at a time.
///
/// Inside a segment an array serves at most one operator per role, and
/// never computes while it buffers; the one legal sharing is the Eq. 6
/// reuse where one operator's output buffer is another's input buffer.
/// Only the *first* claimant of each role is remembered: a later claim
/// conflicts exactly when its operator (its op-table index) differs
/// from the first.
#[derive(Debug, Clone)]
pub struct BlockClaims {
    /// Per array, the first operator claiming it in each role.
    table: RunTable<[Option<u32>; 3]>,
}

impl Default for BlockClaims {
    fn default() -> Self {
        BlockClaims::new()
    }
}

impl BlockClaims {
    /// No claims yet.
    pub fn new() -> Self {
        BlockClaims {
            table: RunTable::new([None; 3]),
        }
    }

    /// Starts a new segment: every earlier claim is forgotten.
    pub fn enter_block(&mut self) {
        self.table.reset([None; 3]);
    }

    /// Records every claim of compute statement `c` — its compute
    /// arrays, then its input buffers, then its output buffers — and
    /// calls `conflict` with each piece of a list whose claim conflicts
    /// with the segment's earlier ones (itself included), in that
    /// order. Lists are walked [`clipped`](crate::ArraySet::clipped_runs)
    /// to a chip of `n_arrays` arrays (`usize::MAX` walks every id), so
    /// a run reaching past the chip is claimed as its first stray id.
    pub fn claim(
        &mut self,
        c: &ComputeStmt,
        n_arrays: usize,
        mut conflict: impl FnMut(ArrayRun),
    ) {
        let roles = [
            (Role::Compute, &c.compute_arrays),
            (Role::MemIn, &c.mem_in_arrays),
            (Role::MemOut, &c.mem_out_arrays),
        ];
        for (role, arrays) in roles {
            for run in arrays.clipped_runs(n_arrays) {
                self.table.update(run, |piece, claims| {
                    if Self::claim_one(claims, role, c.op) {
                        conflict(piece);
                    }
                });
            }
        }
    }

    /// Records that operator `op` claims arrays holding `claims` in
    /// `role`, and reports whether that claim conflicts with the
    /// segment's earlier ones.
    #[inline]
    fn claim_one(claims: &mut [Option<u32>; 3], role: Role, op: u32) -> bool {
        let mine = &mut claims[role as usize];
        let by_other = mine.is_some_and(|first| first != op);
        mine.get_or_insert(op);
        let [compute, mem_in, mem_out] = claims.map(|c| c.is_some());
        by_other
            || match role {
                Role::Compute => mem_in || mem_out,
                Role::MemIn | Role::MemOut => compute,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(first: u32, last: u32) -> ArrayRun {
        ArrayRun::between(ArrayId(first), ArrayId(last)).unwrap()
    }

    #[test]
    fn table_reads_fill_until_written_and_spills_stray_ids() {
        let mut t = RunTable::new(7u8);
        assert_eq!(*t.get(ArrayId(2)), 7);
        assert_eq!(*t.get(ArrayId(u32::MAX)), 7);
        t.assign(run(2, 2), &1);
        t.assign(run(u32::MAX, u32::MAX), &2);
        t.assign(run(4, 4), &3);
        assert_eq!(*t.get(ArrayId(2)), 1);
        assert_eq!(*t.get(ArrayId(u32::MAX)), 2);
        let pieces: Vec<(u32, u32, u8)> = t.iter().map(|(a, b, &s)| (a.0, b.0, s)).collect();
        assert_eq!(
            pieces,
            [
                (0, 1, 7),
                (2, 2, 1),
                (3, 3, 7),
                (4, 4, 3),
                (5, u32::MAX - 1, 7),
                (u32::MAX, u32::MAX, 2)
            ]
        );
        // A stray id costs its pieces, whatever its value; putting it
        // back merges them away.
        t.assign(run(u32::MAX, u32::MAX), &7);
        t.assign(run(4, 4), &7);
        assert_eq!(t.iter().count(), 3);
        // A forged run of u32::MAX - 1 ids is one piece.
        t.assign(run(u32::MAX, 2), &9);
        assert_eq!(t.iter().count(), 2);
        assert_eq!(*t.get(ArrayId(1)), 7);
    }

    #[test]
    fn reads_and_updates_visit_pieces_in_run_order() {
        let mut t = RunTable::new(0u8);
        t.assign(run(3, 5), &1);
        let mut seen = Vec::new();
        let ends = |p: ArrayRun, s: u8| (p.first().0, p.iter().last().unwrap().0, s);
        t.read(run(7, 2), |p, &s| seen.push(ends(p, s)));
        assert_eq!(seen, [(7, 6, 0), (5, 3, 1), (2, 2, 0)]);
        seen.clear();
        t.update(run(4, 8), |p, s| {
            seen.push(ends(p, *s));
            *s += 1;
        });
        assert_eq!(seen, [(4, 5, 1), (6, 8, 0)]);
        let pieces: Vec<(u32, u8)> = t.iter().map(|(a, _, &s)| (a.0, s)).collect();
        assert_eq!(pieces, [(0, 0), (3, 1), (4, 2), (6, 1), (9, 0)]);
    }

    /// The model: a plain `Vec` with one slot per id of the two ends of
    /// the id space (`0..64` and the 64 ids below `u32::MAX`), and one
    /// slot for everything between, which only forged runs reach and
    /// always reach whole.
    struct Model(Vec<u8>);

    const EDGE: u32 = 64;
    const HIGH: u32 = u32::MAX - (EDGE - 1);

    fn slot(a: u32) -> usize {
        match a {
            _ if a < EDGE => a as usize,
            _ if a >= HIGH => (EDGE + 1 + (a - HIGH)) as usize,
            _ => EDGE as usize,
        }
    }

    /// The slots of `run` in its order, the middle once.
    fn slots(run: ArrayRun) -> Vec<usize> {
        let (lo, hi) = (run.min().0, run.max().0);
        let mut out: Vec<usize> = (lo..=hi.min(EDGE - 1)).map(slot).collect();
        if lo < HIGH && hi >= EDGE {
            out.push(EDGE as usize);
        }
        out.extend((lo.max(HIGH)..=hi).map(slot));
        if !run.ascending() {
            out.reverse();
        }
        out
    }

    /// A seeded xorshift: enough for sequences that repeat.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u32) -> u32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % u64::from(n)) as u32
        }
    }

    /// Single ids, short runs either way at both ends of the id space,
    /// and forged runs of `u32::MAX - 1` ids across the middle.
    fn random_run(rng: &mut Rng) -> ArrayRun {
        let base = |rng: &mut Rng| {
            let i = rng.below(EDGE);
            if rng.below(2) == 0 {
                i
            } else {
                HIGH + i
            }
        };
        match rng.below(6) {
            0 => {
                // From one end of the id space to either end: through
                // the whole middle when the ends differ.
                let (a, b) = (base(rng), base(rng));
                ArrayRun::between(ArrayId(a), ArrayId(b)).unwrap_or(run(a, a))
            }
            1 => {
                let a = base(rng);
                run(a, a)
            }
            2 => ArrayRun::new(ArrayId(u32::MAX), u32::MAX - 1, false).unwrap(),
            3 => ArrayRun::new(ArrayId(rng.below(2)), u32::MAX - 1, true).unwrap(),
            _ => {
                let a = base(rng);
                let len = 1 + rng.below(12);
                let asc = rng.below(2) == 0;
                ArrayRun::new(ArrayId(a), len, asc)
                    .filter(|r| (r.max().0 < EDGE) || r.min().0 >= HIGH)
                    .unwrap_or(run(a, a))
            }
        }
    }

    #[test]
    fn run_table_matches_a_per_id_vec_under_random_sequences() {
        for seed in 1..=64u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut table = RunTable::new(0u8);
            let mut model = Model(vec![0u8; 2 * EDGE as usize + 1]);
            for step in 0..200 {
                let r = random_run(&mut rng);
                let what = format!("seed {seed} step {step}: {r:?}");
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let expand = |out: &mut Vec<(usize, u8)>, piece: ArrayRun, s: u8| {
                    out.extend(slots(piece).into_iter().map(|k| (k, s)));
                };
                match rng.below(3) {
                    0 => {
                        let v = rng.below(4) as u8;
                        table.assign(r, &v);
                        for k in slots(r) {
                            model.0[k] = v;
                        }
                    }
                    1 => {
                        table.read(r, |piece, &s| expand(&mut got, piece, s));
                        want = slots(r).into_iter().map(|k| (k, model.0[k])).collect();
                    }
                    _ => {
                        let next = |s: u8| (s * 3 + 1) % 5;
                        table.update(r, |piece, s| {
                            expand(&mut got, piece, *s);
                            *s = next(*s);
                        });
                        for k in slots(r) {
                            want.push((k, model.0[k]));
                            model.0[k] = next(model.0[k]);
                        }
                    }
                }
                assert_eq!(got, want, "{what}");
                // Every id reads back, and the pieces tile the id space
                // as maximal runs.
                for a in (0..EDGE)
                    .chain(HIGH..=u32::MAX)
                    .chain([EDGE, 1 << 31, HIGH - 1])
                {
                    assert_eq!(*table.get(ArrayId(a)), model.0[slot(a)], "{what}: id {a}");
                }
                let pieces: Vec<_> = table.iter().collect();
                assert_eq!(pieces[0].0, ArrayId(0), "{what}");
                assert_eq!(pieces.last().unwrap().1, ArrayId(u32::MAX), "{what}");
                for w in pieces.windows(2) {
                    assert_eq!(w[0].1 .0 + 1, w[1].0 .0, "{what}");
                    assert_ne!(w[0].2, w[1].2, "{what}: neighbours must differ");
                }
            }
        }
    }

    #[test]
    fn claims_follow_eq6_legality() {
        let one = |a| run(a, a);
        let mut c = BlockClaims::new();
        c.enter_block();
        let claim = |c: &mut BlockClaims, a, role, op| {
            let mut hit = false;
            c.table.update(one(a), |_, claims| {
                hit = BlockClaims::claim_one(claims, role, op)
            });
            hit
        };
        assert!(!claim(&mut c, 0, Role::Compute, 0));
        // Same operator again: fine. Another operator: conflict.
        assert!(!claim(&mut c, 0, Role::Compute, 0));
        assert!(claim(&mut c, 0, Role::Compute, 1));
        // Buffering a computing array conflicts even for its own op.
        assert!(claim(&mut c, 0, Role::MemIn, 0));
        // Eq. 6 reuse: one op's output is another's input.
        assert!(!claim(&mut c, 1, Role::MemOut, 0));
        assert!(!claim(&mut c, 1, Role::MemIn, 1));
        assert!(claim(&mut c, 1, Role::MemOut, 1));
        assert!(claim(&mut c, 1, Role::Compute, 2));
        // Stray ids obey the same rules, and a new block starts clean.
        assert!(!claim(&mut c, u32::MAX, Role::MemIn, 0));
        assert!(claim(&mut c, u32::MAX, Role::MemIn, 1));
        c.enter_block();
        assert!(!claim(&mut c, 0, Role::Compute, 1));
        assert!(!claim(&mut c, u32::MAX, Role::MemIn, 1));
    }
}
