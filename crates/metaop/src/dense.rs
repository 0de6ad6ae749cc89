//! Dense per-array state for the flow checkers.
//!
//! [`crate::validate`] and the verifier lints in `cmswitch-core` keep a
//! little state per physical array (its mode, its pending weight load,
//! who claimed it inside the current segment) and touch that state once
//! per array *reference* — hundreds of thousands of times on an LLM
//! flow. [`ArrayTable`] makes each touch an indexed load instead of a
//! hash probe, and [`BlockClaims`] layers the Eq. 6 claim legality both
//! checkers share on top of it.
//!
//! **Untrusted ids.** Array ids arrive from decoded artifacts and
//! hand-built flows, so an id can be anything up to `u32::MAX`. The dense part of a
//! table is sized by its creator (the chip's array count, or a bound
//! derived from the flow itself); any id beyond it lands in an ordered
//! spill map holding one entry per *distinct* stray id. A hostile id
//! therefore costs memory proportional to the flow that names it, never
//! to its own value, and never panics.

use std::collections::BTreeMap;

use cmswitch_arch::ArrayId;

use crate::ComputeStmt;

/// A map from [`ArrayId`] to `T` where every id implicitly starts at a
/// fill value: indexed storage for ids below the table's length, an
/// ordered spill map for the rest.
#[derive(Debug, Clone)]
pub struct ArrayTable<T> {
    dense: Vec<T>,
    spill: BTreeMap<u32, T>,
    fill: T,
}

impl<T: Clone> ArrayTable<T> {
    /// A table whose ids `0..len` are stored densely, all starting at
    /// `fill`.
    pub fn new(len: usize, fill: T) -> Self {
        ArrayTable {
            dense: vec![fill.clone(); len],
            spill: BTreeMap::new(),
            fill,
        }
    }

    /// The state of `a` (the fill value if never written).
    #[inline]
    pub fn get(&self, a: ArrayId) -> &T {
        match self.dense.get(a.0 as usize) {
            Some(slot) => slot,
            None => self.spill.get(&a.0).unwrap_or(&self.fill),
        }
    }

    /// Mutable state of `a`, materialised from the fill value on first
    /// touch.
    #[inline]
    pub fn slot(&mut self, a: ArrayId) -> &mut T {
        match self.dense.get_mut(a.0 as usize) {
            Some(slot) => slot,
            None => self.spill.entry(a.0).or_insert_with(|| self.fill.clone()),
        }
    }

    /// Every stored state in ascending id order (dense ids whether or
    /// not they were ever written, then the spilled ones).
    pub fn iter(&self) -> impl Iterator<Item = (ArrayId, &T)> {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .map(|(i, t)| (ArrayId(i as u32), t));
        // Spilled ids all lie beyond the dense range, so chaining keeps
        // the order ascending.
        dense.chain(self.spill.iter().map(|(&a, t)| (ArrayId(a), t)))
    }
}

/// The role in which a compute statement claims an array.
#[derive(Debug, Clone, Copy)]
enum Role {
    Compute,
    MemIn,
    MemOut,
}

/// First claimant of one role in the block stamped `block`.
#[derive(Debug, Clone, Copy)]
struct Claim<'a> {
    block: u32,
    op: &'a str,
}

/// Per-array claim bookkeeping for one `parallel` segment at a time.
///
/// Inside a segment an array serves at most one operator per role, and
/// never computes while it buffers; the one legal sharing is the Eq. 6
/// reuse where one operator's output buffer is another's input buffer.
/// Only the *first* claimant of each role is remembered: a later claim
/// conflicts exactly when it differs from the first, so operator names
/// are compared on second claims only and nothing is cloned.
#[derive(Debug, Clone)]
pub struct BlockClaims<'a> {
    table: ArrayTable<[Claim<'a>; 3]>,
    block: u32,
}

impl<'a> BlockClaims<'a> {
    /// Claim state for arrays `0..len` (stray ids spill, see the module
    /// docs).
    pub fn new(len: usize) -> Self {
        BlockClaims {
            table: ArrayTable::new(len, [Claim { block: 0, op: "" }; 3]),
            block: 0,
        }
    }

    /// Starts a new segment: every earlier claim is forgotten (by
    /// restamping, not by clearing).
    pub fn enter_block(&mut self) {
        self.block += 1;
    }

    /// Records every claim of compute statement `c` — its compute
    /// arrays, then its input buffers, then its output buffers — and
    /// calls `conflict` with each array whose claim conflicts with the
    /// segment's earlier ones (itself included), in that order. Lists
    /// are walked [`clipped`](crate::ArraySet::clipped_runs) to a chip of
    /// `n_arrays` arrays (`usize::MAX` walks every id), so a forged run
    /// costs the chip, not its length.
    pub fn claim(
        &mut self,
        c: &'a ComputeStmt,
        n_arrays: usize,
        mut conflict: impl FnMut(ArrayId),
    ) {
        let roles = [
            (Role::Compute, &c.compute_arrays),
            (Role::MemIn, &c.mem_in_arrays),
            (Role::MemOut, &c.mem_out_arrays),
        ];
        for (role, arrays) in roles {
            for run in arrays.clipped_runs(n_arrays) {
                for a in run.iter() {
                    if self.claim_one(a, role, &c.op) {
                        conflict(a);
                    }
                }
            }
        }
    }

    /// Records that operator `op` claims `a` in `role`, and reports
    /// whether that claim conflicts with the segment's earlier ones.
    #[inline]
    fn claim_one(&mut self, a: ArrayId, role: Role, op: &'a str) -> bool {
        let block = self.block;
        let claims = self.table.slot(a);
        let held = |c: &Claim<'_>| c.block == block;
        let mine = &mut claims[role as usize];
        let by_other = held(mine) && mine.op != op;
        if !held(mine) {
            *mine = Claim { block, op };
        }
        let [compute, mem_in, mem_out] = &*claims;
        by_other
            || match role {
                Role::Compute => held(mem_in) || held(mem_out),
                Role::MemIn | Role::MemOut => held(compute),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reads_fill_until_written_and_spills_stray_ids() {
        let mut t = ArrayTable::new(4, 7u8);
        assert_eq!(*t.get(ArrayId(2)), 7);
        assert_eq!(*t.get(ArrayId(u32::MAX)), 7);
        *t.slot(ArrayId(2)) = 1;
        *t.slot(ArrayId(u32::MAX)) = 2;
        *t.slot(ArrayId(4)) = 3;
        assert_eq!(*t.get(ArrayId(2)), 1);
        assert_eq!(*t.get(ArrayId(u32::MAX)), 2);
        let ids: Vec<u32> = t.iter().map(|(a, _)| a.0).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, u32::MAX]);
        // One spilled entry per distinct stray id, whatever its value.
        assert_eq!(t.spill.len(), 2);
    }

    #[test]
    fn claims_follow_eq6_legality() {
        let mut c = BlockClaims::new(2);
        c.enter_block();
        assert!(!c.claim_one(ArrayId(0), Role::Compute, "a"));
        // Same operator again: fine. Another operator: conflict.
        assert!(!c.claim_one(ArrayId(0), Role::Compute, "a"));
        assert!(c.claim_one(ArrayId(0), Role::Compute, "b"));
        // Buffering a computing array conflicts even for its own op.
        assert!(c.claim_one(ArrayId(0), Role::MemIn, "a"));
        // Eq. 6 reuse: one op's output is another's input.
        assert!(!c.claim_one(ArrayId(1), Role::MemOut, "a"));
        assert!(!c.claim_one(ArrayId(1), Role::MemIn, "b"));
        assert!(c.claim_one(ArrayId(1), Role::MemOut, "b"));
        assert!(c.claim_one(ArrayId(1), Role::Compute, "c"));
        // Stray ids obey the same rules, and a new block starts clean.
        assert!(!c.claim_one(ArrayId(9), Role::MemIn, "a"));
        assert!(c.claim_one(ArrayId(9), Role::MemIn, "b"));
        c.enter_block();
        assert!(!c.claim_one(ArrayId(0), Role::Compute, "b"));
        assert!(!c.claim_one(ArrayId(9), Role::MemIn, "b"));
    }
}
