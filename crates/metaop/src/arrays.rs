//! Ordered array lists stored as runs.
//!
//! Every list of array ids in a flow — the arrays a switch drives, the
//! compute and buffer arrays of an operator, the destination of a
//! weight load, a scratchpad location — is an [`ArraySet`]: a
//! *sequence* of [`ArrayId`]s (order and duplicates are kept, exactly as
//! codegen appended them) stored as its canonical maximal runs. The
//! allocator hands each operator its arrays as contiguous blocks, so a
//! list of dozens of ids is usually one to three runs, and the set keeps
//! up to three of them inline: building, cloning, encoding and dropping
//! such a list touches no heap. A longer list spills to one `Vec` of
//! runs.
//!
//! **Canonical form.** A run is `len` ids from `first` with step `+1` or
//! `-1`, at most `u32::MAX` of them (a single id counts as ascending).
//! The runs of a sequence are what pushing its ids one at a time builds:
//! an id extends the last run when it is that run's next id (either
//! neighbour, for a one-id run) and the run is not full, and opens a new
//! run otherwise. So equal sequences have equal runs, and `==` and
//! `Hash` over the runs are `==` and `Hash` over the sequences.
//!
//! **Untrusted runs.** A run decoded from an artifact can name up to
//! 2³² − 1 ids. Walking it id by id is the caller's choice;
//! [`ArraySet::clipped_runs`] cuts each run at a chip and stands its part
//! beyond the chip in for one id, so a checker pays for the chip, never
//! for a forged length.

use std::fmt;
use std::hash::{Hash, Hasher};

use cmswitch_arch::ArrayId;

/// Runs an [`ArraySet`] holds without a heap allocation.
const INLINE_RUNS: usize = 3;

/// One run of an [`ArraySet`]: `first`, `first ± 1`, …, `last`, with the
/// step the sign of `last - first` (`+1` for a single id). Holds at most
/// `u32::MAX` ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayRun {
    first: u32,
    last: u32,
}

impl ArrayRun {
    /// The run of `len` ids from `first`, ascending or descending; `None`
    /// for an empty run or one that would step past `0` or `u32::MAX`.
    #[inline]
    pub fn new(first: ArrayId, len: u32, ascending: bool) -> Option<ArrayRun> {
        let span = len.checked_sub(1)?;
        let last = if ascending {
            first.0.checked_add(span)?
        } else {
            first.0.checked_sub(span)?
        };
        Some(ArrayRun {
            first: first.0,
            last,
        })
    }

    /// The run of one id.
    #[inline]
    pub fn single(a: ArrayId) -> ArrayRun {
        ArrayRun {
            first: a.0,
            last: a.0,
        }
    }

    /// The run's first id.
    #[inline]
    pub fn first(self) -> ArrayId {
        ArrayId(self.first)
    }

    /// How many ids the run holds (at least one).
    #[inline]
    pub fn count(self) -> u32 {
        self.first.abs_diff(self.last) + 1
    }

    /// Whether the run steps by `+1` (a single id does).
    #[inline]
    pub fn ascending(self) -> bool {
        self.first <= self.last
    }

    /// The smallest id of the run.
    #[inline]
    pub fn min(self) -> ArrayId {
        ArrayId(self.first.min(self.last))
    }

    /// The largest id of the run.
    #[inline]
    pub fn max(self) -> ArrayId {
        ArrayId(self.first.max(self.last))
    }

    /// The run of the ids from `first` to `last`, stepping toward `last`
    /// — `None` if that would be more than `u32::MAX` ids (only
    /// `0..=u32::MAX`, either way, is).
    #[inline]
    pub fn between(first: ArrayId, last: ArrayId) -> Option<ArrayRun> {
        (first.0.abs_diff(last.0) != u32::MAX).then_some(ArrayRun {
            first: first.0,
            last: last.0,
        })
    }

    /// `self` and then `next` as one run, if `next` carries on where
    /// `self` stops, in one direction, and the two fit in one run.
    #[inline]
    pub fn joined(self, next: ArrayRun) -> Option<ArrayRun> {
        let grown = self.extended(next.first)?;
        if next.first != next.last && next.ascending() != grown.ascending() {
            return None;
        }
        self.count().checked_add(next.count())?;
        Some(ArrayRun {
            first: self.first,
            last: next.last,
        })
    }

    /// Whether `a` is one of the run's ids.
    #[inline]
    pub fn contains(self, a: ArrayId) -> bool {
        (self.first.min(self.last)..=self.first.max(self.last)).contains(&a.0)
    }

    /// The run's first id at or beyond `n_arrays` — the first id a chip
    /// of `n_arrays` arrays lacks — if the run reaches that far.
    #[inline]
    pub fn first_beyond(self, n_arrays: usize) -> Option<ArrayId> {
        if self.max().index() < n_arrays {
            return None;
        }
        // The run reaches `n_arrays`, so it fits in a `u32`.
        let bound = n_arrays as u32;
        Some(ArrayId(if self.ascending() {
            self.first.max(bound)
        } else {
            self.first
        }))
    }

    /// The run's ids in order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = ArrayId> + Clone {
        RunIter {
            next: self.first,
            left: self.count(),
            step: if self.ascending() { 1 } else { u32::MAX },
        }
    }

    /// The run cut at a chip of `n_arrays` arrays: its part on the chip,
    /// and its (contiguous) part beyond as the one-id run of that part's
    /// first id — in the run's order, at most two pieces.
    #[inline]
    fn clipped(self, n_arrays: usize) -> [Option<ArrayRun>; 2] {
        let Some(stray) = self.first_beyond(n_arrays) else {
            return [Some(self), None];
        };
        let stray = Some(ArrayRun::single(stray));
        // The run reaches `n_arrays`, so it fits in a `u32`.
        let bound = n_arrays as u32;
        if self.first.min(self.last) >= bound {
            [stray, None]
        } else if self.ascending() {
            // Ids first..bound-1, then `bound` stands for the rest.
            [Some(ArrayRun { first: self.first, last: bound - 1 }), stray]
        } else {
            // `first` stands for first..=bound, then bound-1 down to last.
            [stray, Some(ArrayRun { first: bound - 1, last: self.last })]
        }
    }

    /// The run from `first` to `last`, which the caller knows are fewer
    /// than 2³² ids apart.
    #[inline]
    pub(crate) fn from_ends(first: u32, last: u32) -> ArrayRun {
        debug_assert!(first.abs_diff(last) != u32::MAX);
        ArrayRun { first, last }
    }

    /// The run extended by `a`, if `a` is its next id and it has room.
    #[inline]
    fn extended(self, a: u32) -> Option<ArrayRun> {
        // `a` one past `last`, in the run's direction (either way for a
        // one-id run) and without wrapping.
        let next = if a == self.last.wrapping_sub(1) {
            self.first >= self.last && self.last != 0
        } else if a == self.last.wrapping_add(1) {
            self.first <= self.last && self.last != u32::MAX
        } else {
            false
        };
        (next && self.count() != u32::MAX).then_some(ArrayRun {
            first: self.first,
            last: a,
        })
    }
}

impl fmt::Debug for ArrayRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.first == self.last {
            write!(f, "{}", self.first)
        } else {
            write!(f, "{}..={}", self.first, self.last)
        }
    }
}

/// The ids of one [`ArrayRun`], in order.
#[derive(Debug, Clone)]
struct RunIter {
    next: u32,
    left: u32,
    /// `1` or `u32::MAX` (that is, `-1`), added wrapping.
    step: u32,
}

impl Iterator for RunIter {
    type Item = ArrayId;

    #[inline]
    fn next(&mut self) -> Option<ArrayId> {
        if self.left == 0 {
            return None;
        }
        let a = self.next;
        self.left -= 1;
        self.next = a.wrapping_add(self.step);
        Some(ArrayId(a))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

/// [`ArraySet::clipped_runs`]: each run cut at the chip, its second
/// piece (if any) held back for the next call.
#[derive(Clone)]
struct ClippedRuns<'a> {
    runs: std::slice::Iter<'a, ArrayRun>,
    n_arrays: usize,
    pending: Option<ArrayRun>,
}

impl Iterator for ClippedRuns<'_> {
    type Item = ArrayRun;

    #[inline]
    fn next(&mut self) -> Option<ArrayRun> {
        if let Some(run) = self.pending.take() {
            return Some(run);
        }
        let [piece, rest] = self.runs.next()?.clipped(self.n_arrays);
        self.pending = rest;
        piece
    }
}

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        runs: [ArrayRun; INLINE_RUNS],
    },
    Spilled(Vec<ArrayRun>),
}

/// An ordered list of array ids stored as canonical maximal runs (see
/// the module docs): up to three runs inline, more in one `Vec`.
///
/// ```
/// use cmswitch_arch::ArrayId;
/// use cmswitch_metaop::ArraySet;
///
/// let ids = [7, 6, 5, 4, 9, 9].map(ArrayId);
/// let set: ArraySet = ids.into();
/// assert_eq!(set.runs().len(), 3); // 7..=4, 9, 9
/// assert_eq!(set.len(), 6);
/// assert!(set.iter().eq(ids));
/// ```
#[derive(Clone)]
pub struct ArraySet {
    repr: Repr,
}

impl ArraySet {
    /// The empty list.
    #[inline]
    pub const fn new() -> ArraySet {
        ArraySet {
            repr: Repr::Inline {
                len: 0,
                runs: [ArrayRun { first: 0, last: 0 }; INLINE_RUNS],
            },
        }
    }

    /// The canonical runs, in order.
    #[inline]
    pub fn runs(&self) -> &[ArrayRun] {
        match &self.repr {
            Repr::Inline { len, runs } => &runs[..*len as usize],
            Repr::Spilled(runs) => runs,
        }
    }

    /// How many ids the list holds (duplicates counted).
    #[inline]
    pub fn len(&self) -> usize {
        self.runs()
            .iter()
            .fold(0usize, |n, r| n.saturating_add(r.count() as usize))
    }

    /// Whether the list holds no id.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.runs().is_empty()
    }

    /// The first id, if any.
    #[inline]
    pub fn first(&self) -> Option<ArrayId> {
        self.runs().first().map(|r| r.first())
    }

    /// Whether `a` is in the list.
    #[inline]
    pub fn contains(&self, a: ArrayId) -> bool {
        self.runs().iter().any(|r| r.contains(a))
    }

    /// The ids in order. Hot loops walk [`ArraySet::runs`] and each
    /// run's [`ArrayRun::iter`] instead: the ids of a run are computed,
    /// not loaded, and the nested loop costs no more than a slice.
    pub fn iter(&self) -> impl Iterator<Item = ArrayId> + Clone + '_ {
        self.runs().iter().flat_map(|run| run.iter())
    }

    /// The runs as a chip of `n_arrays` arrays sees them: each run's part
    /// on the chip, and each run's (contiguous) part at or beyond
    /// `n_arrays` as the one-id run of that part's first id — at most
    /// `n_arrays + 1` ids per run, however long the run says it is. The
    /// pieces are not canonical runs (a cut run's stray id may continue
    /// its part on the chip); they are for walking, not for building.
    pub fn clipped_runs(&self, n_arrays: usize) -> impl Iterator<Item = ArrayRun> + Clone + '_ {
        ClippedRuns {
            runs: self.runs().iter(),
            n_arrays,
            pending: None,
        }
    }

    /// The ids of [`ArraySet::clipped_runs`], in order.
    pub fn clipped(&self, n_arrays: usize) -> impl Iterator<Item = ArrayId> + Clone + '_ {
        self.clipped_runs(n_arrays).flat_map(ArrayRun::iter)
    }

    /// Appends `a`.
    #[inline]
    pub fn push(&mut self, a: ArrayId) {
        if let Some(last) = self.last_run_mut() {
            if let Some(grown) = last.extended(a.0) {
                *last = grown;
                return;
            }
        }
        self.append(ArrayRun::single(a));
    }

    /// Appends a whole run, if the result is canonical: `run` must not
    /// be a continuation of the last run (its first id that run's next,
    /// with room left). Returns whether it was appended — the check a
    /// decoder of untrusted runs makes.
    #[inline]
    pub fn push_run(&mut self, run: ArrayRun) -> bool {
        if self
            .runs()
            .last()
            .is_some_and(|last| last.extended(run.first).is_some())
        {
            return false;
        }
        self.append(run);
        true
    }

    /// Takes the last run off, to be grown and appended back.
    #[inline]
    fn pop_run(&mut self) -> Option<ArrayRun> {
        match &mut self.repr {
            Repr::Inline { len: 0, .. } => None,
            Repr::Inline { len, runs } => {
                *len -= 1;
                Some(runs[*len as usize])
            }
            Repr::Spilled(runs) => runs.pop(),
        }
    }

    #[inline]
    fn last_run_mut(&mut self) -> Option<&mut ArrayRun> {
        match &mut self.repr {
            Repr::Inline { len, runs } => runs[..*len as usize].last_mut(),
            Repr::Spilled(runs) => runs.last_mut(),
        }
    }

    #[inline]
    fn append(&mut self, run: ArrayRun) {
        match &mut self.repr {
            Repr::Inline { len, runs } if (*len as usize) < INLINE_RUNS => {
                runs[*len as usize] = run;
                *len += 1;
            }
            Repr::Inline { runs, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_RUNS);
                spilled.extend_from_slice(runs);
                spilled.push(run);
                self.repr = Repr::Spilled(spilled);
            }
            Repr::Spilled(runs) => runs.push(run),
        }
    }
}

impl Default for ArraySet {
    fn default() -> Self {
        ArraySet::new()
    }
}

impl PartialEq for ArraySet {
    fn eq(&self, other: &Self) -> bool {
        self.runs() == other.runs()
    }
}

impl Eq for ArraySet {}

impl Hash for ArraySet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.runs().hash(state);
    }
}

impl fmt::Debug for ArraySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.runs()).finish()
    }
}

impl FromIterator<ArrayId> for ArraySet {
    fn from_iter<I: IntoIterator<Item = ArrayId>>(iter: I) -> Self {
        let mut set = ArraySet::new();
        set.extend(iter);
        set
    }
}

impl Extend<ArrayId> for ArraySet {
    fn extend<I: IntoIterator<Item = ArrayId>>(&mut self, iter: I) {
        // The run being grown lives in a local until it ends: one store
        // per run, not per id.
        let mut open = self.pop_run();
        for a in iter {
            open = Some(match open {
                Some(run) => match run.extended(a.0) {
                    Some(grown) => grown,
                    None => {
                        self.append(run);
                        ArrayRun::single(a)
                    }
                },
                None => ArrayRun::single(a),
            });
        }
        if let Some(run) = open {
            self.append(run);
        }
    }
}

impl From<&[ArrayId]> for ArraySet {
    /// Cuts the slice into its runs in one pass over the ids — the way
    /// codegen builds every list.
    fn from(ids: &[ArrayId]) -> Self {
        let mut set = ArraySet::new();
        let mut rest = ids;
        while let [first, tail @ ..] = rest {
            // The step a run takes is set by its second id; it goes on
            // while each id takes that step from the one before, without
            // wrapping, up to a full run. Each run is maximal by
            // construction: the id after it does not continue it.
            let step: i32 = match tail.first() {
                Some(next) if first.0.checked_add(1) == Some(next.0) => 1,
                Some(next) if first.0.checked_sub(1) == Some(next.0) => -1,
                _ => 0,
            };
            let len = 1 + rest
                .windows(2)
                .take(if step == 0 { 0 } else { u32::MAX as usize - 1 })
                .take_while(|w| w[0].0.checked_add_signed(step) == Some(w[1].0))
                .count();
            set.append(ArrayRun {
                first: first.0,
                last: rest[len - 1].0,
            });
            rest = &rest[len..];
        }
        set
    }
}

impl From<Vec<ArrayId>> for ArraySet {
    fn from(ids: Vec<ArrayId>) -> Self {
        ArraySet::from(ids.as_slice())
    }
}

impl<const N: usize> From<[ArrayId; N]> for ArraySet {
    fn from(ids: [ArrayId; N]) -> Self {
        ArraySet::from(ids.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ArraySet {
        ids.iter().map(|&a| ArrayId(a)).collect()
    }

    fn runs(s: &ArraySet) -> Vec<(u32, u32)> {
        s.runs().iter().map(|r| (r.first, r.last)).collect()
    }

    #[test]
    fn runs_are_greedy_and_maximal() {
        assert_eq!(runs(&set(&[])), []);
        assert_eq!(runs(&set(&[5, 6, 7, 3, 2, 2])), [(5, 7), (3, 2), (2, 2)]);
        // A one-id run extends either way; a longer one only onward.
        assert_eq!(runs(&set(&[5, 4, 5])), [(5, 4), (5, 5)]);
        assert_eq!(
            runs(&set(&[0, u32::MAX, u32::MAX - 1])),
            [(0, 0), (u32::MAX, u32::MAX - 1)]
        );
        // No step wraps around the id space.
        assert_eq!(runs(&set(&[u32::MAX, 0])), [(u32::MAX, u32::MAX), (0, 0)]);
    }

    #[test]
    fn push_run_refuses_continuations() {
        let mut s = ArraySet::new();
        assert!(s.push_run(ArrayRun::new(ArrayId(9), 3, false).unwrap()));
        // 7 is the next id of 9..=7: merging is the canonical form.
        assert!(!s.push_run(ArrayRun::single(ArrayId(6))));
        assert!(s.push_run(ArrayRun::single(ArrayId(8))));
        // After a one-id run, either neighbour continues it.
        assert!(!s.push_run(ArrayRun::single(ArrayId(7))));
        assert!(!s.push_run(ArrayRun::single(ArrayId(9))));
        assert_eq!(s, set(&[9, 8, 7, 8]));
    }

    #[test]
    fn run_constructor_refuses_empty_and_wrapping_runs() {
        assert!(ArrayRun::new(ArrayId(3), 0, true).is_none());
        assert!(ArrayRun::new(ArrayId(u32::MAX), 2, true).is_none());
        assert!(ArrayRun::new(ArrayId(1), 3, false).is_none());
        let full = ArrayRun::new(ArrayId(0), u32::MAX, true).unwrap();
        assert_eq!(full.count(), u32::MAX);
        // A full run takes nothing more.
        assert!(full.extended(u32::MAX).is_none());
    }

    #[test]
    fn clipped_walks_stand_a_stray_tail_in_for_one_id() {
        let ids = |r: ArrayRun, n| {
            let set: ArraySet = [r].into_iter().fold(ArraySet::new(), |mut s, r| {
                s.push_run(r);
                s
            });
            set.clipped(n).map(|a| a.0).collect::<Vec<_>>()
        };
        let up = ArrayRun::new(ArrayId(6), 6, true).unwrap(); // 6..=11
        let down = ArrayRun::new(ArrayId(11), 6, false).unwrap(); // 11..=6
        assert_eq!(ids(up, 16), [6, 7, 8, 9, 10, 11]);
        assert_eq!(ids(up, 8), [6, 7, 8]);
        assert_eq!(ids(down, 8), [11, 7, 6]);
        assert_eq!(ids(up, 2), [6]);
        let forged = ArrayRun::new(ArrayId(u32::MAX), u32::MAX - 1, false).unwrap();
        assert_eq!(forged.count(), u32::MAX - 1);
        assert_eq!(ids(forged, 4), [u32::MAX, 3, 2]);
    }

    #[test]
    fn three_runs_stay_inline_and_a_fourth_spills() {
        let three = set(&[1, 2, 9, 5, 4]);
        assert!(matches!(three.repr, Repr::Inline { len: 3, .. }));
        let four = set(&[1, 2, 9, 5, 4, 20]);
        assert!(matches!(four.repr, Repr::Spilled(_)));
        assert_eq!(four.len(), 6);
        assert!(four.iter().map(|a| a.0).eq([1, 2, 9, 5, 4, 20]));
    }
}
