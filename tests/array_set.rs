//! Properties of `metaop::ArraySet`, the run-length array list every
//! flow statement carries: it is a faithful *sequence* (order and
//! duplicates kept), its runs are canonical (so `==` and `Hash` are those
//! of the sequence), the inline/spilled boundary is invisible, and a flow
//! of such lists crosses the artifact wire byte-identically.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use cmswitch::arch::{presets, ArrayId};
use cmswitch::compiler::artifact::{decode_program, encode_program};
use cmswitch::compiler::CompiledProgram;
use cmswitch::metaop::{
    ArraySet, ComputeStmt, MemDirection, MemKind, MemLoc, MemStmt, Stmt, SwitchKind,
    WeightLoadStmt,
};
use cmswitch::prelude::*;

/// xorshift64*, seeded by the case: the vendored `proptest` samples
/// ranges and vectors only, so shapes are drawn from this.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A sequence of ascending, descending and mixed runs, repeats and
/// single ids, drawn near 0, near `u32::MAX` and in between; empty about
/// one time in eight.
fn sequence(seed: u64) -> Vec<ArrayId> {
    let mut rng = Rng(seed | 1);
    let mut ids = Vec::new();
    let pieces = match rng.below(8) {
        0 => 0,
        _ => 1 + rng.below(7),
    };
    for _ in 0..pieces {
        let base = match rng.below(4) {
            0 => rng.below(4) as u32,
            1 => u32::MAX - rng.below(4) as u32,
            _ => rng.below(200) as u32,
        };
        let len = 1 + rng.below(9) as u32;
        match rng.below(5) {
            0 => ids.extend((0..len).filter_map(|i| base.checked_add(i)).map(ArrayId)),
            1 => ids.extend((0..len).filter_map(|i| base.checked_sub(i)).map(ArrayId)),
            2 => ids.extend((0..len).map(|_| ArrayId(base))),
            3 => {
                // Up, then straight back down over the same ids.
                let up: Vec<ArrayId> = (0..len)
                    .filter_map(|i| base.checked_add(i))
                    .map(ArrayId)
                    .collect();
                ids.extend(up.iter().copied());
                ids.extend(up.iter().rev().skip(1).copied());
            }
            _ => ids.push(ArrayId(base)),
        }
    }
    ids
}

fn hash_of(set: &ArraySet) -> u64 {
    let mut h = DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

/// A compiled program without its run history, which the wire does not
/// carry, whose flow carries `set` in every list position the IR has
/// (over the program's own op table, which the wire derives from its
/// ops).
fn program_with(set: &ArraySet) -> CompiledProgram {
    let graph = cmswitch::models::mlp::mlp(1, &[64, 64]).unwrap();
    let mut program = Session::builder(presets::tiny())
        .build()
        .compile_graph(&graph)
        .unwrap();
    program.stats = CompileStats::default();
    let stmts = program.flow.stmts_mut();
    stmts.clear();
    stmts.push(Stmt::switch(SwitchKind::ToCompute, set.clone()));
    stmts.push(Stmt::Parallel(vec![
        Stmt::LoadWeights(WeightLoadStmt {
            op: 0,
            arrays: set.clone(),
            bytes: 64,
        }),
        Stmt::Compute(ComputeStmt {
            op: 0,
            compute_arrays: set.clone(),
            mem_in_arrays: set.iter().step_by(2).collect(),
            mem_out_arrays: ArraySet::new(),
        }),
    ]));
    stmts.push(Stmt::Mem(MemStmt {
        loc: MemLoc::CimArrays(set.clone()),
        direction: MemDirection::Write,
        bytes: 6,
        kind: MemKind::Transfer,
    }));
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sets_are_their_sequences(seed in 0u64..u64::MAX) {
        let ids = sequence(seed);
        let set: ArraySet = ids.iter().copied().collect();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), ids.clone());
        prop_assert_eq!(set.len(), ids.len());
        prop_assert_eq!(set.is_empty(), ids.is_empty());
        prop_assert_eq!(set.first(), ids.first().copied());
        for a in &ids {
            prop_assert!(set.contains(*a));
        }

        // Built any other way, the same sequence is the same set.
        let mut pushed = ArraySet::new();
        let (head, tail) = ids.split_at(ids.len() / 2);
        head.iter().for_each(|&a| pushed.push(a));
        pushed.extend(tail.iter().copied());
        prop_assert_eq!(&pushed, &set);
        prop_assert_eq!(hash_of(&pushed), hash_of(&set));
        prop_assert_eq!(ArraySet::from(ids.as_slice()), set.clone());

        // The runs are canonical: replayed whole, each one is accepted
        // (none continues the one before it) and rebuilds the set.
        let mut replayed = ArraySet::new();
        for &run in set.runs() {
            prop_assert!(replayed.push_run(run));
        }
        prop_assert_eq!(&replayed, &set);
        let walked: usize = set.runs().iter().map(|r| r.count() as usize).sum();
        prop_assert_eq!(walked, ids.len());

        // A different sequence is a different set.
        if let Some(&last) = ids.last() {
            let mut other = ids.clone();
            *other.last_mut().unwrap() = ArrayId(last.0 ^ 1);
            prop_assert!(other.into_iter().collect::<ArraySet>() != set);
            prop_assert!(ids[..ids.len() - 1].iter().copied().collect::<ArraySet>() != set);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sets_cross_the_artifact_wire_byte_identically(seed in 0u64..u64::MAX) {
        let set: ArraySet = sequence(seed).into_iter().collect();
        let program = program_with(&set);
        let bytes = encode_program(&program);
        let decoded = decode_program(&bytes).unwrap();
        prop_assert_eq!(&decoded, &program);
        prop_assert_eq!(encode_program(&decoded), bytes);
    }
}

/// Three runs are held inline and a fourth spills: the boundary changes
/// where runs live, never what the list is.
#[test]
fn the_spill_boundary_is_invisible() {
    let ids = |ids: &[u32]| ids.iter().map(|&a| ArrayId(a)).collect::<Vec<_>>();
    let three = ids(&[9, 8, 7, 20, 21, 4]);
    let four = ids(&[9, 8, 7, 20, 21, 4, 4]);
    for (runs, list) in [(3, &three), (4, &four)] {
        let set: ArraySet = list.iter().copied().collect();
        assert_eq!(set.runs().len(), runs);
        assert_eq!(set.iter().collect::<Vec<_>>(), *list);
        let mut grown = ArraySet::from(&list[..list.len() - 1]);
        grown.push(*list.last().unwrap());
        assert_eq!((hash_of(&grown), grown), (hash_of(&set), set.clone()));
        let program = program_with(&set);
        let bytes = encode_program(&program);
        assert_eq!(encode_program(&decode_program(&bytes).unwrap()), bytes);
    }
}
