//! Wire-format coverage for the persistent artifact codec
//! (`compiler::artifact`).
//!
//! Three layers:
//!
//! * **Registry round-trip** — every registry model, compiled by every
//!   backend, survives `decode(encode(p))` bit-identically: structural
//!   equality, byte-identical re-encode, and the decoded program
//!   verifies and simulates exactly like the original.
//! * **Property sampling** — proptest-driven MLP shapes across the
//!   architecture presets round-trip and re-encode deterministically.
//! * **Error paths** — truncation at every framing boundary, a wrong
//!   version header, a corrupted payload, kind confusion, forged
//!   `parallel` nesting, forged array runs, op indices past the op table
//!   and unknown memory-statement kinds all fail with the precise
//!   typed [`ArtifactError`] — never a panic, never a stack overflow,
//!   never an allocation the size of a forged length, never a silently
//!   wrong program.

use proptest::prelude::*;

use cmswitch::arch::{presets, DualModeArch};
use cmswitch::compiler::artifact::{
    decode_program, encode_program, ArtifactError, FORMAT_VERSION, KIND_PROGRAM, MAGIC,
};
use cmswitch::compiler::CompiledProgram;
use cmswitch::metaop::Stmt;
use cmswitch::models::registry;
use cmswitch::prelude::*;
use cmswitch::sim::timing::simulate;

fn compile(kind: BackendKind, arch: &DualModeArch, graph: &Graph) -> CompiledProgram {
    Session::builder(arch.clone())
        .backend_kind(kind)
        .build()
        .compile_graph(graph)
        .expect("model compiles")
}

/// `program` as the wire carries it: the plan, without the run history.
fn plan_of(program: &CompiledProgram) -> CompiledProgram {
    CompiledProgram {
        stats: CompileStats::default(),
        ..program.clone()
    }
}

/// Round-trip `program` and check every equivalence we can observe:
/// structural equality of the plan, byte-stable re-encode, verifier
/// parity and simulator parity.
fn assert_roundtrip(program: &CompiledProgram, arch: &DualModeArch, what: &str) {
    let bytes = encode_program(program);
    let decoded = decode_program(&bytes).unwrap_or_else(|e| panic!("{what}: decode failed: {e}"));
    assert_eq!(decoded, plan_of(program), "{what}: decoded program differs");
    assert_eq!(
        encode_program(&decoded),
        bytes,
        "{what}: re-encode is not byte-identical"
    );

    let verifier = Verifier::new();
    let a = verifier.run(program, arch);
    let b = verifier.run(&decoded, arch);
    assert_eq!(
        (a.deny_count(), a.warn_count()),
        (b.deny_count(), b.warn_count()),
        "{what}: verifier disagrees after round-trip"
    );

    let sim_a = simulate(&program.flow, arch).expect("original simulates");
    let sim_b = simulate(&decoded.flow, arch).expect("decoded simulates");
    assert_eq!(
        sim_a.total_cycles, sim_b.total_cycles,
        "{what}: simulated makespan changed across the wire"
    );
}

#[test]
fn registry_round_trips_on_every_backend() {
    let arch = presets::dynaplasia();
    for kind in BackendKind::ALL {
        for &model in registry::ALL_MODELS {
            let graph = registry::build(model, 1, 16).expect("registered model builds");
            let program = compile(kind, &arch, &graph);
            assert_roundtrip(&program, &arch, &format!("{model} on {kind:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sampled_mlps_round_trip(
        preset in 0usize..3,
        depth in 1usize..4,
        widths in proptest::collection::vec(64usize..512, 2..5),
    ) {
        let arch = match preset {
            0 => presets::dynaplasia(),
            1 => presets::prime(),
            _ => presets::tiny(),
        };
        let graph = cmswitch::models::mlp::mlp(depth, &widths).unwrap();
        let program = compile(BackendKind::CmSwitch, &arch, &graph);
        let bytes = encode_program(&program);
        let decoded = decode_program(&bytes).unwrap();
        prop_assert_eq!(&decoded, &plan_of(&program));
        prop_assert_eq!(encode_program(&decoded), bytes);
    }
}

fn sample_bytes() -> Vec<u8> {
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    encode_program(&compile(BackendKind::CmSwitch, &arch, &graph))
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let bytes = sample_bytes();
    // Header boundaries (magic, version, kind, length, checksum) and a
    // payload cut: each must be Truncated, never a panic or bogus data.
    for cut in [0, 4, 8, 11, 16, 24, 31, bytes.len() - 1] {
        match decode_program(&bytes[..cut]) {
            Err(ArtifactError::Truncated { needed, available }) => {
                assert!(needed > available, "cut {cut}: nonsensical Truncated")
            }
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn wrong_version_header_is_rejected_up_front() {
    let mut bytes = sample_bytes();
    assert_ne!(FORMAT_VERSION, 0xFF, "bump the test byte with the format");
    bytes[8] = 0xFF; // version is LE at offset 8
    match decode_program(&bytes) {
        Err(ArtifactError::UnsupportedVersion(v)) => assert_eq!(v, 0xFF),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // Format 1 (byte-serial FNV-1a checksum) has no reader any more: a
    // file a previous build left in a store is a typed refusal, not a
    // checksum mismatch.
    bytes[8] = 1;
    assert_eq!(
        decode_program(&bytes).unwrap_err(),
        ArtifactError::UnsupportedVersion(1)
    );
    // Nor does format 2, whose array lists were one `u32` per id, nor
    // format 3, which also persisted each compile's run history, nor
    // formats 4 and 5, whose statements carried op names and shapes.
    for old in [2, 3, 4, 5] {
        bytes[8] = old;
        assert_eq!(
            decode_program(&bytes).unwrap_err(),
            ArtifactError::UnsupportedVersion(old.into())
        );
    }
}

#[test]
fn corrupted_magic_and_payload_are_rejected() {
    let mut bad_magic = sample_bytes();
    bad_magic[0] = b'X';
    assert!(matches!(
        decode_program(&bad_magic),
        Err(ArtifactError::BadMagic)
    ));

    let mut flipped = sample_bytes();
    let mid = 32 + (flipped.len() - 32) / 2;
    flipped[mid] ^= 0xFF;
    assert!(matches!(
        decode_program(&flipped),
        Err(ArtifactError::ChecksumMismatch { .. })
    ));
}

/// `payload` framed as a program artifact with a valid header and
/// checksum, so the payload decoder is what meets it. (The checksum
/// function is private; a first decode reports what it computed over
/// the forged payload.)
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&KIND_PROGRAM.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(payload);
    let Err(ArtifactError::ChecksumMismatch { found, .. }) = decode_program(&bytes) else {
        panic!("a zero checksum matched the forged payload");
    };
    bytes[24..32].copy_from_slice(&found.to_le_bytes());
    bytes
}

/// A program artifact whose payload is an empty flow name, no ops, one
/// top-level statement and then `depth` nested `parallel` tags of one
/// statement each.
fn forged_nesting(depth: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32 + 9 * depth);
    payload.extend_from_slice(&0u64.to_le_bytes()); // flow name: ""
    payload.extend_from_slice(&0u64.to_le_bytes()); // no ops
    payload.extend_from_slice(&1u64.to_le_bytes()); // one statement
    for _ in 0..depth {
        payload.push(5); // Stmt::Parallel
        payload.extend_from_slice(&1u64.to_le_bytes());
    }
    // Enough bytes behind the innermost tag for its length guard.
    payload.extend_from_slice(&[0; 16]);
    seal(&payload)
}

/// Nested blocks are illegal (`race-nested`), so the decoder bounds them
/// instead of recursing as deep as a file says: on a small stack, where
/// unbounded recursion aborts the whole process — past any
/// `catch_unwind` — within a few hundred levels.
#[test]
fn forged_parallel_nesting_is_a_typed_error_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            for depth in [3, 5_000, 200_000] {
                assert_eq!(
                    decode_program(&forged_nesting(depth)).unwrap_err(),
                    ArtifactError::Malformed("parallel nesting too deep"),
                    "depth {depth}"
                );
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

/// One level of nesting stays decodable: it is what the verifier's
/// `race-nested` rule (and `MetaOpError::NestedParallel`) exists to
/// report, so it must reach them through a stored artifact too.
#[test]
fn one_nested_block_round_trips() {
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    let honest = compile(BackendKind::CmSwitch, &arch, &graph);
    let mut nested = honest;
    for stmt in nested.flow.stmts_mut() {
        if let Stmt::Parallel(body) = stmt {
            *body = vec![Stmt::Parallel(std::mem::take(body))];
        }
    }
    assert!(
        nested.flow.stmts().iter().any(|s| matches!(s, Stmt::Parallel(_))),
        "the sample has no block to nest"
    );
    let decoded = decode_program(&encode_program(&nested)).expect("depth 2 decodes");
    assert_eq!(decoded, plan_of(&nested));
    assert!(
        Verifier::new()
            .run(&decoded, &arch)
            .findings()
            .iter()
            .any(|f| f.rule == cmswitch::compiler::verify::rules::RACE_NESTED),
        "race-nested must stay reachable through the decoder"
    );
}

/// One forged array list (the wire grammar: a `u32` run count, then per
/// run a `u32` first id, a `u32` length and a step byte).
fn runs(count: u32, runs: &[(u32, u32, u8)]) -> Vec<u8> {
    let mut list = count.to_le_bytes().to_vec();
    for &(first, len, step) in runs {
        list.extend_from_slice(&first.to_le_bytes());
        list.extend_from_slice(&len.to_le_bytes());
        list.push(step);
    }
    list
}

/// A program artifact with no ops whose flow is the one statement
/// `stmt` (its encoded bytes) and whose plan is empty.
fn forged_stmt(stmt: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes()); // flow name: ""
    payload.extend_from_slice(&0u64.to_le_bytes()); // no ops
    payload.extend_from_slice(&1u64.to_le_bytes()); // one statement
    payload.extend_from_slice(stmt);
    // op_deps, segments: none; predicted latency 0.0.
    payload.extend_from_slice(&[0; 8 * 3]);
    seal(&payload)
}

/// A program artifact whose flow is one `CM.switch(TOC, list)` and whose
/// plan is empty — so the array-list decoder is what meets `list`.
fn forged_switch(list: &[u8]) -> Vec<u8> {
    let mut stmt = vec![0, 1]; // Stmt::Switch, ToCompute
    stmt.extend_from_slice(list);
    forged_stmt(&stmt)
}

/// Run lists the encoder never writes are grammar violations:
/// counts the payload cannot hold, runs that are empty or leave the id
/// space, and lists that are not the canonical runs of their ids (which
/// would break `encode(decode(b)) == b`). None of them allocates by the
/// forged field: the count is checked against the bytes left before a
/// run is read, and a run decodes into the list's inline storage.
#[test]
fn hostile_array_runs_are_malformed() {
    let malformed = |what: &str, list: Vec<u8>| match decode_program(&forged_switch(&list)) {
        Err(ArtifactError::Malformed(_)) => {}
        other => panic!("{what}: expected Malformed, got {other:?}"),
    };
    // Counts inflated past the payload.
    malformed("count past the payload", runs(2, &[(5, 1, 0)]));
    malformed("count of u32::MAX", runs(u32::MAX, &[(5, 1, 0)]));
    // Lengths that step past either end of the id space.
    malformed("ascending past u32::MAX", runs(1, &[(10, u32::MAX, 0)]));
    malformed("ascending by one too many", runs(1, &[(u32::MAX - 3, 5, 0)]));
    malformed("descending past 0", runs(1, &[(3, 5, 1)]));
    malformed("zero-length run", runs(1, &[(7, 0, 0)]));
    // Not canonical: one run written as two, either way round, and a
    // one-id run claiming a descending step.
    malformed("mergeable ascending runs", runs(2, &[(5, 2, 0), (7, 3, 0)]));
    malformed("mergeable descending runs", runs(2, &[(9, 2, 1), (7, 1, 0)]));
    malformed("one-id run continued down", runs(2, &[(4, 1, 0), (3, 2, 1)]));
    malformed("descending one-id run", runs(1, &[(4, 1, 1)]));
    malformed("unknown step", runs(1, &[(4, 2, 2)]));

    // The same shapes, canonical, decode — including a run of u32::MAX
    // ids, which is nine bytes on the wire and, once decoded, one
    // capacity finding rather than four billion.
    for (what, list, ids) in [
        ("adjacent runs of opposite steps", runs(2, &[(5, 2, 0), (5, 2, 1)]), 4),
        ("a run after a full one", runs(2, &[(0, u32::MAX, 0), (u32::MAX, 1, 0)]), 1 << 32),
        ("the longest run", runs(1, &[(u32::MAX, u32::MAX, 1)]), u32::MAX as usize),
    ] {
        let bytes = forged_switch(&list);
        let program = decode_program(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
        let Stmt::Switch { arrays, .. } = &program.flow.stmts()[0] else {
            panic!("{what}: not a switch");
        };
        assert_eq!(arrays.len(), ids, "{what}");
        assert_eq!(encode_program(&program), bytes, "{what}: not canonical");
        let arch = presets::tiny();
        let report = Verifier::new().run(&program, &arch);
        let beyond = report
            .findings()
            .iter()
            .filter(|f| f.rule == cmswitch::compiler::verify::rules::CAPACITY_ARRAYS)
            .count();
        let reaches_past = arrays.runs().iter().any(|r| r.max().index() >= arch.n_arrays());
        assert_eq!(beyond, usize::from(reaches_past), "{what}:\n{report}");
    }
}

/// Statements name their op by its index in the op table the program's
/// ops make: an index at or past the table is a grammar violation, and
/// so is a memory statement whose kind tag names no kind. A table
/// shorter than the statements need is the same violation, met at the
/// first statement past it.
#[test]
fn hostile_op_indices_and_mem_kinds_are_malformed() {
    let past = ArtifactError::Malformed("op index past the op table");
    // Compute, weight load and vector statements naming op 0 of a
    // program that has none.
    let compute = [vec![1], 0u32.to_le_bytes().to_vec(), runs(0, &[]), runs(0, &[]), runs(0, &[])];
    let load = [vec![2], 0u32.to_le_bytes().to_vec(), runs(0, &[]), 8u64.to_le_bytes().to_vec()];
    let vector = [vec![4], 0u32.to_le_bytes().to_vec(), 8u64.to_le_bytes().to_vec()];
    for (what, stmt) in [("compute", compute.concat()), ("load", load.concat()), ("vector", vector.concat())] {
        assert_eq!(decode_program(&forged_stmt(&stmt)).unwrap_err(), past, "{what}");
    }
    // A memory statement to main memory, write, 8 bytes, by kind tag.
    let mem = |kind: &[u8]| [&[3, 0, 1][..], &8u64.to_le_bytes(), kind].concat();
    assert_eq!(
        decode_program(&forged_stmt(&mem(&[3]))).unwrap_err(),
        ArtifactError::Malformed("mem kind tag")
    );
    for kind in [&[0, 7, 0, 0, 0][..], &[1], &[2]] {
        let program = decode_program(&forged_stmt(&mem(kind))).expect("a known kind decodes");
        assert_eq!(encode_program(&program), forged_stmt(&mem(kind)));
    }

    // Real programs: one statement's index moved past the table, and the
    // table cut short under statements that name every op.
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    let honest = compile(BackendKind::CmSwitch, &arch, &graph);
    let n_ops = honest.ops.len() as u32;
    for op in [n_ops, u32::MAX] {
        let mut forged = honest.clone();
        let mut last = forged.flow.stmts_mut().iter_mut().rev();
        let body = last.find_map(|s| match s {
            Stmt::Parallel(body) => Some(body),
            _ => None,
        });
        let compute = body.unwrap().iter_mut().find_map(|s| match s {
            Stmt::Compute(c) => Some(c),
            _ => None,
        });
        compute.unwrap().op = op;
        assert_eq!(decode_program(&encode_program(&forged)).unwrap_err(), past, "op {op}");
    }
    let mut short = honest;
    short.ops.truncate(short.ops.len() / 2);
    assert_eq!(decode_program(&encode_program(&short)).unwrap_err(), past);
}
