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
//!   version header, a corrupted payload, kind confusion and forged
//!   `parallel` nesting all fail with the precise typed
//!   [`ArtifactError`] — never a panic, never a stack overflow, never a
//!   silently wrong program.

use proptest::prelude::*;

use cmswitch::arch::{presets, DualModeArch};
use cmswitch::compiler::artifact::{
    decode_program, encode_program, ArtifactError, FORMAT_VERSION, KIND_PROGRAM, MAGIC,
};
use cmswitch::compiler::CompiledProgram;
use cmswitch::metaop::{Flow, Stmt};
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

/// Round-trip `program` and check every equivalence we can observe:
/// structural equality, byte-stable re-encode, verifier parity and
/// simulator parity.
fn assert_roundtrip(program: &CompiledProgram, arch: &DualModeArch, what: &str) {
    let bytes = encode_program(program);
    let decoded = decode_program(&bytes).unwrap_or_else(|e| panic!("{what}: decode failed: {e}"));
    assert_eq!(&decoded, program, "{what}: decoded program differs");
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
        prop_assert_eq!(&decoded, &program);
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

/// A program artifact whose payload is an empty flow name, one top-level
/// statement and then `depth` nested `parallel` tags of one statement
/// each — header and checksum valid, so the statement decoder is what
/// meets it. (The checksum function is private; a first decode reports
/// what it computed over the forged payload.)
fn forged_nesting(depth: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32 + 9 * depth);
    payload.extend_from_slice(&0u64.to_le_bytes()); // flow name: ""
    payload.extend_from_slice(&1u64.to_le_bytes()); // one statement
    for _ in 0..depth {
        payload.push(5); // Stmt::Parallel
        payload.extend_from_slice(&1u64.to_le_bytes());
    }
    // Enough bytes behind the innermost tag for its length guard.
    payload.extend_from_slice(&[0; 16]);

    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&KIND_PROGRAM.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&payload);
    let Err(ArtifactError::ChecksumMismatch { found, .. }) = decode_program(&bytes) else {
        panic!("a zero checksum matched the forged payload");
    };
    bytes[24..32].copy_from_slice(&found.to_le_bytes());
    bytes
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
    let mut flow = Flow::new(honest.flow.name());
    for stmt in honest.flow.stmts() {
        flow.push(match stmt {
            Stmt::Parallel(body) => Stmt::Parallel(vec![Stmt::Parallel(body.clone())]),
            other => other.clone(),
        });
    }
    let nested = CompiledProgram { flow, ..honest };
    assert!(
        nested.flow.stmts().iter().any(|s| matches!(s, Stmt::Parallel(_))),
        "the sample has no block to nest"
    );
    let decoded = decode_program(&encode_program(&nested)).expect("depth 2 decodes");
    assert_eq!(decoded, nested);
    assert!(
        Verifier::new()
            .run(&decoded, &arch)
            .findings()
            .iter()
            .any(|f| f.rule == cmswitch::compiler::verify::rules::RACE_NESTED),
        "race-nested must stay reachable through the decoder"
    );
}
