//! Seeded decoder fuzz for the artifact codec (`compiler::artifact`).
//!
//! Real artifacts — registry programs compiled by CMSwitch and by a
//! baseline, and an allocation snapshot — are mutated under fixed seeds:
//! single- and multi-byte flips, likely count or length fields set to
//! their width's maximum or to the payload length + 1, and two payloads
//! spliced at seeded cut points. Every mutant is resealed with a fresh
//! checksum (a first decode reports the one it computed), so the
//! payload grammar — not the checksum — is what meets it.
//!
//! Each mutant must decode to a typed [`ArtifactError`], or to a program
//! that `Verifier::run` and `validate_on` check without a panic; and no
//! decode may hold more than a fixed multiple of its input's bytes,
//! whatever a forged count claims. Forged op `source` sequences,
//! dependency edges naming sources no op has, statements naming ops
//! past the op table (or a table cut short under them) and unknown
//! memory-statement kinds meet the same checks.
//!
//! Own test binary: the counting `#[global_allocator]` (`counting`)
//! must not tax the other suites.

mod counting;

use std::panic::{catch_unwind, AssertUnwindSafe};

use cmswitch::arch::{presets, DualModeArch};
use cmswitch::compiler::artifact::{
    decode_alloc_entries, decode_program, encode_alloc_entries, encode_program, ArtifactError,
};
use cmswitch::compiler::artifact::{FORMAT_VERSION, KIND_PROGRAM, MAGIC};
use cmswitch::compiler::verify::rules;
use cmswitch::metaop::{validate_on, MemDirection, MemKind, MemLoc, MemStmt, Stmt};
use cmswitch::models::registry;
use cmswitch::prelude::*;
use counting::measured;

/// Header bytes before the payload: magic, version, kind, length,
/// checksum.
const HEADER: usize = 32;

/// Mutants of each class per input.
const MUTANTS: usize = 256;

/// A decode holds at most this many bytes per input byte (plus a small
/// constant). Nothing may be sized by a forged count, only by what the
/// payload can hold: the worst case is a payload of empty switches, a
/// few dozen in-memory bytes per 6-byte statement, twice that while the
/// flow's list grows. Honest artifacts peak at 2–4 bytes per byte and
/// the mutants below at about 7; a forged `parallel` count used to
/// reserve a whole statement per payload byte (172 here).
const BYTES_PER_INPUT_BYTE: i64 = 64;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Program,
    Snapshot,
}

/// Decodes `bytes` as `kind`, keeping the program (snapshots have
/// nothing for the checkers).
fn decode(kind: Kind, bytes: &[u8]) -> Result<Option<CompiledProgram>, ArtifactError> {
    match kind {
        Kind::Program => decode_program(bytes).map(Some),
        Kind::Snapshot => decode_alloc_entries(bytes).map(|_| None),
    }
}

/// Rewrites the header's payload length and checksum to match the
/// (mutated) payload, so only the payload grammar can refuse it.
fn reseal(kind: Kind, mut bytes: Vec<u8>) -> Vec<u8> {
    let len = (bytes.len() - HEADER) as u64;
    bytes[16..24].copy_from_slice(&len.to_le_bytes());
    bytes[24..32].copy_from_slice(&0u64.to_le_bytes());
    // A payload whose checksum happens to be zero is sealed already.
    if let Err(ArtifactError::ChecksumMismatch { found, .. }) = decode(kind, &bytes) {
        bytes[24..32].copy_from_slice(&found.to_le_bytes());
    }
    bytes
}

/// What the mutants came to, for the coverage assertions.
#[derive(Default, Debug)]
struct Tally {
    decoded: usize,
    malformed: usize,
    truncated: usize,
}

/// Decodes one mutant under the allocation counter, then runs the
/// checkers on whatever program it yields — all inside `catch_unwind`,
/// so a panic names the mutant.
fn check(kind: Kind, bytes: &[u8], arch: &DualModeArch, what: &str, tally: &mut Tally) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (decoded, _, peak) = measured(|| decode(kind, bytes));
        let budget = BYTES_PER_INPUT_BYTE * bytes.len() as i64 + (64 << 10);
        assert!(
            peak <= budget,
            "decode held {peak} bytes of a {}-byte input",
            bytes.len()
        );
        if let Ok(Some(program)) = &decoded {
            let _ = Verifier::new().run(program, arch);
            let _ = validate_on(&program.flow, arch.n_arrays());
        }
        decoded.map(drop)
    }));
    match outcome {
        Ok(Ok(())) => tally.decoded += 1,
        Ok(Err(ArtifactError::Malformed(_))) => tally.malformed += 1,
        Ok(Err(ArtifactError::Truncated { .. })) => tally.truncated += 1,
        Ok(Err(other)) => {
            panic!("{what}: a resealed payload failed outside the grammar: {other:?}")
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("{what}: panicked: {msg}");
        }
    }
}

/// Offsets in the payload whose `width`-byte little-endian value is
/// small and non-zero — where counts, lengths and indices sit.
fn small_fields(bytes: &[u8], width: usize) -> Vec<usize> {
    (HEADER..bytes.len() - width)
        .filter(|&at| {
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(&bytes[at..at + width]);
            (1..=1 << 16).contains(&u64::from_le_bytes(word))
        })
        .collect()
}

/// Every single-input mutant class of `clean`, checked.
fn fuzz_one(kind: Kind, clean: &[u8], arch: &DualModeArch, name: &str, seed: u64) -> Tally {
    let mut rng = Rng(seed);
    let mut tally = Tally::default();
    let payload = clean.len() - HEADER;
    for i in 0..MUTANTS {
        let mut bytes = clean.to_vec();
        let at = HEADER + rng.below(payload);
        bytes[at] ^= 1 + rng.below(255) as u8;
        let what = format!("{name}: flip #{i} at {at}");
        check(kind, &reseal(kind, bytes), arch, &what, &mut tally);
    }
    for i in 0..MUTANTS {
        let mut bytes = clean.to_vec();
        let span = 2 + rng.below(7);
        let start = HEADER + rng.below(payload - span);
        let scattered = rng.below(2) == 0;
        for k in 0..span {
            let at = if scattered {
                HEADER + rng.below(payload)
            } else {
                start + k
            };
            bytes[at] ^= 1 + rng.below(255) as u8;
        }
        let what = format!("{name}: {span}-byte flip #{i} (scattered: {scattered})");
        check(kind, &reseal(kind, bytes), arch, &what, &mut tally);
    }
    for width in [4, 8] {
        let fields = small_fields(clean, width);
        for i in 0..MUTANTS / 2 {
            let mut bytes = clean.to_vec();
            let at = fields[rng.below(fields.len())];
            let value = if rng.below(2) == 0 {
                u64::MAX
            } else {
                payload as u64 + 1
            };
            bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            let what = format!("{name}: {width}-byte field at {at} set to {value:#x} (#{i})");
            check(kind, &reseal(kind, bytes), arch, &what, &mut tally);
        }
    }
    tally
}

/// `a`'s payload up to a seeded cut, then `b`'s from another.
fn fuzz_splices(a: &[u8], b: &[u8], arch: &DualModeArch, name: &str, seed: u64) -> Tally {
    let mut rng = Rng(seed);
    let mut tally = Tally::default();
    for i in 0..MUTANTS {
        let cut_a = HEADER + rng.below(a.len() - HEADER);
        let cut_b = HEADER + rng.below(b.len() - HEADER);
        let mut bytes = a[..cut_a].to_vec();
        bytes.extend_from_slice(&b[cut_b..]);
        let what = format!("{name}: splice #{i} at {cut_a} / {cut_b}");
        check(
            Kind::Program,
            &reseal(Kind::Program, bytes),
            arch,
            &what,
            &mut tally,
        );
    }
    tally
}

fn compile(arch: &DualModeArch, kind: BackendKind, model: &str) -> Vec<u8> {
    let graph = registry::build(model, 1, 16).expect("registered model builds");
    let program = Session::builder(arch.clone())
        .backend_kind(kind)
        .build()
        .compile_graph(&graph)
        .expect("model compiles");
    encode_program(&program)
}

#[test]
fn mutated_registry_artifacts_are_typed_errors_or_checkable_programs() {
    let arch = presets::dynaplasia();
    let inputs = [
        (
            "resnet18 (cmswitch)",
            compile(&arch, BackendKind::CmSwitch, "resnet18"),
        ),
        (
            "bert-base (cmswitch)",
            compile(&arch, BackendKind::CmSwitch, "bert-base"),
        ),
        (
            "mobilenetv2 (cim-mlc)",
            compile(&arch, BackendKind::CimMlc, "mobilenetv2"),
        ),
    ];
    let mut total = Tally::default();
    let mut add = |t: Tally| {
        total.decoded += t.decoded;
        total.malformed += t.malformed;
        total.truncated += t.truncated;
    };
    for (seed, (name, clean)) in inputs.iter().enumerate() {
        add(fuzz_one(
            Kind::Program,
            clean,
            &arch,
            name,
            0xa11c_e000 + seed as u64,
        ));
    }
    for (seed, (i, j)) in [(0, 1), (1, 2), (2, 0)].into_iter().enumerate() {
        let name = format!("{} + {}", inputs[i].0, inputs[j].0);
        add(fuzz_splices(
            &inputs[i].1,
            &inputs[j].1,
            &arch,
            &name,
            0x5b1c_e000 + seed as u64,
        ));
    }
    // The mutants reach every outcome: some decode (and were checked),
    // some break the grammar, some run out of payload.
    assert!(
        total.decoded > 0 && total.malformed > 0 && total.truncated > 0,
        "{total:?}"
    );
}

#[test]
fn mutated_alloc_snapshot_is_a_typed_error_or_decodes() {
    let arch = presets::dynaplasia();
    let session = Session::builder(arch.clone()).build();
    for model in ["resnet18", "bert-base"] {
        session
            .compile_graph(&registry::build(model, 1, 16).unwrap())
            .unwrap();
    }
    let clean = encode_alloc_entries(&session.cache().export_entries());
    let tally = fuzz_one(Kind::Snapshot, &clean, &arch, "alloc snapshot", 0x5a95_0000);
    assert!(
        tally.decoded > 0 && tally.malformed + tally.truncated > 0,
        "{tally:?}"
    );
}

/// Regression (found by the fuzz): a forged `parallel` body count was
/// checked against one byte per statement, so a count as large as the
/// payload reserved a whole in-memory statement per payload byte before
/// the first one failed to decode. Statement counts are now checked
/// against the shortest statement, and the reservation is bounded by
/// what the payload can hold.
#[test]
fn forged_parallel_count_reserves_only_what_the_payload_holds() {
    const BEHIND: usize = 1 << 16;
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes()); // flow name: ""
    payload.extend_from_slice(&0u64.to_le_bytes()); // no ops
    payload.extend_from_slice(&1u64.to_le_bytes()); // one statement
    payload.push(5); // Stmt::Parallel
    payload.extend_from_slice(&(BEHIND as u64).to_le_bytes());
    payload.resize(payload.len() + BEHIND, 0xFF);
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&KIND_PROGRAM.to_le_bytes());
    bytes.extend_from_slice(&[0; 16]);
    bytes.extend_from_slice(&payload);
    let bytes = reseal(Kind::Program, bytes);

    let (decoded, _, peak) = measured(|| decode_program(&bytes));
    assert!(
        matches!(decoded, Err(ArtifactError::Truncated { .. })),
        "{:?}",
        decoded.map(drop)
    );
    assert!(
        peak < BEHIND as i64,
        "decode held {peak} bytes for a forged count"
    );
}

/// Regression (found by the fuzz): an allocation claiming `usize::MAX`
/// arrays for one operator overflowed the capacity lint's array total
/// (a panic in debug builds, a wrapped and possibly passing total in
/// release). The totals saturate, so the claim is a `capacity-arrays`
/// finding.
#[test]
fn an_allocation_claiming_usize_max_arrays_is_a_capacity_finding() {
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    let mut program = Session::builder(arch.clone())
        .build()
        .compile_graph(&graph)
        .unwrap();
    let alloc = &mut program.segments[0].alloc;
    alloc.ops[0].compute = usize::MAX;
    alloc.ops[0].mem_in = usize::MAX;
    assert_eq!(alloc.arrays_used(), usize::MAX);
    let decoded = decode_program(&encode_program(&program)).unwrap();
    let report = Verifier::new().run(&decoded, &arch);
    assert!(
        report.findings().iter().any(
            |f| f.rule == rules::CAPACITY_ARRAYS && f.message.contains(&usize::MAX.to_string())
        ),
        "{report}"
    );
}

/// `op_deps` names sources, and every reader finds a source's ops as one
/// span: the decoder refuses a `source` sequence that does not start at
/// 0 and step by 0 or +1, and an edge naming a source no op has decodes
/// into a `dep-order` finding, not a panic.
#[test]
fn forged_sources_are_refused_and_foreign_source_edges_are_findings() {
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
    let program = Session::builder(arch.clone())
        .build()
        .compile_graph(&graph)
        .unwrap();
    let sources = program.ops.last().unwrap().source + 1;
    assert!(
        sources < program.ops.len(),
        "the mlp must split on the tiny chip"
    );
    let mut tally = Tally::default();
    // (op, forged source): not starting at 0, stepping +2, +3 and -1.
    let last = program.ops.len() - 1;
    let forged_sources = [
        (0, 1),
        (0, usize::MAX),
        (1, program.ops[0].source + 2),
        (last, program.ops[last - 1].source + 3),
        (last, program.ops[last - 1].source - 1),
    ];
    for (at, source) in forged_sources {
        let mut forged = program.clone();
        forged.ops[at].source = source;
        let what = format!("op {at} with source {source}");
        check(
            Kind::Program,
            &encode_program(&forged),
            &arch,
            &what,
            &mut tally,
        );
    }
    assert_eq!(tally.malformed, forged_sources.len(), "{tally:?}");

    for edge in [
        (0, sources),
        (sources, 0),
        (usize::MAX, usize::MAX),
        (0, usize::MAX),
    ] {
        let mut forged = program.clone();
        forged.op_deps.push(edge);
        let bytes = encode_program(&forged);
        check(
            Kind::Program,
            &bytes,
            &arch,
            &format!("edge {edge:?}"),
            &mut tally,
        );
        let decoded = decode_program(&bytes).unwrap();
        let report = Verifier::new().run(&decoded, &arch);
        assert!(
            report
                .findings()
                .iter()
                .any(|f| f.rule == rules::DEP_ORDER && f.message.contains("indexes past")),
            "{edge:?}: {report}"
        );
        let engine = EventEngine::new()
            .simulate_program(&decoded, &arch)
            .unwrap();
        let clean = EventEngine::new()
            .simulate_program(&program, &arch)
            .unwrap();
        assert_eq!(
            engine.total_cycles.to_bits(),
            clean.total_cycles.to_bits(),
            "{edge:?}"
        );
    }
    assert_eq!(tally.decoded, 4, "{tally:?}");
}

/// Statements carry `u32` indices into the op table the program's ops
/// make. An index at or past the table — forged into a compute, a
/// weight load or a vector statement, or left behind by a table cut
/// short — and a memory statement whose kind tag names no kind are all
/// `Malformed`, at the fuzz's memory bound.
#[test]
fn forged_op_indices_short_tables_and_mem_kinds_are_malformed() {
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
    let program = Session::builder(arch.clone())
        .build()
        .compile_graph(&graph)
        .unwrap();
    let n_ops = program.ops.len() as u32;
    let mut tally = Tally::default();
    let mut cases = 0;
    for kind in ["compute", "load", "vector"] {
        for op in [n_ops, n_ops + 1, u32::MAX] {
            let mut forged = program.clone();
            let body = forged.flow.stmts_mut().iter_mut().find_map(|s| match s {
                Stmt::Parallel(body) => Some(body),
                _ => None,
            });
            let named = body.unwrap().iter_mut().find_map(|s| match (kind, s) {
                ("compute", Stmt::Compute(c)) => Some(&mut c.op),
                ("load", Stmt::LoadWeights(w)) => Some(&mut w.op),
                ("vector", Stmt::Vector(v)) => Some(&mut v.op),
                _ => None,
            });
            *named.unwrap_or_else(|| panic!("the first block has no {kind}")) = op;
            check(Kind::Program, &encode_program(&forged), &arch, &format!("{kind} op {op}"), &mut tally);
            cases += 1;
        }
    }
    for keep in [0, 1, program.ops.len() - 1] {
        let mut short = program.clone();
        short.ops.truncate(keep);
        check(Kind::Program, &encode_program(&short), &arch, &format!("{keep} ops"), &mut tally);
        cases += 1;
    }
    // A memory statement whose byte count marks where its kind tag sits.
    const MARK: u64 = 0x5EED_C0DE_0FA7_0F17;
    let mut marked = program.clone();
    marked.flow.push(Stmt::Mem(MemStmt {
        loc: MemLoc::Main,
        direction: MemDirection::Write,
        bytes: MARK,
        kind: MemKind::Transfer,
    }));
    let clean = encode_program(&marked);
    let at = clean.windows(8).position(|w| w == MARK.to_le_bytes()).unwrap() + 8;
    assert_eq!(clean[at], 2, "the transfer tag follows the byte count");
    for tag in [3, 4, 0x80, 0xFF] {
        let mut forged = clean.clone();
        forged[at] = tag;
        check(Kind::Program, &reseal(Kind::Program, forged), &arch, &format!("mem kind {tag}"), &mut tally);
        cases += 1;
    }
    assert_eq!((tally.malformed, tally.decoded, tally.truncated), (cases, 0, 0), "{tally:?}");
}
