//! The persistent artifact store across (simulated) process restarts.
//!
//! The contract under test is the tentpole acceptance bar: after
//! one priming run, a **fresh session over the same store directory**
//! compiles the whole registry with *zero* allocator solves and at
//! least 3× faster than the cold run — plus the integrity half of the
//! story: corrupt, stale-format or verifier-rejected artifacts are never
//! served, but recompiled and overwritten in place — and the verdict a
//! store handle remembers is a verdict on *bytes*, so it never covers a
//! payload the verifier has not seen.

use std::sync::Arc;
use std::time::Instant;

use cmswitch::arch::presets;
use cmswitch::compiler::verify::mutate;
use cmswitch::models::registry;
use cmswitch::prelude::*;

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cmswitch-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn registry_requests() -> Vec<CompileRequest> {
    registry::build_all(1, 16)
        .expect("registry builds")
        .into_iter()
        .map(|(name, graph)| CompileRequest::new(graph).with_label(name))
        .collect()
}

fn solver_invocations(report: &BatchReport) -> u64 {
    report
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|p| p.stats.solver_invocations())
        .sum()
}

/// The headline guarantee: prime once, restart, compile the registry
/// without a single allocator invocation — and measurably faster.
#[test]
fn fresh_session_compiles_registry_with_zero_solves() {
    let dir = temp_store("zero-solve");

    let cold_wall;
    {
        let store = ArtifactStore::open(&dir).unwrap();
        let session = Session::builder(presets::dynaplasia()).store(store).build();
        let t0 = Instant::now();
        let report = session.compile_batch(&registry_requests());
        cold_wall = t0.elapsed();
        assert!(report.outcomes.iter().all(|o| o.result.is_ok()));
        assert!(
            solver_invocations(&report) > 0,
            "cold run must actually solve"
        );
        session.persist_alloc_snapshot().unwrap();
    }

    // The restart: a brand-new store handle and session, nothing shared
    // but the directory — in-memory caches start empty.
    let store = ArtifactStore::open(&dir).unwrap();
    let session = Session::builder(presets::dynaplasia())
        .store(Arc::clone(&store))
        .build();
    let t0 = Instant::now();
    let report = session.compile_batch(&registry_requests());
    let warm_wall = t0.elapsed();

    assert!(report.outcomes.iter().all(|o| o.result.is_ok()));
    assert_eq!(
        solver_invocations(&report),
        0,
        "disk-warm registry compile must not invoke the allocator"
    );
    assert_eq!(report.stats.store_hits, registry::ALL_MODELS.len() as u64);
    assert_eq!(store.stats().corrupt, 0);
    assert!(
        warm_wall * 3 <= cold_wall,
        "disk-warm must be at least 3x faster: cold {cold_wall:?}, warm {warm_wall:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-level corruption is detected by the checksum, surfaced as a
/// `StoreCorrupt` diagnostic, recompiled — and the bad artifact is
/// overwritten so the *next* fetch hits clean.
#[test]
fn corrupt_artifact_is_recompiled_and_healed() {
    let dir = temp_store("corrupt");
    let store = ArtifactStore::open(&dir).unwrap();
    let session = Session::builder(presets::tiny())
        .store(Arc::clone(&store))
        .build();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();

    session.compile(CompileRequest::new(graph.clone())).unwrap();
    let key = StoreKey::for_compile(
        &presets::tiny(),
        "cmswitch",
        &CompilerOptions::default(),
        &graph,
    );
    let path = store.program_path(key);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = 32 + (bytes.len() - 32) / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    // A fresh session (cold caches) must detect the corruption, report
    // it, recompile, and overwrite the artifact.
    let session = Session::builder(presets::tiny())
        .store(Arc::clone(&store))
        .build();
    let outcome = session.compile(CompileRequest::new(graph.clone())).unwrap();
    let (hits, _misses, corrupt) = outcome.diagnostics.store_traffic();
    assert_eq!((hits, corrupt), (0, 1), "corruption must be diagnosed");
    assert!(matches!(store.fetch_program(key), StoreFetch::Hit(_)));

    // Healed: the next fresh session serves from disk again.
    let session = Session::builder(presets::tiny()).store(store).build();
    let outcome = session.compile(CompileRequest::new(graph)).unwrap();
    assert_eq!(outcome.diagnostics.store_traffic().0, 1);
    assert_eq!(outcome.stats().solver_invocations(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-formed artifact that fails static verification (simulated by
/// putting a mutated program under the correct key) is rejected before
/// serving: decoded bytes are never trusted without `core::verify`. The
/// probe counts once, as corrupt — never as a hit, since nothing was
/// served — and the cold recompile heals the entry on disk.
#[test]
fn verifier_rejected_artifact_is_never_served() {
    let dir = temp_store("verify-reject");
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    let honest = Session::builder(arch.clone())
        .build()
        .compile(CompileRequest::new(graph.clone()))
        .unwrap();

    // Craft a checksum-valid but semantically broken artifact: apply
    // the first defect-injection operator that both mutates this
    // program and draws a deny finding.
    let verifier = Verifier::new();
    let mutant = mutate::ALL
        .iter()
        .filter_map(|m| m.apply(&honest.program))
        .find(|p| verifier.run(p, &arch).deny_count() > 0)
        .expect("some mutation operator produces a deny-able program");
    let key = StoreKey::for_compile(&arch, "cmswitch", &CompilerOptions::default(), &graph);
    let store = ArtifactStore::open(&dir).unwrap();
    store.put_program(key, &mutant).unwrap();

    let session = Session::builder(arch.clone())
        .store(Arc::clone(&store))
        .build();
    let outcome = session.compile(CompileRequest::new(graph.clone())).unwrap();
    let (hits, _misses, corrupt) = outcome.diagnostics.store_traffic();
    assert_eq!(hits, 0, "a verifier-rejected artifact must not be served");
    assert_eq!(corrupt, 1, "the rejection must be diagnosed");
    assert!(
        outcome.diagnostics.events().iter().any(|e| matches!(
            e,
            DiagnosticEvent::StoreCorrupt { reason, .. } if reason.starts_with("verify rejected: ")
        )),
        "{}",
        outcome.diagnostics
    );
    assert!(outcome.stats().solver_invocations() > 0, "cold recompile");
    assert_eq!(verifier.run(&outcome.program, &arch).deny_count(), 0);
    // One probe, one count: the store's own counters agree.
    let stats = store.stats();
    assert_eq!((stats.hits, stats.corrupt), (0, 1));

    // Healed: the recompile overwrote the poisoned entry, so the next
    // fresh session serves it from disk without solving.
    let session = Session::builder(arch).store(store).build();
    let outcome = session.compile(CompileRequest::new(graph)).unwrap();
    assert_eq!(outcome.diagnostics.store_traffic(), (1, 0, 0));
    assert_eq!(outcome.stats().solver_invocations(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The allocation-cache snapshot alone (no program artifacts) already
/// eliminates solver work: L2 promotion into a fresh L1.
#[test]
fn alloc_snapshot_alone_warms_a_fresh_session() {
    let dir = temp_store("snapshot-only");
    {
        let store = ArtifactStore::open(&dir).unwrap();
        let session = Session::builder(presets::tiny())
            .store(Arc::clone(&store))
            .build();
        let graph = cmswitch::models::mlp::mlp(3, &[256, 256, 256]).unwrap();
        session.compile(CompileRequest::new(graph)).unwrap();
        assert!(session.persist_alloc_snapshot().unwrap() > 0);
        // Drop the program artifacts, keep only the snapshot.
        std::fs::remove_dir_all(store.root().join("programs")).unwrap();
    }

    let store = ArtifactStore::open(&dir).unwrap();
    let session = Session::builder(presets::tiny()).store(store).build();
    let graph = cmswitch::models::mlp::mlp(3, &[256, 256, 256]).unwrap();
    let outcome = session.compile(CompileRequest::new(graph)).unwrap();
    assert_eq!(
        outcome.stats().solver_invocations(),
        0,
        "snapshot-promoted cache entries must satisfy every allocation"
    );
    assert!(outcome.stats().cache_hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot entry of the first signature layout (`[fingerprint, kind,
/// segment…]`, before the schema word and the allocation fingerprint)
/// can never be looked up again: promotion drops it, so it does not ride
/// along into every later snapshot. Program artifacts are untouched.
#[test]
fn old_layout_snapshot_entries_are_dropped_on_promotion() {
    let dir = temp_store("old-layout");
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(3, &[256, 256, 256]).unwrap();
    let current = {
        let store = ArtifactStore::open(&dir).unwrap();
        let session = Session::builder(arch.clone()).store(Arc::clone(&store)).build();
        session.compile(CompileRequest::new(graph.clone())).unwrap();
        let entries = session.cache().export_entries();
        // Rewrite one entry into the old layout and snapshot both.
        let (_, sig, value) = entries[0].clone();
        assert_eq!(sig[1], arch.allocation_fingerprint(), "layout [schema, key, kind, …]");
        let old_sig: Vec<u64> =
            [arch.fingerprint()].into_iter().chain(sig[2..].iter().copied()).collect();
        let old = (cmswitch::solver::stable_hash64(&old_sig), old_sig, value);
        let mixed = AllocationCache::new();
        mixed.import_entries(entries.iter().cloned().chain([old]).collect());
        assert_eq!(store.save_alloc_snapshot(&mixed).unwrap(), entries.len() + 1);
        entries
    };

    let store = ArtifactStore::open(&dir).unwrap();
    let session = Session::builder(arch).store(Arc::clone(&store)).build();
    assert_eq!(session.cache().export_entries(), current, "only current entries promoted");
    assert_eq!(store.stats().corrupt, 0, "an old entry is stale, not corrupt");
    assert_eq!(session.persist_alloc_snapshot().unwrap(), current.len());
    // The program itself is still served from disk without a solve.
    let outcome = session.compile(CompileRequest::new(graph)).unwrap();
    assert_eq!(outcome.diagnostics.store_traffic(), (1, 0, 0));
    assert_eq!(solves(&outcome), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store-served program carries the cold compile's plan, exactly, and
/// the run history of its own request only: one `store` stage, its wall
/// time, and zero solver counters — the artifact holds no history to
/// carry over.
#[test]
fn served_program_has_the_cold_plan_and_store_only_stats() {
    let dir = temp_store("served-stats");
    let store = ArtifactStore::open(&dir).unwrap();
    let session = Session::builder(presets::tiny())
        .store(Arc::clone(&store))
        .build();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    let cold = session.compile_graph(&graph).unwrap();
    let served = session.compile_graph(&graph).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((store.stats().misses, store.stats().hits), (1, 1));
    assert!(cold.stats.solver_invocations() > 0, "{:?}", cold.stats);

    let stages: Vec<_> = served.stats.stage_wall.iter().map(|t| t.stage).collect();
    assert_eq!(stages, ["store"]);
    assert!(served.stats.stage_wall[0].wall <= served.stats.wall);
    let history = CompileStats {
        wall: served.stats.wall,
        stage_wall: served.stats.stage_wall.clone(),
        ..CompileStats::default()
    };
    assert_eq!(served.stats, history, "a served program did no solver work");

    let plan = |p: CompiledProgram| CompiledProgram {
        stats: CompileStats::default(),
        ..p
    };
    assert_eq!(plan(served), plan(cold));
}

/// Several threads of one process writing and reading the same key —
/// two server workers cold-compiling one request — must never tear each
/// other's artifact: every put lands, every read is whole.
#[test]
fn concurrent_writers_of_one_key_never_tear_the_artifact() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 300;
    let dir = temp_store("same-key-race");
    let store = ArtifactStore::open(&dir).unwrap();
    let arch = presets::dynaplasia();
    let graph = registry::build("bert-base", 1, 16).unwrap();
    let options = CompilerOptions::default();
    let program = Session::builder(arch.clone()).build().compile_graph(&graph).unwrap();
    // What a read returns: the plan, without the run history.
    let program = CompiledProgram {
        stats: CompileStats::default(),
        ..program
    };
    let key = StoreKey::for_compile(&arch, "cmswitch", &options, &graph);

    let start = std::sync::Barrier::new(THREADS);
    let (failed_puts, bad_reads): (usize, usize) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let (mut failed, mut bad) = (0, 0);
                    for _ in 0..ROUNDS {
                        failed += usize::from(store.put_program(key, &program).is_err());
                        match store.fetch_program(key) {
                            StoreFetch::Hit(read) if *read == program => {}
                            _ => bad += 1,
                        }
                    }
                    (failed, bad)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });

    assert_eq!(failed_puts, 0, "a concurrent put lost its temp file");
    assert_eq!(bad_reads, 0, "a reader saw a torn or foreign artifact");
    let stats = store.stats();
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.writes, (THREADS * ROUNDS) as u64);
    let files = std::fs::read_dir(store.root().join("programs")).unwrap().count();
    assert_eq!(files, 1, "one artifact, no temp file left behind");
    let _ = std::fs::remove_dir_all(&dir);
}

fn solves(outcome: &CompileOutcome) -> u64 {
    outcome.stats().solver_invocations()
}

/// Plants, under a key this build asks for, the artifact `forge` makes
/// of a current one, and checks it is refused by its format `version`,
/// diagnosed, recompiled and overwritten — there is no migration and no
/// second reader — and that the overwrite then serves with no solve.
fn stale_format_is_recompiled_and_overwritten(version: u32, forge: impl Fn(&mut Vec<u8>)) {
    let dir = temp_store(&format!("format-v{version}"));
    let store = ArtifactStore::open(&dir).unwrap();
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    let fresh_session = || Session::builder(arch.clone()).store(Arc::clone(&store)).build();
    fresh_session().compile(CompileRequest::new(graph.clone())).unwrap();

    let key = StoreKey::for_compile(&arch, "cmswitch", &CompilerOptions::default(), &graph);
    let path = store.program_path(key);
    let mut bytes = std::fs::read(&path).unwrap();
    forge(&mut bytes);
    assert_eq!(bytes[8..12], version.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let outcome = fresh_session().compile(CompileRequest::new(graph.clone())).unwrap();
    assert_eq!(outcome.diagnostics.store_traffic(), (0, 0, 1));
    let reason = format!("format version {version}");
    assert!(
        outcome.diagnostics.events().iter().any(|e| matches!(
            e,
            DiagnosticEvent::StoreCorrupt { reason: why, .. } if why.contains(&reason)
        )),
        "{}",
        outcome.diagnostics
    );
    assert!(solves(&outcome) > 0, "a refused artifact means a cold compile");
    assert_ne!(std::fs::read(&path).unwrap(), bytes, "the v{version} file was overwritten");

    let outcome = fresh_session().compile(CompileRequest::new(graph)).unwrap();
    assert_eq!(outcome.diagnostics.store_traffic(), (1, 0, 0));
    assert_eq!(solves(&outcome), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file a format-1 build left behind (same payload grammar, byte-serial
/// FNV-1a checksum).
#[test]
fn format_v1_artifact_is_recompiled_and_overwritten() {
    stale_format_is_recompiled_and_overwritten(1, |bytes| {
        let fnv1a = bytes[32..].iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes[24..32].copy_from_slice(&fnv1a.to_le_bytes());
    });
}

/// A file a format-5 build left behind: today's checksum over a payload
/// whose statements carried op names and shapes. The version is refused
/// before a payload byte is read, so its header is all it takes.
#[test]
fn format_v5_artifact_is_refused_by_version_and_recompiled() {
    stale_format_is_recompiled_and_overwritten(5, |bytes| {
        bytes[8..12].copy_from_slice(&5u32.to_le_bytes());
    });
}

/// One store handle, one session, one key that has been compiled (miss,
/// write-back) and then served once (hit, verified, verdict remembered).
struct Remembered {
    dir: std::path::PathBuf,
    store: Arc<ArtifactStore>,
    session: Session,
    graph: Graph,
    key: StoreKey,
}

impl Remembered {
    fn new(tag: &str) -> Remembered {
        let dir = temp_store(tag);
        let store = ArtifactStore::open(&dir).unwrap();
        let arch = presets::tiny();
        let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
        let key = StoreKey::for_compile(&arch, "cmswitch", &CompilerOptions::default(), &graph);
        let session = Session::builder(arch).store(Arc::clone(&store)).build();
        let this = Remembered { dir, store, session, graph, key };
        assert_eq!(this.serve().diagnostics.store_traffic(), (0, 1, 0));
        assert_eq!(this.serve().diagnostics.store_traffic(), (1, 0, 0));
        assert_eq!(this.store.stats().verdicts_reused, 0, "first sight is verified");
        this
    }

    fn serve(&self) -> CompileOutcome {
        self.session.compile(CompileRequest::new(self.graph.clone())).unwrap()
    }

    fn corrupt_reason(outcome: &CompileOutcome) -> &str {
        outcome
            .diagnostics
            .events()
            .iter()
            .find_map(|e| match e {
                DiagnosticEvent::StoreCorrupt { reason, .. } => Some(reason.as_str()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no StoreCorrupt event:\n{}", outcome.diagnostics))
    }
}

impl Drop for Remembered {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// (a) The memo never stands in for the checksum: every read still
/// recomputes it, so rot under a remembered key is caught before any
/// byte is interpreted.
#[test]
fn remembered_verdict_does_not_cover_a_flipped_byte() {
    let r = Remembered::new("memo-flip");
    let path = r.store.program_path(r.key);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = 32 + (bytes.len() - 32) / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let outcome = r.serve();
    assert_eq!(outcome.diagnostics.store_traffic(), (0, 0, 1));
    assert!(
        Remembered::corrupt_reason(&outcome).contains("checksum mismatch"),
        "{}",
        outcome.diagnostics
    );
    assert!(
        outcome.stats().stage_wall.iter().any(|t| t.stage == "segment"),
        "the program must come from the pipeline, not the file"
    );
    assert_eq!(r.store.stats().verdicts_reused, 0);
}

/// (b) The memo is keyed by bytes, not by key: a *validly framed* program
/// the verifier denies, put under a key whose previous payload passed,
/// is verified afresh and rejected.
#[test]
fn remembered_verdict_does_not_cover_different_bytes_under_the_same_key() {
    let r = Remembered::new("memo-swap");
    let honest = r.serve().program;
    let verifier = Verifier::new();
    let mutant = mutate::ALL
        .iter()
        .filter_map(|m| m.apply(&honest))
        .find(|p| verifier.run(p, r.session.arch()).deny_count() > 0)
        .expect("some mutation operator produces a deny-able program");
    r.store.put_program(r.key, &mutant).unwrap();
    let before = r.store.stats();

    let outcome = r.serve();
    assert_eq!(outcome.diagnostics.store_traffic(), (0, 0, 1));
    assert!(
        Remembered::corrupt_reason(&outcome).starts_with("verify rejected: "),
        "{}",
        outcome.diagnostics
    );
    assert_eq!(verifier.run(&outcome.program, r.session.arch()).deny_count(), 0);
    let after = r.store.stats();
    assert_eq!(after.verdicts_reused, before.verdicts_reused, "nothing was reused");
    assert_eq!((after.hits, after.corrupt), (before.hits, before.corrupt + 1));
    // A Deny is never remembered. The healed entry is the honest plan
    // again, byte for byte (an artifact holds no run history), so the
    // verdict remembered for those bytes covers it from the first read.
    assert_eq!(r.serve().diagnostics.store_traffic(), (1, 0, 0));
    assert_eq!(r.store.stats().verdicts_reused, before.verdicts_reused + 1);
    assert_eq!(r.serve().diagnostics.store_traffic(), (1, 0, 0));
    assert_eq!(r.store.stats().verdicts_reused, before.verdicts_reused + 2);
}

/// (c) An untouched file is verified once per handle: every further fetch
/// is still a checked read and a `StoreHit` + `Verified`, minus the
/// verifier run. (d) A second handle on the same directory remembers
/// nothing.
#[test]
fn remembered_verdict_is_reused_per_handle_only() {
    const N: u64 = 5;
    let r = Remembered::new("memo-reuse");
    let first = r.serve();
    for _ in 1..N {
        let again = r.serve();
        assert_eq!(again.program.flow, first.program.flow);
        assert_eq!(again.diagnostics.store_traffic(), (1, 0, 0));
        assert_eq!(again.diagnostics.verified_counts(), first.diagnostics.verified_counts());
        assert_eq!(solves(&again), 0);
    }
    let stats = r.store.stats();
    assert_eq!((stats.verdicts_reused, stats.corrupt), (N, 0));

    let reopened = ArtifactStore::open(&r.dir).unwrap();
    let session = Session::builder(r.session.arch().clone())
        .store(Arc::clone(&reopened))
        .build();
    for reused in [0, 1] {
        let outcome = session.compile(CompileRequest::new(r.graph.clone())).unwrap();
        assert_eq!(outcome.diagnostics.store_traffic(), (1, 0, 0));
        assert_eq!(reopened.stats().verdicts_reused, reused);
    }
    assert_eq!(r.store.stats().verdicts_reused, N, "handles do not share a memo");
}
