//! Facade-level tests of the unified Session/CompileRequest surface:
//! backend-generic compilation and batching (bit-identical to
//! sequential per-backend compiles), deadline/token cancellation
//! reaching into the segmentation DP, and typed diagnostics that
//! reconcile with `CompileStats`.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use cmswitch::prelude::*;

fn small_graphs() -> Vec<(String, Graph)> {
    vec![
        ("mlp-a".into(), cmswitch::models::mlp::mlp(1, &[64, 64, 64, 64]).unwrap()),
        ("mlp-b".into(), cmswitch::models::mlp::mlp(1, &[64, 64, 64, 64]).unwrap()),
        ("mlp-c".into(), cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap()),
    ]
}

#[test]
fn one_session_entry_point_serves_all_four_backends() {
    // The acceptance bar: one Session surface compiles via puma, occ,
    // cim-mlc and cmswitch, with a shared cache and a worker pool.
    let shared_cache = AllocationCache::new();
    let mut cmswitch_hits = 0;
    for kind in BackendKind::ALL {
        let session = Session::builder(presets::tiny())
            .backend_kind(kind)
            .workers(2)
            .cache(Arc::clone(&shared_cache))
            .build();
        assert_eq!(session.backend_name(), kind.name());
        assert_eq!(session.workers(), 2);
        let requests: Vec<CompileRequest> = small_graphs()
            .into_iter()
            .map(|(name, g)| CompileRequest::new(g).with_label(name))
            .collect();
        let report = session.compile_batch(&requests);
        assert_eq!(report.stats.compiled, 3, "{kind}: {}", report.summary());
        assert_eq!(report.stats.failed, 0);
        if kind == BackendKind::CmSwitch {
            cmswitch_hits = report.stats.cache_hits;
        }
    }
    // The dual-mode backend went through the shared cache.
    assert!(cmswitch_hits > 0);
    assert!(!shared_cache.is_empty());
}

#[test]
fn batched_compiles_are_bit_identical_to_sequential_per_backend() {
    for kind in BackendKind::ALL {
        let session = Session::builder(presets::tiny())
            .backend_kind(kind)
            .workers(3)
            .build();
        let requests: Vec<CompileRequest> = small_graphs()
            .into_iter()
            .map(|(name, g)| CompileRequest::new(g).with_label(name))
            .collect();
        let report = session.compile_batch(&requests);
        // Sequential reference: a fresh 1-worker session, one graph at a
        // time.
        let sequential = Session::builder(presets::tiny())
            .backend_kind(kind)
            .workers(1)
            .build();
        for ((_, graph), outcome) in small_graphs().iter().zip(&report.outcomes) {
            let batched = outcome.result.as_ref().unwrap_or_else(|e| {
                panic!("{kind}/{}: {e}", outcome.name);
            });
            let solo = sequential.compile_graph(graph).unwrap();
            assert_eq!(
                batched.predicted_latency.to_bits(),
                solo.predicted_latency.to_bits(),
                "{kind}/{}",
                outcome.name
            );
            assert_eq!(batched.flow, solo.flow, "{kind}/{}", outcome.name);
            assert_eq!(batched.segments, solo.segments, "{kind}/{}", outcome.name);
        }
    }
}

#[test]
fn explicit_backend_gets_the_same_batch_machinery() {
    // A baseline handed to the builder as a boxed `Backend` gets the
    // same pool + cache + BatchReport as CMSwitch.
    let session = Session::builder(presets::tiny())
        .backend(Box::new(BackendKind::CimMlc))
        .workers(2)
        .build();
    assert_eq!(session.backend_name(), "cim-mlc");
    let requests: Vec<CompileRequest> = small_graphs()
        .into_iter()
        .map(|(name, g)| CompileRequest::new(g).with_label(name))
        .collect();
    let report = session.compile_batch(&requests);
    assert_eq!(report.stats.compiled, 3, "{}", report.summary());
    let solo = Session::builder(presets::tiny())
        .backend(Box::new(BackendKind::CimMlc))
        .workers(1)
        .build()
        .compile_graph(&small_graphs()[2].1)
        .unwrap();
    let batched = report.get("mlp-c").unwrap().result.as_ref().unwrap();
    assert_eq!(batched.predicted_latency.to_bits(), solo.predicted_latency.to_bits());
    assert_eq!(batched.flow, solo.flow);
}

#[test]
fn partitioned_session_keeps_its_backend_on_the_sub_chip() {
    // The session owns the architecture and the strategy is stateless,
    // so a partition re-targets the *same* strategy at the sub-chip.
    let arch = presets::tiny();
    let n = arch.n_arrays() / 2;
    let half = Session::builder(arch.clone())
        .backend_kind(BackendKind::CimMlc)
        .build()
        .partitioned(n)
        .unwrap();
    assert_eq!(half.backend_name(), "cim-mlc");
    assert_eq!(half.arch().n_arrays(), n);
    let fresh = Session::builder(arch.partition(n).unwrap())
        .backend_kind(BackendKind::CimMlc)
        .build();
    for (name, graph) in small_graphs() {
        let (p, q) = (half.compile_graph(&graph).unwrap(), fresh.compile_graph(&graph).unwrap());
        assert_eq!(p.flow, q.flow, "{name}");
        assert_eq!(p.segments, q.segments, "{name}");
        assert_eq!(p.predicted_latency.to_bits(), q.predicted_latency.to_bits(), "{name}");
    }
}

#[test]
fn zero_deadline_on_transformer_cancels_before_the_dp_completes() {
    let session = Session::builder(presets::dynaplasia()).build();
    let graph = cmswitch::models::registry::build("bert-base", 1, 32).unwrap();
    let err = session
        .compile(CompileRequest::new(graph).with_deadline(Duration::ZERO))
        .unwrap_err();
    assert_eq!(err, CompileError::Cancelled);
}

#[test]
fn short_deadline_aborts_a_transformer_mid_compile() {
    // Lower+partition on bert-base take microseconds; the cold
    // segmentation DP takes orders of magnitude longer than 2ms, so the
    // deadline must fire inside the DP's window loop.
    let session = Session::builder(presets::dynaplasia()).build();
    let graph = cmswitch::models::registry::build("bert-base", 1, 32).unwrap();
    let err = session
        .compile(CompileRequest::new(graph).with_deadline(Duration::from_millis(2)))
        .unwrap_err();
    assert_eq!(err, CompileError::Cancelled);
}

#[test]
fn short_deadline_aborts_a_parallel_compile_without_poisoning_the_session() {
    // Same 2 ms deadline as above, but with the DP's allocation solves
    // fanned out across 4 workers: the CancelToken is polled inside the
    // batch, so the deadline must still abort — and because the solve
    // pool lives strictly inside one compile, the *same* session must
    // compile cleanly afterwards (no poisoned pool state).
    let session = Session::builder(presets::dynaplasia())
        .options(CompilerOptions::default().with_solve_workers(4))
        .build();
    let graph = cmswitch::models::registry::build("bert-base", 1, 32).unwrap();
    let err = session
        .compile(CompileRequest::new(graph).with_deadline(Duration::from_millis(2)))
        .unwrap_err();
    assert_eq!(err, CompileError::Cancelled);
    let small = cmswitch::models::mlp::mlp(1, &[64, 64, 32]).unwrap();
    let outcome = session
        .compile(CompileRequest::new(small))
        .expect("session stays usable after a cancelled parallel compile");
    assert!(!outcome.program.segments.is_empty());
}

#[test]
fn explicit_cancel_token_is_shared_across_clones() {
    let session = Session::builder(presets::tiny()).build();
    let token = CancelToken::new();
    let clone = token.clone();
    clone.cancel();
    let err = session
        .compile(
            CompileRequest::new(cmswitch::models::mlp::mlp(1, &[64, 64]).unwrap())
                .with_cancel(token),
        )
        .unwrap_err();
    assert_eq!(err, CompileError::Cancelled);
}

#[test]
fn batch_requests_honor_per_request_deadlines() {
    let session = Session::builder(presets::tiny()).workers(2).build();
    let requests = vec![
        CompileRequest::new(cmswitch::models::mlp::mlp(1, &[64, 64]).unwrap()).with_label("ok"),
        CompileRequest::new(cmswitch::models::mlp::mlp(1, &[64, 64]).unwrap())
            .with_label("doomed")
            .with_deadline(Duration::ZERO),
    ];
    let report = session.compile_batch(&requests);
    assert!(report.get("ok").unwrap().result.is_ok());
    assert_eq!(
        *report.get("doomed").unwrap().result.as_ref().unwrap_err(),
        CompileError::Cancelled
    );
    assert_eq!(report.stats.compiled, 1);
    assert_eq!(report.stats.failed, 1);
}

#[test]
fn diagnostics_pruning_counts_match_compile_stats() {
    // Five 256-wide layers on the 8-array tiny chip: the capacity
    // prefilter provably skips every multi-op window.
    let session = Session::builder(presets::tiny()).build();
    let graph = cmswitch::models::mlp::mlp(1, &[256, 256, 256, 256, 256]).unwrap();
    let outcome = session.compile(CompileRequest::new(graph)).unwrap();
    assert!(outcome.stats().dp_windows_pruned > 0);
    assert_events_match_stats(&outcome);
    let (_, misses) = outcome.diagnostics.cache_traffic();
    assert!(misses > 0, "a cold compile must miss");
    // And the events are matchable (the typed replacement for prose).
    assert!(outcome
        .diagnostics
        .events()
        .iter()
        .any(|e| matches!(e, DiagnosticEvent::DpWindowsPruned { infeasible, .. } if *infeasible > 0)));

    // A transformer, where warm starts and branch-and-bound do real work.
    let session = Session::builder(presets::dynaplasia()).build();
    let bert = cmswitch::models::registry::build("bert-base", 1, 16).unwrap();
    let outcome = session.compile(CompileRequest::new(bert)).unwrap();
    let stats = outcome.stats();
    assert!(
        stats.mip_solves > 0 && stats.warm_accepted > 0 && stats.pivots > 0,
        "{stats:?}"
    );
    assert_events_match_stats(&outcome);
}

/// Every counter the aggregate diagnostic events carry equals its
/// `CompileStats` field: DP windows, cache traffic, MIP fallbacks, warm
/// starts and all six solver-effort counts.
fn assert_events_match_stats(outcome: &CompileOutcome) {
    let (stats, diags) = (outcome.stats(), &outcome.diagnostics);
    assert_eq!(diags.windows_pruned(), stats.dp_windows_pruned, "{diags}");
    assert_eq!(
        diags.cache_traffic(),
        (stats.cache_hits, stats.cache_misses),
        "{diags}"
    );
    assert_eq!(diags.mip_fallbacks(), stats.mip_fallbacks, "{diags}");
    assert_eq!(
        diags.warm_start_counts(),
        (stats.warm_accepted, stats.warm_rejected),
        "{diags}"
    );
    let effort = (stats.mip_solves > 0).then_some(DiagnosticEvent::SolverEffort {
        mip_solves: stats.mip_solves,
        bnb_nodes: stats.bnb_nodes,
        lp_solves: stats.lp_solves,
        pivots: stats.pivots,
        budget_exhausted: stats.budget_exhausted,
        improved: stats.improved,
    });
    assert_eq!(diags.solver_effort(), effort.as_ref(), "{diags}");
}

/// CMSwitch, except that a graph named `doomed` fails right after its
/// segmentation DP ran: its allocator did real work, but the outcome has
/// no program.
struct FailsAfterSegment;

impl Backend for FailsAfterSegment {
    fn name(&self) -> &str {
        "fails-after-segment"
    }

    fn compile_in(
        &self,
        cx: &mut PipelineCx<'_>,
        graph: &Graph,
    ) -> Result<CompiledProgram, CompileError> {
        if graph.name() != "doomed" {
            return cmswitch::compiler::compile_with_segmenter(cx, &SegmentStage, graph);
        }
        let lowered = cx.run(&LowerStage, graph)?;
        let partitioned = cx.run(&PartitionStage, lowered)?;
        cx.run(&SegmentStage, partitioned)?;
        Err(CompileError::NoFeasibleSchedule)
    }
}

#[test]
fn failed_outcome_keeps_its_solver_counters_out_of_the_program_totals() {
    let options = CompilerOptions::default().with_solve_workers(1);
    let mlp = cmswitch::models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
    let doomed = Graph::from_nodes("doomed", mlp.nodes().to_vec());
    // What the allocator counts on that graph in a cold cache.
    let reference = Session::builder(presets::tiny())
        .options(options.clone())
        .build()
        .compile(CompileRequest::new(mlp))
        .unwrap();
    let survivor = cmswitch::models::mlp::mlp(1, &[64, 64, 64]).unwrap();
    // One worker: the doomed request runs first, against a cold cache.
    let session = Session::builder(presets::tiny())
        .backend(Box::new(FailsAfterSegment))
        .options(options)
        .workers(1)
        .build();
    let report =
        session.compile_batch(&[CompileRequest::new(doomed), CompileRequest::new(survivor)]);
    assert_eq!((report.stats.compiled, report.stats.failed), (1, 1));
    let [failed, ok] = &report.outcomes[..] else {
        panic!("two outcomes");
    };
    assert!(matches!(
        failed.result,
        Err(CompileError::NoFeasibleSchedule)
    ));
    let ok = ok.result.as_ref().unwrap();

    // The failed outcome's diagnostics carry what its allocator counted.
    let (hits, misses) = failed.diagnostics.cache_traffic();
    let expected = reference.stats();
    assert!(
        misses > 0 && expected.mip_solves > 0,
        "{}",
        failed.diagnostics
    );
    assert_eq!((hits, misses), (expected.cache_hits, expected.cache_misses));
    assert_eq!(
        failed.diagnostics.solver_effort(),
        reference.diagnostics.solver_effort()
    );
    // The program totals are the survivor's record alone ...
    assert_eq!(report.stats.programs, ok.stats);
    // ... while the batch's traffic counts both requests' lookups.
    assert_eq!(
        (report.stats.cache_hits, report.stats.cache_misses),
        (hits + ok.stats.cache_hits, misses + ok.stats.cache_misses)
    );
}

/// CMSwitch, except that a graph named `held` reports on `started` and
/// then waits for a message on `release` before it compiles.
struct HeldUntilReleased {
    started: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Backend for HeldUntilReleased {
    fn name(&self) -> &str {
        "held-until-released"
    }

    fn compile_in(
        &self,
        cx: &mut PipelineCx<'_>,
        graph: &Graph,
    ) -> Result<CompiledProgram, CompileError> {
        if graph.name() == "held" {
            self.started.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        cmswitch::compiler::compile_with_segmenter(cx, &SegmentStage, graph)
    }
}

#[test]
fn overlapping_batches_on_one_session_each_count_only_their_own_traffic() {
    // The first batch's only request probes the store, then is held
    // until a second batch on the same session (same cache, same store)
    // has run to completion. Each batch's traffic totals must still be
    // the sum of its own outcomes' diagnostics.
    let (started_tx, started) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let dir = std::env::temp_dir().join(format!("cmswitch-overlap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::builder(presets::tiny())
        .backend(Box::new(HeldUntilReleased {
            started: Mutex::new(started_tx),
            release: Mutex::new(release_rx),
        }))
        .store(ArtifactStore::open(&dir).unwrap())
        .workers(1)
        .build();
    let mlp = cmswitch::models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
    let held = [CompileRequest::new(Graph::from_nodes(
        "held",
        mlp.nodes().to_vec(),
    ))];
    let others: Vec<CompileRequest> = small_graphs()
        .into_iter()
        .map(|(name, g)| CompileRequest::new(g).with_label(name))
        .collect();
    let (first, second) = std::thread::scope(|s| {
        let first = s.spawn(|| session.compile_batch(&held));
        started.recv().unwrap();
        let second = session.compile_batch(&others);
        release.send(()).unwrap();
        (first.join().unwrap(), second)
    });
    let _ = std::fs::remove_dir_all(&dir);

    for report in [&first, &second] {
        assert_eq!(report.stats.failed, 0, "{}", report.summary());
        let mut own = [0u64; 4];
        for o in &report.outcomes {
            let (hits, misses) = o.diagnostics.cache_traffic();
            let (store_hits, store_misses, _) = o.diagnostics.store_traffic();
            for (sum, n) in own.iter_mut().zip([hits, misses, store_hits, store_misses]) {
                *sum += n;
            }
        }
        let s = &report.stats;
        assert_eq!(
            [s.cache_hits, s.cache_misses, s.store_hits, s.store_misses],
            own,
            "{}",
            report.summary()
        );
    }
    // Both batches did traffic of their own for the other to absorb
    // (`mlp-b` is `mlp-a`'s graph, so the store serves it).
    assert!(first.stats.cache_misses > 0 && second.stats.cache_misses > 0);
    assert_eq!((first.stats.store_hits, first.stats.store_misses), (0, 1));
    assert_eq!((second.stats.store_hits, second.stats.store_misses), (1, 2));
}

#[test]
fn zero_max_segment_ops_means_one_on_every_backend() {
    // A zero window cap reads as one op per window everywhere: the
    // greedy packers never pack past the first op, and the segmentation
    // DP behind CMSwitch and CIM-MLC clamps it to 1.
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
    for kind in BackendKind::ALL {
        let session = Session::builder(presets::tiny()).backend_kind(kind).build();
        let compile = |max_ops: usize| {
            let options = CompilerOptions::default().with_max_segment_ops(max_ops);
            session
                .compile(CompileRequest::new(graph.clone()).with_options(options))
                .unwrap_or_else(|e| panic!("{kind} at max_segment_ops={max_ops}: {e}"))
                .program
        };
        let (zero, one) = (compile(0), compile(1));
        assert_eq!(zero.flow, one.flow, "{kind}");
        assert_eq!(zero.segments, one.segments, "{kind}");
    }
}

#[test]
fn exhaustive_override_reports_zero_pruning() {
    let session = Session::builder(presets::tiny()).build();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    let outcome = session
        .compile(
            CompileRequest::new(graph)
                .with_options(CompilerOptions::default().with_dp_mode(DpMode::Exhaustive)),
        )
        .unwrap();
    assert_eq!(outcome.stats().dp_windows_pruned, 0);
    assert_eq!(outcome.diagnostics.windows_pruned(), 0);
}

#[test]
fn solver_effort_is_reported_and_repeats_exactly_at_one_solve_worker() {
    // resnet18's wide windows are where branch-and-bound runs out of
    // node budget: searches that end there return `Ok` with their
    // incumbent, so `mip_fallbacks` (solves that returned `Err`) cannot
    // see them and `SolverEffort` must.
    let graph = cmswitch::models::registry::build("resnet18", 1, 16).unwrap();
    let effort = || {
        let session = Session::builder(presets::dynaplasia())
            .options(CompilerOptions::default().with_solve_workers(1))
            .build();
        let outcome = session.compile(CompileRequest::new(graph.clone())).unwrap();
        let effort = outcome.diagnostics.solver_effort().cloned();
        (
            effort.expect("a cold MIP compile reports its search effort"),
            outcome.stats().mip_solves,
            outcome.diagnostics.mip_fallbacks(),
        )
    };
    let (first, stats_mip_solves, fallbacks) = effort();
    let DiagnosticEvent::SolverEffort {
        mip_solves,
        bnb_nodes,
        lp_solves,
        pivots,
        budget_exhausted,
        improved,
    } = first
    else {
        panic!("solver_effort() returns a SolverEffort event, got {first:?}");
    };
    assert_eq!(mip_solves, stats_mip_solves);
    assert!(budget_exhausted > 0, "{first}");
    assert_eq!(fallbacks, 0, "an exhausted search with an incumbent is not a fallback");
    assert!(budget_exhausted <= mip_solves && improved <= mip_solves, "{first}");
    // One LP per explored node, plus the root relaxation of every search
    // whose root was pruned unexplored.
    assert!(bnb_nodes <= lp_solves && lp_solves <= bnb_nodes + mip_solves, "{first}");
    assert!(pivots > lp_solves, "{first}");
    // Counts, not clocks: a second cold session reproduces all six.
    assert_eq!(effort().0, first);
}
