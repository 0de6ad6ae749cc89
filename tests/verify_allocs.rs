//! Cost guards for the flow checkers and the event engine, stated as
//! allocation counts and peak live bytes — a count repeats exactly where
//! a clock does not.
//!
//! `core::verify` and `metaop::validate` run on every compile and on
//! every distinct artifact served from the store, over flows with hundreds of
//! thousands of array references. Their contract is per-array state
//! kept by the run (`metaop::dense::RunTable`): work is per run and per
//! piece of equal state it covers, and heap traffic is bounded by the
//! number of *statements*, never by the number of references, by the
//! value of an (untrusted) array id, or by the length an (untrusted) run
//! of ids claims.
//!
//! The event engine's contract is the same, with one stated exception:
//! `simulate*` keeps one fixed-size event per statement (its label
//! borrows its op's name from the flow's op table, and is rendered only
//! on the critical path) and nothing per array reference, in calls and
//! in bytes; the per-array busy log — one `BusyInterval` per reference —
//! is held exactly when a `trace*` entry point asks for it.
//!
//! The simplex kernel under branch-and-bound has the same kind of
//! contract, per LP instead of per statement: one workspace per MIP
//! solve, nothing allocated per pivot, per node LP or per branch.
//!
//! And the warm path: a store-served compile pays for the verifier on
//! the first sight of a payload only, and for decoding otherwise — each
//! op name once, however many statements name the op.
//!
//! Partitioning keeps the dependency relation at operator granularity:
//! its cost is the split ops, never the pairs between them.
//!
//! And the cold path: the segmentation DP allocates per memoized window
//! and per solve, an allocation-cache hit allocates only the allocation
//! it returns, and codegen only what its statements own.
//!
//! Own test binary: the counting `#[global_allocator]` (`counting`)
//! must not tax the other suites. Counters are per thread, so the tests
//! here may run in parallel.

mod common;
mod counting;

use cmswitch::arch::{presets, ArrayId};
use cmswitch::compiler::verify::{rules, Verifier};
use cmswitch::compiler::allocation::Allocator;
use cmswitch::compiler::cost::CostModel;
use cmswitch::compiler::pipeline::Partitioned;
use cmswitch::compiler::segment::segment;
use cmswitch::compiler::{AllocatorKind, CompiledProgram};
use cmswitch::compiler::artifact::{decode_program, encode_program};
use cmswitch::compiler::frontend::{lower_graph, DepIndex};
use cmswitch::compiler::partition::partition;
use cmswitch::metaop::{
    validate, validate_on, ArrayRun, ArraySet, Flow, MetaOpError, Stmt, SwitchKind,
};
use cmswitch::models::registry;
use cmswitch::prelude::*;
use cmswitch::sim::{BusyInterval, ChipScheduler, TenancyError, TenancyPolicy};
use counting::measured;

fn with_stmts(program: &CompiledProgram, edit: impl FnOnce(&mut Vec<Stmt>)) -> CompiledProgram {
    let mut out = program.clone();
    edit(out.flow.stmts_mut());
    out
}

#[test]
fn clean_llm_checks_allocate_per_statement_not_per_array_reference() {
    let arch = presets::dynaplasia();
    let graph = registry::build("llama2-7b", 1, 32).unwrap();
    let program = Session::builder(arch.clone())
        .build()
        .compile_graph(&graph)
        .unwrap();

    let (mut statements, mut references) = (0u64, 0u64);
    for s in program.flow.stmts() {
        statements += 1;
        if let Stmt::Parallel(body) = s {
            statements += body.len() as u64;
        }
        s.for_each_array(&mut |_| references += 1);
    }
    assert!(
        references > 20 * statements,
        "llama2-7b no longer separates the two budgets: {references} references \
         over {statements} statements"
    );
    let budget = 2 * statements + 64;

    let verifier = Verifier::new();
    let (report, calls, _) = measured(|| verifier.run(&program, &arch));
    assert!(report.is_empty(), "{report}");
    assert!(
        calls <= budget,
        "Verifier::run made {calls} allocations on {statements} statements \
         ({references} array references); budget {budget}"
    );

    let (verdict, calls, _) = measured(|| validate(&program.flow));
    verdict.expect("a clean flow validates");
    assert!(
        calls <= budget,
        "validate made {calls} allocations on {statements} statements \
         ({references} array references); budget {budget}"
    );

    // The event engine keeps its per-array state by the run too: a
    // dependency row and a window per segment, amortised growth of the
    // event list and a rendered label per critical-path step — about one
    // call per statement (4 144 on 4 080 now, 4 159 with dense per-array
    // `Vec`s; 7 326 with a `String` per event and an always-on timeline
    // log) — and no per-event dependency list, no per-array-reference
    // clone.
    let budget = 3 * statements / 2 + 64;
    let engine = EventEngine::new();
    let (report, calls, peak) = measured(|| engine.simulate_program(&program, &arch));
    let report = report.expect("a clean program simulates");
    assert!(
        calls <= budget,
        "EventEngine::simulate_program made {calls} allocations on {statements} \
         statements ({references} array references); budget {budget}"
    );
    // In bytes: a 64-byte event under amortised doubling, a segment
    // window and a dependency row — per statement. 0.53 MB here; the
    // always-on log held 5.1 MB.
    let byte_budget = 192 * statements as i64;
    assert!(
        peak <= byte_budget,
        "EventEngine::simulate_program held {peak} bytes on {statements} statements \
         ({references} array references); budget {byte_budget}"
    );

    // The log exists exactly when asked for: tracing the same program
    // returns an equal report and holds at least its intervals more.
    let (trace, _, traced_peak) = measured(|| engine.trace_program(&program, &arch));
    let trace = trace.expect("a clean program traces");
    assert_eq!(trace.report, report);
    let intervals: usize = trace.timelines.iter().map(|t| t.intervals.len()).sum();
    let logged = (std::mem::size_of::<BusyInterval>() * intervals) as i64;
    assert!(
        intervals as u64 > 20 * statements && traced_peak >= peak + logged,
        "trace_program held {traced_peak} bytes against simulate_program's {peak}: \
         {intervals} intervals ({logged} bytes) are not accounted for"
    );
}

/// Ids no chip has — one past the last array, and `u32::MAX` — reach
/// the checkers from decoded artifacts. They must come out as findings,
/// at a cost that does not depend on the id's value.
#[test]
fn hostile_array_ids_are_findings_and_stay_cheap() {
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
    let program = Session::builder(arch.clone())
        .build()
        .compile_graph(&graph)
        .unwrap();
    let edge = ArrayId(arch.n_arrays() as u32);
    let far = ArrayId(u32::MAX);

    // Inside a segment block, in every role of its first compute, and
    // in the weight load in front of it.
    let in_block = with_stmts(&program, |stmts| {
        let body = stmts
            .iter_mut()
            .find_map(|s| match s {
                Stmt::Parallel(body) => Some(body),
                _ => None,
            })
            .expect("the mlp has a parallel block");
        for s in body {
            match s {
                Stmt::LoadWeights(w) => w.arrays.push(far),
                Stmt::Compute(c) => {
                    c.compute_arrays.extend([edge, far]);
                    c.mem_in_arrays.extend([edge, far]);
                    c.mem_out_arrays.push(edge);
                    break;
                }
                _ => {}
            }
        }
    });
    // And at top level, where no segment block covers the statement.
    let top_level = with_stmts(&program, |stmts| {
        stmts.insert(0, Stmt::switch(SwitchKind::ToCompute, vec![edge, far]));
    });

    const MIB: i64 = 1 << 20;
    let verifier = Verifier::new();
    for (what, hostile) in [("in-block", &in_block), ("top-level", &top_level)] {
        let (report, _, peak) = measured(|| verifier.run(hostile, &arch));
        assert!(peak < MIB, "{what}: Verifier::run held {peak} bytes");
        let beyond: Vec<ArrayId> = report
            .findings()
            .iter()
            .filter(|f| f.rule == rules::CAPACITY_ARRAYS)
            .flat_map(|f| f.arrays.iter().copied())
            .collect();
        assert!(
            beyond.contains(&edge) && beyond.contains(&far),
            "{what}: capacity-arrays names {beyond:?}\n{report}"
        );
        assert!(!report.is_clean());

        let (verdict, _, peak) = measured(|| validate(&hostile.flow));
        assert!(peak < MIB, "{what}: validate held {peak} bytes");
        match (what, verdict) {
            // `far` joins a weight load before anything switched it to
            // compute mode.
            ("in-block", Err(MetaOpError::ModeViolation { array, .. })) => {
                assert_eq!(array, far);
            }
            // A switch of arrays the chip lacks is not a mode error.
            ("top-level", Ok(())) => {}
            (_, other) => panic!("{what}: unexpected validate verdict {other:?}"),
        }
    }
    // The in-block program also fights over both ids inside one segment.
    let report = verifier.run(&in_block, &arch);
    for a in [edge, far] {
        assert!(
            report
                .findings()
                .iter()
                .any(|f| f.rule == rules::RACE_CONFLICT && f.arrays == [a]),
            "no race-conflict on {a}\n{report}"
        );
    }

    // A run of u32::MAX - 1 ids from u32::MAX down: all but the chip's
    // own ids lie beyond it. However long a run says it is, the checkers
    // walk it clipped to the chip, so it is one finding (or one error)
    // at the cost of the chip, and round-trips the wire as nine bytes.
    let forged = ArrayRun::new(far, u32::MAX - 1, false).expect("stays above 0");
    let mut long = ArraySet::new();
    assert!(long.push_run(forged));
    let mut long_load = long.clone();
    long_load.push(ArrayId(0));
    let top_level = with_stmts(&program, |stmts| {
        stmts.insert(0, Stmt::switch(SwitchKind::ToCompute, long.clone()));
    });
    let in_block = with_stmts(&program, |stmts| {
        let body = stmts
            .iter_mut()
            .find_map(|s| match s {
                Stmt::Parallel(body) => Some(body),
                _ => None,
            })
            .expect("the mlp has a parallel block");
        let load = body
            .iter_mut()
            .find_map(|s| match s {
                Stmt::LoadWeights(w) => Some(w),
                _ => None,
            })
            .expect("the mlp loads weights");
        load.arrays = long_load;
    });
    for (what, hostile) in [("long top-level", &top_level), ("long in-block", &in_block)] {
        let (bytes, _, peak) = measured(|| encode_program(hostile));
        assert!(peak < MIB, "{what}: encode held {peak} bytes");
        let (decoded, calls, peak) = measured(|| decode_program(&bytes));
        let plan = CompiledProgram {
            stats: CompileStats::default(),
            ..hostile.clone()
        };
        assert_eq!(decoded, Ok(plan), "{what}");
        assert!(
            peak < MIB && calls < 1_000,
            "{what}: decode made {calls} calls, held {peak} bytes"
        );

        let (report, calls, peak) = measured(|| verifier.run(hostile, &arch));
        assert!(
            peak < MIB && calls < 1_000,
            "{what}: verify made {calls} calls, held {peak} bytes"
        );
        let beyond: Vec<&[ArrayId]> = report
            .findings()
            .iter()
            .filter(|f| f.rule == rules::CAPACITY_ARRAYS)
            .map(|f| f.arrays.as_slice())
            .collect();
        assert_eq!(beyond, [[far].as_slice()], "{what}:\n{report}");

        let (verdict, calls, _) = measured(|| validate_on(&hostile.flow, arch.n_arrays()));
        assert!(calls < 64, "{what}: validate_on made {calls} calls");
        assert!(
            matches!(verdict, Err(MetaOpError::ModeViolation { array, .. }) if array == far),
            "{what}: {verdict:?}"
        );
    }
}

/// The co-scheduler's admission range check is not part of the
/// `verify_admission` opt-out, and sees the same forged run: it checks
/// each run once, so a run of `u32::MAX - 1` ids costs what a short one
/// does under either policy — time-sliced, and partitioned behind a
/// tenant that sits at the chip's base.
#[test]
fn admission_checks_a_forged_run_once() {
    let arch = presets::dynaplasia();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    let half = arch.n_arrays() / 2;
    let sub = arch.partition(half).unwrap();
    let honest = Session::builder(sub).build().compile_graph(&graph).unwrap();
    let far = ArrayId(u32::MAX);
    let mut forged_set = ArraySet::new();
    assert!(forged_set.push_run(ArrayRun::new(far, u32::MAX - 1, false).unwrap()));
    let mut flow = Flow::new("forged");
    flow.push(Stmt::switch(SwitchKind::ToCompute, forged_set));
    let forged = CompiledProgram {
        flow,
        ..honest.clone()
    };
    for (policy, tenants) in [
        (
            TenancyPolicy::TimeSliced,
            vec![TenantProgram::new("forged", &forged)],
        ),
        (
            TenancyPolicy::Partitioned {
                shares: vec![half, half],
            },
            vec![
                TenantProgram::new("honest", &honest),
                TenantProgram::new("forged", &forged),
            ],
        ),
    ] {
        let what = format!("{policy:?}");
        let scheduler = ChipScheduler::new(arch.clone()).with_options(CoSimOptions {
            policy,
            verify_admission: false,
            ..CoSimOptions::default()
        });
        let (result, calls, _) = measured(|| scheduler.co_simulate(&tenants));
        let err = result.expect_err("a run past the chip is refused");
        assert!(
            matches!(&err, TenancyError::ArrayOutOfRange { tenant, array, .. }
                if tenant == "forged" && *array == far),
            "{what}: {err:?}"
        );
        assert!(err.to_string().contains("a4294967295"), "{what}: {err}");
        assert!(
            calls < 1_000,
            "{what}: admission made {calls} allocator calls"
        );
    }
}

/// Up to three runs live inside the list itself; the fourth moves them
/// all to one heap block — and nothing else ever allocates, however many
/// ids the runs hold.
#[test]
fn array_sets_spill_to_the_heap_at_the_fourth_run() {
    let ids = |ids: &[u32]| ids.iter().map(|&a| ArrayId(a)).collect::<Vec<_>>();
    let three = ids(&[40, 39, 38, 37, 12, 13, 14, 3]);
    let four = ids(&[40, 39, 38, 37, 12, 13, 14, 3, 90]);
    let (set, calls, _) = measured(|| ArraySet::from_iter(three.iter().copied()));
    assert_eq!((set.runs().len(), calls), (3, 0));
    let (copy, calls, _) = measured(|| set.clone());
    assert_eq!((copy == set, calls), (true, 0));
    let (set, calls, _) = measured(|| ArraySet::from_iter(four.iter().copied()));
    assert_eq!((set.runs().len(), calls), (4, 1));
    let (set, calls, _) = measured(|| ArraySet::from_iter((0..100_000).rev().map(ArrayId)));
    assert_eq!((set.runs().len(), set.len(), calls), (1, 100_000, 0));
}

/// A 12-operator allocation MIP that spends its whole node budget — the
/// kind that owns the cold compile path. The returned `values` are the
/// one allocation an LP solve may make; the rest of the budget covers
/// amortised growth of the heap and the branch arena, incumbents, and
/// the one-off workspace.
#[test]
fn mip_solve_allocates_per_lp_solved_not_per_row_or_per_branch() {
    let (shape, built) = common::dynaplasia_instance(79);
    assert_eq!(shape.ops.len(), 12);
    let (sol, calls, _) = measured(|| built.mip.solve());
    let sol = sol.expect("instance 79 is feasible");
    assert!(
        !sol.proven_optimal && sol.lp_solves >= 30,
        "instance 79 no longer exhausts its node budget: {sol:?}"
    );
    let budget = 4 * sol.lp_solves as u64 + 64;
    assert!(
        calls <= budget,
        "MipProblem::solve made {calls} allocations over {} LP solves; budget {budget}",
        sol.lp_solves
    );
}

/// A warm request is a checked read and a decode; the verifier runs on
/// the first sight of a payload only. Stated in allocator calls: the
/// second store-served compile of the largest registry artifact makes
/// the first one's minus the verifier's, and stays near what decoding
/// its op names (once each) and spilled run lists takes. Stated in
/// bytes: the artifact stays under a ceiling that a name per statement
/// or one id per array reference would blow through.
#[test]
fn second_store_served_compile_skips_the_verifiers_allocations() {
    // Measured: 2 658 calls for the first served compile (decode + ~35
    // in the verifier's dense tables), 2 623 for the second: the 879 op
    // names decode once, into the op list and the flow's op table alike.
    // 5 734 while every compute, weight-load and vector statement and
    // every memory statement decoded a `String` of its own (~3.5k would
    // mean each name is held twice); 10 204 when every array list was a
    // `Vec` of ids (a list of up to three runs now decodes into the
    // statement itself); 7 429 while the artifact also carried
    // per-segment op-name lists (879 names in 815 `Vec`s) and a stage
    // list.
    const MEASURED: u64 = 2_623;
    // The artifact itself: 268 175 bytes of plan (format 6, statements
    // naming their op by index); 375 124 with a name per statement, the
    // op's shape per compute and a label per memory statement; 450 196
    // with a dependency edge per pair of split ops (5 137 edges for
    // 445); 484 220 with the name lists, intra latencies and compile
    // stats; 1 032 998 with one `u32` per array id.
    const ARTIFACT_BYTES: usize = 280_000;
    let dir = std::env::temp_dir().join(format!("cmswitch-allocs-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).unwrap();
    let session = Session::builder(presets::dynaplasia())
        .store(std::sync::Arc::clone(&store))
        .build();
    let graph = registry::build("llama2-7b", 1, 32).unwrap();
    session.compile_graph(&graph).unwrap();

    let (first, first_calls, _) = measured(|| session.compile_graph(&graph).unwrap());
    let (second, second_calls, _) = measured(|| session.compile_graph(&graph).unwrap());
    let stats = store.stats();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((stats.misses, stats.hits, stats.verdicts_reused), (1, 2, 1));
    assert_eq!(first.flow, second.flow);
    assert!(
        second_calls < first_calls,
        "the reused verdict saved no allocation: {first_calls} then {second_calls}"
    );
    assert!(
        second_calls <= MEASURED + MEASURED / 10,
        "a store-served llama2-7b made {second_calls} allocator calls; measured {MEASURED}"
    );
    let bytes = encode_program(&second).len();
    assert!(
        bytes <= ARTIFACT_BYTES,
        "the llama2-7b artifact is {bytes} bytes; ceiling {ARTIFACT_BYTES}"
    );
}

/// On the 8-array tiny chip llama2-7b splits into 202 720 ops and
/// opt-13b into 391 940; expanding `W` into every pair of split ops
/// would make 285.8 M and 1.04 B edges of them (6.9 GB and 25 GB of
/// pairs and bytes), more than a server holds. Partition and
/// `DepIndex::new` keep the lowered edges and hold the ops alone.
#[test]
fn partition_keeps_the_lowered_dependencies_on_a_tiny_chip() {
    let arch = presets::tiny();
    // Measured peaks: 41 664 788 and 60 895 524 bytes (about 205 and
    // 155 bytes per op).
    for (model, edges, peak_bytes) in [("llama2-7b", 445, 45_000_000), ("opt-13b", 477, 65_000_000)]
    {
        let graph = registry::build(model, 1, 16).unwrap();
        let lowered = lower_graph(&graph, &arch).unwrap();
        let (list, _, peak) = measured(|| {
            let list = partition(&lowered, &arch, 1.0).unwrap();
            drop(DepIndex::new(&list));
            list
        });
        assert_eq!(
            (lowered.deps.len(), list.deps.len()),
            (edges, edges),
            "{model}"
        );
        assert!(
            peak <= peak_bytes,
            "{model}: {} ops held {peak} bytes; ceiling {peak_bytes}",
            list.ops.len()
        );
    }
}

/// A cold compile pays per segment and per solve, never per DP window,
/// per Eq. 3 transition or per bound array: llama2-7b at seq 32 on
/// DynaPlasia (one solve worker, so every allocation is on this thread).
#[test]
fn cold_llama_compile_allocates_per_segment_not_per_window() {
    // Measured: 10 348 calls for 879 ops in 815 segments. 13 339 while
    // codegen copied each op's name into its compute, weight-load and
    // vector statements (and formatted the vector's) and a label into
    // every write-back; 13 350 while
    // the DP and the chain it materialises each built a `DepIndex`, and
    // the validator's tables were `Vec`s a chip long; 13 477 while
    // each window lookup collected a fresh window-local dependency list
    // (only windows with dependencies inside allocate one); 32 765 while
    // the greedy incumbent cloned every allocatable candidate, each cache
    // hit allocated its signature, each solve batch its job list and
    // result slots, and codegen three `Vec`s per op and two pools per
    // segment.
    const MEASURED: u64 = 10_348;
    let session = Session::builder(presets::dynaplasia()).build();
    let graph = registry::build("llama2-7b", 1, 32).unwrap();
    let (program, calls, _) = measured(|| session.compile_graph(&graph).unwrap());
    assert_eq!(program.segments.len(), 815);
    assert!(
        calls <= MEASURED + MEASURED / 10,
        "a cold llama2-7b compile made {calls} allocator calls; measured {MEASURED}"
    );
}

/// An allocation-cache hit builds its signature in a reused buffer and
/// answers under the cache map's read lock: its only heap traffic is the
/// `SegmentAllocation` it hands back.
#[test]
fn allocator_cache_hit_allocates_only_the_allocation_it_returns() {
    let arch = presets::dynaplasia();
    let graph = registry::build("bert-base", 1, 16).unwrap();
    let list = partition(&lower_graph(&graph, &arch).unwrap(), &arch, 1.0).unwrap();
    let deps = DepIndex::new(&list);
    let allocator = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, true);
    // The first 4-op window that fits, with local dependencies.
    let (window, local) = (0..list.ops.len() - 3)
        .map(|lo| ((lo, lo + 3), deps.window_local(lo, lo + 3)))
        .find(|((lo, hi), local)| {
            !local.is_empty() && allocator.allocate(&list.ops[*lo..=*hi], local).is_some()
        })
        .expect("bert-base has a feasible 4-op window");
    let ops = &list.ops[window.0..=window.1];
    let solved = allocator.allocate(ops, &local).unwrap();
    let (hit, calls, bytes) = measured(|| allocator.allocate(ops, &local));
    let hit = hit.unwrap();
    assert_eq!(hit, solved);
    let owned = [hit.ops.len(), hit.reuse.len()];
    let expected_calls = owned.iter().filter(|&&n| n > 0).count() as u64;
    let expected_bytes =
        std::mem::size_of_val(hit.ops.as_slice()) + std::mem::size_of_val(hit.reuse.as_slice());
    assert_eq!(
        (calls, bytes),
        (expected_calls, expected_bytes as i64),
        "a hit on {window:?} allocated beyond the {owned:?} entries it returns"
    );
    let mut stats = CompileStats::default();
    allocator.stats.add_to(&mut stats);
    assert!(stats.cache_hits >= 2, "{stats:?}");
}

/// The DP memo and table are keyed by the windows the DP solves, not laid
/// out as an `ops × max_segment_ops` table: with a 1 000-op width bound on
/// a chip that fits a few ops per segment, a dense table of 16-byte DP
/// states alone would hold `ops × 1 000 × 16` bytes.
#[test]
fn dp_peak_grows_with_memoized_windows_not_ops_times_width() {
    // Measured: 545 692 bytes for 879 ops (815 segments); 570 636 while
    // the chain of the optimal path built a second `DepIndex`. A dense
    // DP table would be 14 064 000 bytes.
    const MEASURED_PEAK: i64 = 545_692;
    let arch = presets::dynaplasia();
    let opts = CompilerOptions::default().with_max_segment_ops(1_000);
    let graph = registry::build("llama2-7b", 1, 32).unwrap();
    let list = partition(&lower_graph(&graph, &arch).unwrap(), &arch, 1.0).unwrap();
    let m = list.ops.len();
    let cm = CostModel::new(&arch);
    let allocator = Allocator::new(CostModel::new(&arch), opts.allocator, opts.reuse_cache);
    let input = Partitioned {
        name: graph.name().to_string(),
        list,
    };
    let ((segmented, dp), _, peak) =
        measured(|| segment(input, &allocator, &cm, &opts, &CancelToken::new()).unwrap());
    assert_eq!((m, segmented.segments.len()), (879, 815));
    assert_eq!(
        dp.infeasible_skipped, 385_721,
        "the width bound must reach the capacity wall"
    );
    let dense = (m * opts.max_segment_ops * 16) as i64;
    assert!(
        peak < dense / 10,
        "{peak} bytes peak; a dense table alone is {dense}"
    );
    assert!(
        peak <= MEASURED_PEAK + MEASURED_PEAK / 10,
        "the DP held {peak} bytes at peak; measured {MEASURED_PEAK}"
    );
}
