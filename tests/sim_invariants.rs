//! Property tests for the event-driven simulator (vendored proptest:
//! deterministic sampling, no shrinking).
//!
//! Invariants:
//!
//! * the event-engine makespan never beats the analytic
//!   `latency_lower_bound` (the Eq. 9/10 whole-chip relaxation);
//! * energy equals the sum of its per-component breakdown and matches
//!   the schedule-independent flow oracle bit-for-bit;
//! * per-array busy intervals never overlap (an array serves one event
//!   at a time — the resource constraint the engine schedules around);
//! * recording those intervals moves nothing: `trace*` returns the
//!   report `simulate*` returns, field for field and bit for bit;
//! * on single-segment flows the engine matches the sequential
//!   reference model bit-exactly (no overlap is legal there, so the
//!   two models must coincide, not merely agree approximately);
//! * the compiler and the simulators keep one price list: every compute
//!   statement costs what the plan priced its operator at, and a
//!   one-segment program's prediction *is* its sequential replay;
//! * the multi-tenant co-scheduler is the same forward pass: a lone
//!   tenant's solo baseline is the engine's makespan to the bit, and a
//!   flow the simulators reject (out-of-range ids, broken mode
//!   discipline, a racy or nested `parallel` block) is a typed error
//!   there too, never a panic, a repair or a cheaper schedule.

use proptest::prelude::*;

use cmswitch::arch::{presets, ArrayId, DualModeArch};
use cmswitch::compiler::cost::{lane_duration, CostModel};
use cmswitch::metaop::{
    ComputeStmt, Flow, FlowOp, MemDirection, MemKind, MemLoc, MemStmt, MetaOpError, Stmt,
    SwitchKind, VectorStmt, WeightLoadStmt,
};
use cmswitch::prelude::*;
use cmswitch::models::registry;
use cmswitch::sim::engine::latency_lower_bound;
use cmswitch::sim::{ChipScheduler, EngineTrace, TenancyError, TenancyPolicy};

fn preset(idx: usize) -> DualModeArch {
    match idx % 3 {
        0 => presets::dynaplasia(),
        1 => presets::prime(),
        _ => presets::tiny(),
    }
}

fn assert_timelines_disjoint(trace: &EngineTrace) -> Result<(), TestCaseError> {
    for t in &trace.timelines {
        for pair in t.intervals.windows(2) {
            prop_assert!(
                pair[0].end <= pair[1].start,
                "array {:?}: busy interval {:?} overlaps {:?}",
                t.array,
                pair[0],
                pair[1]
            );
            prop_assert!(pair[0].start <= pair[0].end);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn compiled_flow_invariants(
        width_idx in proptest::collection::vec(0usize..5, 2..5),
        batch in 1usize..3,
        preset_idx in 0usize..3,
    ) {
        const WIDTHS: [usize; 5] = [64, 96, 128, 192, 256];
        let dims: Vec<usize> = width_idx.iter().map(|&i| WIDTHS[i]).collect();
        let arch = preset(preset_idx);
        let graph = cmswitch::models::mlp::mlp(batch, &dims).expect("mlp builds");
        let session = Session::builder(arch.clone()).build();
        let program = session.compile_graph(&graph).expect("mlp compiles");

        let seq = SequentialModel.simulate(&program.flow, &arch).expect("sequential");
        let eng = EventEngine::new().simulate_program(&program, &arch).expect("engine");

        // Makespan sits between the analytic lower bound and the
        // sequential replay.
        let lb = latency_lower_bound(&program.flow, &arch);
        prop_assert!(
            eng.total_cycles >= lb,
            "makespan {} beat the analytic lower bound {}",
            eng.total_cycles,
            lb
        );
        prop_assert!(eng.total_cycles <= seq.total_cycles);
        prop_assert_eq!(eng.serialized_cycles.to_bits(), seq.total_cycles.to_bits());

        // Energy equals the sum of its per-component breakdown …
        let e = eng.energy;
        let component_sum =
            e.compute_pj + e.onchip_pj + e.dram_pj + e.write_pj + e.switch_pj + e.vector_pj;
        prop_assert_eq!(e.total_pj().to_bits(), component_sum.to_bits());
        for part in [e.compute_pj, e.onchip_pj, e.dram_pj, e.write_pj, e.switch_pj, e.vector_pj] {
            prop_assert!(part.is_finite() && part >= 0.0);
        }
        // … and matches the schedule-independent flow oracle bit-for-bit.
        let oracle = cmswitch::sim::energy::estimate(
            &program.flow,
            &arch,
            &cmswitch::sim::EnergyModel::default(),
        );
        prop_assert_eq!(e.total_pj().to_bits(), oracle.total_pj().to_bits());

        // Per-segment energy is a partition of a subset of the total.
        let seg_sum: f64 = eng.segments.iter().map(|s| s.energy_pj).sum();
        prop_assert!(seg_sum <= e.total_pj() * (1.0 + 1e-12) + 1e-9);
        prop_assert_eq!(eng.segments.len(), program.segments.len());

        // An array serves one event at a time.
        let trace = EventEngine::new().trace_program(&program, &arch).expect("engine");
        assert_timelines_disjoint(&trace)?;
        prop_assert_eq!(&trace.report, &eng);

        // Co-simulation is the same forward pass: a lone tenant's solo
        // baseline is this makespan, under either policy.
        for policy in [
            TenancyPolicy::TimeSliced,
            TenancyPolicy::Partitioned { shares: vec![arch.n_arrays()] },
        ] {
            let solo = ChipScheduler::new(arch.clone())
                .with_options(CoSimOptions { policy, ..CoSimOptions::default() })
                .co_simulate(&[TenantProgram::new("solo", &program)])
                .expect("a lone tenant is admitted");
            prop_assert_eq!(solo.tenants[0].solo_cycles.to_bits(), eng.total_cycles.to_bits());
        }
    }
}

/// A `[m,k]·[k,64]` op-table entry.
fn table_op(name: &str, m: usize, k: usize, weight_static: bool) -> FlowOp {
    FlowOp {
        name: name.into(),
        source: 0,
        m,
        k,
        n: 64,
        units: 1,
        in_bytes: (m * k) as u64,
        out_bytes: (m * 64) as u64,
        weight_static,
    }
}

/// Builds a well-formed single-segment flow: one `TOC` switch covering
/// every compute array, one `parallel` body (loads for static operators,
/// compute statements, fused vector work), one final write-back.
fn single_segment_flow(
    arch: &DualModeArch,
    ms: &[usize],
    ks: &[usize],
    static_flags: &[usize],
    aux_flags: &[usize],
) -> Flow {
    let n_ops = ms.len().min(ks.len()).min(static_flags.len()).min(aux_flags.len()).min(3);
    let arrays_per_op = 2usize;
    let mut flow = Flow::new("single-segment");
    let compute_arrays: Vec<ArrayId> = (0..n_ops * arrays_per_op)
        .map(|i| ArrayId(i as u32))
        .collect();
    flow.push(Stmt::switch(SwitchKind::ToCompute, compute_arrays.clone()));

    // The remaining arrays stay in memory mode and buffer operator
    // traffic (shared across operators on purpose).
    let mem_arrays: Vec<ArrayId> = (n_ops * arrays_per_op..arch.n_arrays())
        .map(|i| ArrayId(i as u32))
        .collect();

    let mut body = Vec::new();
    for o in 0..n_ops {
        let arrays = compute_arrays[o * arrays_per_op..(o + 1) * arrays_per_op].to_vec();
        let weight_static = static_flags[o].is_multiple_of(2);
        let (m, k) = (ms[o].max(1), ks[o].max(1));
        let op = flow.push_op(table_op(&format!("op{o}"), m, k, weight_static));
        if weight_static {
            body.push(Stmt::LoadWeights(WeightLoadStmt {
                op,
                arrays: arrays.clone().into(),
                bytes: (arrays.len() as u64) * arch.array_bytes(),
            }));
        }
        body.push(Stmt::Compute(ComputeStmt {
            op,
            compute_arrays: arrays.into(),
            mem_in_arrays: if o == 0 { mem_arrays.clone().into() } else { Default::default() },
            mem_out_arrays: Default::default(),
        }));
        if aux_flags[o].is_multiple_of(2) {
            body.push(Stmt::Vector(VectorStmt {
                op,
                flops: (m * 64) as u64,
            }));
        }
    }
    flow.push(Stmt::Parallel(body));
    flow.push(Stmt::Mem(MemStmt {
        loc: MemLoc::Main,
        direction: MemDirection::Write,
        bytes: 4096,
        kind: MemKind::FinalOutput,
    }));
    flow
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn single_segment_flows_match_sequential_bit_exactly(
        ms in proptest::collection::vec(1usize..512, 1..4),
        ks in proptest::collection::vec(1usize..160, 1..4),
        static_flags in proptest::collection::vec(0usize..2, 1..4),
        aux_flags in proptest::collection::vec(0usize..2, 1..4),
        preset_idx in 0usize..3,
    ) {
        let arch = preset(preset_idx);
        let flow = single_segment_flow(&arch, &ms, &ks, &static_flags, &aux_flags);
        let seq = SequentialModel.simulate(&flow, &arch).expect("valid flow");
        let trace = EventEngine::new().trace(&flow, &arch).expect("valid flow");
        let eng = &trace.report;
        // Single-segment flows admit no overlap, so the two models must
        // coincide exactly, not merely agree approximately.
        prop_assert_eq!(eng.total_cycles.to_bits(), seq.total_cycles.to_bits());
        prop_assert_eq!(eng.serialized_cycles.to_bits(), seq.total_cycles.to_bits());
        prop_assert!(eng.overlap_saved() == 0.0);
        prop_assert!(eng.total_cycles >= latency_lower_bound(&flow, &arch));
        assert_timelines_disjoint(&trace)?;
    }
}

/// Recording moves nothing: over the nine registry models on every
/// backend, the report beside the timelines is the report without them —
/// whole-report equality, and the three headline numbers to the bit —
/// for compiled programs and for their bare flows alike.
#[test]
fn tracing_returns_the_report_simulating_returns() {
    let arch = presets::dynaplasia();
    let engine = EventEngine::new();
    let same = |what: &str, traced: &EngineTrace, plain: &EngineReport| {
        assert_eq!(&traced.report, plain, "{what}");
        let bits = |r: &EngineReport| {
            [r.total_cycles, r.serialized_cycles, r.energy.total_pj()].map(f64::to_bits)
        };
        assert_eq!(bits(&traced.report), bits(plain), "{what}");
        assert_eq!(traced.timelines.len(), arch.n_arrays(), "{what}");
        assert!(traced.timelines.iter().any(|t| !t.intervals.is_empty()), "{what}");
    };
    for kind in BackendKind::ALL {
        let session = Session::builder(arch.clone()).backend_kind(kind).build();
        for &model in registry::ALL_MODELS {
            let graph = registry::build(model, 1, 16).expect("registered model builds");
            let program = session.compile_graph(&graph).expect("registered model compiles");
            let what = format!("{} {model}", kind.name());
            same(
                &what,
                &engine.trace_program(&program, &arch).expect("traces"),
                &engine.simulate_program(&program, &arch).expect("simulates"),
            );
            same(
                &format!("{what} (bare flow)"),
                &engine.trace(&program.flow, &arch).expect("traces"),
                &engine.simulate(&program.flow, &arch).expect("simulates"),
            );
        }
    }
}

/// One price list: over the nine registry models on every backend, each
/// compute statement codegen emits costs — as a simulator lane — exactly
/// what the plan priced its operator at, to the bit. That pins codegen
/// to the array counts, operand bytes and fused vector work the plan
/// priced: a statement that drops an array or the vector work fails here.
#[test]
fn plan_prices_equal_statement_prices() {
    let arch = presets::dynaplasia();
    let cm = CostModel::new(&arch);
    for kind in BackendKind::ALL {
        let session = Session::builder(arch.clone()).backend_kind(kind).build();
        for &model in registry::ALL_MODELS {
            let graph = registry::build(model, 1, 16).expect("registered model builds");
            let program = session.compile_graph(&graph).expect("registered model compiles");
            let what = format!("{} {model}", kind.name());
            let bodies: Vec<&[Stmt]> = program
                .flow
                .stmts()
                .iter()
                .filter_map(|s| match s {
                    Stmt::Parallel(body) => Some(body.as_slice()),
                    _ => None,
                })
                .collect();
            assert_eq!(bodies.len(), program.segments.len(), "{what}: one body per segment");
            for (body, seg) in bodies.into_iter().zip(&program.segments) {
                let ops = &program.ops[seg.range.0..=seg.range.1];
                let computes: Vec<&ComputeStmt> = body
                    .iter()
                    .filter_map(|s| match s {
                        Stmt::Compute(c) => Some(c),
                        _ => None,
                    })
                    .collect();
                assert_eq!(computes.len(), ops.len(), "{what}: one statement per op");
                let planned = ops.iter().zip(&seg.alloc.ops).enumerate();
                for (c, (i, (op, alloc))) in computes.into_iter().zip(planned) {
                    assert_eq!(c.op as usize, seg.range.0 + i, "{what}");
                    assert_eq!(
                        lane_duration(program.flow.ops(), c, body, &arch).to_bits(),
                        cm.op_latency(op, alloc).to_bits(),
                        "{what} {}: statement price vs plan price",
                        op.name
                    );
                }
            }
        }
    }
}

/// With one segment nothing can overlap and every inter-segment term is
/// the first segment's switch and load, so the DP's prediction is the
/// sequential replay of the flow it emitted, to the bit. Each case must
/// stay one segment: a plan change that splits it fails here loudly
/// instead of dropping the case.
#[test]
fn one_segment_programs_predict_their_sequential_replay() {
    let cases: [(DualModeArch, &[&[usize]]); 2] = [
        (presets::tiny(), &[&[64, 64], &[128, 64], &[64, 128, 64]]),
        (
            presets::dynaplasia(),
            &[&[64, 64], &[128, 64], &[64, 128, 64], &[256, 512], &[256, 512, 256]],
        ),
    ];
    for (arch, all_dims) in cases {
        let session = Session::builder(arch.clone()).build();
        for &dims in all_dims {
            for batch in [1, 8] {
                let what = format!("mlp {dims:?} at batch {batch} on {}", arch.name());
                let graph = cmswitch::models::mlp::mlp(batch, dims).expect("mlp builds");
                let program = session.compile_graph(&graph).expect("mlp compiles");
                assert_eq!(program.segments.len(), 1, "{what}");
                let replay = SequentialModel.simulate(&program.flow, &arch).expect("replays");
                assert_eq!(
                    program.predicted_latency.to_bits(),
                    replay.total_cycles.to_bits(),
                    "{what}: predicted {} vs replayed {}",
                    program.predicted_latency,
                    replay.total_cycles
                );
            }
        }
    }
}

/// One statement of every kind that names arrays, each naming `stray`
/// (and op 0 of [`stray_flow`]'s table).
fn statements_naming(stray: ArrayId) -> Vec<Stmt> {
    let compute = |compute: &[ArrayId], mem_in: &[ArrayId], mem_out: &[ArrayId]| {
        Stmt::Compute(ComputeStmt {
            op: 0,
            compute_arrays: compute.into(),
            mem_in_arrays: mem_in.into(),
            mem_out_arrays: mem_out.into(),
        })
    };
    vec![
        Stmt::switch(SwitchKind::ToCompute, vec![stray]),
        Stmt::switch(SwitchKind::ToMemory, vec![stray]),
        Stmt::LoadWeights(WeightLoadStmt {
            op: 0,
            arrays: vec![stray].into(),
            bytes: 16,
        }),
        compute(&[stray], &[], &[]),
        compute(&[], &[stray], &[]),
        compute(&[], &[], &[stray]),
        Stmt::Mem(MemStmt {
            loc: MemLoc::CimArrays(vec![stray].into()),
            direction: MemDirection::Write,
            bytes: 16,
            kind: MemKind::Transfer,
        }),
    ]
}

/// An empty flow whose op table holds the op [`statements_naming`]
/// names.
fn stray_flow() -> Flow {
    Flow::with_ops("stray", vec![table_op("fc", 4, 4, true)])
}

/// Flows are public input (parsed text, or a program compiled for a
/// larger chip): an array id the chip does not have is a typed error
/// from every simulator entry point, never an index panic.
#[test]
fn out_of_range_array_ids_are_typed_errors_from_every_entry_point() {
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[64, 64]).unwrap();
    let mut program = Session::builder(arch.clone()).build().compile_graph(&graph).unwrap();
    for stray in [ArrayId(arch.n_arrays() as u32), ArrayId(u32::MAX)] {
        for stmt in statements_naming(stray) {
            for body in [stmt.clone(), Stmt::Parallel(vec![stmt])] {
                let mut flow = stray_flow();
                flow.push(body);
                program.flow = flow.clone();
                let results = [
                    EventEngine::new().simulate(&flow, &arch).map(drop),
                    EventEngine::new().simulate_program(&program, &arch).map(drop),
                    SequentialModel.simulate(&flow, &arch).map(drop),
                ];
                for result in results {
                    match result {
                        Err(MetaOpError::ModeViolation { array, stmt: 0, detail }) => {
                            assert_eq!(array, stray);
                            assert!(detail.contains("the chip has 8 arrays"), "{detail}");
                        }
                        other => panic!("{stray:?} in {flow:?}: expected a mode violation, got {other:?}"),
                    }
                }
                // The co-scheduler's arbiter is the fourth entry point,
                // and skipping admission verification is a documented
                // option — not a licence to index past the chip.
                for policy in [
                    TenancyPolicy::TimeSliced,
                    TenancyPolicy::Partitioned { shares: vec![arch.n_arrays()] },
                ] {
                    let result = unverified(&arch, policy)
                        .co_simulate(&[TenantProgram::new("stray", &program)]);
                    match result {
                        Err(TenancyError::ArrayOutOfRange { tenant, array, available: 8 }) => {
                            assert_eq!((tenant.as_str(), array), ("stray", stray));
                        }
                        other => panic!("{stray:?} in {flow:?}: expected out-of-range, got {other:?}"),
                    }
                }
            }
        }
    }

    // A program compiled for a larger chip, time-sliced onto this one …
    let big = presets::dynaplasia();
    let foreign = Session::builder(big).build().compile_graph(&graph).unwrap();
    let result = unverified(&arch, TenancyPolicy::TimeSliced)
        .co_simulate(&[TenantProgram::new("foreign", &foreign)]);
    assert!(
        matches!(result, Err(TenancyError::ArrayOutOfRange { available: 8, .. })),
        "{result:?}"
    );
    // … and two whole-chip programs on half a chip each: relocating the
    // second one pushes its upper arrays (and `u32::MAX`) off the chip.
    let wide = cmswitch::models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
    let mut whole = Session::builder(arch.clone()).build().compile_graph(&wide).unwrap();
    let small = Session::builder(arch.partition(4).unwrap()).build().compile_graph(&graph).unwrap();
    let relocated = |whole: &CompiledProgram| {
        let tenants = [TenantProgram::new("a", &small), TenantProgram::new("b", whole)];
        let halves = TenancyPolicy::Partitioned { shares: vec![4, 4] };
        match unverified(&arch, halves).co_simulate(&tenants) {
            Err(TenancyError::ArrayOutOfRange { tenant, array, available: 4 }) => {
                assert_eq!(tenant, "b");
                assert!(array.index() >= 4, "{array:?}");
            }
            other => panic!("expected out-of-range for the relocated tenant, got {other:?}"),
        }
    };
    relocated(&whole);
    let mut flow = Flow::new("stray");
    flow.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(u32::MAX)]));
    whole.flow = flow;
    relocated(&whole);
}

/// Co-scheduling shares arrays between flows; it does not repair one.
/// A compiled flow with every `CM.switch` stripped loads weights into
/// memory-mode arrays: both simulators reject it, and so does the
/// co-scheduler — under either policy, admission lints on or off —
/// naming the tenant.
#[test]
fn a_flow_both_simulators_reject_is_rejected_by_the_co_scheduler() {
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(2, &[96, 128, 64]).unwrap();
    let mut program = Session::builder(arch.clone()).build().compile_graph(&graph).unwrap();
    program.flow.stmts_mut().retain(|stmt| !matches!(stmt, Stmt::Switch { .. }));

    let engine = EventEngine::new().simulate_program(&program, &arch).unwrap_err();
    let sequential = SequentialModel.simulate(&program.flow, &arch).unwrap_err();
    assert_eq!(engine, sequential);
    assert!(engine.to_string().contains("weight load for fc0 into a memory-mode array"), "{engine}");

    for policy in [
        TenancyPolicy::TimeSliced,
        TenancyPolicy::Partitioned { shares: vec![arch.n_arrays()] },
    ] {
        for verify_admission in [true, false] {
            let options = CoSimOptions {
                policy: policy.clone(),
                verify_admission,
                ..CoSimOptions::default()
            };
            let result = ChipScheduler::new(arch.clone())
                .with_options(options)
                .co_simulate(&[TenantProgram::new("stripped", &program)]);
            match result {
                Err(TenancyError::ModeViolation { tenant, source }) => {
                    assert_eq!((tenant.as_str(), &source), ("stripped", &engine));
                }
                other => panic!("{policy:?}, verify {verify_admission}: expected a mode violation, got {other:?}"),
            }
        }
    }
}

/// `metaop::validate` rejects a `parallel` inside a `parallel`, but the
/// artifact decoder keeps one nesting level decodable, so a parsed or
/// store-served flow can carry one. The simulators price a body's
/// statements and nothing below them: before they rejected the nesting,
/// wrapping the slow lane in an inner block made the segment 250× cheaper
/// with `Ok(..)` from both.
#[test]
fn a_nested_parallel_block_is_a_typed_error_not_a_cheaper_schedule() {
    let arch = presets::tiny();
    // Op 0 is `a`, a short lane; op 1 is `b`, a slow one.
    let lane = |op: u32, array: u32| {
        Stmt::Compute(ComputeStmt {
            op,
            compute_arrays: vec![ArrayId(array)].into(),
            mem_in_arrays: vec![].into(),
            mem_out_arrays: vec![].into(),
        })
    };
    let flow_with = |slow_lane: Stmt| {
        let ops = vec![table_op("a", 16, 64, true), table_op("b", 4096, 64, true)];
        let mut flow = Flow::with_ops("lanes", ops);
        flow.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0), ArrayId(1)]));
        flow.push(Stmt::Parallel(vec![lane(0, 0), slow_lane]));
        flow
    };
    let flat = flow_with(lane(1, 1));
    let nested = flow_with(Stmt::Parallel(vec![lane(1, 1)]));

    let engine = EventEngine::new().simulate(&flat, &arch).expect("the flat flow simulates");
    let sequential = SequentialModel.simulate(&flat, &arch).expect("the flat flow simulates");
    assert!(engine.total_cycles > 65_000.0, "{}", engine.total_cycles);
    assert_eq!(engine.total_cycles.to_bits(), sequential.total_cycles.to_bits());

    let rejected = Err(MetaOpError::NestedParallel { stmt: 1 });
    assert_eq!(EventEngine::new().simulate(&nested, &arch).map(drop), rejected);
    assert_eq!(EventEngine::new().trace(&nested, &arch).map(drop), rejected);
    assert_eq!(SequentialModel.simulate(&nested, &arch).map(drop), rejected);

    let graph = cmswitch::models::mlp::mlp(2, &[64, 64]).unwrap();
    let mut program = Session::builder(arch.clone()).build().compile_graph(&graph).unwrap();
    program.flow = nested;
    assert_eq!(EventEngine::new().simulate_program(&program, &arch).map(drop), rejected);
    for policy in [
        TenancyPolicy::TimeSliced,
        TenancyPolicy::Partitioned { shares: vec![arch.n_arrays()] },
    ] {
        // Admission lints on: some typed rejection, whichever check
        // meets the block first. Off: the simulators' own error.
        let verified = ChipScheduler::new(arch.clone())
            .with_options(CoSimOptions { policy: policy.clone(), ..CoSimOptions::default() })
            .co_simulate(&[TenantProgram::new("nested", &program)]);
        assert!(verified.is_err(), "{policy:?}: {verified:?}");
        let result = unverified(&arch, policy.clone())
            .co_simulate(&[TenantProgram::new("nested", &program)]);
        match result {
            Err(TenancyError::ModeViolation { tenant, source }) => {
                assert_eq!((tenant.as_str(), Err(source)), ("nested", rejected.clone()));
            }
            other => panic!("{policy:?}: expected the simulators' error, got {other:?}"),
        }
    }
}

/// `metaop::validate` rejects two operators computing on one array
/// inside one `parallel` block (Eq. 6 allows one operator per role). A
/// claim-blind check would let the simulators price such a block as two
/// overlapped lanes, half the serial cost; they must return the
/// validator's error instead.
#[test]
fn a_racy_parallel_block_is_a_typed_error_not_a_cheaper_schedule() {
    let arch = presets::tiny();
    let lane = |op: u32| {
        Stmt::Compute(ComputeStmt {
            op,
            compute_arrays: vec![ArrayId(0)].into(),
            mem_in_arrays: vec![].into(),
            mem_out_arrays: vec![].into(),
        })
    };
    let ops = vec![table_op("a", 4096, 64, true), table_op("b", 4096, 64, true)];
    let mut racy = Flow::with_ops("racy", ops);
    racy.push(Stmt::switch(SwitchKind::ToCompute, vec![ArrayId(0)]));
    racy.push(Stmt::Parallel(vec![lane(0), lane(1)]));

    let rejected = Err(MetaOpError::ArrayConflict { array: ArrayId(0), stmt: 1 });
    assert_eq!(cmswitch::metaop::validate(&racy), rejected);
    assert_eq!(EventEngine::new().simulate(&racy, &arch).map(drop), rejected);
    assert_eq!(EventEngine::new().trace(&racy, &arch).map(drop), rejected);
    assert_eq!(SequentialModel.simulate(&racy, &arch).map(drop), rejected);

    let graph = cmswitch::models::mlp::mlp(2, &[64, 64]).unwrap();
    let mut program = Session::builder(arch.clone()).build().compile_graph(&graph).unwrap();
    program.flow = racy;
    assert_eq!(EventEngine::new().simulate_program(&program, &arch).map(drop), rejected);
    for policy in [
        TenancyPolicy::TimeSliced,
        TenancyPolicy::Partitioned { shares: vec![arch.n_arrays()] },
    ] {
        let result = unverified(&arch, policy.clone())
            .co_simulate(&[TenantProgram::new("racy", &program)]);
        match result {
            Err(TenancyError::ModeViolation { tenant, source }) => {
                assert_eq!((tenant.as_str(), Err(source)), ("racy", rejected.clone()));
            }
            other => panic!("{policy:?}: expected the validator's error, got {other:?}"),
        }
    }
}

fn unverified(arch: &DualModeArch, policy: TenancyPolicy) -> ChipScheduler {
    ChipScheduler::new(arch.clone()).with_options(CoSimOptions {
        policy,
        verify_admission: false,
        ..CoSimOptions::default()
    })
}
