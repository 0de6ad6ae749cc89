//! The static verifier across the registry, plus mutation-kill testing.
//!
//! Three layers:
//!
//! * **Registry soundness** — every registry model, compiled by every
//!   backend on the DynaPlasia chip, verifies with zero findings (not
//!   even warnings), and the opt-in `VerifyStage` accepts the same
//!   programs while recording its diagnostic event.
//! * **Property sampling** — compiled MLPs verify clean across all
//!   three architecture presets (vendored proptest: deterministic
//!   sampling, no shrinking).
//! * **Mutation kill** — every applicable defect-injection operator
//!   (`verify::mutate`) produces a mutant that the verifier rejects
//!   with the operator's expected rule id: no surviving mutants.

use std::fmt::Write as _;

use proptest::prelude::*;

use cmswitch::arch::{presets, ArrayId, DualModeArch};
use cmswitch::compiler::verify::{self, mutate, rules, Severity, Verifier};
use cmswitch::compiler::CompiledProgram;
use cmswitch::metaop::{FlowOp, MemLoc, Stmt, SwitchKind};
use cmswitch::models::registry;
use cmswitch::prelude::*;

fn preset(idx: usize) -> DualModeArch {
    match idx % 3 {
        0 => presets::dynaplasia(),
        1 => presets::prime(),
        _ => presets::tiny(),
    }
}

fn compile_registry(kind: BackendKind, arch: &DualModeArch) -> Vec<(String, CompiledProgram)> {
    let session = Session::builder(arch.clone()).backend_kind(kind).build();
    registry::ALL_MODELS
        .iter()
        .map(|&model| {
            let graph = registry::build(model, 1, 16).expect("registered model builds");
            let program = session
                .compile_graph(&graph)
                .unwrap_or_else(|e| panic!("{model} fails to compile on {kind:?}: {e}"));
            (model.to_string(), program)
        })
        .collect()
}

#[test]
fn registry_verifies_clean_on_every_backend() {
    let arch = presets::dynaplasia();
    let verifier = Verifier::new();
    for kind in BackendKind::ALL {
        for (model, program) in compile_registry(kind, &arch) {
            let report = verifier.run(&program, &arch);
            assert!(
                report.is_empty(),
                "{model} on {kind:?} has findings:\n{report}"
            );
        }
    }
}

#[test]
fn verify_stage_accepts_the_registry_and_reports_counts() {
    let arch = presets::dynaplasia();
    let session = Session::builder(arch)
        .options(CompilerOptions::default().with_verify(true))
        .build();
    for &model in registry::ALL_MODELS {
        let graph = registry::build(model, 1, 16).expect("registered model builds");
        let outcome = session
            .compile(CompileRequest::new(graph).with_label(model))
            .unwrap_or_else(|e| panic!("{model} rejected by the verify stage: {e}"));
        assert_eq!(
            outcome.diagnostics.verified_counts(),
            Some((0, 0)),
            "{model}: verify stage ran but counts disagree"
        );
    }
}

#[test]
fn session_verify_matches_the_standalone_verifier() {
    let arch = presets::tiny();
    let session = Session::builder(arch.clone()).build();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 128]).unwrap();
    let outcome = session.compile(CompileRequest::new(graph)).unwrap();
    let via_session = session.verify(&outcome);
    let standalone = Verifier::new().run(&outcome.program, &arch);
    assert_eq!(via_session, standalone);
    assert!(via_session.is_clean());
}

/// Every applicable mutation operator must be detected — and detected by
/// the rule the operator declares, not incidentally by another lint.
#[test]
fn no_mutant_survives_the_verifier() {
    let arch = presets::dynaplasia();
    let verifier = Verifier::new();
    // Two shapes with different segment structure: a transformer and a
    // CNN, compiled by the mode-switching backend.
    let mut programs = Vec::new();
    let session = Session::builder(arch.clone()).build();
    for model in ["bert-base", "resnet18"] {
        let graph = registry::build(model, 1, 16).expect("registered model builds");
        programs.push((model, session.compile_graph(&graph).expect("compiles")));
    }
    let mlp = cmswitch::models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
    programs.push(("mlp", session.compile_graph(&mlp).expect("compiles")));

    let mut killed: Vec<&'static str> = Vec::new();
    let mut survivors: Vec<String> = Vec::new();
    for (model, program) in &programs {
        assert!(
            verifier.run(program, &arch).is_empty(),
            "{model}: baseline program must verify clean before mutation"
        );
        for m in mutate::ALL {
            let Some(mutant) = m.apply(program) else {
                continue;
            };
            let report = verifier.run(&mutant, &arch);
            if report.has_rule(m.expected_rule()) {
                if !killed.contains(&m.name()) {
                    killed.push(m.name());
                }
            } else {
                survivors.push(format!(
                    "{model}/{}: expected {}, fired {:?}",
                    m.name(),
                    m.expected_rule(),
                    report.fired_rules()
                ));
            }
        }
    }
    assert!(survivors.is_empty(), "surviving mutants:\n{}", survivors.join("\n"));
    // All ten defect classes must have found a mutation site somewhere.
    assert_eq!(
        killed.len(),
        mutate::ALL.len(),
        "defect classes never exercised: {:?}",
        mutate::ALL
            .iter()
            .map(|m| m.name())
            .filter(|n| !killed.contains(n))
            .collect::<Vec<_>>()
    );
}

/// Co-scheduler admission runs two of the verifier's own analyses: on
/// every registry program and every mutant of it, its findings are the
/// full report's dependence findings followed by its capacity findings,
/// each in the full report's order.
#[test]
fn admission_runs_the_verifiers_dependence_then_capacity_analyses() {
    let arch = presets::dynaplasia();
    let verifier = Verifier::new();
    let (mut checked, mut denied) = (0usize, 0usize);
    for (model, program) in compile_registry(BackendKind::CmSwitch, &arch) {
        let mut cases = vec![("clean", Some(program.clone()))];
        cases.extend(mutate::ALL.iter().map(|m| (m.name(), m.apply(&program))));
        for (case, candidate) in cases {
            let Some(candidate) = candidate else { continue };
            let full = verifier.run(&candidate, &arch);
            let of = |prefix: &'static str| {
                full.findings().iter().filter(move |f| f.rule.starts_with(prefix))
            };
            let expected: Vec<_> = of("dep-").chain(of("capacity-")).cloned().collect();
            let admitted = verify::admission(&candidate, &arch);
            assert_eq!(admitted.findings(), expected.as_slice(), "{model}/{case}");
            checked += 1;
            denied += usize::from(!admitted.is_clean());
        }
    }
    // Every model has a clean case and the four dependence and capacity
    // mutants apply to most of them.
    assert!(checked > registry::ALL_MODELS.len(), "{checked} programs checked");
    assert!(denied >= registry::ALL_MODELS.len(), "admission denied only {denied}");
}

/// Mode discipline has one rule book: the compiler's check sized to the
/// chip (`validate_on`) and both simulators return the same verdict —
/// the same `Ok`, or the same first error — on every mutant the kill
/// suite builds and on a flow with every `CM.switch` stripped.
#[test]
fn every_checker_returns_one_verdict_on_every_mutant() {
    let tiny = presets::tiny();
    let dyna = presets::dynaplasia();
    let mlp = cmswitch::models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
    let programs = [
        ("mlp@tiny", &tiny, mlp),
        ("bert-base@dynaplasia", &dyna, registry::build("bert-base", 1, 16).unwrap()),
        ("resnet18@dynaplasia", &dyna, registry::build("resnet18", 1, 16).unwrap()),
    ];
    let mut rejected = 0usize;
    for (label, arch, graph) in programs {
        let program = Session::builder(arch.clone()).build().compile_graph(&graph).unwrap();
        let stripped = with_stmts(&program, |stmts| {
            stmts.retain(|s| !matches!(s, Stmt::Switch { .. }));
        });
        let mut cases: Vec<(&str, CompiledProgram)> = mutate::ALL
            .iter()
            .filter_map(|m| Some((m.name(), m.apply(&program)?)))
            .collect();
        cases.push(("stripped-switches", stripped));
        for (case, mutant) in cases {
            let flow = &mutant.flow;
            let verdict = cmswitch::metaop::validate_on(flow, arch.n_arrays());
            let engine = EventEngine::new().simulate(flow, arch).map(drop);
            let sequential = SequentialModel.simulate(flow, arch).map(drop);
            assert_eq!(engine, verdict, "{label}/{case}: event engine");
            assert_eq!(sequential, verdict, "{label}/{case}: sequential model");
            rejected += usize::from(verdict.is_err());
        }
    }
    // Not vacuous: per program, the drop-switch and duplicate-claim
    // mutants and the stripped flow are rejected.
    assert!(rejected >= 9, "only {rejected} flows rejected");
}

/// Deny findings fail the compile when verification is enabled; the same
/// defect sails through (into the simulator's hands) when it is not.
#[test]
fn verify_stage_is_opt_in_and_deny_fails_the_compile() {
    let arch = presets::tiny();
    let graph = cmswitch::models::mlp::mlp(1, &[128, 128, 64]).unwrap();
    // Off by default: stage names end at "emit".
    let off = Session::builder(arch.clone()).build();
    let outcome = off.compile(CompileRequest::new(graph)).unwrap();
    assert_eq!(outcome.diagnostics.verified_counts(), None);
    let names: Vec<_> = outcome
        .program
        .stats
        .stage_wall
        .iter()
        .map(|t| t.stage)
        .collect();
    assert!(!names.contains(&"verify"), "{names:?}");
    // Severity policy: the two advisory rules warn, everything denies.
    assert_eq!(rules::severity(rules::DEAD_WEIGHT_LOAD), Severity::Warn);
    assert_eq!(rules::severity(rules::REDUNDANT_SWITCH), Severity::Warn);
    for deny in [
        rules::MODE_DISCIPLINE,
        rules::USE_BEFORE_LOAD,
        rules::CAPACITY_ARRAYS,
        rules::DEP_MISSING,
        rules::RACE_CONFLICT,
        rules::PLAN_OPS,
    ] {
        assert_eq!(rules::severity(deny), Severity::Deny);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn compiled_mlps_verify_clean_on_every_preset(
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

        let report = Verifier::new().run(&program, &arch);
        prop_assert!(report.is_empty(), "findings on a clean compile:\n{report}");

        // And a representative mutation is still caught on every preset.
        if let Some(mutant) = mutate::Mutation::DropSwitch.apply(&program) {
            let report = Verifier::new().run(&mutant, &arch);
            prop_assert!(
                report.has_rule(rules::MODE_DISCIPLINE),
                "dropped switch survived on {}: {:?}",
                arch.name(),
                report.fired_rules()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Untrusted artifacts: decoded programs the compiler never emitted.
// ---------------------------------------------------------------------

fn compiled_mlp(arch: &DualModeArch) -> CompiledProgram {
    let graph = cmswitch::models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
    Session::builder(arch.clone())
        .build()
        .compile_graph(&graph)
        .expect("mlp compiles")
}

/// Array ids the chip does not have must be denied wherever the
/// statement naming them sits — the event engine indexes its per-array
/// state by every id it meets, so an id that slips past the verifier is
/// an out-of-bounds panic in the simulator.
#[test]
fn out_of_range_ids_outside_segment_blocks_are_denied() {
    use cmswitch::compiler::artifact::{decode_program, encode_program};
    use cmswitch::metaop::{MemDirection, MemKind, MemStmt, WeightLoadStmt};

    let arch = presets::tiny();
    let program = compiled_mlp(&arch);
    let far = ArrayId(u32::MAX);
    let edge = ArrayId(arch.n_arrays() as u32);
    let intruders = [
        Stmt::switch(SwitchKind::ToMemory, vec![far]),
        Stmt::Mem(MemStmt {
            loc: MemLoc::CimArrays(vec![edge].into()),
            direction: MemDirection::Read,
            bytes: 8,
            kind: MemKind::Transfer,
        }),
        Stmt::LoadWeights(WeightLoadStmt {
            op: 0,
            arrays: vec![edge, far].into(),
            bytes: 8,
        }),
    ];
    for intruder in intruders {
        let hostile = with_stmts(&program, |stmts| stmts.insert(0, intruder.clone()));
        // The wire format carries the id faithfully; the verifier is the
        // gate every decoded artifact passes.
        let decoded = decode_program(&encode_program(&hostile)).expect("round-trips");
        let report = Verifier::new().run(&decoded, &arch);
        let finding = report
            .findings()
            .iter()
            .find(|f| f.rule == rules::CAPACITY_ARRAYS)
            .unwrap_or_else(|| panic!("{intruder:?} passed the verifier:\n{report}"));
        assert_eq!(finding.severity, Severity::Deny);
        assert_eq!(finding.stmt, Some(0));
        assert!(finding.arrays.iter().all(|a| a.0 as usize >= arch.n_arrays()));
        assert!(
            finding.message.starts_with("statement 0 references arrays beyond the chip"),
            "{finding}"
        );
    }
    // With plans and blocks misaligned no block counts as covered, so
    // the same pass range-checks the statements inside them.
    let mut misaligned = hostile_in_block(&program, arch.n_arrays());
    misaligned.segments.pop();
    let report = Verifier::new().run(&misaligned, &arch);
    assert!(report.has_rule(rules::PLAN_SEGMENTS), "{report}");
    assert!(report.has_rule(rules::CAPACITY_ARRAYS), "{report}");
    // Ids the chip has draw no such finding.
    let benign = with_stmts(&program, |stmts| {
        stmts.insert(0, Stmt::switch(SwitchKind::ToMemory, vec![ArrayId(0)]));
    });
    assert!(!Verifier::new().run(&benign, &arch).has_rule(rules::CAPACITY_ARRAYS));
}

/// A plan whose op range runs backwards is a finding, not an arithmetic
/// overflow (this suite runs in debug mode, where overflow panics).
#[test]
fn inverted_plan_range_is_a_finding_not_a_panic() {
    let arch = presets::tiny();
    let mut program = compiled_mlp(&arch);
    assert!(program.segments.len() > 1, "need a later segment to invert");
    let plan = program.segments.last_mut().unwrap();
    plan.range = (plan.range.1 + 3, plan.range.0);
    let report = Verifier::new().run(&program, &arch);
    let finding = report
        .findings()
        .iter()
        .find(|f| f.rule == rules::PLAN_SEGMENTS)
        .unwrap_or_else(|| panic!("inverted range went unreported:\n{report}"));
    assert_eq!(finding.severity, Severity::Deny);

    // A range starting at the top of the address space cannot overflow
    // the per-op index arithmetic either.
    let mut program = compiled_mlp(&arch);
    program.segments[0].range = (usize::MAX, usize::MAX);
    assert!(Verifier::new().run(&program, &arch).has_rule(rules::PLAN_SEGMENTS));
}

// ---------------------------------------------------------------------
// Golden snapshot of the verifier's complete output.
// ---------------------------------------------------------------------

const FINDINGS_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/verify_findings.txt"
);

/// A copy of `program` with its top-level statements edited (the op
/// table stays).
fn with_stmts(program: &CompiledProgram, edit: impl FnOnce(&mut Vec<Stmt>)) -> CompiledProgram {
    let mut out = program.clone();
    edit(out.flow.stmts_mut());
    out
}

/// The op table index of an operator named `intruder` with the shape of
/// op `op`: what renaming a statement's operator to `intruder` makes it
/// name. One entry per shape, appended on first use.
fn intruder(flow: &mut Flow, op: u32) -> u32 {
    let entry = FlowOp {
        name: "intruder".into(),
        ..flow.ops()[op as usize].clone()
    };
    let same = |o: &FlowOp| (&o.name, o.m, o.k, o.n, o.units) == (&entry.name, entry.m, entry.k, entry.n, entry.units);
    match flow.ops().iter().position(same) {
        Some(i) => i as u32,
        None => flow.push_op(entry),
    }
}

/// Plants array ids the chip does not have — one past the last array and
/// `u32::MAX` — into the first two compute statements of the first
/// `parallel` block with at least two of them, in conflicting roles.
fn hostile_in_block(program: &CompiledProgram, n_arrays: usize) -> CompiledProgram {
    let edge = ArrayId(n_arrays as u32);
    let far = ArrayId(u32::MAX);
    with_stmts(program, |stmts| {
        let computes = stmts
            .iter_mut()
            .filter_map(|s| match s {
                Stmt::Parallel(body) => Some(body),
                _ => None,
            })
            .map(|body| {
                body.iter_mut()
                    .filter_map(|s| match s {
                        Stmt::Compute(c) => Some(c),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .find(|computes| computes.len() >= 2);
        let Some(mut computes) = computes else {
            // A single-operator block still takes the ids in one statement.
            if let Some(Stmt::Parallel(body)) =
                stmts.iter_mut().find(|s| matches!(s, Stmt::Parallel(_)))
            {
                if let Some(Stmt::Compute(c)) =
                    body.iter_mut().find(|s| matches!(s, Stmt::Compute(_)))
                {
                    c.compute_arrays.push(edge);
                    c.mem_in_arrays.push(far);
                }
            }
            return;
        };
        computes[0].compute_arrays.push(edge);
        computes[0].mem_in_arrays.push(far);
        computes[1].mem_in_arrays.push(far);
        computes[1].mem_out_arrays.push(edge);
    })
}

/// Deterministic xorshift64* stream for the perturbed cases.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

/// Applies three seeded edits to the flow: array ids added in random
/// roles (ids the chip lacks only where a segment block covers the
/// statement), switches flipped, operators renamed, and block statements
/// dropped, duplicated, swapped or wrapped in a nested `parallel`. The
/// top-level statement sequence keeps its shape, so the plans stay
/// aligned with the blocks and every lint runs its per-segment checks.
fn perturb(program: &CompiledProgram, n_arrays: usize, seed: u64) -> CompiledProgram {
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut out = program.clone();
    let flow = &mut out.flow;
    let mut stmts = std::mem::take(flow.stmts_mut());
    for _ in 0..3 {
        let i = rng.below(stmts.len());
        let mut in_block = matches!(stmts[i], Stmt::Compute(_));
        let target = match &mut stmts[i] {
            Stmt::Parallel(body) if !body.is_empty() => {
                in_block = true;
                let j = rng.below(body.len());
                match rng.below(10) {
                    0 => {
                        body.remove(j);
                        continue;
                    }
                    1 => {
                        let dup = body[j].clone();
                        body.insert(j, dup);
                        continue;
                    }
                    2 => {
                        let k = rng.below(body.len());
                        body.swap(j, k);
                        continue;
                    }
                    3 => {
                        body[j] = Stmt::Parallel(vec![body[j].clone()]);
                        continue;
                    }
                    _ => &mut body[j],
                }
            }
            s => s,
        };
        let id = match rng.below(4) {
            0 if in_block => ArrayId(n_arrays as u32),
            1 if in_block => ArrayId(u32::MAX),
            _ => ArrayId(rng.below(n_arrays) as u32),
        };
        match target {
            Stmt::Switch { kind, arrays } => match rng.below(3) {
                0 => {
                    *kind = match kind {
                        SwitchKind::ToCompute => SwitchKind::ToMemory,
                        SwitchKind::ToMemory => SwitchKind::ToCompute,
                    }
                }
                _ => arrays.push(id),
            },
            Stmt::Compute(c) => match rng.below(4) {
                0 => c.compute_arrays.push(id),
                1 => c.mem_in_arrays.push(id),
                2 => c.mem_out_arrays.push(id),
                _ => c.op = intruder(flow, c.op),
            },
            Stmt::LoadWeights(w) => match rng.below(3) {
                0 => w.op = intruder(flow, w.op),
                1 => w.bytes += 1,
                _ => w.arrays.push(id),
            },
            Stmt::Mem(m) => match &mut m.loc {
                MemLoc::CimArrays(arrays) => arrays.push(id),
                loc => *loc = MemLoc::CimArrays(vec![id].into()),
            },
            Stmt::Vector(_) | Stmt::Parallel(_) => {}
        }
    }
    *flow.stmts_mut() = stmts;
    out
}

/// Every finding of every mutant, in order, plus `validate`'s verdict on
/// the mutant flow. Pins the verifier's complete observable output — rule
/// ids, order, anchors, array lists and message text — not only which
/// rules fire.
fn render_findings() -> String {
    let tiny = presets::tiny();
    let dyna = presets::dynaplasia();
    let mlp = cmswitch::models::mlp::mlp(2, &[256, 256, 256, 64]).unwrap();
    let programs = [
        ("mlp@tiny", &tiny, mlp),
        ("bert-base@dynaplasia", &dyna, registry::build("bert-base", 1, 16).unwrap()),
        ("resnet18@dynaplasia", &dyna, registry::build("resnet18", 1, 16).unwrap()),
    ];
    let verifier = Verifier::new();
    let mut out = String::new();
    for (label, arch, graph) in programs {
        let program = Session::builder(arch.clone())
            .build()
            .compile_graph(&graph)
            .expect("compiles");
        let mut cases = vec![("clean", Some(program.clone()))];
        cases.extend(mutate::ALL.iter().map(|m| (m.name(), m.apply(&program))));
        cases.push(("hostile-in-block", Some(hostile_in_block(&program, arch.n_arrays()))));
        let perturbed: Vec<String> = (0..24).map(|seed| format!("perturbed-{seed}")).collect();
        for (seed, case) in perturbed.iter().enumerate() {
            cases.push((case, Some(perturb(&program, arch.n_arrays(), seed as u64))));
        }
        for (case, mutant) in cases {
            writeln!(out, "== {label}/{case}").unwrap();
            let Some(mutant) = mutant else {
                writeln!(out, "not applicable").unwrap();
                continue;
            };
            // Perturbed flows can cascade into hundreds of findings: print
            // the first 12 and pin the rest by count and FNV-1a hash.
            let shown = if case.starts_with("perturbed") { 12 } else { usize::MAX };
            let (mut elided, mut hash) = (0usize, 0xcbf2_9ce4_8422_2325_u64);
            for (i, f) in verifier.run(&mutant, arch).findings().iter().enumerate() {
                let arrays: Vec<u32> = f.arrays.iter().map(|a| a.0).collect();
                let line = format!("{f} arrays={arrays:?}");
                if i < shown {
                    writeln!(out, "{line}").unwrap();
                } else {
                    elided += 1;
                    for b in line.bytes().chain([b'\n']) {
                        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            if elided > 0 {
                writeln!(out, "… {elided} more findings, fnv1a64={hash:016x}").unwrap();
            }
            match cmswitch::metaop::validate(&mutant.flow) {
                Ok(()) => writeln!(out, "validate: ok").unwrap(),
                Err(e) => writeln!(out, "validate: {e}").unwrap(),
            }
        }
    }
    out
}

/// Regenerate after an *intentional* change to a rule with
/// `CMSWITCH_BLESS=1 cargo test --test verify_invariants`.
#[test]
fn verifier_output_matches_golden() {
    let current = render_findings();
    if std::env::var_os("CMSWITCH_BLESS").is_some() {
        std::fs::write(FINDINGS_GOLDEN, &current).expect("write golden snapshot");
        eprintln!("blessed {FINDINGS_GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(FINDINGS_GOLDEN).expect(
        "golden snapshot missing; regenerate with \
         `CMSWITCH_BLESS=1 cargo test --test verify_invariants`",
    );
    assert_eq!(
        golden, current,
        "verifier output drifted from tests/golden/verify_findings.txt"
    );
}
