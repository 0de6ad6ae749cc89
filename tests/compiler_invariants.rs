//! Property-based integration tests: random networks and random chips
//! must always produce valid, capacity-respecting, simulatable plans.

use proptest::prelude::*;

use cmswitch::arch::DualModeArch;
use cmswitch::compiler::artifact::{decode_program, encode_program};
use cmswitch::prelude::*;

fn random_arch(seed: usize) -> DualModeArch {
    // A small family of valid chips.
    let n = [6, 8, 12, 16][seed % 4];
    let size = [32, 64, 96][seed % 3];
    DualModeArch::builder(format!("prop-{seed}"))
        .n_arrays(n)
        .array_size(size, size)
        .buffer_bytes(2048)
        .internal_bw(4)
        .extern_bw(16)
        .buffer_bw(16)
        .compute_pass_cycles(16)
        .switch_cycles(1, 1)
        .write_parallelism(4)
        .build()
        .expect("valid chip")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_mlps_compile_to_valid_plans(
        seed in 0usize..1000,
        batch in 1usize..5,
        widths in proptest::collection::vec(16usize..200, 2..6),
    ) {
        let arch = random_arch(seed);
        let graph = cmswitch::models::mlp::mlp(batch, &widths).unwrap();
        let session = Session::builder(arch.clone()).build();
        let program = match session.compile_graph(&graph) {
            Ok(p) => p,
            // Tiny chips may legitimately reject enormous layers.
            Err(cmswitch::compiler::CompileError::OperatorTooLarge { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("compile failed: {e}"))),
        };

        // Invariant 1: segments tile the op list contiguously.
        let mut next = 0usize;
        for seg in &program.segments {
            prop_assert_eq!(seg.range.0, next);
            next = seg.range.1 + 1;
        }
        prop_assert_eq!(next, program.ops.len());

        // Invariant 2: every segment respects chip capacity (Eq. 8).
        for seg in &program.segments {
            prop_assert!(seg.alloc.arrays_used() <= arch.n_arrays());
        }

        // Invariant 3: the flow validates and simulates to a finite time.
        cmswitch::metaop::validate(&program.flow)
            .map_err(|e| TestCaseError::fail(format!("invalid flow: {e}")))?;
        let report = simulate(&program.flow, &arch)
            .map_err(|e| TestCaseError::fail(format!("sim failed: {e}")))?;
        prop_assert!(report.total_cycles.is_finite() && report.total_cycles > 0.0);

        // Invariant 4: prediction and simulation agree to within 2x.
        let ratio = report.total_cycles / program.predicted_latency;
        prop_assert!((0.4..2.5).contains(&ratio), "sim/predicted {ratio}");
    }

    #[test]
    fn programs_roundtrip_through_the_artifact(seed in 0usize..300) {
        let arch = random_arch(seed);
        let widths = [64usize, 96, 64];
        let graph = cmswitch::models::mlp::mlp(1 + seed % 3, &widths).unwrap();
        let mut program = Session::builder(arch).build().compile_graph(&graph)
            .unwrap();
        let bytes = encode_program(&program);
        let decoded = decode_program(&bytes).unwrap();
        // The wire carries the plan, not the run history.
        program.stats = CompileStats::default();
        prop_assert_eq!(&decoded, &program);
        prop_assert_eq!(encode_program(&decoded), bytes);
    }

    #[test]
    fn allocator_kinds_agree_on_feasibility(seed in 0usize..200) {
        let arch = random_arch(seed);
        let widths = [32usize + (seed % 7) * 16, 64, 48];
        let graph = cmswitch::models::mlp::mlp(2, &widths).unwrap();
        let mip = Session::builder(arch.clone()).build().compile_graph(&graph);
        let fast = Session::builder(arch)
            .options(CompilerOptions::default().with_allocator(cmswitch::compiler::AllocatorKind::Fast))
            .build()
            .compile_graph(&graph);
        prop_assert_eq!(mip.is_ok(), fast.is_ok());
        if let (Ok(m), Ok(f)) = (mip, fast) {
            // Same DP, allocators optimizing the same objective: totals
            // must be within a small band of each other.
            let ratio = m.predicted_latency / f.predicted_latency;
            prop_assert!((0.7..1.4).contains(&ratio), "mip/fast {ratio}");
        }
    }
}
