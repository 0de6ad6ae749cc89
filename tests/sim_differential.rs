//! Differential testing: the event engine against the sequential
//! reference model, across the full model registry.
//!
//! Both simulators price statements through the compiler's price list
//! (`cmswitch-core::cost`), so four relations must hold on every
//! compiled registry model:
//!
//! 1. **Dominance** — the pipelined makespan never exceeds the
//!    sequential replay (the engine only moves events *earlier*);
//! 2. **Serial equivalence** — the engine's `serialized_cycles`
//!    reproduces the sequential total bit-for-bit (same kernel, same
//!    accumulation order);
//! 3. **Energy invariance** — energy is schedule-independent, so the
//!    engine's energy report equals the flow oracle
//!    (`energy::estimate`) component for component;
//! 4. **One scheduler** — the co-scheduler's solo baseline for the
//!    program *is* the engine's makespan, bit-for-bit, under both
//!    tenancy policies (co-simulation is the same forward pass).
//!
//! And the engine must actually *earn* its keep: at least one
//! multi-segment model must overlap strictly (`pipelined <
//! sequential`), otherwise the engine's dependency tracking is dead
//! weight.

use cmswitch::arch::presets;
use cmswitch::models::registry;
use cmswitch::prelude::*;
use cmswitch::sim::energy::{estimate, EnergyModel};
use cmswitch::sim::{ChipScheduler, TenancyPolicy};

#[test]
fn engine_dominates_sequential_across_registry() {
    let arch = presets::dynaplasia();
    let session = Session::builder(arch.clone()).build();
    let engine = EventEngine::new();
    let sequential = SequentialModel;
    let energy_model = EnergyModel::default();

    let mut strict_overlaps = Vec::new();
    for &model in registry::ALL_MODELS {
        let graph = registry::build(model, 1, 16).expect("registered model builds");
        let program = session.compile_graph(&graph).expect("compiles");
        let seq = sequential
            .simulate(&program.flow, &arch)
            .expect("sequential replay");
        let eng = engine
            .simulate_program(&program, &arch)
            .expect("event schedule");

        // 1. Dominance (exact, not approximate: identical event
        //    durations, dependencies only point backwards).
        assert!(
            eng.total_cycles <= seq.total_cycles,
            "{model}: pipelined {} > sequential {}",
            eng.total_cycles,
            seq.total_cycles
        );

        // 2. Serial equivalence, bit-for-bit.
        assert_eq!(
            eng.serialized_cycles.to_bits(),
            seq.total_cycles.to_bits(),
            "{model}: serialized accounting diverged from timing::simulate \
             ({} vs {})",
            eng.serialized_cycles,
            seq.total_cycles
        );

        // 3. Energy invariance, component for component.
        let oracle = estimate(&program.flow, &arch, &energy_model);
        assert_eq!(
            eng.energy.total_pj().to_bits(),
            oracle.total_pj().to_bits(),
            "{model}: engine energy diverged from the flow oracle"
        );
        assert_eq!(eng.energy, oracle, "{model}: component mismatch");

        // 4. One scheduler: a lone tenant costs what the engine says.
        for policy in [
            TenancyPolicy::TimeSliced,
            TenancyPolicy::Partitioned { shares: vec![arch.n_arrays()] },
        ] {
            let options = CoSimOptions { policy: policy.clone(), ..CoSimOptions::default() };
            let solo = ChipScheduler::new(arch.clone())
                .with_options(options)
                .co_simulate(&[TenantProgram::new(model, &program)])
                .expect("a lone tenant is admitted");
            assert_eq!(
                solo.tenants[0].solo_cycles.to_bits(),
                eng.total_cycles.to_bits(),
                "{model} under {policy:?}: solo baseline {} is not the engine's makespan {}",
                solo.tenants[0].solo_cycles,
                eng.total_cycles
            );
        }

        // Switch counts agree with the sequential replay too.
        assert_eq!(eng.switches_to_compute, seq.switches_to_compute, "{model}");
        assert_eq!(eng.switches_to_memory, seq.switches_to_memory, "{model}");

        if program.segments.len() > 1 && eng.total_cycles < seq.total_cycles {
            strict_overlaps.push((model, seq.total_cycles / eng.total_cycles));
        }
        println!(
            "{model:>12}: sequential {:.4e} -> pipelined {:.4e} ({} segments, {:.2}% hidden)",
            seq.total_cycles,
            eng.total_cycles,
            program.segments.len(),
            100.0 * eng.overlap_saved() / seq.total_cycles.max(1.0),
        );
    }

    assert!(
        !strict_overlaps.is_empty(),
        "no multi-segment registry model overlapped strictly — the event \
         engine is not pipelining anything"
    );
    println!("strict overlaps: {strict_overlaps:?}");
}
