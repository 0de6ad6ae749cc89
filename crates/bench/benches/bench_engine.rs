//! Event-engine micro-benches: scheduler throughput of the event-driven
//! simulator against the sequential replay on compiled registry flows.
//!
//! Also prints (once) the overlap each model hides, so `cargo bench`
//! output carries the paper-relevant metric next to the wall times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cmswitch_arch::presets;
use cmswitch_bench::workloads::{build, Workload};
use cmswitch_core::Session;
use cmswitch_sim::{EventEngine, SequentialModel};

fn bench_engine(c: &mut Criterion) {
    let arch = presets::dynaplasia();
    let engine = EventEngine::new();
    let mut group = c.benchmark_group("event_engine");
    group.sample_size(20);
    for model in ["resnet18", "bert-large", "opt-6.7b"] {
        let Ok(w) = build(model, 1, 64, 0, 0.08, 1) else {
            continue;
        };
        let g = match &w {
            Workload::Single(g) => g.clone(),
            Workload::Generative(gen) => gen.prefill.clone(),
        };
        let session = Session::builder(arch.clone()).build();
        let program = session.compile_graph(&g).expect("compiles");
        let report = engine.simulate_program(&program, &arch).expect("simulates");
        eprintln!(
            "  {model}: {} events on {} segments, {:.2}% latency hidden by overlap",
            report.critical_path.len(),
            report.segments.len(),
            100.0 * report.overlap_saved() / report.serialized_cycles.max(1.0),
        );
        group.bench_with_input(
            BenchmarkId::new("pipelined", model),
            &program,
            |b, program| b.iter(|| engine.simulate_program(program, &arch).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("sequential", model),
            &program,
            |b, program| b.iter(|| SequentialModel.simulate(&program.flow, &arch).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
