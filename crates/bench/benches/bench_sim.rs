//! Simulator micro-benches: timing-simulation throughput on compiled
//! flows of different sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cmswitch_arch::presets;
use cmswitch_bench::workloads::{build, Workload};
use cmswitch_core::Session;
use cmswitch_sim::timing::simulate;

fn bench_sim(c: &mut Criterion) {
    let arch = presets::dynaplasia();
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    for model in ["resnet18", "bert-large"] {
        let w = build(model, 1, 64, 0, 0.08, 1).expect("builds");
        let g = match &w {
            Workload::Single(g) => g.clone(),
            Workload::Generative(gen) => gen.prefill.clone(),
        };
        let session = Session::builder(arch.clone()).build();
        let program = session.compile_graph(&g).expect("compiles");
        group.bench_with_input(
            BenchmarkId::new("timing_sim", model),
            &program.flow,
            |b, flow| b.iter(|| simulate(flow, &arch).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
