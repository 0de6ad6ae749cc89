//! Fig. 18 bench: compilation time, CMSwitch vs CIM-MLC, per benchmark
//! network (depth-scaled transformers; full CNNs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cmswitch_arch::{presets, DualModeArch};
use cmswitch_baselines::{BackendKind, SessionBackendExt};
use cmswitch_bench::workloads::{build, Workload};
use cmswitch_core::Session;

/// One cold compile: a fresh session, so no iteration is served from the
/// previous one's allocation cache.
fn compile_once(arch: &DualModeArch, kind: BackendKind, w: &Workload) {
    let graph = match w {
        Workload::Single(g) => g,
        Workload::Generative(gen) => &gen.prefill,
    };
    let session = Session::builder(arch.clone()).backend_kind(kind).build();
    let _ = session.compile_graph(graph).expect("compiles");
}

fn bench_compile(c: &mut Criterion) {
    let arch = presets::dynaplasia();
    let mut group = c.benchmark_group("fig18_compile_time");
    group.sample_size(10);
    for model in ["bert-large", "opt-6.7b", "mobilenetv2", "resnet18"] {
        let Ok(w) = build(model, 1, 64, 64, 0.08, 1) else {
            continue;
        };
        for kind in [BackendKind::CimMlc, BackendKind::CmSwitch] {
            group.bench_with_input(BenchmarkId::new(kind.name(), model), &w, |b, w| {
                b.iter(|| compile_once(&arch, kind, w))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);
