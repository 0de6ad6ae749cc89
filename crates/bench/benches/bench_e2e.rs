//! Fig. 14-shaped end-to-end bench: wall time of the full
//! compile-and-simulate pipeline per backend, and (printed once) the
//! simulated-cycle comparison that regenerates the figure's ordering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cmswitch_arch::presets;
use cmswitch_baselines::{BackendKind, SessionBackendExt};
use cmswitch_bench::harness::run_workload;
use cmswitch_bench::workloads::build;
use cmswitch_core::Session;

fn bench_e2e(c: &mut Criterion) {
    let arch = presets::dynaplasia();
    // Print the figure-shaped comparison once, so `cargo bench` output
    // carries the paper's metric (simulated cycles), not only wall time.
    eprintln!("\nfig14-shaped simulated-cycle comparison (depth scale 0.08):");
    for model in ["bert-large", "opt-6.7b", "resnet18"] {
        let Ok(w) = build(model, 1, 64, 64, 0.08, 1) else {
            continue;
        };
        let mut line = format!("  {model}:");
        let mut mlc_cycles = 0.0;
        for kind in BackendKind::ALL {
            let session = Session::builder(arch.clone()).backend_kind(kind).build();
            let r = run_workload(&session, &w).expect("runs");
            if kind == BackendKind::CimMlc {
                mlc_cycles = r.cycles;
            }
            if kind == BackendKind::CmSwitch && mlc_cycles > 0.0 {
                line.push_str(&format!(
                    " {kind}={:.3e} (speedup vs mlc {:.2}x)",
                    r.cycles,
                    mlc_cycles / r.cycles
                ));
            } else {
                line.push_str(&format!(" {kind}={:.3e}", r.cycles));
            }
        }
        eprintln!("{line}");
    }

    let mut group = c.benchmark_group("fig14_e2e_pipeline");
    group.sample_size(10);
    for model in ["bert-large", "resnet18"] {
        let Ok(w) = build(model, 1, 64, 64, 0.08, 1) else {
            continue;
        };
        for kind in [BackendKind::CimMlc, BackendKind::CmSwitch] {
            // A fresh session per iteration keeps every compile cold.
            group.bench_with_input(BenchmarkId::new(kind.name(), model), &w, |b, w| {
                b.iter(|| {
                    let session = Session::builder(arch.clone()).backend_kind(kind).build();
                    run_workload(&session, w).expect("runs")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_e2e);
criterion_main!(benches);
