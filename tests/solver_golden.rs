//! Golden digests of everything a solver rewrite must not move.
//!
//! The allocation MIPs are degenerate max-min problems: many vertices
//! are optimal, and which one comes back — hence which plan the compiler
//! emits — is decided by the simplex pivot rule and the branch-and-bound
//! visiting order. `tests/golden/sim_registry.txt` only sees the ~36
//! segments the DP finally picks; this suite pins the solver itself, to
//! the bit:
//!
//! * the two fixed instances the benchmark of record times
//!   (`solver.simplex_us`, `solver.mip_us`),
//! * 200 seeded allocation-shaped MIPs (`tests/common`), at the node
//!   limit and gap `core::allocation` uses,
//! * every window of up to 12 operators of two CNNs through the MIP
//!   allocator — on or off the optimal path.
//!
//! The file was blessed on the dense per-solve-allocating kernel that
//! preceded the workspace kernel, and the workspace kernel reproduces it
//! byte for byte. A diff here is a changed pivot sequence: find the
//! broken rule in `crates/solver/src/simplex.rs`'s module docs instead
//! of re-blessing. Regenerating after an *intentional* change:
//!
//! ```text
//! CMSWITCH_BLESS=1 cargo test --test solver_golden
//! ```

mod common;

use std::fmt::Write as _;

use cmswitch::arch::presets;
use cmswitch::compiler::allocation::Allocator;
use cmswitch::compiler::cost::CostModel;
use cmswitch::compiler::frontend::{lower_graph, DepIndex};
use cmswitch::compiler::partition::partition;
use cmswitch::compiler::AllocatorKind;
use cmswitch::models::registry;
use cmswitch::solver::{stable_hash64, LinearProgram, MipProblem, MipSolution, Relation};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/solver_digest.txt"
);

fn bits(values: &[f64]) -> u64 {
    let words: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    stable_hash64(&words)
}

/// The 20×20 LP and the 8-integer MIP of the benchmark's solver probe.
fn fixed_instances(out: &mut String) {
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = (0..20)
        .map(|i| lp.add_var(0.0, 10.0, 1.0 + (i % 7) as f64))
        .collect();
    for i in 0..20 {
        let terms = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, 1.0 + ((i + j) % 5) as f64))
            .collect();
        lp.add_constraint(terms, Relation::Le, 50.0 + i as f64)
            .expect("the fixed LP is well formed");
    }
    let sol = lp.solve().expect("the fixed LP is feasible");
    writeln!(
        out,
        "lp20 objective={:016x} values={:016x}",
        sol.objective.to_bits(),
        bits(&sol.values)
    )
    .expect("writing to a String cannot fail");

    let mut mip = MipProblem::new();
    let vars: Vec<_> = (0..8)
        .map(|i| mip.add_int_var(0.0, 8.0, 1.0 + (i % 5) as f64))
        .collect();
    for i in 0..8 {
        let terms = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, 1.0 + ((i * j) % 4) as f64))
            .collect();
        mip.add_constraint(terms, Relation::Le, 30.0)
            .expect("the fixed MIP is well formed");
    }
    let sol = mip.solve().expect("the fixed MIP is feasible");
    writeln!(out, "mip8 {}", mip_line(&sol)).expect("writing to a String cannot fail");
}

fn mip_line(sol: &MipSolution) -> String {
    format!(
        "objective={:016x} values={:016x} nodes={} proven={} warm={}",
        sol.objective.to_bits(),
        bits(&sol.values),
        sol.nodes_explored,
        sol.proven_optimal,
        sol.used_warm_start
    )
}

/// 200 allocation-shaped MIPs, 1–12 operators, solved the way
/// `core::allocation` solves them; every other one warm-started.
fn seeded_alloc_mips(out: &mut String) {
    for seed in 0..200u64 {
        let (shape, built) = common::dynaplasia_instance(seed);
        let line = match built.mip.solve() {
            Ok(sol) => mip_line(&sol),
            Err(e) => format!("error={e}"),
        };
        let (ops, deps) = (shape.ops.len(), shape.deps.len());
        writeln!(out, "alloc seed={seed} ops={ops} deps={deps} {line}")
            .expect("writing to a String cannot fail");
    }
}

/// Every window `(i, j)`, `j − i < 12`, of `model` on DynaPlasia through
/// the MIP allocator with the shared cache off: one digest over `None` /
/// every field of every `SegmentAllocation`.
fn model_windows(out: &mut String, model: &str) {
    let arch = presets::dynaplasia();
    let graph = registry::build(model, 1, 16).expect("registered model builds");
    let list = lower_graph(&graph, &arch).expect("registered model lowers");
    let list = partition(&list, &arch, 1.0).expect("registered model partitions");
    let deps = DepIndex::new(&list);
    let allocator = Allocator::new(CostModel::new(&arch), AllocatorKind::Mip, false);
    let (mut words, mut windows, mut feasible) = (Vec::new(), 0u32, 0u32);
    for i in 0..list.ops.len() {
        for j in i..list.ops.len().min(i + 12) {
            windows += 1;
            words.extend([i as u64, j as u64]);
            let Some(alloc) = allocator.allocate(&list.ops[i..=j], &deps.window_local(i, j))
            else {
                words.push(u64::MAX);
                continue;
            };
            feasible += 1;
            for op in &alloc.ops {
                words.extend([op.compute as u64, op.mem_in as u64, op.mem_out as u64]);
            }
            for &((p, c), r) in &alloc.reuse {
                words.extend([p as u64, c as u64, r as u64]);
            }
            words.push(alloc.latency.to_bits());
        }
    }
    writeln!(
        out,
        "windows {model} n={windows} feasible={feasible} digest={:016x}",
        stable_hash64(&words)
    )
    .expect("writing to a String cannot fail");
}

#[test]
fn solver_outputs_match_golden_digest() {
    let mut current = String::new();
    fixed_instances(&mut current);
    seeded_alloc_mips(&mut current);
    for model in ["resnet18", "mobilenetv2"] {
        model_windows(&mut current, model);
    }
    if std::env::var_os("CMSWITCH_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &current).expect("write golden snapshot");
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden snapshot missing; regenerate with \
         `CMSWITCH_BLESS=1 cargo test --test solver_golden`",
    );
    for (want, got) in golden.lines().zip(current.lines()) {
        assert_eq!(want, got, "solver output drifted from {GOLDEN_PATH}");
    }
    assert_eq!(golden, current, "solver output drifted from {GOLDEN_PATH}");
}
