//! The allocation-cache key's soundness, checked by running it.
//!
//! `DualModeArch::allocation_fingerprint` leaves out the switch
//! latencies, the switch method, the buffer capacity and the name, so
//! chips that differ only there share every cached allocation. That is
//! sound only if the allocator really never reads them: perturbing each
//! excluded field alone must leave every window's allocation bit-identical
//! (and the key unchanged), while perturbing each included field alone
//! must change the key and move at least one window's allocation.

use std::collections::HashSet;

use cmswitch::arch::{presets, DualModeArch, DualModeArchBuilder, SwitchMethod};
use cmswitch::compiler::allocation::{Allocator, SegmentAllocation};
use cmswitch::compiler::cost::CostModel;
use cmswitch::compiler::frontend::{lower_graph, DepIndex, SegOp};
use cmswitch::compiler::partition::partition;
use cmswitch::compiler::AllocatorKind;
use cmswitch::models::registry;

const MODELS: [&str; 3] = ["resnet18", "mobilenetv2", "bert-base"];
const MAX_WINDOW: usize = 6;
const KINDS: [AllocatorKind; 2] = [AllocatorKind::Mip, AllocatorKind::Fast];

/// `base` rebuilt under `name` with every parameter copied, then
/// `tweak`ed.
fn rebuild(
    base: &DualModeArch,
    name: &str,
    tweak: impl FnOnce(DualModeArchBuilder) -> DualModeArchBuilder,
) -> DualModeArch {
    let builder = DualModeArch::builder(name)
        .n_arrays(base.n_arrays())
        .array_size(base.array_rows(), base.array_cols())
        .buffer_bytes(base.buffer_bytes())
        .internal_bw(base.internal_bw())
        .extern_bw(base.extern_bw())
        .buffer_bw(base.buffer_bw())
        .compute_pass_cycles(base.compute_pass_cycles())
        .switch_cycles(base.switch_m2c_cycles(), base.switch_c2m_cycles())
        .write_row_cycles(base.write_row_cycles())
        .write_parallelism(base.write_parallelism())
        .write_cost_factor(base.write_cost_factor())
        .switch_method(base.switch_method());
    tweak(builder).build().expect("perturbed chip is valid")
}

/// Each field the allocation key leaves out, perturbed alone.
fn excluded(base: &DualModeArch) -> Vec<(&'static str, DualModeArch)> {
    let (m2c, c2m) = (base.switch_m2c_cycles(), base.switch_c2m_cycles());
    let other_method = match base.switch_method() {
        SwitchMethod::GlobalWordline => SwitchMethod::BitlineDriver,
        SwitchMethod::BitlineDriver => SwitchMethod::GlobalWordline,
    };
    let name = base.name();
    vec![
        ("name", rebuild(base, "renamed", |b| b)),
        (
            "switch_m2c_cycles",
            rebuild(base, name, |b| b.switch_cycles(m2c + 7, c2m)),
        ),
        (
            "switch_c2m_cycles",
            rebuild(base, name, |b| b.switch_cycles(m2c, c2m + 7)),
        ),
        (
            "switch_method",
            rebuild(base, name, |b| b.switch_method(other_method)),
        ),
        (
            "buffer_bytes",
            rebuild(base, name, |b| b.buffer_bytes(base.buffer_bytes() / 4)),
        ),
    ]
}

/// Each field the allocation key hashes, perturbed alone.
fn included(base: &DualModeArch) -> Vec<(&'static str, DualModeArch)> {
    let (rows, cols) = (base.array_rows(), base.array_cols());
    let name = base.name();
    vec![
        (
            "n_arrays",
            rebuild(base, name, |b| b.n_arrays(base.n_arrays() / 2)),
        ),
        // Rows and columns also set lowering's `min_tiles`, which the
        // window signature does not carry; here the windows stay lowered
        // on the base chip, so only the allocator's own reads
        // (`OP_cim`, array bytes, `Latency_write`) can move them.
        (
            "array_rows",
            rebuild(base, name, |b| b.array_size(rows * 2, cols)),
        ),
        (
            "array_cols",
            rebuild(base, name, |b| b.array_size(rows, cols * 2)),
        ),
        (
            "internal_bw",
            rebuild(base, name, |b| b.internal_bw(base.internal_bw() * 4)),
        ),
        (
            "extern_bw",
            rebuild(base, name, |b| b.extern_bw(base.extern_bw() * 4)),
        ),
        (
            "buffer_bw",
            rebuild(base, name, |b| b.buffer_bw(base.buffer_bw() * 4)),
        ),
        (
            "compute_pass_cycles",
            rebuild(base, name, |b| {
                b.compute_pass_cycles(base.compute_pass_cycles() * 4)
            }),
        ),
        (
            "write_row_cycles",
            rebuild(base, name, |b| {
                b.write_row_cycles(base.write_row_cycles() * 16)
            }),
        ),
        (
            "write_parallelism",
            rebuild(base, name, |b| {
                b.write_parallelism(base.write_parallelism() * 16)
            }),
        ),
        (
            "write_cost_factor",
            rebuild(base, name, |b| {
                b.write_cost_factor(base.write_cost_factor() * 16)
            }),
        ),
    ]
}

/// A window of a lowered model: `(ops, local deps)`.
type Window = (Vec<SegOp>, Vec<(usize, usize, u64)>);

/// Every distinct window of at most [`MAX_WINDOW`] operators of one
/// model, lowered and partitioned on the base chip. Windows equal in
/// every field but the ops' names and sources (repeated blocks — bert's
/// twelve layers) are one allocation problem and are kept once.
fn windows(model: &str, base: &DualModeArch) -> Vec<Window> {
    let graph = registry::build(model, 1, 16).expect("registered model builds");
    let list = lower_graph(&graph, base).expect("registered model lowers");
    let list = partition(&list, base, 1.0).expect("registered model partitions");
    let deps = DepIndex::new(&list);
    let n = list.ops.len();
    let mut seen = HashSet::new();
    (0..n)
        .flat_map(|i| (i..n.min(i + MAX_WINDOW)).map(move |j| (i, j)))
        .map(|(i, j)| (list.ops[i..=j].to_vec(), deps.window_local(i, j)))
        .filter(|(ops, deps)| {
            let mut key: Vec<u64> = std::iter::once(ops.len() as u64)
                .chain(deps.iter().flat_map(|&(p, c, b)| [p as u64, c as u64, b]))
                .collect();
            for op in ops {
                key.extend([
                    op.m as u64,
                    op.k as u64,
                    op.n as u64,
                    op.units as u64,
                    u64::from(op.weight_static),
                    op.work.to_bits(),
                    op.in_bytes,
                    op.out_bytes,
                    op.weight_bytes,
                    op.aux_flops,
                    op.min_tiles as u64,
                ]);
            }
            seen.insert(key)
        })
        .collect()
}

fn allocate_all(
    arch: &DualModeArch,
    kind: AllocatorKind,
    windows: &[Window],
) -> Vec<Option<SegmentAllocation>> {
    let allocator = Allocator::new(CostModel::new(arch), kind, false);
    windows
        .iter()
        .map(|(ops, deps)| allocator.allocate(ops, deps))
        .collect()
}

/// `==` alone would let `-0.0 == 0.0` or two NaNs slip through.
fn bit_identical(a: &Option<SegmentAllocation>, b: &Option<SegmentAllocation>) -> bool {
    a == b && a.as_ref().map(|x| x.latency.to_bits()) == b.as_ref().map(|x| x.latency.to_bits())
}

#[test]
fn excluded_fields_never_move_an_allocation() {
    for base in [presets::dynaplasia(), presets::prime()] {
        let perturbed = excluded(&base);
        for (field, arch) in &perturbed {
            assert_eq!(
                arch.allocation_fingerprint(),
                base.allocation_fingerprint(),
                "{}: {field} moved the allocation key",
                base.name()
            );
        }
        for model in MODELS {
            let windows = windows(model, &base);
            for kind in KINDS {
                // The base chip first, then each perturbation: one pass
                // a thread, since every pass is independent.
                let mut passes = std::thread::scope(|s| {
                    let handles: Vec<_> = std::iter::once(&base)
                        .chain(perturbed.iter().map(|(_, arch)| arch))
                        .map(|arch| s.spawn(|| allocate_all(arch, kind, &windows)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap())
                        .collect::<Vec<_>>()
                })
                .into_iter();
                let reference = passes.next().unwrap();
                for ((field, _), got) in perturbed.iter().zip(passes) {
                    for (w, (a, b)) in reference.iter().zip(&got).enumerate() {
                        assert!(
                            bit_identical(a, b),
                            "{}/{model}/{kind:?}: {field} moved window {w}: {a:?} vs {b:?}",
                            base.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn included_fields_move_the_key_and_some_allocation() {
    for base in [presets::dynaplasia(), presets::prime()] {
        let windows: Vec<Vec<Window>> = MODELS.iter().map(|m| windows(m, &base)).collect();
        for (field, arch) in included(&base) {
            assert_ne!(
                arch.allocation_fingerprint(),
                base.allocation_fingerprint(),
                "{}: {field} left the allocation key alone",
                base.name()
            );
            // The fast allocator is cheap and reads every included field
            // the MIP path does.
            let (ours, theirs) = (
                Allocator::new(CostModel::new(&base), AllocatorKind::Fast, false),
                Allocator::new(CostModel::new(&arch), AllocatorKind::Fast, false),
            );
            let moved = windows.iter().flatten().any(|(ops, deps)| {
                !bit_identical(&ours.allocate(ops, deps), &theirs.allocate(ops, deps))
            });
            assert!(
                moved,
                "{}: {field} moved no window's allocation",
                base.name()
            );
        }
    }
}
