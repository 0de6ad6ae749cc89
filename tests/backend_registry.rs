//! Smoke test: backend selection exposed through the facade crate —
//! `BackendKind` parsing, each kind as its own `Backend`, the session
//! builder's by-kind/by-name selection, and the suggestion-bearing
//! error for unknown names.

use std::time::Duration;

use cmswitch::prelude::*;

#[test]
fn backend_for_resolves_every_published_kind() {
    for kind in BackendKind::ALL {
        let backend: Box<dyn Backend> = Box::new(kind);
        assert_eq!(backend.name(), kind.name());
    }
}

/// `program` with every wall clock zeroed: what two compiles of one
/// graph must agree on bit for bit.
fn without_walls(mut program: CompiledProgram) -> CompiledProgram {
    program.stats.wall = Duration::ZERO;
    for stage in &mut program.stats.stage_wall {
        stage.wall = Duration::ZERO;
    }
    program
}

/// Table-driven over every kind: boxed as the session's backend it
/// compiles exactly what the by-kind selector compiles, through its own
/// segmentation stage, and its name, store key and wire name round-trip.
#[test]
fn every_kind_compiles_as_its_own_backend() {
    let arch = presets::tiny();
    let options = CompilerOptions::default();
    let graph = cmswitch::models::mlp::mlp(2, &[128, 256, 64]).unwrap();
    let table = [
        (BackendKind::Puma, "segment:puma-greedy", 0xe4a3_a4a5_c54a_ce11_u64),
        (BackendKind::Occ, "segment:occ-sequential", 0x0349_73a2_c537_a0a5),
        (BackendKind::CimMlc, "segment:cim-mlc-dp", 0x0eaf_5c2d_3357_92ad),
        (BackendKind::CmSwitch, "segment", 0x60ec_73fa_9bca_fce0),
    ];
    assert_eq!(table.map(|row| row.0), BackendKind::ALL);
    for (kind, segment_stage, pinned_key) in table {
        let boxed = Session::builder(arch.clone()).backend(Box::new(kind)).build();
        let by_kind = Session::builder(arch.clone()).backend_kind(kind).build();
        let program = boxed.compile_graph(&graph).unwrap();
        let stages: Vec<_> = program.stats.stage_wall.iter().map(|t| t.stage).collect();
        assert_eq!(stages, ["lower", "partition", segment_stage, "emit"], "{kind}");
        assert_eq!(
            without_walls(program),
            without_walls(by_kind.compile_graph(&graph).unwrap()),
            "{kind}"
        );

        assert_eq!(Backend::name(&kind), kind.name());
        assert_eq!(boxed.backend_name(), kind.name());
        assert_eq!(BackendKind::from_name(boxed.backend_name()), Ok(kind));
        let key = StoreKey::for_compile(&arch, boxed.backend_name(), &options, &graph);
        assert_eq!(key.hash(), pinned_key, "{kind}: {:#018x}", key.hash());
    }
}

#[test]
fn session_builder_selects_backends_by_kind() {
    for kind in BackendKind::ALL {
        let session = Session::builder(presets::tiny()).backend_kind(kind).build();
        assert_eq!(session.backend_name(), kind.name());
    }
}

#[test]
fn from_name_resolves_all_published_backends() {
    for name in ["puma", "occ", "cim-mlc", "cmswitch"] {
        let kind = BackendKind::from_name(name)
            .unwrap_or_else(|e| panic!("backend {name:?} must resolve: {e}"));
        assert_eq!(Backend::name(&kind), name);
        let session = Session::builder(presets::tiny()).backend_name(name).unwrap().build();
        assert_eq!(session.backend_name(), name);
    }
}

#[test]
fn unknown_names_error_with_the_known_backend_list() {
    for bogus in ["", "gpu", "CMSWITCH", "cim_mlc", "puma "] {
        let Err(err) = BackendKind::from_name(bogus) else {
            panic!("unknown backend {bogus:?} must not resolve");
        };
        assert_eq!(err.requested(), bogus);
        let msg = err.to_string();
        assert!(
            msg.contains("known backends: puma, occ, cim-mlc, cmswitch"),
            "error must suggest the known names, got: {msg}"
        );
        // The same error backs the session builder's by-name selection.
        assert_eq!(Session::builder(presets::tiny()).backend_name(bogus).err(), Some(err));
    }
}
