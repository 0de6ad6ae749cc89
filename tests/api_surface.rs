//! Public-API surface guard: snapshots the facade `prelude` export
//! list. An accidental removal, rename or addition in
//! `cmswitch::prelude` fails this test, making public-surface changes
//! deliberate (update `EXPECTED` *and* the docs when the surface
//! really should change).

/// The blessed prelude surface, sorted.
const EXPECTED: &[&str] = &[
    "AllocationCache",
    "ArrayMode",
    "ArtifactStore",
    "Backend",
    "BackendKind",
    "BatchReport",
    "CancelToken",
    "CoSimOptions",
    "CompileError",
    "CompileOutcome",
    "CompileRequest",
    "CompileServer",
    "CompileStats",
    "CompiledProgram",
    "CompilerOptions",
    "DecodeLoop",
    "DecodeOptions",
    "DecodeTenant",
    "DiagnosticEvent",
    "Diagnostics",
    "DpMode",
    "DualModeArch",
    "EmitStage",
    "EngineReport",
    "EventEngine",
    "Flow",
    "Graph",
    "GraphBuilder",
    "LowerStage",
    "ParetoFrontier",
    "PartitionStage",
    "PipelineCx",
    "SegmentStage",
    "SequentialModel",
    "ServeReply",
    "ServeRequest",
    "ServerOptions",
    "Session",
    "SessionBackendExt",
    "SessionBuilder",
    "SessionSimExt",
    "Severity",
    "Stage",
    "StoreFetch",
    "StoreKey",
    "SweepReport",
    "SweepRunner",
    "SweepSpace",
    "TenancyReport",
    "TenantProgram",
    "Ticket",
    "UnknownBackend",
    "Verifier",
    "VerifyReport",
    "VerifyStage",
    "presets",
    "print_flow",
    "simulate",
];

/// Extracts the re-exported identifiers from the `pub mod prelude`
/// block of the facade's source.
fn prelude_exports() -> Vec<String> {
    let source = include_str!("../src/lib.rs");
    let start = source
        .find("pub mod prelude {")
        .expect("facade must define a prelude");
    let block = &source[start..];
    let end = block.find("\n}").expect("prelude block must close");
    let block = &block[..end];

    let mut items = Vec::new();
    for stmt in block.split(';') {
        let Some(use_pos) = stmt.find("pub use ") else {
            continue;
        };
        let path = stmt[use_pos + "pub use ".len()..].trim();
        // Either `root::path::{A, B, C}` or `root::path::Item`.
        if let Some(brace) = path.find('{') {
            let inner = path[brace + 1..].trim_end_matches('}');
            for item in inner.split(',') {
                let item = item.trim();
                if !item.is_empty() {
                    items.push(item.to_string());
                }
            }
        } else if let Some(last) = path.rsplit("::").next() {
            items.push(last.trim().to_string());
        }
    }
    items.sort();
    items
}

#[test]
fn prelude_surface_matches_snapshot() {
    let actual = prelude_exports();
    let expected: Vec<String> = {
        let mut v: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(
        actual, expected,
        "cmswitch::prelude changed — if intentional, update tests/api_surface.rs \
         (EXPECTED) and the README/ARCHITECTURE docs"
    );
}

#[test]
fn snapshot_items_exist_and_have_expected_shapes() {
    // Spot-check that the snapshot names are real, importable items
    // with the roles the docs promise (pure compile-time assertions).
    use cmswitch::prelude::*;

    fn assert_backend<T: Backend>() {}
    assert_backend::<BackendKind>();

    let _kinds: [BackendKind; 4] = BackendKind::ALL;
    let _builder: SessionBuilder = Session::builder(presets::tiny());
    let _opts: CompilerOptions = CompilerOptions::default()
        .with_dp_mode(DpMode::BoundPruned)
        .with_partition_budget(1.0);
    let _token: CancelToken = CancelToken::new();
    let _diag: Diagnostics = Diagnostics::new();
    let _verifier: Verifier = Verifier::new();
    let _report: VerifyReport = VerifyReport::new();
    assert!(Severity::Deny > Severity::Warn);
    let _opts: CompilerOptions = CompilerOptions::default().with_verify(true);
    let _srv_opts: ServerOptions = ServerOptions::default().with_workers(1);
    assert!(matches!(StoreFetch::Miss, StoreFetch::Miss));
    let _space: SweepSpace = SweepSpace::around(presets::tiny());
}

/// Collects every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_deprecated_shims_in_library_sources() {
    // A shim cannot come back without this snapshot noticing: nothing in
    // `src/` or any `crates/*/src/` is deprecated, and nothing has to
    // silence a deprecation to build.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_sources(&krate.unwrap().path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "the scan must reach the workspace crates");
    for file in files {
        let source = std::fs::read_to_string(&file).unwrap();
        for pattern in ["#[deprecated", "allow(deprecated)"] {
            assert!(!source.contains(pattern), "{}: contains `{pattern}`", file.display());
        }
    }
}

#[test]
fn no_second_measurement_system() {
    // Numbers live in the benchmark of record (`BENCHMARK.json` +
    // `benchmark/`). A Cargo bench target (declared, or auto-discovered
    // from a `benches/` directory) or a `BENCH_*.json` at the root is a
    // second system growing back.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.to_path_buf()];
    for dir in ["crates", "vendor"] {
        for package in std::fs::read_dir(root.join(dir)).unwrap() {
            packages.push(package.unwrap().path());
        }
    }
    assert!(packages.len() > 15, "the scan must reach the workspace crates");
    for package in packages {
        let manifest = std::fs::read_to_string(package.join("Cargo.toml")).unwrap();
        assert!(!manifest.contains("[[bench]]"), "{}: declares a bench target", package.display());
        assert!(!package.join("benches").exists(), "{}: has a benches/ directory", package.display());
    }
    for entry in std::fs::read_dir(root).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            !(name.starts_with("BENCH_") && name.ends_with(".json")),
            "{name}: results belong to the benchmark of record, not the repository root"
        );
    }
}
