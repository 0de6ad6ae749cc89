//! Smoke test: backend selection exposed through the facade crate —
//! `BackendKind` parsing, `backend_for` instantiation, the session
//! builder's by-kind/by-name selection, and the suggestion-bearing
//! error for unknown names.

use cmswitch::prelude::*;

#[test]
fn backend_for_resolves_every_published_kind() {
    for kind in BackendKind::ALL {
        assert_eq!(backend_for(kind).name(), kind.name());
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
        assert_eq!(backend_for(kind).name(), name);
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
