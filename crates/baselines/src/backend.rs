//! The [`SessionBackendExt`] sugar: a `SessionBuilder` selects a
//! [`BackendKind`] by value or by wire name.

use cmswitch_core::{BackendKind, SessionBuilder, UnknownBackend};

/// Backend selection sugar for `SessionBuilder`: pick any published
/// strategy by [`BackendKind`] or by wire name.
///
/// ```
/// use cmswitch_arch::presets;
/// use cmswitch_baselines::SessionBackendExt;
/// use cmswitch_core::{BackendKind, Session};
///
/// let session = Session::builder(presets::tiny())
///     .backend_kind(BackendKind::CimMlc)
///     .build();
/// assert_eq!(session.backend_name(), "cim-mlc");
/// ```
pub trait SessionBackendExt: Sized {
    /// Selects the backend strategy by kind.
    #[must_use]
    fn backend_kind(self, kind: BackendKind) -> Self;

    /// Selects the backend strategy by wire name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownBackend`] (listing the known names) when `name`
    /// is not a published backend.
    fn backend_name(self, name: &str) -> Result<Self, UnknownBackend>;
}

impl SessionBackendExt for SessionBuilder {
    fn backend_kind(self, kind: BackendKind) -> Self {
        self.backend(Box::new(kind))
    }

    fn backend_name(self, name: &str) -> Result<Self, UnknownBackend> {
        Ok(self.backend_kind(BackendKind::from_name(name)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;
    use cmswitch_core::{Backend, Session};

    #[test]
    fn backend_for_resolves_every_kind() {
        for kind in BackendKind::ALL {
            let backend: Box<dyn Backend> = Box::new(kind);
            assert_eq!(backend.name(), kind.name());
        }
    }

    #[test]
    fn session_builder_selects_by_kind_and_name() {
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
        for kind in BackendKind::ALL {
            let session = Session::builder(presets::tiny()).backend_kind(kind).build();
            assert_eq!(session.backend_name(), kind.name());
            let p = session.compile_graph(&g).unwrap();
            assert!(p.predicted_latency.is_finite() && p.predicted_latency > 0.0);
        }
        let session = Session::builder(presets::tiny())
            .backend_name("puma")
            .unwrap()
            .build();
        assert_eq!(session.backend_name(), "puma");
        let err = Session::builder(presets::tiny())
            .backend_name("tvm")
            .unwrap_err();
        assert!(err.to_string().contains("cmswitch"));
    }
}
