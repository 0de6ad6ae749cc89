//! The sweep grid: parameter axes over [`DualModeArch`] points.
//!
//! A [`SweepSpace`] is a cartesian grid over the five structural knobs
//! the paper's fixed chip never varies — array geometry, array count,
//! mode-switch latency, buffer capacity and off-chip bus width — seeded
//! from a base architecture that supplies every other DEHA parameter.
//! Instantiation is total: every grid point either becomes a valid
//! [`DualModeArch`] (built through the existing validated builder) or a
//! typed [`RejectedPoint`] diagnostic. Nothing panics on a bad axis
//! value, and the point order is deterministic (row-major over the axes
//! in declaration order), so sweeps are reproducible and cacheable.

use std::fmt;

use cmswitch_arch::{ArchError, DualModeArch};

/// The axis values of one grid point (the sweep's coordinate system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointSpec {
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Number of dual-mode arrays.
    pub n_arrays: usize,
    /// Per-array mode-switch latency, cycles (the mean of the two
    /// directions, rounded up; a swept value applies to both).
    pub switch_cycles: u64,
    /// On-chip buffer capacity, bytes.
    pub buffer_bytes: u64,
    /// Off-chip bus width, bytes/cycle.
    pub bus_width: u64,
}

impl PointSpec {
    /// The spec a concrete architecture occupies (switch latency is the
    /// mean of the two directions, rounded up).
    pub fn of(arch: &DualModeArch) -> Self {
        PointSpec {
            rows: arch.array_rows(),
            cols: arch.array_cols(),
            n_arrays: arch.n_arrays(),
            switch_cycles: (arch.switch_m2c_cycles() + arch.switch_c2m_cycles()).div_ceil(2),
            buffer_bytes: arch.buffer_bytes(),
            bus_width: arch.extern_bw(),
        }
    }

    /// Compact display name, e.g. `320x320x96-sw1-b80KiB-w32`.
    pub fn label(&self) -> String {
        format!(
            "{}x{}x{}-sw{}-b{}KiB-w{}",
            self.rows,
            self.cols,
            self.n_arrays,
            self.switch_cycles,
            self.buffer_bytes / 1024,
            self.bus_width
        )
    }
}

impl fmt::Display for PointSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Why a grid point did not become an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The architecture builder rejected the parameters.
    Arch(ArchError),
    /// Zero switch latency: a mode switch takes at least one cycle
    /// (the [`DualModeArch`] builder does not police switch cycles, so
    /// the sweep must).
    ZeroSwitchLatency,
    /// Zero buffer capacity while the base architecture advertises
    /// nonzero buffer bandwidth — bandwidth with nothing behind it.
    BufferWithoutCapacity,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Arch(e) => write!(f, "architecture builder rejected point: {e}"),
            SweepError::ZeroSwitchLatency => {
                write!(f, "mode-switch latency must be at least one cycle")
            }
            SweepError::BufferWithoutCapacity => {
                write!(f, "zero-byte buffer cannot back nonzero buffer bandwidth")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Arch(e) => Some(e),
            _ => None,
        }
    }
}

/// One instantiated grid point: its coordinates and the architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Grid coordinates.
    pub spec: PointSpec,
    /// The validated architecture at those coordinates.
    pub arch: DualModeArch,
}

/// A grid point the instantiation rejected, with the typed reason.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedPoint {
    /// Grid coordinates of the rejected point.
    pub spec: PointSpec,
    /// Why it was rejected.
    pub reason: SweepError,
}

/// The instantiated grid: valid points in deterministic order plus every
/// rejection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepGrid {
    /// Valid architecture points, row-major over the axes.
    pub points: Vec<SweepPoint>,
    /// Rejected grid coordinates with diagnostics.
    pub rejected: Vec<RejectedPoint>,
}

/// Cartesian axes over the dual-mode design space. Build with
/// [`SweepSpace::around`], override axes with the `with_*` setters
/// (an axis left alone stays a single point at the base value), then
/// [`SweepSpace::instantiate`].
///
/// ```
/// use cmswitch_arch::presets;
/// use cmswitch_dse::SweepSpace;
///
/// let grid = SweepSpace::around(presets::tiny())
///     .with_array_counts([4, 8])
///     .with_switch_latencies([1, 4])
///     .instantiate();
/// assert_eq!(grid.points.len(), 4);
/// assert!(grid.rejected.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpace {
    base: DualModeArch,
    array_sizes: Vec<(usize, usize)>,
    array_counts: Vec<usize>,
    /// `(m→c, c→m)` pairs: symmetric once swept, the base's own pair
    /// while the axis is left alone.
    switch_latencies: Vec<(u64, u64)>,
    buffer_bytes: Vec<u64>,
    bus_widths: Vec<u64>,
}

impl SweepSpace {
    /// A degenerate space holding exactly the base architecture's point;
    /// widen axes with the setters.
    pub fn around(base: DualModeArch) -> Self {
        let spec = PointSpec::of(&base);
        SweepSpace {
            array_sizes: vec![(spec.rows, spec.cols)],
            array_counts: vec![spec.n_arrays],
            switch_latencies: vec![(base.switch_m2c_cycles(), base.switch_c2m_cycles())],
            buffer_bytes: vec![spec.buffer_bytes],
            bus_widths: vec![spec.bus_width],
            base,
        }
    }

    /// The base architecture supplying all non-swept parameters.
    pub fn base(&self) -> &DualModeArch {
        &self.base
    }

    /// Sets the array-geometry axis (rows × cols per array).
    #[must_use]
    pub fn with_array_sizes(mut self, sizes: impl Into<Vec<(usize, usize)>>) -> Self {
        self.array_sizes = sizes.into();
        self
    }

    /// Sets the array-count axis.
    #[must_use]
    pub fn with_array_counts(mut self, counts: impl Into<Vec<usize>>) -> Self {
        self.array_counts = counts.into();
        self
    }

    /// Sets the mode-switch latency axis (cycles, both directions).
    #[must_use]
    pub fn with_switch_latencies(mut self, latencies: impl Into<Vec<u64>>) -> Self {
        self.switch_latencies = latencies.into().into_iter().map(|l| (l, l)).collect();
        self
    }

    /// Sets the buffer-capacity axis (bytes).
    #[must_use]
    pub fn with_buffer_bytes(mut self, bytes: impl Into<Vec<u64>>) -> Self {
        self.buffer_bytes = bytes.into();
        self
    }

    /// Sets the off-chip bus-width axis (bytes/cycle).
    #[must_use]
    pub fn with_bus_widths(mut self, widths: impl Into<Vec<u64>>) -> Self {
        self.bus_widths = widths.into();
        self
    }

    /// Number of grid coordinates (valid or not). An axis emptied by a
    /// setter empties the whole grid.
    pub fn len(&self) -> usize {
        self.array_sizes.len()
            * self.array_counts.len()
            * self.switch_latencies.len()
            * self.buffer_bytes.len()
            * self.bus_widths.len()
    }

    /// Whether the grid holds no coordinates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Instantiates every grid coordinate, splitting valid points from
    /// typed rejections. Deterministic: points come out row-major over
    /// (size, count, switch, buffer, bus) in axis-value order, so two
    /// instantiations of an equal space are identical.
    pub fn instantiate(&self) -> SweepGrid {
        let mut grid = SweepGrid::default();
        for &(rows, cols) in &self.array_sizes {
            for &n_arrays in &self.array_counts {
                for &(m2c, c2m) in &self.switch_latencies {
                    for &buffer in &self.buffer_bytes {
                        for &bus in &self.bus_widths {
                            let spec = PointSpec {
                                rows,
                                cols,
                                n_arrays,
                                switch_cycles: (m2c + c2m).div_ceil(2),
                                buffer_bytes: buffer,
                                bus_width: bus,
                            };
                            match self.build_point(spec, (m2c, c2m)) {
                                Ok(arch) => grid.points.push(SweepPoint { spec, arch }),
                                Err(reason) => {
                                    grid.rejected.push(RejectedPoint { spec, reason })
                                }
                            }
                        }
                    }
                }
            }
        }
        grid
    }

    fn build_point(
        &self,
        spec: PointSpec,
        (m2c, c2m): (u64, u64),
    ) -> Result<DualModeArch, SweepError> {
        if m2c == 0 || c2m == 0 {
            return Err(SweepError::ZeroSwitchLatency);
        }
        if spec.buffer_bytes == 0 && self.base.buffer_bw() > 0 {
            return Err(SweepError::BufferWithoutCapacity);
        }
        DualModeArch::builder(format!("{}-{}", self.base.name(), spec.label()))
            .array_size(spec.rows, spec.cols)
            .n_arrays(spec.n_arrays)
            .switch_cycles(m2c, c2m)
            .buffer_bytes(spec.buffer_bytes)
            .extern_bw(spec.bus_width)
            .internal_bw(self.base.internal_bw())
            .buffer_bw(self.base.buffer_bw())
            .compute_pass_cycles(self.base.compute_pass_cycles())
            .write_row_cycles(self.base.write_row_cycles())
            .write_parallelism(self.base.write_parallelism())
            .write_cost_factor(self.base.write_cost_factor())
            .switch_method(self.base.switch_method())
            .build()
            .map_err(SweepError::Arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmswitch_arch::presets;

    #[test]
    fn degenerate_space_is_the_base_point() {
        let base = presets::dynaplasia();
        let grid = SweepSpace::around(base.clone()).instantiate();
        assert_eq!(grid.points.len(), 1);
        assert!(grid.rejected.is_empty());
        let p = &grid.points[0];
        assert_eq!(p.spec, PointSpec::of(&base));
        // The instantiated point inherits every non-swept parameter, so
        // it is fingerprint-identical to the base chip.
        assert_eq!(p.arch.fingerprint(), base.fingerprint());
    }

    fn with_switch(m2c: u64, c2m: u64) -> DualModeArch {
        DualModeArch::builder("asym")
            .switch_cycles(m2c, c2m)
            .build()
            .unwrap()
    }

    #[test]
    fn degenerate_space_keeps_an_asymmetric_switch_pair() {
        // The switch axis used to be seeded with the rounded-up mean, so
        // a (1, 4) base came back as a (3, 3) chip.
        let base = with_switch(1, 4);
        let grid = SweepSpace::around(base.clone()).instantiate();
        let p = &grid.points[0];
        assert_eq!(p.arch.fingerprint(), base.fingerprint());
        assert_eq!((p.arch.switch_m2c_cycles(), p.arch.switch_c2m_cycles()), (1, 4));
        assert_eq!(p.spec, PointSpec::of(&base));
        // Sweeping the axis stays symmetric.
        let swept = SweepSpace::around(base).with_switch_latencies([2]).instantiate();
        let arch = &swept.points[0].arch;
        assert_eq!((arch.switch_m2c_cycles(), arch.switch_c2m_cycles()), (2, 2));
    }

    #[test]
    fn zero_latency_in_either_direction_is_rejected() {
        for (m2c, c2m) in [(0, 3), (3, 0)] {
            let grid = SweepSpace::around(with_switch(m2c, c2m)).instantiate();
            assert!(grid.points.is_empty());
            assert_eq!(grid.rejected[0].reason, SweepError::ZeroSwitchLatency);
        }
    }

    #[test]
    fn grid_is_the_axis_product_in_row_major_order() {
        let grid = SweepSpace::around(presets::tiny())
            .with_array_sizes([(32, 32), (64, 64)])
            .with_array_counts([4, 8])
            .with_bus_widths([8, 16])
            .instantiate();
        assert_eq!(grid.points.len(), 8);
        let firsts: Vec<(usize, usize, u64)> = grid
            .points
            .iter()
            .map(|p| (p.spec.rows, p.spec.n_arrays, p.spec.bus_width))
            .collect();
        assert_eq!(
            firsts,
            vec![
                (32, 4, 8),
                (32, 4, 16),
                (32, 8, 8),
                (32, 8, 16),
                (64, 4, 8),
                (64, 4, 16),
                (64, 8, 8),
                (64, 8, 16),
            ]
        );
        // Distinct coordinates ⇒ distinct chips.
        let mut fps: Vec<u64> = grid.points.iter().map(|p| p.arch.fingerprint()).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 8);
    }

    #[test]
    fn invalid_coordinates_become_typed_rejections_not_panics() {
        let grid = SweepSpace::around(presets::tiny())
            .with_array_counts([0, 8])
            .with_switch_latencies([0, 1])
            .with_buffer_bytes([0, 4096])
            .instantiate();
        assert_eq!(grid.points.len() + grid.rejected.len(), 8);
        // Only (8 arrays, 1 cycle, 4096 B) survives.
        assert_eq!(grid.points.len(), 1);
        assert!(grid
            .rejected
            .iter()
            .any(|r| matches!(r.reason, SweepError::ZeroSwitchLatency)));
        assert!(grid
            .rejected
            .iter()
            .any(|r| matches!(r.reason, SweepError::BufferWithoutCapacity)));
        assert!(grid.rejected.iter().any(|r| matches!(
            r.reason,
            SweepError::Arch(ArchError::ZeroParameter("n_arrays"))
        )));
        for r in &grid.rejected {
            assert!(!r.reason.to_string().is_empty());
        }
    }

    #[test]
    fn empty_axis_empties_the_grid() {
        let space = SweepSpace::around(presets::tiny()).with_array_counts(Vec::new());
        assert!(space.is_empty());
        assert_eq!(space.len(), 0);
        let grid = space.instantiate();
        assert!(grid.points.is_empty() && grid.rejected.is_empty());
    }

    #[test]
    fn spec_labels_are_compact_and_stable() {
        let spec = PointSpec {
            rows: 320,
            cols: 320,
            n_arrays: 96,
            switch_cycles: 1,
            buffer_bytes: 80 * 1024,
            bus_width: 32,
        };
        assert_eq!(spec.label(), "320x320x96-sw1-b80KiB-w32");
        assert_eq!(format!("{spec}"), spec.label());
    }
}
