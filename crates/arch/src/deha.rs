use serde::{Deserialize, Serialize};

use crate::ArchError;

/// How the chip implements the compute↔memory switch
/// (`Method_{c→m}/Method_{m→c}` in Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SwitchMethod {
    /// DynaPlasia-style: drive the global input-activation lines
    /// (GIA/GIAb) high for memory mode, with IA//IA for compute (Fig. 3).
    GlobalWordline,
    /// Reconfigure the bitline drivers / sense amplifiers.
    BitlineDriver,
}

/// The Dual-mode Enhanced Hardware Abstraction: every parameter of Fig. 8
/// plus the derived Table 1 constants.
///
/// Construct with [`DualModeArch::builder`]; [`crate::presets`] provides
/// the paper's DynaPlasia (Table 2) and PRIME configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DualModeArch {
    name: String,
    n_arrays: usize,
    array_rows: usize,
    array_cols: usize,
    buffer_bytes: u64,
    /// Bytes/cycle a memory-mode array delivers on-chip (from
    /// `internal_bw`, 32 b/cycle in Table 2 → 4 B/cycle).
    internal_bw: u64,
    /// Bytes/cycle of the main-memory link.
    extern_bw: u64,
    /// Bytes/cycle the original (non-CIM) on-chip buffer delivers.
    buffer_bw: u64,
    /// Cycles for one full-array compute pass (one input vector of
    /// `array_rows` elements against the resident weights).
    compute_pass_cycles: u64,
    /// Per-array latency of switching memory→compute, cycles
    /// (`L_{m→c}`).
    switch_m2c_cycles: u64,
    /// Per-array latency of switching compute→memory, cycles
    /// (`L_{c→m}`).
    switch_c2m_cycles: u64,
    /// Cycles to write one array row of cells (eDRAM ≈ 1).
    write_row_cycles: u64,
    /// Rows written concurrently per cycle (wide eDRAM write ports > 1).
    write_parallelism: u64,
    /// Multiplier on cell-write cost (1 for eDRAM DynaPlasia; >1 for
    /// ReRAM PRIME whose cell writes are slow).
    write_cost_factor: u64,
    switch_method: SwitchMethod,
}

impl DualModeArch {
    /// Starts building an architecture description.
    pub fn builder(name: impl Into<String>) -> DualModeArchBuilder {
        DualModeArchBuilder::new(name)
    }

    /// Architecture name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dual-mode switchable arrays (`#_switch_array`).
    pub fn n_arrays(&self) -> usize {
        self.n_arrays
    }

    /// Array rows (reduction dimension capacity).
    pub fn array_rows(&self) -> usize {
        self.array_rows
    }

    /// Array columns (output dimension capacity).
    pub fn array_cols(&self) -> usize {
        self.array_cols
    }

    /// Capacity of one array in memory mode, bytes (int8 cells).
    pub fn array_bytes(&self) -> u64 {
        (self.array_rows * self.array_cols) as u64
    }

    /// Size of the original (non-CIM) on-chip buffer, bytes.
    pub fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    /// `OP_cim`: MACs/cycle one compute-mode array provides
    /// (∝ `array_size`, Table 1).
    pub fn op_cim(&self) -> f64 {
        (self.array_rows * self.array_cols) as f64 / self.compute_pass_cycles as f64
    }

    /// `D_cim`: bytes/cycle one memory-mode array provides (Table 1).
    pub fn d_cim(&self) -> f64 {
        self.internal_bw as f64
    }

    /// `D_main`: bytes/cycle main memory plus the original on-chip buffer
    /// provide (`∝ extern_bw + internal_bw`, Table 1).
    pub fn d_main(&self) -> f64 {
        (self.extern_bw + self.buffer_bw) as f64
    }

    /// Main-memory link bandwidth, bytes/cycle.
    pub fn extern_bw(&self) -> u64 {
        self.extern_bw
    }

    /// Per-array internal bandwidth in memory mode, bytes/cycle (the raw
    /// Fig. 8 parameter behind [`DualModeArch::d_cim`]).
    pub fn internal_bw(&self) -> u64 {
        self.internal_bw
    }

    /// Bandwidth of the original (non-CIM) on-chip buffer, bytes/cycle.
    pub fn buffer_bw(&self) -> u64 {
        self.buffer_bw
    }

    /// Cycles for one full-array compute pass.
    pub fn compute_pass_cycles(&self) -> u64 {
        self.compute_pass_cycles
    }

    /// Cycles to write one array row of cells.
    pub fn write_row_cycles(&self) -> u64 {
        self.write_row_cycles
    }

    /// Rows written concurrently per cycle (write-port width).
    pub fn write_parallelism(&self) -> u64 {
        self.write_parallelism
    }

    /// Multiplier on cell-write cost (1 for eDRAM, >1 for ReRAM).
    pub fn write_cost_factor(&self) -> u64 {
        self.write_cost_factor
    }

    /// Per-array switch latency memory→compute, cycles.
    pub fn switch_m2c_cycles(&self) -> u64 {
        self.switch_m2c_cycles
    }

    /// Per-array switch latency compute→memory, cycles.
    pub fn switch_c2m_cycles(&self) -> u64 {
        self.switch_c2m_cycles
    }

    /// The switch mechanism.
    pub fn switch_method(&self) -> SwitchMethod {
        self.switch_method
    }

    /// `Latency_write`: cycles to fill one array with weights — the
    /// `L_func(write)` of Fig. 8, a per-array *cell-write* latency
    /// (row-parallel writes, one row per `write_row_cycles`), used by the
    /// inter-segment reload cost of Eq. 2. ReRAM devices scale it through
    /// `write_cost_factor`.
    pub fn lat_write_array(&self) -> u64 {
        (self.array_rows as u64 * self.write_row_cycles * self.write_cost_factor)
            .div_ceil(self.write_parallelism.max(1))
    }

    /// A stable 64-bit fingerprint of every parameter that influences
    /// compilation decisions (FNV-1a over the Fig. 8 parameter set).
    ///
    /// Two architectures with equal fingerprints produce identical cost
    /// models and therefore identical compiled programs, so this is the
    /// key of everything that caches a *whole-chip* result: the artifact
    /// store's `StoreKey`, the DSE record memo and
    /// `SweepRecord::fingerprint` ([`crate::presets`] instances all
    /// differ). The per-segment allocation cache keys on the narrower
    /// [`DualModeArch::allocation_fingerprint`] instead. The `name` is
    /// deliberately excluded: a renamed but otherwise identical chip may
    /// share cached results.
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive destructuring (no `..`): adding a field to
        // `DualModeArch` fails to compile here until the fingerprint
        // accounts for it, so no parameter can silently fall out of the
        // store key.
        let &DualModeArch {
            name: _,
            n_arrays,
            array_rows,
            array_cols,
            buffer_bytes,
            internal_bw,
            extern_bw,
            buffer_bw,
            compute_pass_cycles,
            switch_m2c_cycles,
            switch_c2m_cycles,
            write_row_cycles,
            write_parallelism,
            write_cost_factor,
            switch_method,
        } = self;
        let words = [
            n_arrays as u64,
            array_rows as u64,
            array_cols as u64,
            buffer_bytes,
            internal_bw,
            extern_bw,
            buffer_bw,
            compute_pass_cycles,
            switch_m2c_cycles,
            switch_c2m_cycles,
            write_row_cycles,
            write_parallelism,
            write_cost_factor,
            match switch_method {
                SwitchMethod::GlobalWordline => 0,
                SwitchMethod::BitlineDriver => 1,
            },
        ];
        cmswitch_solver::stable_hash64(&words)
    }

    /// A stable 64-bit fingerprint of exactly the parameters the
    /// per-segment allocator reads (Eqs. 6–10 and the Eq. 2 reload
    /// trade-off) — the architecture component of the allocation-cache
    /// key.
    ///
    /// Two architectures with equal allocation fingerprints return the
    /// same allocation for every segment, even where their
    /// [`DualModeArch::fingerprint`]s differ: the mode-switch latencies
    /// enter only Eq. 1's `T_swc` and the buffer capacity only the Eq. 4
    /// write-back, both costed by the segmentation DP *around* the
    /// allocator, and the switch mechanism only the DSE area/power
    /// model. So a design sweep over those axes solves each allocation
    /// problem once (`tests/allocation_key.rs` checks the claim by
    /// running it).
    pub fn allocation_fingerprint(&self) -> u64 {
        // Exhaustive destructuring, as in `fingerprint`: a new field
        // fails to compile here until someone decides whether the
        // allocator reads it.
        let &DualModeArch {
            name: _,
            n_arrays,
            // Also set lowering's `min_tiles`, which the segment
            // signature does not carry.
            array_rows,
            array_cols,
            // Eq. 4 write-back capacity only (the DP, not the allocator).
            buffer_bytes: _,
            internal_bw,
            extern_bw,
            buffer_bw,
            compute_pass_cycles,
            // Eq. 1 `T_swc` and the simulators only.
            switch_m2c_cycles: _,
            switch_c2m_cycles: _,
            write_row_cycles,
            write_parallelism,
            write_cost_factor,
            // Read by no cost model; the DSE area/power model prices it.
            switch_method: _,
        } = self;
        let words = [
            n_arrays as u64,
            array_rows as u64,
            array_cols as u64,
            internal_bw,
            extern_bw,
            buffer_bw,
            compute_pass_cycles,
            write_row_cycles,
            write_parallelism,
            write_cost_factor,
        ];
        cmswitch_solver::stable_hash64(&words)
    }

    /// Number of array tiles needed to hold a `k × n` weight matrix
    /// (the minimal compute-array requirement of an operator).
    pub fn weight_tiles(&self, k: usize, n: usize) -> usize {
        k.div_ceil(self.array_rows) * n.div_ceil(self.array_cols)
    }

    /// Total memory-mode capacity of `count` arrays, bytes.
    pub fn mem_capacity(&self, count: usize) -> u64 {
        self.array_bytes() * count as u64
    }

    /// Total weight capacity of the whole chip if every array computes,
    /// bytes.
    pub fn chip_weight_capacity(&self) -> u64 {
        self.mem_capacity(self.n_arrays)
    }

    /// A sub-chip view holding `n_arrays` of this chip's arrays: every
    /// array/timing parameter is identical, only the array count
    /// shrinks. This is the compile target of a static multi-tenant
    /// partition — a tenant compiles (and is capacity-verified) against
    /// exactly the arrays it owns, while shared resources the partition
    /// does *not* split (the off-chip link, buffer, vector unit) keep
    /// their full-chip parameters and are arbitrated at simulation
    /// time.
    ///
    /// # Errors
    ///
    /// [`ArchError::ZeroParameter`] when `n_arrays` is zero.
    pub fn partition(&self, n_arrays: usize) -> Result<DualModeArch, ArchError> {
        DualModeArch::builder(format!("{}/p{}", self.name, n_arrays))
            .n_arrays(n_arrays)
            .array_size(self.array_rows, self.array_cols)
            .buffer_bytes(self.buffer_bytes)
            .internal_bw(self.internal_bw)
            .extern_bw(self.extern_bw)
            .buffer_bw(self.buffer_bw)
            .compute_pass_cycles(self.compute_pass_cycles)
            .switch_cycles(self.switch_m2c_cycles, self.switch_c2m_cycles)
            .write_row_cycles(self.write_row_cycles)
            .write_parallelism(self.write_parallelism)
            .write_cost_factor(self.write_cost_factor)
            .switch_method(self.switch_method)
            .build()
    }
}

/// Builder for [`DualModeArch`] (validates on [`DualModeArchBuilder::build`]).
#[derive(Debug, Clone)]
pub struct DualModeArchBuilder {
    name: String,
    n_arrays: usize,
    array_rows: usize,
    array_cols: usize,
    buffer_bytes: u64,
    internal_bw: u64,
    extern_bw: u64,
    buffer_bw: u64,
    compute_pass_cycles: u64,
    switch_m2c_cycles: u64,
    switch_c2m_cycles: u64,
    write_row_cycles: u64,
    write_parallelism: u64,
    write_cost_factor: u64,
    switch_method: SwitchMethod,
}

impl DualModeArchBuilder {
    fn new(name: impl Into<String>) -> Self {
        // Defaults follow the DynaPlasia configuration of Table 2.
        DualModeArchBuilder {
            name: name.into(),
            n_arrays: 96,
            array_rows: 320,
            array_cols: 320,
            buffer_bytes: 8 * 10 * 1024,
            internal_bw: 4,
            extern_bw: 32,
            buffer_bw: 32,
            compute_pass_cycles: 64,
            switch_m2c_cycles: 1,
            switch_c2m_cycles: 1,
            write_row_cycles: 1,
            write_parallelism: 8,
            write_cost_factor: 1,
            switch_method: SwitchMethod::GlobalWordline,
        }
    }

    /// Sets the number of dual-mode arrays.
    pub fn n_arrays(mut self, n: usize) -> Self {
        self.n_arrays = n;
        self
    }

    /// Sets the array geometry.
    pub fn array_size(mut self, rows: usize, cols: usize) -> Self {
        self.array_rows = rows;
        self.array_cols = cols;
        self
    }

    /// Sets the original on-chip buffer size in bytes.
    pub fn buffer_bytes(mut self, bytes: u64) -> Self {
        self.buffer_bytes = bytes;
        self
    }

    /// Sets the per-array internal bandwidth (bytes/cycle).
    pub fn internal_bw(mut self, bw: u64) -> Self {
        self.internal_bw = bw;
        self
    }

    /// Sets the main-memory bandwidth (bytes/cycle).
    pub fn extern_bw(mut self, bw: u64) -> Self {
        self.extern_bw = bw;
        self
    }

    /// Sets the original buffer bandwidth (bytes/cycle).
    pub fn buffer_bw(mut self, bw: u64) -> Self {
        self.buffer_bw = bw;
        self
    }

    /// Sets the cycles per full-array compute pass.
    pub fn compute_pass_cycles(mut self, cycles: u64) -> Self {
        self.compute_pass_cycles = cycles;
        self
    }

    /// Sets both switch latencies (cycles per array).
    pub fn switch_cycles(mut self, m2c: u64, c2m: u64) -> Self {
        self.switch_m2c_cycles = m2c;
        self.switch_c2m_cycles = c2m;
        self
    }

    /// Sets the cycles per array-row cell write.
    pub fn write_row_cycles(mut self, cycles: u64) -> Self {
        self.write_row_cycles = cycles;
        self
    }

    /// Sets how many rows are written concurrently per cycle.
    pub fn write_parallelism(mut self, rows: u64) -> Self {
        self.write_parallelism = rows;
        self
    }

    /// Sets the cell-write cost multiplier (ReRAM > 1).
    pub fn write_cost_factor(mut self, factor: u64) -> Self {
        self.write_cost_factor = factor;
        self
    }

    /// Sets the switch mechanism.
    pub fn switch_method(mut self, method: SwitchMethod) -> Self {
        self.switch_method = method;
        self
    }

    /// Validates and builds the architecture description.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::ZeroParameter`] for any zero critical
    /// parameter.
    pub fn build(self) -> Result<DualModeArch, ArchError> {
        for (value, name) in [
            (self.n_arrays as u64, "n_arrays"),
            (self.array_rows as u64, "array_rows"),
            (self.array_cols as u64, "array_cols"),
            (self.internal_bw, "internal_bw"),
            (self.extern_bw, "extern_bw"),
            (self.compute_pass_cycles, "compute_pass_cycles"),
            (self.write_row_cycles, "write_row_cycles"),
            (self.write_parallelism, "write_parallelism"),
            (self.write_cost_factor, "write_cost_factor"),
        ] {
            if value == 0 {
                return Err(ArchError::ZeroParameter(name));
            }
        }
        Ok(DualModeArch {
            name: self.name,
            n_arrays: self.n_arrays,
            array_rows: self.array_rows,
            array_cols: self.array_cols,
            buffer_bytes: self.buffer_bytes,
            internal_bw: self.internal_bw,
            extern_bw: self.extern_bw,
            buffer_bw: self.buffer_bw,
            compute_pass_cycles: self.compute_pass_cycles,
            switch_m2c_cycles: self.switch_m2c_cycles,
            switch_c2m_cycles: self.switch_c2m_cycles,
            write_row_cycles: self.write_row_cycles,
            write_parallelism: self.write_parallelism,
            write_cost_factor: self.write_cost_factor,
            switch_method: self.switch_method,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_table2() {
        let a = DualModeArch::builder("d").build().unwrap();
        assert_eq!(a.n_arrays(), 96);
        assert_eq!((a.array_rows(), a.array_cols()), (320, 320));
        assert_eq!(a.buffer_bytes(), 80 * 1024);
        assert_eq!(a.switch_m2c_cycles(), 1);
        assert_eq!(a.switch_c2m_cycles(), 1);
        assert_eq!(a.switch_method(), SwitchMethod::GlobalWordline);
    }

    #[test]
    fn derived_quantities() {
        let a = DualModeArch::builder("d").build().unwrap();
        assert_eq!(a.array_bytes(), 320 * 320);
        assert!((a.op_cim() - (320.0 * 320.0 / 64.0)).abs() < 1e-9);
        assert!((a.d_cim() - 4.0).abs() < 1e-9);
        assert!((a.d_main() - 64.0).abs() < 1e-9);
        assert_eq!(a.lat_write_array(), 40);
    }

    #[test]
    fn weight_tiles_rounding() {
        let a = DualModeArch::builder("d").build().unwrap();
        assert_eq!(a.weight_tiles(320, 320), 1);
        assert_eq!(a.weight_tiles(321, 320), 2);
        assert_eq!(a.weight_tiles(1, 1), 1);
        assert_eq!(a.weight_tiles(640, 700), 2 * 3);
    }

    #[test]
    fn zero_parameters_rejected() {
        assert!(matches!(
            DualModeArch::builder("d").n_arrays(0).build(),
            Err(ArchError::ZeroParameter("n_arrays"))
        ));
        assert!(matches!(
            DualModeArch::builder("d").extern_bw(0).build(),
            Err(ArchError::ZeroParameter("extern_bw"))
        ));
    }

    #[test]
    fn write_cost_factor_scales_reload() {
        let dram = DualModeArch::builder("d").build().unwrap();
        let reram = DualModeArch::builder("r").write_cost_factor(4).build().unwrap();
        assert_eq!(reram.lat_write_array(), 4 * dram.lat_write_array());
    }

    #[test]
    fn fingerprint_distinguishes_parameters_not_names() {
        let base = DualModeArch::builder("a").build().unwrap();
        let renamed = DualModeArch::builder("b").build().unwrap();
        assert_eq!(base.fingerprint(), renamed.fingerprint());
        let bigger = DualModeArch::builder("a").n_arrays(128).build().unwrap();
        assert_ne!(base.fingerprint(), bigger.fingerprint());
        let slower = DualModeArch::builder("a").switch_cycles(2, 1).build().unwrap();
        assert_ne!(base.fingerprint(), slower.fingerprint());
        let reram = DualModeArch::builder("a")
            .switch_method(SwitchMethod::BitlineDriver)
            .build()
            .unwrap();
        assert_ne!(base.fingerprint(), reram.fingerprint());
    }

    #[test]
    fn raw_parameter_accessors() {
        let a = DualModeArch::builder("d").build().unwrap();
        assert_eq!(a.internal_bw(), 4);
        assert_eq!(a.buffer_bw(), 32);
        assert_eq!(a.compute_pass_cycles(), 64);
        assert_eq!(a.write_row_cycles(), 1);
        assert_eq!(a.write_parallelism(), 8);
        assert_eq!(a.write_cost_factor(), 1);
    }

    #[test]
    fn capacity_helpers() {
        let a = DualModeArch::builder("d").build().unwrap();
        assert_eq!(a.mem_capacity(2), 2 * 320 * 320);
        assert_eq!(a.chip_weight_capacity(), 96 * 320 * 320);
    }

    #[test]
    fn partition_shrinks_only_the_array_count() {
        let chip = DualModeArch::builder("d").build().unwrap();
        let half = chip.partition(48).unwrap();
        assert_eq!(half.n_arrays(), 48);
        assert_eq!(half.array_rows(), chip.array_rows());
        assert_eq!(half.extern_bw(), chip.extern_bw());
        assert_eq!(half.buffer_bytes(), chip.buffer_bytes());
        assert_eq!(half.switch_m2c_cycles(), chip.switch_m2c_cycles());
        assert_eq!(half.lat_write_array(), chip.lat_write_array());
        assert_eq!(half.chip_weight_capacity(), chip.chip_weight_capacity() / 2);
        // Distinct compile target: the fingerprint (and thus every
        // cache key) differs from the full chip's.
        assert_ne!(half.fingerprint(), chip.fingerprint());
        // A whole-chip "partition" reproduces the chip's fingerprint.
        assert_eq!(chip.partition(96).unwrap().fingerprint(), chip.fingerprint());
        assert!(chip.partition(0).is_err());
    }
}
