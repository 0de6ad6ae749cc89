//! Dual-mode Enhanced Hardware Abstraction (DEHA) — §4.2 / Fig. 8 of the
//! paper.
//!
//! The abstraction models the CIM chip at two tiers (chip and array, the
//! paper's simplification) and carries exactly the Fig. 8 parameter set:
//!
//! * `#_switch_array` — number of dual-mode arrays,
//! * `array_size` — array geometry (e.g. 320×320),
//! * `internal_bw` / `extern_bw` — on-chip and main-memory bandwidth,
//! * `Method(c→m/m→c)` and `L(c→m/m→c)` — the mode-switch mechanism and
//!   its per-array latency,
//! * `L_func` — latencies of compute/read/write primitives.
//!
//! Derived quantities implement the constants of Table 1: `OP_cim`
//! (MACs/cycle a compute-mode array provides), `D_cim` (bytes/cycle a
//! memory-mode array provides) and `D_main` (bytes/cycle main memory plus
//! the original buffer provide).
//!
//! # Example
//!
//! ```
//! use cmswitch_arch::presets;
//!
//! let chip = presets::dynaplasia();
//! assert_eq!(chip.n_arrays(), 96);
//! assert_eq!(chip.array_rows(), 320);
//! // Tiles needed to hold a 640x700 weight matrix:
//! assert_eq!(chip.weight_tiles(640, 700), 2 * 3);
//! ```

#![warn(missing_docs)]

mod deha;
mod error;
mod mode;

pub mod presets;

pub use deha::{DualModeArch, DualModeArchBuilder, SwitchMethod};
pub use error::ArchError;
pub use mode::{ArrayId, ArrayMode};
