//! State-graph based complex-gate synthesis of speed-independent circuits.
//!
//! The thesis synthesizes its benchmark netlists with *petrify* (ref. \[60\]); this
//! crate provides the equivalent substrate: given a consistent STG with
//! complete state coding (CSC), it derives, for every non-input signal, the
//! next-state function over a minimal well-defined support and produces the
//! irredundant prime pull-up/pull-down covers (`f↑` / `f↓`) the relaxation
//! engine consumes.
//!
//! Synthesis recipe (standard SG-based flow, thesis Sec. 3.4 definitions):
//!
//! 1. generate the binary-coded state graph;
//! 2. check CSC: two reachable states with equal codes must excite the same
//!    non-input signals in the same direction;
//! 3. for each non-input signal `a`, the on-set is
//!    `ER(a+) ∪ QR(a+)` and the off-set `ER(a-) ∪ QR(a-)`; unreachable
//!    codes are don't-cares;
//! 4. greedily shrink the support while the function stays well defined,
//!    then run exact two-level minimization.
//!
//! # Example
//!
//! ```
//! use si_stg::parse_astg;
//! use si_synth::synthesize;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stg = parse_astg(si_stg::IMEC_RAM_READ_SBUF_G)?;
//! let library = synthesize(&stg, 100_000)?;
//! assert_eq!(library.gates.len(), 11); // 5 outputs + 6 internal signals
//! # Ok(())
//! # }
//! ```

mod csc;
mod error;
mod synth;

pub use csc::{check_csc, CscViolation};
pub use error::SynthError;
pub use synth::{synthesize, synthesize_sg, verify_implements};
