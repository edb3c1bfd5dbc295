//! Cubes, covers, two-level minimization and the restricted EQN netlist
//! format used by the thesis tool (Sec. 7.3.1).
//!
//! Logic functions follow the thesis definitions (Sec. 2.1): a *cube* is a
//! conflict-free set of literals, a *cover* is a set of cubes read as their
//! Boolean sum, and a gate is described by an irredundant prime cover of its
//! on-set (`f↑`) and of its off-set (`f↓`). Prime generation and irredundant
//! cover selection use the Quine–McCluskey procedure, which is exact and more
//! than fast enough for the hand-sized support sets of SI control gates.
//!
//! # Example
//!
//! ```
//! use si_boolean::{Cover, Cube};
//!
//! // f = a·b + c over variables [a, b, c]
//! let f = Cover::new(3, vec![Cube::from_literals(3, &[(0, true), (1, true)]),
//!                            Cube::from_literals(3, &[(2, true)])]);
//! assert!(f.eval(0b011)); // a=1 b=1 c=0
//! assert!(f.eval(0b100)); // c=1
//! assert!(!f.eval(0b001)); // a=1 only
//! ```

mod cover;
mod cube;
mod eqn;
mod gate;
mod qm;

pub use cover::Cover;
pub use cube::Cube;
pub use eqn::{parse_eqn, write_eqn, EqnGate, Netlist, ParseEqnError};
pub use gate::{Gate, GateLibrary, MAX_GATE_SUPPORT};
pub use qm::{expand_cover, irredundant_cover, prime_implicants, MAX_EXACT_VARS};
