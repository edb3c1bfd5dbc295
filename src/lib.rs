//! `si-redress` — relative-timing repair for speed-independent circuits.
//!
//! A reproduction of *"Redressing timing issues for speed-independent
//! circuits in deep submicron age"* (Li, DATE 2011; full algorithm suite
//! from the accompanying Newcastle PhD thesis). Given a speed-independent
//! control circuit and its implementation STG, the library derives — in
//! polynomial time — the weakest known set of relative timing constraints
//! under which the circuit stays hazard-free when the isochronic-fork
//! assumption is relaxed to the intra-operator fork assumption.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! - [`petri`]: Petri nets, marked graphs, Hack's MG decomposition;
//! - [`stg`]: signal transition graphs, the `.g` format (with an
//!   error-recovering, span-carrying parser), state graphs, projection;
//! - [`lint`]: the static specification analyzer — stable `SI0xx`
//!   diagnostic codes with spans, fix hints, text/JSON renderers — run as
//!   the text front end's pre-flight stage and by the `si_lint` binary;
//! - [`boolean`]: cubes/covers, exact two-level minimization, the EQN
//!   netlist format;
//! - [`synth`]: SG-based complex-gate synthesis (the petrify stand-in);
//! - [`core`]: the paper's contribution — arc relaxation, the four-case
//!   hazard criterion, OR-causality decomposition, constraint derivation,
//!   delay padding — and the staged [`core::Engine`] pipeline (explicit
//!   config, state-graph memoization, per-stage and per-gate metrics);
//! - [`sim`]: event-driven timing simulation, technology models,
//!   error-rate and cycle-time analysis;
//! - [`corpus`]: the seeded synthetic circuit generator (deterministic
//!   `(spec, seed)` → valid `.g`, plus the shared proptest strategies)
//!   behind the `si_fuzz` differential harness;
//! - [`suite`]: the thirteen-benchmark corpus of the paper's Table 7.2,
//!   the one text front end ([`suite::run_corpus_entry`]: `.g` text to
//!   constraint report) and the circuit-level sharded
//!   [`suite::run_corpus`] runner over it.
//!
//! # Quickstart
//!
//! ```
//! use si_redress::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = si_redress::suite::benchmark("imec-ram-read-sbuf").expect("bundled");
//! let (stg, library) = bench.circuit()?;
//! let report = derive_timing_constraints(&stg, &library)?;
//! // The thesis numbers: 19 adversary-path constraints before, 12 after.
//! assert_eq!(report.baseline.len(), 19);
//! assert_eq!(report.constraints.len(), 12);
//! # Ok(())
//! # }
//! ```

pub use si_boolean as boolean;
pub use si_core as core;
pub use si_corpus as corpus;
pub use si_lint as lint;
pub use si_petri as petri;
pub use si_sim as sim;
pub use si_stg as stg;
pub use si_suite as suite;
pub use si_synth as synth;

/// The most commonly used items in one import.
pub mod prelude {
    pub use si_boolean::{parse_eqn, Cover, Cube, Gate, GateLibrary};
    pub use si_core::{
        derive_timing_constraints, plan_padding, AdversaryOracle, Constraint, ConstraintReport,
        Engine, EngineConfig, EngineReport, LintPolicy, RelaxationCase,
    };
    pub use si_lint::{lint_text, LintReport};
    pub use si_sim::{simulate, DelayModel};
    pub use si_stg::{parse_astg, MgStg, Polarity, SignalKind, StateGraph, Stg};
    pub use si_synth::synthesize;
}
