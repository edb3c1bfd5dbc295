//! Seeded synthetic STG corpus generation.
//!
//! The thirteen bundled Table 7.2 benchmarks pin the engine bit-exactly,
//! but they are a *fixed* population: every golden snapshot, differential
//! matrix and perf number measures the same thirteen circuits. This crate
//! supplies the missing statistical scale — a deterministic generator
//! mapping `(CorpusSpec, seed)` onto valid speed-independent control
//! circuits ([`generate`]), the five pinned fixtures the goldens and the
//! compliance dumps pin ([`PINNED_FIXTURES`]), plus the shared
//! property-test strategies the member crates' proptests draw from
//! ([`strategies`]).
//!
//! Two guarantees are load-bearing (and pinned by this crate's property
//! suite):
//!
//! 1. **Validity** — every generated circuit strict-parses under
//!    [`si_stg::parse_astg`] and lints with zero `si-lint` errors.
//! 2. **Determinism** — equal `(sanitized spec, seed)` pairs yield
//!    byte-identical `.g` text, forever and on every platform. The
//!    one-line [`Reproducer`] format the fuzz harness prints on a
//!    divergence rests on this.
//!
//! # Example
//!
//! ```
//! use si_corpus::{generate, CorpusSpec};
//!
//! let spec = CorpusSpec { signals: 6, ..CorpusSpec::default() };
//! let circuit = generate(&spec, 42);
//! assert_eq!(circuit.stg.signal_count(), 6);
//! assert_eq!(circuit.g_text, generate(&spec, 42).g_text); // deterministic
//! ```

mod rng;
mod spec;
pub mod strategies;

pub use rng::CorpusRng;
pub use spec::{
    corpus_name, generate, generate_named, CorpusSpec, GeneratedCircuit, MarkingStyle, Reproducer,
    PINNED_FIXTURES,
};

/// The signal bound at which a seed names its corpus circuit:
/// `CorpusSpec::from_seed(seed, DEFAULT_MAX_SIGNALS)`. `check_hazard
/// --bench corpus:<seed>`, `si_fuzz`'s default scan, perfbench's corpus
/// workloads and `tests/golden/corpus-outcomes.txt` all draw at this
/// bound, so seed `s` is the same row in each.
pub const DEFAULT_MAX_SIGNALS: usize = 10;

/// Forces the divergence bail-out for corpus-scale sweeps.
///
/// A small fraction of generated circuits (high-concurrency fork shapes —
/// `corpus-000000bd`, seed 189, is the canonical specimen) drive the
/// per-gate relaxation loop into a token pump: each round adds tokens and
/// grows the local state graph, so exhausting an iteration budget
/// translates to hours on one circuit. Historically harnesses capped
/// `expand_budget` at 400; they now run at the real default budget and
/// rely on [`si_core::DivergencePolicy::Bail`], whose covering ledger
/// aborts such a gate once a loop state comes back covering an earlier
/// one (within 100 iterations on every corpus row). Divergences surface as
/// ordinary deterministic [`si_core::CoreError::Diverged`] values, which
/// differential comparison covers like any other payload — the verdict
/// (gate and witness) is independent of caching, parallelism and warmth,
/// so apply the same policy to *both* engines of a differential pair.
pub fn harness_config(base: si_core::EngineConfig) -> si_core::EngineConfig {
    si_core::EngineConfig {
        divergence_policy: si_core::DivergencePolicy::Bail,
        ..base
    }
}
