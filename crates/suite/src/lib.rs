//! The benchmark corpus: the thirteen speed-independent control circuits of
//! thesis Table 7.2.
//!
//! `imec-ram-read-sbuf` is reproduced **verbatim** from the thesis
//! (Sec. 7.3.1 prints both its STG and its EQN netlist); the FIFO follows
//! the Ch. 7.1 design example (a latch controller with an explicit delay
//! line `d` mirroring the latch-enable `l`, so its done-detector gate
//! exhibits exactly the case-1/case-3/case-4 mixture of Fig. 7.3). The
//! remaining eleven circuits are reconstructions: SI controllers with the
//! same names and interface widths as the historic petrify-era benchmarks,
//! synthesized by [`si_synth`] into complex gates. Each circuit is
//! validated by the suite tests: live, safe, consistent, CSC-clean, and
//! timing-conformant gate by gate.
//!
//! Every circuit, bundled or not, loads through the one text front end.
//! Its loading half — lint, parse, one whole-STG walk, validation on it,
//! synthesis from it — runs inside [`run_corpus_entry`] before the
//! derivation, and alone in [`Benchmark::circuit`] (under
//! `EngineConfig::default()`), so a spec that is not live, safe,
//! free-choice and consistent fails the same way on both paths.
//!
//! # Example
//!
//! ```
//! use si_suite::{benchmarks, Benchmark};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let suite = benchmarks();
//! assert_eq!(suite.len(), 13);
//! let fifo = suite.iter().find(|b| b.name == "fifo").expect("present");
//! let (stg, library) = fifo.circuit()?;
//! assert_eq!(stg.signal_count(), library.gates.len() + 3); // 3 inputs
//! # Ok(())
//! # }
//! ```

use si_boolean::GateLibrary;
use si_core::EngineConfig;
use si_stg::Stg;

mod circuits;
mod corpus;
mod extra;

pub use circuits::FIFO_G;
pub use corpus::{
    run_corpus, run_corpus_entry, CorpusEntry, CorpusError, CorpusOutcome, CorpusRow,
};
pub use extra::{extended, FIFO_DOUBLE_G, VME_READ_G};

/// One benchmark circuit: an STG plus (optionally) a fixed EQN netlist.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Table 7.2 row name.
    pub name: &'static str,
    /// The STG in `.g` format.
    pub stg_text: &'static str,
    /// A fixed netlist in restricted EQN format; when `None`, the netlist
    /// is synthesized from the state graph.
    pub eqn_text: Option<&'static str>,
}

impl Benchmark {
    /// The STG and its gate library, fixed or synthesized, loaded the way
    /// [`run_corpus_entry`] loads a row: the loading half of the text
    /// front end under [`EngineConfig::default()`] — lint, parse, one
    /// whole-STG walk, validation on it, synthesis from it. Nothing is
    /// memoized.
    ///
    /// # Errors
    ///
    /// As [`run_corpus_entry`], engine errors apart: a spec that is not
    /// live, safe, free-choice and consistent fails as
    /// [`CorpusError::Derive`] with
    /// [`CoreError::NotWellFormed`](si_core::CoreError::NotWellFormed).
    pub fn circuit(&self) -> Result<(Stg, GateLibrary), CorpusError> {
        let loaded = corpus::load(
            &EngineConfig::default(),
            self.name,
            self.stg_text,
            self.eqn_text,
        )?;
        Ok((loaded.stg, loaded.library))
    }

    /// The benchmark as a manifest row: [`run_corpus_entry`] and
    /// [`run_corpus`] run it like any corpus row, lint pre-flight included.
    ///
    /// # Example
    ///
    /// ```
    /// use si_core::{Engine, EngineConfig};
    ///
    /// let engine = Engine::new(EngineConfig::parallel(2));
    /// let imec = si_suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    /// let row = si_suite::run_corpus_entry(&engine, &imec.entry()).expect("derives");
    /// assert_eq!(row.report.report.baseline.len(), 19);
    /// assert_eq!(row.report.report.constraints.len(), 12);
    /// ```
    pub fn entry(&self) -> CorpusEntry {
        CorpusEntry {
            name: self.name.to_string(),
            stg_text: self.stg_text.to_string(),
            eqn_text: self.eqn_text.map(str::to_string),
        }
    }
}

/// The thirteen benchmarks of Table 7.2, in the table's row order.
pub fn benchmarks() -> Vec<Benchmark> {
    circuits::all()
}

/// Finds a benchmark by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    circuits::all().into_iter().find(|b| b.name == name)
}

/// The batch path of a bundled [`Benchmark`]: [`Benchmark::entry`] makes
/// it a manifest row, and [`run_corpus_entry`] runs it.
#[cfg(test)]
mod batch {
    mod tests {
        use si_core::{Engine, EngineConfig, LintPolicy};

        use crate::{run_corpus_entry, Benchmark, CorpusError};

        #[test]
        fn deny_policy_blocks_defective_specs_before_derivation() {
            let bench = Benchmark {
                name: "defective",
                // Undeclared signal `b`: lint error SI004.
                stg_text: "\
.model defective
.inputs a
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
",
                eqn_text: Some("b = a;"),
            };
            let engine = |lint| {
                Engine::new(EngineConfig {
                    lint,
                    ..EngineConfig::default()
                })
            };
            let deny = engine(LintPolicy::Deny);
            match run_corpus_entry(&deny, &bench.entry()) {
                Err(CorpusError::Lint { name, errors }) => {
                    assert_eq!(name, "defective");
                    assert!(errors > 0);
                }
                other => panic!("expected CorpusError::Lint, got {other:?}"),
            }
            // Blocked before derivation: no state graph was looked up.
            assert_eq!(deny.cache_stats().misses, 0);
            // Off skips the pre-flight; the strict parser then rejects it at
            // load time instead.
            let off = engine(LintPolicy::Off);
            assert!(matches!(
                run_corpus_entry(&off, &bench.entry()),
                Err(CorpusError::Load { .. })
            ));
            assert_eq!(off.cache_stats().misses, 0);
        }
    }
}
