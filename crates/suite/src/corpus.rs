//! The batch front end: circuit-level sharded execution of a manifest —
//! generated corpora and the bundled benchmarks alike
//! ([`Benchmark::entry`](crate::Benchmark::entry) makes a Table 7.2
//! circuit a manifest row).
//!
//! The engine parallelizes inside one circuit (per-gate fan-out); a
//! synthetic corpus is the opposite shape — many small circuits — so
//! [`run_corpus`] shards across *circuits* instead: `jobs` scoped workers
//! pull manifest rows off a shared atomic cursor (the same work-stealing
//! scheme as the engine's gate pool) and run them through **one shared
//! engine**, so the structural `SgCache` / `ProjCache` /
//! `ConformanceCache` tiers are shared across shards — shape-identical
//! circuits pay for exploration once, whichever worker meets them first.
//!
//! Results land in manifest order, and each row's *payload* (constraint
//! report, lint findings, error value) is bit-identical to a sequential
//! single-engine loop over the same manifest — sharding affects wall
//! clock and cache traffic only. `tests/corpus_differential.rs` pins
//! this for jobs 1, 4 and 8, cold and warm.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use si_boolean::{parse_eqn, GateLibrary};
use si_core::{CoreError, Engine, EngineReport, LintPolicy};
use si_lint::{LintOptions, LintReport};
use si_stg::parse_astg;
use si_synth::synthesize;

/// One corpus manifest row: an owned circuit source (generated corpora
/// are not `'static`, unlike the bundled [`Benchmark`](crate::Benchmark)
/// texts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The circuit name (e.g. `corpus-0000002a`).
    pub name: String,
    /// The STG in `.g` format.
    pub stg_text: String,
    /// A fixed netlist in restricted EQN format; when `None`, the
    /// netlist is synthesized under the engine's global state budget.
    pub eqn_text: Option<String>,
}

/// One corpus row's result.
#[derive(Debug, Clone)]
pub struct CorpusRow {
    /// The manifest row name.
    pub name: String,
    /// The engine's extended report.
    pub report: EngineReport,
    /// The pre-flight lint findings (empty under [`LintPolicy::Off`]).
    pub lint: LintReport,
}

/// Failure of one corpus row. `PartialEq` so differential harnesses can
/// compare error values across engine configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The circuit failed to parse or synthesize.
    Load {
        /// The manifest row name.
        name: String,
        /// The rendered parse/synthesis failure.
        detail: String,
    },
    /// The specification failed the lint pre-flight under
    /// [`LintPolicy::Deny`].
    Lint {
        /// The manifest row name.
        name: String,
        /// Error-severity finding count (at least one).
        errors: usize,
    },
    /// The derivation failed.
    Derive {
        /// The manifest row name.
        name: String,
        /// The engine error.
        source: CoreError,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Load { name, detail } => {
                write!(f, "corpus row `{name}` failed to load: {detail}")
            }
            CorpusError::Lint { name, errors } => write!(
                f,
                "corpus row `{name}` failed the lint pre-flight with {errors} error(s)"
            ),
            CorpusError::Derive { name, source } => {
                write!(f, "corpus row `{name}` failed to derive: {source}")
            }
        }
    }
}

impl Error for CorpusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CorpusError::Derive { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One row's outcome: every row completes independently (a corpus run
/// never aborts on the first failure — defective rows are part of the
/// differential contract).
pub type CorpusOutcome = Result<CorpusRow, CorpusError>;

/// Runs one manifest row through `engine`: lint pre-flight under the
/// engine's [`LintPolicy`], strict parse, netlist (fixed or synthesized
/// under the engine's global state budget), derivation.
///
/// # Errors
///
/// [`CorpusError::Load`], [`CorpusError::Lint`] or
/// [`CorpusError::Derive`].
pub fn run_corpus_entry(engine: &Engine, entry: &CorpusEntry) -> CorpusOutcome {
    let policy = engine.config().lint;
    let lint = if policy == LintPolicy::Off {
        LintReport::default()
    } else {
        si_lint::lint_text_with(
            &entry.stg_text,
            &LintOptions {
                state_budget: Some(engine.config().global_sg_budget),
            },
        )
    };
    if policy == LintPolicy::Deny && lint.has_errors() {
        return Err(CorpusError::Lint {
            name: entry.name.clone(),
            errors: lint.error_count(),
        });
    }
    let load = |detail: String| CorpusError::Load {
        name: entry.name.clone(),
        detail,
    };
    let stg = parse_astg(&entry.stg_text).map_err(|e| load(e.to_string()))?;
    let library = match &entry.eqn_text {
        Some(text) => GateLibrary::from_netlist(&parse_eqn(text).map_err(|e| load(e.to_string()))?),
        None => {
            synthesize(&stg, engine.config().global_sg_budget).map_err(|e| load(e.to_string()))?
        }
    };
    let report = engine
        .run(&stg, &library)
        .map_err(|source| CorpusError::Derive {
            name: entry.name.clone(),
            source,
        })?;
    Ok(CorpusRow {
        name: entry.name.clone(),
        report,
        lint,
    })
}

/// Runs a whole corpus manifest through one shared `engine`, sharded
/// across `jobs` worker threads (`0` = available parallelism, `1` =
/// sequential in the calling thread). Results are returned in manifest
/// row order regardless of which worker ran which row, and every row's
/// payload is identical to what a sequential loop over
/// [`run_corpus_entry`] produces.
#[must_use]
pub fn run_corpus(engine: &Engine, manifest: &[CorpusEntry], jobs: usize) -> Vec<CorpusOutcome> {
    let requested = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    };
    let jobs = requested.min(manifest.len()).max(1);
    if jobs <= 1 {
        return manifest
            .iter()
            .map(|entry| run_corpus_entry(engine, entry))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<CorpusOutcome>> = (0..manifest.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= manifest.len() {
                            return mine;
                        }
                        mine.push((i, run_corpus_entry(engine, &manifest[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, outcome) in handle.join().expect("corpus worker panicked") {
                slots[i] = Some(outcome);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every manifest row was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_core::EngineConfig;

    fn tiny_manifest() -> Vec<CorpusEntry> {
        // A handshake ring, a second copy under a different name (cache
        // sharing pays off on the repeat), and one defective row.
        let ring = "\
.model ring
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
        vec![
            CorpusEntry {
                name: "ring".into(),
                stg_text: ring.into(),
                eqn_text: Some("b = a;".into()),
            },
            CorpusEntry {
                name: "ring-again".into(),
                stg_text: ring.into(),
                eqn_text: Some("b = a;".into()),
            },
            CorpusEntry {
                name: "defective".into(),
                stg_text: ".model broken\n.inputs a\n.graph\na+ c+\n.marking { }\n.end\n".into(),
                eqn_text: None,
            },
        ]
    }

    #[test]
    fn rows_come_back_in_manifest_order_with_errors_in_place() {
        let engine = Engine::new(EngineConfig::default());
        let manifest = tiny_manifest();
        for jobs in [1, 2, 8, 0] {
            let rows = run_corpus(&engine, &manifest, jobs);
            assert_eq!(rows.len(), 3);
            assert_eq!(rows[0].as_ref().expect("derives").name, "ring");
            assert_eq!(rows[1].as_ref().expect("derives").name, "ring-again");
            assert!(matches!(rows[2], Err(CorpusError::Load { .. })));
        }
    }

    #[test]
    fn shards_share_one_cache_across_rows() {
        let engine = Engine::new(EngineConfig::default());
        let manifest = tiny_manifest();
        let rows = run_corpus(&engine, &manifest, 2);
        let (a, b) = (
            rows[0].as_ref().expect("derives"),
            rows[1].as_ref().expect("derives"),
        );
        // The two copies are shape-identical, so between them the shared
        // structural cache serves at least one of the repeat lookups.
        assert!(engine.cache_stats().hits > 0);
        assert_eq!(a.report.report, b.report.report);
    }

    #[test]
    fn bundled_benchmarks_run_as_manifest_rows() {
        let engine = Engine::new(EngineConfig::default());
        let fifo = crate::benchmark("fifo").expect("bundled").entry();
        let first = run_corpus_entry(&engine, &fifo).expect("derives");
        let cold = engine.cache_stats();
        let second = run_corpus_entry(&engine, &fifo).expect("derives");
        assert_eq!(first.report.report, second.report.report);
        // The second pass reuses the first pass's state graphs.
        assert!(engine.cache_stats().hits > cold.hits);
        // The bundled suite lints error-free, so Warn carries no errors.
        assert_eq!(first.lint.error_count(), 0);
    }

    #[test]
    fn deny_policy_fails_defective_rows_without_aborting_the_run() {
        let mut manifest = tiny_manifest();
        // A fixed-netlist row whose STG uses the undeclared signal `b`:
        // lint error SI004.
        manifest.push(CorpusEntry {
            name: "undeclared".into(),
            stg_text: ".model undeclared\n.inputs a\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n".into(),
            eqn_text: Some("b = a;".into()),
        });
        let engine = |lint| {
            Engine::new(EngineConfig {
                lint,
                ..EngineConfig::default()
            })
        };
        let rows = run_corpus(&engine(LintPolicy::Deny), &manifest, 1);
        assert!(rows[0].is_ok());
        for row in &rows[2..] {
            assert!(matches!(row, Err(CorpusError::Lint { .. })), "{row:?}");
        }
        // Off skips the pre-flight; the strict parser then rejects the
        // same rows at load time instead.
        let rows = run_corpus(&engine(LintPolicy::Off), &manifest, 1);
        assert!(rows[0].is_ok());
        for row in &rows[2..] {
            assert!(matches!(row, Err(CorpusError::Load { .. })), "{row:?}");
        }
    }
}
