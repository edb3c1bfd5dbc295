//! The batch front end: circuit-level sharded execution of a manifest —
//! generated corpora and the bundled benchmarks alike
//! ([`Benchmark::entry`](crate::Benchmark::entry) makes a Table 7.2
//! circuit a manifest row).
//!
//! The engine parallelizes inside one circuit (per-gate fan-out); a
//! synthetic corpus is the opposite shape — many small circuits — so
//! [`run_corpus`] shards across *circuits* instead, on the same worker
//! pool that fans out the engine's gates ([`si_core::par_map`]). Every
//! row runs through **one shared engine**, so the structural `SgCache` /
//! `ProjCache` tiers are shared across shards — a graph that
//! shape-identical circuits request twice is stored, whichever worker
//! meets it, and served from then on.
//!
//! Results land in manifest order, and each row's *payload* (constraint
//! report, lint findings, error value) is bit-identical to a sequential
//! single-engine loop over the same manifest — sharding affects wall
//! clock and cache traffic only. `tests/corpus_differential.rs` pins
//! this for jobs 1, 4 and 8, over a cold, an admitting and a warm pass,
//! and `si_fuzz -j N` checks it on every scan against the reference
//! engine. A row that panics becomes a [`CorpusError::Panicked`] in its
//! own slot; the other rows still run.

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use si_boolean::{parse_eqn, GateLibrary};
use si_core::{par_map, CoreError, Engine, EngineReport, LintPolicy};
use si_lint::{LintOptions, LintReport};
use si_stg::parse_astg_lenient;
use si_synth::{synthesize_sg, SynthError};

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
    /// Running the row panicked. [`run_corpus`] catches the panic, so the
    /// other rows of the manifest still run.
    Panicked {
        /// The manifest row name.
        name: String,
        /// The panic message.
        detail: String,
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
            CorpusError::Panicked { name, detail } => {
                write!(f, "corpus row `{name}` panicked: {detail}")
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

/// Runs one manifest row through `engine`: one lenient parse, the lint
/// pre-flight over it under the engine's [`LintPolicy`], the strict
/// verdict (the parse's first fatal defect), one whole-STG walk under the
/// engine's global state budget ([`si_stg::Stg::analyze`]), netlist (fixed
/// or synthesized from the walk's state graph), derivation on the same
/// walk ([`Engine::run_analyzed`]).
///
/// # Errors
///
/// [`CorpusError::Load`], [`CorpusError::Lint`] or
/// [`CorpusError::Derive`].
pub fn run_corpus_entry(engine: &Engine, entry: &CorpusEntry) -> CorpusOutcome {
    let policy = engine.config().lint;
    let parsed = parse_astg_lenient(&entry.stg_text);
    let lint = if policy == LintPolicy::Off {
        LintReport::default()
    } else {
        si_lint::lint_parsed(
            &parsed,
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
    if let Some(e) = parsed.first_fatal() {
        return Err(load(e.to_string()));
    }
    let derive = |source: CoreError| CorpusError::Derive {
        name: entry.name.clone(),
        source,
    };
    let stg = parsed.stg;
    // The row's one whole-STG walk, read by synthesis and the engine. Its
    // failures are load errors where synthesis would have walked, and
    // derivation errors where the engine would have.
    let budget = engine.config().global_sg_budget;
    let (analysis, library) = match &entry.eqn_text {
        Some(text) => {
            let netlist = parse_eqn(text).map_err(|e| load(e.to_string()))?;
            let analysis = stg.analyze(budget).map_err(|e| derive(e.into()))?;
            (analysis, GateLibrary::from_netlist(&netlist))
        }
        None => {
            let analysis = stg.analyze(budget).map_err(|e| load(e.to_string()))?;
            let library = analysis
                .state_graph()
                .map_err(SynthError::from)
                .and_then(|sg| synthesize_sg(&stg, sg))
                .map_err(|e| load(e.to_string()))?;
            (analysis, library)
        }
    };
    let report = engine
        .run_analyzed(&stg, &analysis, &library)
        .map_err(derive)?;
    Ok(CorpusRow {
        name: entry.name.clone(),
        report,
        lint,
    })
}

/// Runs a whole corpus manifest through one shared `engine`, sharded
/// across `jobs` workers of the pool ([`si_core::worker_count`]: `0` =
/// one per CPU, `1` = sequential in the calling thread). Results are
/// returned in manifest row order regardless of which worker ran which
/// row, and every row's payload is identical to what a sequential loop
/// over [`run_corpus_entry`] produces. A row that panics comes back as
/// [`CorpusError::Panicked`].
#[must_use]
pub fn run_corpus(engine: &Engine, manifest: &[CorpusEntry], jobs: usize) -> Vec<CorpusOutcome> {
    shard(manifest, jobs, |entry| run_corpus_entry(engine, entry))
}

/// Runs `run` on every row of `manifest` over `jobs` workers, each row
/// under `catch_unwind`, and returns the outcomes in manifest order.
fn shard(
    manifest: &[CorpusEntry],
    jobs: usize,
    run: impl Fn(&CorpusEntry) -> CorpusOutcome + Sync,
) -> Vec<CorpusOutcome> {
    par_map(manifest, jobs, |entry| {
        catch_unwind(AssertUnwindSafe(|| run(entry))).unwrap_or_else(|payload| {
            Err(CorpusError::Panicked {
                name: entry.name.clone(),
                detail: panic_message(payload.as_ref()),
            })
        })
    })
}

/// The message of a caught panic: its `&str` or `String` payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
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
        // Three copies of the ring, each requesting its one local state
        // graph once (a buffer gate has nothing to relax). Each copy makes
        // one request, so the graph can only be stored by a request from
        // another row, whichever shard runs it: the first request marks
        // it, the second stores it. Run sequentially, the third copy is
        // served from the cache; sharded, it may instead race the second.
        let mut manifest = tiny_manifest();
        manifest[2] = manifest[0].clone();
        manifest[2].name = "ring-third".into();
        for jobs in [1, 2] {
            let engine = Engine::new(EngineConfig::default());
            let rows = run_corpus(&engine, &manifest, jobs);
            let reports: Vec<_> = rows
                .iter()
                .map(|row| &row.as_ref().expect("derives").report.report)
                .collect();
            assert!(reports.iter().all(|r| *r == reports[0]), "jobs {jobs}");
            let stats = engine.cache_stats();
            assert_eq!(stats.hits + stats.misses, 3, "jobs {jobs}: {stats:?}");
            assert_eq!(stats.entries, 1, "jobs {jobs}: {stats:?}");
            if jobs == 1 {
                assert_eq!(stats.hits, 1, "{stats:?}");
            }
        }
    }

    #[test]
    fn a_panicking_row_is_contained_in_its_slot() {
        let engine = Engine::new(EngineConfig::default());
        let mut manifest = tiny_manifest();
        manifest[2] = manifest[0].clone();
        manifest[2].name = "ring-third".into();
        for jobs in [1, 2] {
            let rows = shard(&manifest, jobs, |entry| {
                assert!(entry.name != "ring-again", "injected fault");
                run_corpus_entry(&engine, entry)
            });
            assert_eq!(rows.len(), 3, "jobs {jobs}");
            assert!(rows[0].is_ok(), "jobs {jobs}");
            match &rows[1] {
                Err(CorpusError::Panicked { name, detail }) => {
                    assert_eq!(name, "ring-again");
                    assert_eq!(detail, "injected fault");
                }
                other => panic!("jobs {jobs}: expected Panicked, got {other:?}"),
            }
            assert!(rows[2].is_ok(), "jobs {jobs}");
        }
        // The engine the panic interrupted keeps serving rows.
        assert!(run_corpus(&engine, &manifest, 2).iter().all(Result::is_ok));
    }

    #[test]
    fn bundled_benchmarks_run_as_manifest_rows() {
        let engine = Engine::new(EngineConfig::default());
        let fifo = crate::benchmark("fifo").expect("bundled").entry();
        let first = run_corpus_entry(&engine, &fifo).expect("derives");
        let cold = engine.cache_stats();
        let second = run_corpus_entry(&engine, &fifo).expect("derives");
        assert_eq!(first.report.report, second.report.report);
        // The second pass is served the graphs the first pass requested
        // twice, which the first pass stored.
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
