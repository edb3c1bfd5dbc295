//! The batch front end: circuit-level sharded execution of a manifest —
//! generated corpora and the bundled benchmarks alike
//! ([`Benchmark::entry`](crate::Benchmark::entry) makes a Table 7.2
//! circuit a manifest row).
//!
//! This is the workspace's one level of parallelism. One engine run
//! relaxes its gates one after another in the calling thread: a whole
//! circuit's gates are too little work to pay for spawning workers. A
//! synthetic corpus is many small circuits, so [`run_corpus`] shards its
//! *circuits* over the engine's [`EngineConfig::jobs`] workers of
//! si-core's one pool ([`si_core::par_map`]). Every row runs through **one
//! shared engine**, so its structural `SgCache` is shared across shards —
//! a graph that shape-identical circuits request twice is stored,
//! whichever worker meets it, and served from then on.
//!
//! Results land in manifest order, and each row's *payload* (constraint
//! report, lint findings, error value) is bit-identical to a sequential
//! single-engine loop over the same manifest — sharding affects wall
//! clock and cache traffic only. `tests/corpus_differential.rs` pins
//! this for 1, 4 and 8 workers, over a cold, an admitting and a warm
//! pass, and `si_fuzz -j N` checks it on every scan against the reference
//! engine. A row that panics becomes a [`CorpusError::Panicked`] in its
//! own slot; the other rows still run.

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use si_boolean::{parse_eqn, GateLibrary};
use si_core::{
    check_well_formed, par_map, CoreError, Engine, EngineConfig, EngineReport, LintPolicy, Stage,
    StageMetrics,
};
use si_lint::{LintOptions, LintReport};
use si_stg::{parse_astg_lenient, Stg, StgAnalysis};
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

/// Names the input only by its name (a file path, a benchmark or a
/// corpus row), so the one rendering fits every caller.
impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Load { name, detail } => write!(f, "`{name}` failed to load: {detail}"),
            CorpusError::Lint { name, errors } => write!(
                f,
                "`{name}` failed the lint pre-flight with {errors} error(s)"
            ),
            CorpusError::Derive { name, source } => {
                write!(f, "`{name}` failed to derive: {source}")
            }
            CorpusError::Panicked { name, detail } => write!(f, "`{name}` panicked: {detail}"),
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

/// Runs one manifest row through `engine` — the one text front end. Its
/// loading half, which [`Benchmark::circuit`](crate::Benchmark::circuit)
/// runs alone, makes one lenient parse, the lint pre-flight over it under
/// the engine's [`LintPolicy`], the strict verdict (the parse's first
/// fatal defect), a fixed netlist, one whole-STG walk under the engine's
/// global state budget ([`si_stg::Stg::analyze`]), validation on the walk
/// (live, safe, free-choice, consistent) and a netlist synthesized from
/// the walk's state graph when the row gives none. The derivation then
/// runs on the same walk ([`Engine::run_analyzed`]). The report lists the
/// lint, parse (synthesis included) and validate stages before the
/// engine's.
///
/// # Errors
///
/// [`CorpusError::Lint`] under [`LintPolicy::Deny`]; [`CorpusError::Load`]
/// for a parse or synthesis failure; [`CorpusError::Derive`] for a walk
/// failure, an STG that is not well formed
/// ([`CoreError::NotWellFormed`]) and every engine error.
pub fn run_corpus_entry(engine: &Engine, entry: &CorpusEntry) -> CorpusOutcome {
    let started = Instant::now();
    let loaded = load(
        engine.config(),
        &entry.name,
        &entry.stg_text,
        entry.eqn_text.as_deref(),
    )?;
    let mut report = engine
        .run_analyzed(&loaded.stg, &loaded.analysis, &loaded.library)
        .map_err(|source| CorpusError::Derive {
            name: entry.name.clone(),
            source,
        })?;
    report.stages.splice(0..0, loaded.stages);
    report.total_wall = started.elapsed();
    Ok(CorpusRow {
        name: entry.name.clone(),
        report,
        lint: loaded.lint,
    })
}

/// A circuit the loading half accepted: what the derivation reads, the
/// lint findings and the front end's three stages.
pub(crate) struct Loaded {
    pub(crate) stg: Stg,
    /// The circuit's one whole-STG walk.
    pub(crate) analysis: StgAnalysis,
    pub(crate) library: GateLibrary,
    pub(crate) lint: LintReport,
    /// The lint, parse (synthesis included) and validate stages.
    pub(crate) stages: [StageMetrics; 3],
}

/// The loading half of the text front end: everything
/// [`run_corpus_entry`] does before the derivation, under `config`'s lint
/// policy and whole-STG budget. [`Benchmark::circuit`](crate::Benchmark::circuit)
/// runs it alone.
///
/// # Errors
///
/// As [`run_corpus_entry`], engine errors apart.
pub(crate) fn load(
    config: &EngineConfig,
    name: &str,
    stg_text: &str,
    eqn_text: Option<&str>,
) -> Result<Loaded, CorpusError> {
    let t = Instant::now();
    let parsed = parse_astg_lenient(stg_text);
    let lenient_wall = t.elapsed();

    // Stage: lint, over the recovered parse. It sees every defect in one
    // pass, where the strict verdict below stops at the first.
    let t = Instant::now();
    let lint = if config.lint == LintPolicy::Off {
        LintReport::default()
    } else {
        si_lint::lint_parsed(
            &parsed,
            &LintOptions {
                state_budget: Some(config.global_sg_budget),
            },
        )
    };
    let lint_metrics = StageMetrics::timed(Stage::Lint, t.elapsed());
    if config.lint == LintPolicy::Deny && lint.has_errors() {
        return Err(CorpusError::Lint {
            name: name.to_string(),
            errors: lint.error_count(),
        });
    }
    let load = |detail: String| CorpusError::Load {
        name: name.to_string(),
        detail,
    };
    let derive = |source: CoreError| CorpusError::Derive {
        name: name.to_string(),
        source,
    };

    // Stage: parse — the strict verdict and a fixed netlist here,
    // synthesis after validation.
    let t = Instant::now();
    if let Some(e) = parsed.first_fatal() {
        return Err(load(e.to_string()));
    }
    let stg = parsed.stg;
    let netlist = eqn_text
        .map(parse_eqn)
        .transpose()
        .map_err(|e| load(e.to_string()))?;
    let mut parse_wall = lenient_wall + t.elapsed();

    // Stage: validate, on the circuit's one whole-STG walk, which
    // synthesis and the derivation then read too.
    let t = Instant::now();
    let analysis = stg
        .analyze(config.global_sg_budget)
        .map_err(|e| derive(e.into()))?;
    check_well_formed(&stg.name, &analysis).map_err(derive)?;
    let validate_metrics = StageMetrics {
        states_explored: analysis.state_count(),
        ..StageMetrics::timed(Stage::Validate, t.elapsed())
    };

    let t = Instant::now();
    let library = match netlist {
        Some(netlist) => GateLibrary::from_netlist(&netlist),
        None => analysis
            .state_graph()
            .map_err(SynthError::from)
            .and_then(|sg| synthesize_sg(&stg, sg))
            .map_err(|e| load(e.to_string()))?,
    };
    parse_wall += t.elapsed();

    Ok(Loaded {
        stg,
        analysis,
        library,
        lint,
        stages: [
            lint_metrics,
            StageMetrics::timed(Stage::Parse, parse_wall),
            validate_metrics,
        ],
    })
}

/// Runs a whole corpus manifest through one shared `engine`, sharded
/// across the engine's [`EngineConfig::jobs`] workers of the pool
/// ([`si_core::par_map`]: `0` = one per CPU, `1` = sequential in the
/// calling thread). Results are returned in manifest row order regardless
/// of which worker ran which row, and every row's payload is identical to
/// what a sequential loop over [`run_corpus_entry`] produces. A row that
/// panics comes back as [`CorpusError::Panicked`].
#[must_use]
pub fn run_corpus(engine: &Engine, manifest: &[CorpusEntry]) -> Vec<CorpusOutcome> {
    shard(manifest, engine.config().jobs, |entry| {
        run_corpus_entry(engine, entry)
    })
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

    const CELEM: &str = "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
";
    const CELEM_EQN: &str = "c = a*b + a*c + b*c;";
    /// A handshake ring over the undeclared signal `b`: lint error SI004.
    const UNDECLARED: &str =
        ".model undeclared\n.inputs a\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n";

    /// A manifest row of `.g` text and an optional netlist.
    fn row(name: &str, stg_text: &str, eqn_text: Option<&str>) -> CorpusEntry {
        CorpusEntry {
            name: name.into(),
            stg_text: stg_text.into(),
            eqn_text: eqn_text.map(str::to_string),
        }
    }

    fn engine_with(lint: LintPolicy) -> Engine {
        Engine::new(EngineConfig {
            lint,
            ..EngineConfig::default()
        })
    }

    /// An engine whose `run_corpus` shards over `jobs` workers.
    fn sharded(jobs: usize) -> Engine {
        Engine::new(EngineConfig {
            jobs,
            ..EngineConfig::default()
        })
    }

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
            row("ring", ring, Some("b = a;")),
            row("ring-again", ring, Some("b = a;")),
            row(
                "defective",
                ".model broken\n.inputs a\n.graph\na+ c+\n.marking { }\n.end\n",
                None,
            ),
        ]
    }

    #[test]
    fn rows_come_back_in_manifest_order_with_errors_in_place() {
        let manifest = tiny_manifest();
        for jobs in [1, 2, 8, 0] {
            let rows = run_corpus(&sharded(jobs), &manifest);
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
            let engine = sharded(jobs);
            let rows = run_corpus(&engine, &manifest);
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
        let engine = sharded(2);
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
        assert!(run_corpus(&engine, &manifest).iter().all(Result::is_ok));
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
        manifest.push(row("undeclared", UNDECLARED, Some("b = a;")));
        let rows = run_corpus(&engine_with(LintPolicy::Deny), &manifest);
        assert!(rows[0].is_ok());
        for row in &rows[2..] {
            assert!(matches!(row, Err(CorpusError::Lint { .. })), "{row:?}");
        }
        // Off skips the pre-flight; the strict parser then rejects the
        // same rows at load time instead.
        let rows = run_corpus(&engine_with(LintPolicy::Off), &manifest);
        assert!(rows[0].is_ok());
        for row in &rows[2..] {
            assert!(matches!(row, Err(CorpusError::Load { .. })), "{row:?}");
        }
    }

    #[test]
    fn run_corpus_entry_goes_through_all_seven_stages() {
        let engine = Engine::new(EngineConfig::default());
        let out =
            run_corpus_entry(&engine, &row("celem", CELEM, Some(CELEM_EQN))).expect("derives");
        let stages: Vec<Stage> = out.report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::Lint,
                Stage::Parse,
                Stage::Validate,
                Stage::Decompose,
                Stage::Project,
                Stage::Relax,
                Stage::Merge,
            ]
        );
        // The validate stage walks the whole STG once; decompose reads the
        // walk and explores nothing.
        let states = |stage| out.report.stage(stage).expect("ran").states_explored;
        assert_eq!((states(Stage::Validate), states(Stage::Decompose)), (8, 0));
        assert_eq!(out.report.report.state_count, 8);
        // CELEM is clean, so the default Warn policy reports nothing.
        assert!(out.lint.is_clean());
    }

    #[test]
    fn lint_policy_governs_the_pre_flight() {
        let dirty = row("dirty", UNDECLARED, Some("a = b;"));
        // Deny fails fast with the lint verdict, before the strict parse.
        match run_corpus_entry(&engine_with(LintPolicy::Deny), &dirty) {
            Err(CorpusError::Lint { name, errors }) => {
                assert_eq!(name, "dirty");
                assert_eq!(errors, 1);
            }
            other => panic!("expected CorpusError::Lint, got {other:?}"),
        }
        // Warn lets the strict parser reject it exactly as before.
        assert!(matches!(
            run_corpus_entry(&engine_with(LintPolicy::Warn), &dirty),
            Err(CorpusError::Load { .. })
        ));
        // Off skips linting but still lists the stage.
        let out = run_corpus_entry(
            &engine_with(LintPolicy::Off),
            &row("celem", CELEM, Some(CELEM_EQN)),
        )
        .expect("derives");
        assert!(out.lint.is_clean());
        assert_eq!(out.report.stages[0].stage, Stage::Lint);
    }

    #[test]
    fn lint_stage_never_changes_the_derived_constraints() {
        // The output on lint-clean inputs must be bit-identical across all
        // three policies.
        let reports: Vec<_> = [LintPolicy::Off, LintPolicy::Warn, LintPolicy::Deny]
            .into_iter()
            .map(|lint| {
                run_corpus_entry(&engine_with(lint), &row("celem", CELEM, Some(CELEM_EQN)))
                    .expect("derives")
                    .report
                    .report
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
    }

    #[test]
    fn run_corpus_entry_reports_parse_and_validation_errors() {
        let engine = Engine::new(EngineConfig::default());
        for entry in [
            row("broken", ".model broken\n.inputs a\n", Some("a = b;")),
            row("bad-eqn", CELEM, Some("c = a*b +;")),
        ] {
            let outcome = run_corpus_entry(&engine, &entry);
            assert!(
                matches!(outcome, Err(CorpusError::Load { .. })),
                "{outcome:?}"
            );
        }
        // Two STGs that parse but fail validation, with a fixed netlist
        // and with a synthesized one, as rows and as bundled circuits
        // (`Benchmark::circuit` runs the same loading half). In the first,
        // `a` rises twice in a row, so rising/falling transitions never
        // alternate; the second deadlocks after one cycle.
        let inconsistent = ".model bad\n.inputs a\n.outputs b\n.graph\na+ a+/2\na+/2 b+\nb+ a+\n.marking { <b+,a+> }\n.end\n";
        let deadlock = ".model deadlock\n.inputs a\n.outputs b\n.graph\np0 a+\na+ b+\nb+ a-\na- b-\nb- p1\n.marking { p0 }\n.end\n";
        for stg_text in [inconsistent, deadlock] {
            for eqn_text in [Some("b = a;"), None] {
                let bench = crate::Benchmark {
                    name: "bad",
                    stg_text,
                    eqn_text,
                };
                for outcome in [
                    run_corpus_entry(&engine, &bench.entry()).map(drop),
                    bench.circuit().map(drop),
                ] {
                    assert!(
                        matches!(
                            outcome,
                            Err(CorpusError::Derive {
                                source: CoreError::NotWellFormed { .. },
                                ..
                            })
                        ),
                        "{eqn_text:?}: {outcome:?}"
                    );
                }
            }
        }
    }
}
