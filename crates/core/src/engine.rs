//! The staged derivation engine.
//!
//! [`derive_timing_constraints`](crate::derive_timing_constraints) is the
//! thesis algorithm as a single monolithic call; this module exposes the
//! same computation as an explicit pipeline
//!
//! ```text
//! lint → parse → validate → MG decomposition → per-gate local-STG projection
//!      → relaxation → constraint merge
//! ```
//!
//! whose first three stages belong to the one text front end,
//! `si_suite::run_corpus_entry`; the engine runs the rest
//! ([`Engine::run`], [`Engine::run_analyzed`]), projecting and relaxing
//! one gate after another in the calling thread. Beyond the thesis
//! algorithm, the engine adds two production-minded pieces:
//!
//! 1. **[`EngineConfig`]** gathers the knobs a caller sets (whole-STG
//!    state budget, iteration budget, relaxation order, the corpus
//!    runner's worker count, the reuse switch, the lint and divergence
//!    policies). The limits nobody tunes — the local state budget, the
//!    MG-decomposition allocation cap and the OR-causality recursion
//!    depth — are constants.
//! 2. **One reuse stack behind one switch** ([`EngineConfig::cache`]):
//!    σ-space exploration on every state-graph miss and one state-graph
//!    cache ([`crate::SgCache`], which stores a graph on its second
//!    request), shared across the relaxation loop, the OR-causality
//!    sub-STG checks, the conformance pre-checks — and across circuits
//!    when one engine serves a whole batch. Off, the engine runs the
//!    reference path with nothing memoized. Either way every run projects
//!    each component afresh ([`MgStg::project_on_gate`]).
//!
//! Parallel work runs one level up: a corpus is many small circuits, so
//! `si_suite::run_corpus` shards its rows over [`EngineConfig::jobs`]
//! workers of the crate's one pool ([`crate::par_map`]), all sharing one
//! engine. A whole circuit's projection and relaxation are too little
//! work to pay for spawning workers for its gates (`docs/perf.md`, "The
//! per-gate fan-out, deleted").
//!
//! Per-stage and per-gate metrics (wall time, states explored, cache
//! traffic) ride along in the extended [`EngineReport`].

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use si_boolean::GateLibrary;
use si_stg::{MgStg, SignalId, Stg, StgAnalysis, ALLOCATION_CAP, DEFAULT_GLOBAL_SG_BUDGET};

use crate::cache::{CacheStats, SgCache};
use crate::check::{classify_states, prerequisite_sets, RelaxationCase};
use crate::constraint::{Constraint, ConstraintAtom};
use crate::error::CoreError;
use crate::expand::{expand_ctx, ExpandCtx, ExpandOutcome, RelaxationOrder, LOCAL_SG_BUDGET};
use crate::local::{GateContext, LocalStg};
use crate::paths::AdversaryOracle;
use crate::report::{ConstraintReport, GateReport};
use crate::sched::DivergencePolicy;

/// Default per-gate relaxation-iteration budget (convergence is proven;
/// this guards malformed inputs).
pub const DEFAULT_EXPAND_BUDGET: usize = 20_000;

/// What the text front end (`si_suite::run_corpus_entry`) does with
/// static-lint findings on the `.g` source (its pre-flight
/// [`Stage::Lint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Skip the lint stage entirely.
    Off,
    /// Lint and report the findings with the row (`CorpusRow::lint`), but
    /// never block the run — parse/validate still reject what they always
    /// did.
    #[default]
    Warn,
    /// Lint, and fail fast with `CorpusError::Lint` on any
    /// error-severity finding, before the strict parse verdict.
    Deny,
}

/// All tunables of the derivation pipeline in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// State budget for whole-STG state graphs, STG validation and the
    /// per-gate conformance pre-check.
    pub global_sg_budget: usize,
    /// Relaxation-iteration budget per gate.
    pub expand_budget: usize,
    /// Arc-picking policy of the relaxation loop.
    pub order: RelaxationOrder,
    /// Worker threads `si_suite::run_corpus` shards a manifest's rows
    /// over, all sharing this engine: `1` = sequential in the calling
    /// thread, `0` = one per available CPU. A single run ignores it: it
    /// relaxes its gates one after another in the calling thread.
    pub jobs: usize,
    /// The one reuse switch. On, the engine runs its whole reuse stack:
    /// σ-space exploration ([`si_stg::StateGraph::of_mg_sigma`]) on every
    /// state-graph miss and the state-graph cache ([`crate::SgCache`],
    /// which stores a graph on its second request), shared across gates
    /// and runs. Off, it runs the reference path:
    /// [`si_stg::StateGraph::of_mg`] on every call, nothing memoized.
    /// Projection ([`si_stg::MgStg::project_on_gate`]) runs on every call
    /// either way. Output is bit-identical either way.
    pub cache: bool,
    /// What to do with static-lint findings on source text (the text
    /// front end, `si_suite::run_corpus_entry`, only — [`Engine::run`]
    /// takes already-parsed inputs and never lints).
    pub lint: LintPolicy,
    /// What the relaxation loop does when its covering ledger detects a
    /// non-converging gate: bail with [`CoreError::Diverged`]
    /// (the default) or keep no ledger and exhaust the iteration budget
    /// (the historical behaviour, kept by [`EngineConfig::reference`]).
    pub divergence_policy: DivergencePolicy,
}

impl Default for EngineConfig {
    /// Sequential with the whole reuse stack on: identical output to the
    /// seed algorithm.
    fn default() -> Self {
        Self {
            global_sg_budget: DEFAULT_GLOBAL_SG_BUDGET,
            expand_budget: DEFAULT_EXPAND_BUDGET,
            order: RelaxationOrder::TightestFirst,
            jobs: 1,
            cache: true,
            lint: LintPolicy::Warn,
            divergence_policy: DivergencePolicy::Bail,
        }
    }
}

impl EngineConfig {
    /// The reference configuration: sequential, the reference path (no
    /// reuse stack), no divergence bail-out — the exact code path of the
    /// original monolithic driver. Differential tests compare every other
    /// configuration against this one.
    pub fn reference() -> Self {
        Self {
            cache: false,
            lint: LintPolicy::Off,
            divergence_policy: DivergencePolicy::Exhaust,
            ..Self::default()
        }
    }

    /// The same configuration under a different relaxation order.
    pub fn with_order(self, order: RelaxationOrder) -> Self {
        Self { order, ..self }
    }
}

/// The pipeline stages, in execution order. The first three are
/// recorded by the text front end (`si_suite::run_corpus_entry`) only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Static lint pre-flight over the `.g` source text (skipped under
    /// [`LintPolicy::Off`] but always listed).
    Lint,
    /// `.g`/`.eqn` text to [`Stg`] + [`GateLibrary`], synthesis of a
    /// netlist the row does not give included.
    Parse,
    /// Liveness/safeness/free-choice/consistency of the STG, read off the
    /// run's one whole-STG walk, which this stage makes.
    Validate,
    /// Hack's MG decomposition plus the whole-STG state count, read off
    /// the run's walk ([`Engine::run`] makes the walk here).
    Decompose,
    /// Per-gate binding, local-STG projection, baseline extraction and the
    /// conformance pre-check.
    Project,
    /// The per-gate relaxation loops (Algorithm 4).
    Relax,
    /// Union of the per-gate results in deterministic gate order.
    Merge,
}

impl Stage {
    /// Stable lower-case stage name (used by the CLI's JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Lint => "lint",
            Stage::Parse => "parse",
            Stage::Validate => "validate",
            Stage::Decompose => "decompose",
            Stage::Project => "project",
            Stage::Relax => "relax",
            Stage::Merge => "merge",
        }
    }
}

/// Wall time and work counters of one pipeline stage — the one metrics
/// record. A gate's share of the per-gate stages ([`Stage::Project`],
/// [`Stage::Relax`]) is the same record ([`GateMetrics::project`],
/// [`GateMetrics::relax`]), and so is the relaxation loop's own tally
/// ([`ExpandOutcome::metrics`]); a per-gate stage's record is the sum of
/// its gates' shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageMetrics {
    /// Which stage.
    pub stage: Stage,
    /// Aggregate wall time spent in the stage.
    pub wall: Duration,
    /// States actually generated by state-graph construction (cache misses
    /// only).
    pub states_explored: usize,
    /// Local state graphs answered from the shared cache.
    pub sg_cache_hits: usize,
    /// Local state graphs generated by a cold exploration.
    pub sg_cache_misses: usize,
    /// Distinct keys (local-STG skeleton plus guaranteed-set size)
    /// recorded by the relaxation loop's covering ledger.
    pub sched_fingerprints: usize,
}

impl StageMetrics {
    /// An all-zero record for `stage`.
    pub fn new(stage: Stage) -> Self {
        Self::timed(stage, Duration::ZERO)
    }

    /// A record for `stage` with wall time `wall` and zero counters.
    pub fn timed(stage: Stage, wall: Duration) -> Self {
        Self {
            stage,
            wall,
            states_explored: 0,
            sg_cache_hits: 0,
            sg_cache_misses: 0,
            sched_fingerprints: 0,
        }
    }

    /// Adds `other`'s wall time and counters to this record (its `stage`
    /// is kept).
    pub fn add(&mut self, other: &StageMetrics) {
        self.wall += other.wall;
        self.states_explored += other.states_explored;
        self.sg_cache_hits += other.sg_cache_hits;
        self.sg_cache_misses += other.sg_cache_misses;
        self.sched_fingerprints += other.sched_fingerprints;
    }

    /// The counters as `(name, value)` pairs in schema order — the one
    /// list of counter names every JSON emitter and doc table follows.
    pub fn counters(&self) -> [(&'static str, usize); 4] {
        [
            ("states_explored", self.states_explored),
            ("sg_cache_hits", self.sg_cache_hits),
            ("sg_cache_misses", self.sg_cache_misses),
            ("sched_fingerprints", self.sched_fingerprints),
        ]
    }

    /// The record as one JSON object: `stage`, `wall_us`, then every
    /// counter of [`StageMetrics::counters`].
    pub fn json(&self) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "{{\"stage\":\"{}\",\"wall_us\":{}",
            self.stage.name(),
            self.wall.as_micros()
        );
        for (name, value) in self.counters() {
            let _ = write!(s, ",\"{name}\":{value}");
        }
        s.push('}');
        s
    }
}

/// Per-gate breakdown of the per-gate stages: the gate's share of
/// [`Stage::Project`] and of [`Stage::Relax`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateMetrics {
    /// The gate's output signal.
    pub gate: String,
    /// Relaxation iterations.
    pub iterations: usize,
    /// Projection, baseline and conformance pre-check.
    pub project: StageMetrics,
    /// The relaxation loop.
    pub relax: StageMetrics,
}

/// The extended result of an engine run: the classic [`ConstraintReport`]
/// plus stage and gate metrics. Engine-lifetime cache totals come from
/// [`Engine::cache_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// The derivation result — bit-identical to the sequential monolithic
    /// driver for every configuration.
    pub report: ConstraintReport,
    /// Per-stage metrics in execution order.
    pub stages: Vec<StageMetrics>,
    /// Per-gate metrics in gate order.
    pub gates: Vec<GateMetrics>,
    /// Wall-clock of the whole run.
    pub total_wall: Duration,
}

impl EngineReport {
    /// Metrics of one stage, if it ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageMetrics> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// The run's metrics as JSON object members, for a caller to place
    /// inside its own object: `total_wall_us`, `stages` (one
    /// [`StageMetrics::json`] object each) and `gates`
    /// (`gate`, `iterations`, and the `project` and `relax` records).
    pub fn metrics_json(&self) -> String {
        let stages: Vec<String> = self.stages.iter().map(StageMetrics::json).collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                format!(
                    "{{\"gate\":\"{}\",\"iterations\":{},\"project\":{},\"relax\":{}}}",
                    si_stg::sexp::escape(&g.gate),
                    g.iterations,
                    g.project.json(),
                    g.relax.json()
                )
            })
            .collect();
        format!(
            "\"total_wall_us\":{},\"stages\":[{}],\"gates\":[{}]",
            self.total_wall.as_micros(),
            stages.join(","),
            gates.join(",")
        )
    }
}

/// What one gate's projection and relaxation produce.
struct GateRun {
    baseline: BTreeSet<Constraint>,
    outcome: ExpandOutcome,
    metrics: GateMetrics,
}

/// The staged, cacheable derivation pipeline.
///
/// An engine owns its reuse stack (under [`EngineConfig::cache`]); running
/// several circuits (or the same circuit repeatedly) through one engine
/// shares it across all of them.
///
/// # Example
///
/// ```
/// use si_core::{Engine, EngineConfig};
/// use si_boolean::{parse_eqn, GateLibrary};
/// use si_stg::parse_astg;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stg = parse_astg("\
/// .model celem
/// .inputs a b
/// .outputs c
/// .graph
/// a+ c+
/// b+ c+
/// c+ a- b-
/// a- c-
/// b- c-
/// c- a+ b+
/// .marking { <c-,a+> <c-,b+> }
/// .end
/// ")?;
/// let library = GateLibrary::from_netlist(&parse_eqn("c = a*b + a*c + b*c;")?);
/// let engine = Engine::new(EngineConfig::default());
/// let out = engine.run(&stg, &library)?;
/// assert!(out.report.constraints.is_empty());
/// assert_eq!(out.report.state_count, 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    /// The state-graph cache; `None` runs the reference path.
    cache: Option<SgCache>,
}

impl Default for Engine {
    /// An engine under [`EngineConfig::default`] — with a live cache, as
    /// that configuration promises.
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl Engine {
    /// An engine under `config`.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            cache: config.cache.then(SgCache::default),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current state-graph cache counters (zero on the reference path).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map_or_else(CacheStats::default, SgCache::stats)
    }

    /// Always zero. The engine no longer memoizes projections: with
    /// edit-local sweeps the memo cost cold passes more than it saved warm
    /// ones, so it was deleted (see `docs/perf.md`, "The projection memo,
    /// deleted"). Kept only because `perfbench` still calls it.
    pub fn projection_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Always zero. The engine no longer memoizes classification verdicts:
    /// a conformance sweep costs less than building and hashing its key,
    /// so the cache was deleted (see `docs/perf.md`, "Admission"). Kept
    /// only because `perfbench` still calls it.
    pub fn conformance_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Runs the pipeline on a parsed circuit: decompose → project → relax
    /// → merge. The decompose stage walks the whole STG once
    /// ([`Stg::analyze`]) and counts the walk's states; then
    /// [`Engine::run_analyzed`].
    ///
    /// # Errors
    ///
    /// Exactly the errors of
    /// [`derive_timing_constraints`](crate::derive_timing_constraints):
    /// [`CoreError::MissingGate`], [`CoreError::NotConformant`],
    /// decomposition and state-graph failures.
    pub fn run(&self, stg: &Stg, library: &GateLibrary) -> Result<EngineReport, CoreError> {
        let started = Instant::now();
        let analysis = stg.analyze(self.config.global_sg_budget)?;
        let walk = started.elapsed();
        let mut out = self.run_analyzed(stg, &analysis, library)?;
        let decompose = out
            .stages
            .iter_mut()
            .find(|s| s.stage == Stage::Decompose)
            .expect("every run decomposes");
        decompose.wall += walk;
        decompose.states_explored = analysis.state_count();
        out.total_wall = started.elapsed();
        Ok(out)
    }

    /// [`Engine::run`] on the circuit's whole-STG walk, made once per run
    /// by the caller (`analysis` must be `stg`'s). The decompose stage
    /// then explores no states: it reads the state count and the MG
    /// components' initial code off the walk.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    pub fn run_analyzed(
        &self,
        stg: &Stg,
        analysis: &StgAnalysis,
        library: &GateLibrary,
    ) -> Result<EngineReport, CoreError> {
        let started = Instant::now();

        // Stage: decompose. MG components, starting at the walk's initial
        // code, plus the whole-STG state count (the Table 7.2 column).
        let t = Instant::now();
        let oracle = AdversaryOracle::new(stg);
        let components = stg.mg_components(analysis, ALLOCATION_CAP)?;
        let state_count = analysis.state_graph()?.state_count();
        let decompose_metrics = StageMetrics::timed(Stage::Decompose, t.elapsed());

        // Stages: project + relax, one gate after another. Binding
        // happens inside `run_gate` and the loop stops at the first
        // failing gate, so under every configuration the error of the
        // lowest-indexed failing gate wins regardless of failure kind
        // (missing gate vs non-conformance vs budget).
        let runs = stg
            .gate_signals()
            .into_iter()
            .map(|a| self.run_gate(stg, library, a, &components, &oracle))
            .collect::<Result<Vec<_>, _>>()?;

        // Stage: merge, in gate order, so every configuration accumulates
        // the same sets, per-gate reports and trace.
        let t = Instant::now();
        let mut baseline: BTreeSet<Constraint> = BTreeSet::new();
        let mut constraints: BTreeSet<Constraint> = BTreeSet::new();
        let mut per_gate: Vec<GateReport> = Vec::new();
        let mut trace = Vec::new();
        let mut iterations = 0usize;
        let mut gates = Vec::new();
        let mut project_metrics = StageMetrics::new(Stage::Project);
        let mut relax_metrics = StageMetrics::new(Stage::Relax);
        for run in runs {
            baseline.extend(run.baseline.iter().cloned());
            constraints.extend(run.outcome.constraints.iter().cloned());
            iterations += run.outcome.iterations;
            trace.extend(run.outcome.trace.iter().cloned());
            per_gate.push(GateReport {
                gate: run.metrics.gate.clone(),
                baseline: run.baseline,
                derived: run.outcome.constraints,
            });
            project_metrics.add(&run.metrics.project);
            relax_metrics.add(&run.metrics.relax);
            gates.push(run.metrics);
        }
        let merge_metrics = StageMetrics::timed(Stage::Merge, t.elapsed());

        Ok(EngineReport {
            report: ConstraintReport {
                baseline,
                constraints,
                per_gate,
                trace,
                state_count,
                iterations,
            },
            stages: vec![
                decompose_metrics,
                project_metrics,
                relax_metrics,
                merge_metrics,
            ],
            gates,
            total_wall: started.elapsed(),
        })
    }

    /// One gate `a`: bind it, project its local STGs from every relevant
    /// MG component, record the baseline, pre-check conformance, then run
    /// the relaxation loop, one arc-weight table per local STG.
    fn run_gate(
        &self,
        stg: &Stg,
        library: &GateLibrary,
        a: SignalId,
        components: &[MgStg],
        oracle: &AdversaryOracle,
    ) -> Result<GateRun, CoreError> {
        let cfg = &self.config;
        let name = stg.signal_name(a).to_string();
        let mut baseline: BTreeSet<Constraint> = BTreeSet::new();
        let mut locals: Vec<LocalStg> = Vec::new();
        let mut project = StageMetrics::new(Stage::Project);

        let ectx = ExpandCtx {
            oracle,
            order: cfg.order,
            iteration_budget: cfg.expand_budget,
            sg_budget: LOCAL_SG_BUDGET,
            cache: self.cache.as_ref(),
            divergence_policy: cfg.divergence_policy,
        };
        let precheck = ExpandCtx {
            sg_budget: cfg.global_sg_budget,
            ..ectx
        };

        let project_started = Instant::now();
        let gate = library.gate(&name).ok_or_else(|| CoreError::MissingGate {
            signal: name.clone(),
        })?;
        let ctx = Arc::new(GateContext::bind(gate, stg)?);
        let ctx = &ctx;
        for component in components {
            // Components that do not exercise this gate's output are
            // skipped (free-choice branches without it).
            if !component
                .transitions()
                .iter()
                .any(|&t| component.label(t).signal == a)
            {
                continue;
            }
            let local = LocalStg {
                mg: component.project_on_gate(ctx.output, &ctx.fanin)?,
                ctx: ctx.clone(),
                guaranteed: BTreeSet::new(),
            };
            let names = local.mg.signal_names();

            // Record the baseline: every type-4 arc before relaxation.
            for (src, dst) in local.input_to_input_arcs() {
                baseline.insert(Constraint {
                    gate: name.clone(),
                    before: ConstraintAtom::from_label(local.mg.label(src), &names),
                    after: ConstraintAtom::from_label(local.mg.label(dst), &names),
                });
            }

            // Precondition: the initial local STG must be conformant. The
            // pre-check shares the engine's cache (and the global budget, as
            // the monolithic driver did).
            let sg = precheck.sg(&local.mg, &mut project)?;
            let (case, _) = classify_states(&local, &sg, &prerequisite_sets(&local), None)?;
            if case != RelaxationCase::Case1 {
                return Err(CoreError::NotConformant { gate: name.clone() });
            }
            locals.push(local);
        }
        project.wall = project_started.elapsed();

        let relax_started = Instant::now();
        let mut out = ExpandOutcome::default();
        for local in locals {
            expand_ctx(local, &ectx, &mut out)?;
        }
        out.metrics.wall = relax_started.elapsed();

        let metrics = GateMetrics {
            gate: name,
            iterations: out.iterations,
            project,
            relax: out.metrics,
        };
        Ok(GateRun {
            baseline,
            outcome: out,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::derive_timing_constraints;
    use si_boolean::parse_eqn;
    use si_stg::parse_astg;

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

    fn celem() -> (Stg, GateLibrary) {
        let stg = parse_astg(CELEM).expect("valid");
        let lib = GateLibrary::from_netlist(&parse_eqn(CELEM_EQN).expect("valid"));
        (stg, lib)
    }

    #[test]
    fn engine_matches_monolithic_driver() {
        let (stg, lib) = celem();
        let reference = derive_timing_constraints(&stg, &lib).expect("derives");
        for config in [EngineConfig::reference(), EngineConfig::default()] {
            let out = Engine::new(config).run(&stg, &lib).expect("derives");
            assert_eq!(out.report, reference, "{config:?}");
        }
    }

    #[test]
    fn shared_engine_reuses_the_cache_across_runs() {
        // The cold run marks its graphs, the second run stores them, and
        // the third run is answered from the cache.
        let (stg, lib) = celem();
        let engine = Engine::new(EngineConfig::default());
        let cold = engine.run(&stg, &lib).expect("derives");
        let admitting = engine.run(&stg, &lib).expect("derives");
        assert_eq!(cold.report, admitting.report);
        let stored = engine.cache_stats();
        assert!(stored.entries > 0, "{stored:?}");
        let warm = engine.run(&stg, &lib).expect("derives");
        assert_eq!(cold.report, warm.report);
        for stage in [Stage::Project, Stage::Relax] {
            let metrics = warm.stage(stage).expect("ran");
            assert_eq!(
                metrics.sg_cache_misses, 0,
                "third run must be fully cached: {metrics:?}"
            );
        }
        assert!(engine.cache_stats().hits > stored.hits);
    }

    #[test]
    fn reference_engine_memoizes_nothing() {
        // `reference()` is the differential oracle: it must store nothing,
        // so a second run explores every graph again.
        let (stg, lib) = celem();
        let engine = Engine::new(EngineConfig::reference());
        let first = engine.run(&stg, &lib).expect("derives");
        let second = engine.run(&stg, &lib).expect("derives");
        assert_eq!(first.report, second.report);
        assert_eq!(engine.cache_stats(), CacheStats::default());
        let explored = |out: &EngineReport| -> usize {
            [Stage::Project, Stage::Relax]
                .iter()
                .map(|&stage| out.stage(stage).expect("ran").states_explored)
                .sum()
        };
        assert!(explored(&second) > 0);
        assert_eq!(explored(&second), explored(&first));
    }

    #[test]
    fn missing_gate_surfaces_from_the_engine() {
        let stg = parse_astg(CELEM).expect("valid");
        let lib = GateLibrary::default();
        assert!(matches!(
            Engine::default().run(&stg, &lib),
            Err(CoreError::MissingGate { .. })
        ));
    }

    #[test]
    fn lowest_indexed_gate_error_wins_regardless_of_failure_kind() {
        // Gate `b` (index 0) is non-conformant (`b = a'` inverts the
        // acknowledged polarity) while gate `c` (index 1) has no library
        // entry at all. The reference derivation reports gate 0's failure;
        // every engine configuration must do the same.
        let stg = parse_astg(
            "\
.model two
.inputs a
.outputs b c
.graph
a+ b+
b+ c+
c+ a-
a- b-
b- c-
c- a+
.marking { <c-,a+> }
.end
",
        )
        .expect("valid");
        let lib = GateLibrary::from_netlist(&parse_eqn("b = a';").expect("valid"));
        for config in [EngineConfig::reference(), EngineConfig::default()] {
            match Engine::new(config).run(&stg, &lib) {
                Err(CoreError::NotConformant { gate }) => assert_eq!(gate, "b", "{config:?}"),
                other => panic!("{config:?}: expected NotConformant for `b`, got {other:?}"),
            }
        }
    }
}
