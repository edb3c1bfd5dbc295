//! End-to-end benchmark of the derivation pipeline: `.g` text in,
//! constraint report out, through `si_suite::run_corpus_entry` (lint,
//! strict parse, fixed netlist or synthesis, `Engine::run`).
//!
//! Each workload runs as a closed loop with one client: the next row is
//! submitted when the previous report is back, everything sequential
//! (`jobs = 1`). A *pass* runs every manifest row once; the measurement
//! repeats passes until the run's time is up, then reports medians of
//! times scaled to nominal host speed ([`speed`]). The traced mode
//! alternates untraced and traced passes, so the layer breakdown and the
//! tracing overhead come from the same run.
//!
//! Every row of every pass — timed, traced or priming — is checked
//! against the reference engine ([`Gate`]); see `README.md` next to this
//! crate for the workloads and the metric map.

pub mod gate;
pub mod manifest;
pub mod speed;
pub mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use si_core::{Engine, EngineConfig};
use si_corpus::{harness_config, CorpusRng};
use si_suite::{run_corpus_entry, CorpusOutcome};

pub use gate::{Expected, Gate, Kind, Mismatch};
pub use manifest::Row;
use speed::HostSpeed;
use trace::{Tracer, LAYERS, STAGES};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 13 Table 7.2 circuits on a fresh engine every pass.
    SuiteCold,
    /// The corpus manifest on a fresh engine every pass.
    CorpusCold,
    /// The corpus manifest on one engine primed by an untimed pass.
    CorpusWarm,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteCold,
        Workload::CorpusCold,
        Workload::CorpusWarm,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::CorpusCold => "corpus-cold",
            Workload::CorpusWarm => "corpus-warm",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Corpus manifest size: the canonical corpus seeds `1..=CORPUS_ROWS`.
const CORPUS_ROWS: u64 = 1200;

/// Set-up is repeated for at least this long, at least
/// `SETUP_MIN_REPS` and at most `SETUP_MAX_REPS` times, so a microsecond
/// set-up still yields a steady median.
const SETUP_MIN_SECONDS: f64 = 1.5;
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 1000;

/// Slowest rows listed.
const TOP_K: usize = 5;

/// Row latency percentiles are taken per block of consecutive untraced
/// passes, the fewest that hold this many row samples, so the p99 of
/// every block has at least ten samples beyond it.
const BLOCK_SAMPLES: usize = 1000;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("circuits_per_s", "1/s"),
    ("row_p50_ms", "ms"),
    ("row_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs): name and unit. Counts and times are
/// per pass (median over traced passes); ratios are over every traced
/// pass of the run.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("lint.busy_ms", "ms"),
    ("parse.busy_ms", "ms"),
    ("parse.mb_per_s", "MB/s"),
    ("synth.busy_ms", "ms"),
    ("synth.csc_rejects", "count"),
    ("engine.busy_ms", "ms"),
    ("engine.decompose_ms", "ms"),
    ("engine.project_ms", "ms"),
    ("engine.relax_ms", "ms"),
    ("engine.merge_ms", "ms"),
    ("relax.trials", "count"),
    ("relax.us_per_trial", "us"),
    ("engine.diverged_rows", "count"),
    ("engine.diverged_ms", "ms"),
    ("engine.useful_ratio", "ratio"),
    ("sg_cache.hits", "count"),
    ("sg_cache.misses", "count"),
    ("sg_cache.hit_ratio", "ratio"),
    ("sg_cache.entries", "count"),
    ("states_explored", "count"),
    ("proj_memo.hit_ratio", "ratio"),
    ("conf_cache.hit_ratio", "ratio"),
    ("conf_cache.entries", "count"),
    ("suite.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Draws the row order of every pass.
    pub seed: u64,
    /// Measurement time; at least one pass (two when traced) always runs.
    pub seconds: f64,
    /// Alternate untraced and traced passes and report per-layer metrics.
    pub trace: bool,
    /// Corpus generator seeds of the corpus workloads.
    pub corpus_seeds: Vec<u64>,
}

impl Options {
    /// The defaults for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            corpus_seeds: (1..=CORPUS_ROWS).collect(),
        }
    }
}

/// The engine every timed pass uses: the default reuse stack, sequential,
/// with the corpus harness's divergence bail-out.
fn engine_config() -> EngineConfig {
    harness_config(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    })
}

/// The golden snapshots `suite-cold` is checked against.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../tests/golden")
}

/// A workload made ready to measure.
#[derive(Debug)]
pub struct Prepared {
    /// The manifest.
    pub rows: Vec<Row>,
    /// The expected outcome of every row.
    pub gate: Gate,
    /// Wall of each set-up repetition, in seconds, scaled to nominal host
    /// speed ([`speed`]).
    pub setup_s: Vec<f64>,
    /// The same walls, unscaled.
    pub setup_raw_s: Vec<f64>,
    /// Golden and priming-pass mismatches.
    pub mismatches: Vec<Mismatch>,
    warm: Option<Engine>,
}

fn check_pass(gate: &Gate, outcomes: &[CorpusOutcome]) -> Vec<Mismatch> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(row, outcome)| gate.check(row, outcome))
        .collect()
}

/// Row orders: a fresh shuffle of the manifest for every pass, drawn from
/// the workload seed. Which of two circuits that share state graphs pays
/// for exploring them depends on their order, so reshuffling per pass
/// averages a run over many orders instead of measuring one.
struct Orders {
    rng: CorpusRng,
    order: Vec<usize>,
}

impl Orders {
    fn new(seed: u64, rows: usize) -> Orders {
        Orders {
            rng: CorpusRng::new(seed),
            order: (0..rows).collect(),
        }
    }

    fn next_pass(&mut self) -> &[usize] {
        self.rng.shuffle(&mut self.order);
        &self.order
    }
}

/// Builds the manifest and its reference outcomes, then times set-up
/// repeatedly: manifest generation, engine construction and, for
/// `corpus-warm`, the priming pass. The reference run is not set-up.
/// Set-up walls are scaled to nominal host speed like the passes.
pub fn prepare(opts: &Options) -> Prepared {
    let rows = manifest::build(opts.workload, &opts.corpus_seeds);
    let gate = Gate::from_reference(&rows);
    let mut mismatches = if opts.workload == Workload::SuiteCold {
        gate.check_goldens(&golden_dir())
    } else {
        Vec::new()
    };
    let mut warm = None;
    let mut speed = HostSpeed::new();
    let mut pieces = Vec::new();
    let mut reps = 0;
    let setup_started = Instant::now();
    while reps < SETUP_MIN_REPS
        || (reps < SETUP_MAX_REPS && setup_started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        // Release the previous primed engine before timing the next.
        drop(warm.take());
        let rep = reps;
        reps += 1;
        let started = Instant::now();
        let built = manifest::build(opts.workload, &opts.corpus_seeds);
        let engine = Engine::new(engine_config());
        speed.record(rep, started.elapsed().as_secs_f64(), &mut pieces);
        // The priming pass runs in manifest order: the engine's decompose
        // memo admits the first 64 specifications it meets, and those
        // should not depend on the seed. Rows are timed one by one so
        // calibration units can run between them.
        let primed: Vec<CorpusOutcome> = if opts.workload == Workload::CorpusWarm {
            built
                .iter()
                .map(|row| {
                    let started = Instant::now();
                    let outcome = run_corpus_entry(&engine, &row.entry);
                    speed.record(rep, started.elapsed().as_secs_f64(), &mut pieces);
                    outcome
                })
                .collect()
        } else {
            Vec::new()
        };
        black_box(built);
        mismatches.extend(check_pass(&gate, &primed));
        if opts.workload == Workload::CorpusWarm {
            warm = Some(engine);
        }
    }
    speed.flush(&mut pieces);
    let (mut setup_s, mut setup_raw_s) = (vec![0.0; reps], vec![0.0; reps]);
    for (rep, raw, scaled) in pieces {
        setup_raw_s[rep] += raw;
        setup_s[rep] += scaled;
    }
    Prepared {
        rows,
        gate,
        setup_s,
        setup_raw_s,
        mismatches,
        warm,
    }
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one measured run.
#[derive(Debug)]
pub struct RunResult {
    /// Rows run in measured passes.
    pub attempted: usize,
    /// Rows whose outcome differed from the reference (set-up included).
    pub mismatches: Vec<Mismatch>,
    /// [`END_TO_END`] untraced, [`PER_LAYER`] traced.
    pub metrics: Vec<Metric>,
    /// Every row's outcome in the last pass of the run's own mode
    /// (traced in a traced run).
    pub outcomes: Vec<Expected>,
    /// Every row's kind in that pass.
    pub kinds: Vec<Kind>,
    /// Human-readable scope, error breakdown and slowest rows.
    pub lines: Vec<String>,
    /// The traced run's spans, and where its last traced pass starts.
    pub trace: Option<(Tracer, usize)>,
}

impl RunResult {
    /// Whether every row matched the reference.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The final output line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.mismatches.len(),
            metrics.join(", ")
        )
    }
}

/// Cumulative cache counters of an engine.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    sg_hits: usize,
    sg_misses: usize,
    sg_entries: usize,
    proj_hits: usize,
    proj_misses: usize,
    conf_hits: usize,
    conf_misses: usize,
    conf_entries: usize,
}

impl Counters {
    fn of(engine: &Engine) -> Counters {
        let (sg, proj, conf) = (
            engine.cache_stats(),
            engine.projection_stats(),
            engine.conformance_stats(),
        );
        Counters {
            sg_hits: sg.hits,
            sg_misses: sg.misses,
            sg_entries: sg.entries,
            proj_hits: proj.hits,
            proj_misses: proj.misses,
            conf_hits: conf.hits,
            conf_misses: conf.misses,
            conf_entries: conf.entries,
        }
    }

    /// Traffic since `before`; entries as they stand now.
    fn since(self, before: Counters) -> Counters {
        Counters {
            sg_hits: self.sg_hits - before.sg_hits,
            sg_misses: self.sg_misses - before.sg_misses,
            proj_hits: self.proj_hits - before.proj_hits,
            proj_misses: self.proj_misses - before.proj_misses,
            conf_hits: self.conf_hits - before.conf_hits,
            conf_misses: self.conf_misses - before.conf_misses,
            ..self
        }
    }
}

/// What one traced pass spent, by layer.
#[derive(Debug, Clone, Default)]
struct TracedPass {
    wall_ms: f64,
    span_ms: BTreeMap<&'static str, f64>,
    parsed_bytes: usize,
    csc_rejects: usize,
    diverged_rows: usize,
    diverged_ms: f64,
    engine_ok_ms: f64,
    trials: usize,
    states: usize,
    counters: Counters,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile of `sorted`: the 99th (nearest rank) when at least
/// ten samples lie beyond it, else the highest percentile that has ten
/// beyond. Returns the value, the percentile used and the count beyond.
fn tail(sorted: &[f64]) -> (f64, f64, usize) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let p99 = (n * 99).div_ceil(100).max(1);
    let rank = if n - p99 >= 10 {
        p99
    } else {
        n.saturating_sub(10).max(1)
    };
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64, n - rank)
}

/// `row_p50_ms`, `row_p99_ms` and a line stating their basis, from
/// per-row samples (one per untraced pass). Each is the median over
/// blocks of consecutive passes of the block's percentile, so a burst of
/// contention on the host spoils only the blocks it overlaps.
fn latency(samples: &[Vec<f64>]) -> (f64, f64, String) {
    let passes = samples.first().map_or(0, Vec::len);
    let per_block = BLOCK_SAMPLES.div_ceil(samples.len().max(1));
    let blocks = (passes / per_block).max(1);
    let (mut p50, mut p99, mut lowest_pct, mut fewest_beyond) =
        (Vec::new(), Vec::new(), 100.0, usize::MAX);
    for b in 0..blocks {
        // The last block takes the passes left over.
        let end = if b + 1 == blocks {
            passes
        } else {
            (b + 1) * per_block
        };
        let mut block: Vec<f64> = samples
            .iter()
            .flat_map(|row| &row[b * per_block..end])
            .copied()
            .collect();
        block.sort_by(f64::total_cmp);
        let (value, pct, beyond) = tail(&block);
        p50.push(median(&block));
        p99.push(value);
        lowest_pct = f64::min(lowest_pct, pct);
        fewest_beyond = fewest_beyond.min(beyond);
    }
    let basis = format!(
        "row_p50_ms and row_p99_ms are medians over {blocks} blocks of {per_block}+ consecutive passes \
         ({} row samples in all); the tail is the p{lowest_pct:.2} or higher of each block, \
         with at least {fewest_beyond} samples beyond it",
        samples.iter().map(Vec::len).sum::<usize>()
    );
    (median(&p50), median(&p99), basis)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
    Metric { name, unit, value }
}

/// Runs measured passes over `prepared` until `opts.seconds` have passed
/// and reports the metrics of the run's mode.
pub fn measure(opts: &Options, prepared: &Prepared) -> RunResult {
    let rows = &prepared.rows;
    let n = rows.len();
    let mut mismatches = prepared.mismatches.clone();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut scaled_samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut untraced_walls = Vec::new();
    let mut scaled_walls = Vec::new();
    // Only the end-to-end metrics are scaled; a traced run keeps its
    // untraced passes free of calibration units, so its layer breakdown
    // compares like with like.
    let mut speed = (!opts.trace).then(HostSpeed::new);
    let mut resolved = Vec::new();
    let mut traced_layer_sums: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut traced = Vec::new();
    let mut tracer = Tracer::default();
    let mut last_traced = 0;
    let mut outcomes = Vec::new();
    let mut kinds = Vec::new();
    let mut attempted = 0;
    let mut orders = Orders::new(opts.seed, n);
    let started = Instant::now();
    for pass in 0.. {
        let is_traced = opts.trace && pass % 2 == 1;
        let fresh;
        let engine = match &prepared.warm {
            Some(engine) => engine,
            None => {
                fresh = Engine::new(engine_config());
                &fresh
            }
        };
        let before = Counters::of(engine);
        let first_span = tracer.spans.len();
        let first_row = tracer.rows.len();
        let order = orders.next_pass();
        let mut slots: Vec<Option<CorpusOutcome>> = vec![None; n];
        let mut walls = vec![Duration::ZERO; n];
        let pass_started = Instant::now();
        for &i in order {
            let entry = &rows[i].entry;
            if is_traced {
                slots[i] = Some(tracer.run_entry(i, engine, entry));
            } else {
                let t = Instant::now();
                let outcome = run_corpus_entry(engine, entry);
                walls[i] = t.elapsed();
                slots[i] = Some(black_box(outcome));
                if let Some(speed) = &mut speed {
                    speed.record(i, walls[i].as_secs_f64(), &mut resolved);
                }
            }
        }
        // An untraced pass's wall is the sum of its rows, which leaves out
        // the calibration units between them.
        let wall = if is_traced {
            pass_started.elapsed()
        } else {
            if let Some(speed) = &mut speed {
                speed.flush(&mut resolved);
            }
            walls.iter().sum()
        };
        attempted += n;
        let pass_outcomes: Vec<CorpusOutcome> = slots.into_iter().flatten().collect();

        // Nothing below is timed.
        mismatches.extend(check_pass(&prepared.gate, &pass_outcomes));
        if is_traced {
            last_traced = first_span;
            let mut p = TracedPass {
                wall_ms: ms(wall),
                counters: Counters::of(engine).since(before),
                ..TracedPass::default()
            };
            for s in &tracer.spans[first_span..] {
                *p.span_ms.entry(s.name).or_default() += ms(s.dur);
                if s.name == "engine" {
                    match tracer.rows[s.row].kind {
                        Kind::Ok => p.engine_ok_ms += ms(s.dur),
                        Kind::Diverged => p.diverged_ms += ms(s.dur),
                        _ => {}
                    }
                }
                if LAYERS.contains(&s.name) {
                    let sums = &mut traced_layer_sums[tracer.rows[s.row].index];
                    match sums.get_mut(traced.len()) {
                        Some(sum) => *sum += ms(s.dur),
                        None => sums.push(ms(s.dur)),
                    }
                }
            }
            for r in &tracer.rows[first_row..] {
                p.parsed_bytes += r.parsed_bytes;
                p.csc_rejects += usize::from(r.kind == Kind::CscReject);
                p.diverged_rows += usize::from(r.kind == Kind::Diverged);
            }
            for row in pass_outcomes.iter().flatten() {
                p.trials += row.report.report.iterations;
                p.states += row
                    .report
                    .stages
                    .iter()
                    .map(|s| s.states_explored)
                    .sum::<usize>();
            }
            traced.push(p);
        } else {
            untraced_walls.push(wall.as_secs_f64());
            for (i, w) in walls.iter().enumerate() {
                samples[i].push(ms(*w));
            }
            scaled_walls.push(resolved.iter().map(|r| r.2).sum::<f64>());
            for (i, _, scaled) in resolved.drain(..) {
                scaled_samples[i].push(scaled * 1e3);
            }
        }
        // A traced run ends on a traced pass, so its last pass is one of
        // each kind.
        if !mismatches.is_empty()
            || (is_traced == opts.trace && started.elapsed().as_secs_f64() >= opts.seconds)
        {
            outcomes = pass_outcomes.iter().map(Expected::of).collect();
            kinds = if is_traced {
                let mut kinds = vec![Kind::Ok; n];
                for r in &tracer.rows[first_row..] {
                    kinds[r.index] = r.kind;
                }
                kinds
            } else {
                pass_outcomes.iter().map(Kind::of).collect()
            };
            break;
        }
    }

    let mut lines = vec![
        format!(
            "perfbench {}: {} rows per pass, {} untraced + {} traced passes; closed loop, one client, jobs 1",
            opts.workload.name(),
            n,
            untraced_walls.len(),
            traced.len()
        ),
        format!(
            "scope {{\"workload\": \"{}\", \"seed\": {}, \"host_cpus\": {}, \"profile\": \"{}\", \
             \"manifest_rows\": {}, \"corpus_seeds\": \"{}\", \"untraced_passes\": {}, \"setup_reps\": {}}}",
            opts.workload.name(),
            opts.seed,
            std::thread::available_parallelism().map_or(1, usize::from),
            if cfg!(debug_assertions) { "debug" } else { "release" },
            n,
            match (opts.workload, opts.corpus_seeds.first(), opts.corpus_seeds.last()) {
                (Workload::SuiteCold, _, _) | (_, None, _) | (_, _, None) => "none".to_string(),
                (_, Some(a), Some(b)) => format!("{a}..={b}"),
            },
            untraced_walls.len(),
            prepared.setup_s.len(),
        ),
    ];
    let count = |k: Kind| kinds.iter().filter(|&&x| x == k).count() as f64;
    let rows_f = kinds.len().max(1) as f64;
    lines.push(format!(
        "error_frac = {:.4} of {} rows (csc_reject {:.4}, diverged {:.4}, other {:.4})",
        (rows_f - count(Kind::Ok)) / rows_f,
        kinds.len(),
        count(Kind::CscReject) / rows_f,
        count(Kind::Diverged) / rows_f,
        count(Kind::Other) / rows_f,
    ));

    let metrics = match &speed {
        None => {
            // Per row: untraced wall minus its traced layer spans, medians
            // of each so pass-to-pass noise cancels row by row.
            let unattributed = samples
                .iter()
                .zip(&traced_layer_sums)
                .map(|(walls, layers)| median(walls) - median(layers))
                .sum();
            per_layer(&traced, &untraced_walls, unattributed)
        }
        Some(speed) => {
            let (p50, p99, basis) = latency(&scaled_samples);
            let (raw_p50, raw_p99, _) = latency(&samples);
            lines.push(basis);
            lines.push(format!(
                "unscaled: circuits_per_s {:.2}, row_p50_ms {raw_p50:.4}, row_p99_ms {raw_p99:.4}, \
                 setup_s {:.6}; host speed {:.3} of nominal (median of {} calibration units)",
                n as f64 / median(&untraced_walls),
                median(&prepared.setup_raw_s),
                speed::NOMINAL_UNIT_S / median(&speed.units),
                speed.units.len(),
            ));
            let m = |name, value| metric(&END_TO_END, name, value);
            vec![
                m("circuits_per_s", n as f64 / median(&scaled_walls)),
                m("row_p50_ms", p50),
                m("row_p99_ms", p99),
                m("peak_rss_mb", peak_rss_mb()),
                m("setup_s", median(&prepared.setup_s)),
            ]
        }
    };
    lines.extend(slowest(opts, prepared, &samples, &tracer));
    RunResult {
        attempted,
        mismatches,
        metrics,
        outcomes,
        kinds,
        lines,
        trace: opts.trace.then_some((tracer, last_traced)),
    }
}

fn per_layer(traced: &[TracedPass], untraced_walls: &[f64], unattributed_ms: f64) -> Vec<Metric> {
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let span =
        |name: &'static str| move |p: &TracedPass| p.span_ms.get(name).copied().unwrap_or(0.0);
    let total = |f: &dyn Fn(&TracedPass) -> f64| traced.iter().map(f).sum::<f64>();
    let c = |f: fn(&Counters) -> usize| move |p: &TracedPass| f(&p.counters) as f64;
    let m = |name: &str, value: f64| metric(&PER_LAYER, name, value);
    let mut out = vec![
        m("lint.busy_ms", med(&span("lint"))),
        m("parse.busy_ms", med(&span("parse"))),
        m(
            "parse.mb_per_s",
            ratio(
                total(&|p| p.parsed_bytes as f64) / 1e6,
                total(&span("parse")) / 1e3,
            ),
        ),
        m("synth.busy_ms", med(&span("synth"))),
        m("synth.csc_rejects", med(&|p| p.csc_rejects as f64)),
        m("engine.busy_ms", med(&span("engine"))),
    ];
    for (_, name) in STAGES {
        out.push(m(&format!("{name}_ms"), med(&span(name))));
    }
    out.extend([
        m("relax.trials", med(&|p| p.trials as f64)),
        m(
            "relax.us_per_trial",
            ratio(
                total(&span("engine.relax")) * 1e3,
                total(&|p| p.trials as f64),
            ),
        ),
        m("engine.diverged_rows", med(&|p| p.diverged_rows as f64)),
        m("engine.diverged_ms", med(&|p| p.diverged_ms)),
        m(
            "engine.useful_ratio",
            ratio(total(&|p| p.engine_ok_ms), total(&span("engine"))),
        ),
        m("sg_cache.hits", med(&c(|c| c.sg_hits))),
        m("sg_cache.misses", med(&c(|c| c.sg_misses))),
        m(
            "sg_cache.hit_ratio",
            ratio(
                total(&c(|c| c.sg_hits)),
                total(&c(|c| c.sg_hits + c.sg_misses)),
            ),
        ),
        m("sg_cache.entries", med(&c(|c| c.sg_entries))),
        m("states_explored", med(&|p| p.states as f64)),
        m(
            "proj_memo.hit_ratio",
            ratio(
                total(&c(|c| c.proj_hits)),
                total(&c(|c| c.proj_hits + c.proj_misses)),
            ),
        ),
        m(
            "conf_cache.hit_ratio",
            ratio(
                total(&c(|c| c.conf_hits)),
                total(&c(|c| c.conf_hits + c.conf_misses)),
            ),
        ),
        m("conf_cache.entries", med(&c(|c| c.conf_entries))),
        m("suite.unattributed_ms", unattributed_ms),
        m(
            "trace.overhead_pct",
            100.0 * (ratio(med(&|p| p.wall_ms) / 1e3, median(untraced_walls)) - 1.0),
        ),
    ]);
    out
}

/// The `TOP_K` slowest rows by median wall, with seed, outcome kind and —
/// in a traced run — the mean per-layer split of their traced passes.
fn slowest(
    opts: &Options,
    prepared: &Prepared,
    samples: &[Vec<f64>],
    tracer: &Tracer,
) -> Vec<String> {
    let rows = &prepared.rows;
    let mut split: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); rows.len()];
    let mut traced_passes = vec![0usize; rows.len()];
    let mut kind = vec![None; rows.len()];
    for r in &tracer.rows {
        traced_passes[r.index] += 1;
        kind[r.index] = Some(r.kind);
    }
    for s in &tracer.spans {
        *split[tracer.rows[s.row].index].entry(s.name).or_default() += ms(s.dur);
    }
    let wall: Vec<f64> = (0..rows.len())
        .map(|i| {
            if opts.trace {
                split[i].get("row").copied().unwrap_or(0.0) / traced_passes[i].max(1) as f64
            } else {
                median(&samples[i])
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| wall[b].total_cmp(&wall[a]));
    let mut lines = vec![format!("slowest {} rows:", TOP_K.min(rows.len()))];
    for &i in order.iter().take(TOP_K) {
        let kind = kind[i].unwrap_or_else(|| prepared.gate.expected(i).kind());
        let mut line = format!(
            "  {:>10.3} ms  {:<10}  {}",
            wall[i],
            kind.name(),
            rows[i].label()
        );
        if opts.trace {
            let mean = |name: &str| {
                split[i].get(name).copied().unwrap_or(0.0) / traced_passes[i].max(1) as f64
            };
            let parts: Vec<String> = LAYERS
                .iter()
                .chain(STAGES.iter().map(|(_, name)| name))
                .map(|name| format!("{name} {:.3}", mean(name)))
                .collect();
            line.push_str(&format!("  [{}]", parts.join(", ")));
        }
        lines.push(line);
    }
    lines
}
