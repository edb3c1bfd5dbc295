//! `si_fuzz` — the differential fuzz harness over the synthetic corpus.
//!
//! For every seed, generates a circuit ([`si_corpus::generate`] under the
//! canonical [`CorpusSpec::from_seed`] derivation), checks the
//! generator's validity guarantee (zero lint errors), synthesizes its
//! complex-gate netlist, and runs the **full-featured engine**
//! ([`EngineConfig::default`]: caches, projection memo, σ-space
//! exploration) against the pinned **reference engine**
//! ([`EngineConfig::reference`]: sequential, uncached, marking-keyed). Any difference in the derived constraint
//! sets, per-gate verdicts or error values is a soundness bug in one of
//! the reuse layers; the harness then *minimizes* the spec (fewer
//! signals, choices, forks; two-phase; no OR tail) while the divergence
//! persists and prints a one-line reproducer:
//!
//! ```text
//! seed=42 signals=7 choices=1 or=60 fork=3 interleave=0 marking=place
//! ```
//!
//! Replay it with `si_fuzz --replay 'seed=42 signals=7 …'`. Circuits the
//! synthesizer rejects (CSC conflicts in interleaved mode, input-only
//! bursts) are counted and skipped — both engines need the same netlist
//! to compare.
//!
//! A cheap extra oracle rides along on every scanned seed: the generated
//! spec's parse-event stream must survive the S-expression interchange
//! round-trip (`parse → events → sexp → reader → tree`,
//! `docs/interchange.md`) bit-identically. A divergence is minimized and
//! reported through the same reproducer machinery as an engine mismatch.
//!
//! Exit codes: `0` no divergence, `1` divergence found (reproducer on
//! stdout and in the artifact file), `3` usage error.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use si_corpus::{generate, harness_config, CorpusSpec, GeneratedCircuit, MarkingStyle, Reproducer};
use si_redress::core::{ConstraintReport, CoreError, Engine, EngineConfig};
use si_redress::lint::LintOptions;
use si_redress::synth::synthesize;

const USAGE: &str = "\
usage: si_fuzz [OPTIONS]
       si_fuzz --replay '<reproducer line>'

Differential fuzzing: seeded synthetic circuits through the full-featured
engine vs the pinned sequential reference; any divergence in constraints,
verdicts or error values fails the run with a minimized reproducer. The
S-expression interchange round-trip is checked on every seed as a cheap
extra oracle under the same contract.

OPTIONS:
        --seeds <N>        number of seeds to scan (default 1000)
        --start <S>        first seed (default 1)
        --max-signals <K>  upper signal-count bound for generated
                           circuits (default 12, clamped to 2..=24)
    -j, --jobs <N>         parallel fuzz workers sharing one full-featured
                           engine (default 1, 0 = one per CPU)
        --artifact <PATH>  where to write the reproducer on failure
                           (default si_fuzz_failure.txt)
        --replay <LINE>    re-run one reproducer (`seed=… signals=… …`)
                           instead of scanning
    -h, --help             print this help and exit

EXIT CODES:
    0    no divergence over the scanned seeds
    1    divergence found; reproducer printed and written to the artifact
    3    usage error
";

struct Args {
    seeds: u64,
    start: u64,
    max_signals: usize,
    jobs: usize,
    artifact: String,
    replay: Option<Reproducer>,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        seeds: 1000,
        start: 1,
        max_signals: 12,
        jobs: 1,
        artifact: "si_fuzz_failure.txt".into(),
        replay: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--seeds" => args.seeds = parse_num(&value("--seeds")?)?,
            "--start" => args.start = parse_num(&value("--start")?)?,
            "--max-signals" => args.max_signals = parse_num(&value("--max-signals")?)? as usize,
            "-j" | "--jobs" => args.jobs = parse_num(&value("--jobs")?)? as usize,
            "--artifact" => args.artifact = value("--artifact")?,
            "--replay" => args.replay = Some(value("--replay")?.parse()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(args))
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("expected a number, got `{s}`"))
}

/// The semantic payload compared across engines: the constraint report
/// (baseline + relaxed sets, per-gate cases) or the error value. Wall
/// times and cache counters are config-dependent by design and excluded.
type Payload = Result<ConstraintReport, CoreError>;

/// Synthesizes the netlist once and runs it through both engines (they
/// share the same state budget, so one library serves both).
fn payloads(full: &Engine, reference: &Engine, c: &GeneratedCircuit) -> Option<(Payload, Payload)> {
    let library = synthesize(&c.stg, full.config().global_sg_budget).ok()?;
    let a = full.run(&c.stg, &library).map(|report| report.report);
    let b = reference.run(&c.stg, &library).map(|report| report.report);
    Some((a, b))
}

/// What went wrong on one seed.
enum Fault {
    /// The generator's zero-lint-errors guarantee broke.
    Guarantee(usize),
    /// Full-featured and reference engines disagree.
    Diverged(Box<Payload>, Box<Payload>),
    /// The S-expression interchange round-trip lost or changed a fact.
    SexpRoundTrip(String),
}

/// The interchange oracle: the spec's event stream, dumped to the sexp
/// format and read back, must rebuild the exact same parse (same `Stg`,
/// spans and defect list) as parsing the text directly. Returns a
/// what-differs description on violation.
fn sexp_divergence(g_text: &str) -> Option<String> {
    let direct = si_stg::parse_astg_lenient(g_text);
    let dump = si_stg::sexp::write_events(&si_stg::parse_events(g_text));
    let events = match si_stg::sexp::read_events(&dump) {
        Ok(events) => events,
        Err(e) => return Some(format!("reader rejects the writer's own dump: {e}")),
    };
    let rebuilt = si_stg::tree_of_events(&events);
    if rebuilt.stg != direct.stg {
        return Some("rebuilt Stg differs from the direct parse".into());
    }
    if rebuilt.spans != direct.spans {
        return Some("rebuilt spans differ from the direct parse".into());
    }
    if rebuilt.errors != direct.errors {
        return Some(format!(
            "rebuilt defect list differs: {:?} vs {:?}",
            rebuilt.errors, direct.errors
        ));
    }
    None
}

/// Checks one `(spec, seed)` case with **fresh, cold** engines — the
/// verification and minimization oracle, immune to shared-cache state.
fn fault_of(spec: &CorpusSpec, seed: u64) -> Option<Fault> {
    let c = generate(spec, seed);
    let budget = harness_config(EngineConfig::default()).global_sg_budget;
    let lint = si_redress::lint::lint_text_with(
        &c.g_text,
        &LintOptions {
            state_budget: Some(budget),
        },
    );
    if lint.error_count() > 0 {
        return Some(Fault::Guarantee(lint.error_count()));
    }
    if let Some(detail) = sexp_divergence(&c.g_text) {
        return Some(Fault::SexpRoundTrip(detail));
    }
    let (full, reference) = payloads(
        &Engine::new(harness_config(EngineConfig::default())),
        &Engine::new(harness_config(EngineConfig::reference())),
        &c,
    )?;
    (full != reference).then(|| Fault::Diverged(Box::new(full), Box::new(reference)))
}

/// Greedily shrinks the spec while the fault persists: fewer signals,
/// fewer choices, no OR tail, narrower forks, two-phase, implicit
/// marking.
fn minimize(spec: CorpusSpec, seed: u64) -> CorpusSpec {
    let mut spec = spec;
    loop {
        let candidates = [
            CorpusSpec {
                signals: spec.signals.saturating_sub(1),
                ..spec
            },
            CorpusSpec {
                choices: spec.choices.saturating_sub(1),
                ..spec
            },
            CorpusSpec {
                or_density: 0,
                ..spec
            },
            CorpusSpec {
                max_fork: spec.max_fork.saturating_sub(1),
                ..spec
            },
            CorpusSpec {
                interleave: false,
                ..spec
            },
            CorpusSpec {
                marking: MarkingStyle::ImplicitArcs,
                ..spec
            },
        ];
        let Some(smaller) = candidates
            .iter()
            .map(CorpusSpec::sanitized)
            .find(|cand| *cand != spec && fault_of(cand, seed).is_some())
        else {
            return spec;
        };
        spec = smaller;
    }
}

fn describe(fault: &Fault) -> String {
    match fault {
        Fault::Guarantee(errors) => {
            format!("generator validity guarantee violated: {errors} lint error(s)")
        }
        Fault::Diverged(full, reference) => format!(
            "engine diverges from reference\n--- full-featured ---\n{full:?}\n--- reference ---\n{reference:?}"
        ),
        Fault::SexpRoundTrip(detail) => {
            format!("sexp round-trip oracle violated: {detail}")
        }
    }
}

/// Reports one verified fault: minimize, print, write the artifact.
fn report_fault(seed: u64, max_signals: usize, artifact: &str) -> ExitCode {
    let spec = CorpusSpec::from_seed(seed, max_signals);
    let min_spec = minimize(spec, seed);
    let fault = fault_of(&min_spec, seed).expect("minimization preserves the fault");
    let repro = Reproducer {
        seed,
        spec: min_spec,
    };
    let c = generate(&min_spec, seed);
    let body = format!(
        "si_fuzz divergence\nreproducer: {repro}\nreplay: si_fuzz --replay '{repro}'\n\n{}\n\n--- minimized circuit ---\n{}",
        describe(&fault),
        c.g_text
    );
    println!("FAIL {repro}");
    println!("{}", describe(&fault));
    if let Err(e) = std::fs::write(artifact, &body) {
        eprintln!("si_fuzz: cannot write artifact `{artifact}`: {e}");
    } else {
        println!("reproducer written to {artifact}");
    }
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("si_fuzz: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(3);
        }
    };

    if let Some(repro) = args.replay {
        return match fault_of(&repro.spec, repro.seed) {
            Some(fault) => {
                println!("FAIL {repro}");
                println!("{}", describe(&fault));
                ExitCode::from(1)
            }
            None => {
                println!("ok: {repro} shows no divergence (or is skipped by synthesis)");
                ExitCode::SUCCESS
            }
        };
    }

    let jobs = if args.jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        args.jobs
    }
    .max(1);

    // The scan phase shares one full-featured engine across all workers
    // and seeds — exactly how a corpus batch exercises the reuse tiers —
    // while the reference engine is stateless by construction. Hits are
    // re-verified with fresh cold engines before being reported. Both
    // sides run with the divergence bail-out forced on (see
    // `si_corpus::harness_config`) at the real default iteration budget:
    // pathological fork shapes abort deterministically within one
    // watchdog window instead of spending hours in one circuit's
    // relaxation loop, and the `Diverged` verdict is itself a compared
    // payload.
    let full = Engine::new(harness_config(EngineConfig::default()));
    let reference = Engine::new(harness_config(EngineConfig::reference()));
    let next = AtomicU64::new(args.start);
    let end = args.start.saturating_add(args.seeds);
    let compared = AtomicU64::new(0);
    let skipped = AtomicU64::new(0);
    let suspects: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let started = Instant::now();

    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= end {
                    return;
                }
                let spec = CorpusSpec::from_seed(seed, args.max_signals);
                let c = generate(&spec, seed);
                let lint = si_redress::lint::lint_text_with(
                    &c.g_text,
                    &LintOptions {
                        state_budget: Some(full.config().global_sg_budget),
                    },
                );
                if lint.error_count() > 0 || sexp_divergence(&c.g_text).is_some() {
                    suspects.lock().expect("suspects").push(seed);
                    continue;
                }
                let Some((a, b)) = payloads(&full, &reference, &c) else {
                    skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                compared.fetch_add(1, Ordering::Relaxed);
                if a != b {
                    suspects.lock().expect("suspects").push(seed);
                }
            });
        }
    });

    let mut suspects = suspects.into_inner().expect("suspects");
    suspects.sort_unstable();
    // Re-verify cold: a warm-engine hit that a cold run cannot reproduce
    // would itself be a bug, but the reproducer must stand alone.
    let confirmed = suspects
        .iter()
        .find(|&&seed| fault_of(&CorpusSpec::from_seed(seed, args.max_signals), seed).is_some());

    let compared = compared.load(Ordering::Relaxed);
    let skipped = skipped.load(Ordering::Relaxed);
    println!(
        "scanned {} seeds [{}..{}) in {:.1}s: {compared} compared, {skipped} skipped (synthesis), {} divergent",
        args.seeds,
        args.start,
        end,
        started.elapsed().as_secs_f64(),
        suspects.len(),
    );
    match (confirmed, suspects.is_empty()) {
        (Some(&seed), _) => report_fault(seed, args.max_signals, &args.artifact),
        (None, false) => {
            // Warm-only anomaly: reproduce via the scan, not a one-liner.
            println!(
                "warm-engine divergence on seed(s) {suspects:?} did not reproduce cold; \
                 rerun with --start {} --seeds 1 --jobs 1 to investigate",
                suspects[0]
            );
            ExitCode::from(1)
        }
        (None, true) => {
            println!("no divergence");
            ExitCode::SUCCESS
        }
    }
}
