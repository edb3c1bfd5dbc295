//! `si_fuzz` — the differential fuzz harness over the synthetic corpus.
//!
//! Turns the scanned seeds into a manifest of generated circuits
//! ([`si_corpus::generate`] under the canonical [`CorpusSpec::from_seed`]
//! derivation, netlists synthesized by the runner) and runs it through
//! [`si_suite::run_corpus`], sharded over `-j` workers (each engine's
//! [`EngineConfig::jobs`]): once on the pinned **reference engine**
//! ([`EngineConfig::reference`]: uncached, marking-keyed), then three
//! times — cold, admitting, warm — on one shared **full-featured engine**
//! ([`EngineConfig::default`]: the interning explorer and the state-graph
//! cache). Every row of every full pass must match the reference row: the
//! same constraint report (baseline and relaxed sets, per-gate cases) or
//! the same error value. A difference is a soundness bug in one of the
//! reuse layers or in the sharded runner; the harness then *minimizes* the
//! spec (fewer signals, choices, forks; two-phase; no OR tail) while the
//! fault persists and prints a one-line reproducer:
//!
//! ```text
//! seed=42 signals=7 choices=1 or=60 fork=3 interleave=0 marking=place
//! ```
//!
//! Replay it with `si_fuzz --replay 'seed=42 signals=7 …'`. Circuits the
//! synthesizer rejects (CSC conflicts in interleaved mode, input-only
//! bursts) are counted as skipped.
//!
//! One cheap oracle rides along on every seed, the generator's validity
//! guarantee: the full-featured engine lints under [`LintPolicy::Deny`],
//! so a generated circuit with a lint error fails as
//! [`CorpusError::Lint`], and the front end validates every row, so one
//! that is not live, safe, free-choice and consistent fails as
//! [`CoreError::NotWellFormed`]; either breaks the guarantee. Such a
//! fault is minimized and reported like an engine mismatch.
//!
//! Every bail is audited too: the rows whose cold full-featured outcome
//! is `Diverged` run once more through `run_corpus`, on an engine under
//! [`DivergencePolicy::Exhaust`] for [`AUDIT_BUDGET`] iterations. The
//! covering ledger's token-pump sign is a heuristic, so a bailed seed that
//! converges there is a fault, minimized and reported like the others.
//!
//! A row that panics on any side is a fault too, even when both sides
//! panic alike: debug builds assert internal checks (every edit-local
//! redundancy sweep against a full one), and the reference engine runs
//! the same checks.
//!
//! Minimization and replay judge one seed at a time with a one-row
//! [`run_corpus`] on fresh engines, immune to shared-cache state.
//!
//! Exit codes: `0` no fault, `1` fault found (reproducer on stdout and in
//! the artifact file), `3` usage error.

use std::process::ExitCode;
use std::time::Instant;

use si_corpus::{
    corpus_name, generate, harness_config, CorpusSpec, MarkingStyle, Reproducer,
    DEFAULT_MAX_SIGNALS,
};
use si_redress::core::{
    ConstraintReport, CoreError, DivergencePolicy, Engine, EngineConfig, LintPolicy,
};
use si_redress::suite::{run_corpus, CorpusEntry, CorpusError, CorpusOutcome};

/// The help text.
fn usage() -> String {
    format!(
        "\
usage: si_fuzz [OPTIONS]
       si_fuzz --replay '<reproducer line>'

Differential fuzzing: seeded synthetic circuits through the full-featured
engine (a cold, an admitting and a warm sharded pass on one shared
engine) vs the pinned reference; any divergence in constraints, verdicts
or error values fails the run with a minimized reproducer. The
generator's validity guarantee (zero lint errors, a well-formed STG) is
checked on every seed as a cheap extra oracle under the same contract,
and every `Diverged` bail is re-run under the Exhaust policy for 1000
iterations: a bail that converges there fails the run too.

OPTIONS:
        --seeds <N>        number of seeds to scan, at least 1 (default 1000)
        --start <S>        first seed (default 1)
        --max-signals <K>  upper signal-count bound for generated
                           circuits (default {DEFAULT_MAX_SIGNALS}, clamped to 2..=24)
    -j, --jobs <N>         workers each pass is sharded over, sharing one
                           engine (default 1, 0 = one per CPU)
        --artifact <PATH>  where to write the reproducer on failure
                           (default si_fuzz_failure.txt)
        --replay <LINE>    re-run one reproducer (`seed=… signals=… …`)
                           instead of scanning
    -h, --help             print this help and exit

EXIT CODES:
    0    no fault over the scanned seeds
    1    fault found; reproducer printed and written to the artifact
    3    usage error
"
    )
}

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
        max_signals: DEFAULT_MAX_SIGNALS,
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
    if args.seeds == 0 && args.replay.is_none() {
        return Err("--seeds 0: the scan would compare nothing".into());
    }
    if args.start.checked_add(args.seeds).is_none() {
        return Err(format!(
            "--start {} --seeds {}: the seed range ends past {}",
            args.start,
            args.seeds,
            u64::MAX
        ));
    }
    Ok(Some(args))
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("expected a number, got `{s}`"))
}

/// The semantic payload compared across engines: the constraint report
/// (baseline + relaxed sets, per-gate cases) or the error value. Wall
/// times, cache counters and lint findings are config-dependent by design
/// and excluded.
fn payload(outcome: &CorpusOutcome) -> Result<&ConstraintReport, &CorpusError> {
    outcome.as_ref().map(|row| &row.report.report)
}

/// The iteration budget of the bail audit's `Exhaust` re-run. Every corpus
/// bail at 12 signals exhausts it in 0.4–1.4 s (release build, 2-vCPU
/// host), which keeps the CI scan short.
const AUDIT_BUDGET: usize = 1000;

/// The full-featured engine: the whole reuse stack, the corpus harness's
/// divergence bail-out, and the strict lint policy, under which a
/// generated circuit with a lint error fails as [`CorpusError::Lint`].
fn full_config() -> EngineConfig {
    harness_config(EngineConfig {
        lint: LintPolicy::Deny,
        ..EngineConfig::default()
    })
}

/// The pinned reference engine, under the same divergence bail-out.
fn reference_config() -> EngineConfig {
    harness_config(EngineConfig::reference())
}

/// The bail audit's engine: no ledger, at most [`AUDIT_BUDGET`] relaxation
/// iterations per gate.
fn audit_config() -> EngineConfig {
    EngineConfig {
        divergence_policy: DivergencePolicy::Exhaust,
        expand_budget: AUDIT_BUDGET,
        ..EngineConfig::default()
    }
}

/// The manifest row of `(spec, seed)`: the generated `.g` text under the
/// seed's canonical name, its netlist left to the runner to synthesize.
fn entry(spec: &CorpusSpec, seed: u64) -> CorpusEntry {
    CorpusEntry {
        name: corpus_name(seed),
        stg_text: generate(spec, seed).g_text,
        eqn_text: None,
    }
}

/// Whether the covering ledger bailed the row.
fn bailed(outcome: &CorpusOutcome) -> bool {
    matches!(
        outcome,
        Err(CorpusError::Derive {
            source: CoreError::Diverged { .. },
            ..
        })
    )
}

/// Describes the first fault one seed's outcomes show: a broken validity
/// guarantee (a lint error, an STG that is not well formed), a panic on
/// any side (the same panic on both sides too: it is a failed check, such
/// as a debug build's sweep assertion, not an outcome), a full-featured
/// outcome that differs from the reference, or an audited bail that
/// converges.
fn fault(
    full: &CorpusOutcome,
    reference: &CorpusOutcome,
    audit: Option<&CorpusOutcome>,
) -> Option<String> {
    let sides = [
        ("full-featured", Some(full)),
        ("reference", Some(reference)),
        ("exhaust", audit),
    ];
    for (side, outcome) in sides {
        if let Some(Err(panic @ CorpusError::Panicked { .. })) = outcome {
            return Some(format!("the {side} engine panicked: {panic}"));
        }
    }
    let invalid = match full {
        Err(CorpusError::Lint { errors, .. }) => Some(format!("{errors} lint error(s)")),
        Err(CorpusError::Derive {
            source: source @ CoreError::NotWellFormed { .. },
            ..
        }) => Some(source.to_string()),
        _ => None,
    };
    if let Some(detail) = invalid {
        return Some(format!("generator validity guarantee violated: {detail}"));
    }
    let (full, reference) = (payload(full), payload(reference));
    if full != reference {
        return Some(format!(
            "engine diverges from reference\n--- full-featured ---\n{full:?}\n--- reference ---\n{reference:?}"
        ));
    }
    match audit {
        Some(Ok(row)) => Some(format!(
            "bail converges under Exhaust ({AUDIT_BUDGET} iterations)\n--- full-featured ---\n{full:?}\n--- exhaust ---\n{:?}",
            row.report.report
        )),
        _ => None,
    }
}

/// Checks one `(spec, seed)` case with **fresh, cold** engines — the
/// verification and minimization oracle, immune to shared-cache state.
fn fault_of(spec: &CorpusSpec, seed: u64) -> Option<String> {
    let entry = [entry(spec, seed)];
    // A one-row `run_corpus` catches a panic as the scan does.
    let run = |config| run_corpus(&Engine::new(config), &entry).remove(0);
    let full = run(full_config());
    let reference = run(reference_config());
    let audit = bailed(&full).then(|| run(audit_config()));
    fault(&full, &reference, audit.as_ref())
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
        fault, c.g_text
    );
    println!("FAIL {repro}");
    println!("{fault}");
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
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("si_fuzz: {e}");
            eprint!("{}", usage());
            return ExitCode::from(3);
        }
    };

    if let Some(repro) = args.replay {
        return match fault_of(&repro.spec, repro.seed) {
            Some(fault) => {
                println!("FAIL {repro}");
                println!("{fault}");
                ExitCode::from(1)
            }
            None => {
                println!("ok: {repro} shows no fault (or is skipped by synthesis)");
                ExitCode::SUCCESS
            }
        };
    }

    // One manifest, sharded over the workers in every pass. The reference
    // engine is stateless by construction; the full-featured engine is
    // shared by its three passes — exactly how a corpus batch exercises
    // the reuse stack — and its cache stores a graph on its second
    // request, so the passes are cold, admitting and warm. Both sides run
    // with the divergence bail-out forced on (see
    // `si_corpus::harness_config`) at the real default iteration budget:
    // token pumps abort deterministically once the covering ledger sees a
    // loop state come back, and the `Diverged` verdict is itself a
    // compared payload. Suspects are re-verified with fresh cold engines
    // before being reported.
    let started = Instant::now();
    // `parse_args` rejected a range past `u64::MAX`.
    let end = args.start + args.seeds;
    let seeds: Vec<u64> = (args.start..end).collect();
    let manifest: Vec<CorpusEntry> = seeds
        .iter()
        .map(|&seed| entry(&CorpusSpec::from_seed(seed, args.max_signals), seed))
        .collect();
    let sharded = |config| {
        Engine::new(EngineConfig {
            jobs: args.jobs,
            ..config
        })
    };
    let reference = run_corpus(&sharded(reference_config()), &manifest);
    let mut rerun_diverged = vec![false; manifest.len()];
    let cold = {
        let full = sharded(full_config());
        let cold = run_corpus(&full, &manifest);
        // The admitting and warm passes are judged as they finish and
        // dropped, and so is the engine's warm cache, before the audits.
        for _ in ["admitting", "warm"] {
            let pass = run_corpus(&full, &manifest);
            for (i, outcome) in pass.iter().enumerate() {
                rerun_diverged[i] |= fault(outcome, &reference[i], None).is_some();
            }
        }
        cold
    };
    let bails: Vec<usize> = (0..manifest.len()).filter(|&i| bailed(&cold[i])).collect();
    let audit_manifest: Vec<CorpusEntry> = bails.iter().map(|&i| manifest[i].clone()).collect();
    let audits = run_corpus(&sharded(audit_config()), &audit_manifest);
    let suspects: Vec<u64> = (0..manifest.len())
        .filter(|&i| {
            let audit = bails.binary_search(&i).ok().map(|k| &audits[k]);
            rerun_diverged[i] || fault(&cold[i], &reference[i], audit).is_some()
        })
        .map(|i| seeds[i])
        .collect();
    // Generated circuits always parse, so a load error is the
    // synthesizer's rejection: nothing to relax.
    let skipped = reference
        .iter()
        .filter(|outcome| matches!(outcome, Err(CorpusError::Load { .. })))
        .count();

    // Re-verify cold: a warm-engine hit that a cold run cannot reproduce
    // would itself be a bug, but the reproducer must stand alone.
    let confirmed = suspects
        .iter()
        .find(|&&seed| fault_of(&CorpusSpec::from_seed(seed, args.max_signals), seed).is_some());

    println!(
        "scanned {} seeds [{}..{}) in {:.1}s: {} compared, {skipped} skipped (synthesis), {} divergent",
        args.seeds,
        args.start,
        end,
        started.elapsed().as_secs_f64(),
        manifest.len() - skipped,
        suspects.len(),
    );
    println!(
        "audited {} bails under Exhaust ({AUDIT_BUDGET} iterations): {} converged",
        audits.len(),
        audits.iter().filter(|audit| audit.is_ok()).count(),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn panicked(detail: &str) -> CorpusOutcome {
        Err(CorpusError::Panicked {
            name: "corpus-0001".into(),
            detail: detail.into(),
        })
    }

    fn rejected() -> CorpusOutcome {
        Err(CorpusError::Load {
            name: "corpus-0001".into(),
            detail: "synthesis rejected the STG".into(),
        })
    }

    #[test]
    fn a_panic_on_any_side_is_a_fault() {
        // Equal outcomes are no fault, unless they are the same panic.
        assert_eq!(fault(&rejected(), &rejected(), None), None);
        let same = fault(&panicked("sweep"), &panicked("sweep"), None);
        assert!(same.is_some_and(|f| f.contains("full-featured engine panicked")));
        let reference = fault(&rejected(), &panicked("sweep"), None);
        assert!(reference.is_some_and(|f| f.contains("reference engine panicked")));
        let audit = fault(&rejected(), &rejected(), Some(&panicked("sweep")));
        assert!(audit.is_some_and(|f| f.contains("exhaust engine panicked")));
    }

    #[test]
    fn a_seed_range_past_the_last_seed_is_a_usage_error() {
        let parse = |start: u64, seeds: u64| {
            let (start, seeds) = (start.to_string(), seeds.to_string());
            let argv = ["--start", &start, "--seeds", &seeds].map(String::from);
            parse_args(&argv).map(|args| args.is_some())
        };
        let err = parse(u64::MAX, 2).expect_err("ends past u64::MAX");
        assert!(err.contains("ends past"), "{err}");
        assert!(parse(1, u64::MAX).is_err());
        // The last range that fits ends at `u64::MAX`, exclusive.
        assert_eq!(parse(u64::MAX - 2, 2), Ok(true));
    }

    #[test]
    fn a_scan_of_zero_seeds_is_a_usage_error() {
        let parse = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|arg| (*arg).to_string()).collect();
            parse_args(&argv).map(|args| args.is_some())
        };
        let err = parse(&["--seeds", "0"]).expect_err("nothing to compare");
        assert!(err.contains("--seeds 0"), "{err}");
        assert_eq!(parse(&["--seeds", "1"]), Ok(true));
        // A replay scans no range, so it ignores `--seeds`.
        let replay = ["--seeds", "0", "--replay", "seed=7 signals=4"];
        assert_eq!(parse(&replay), Ok(true));
    }
}
