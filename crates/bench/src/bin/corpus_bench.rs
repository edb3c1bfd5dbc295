//! `corpus_bench` — the sharded corpus runner's contract and speedup,
//! measured and written as a machine-readable artifact.
//!
//! Generates an `N`-circuit synthetic manifest (canonical
//! [`CorpusSpec::from_seed`] derivation, seeds `1..=N`), then runs it
//! three ways through [`si_suite::run_corpus`]:
//!
//! 1. **sequential reference** — a fresh engine, an explicit
//!    `run_corpus_entry` loop in manifest order;
//! 2. **sharded cold** — a fresh engine, `--jobs` worker shards;
//! 3. **sharded second pass** — the same engine again. The structural
//!    caches store a graph on its second request, so this pass stores
//!    what the cold one asked for once; it is not yet warm (the JSON
//!    still names its wall `shard_warm_wall_us`).
//!
//! Every sharded row's payload (constraint report, lint findings, error
//! value) is asserted **bit-identical** to the sequential reference —
//! the row-order merge contract — and the wall clocks plus the
//! cold-speedup ratio land in a `BENCH_table72.json`-style JSON artifact
//! (default `BENCH_corpus.json`). The measured speedup is honest: on a
//! single-CPU host it hovers near 1×; the ≥2× circuit-level scaling
//! shows up from 2+ cores (gate fan-out inside these small circuits is
//! too shallow to parallelize — sharding across circuits is the lever).
//!
//! Exit codes: `0` contract holds, `1` sharded output diverged from the
//! sequential reference, `3` usage error.

use std::process::ExitCode;
use std::time::Instant;

use si_core::{Engine, EngineConfig};
use si_corpus::{corpus_name, generate, harness_config, CorpusSpec};
use si_suite::{run_corpus, run_corpus_entry, CorpusEntry, CorpusOutcome};

const USAGE: &str = "\
usage: corpus_bench [--circuits N] [--jobs J] [--max-signals K] [--json [PATH]]

Runs an N-circuit seeded synthetic corpus sharded over J workers against
a sequential single-engine reference loop, asserts row-for-row payload
identity, and records the wall clocks in a JSON artifact.

OPTIONS:
        --circuits <N>     manifest size (default 1000, seeds 1..=N)
    -j, --jobs <J>         worker shards (default 8, 0 = one per CPU)
        --max-signals <K>  generator signal-count bound (default 10)
        --json [PATH]      artifact path (default BENCH_corpus.json)
    -h, --help             print this help and exit
";

fn json_str(s: &str) -> String {
    format!("\"{}\"", si_lint::json_escape(s))
}

/// The comparable payload of one row: everything except wall times and
/// cache counters (which legitimately differ across schedules).
fn payload(outcome: &CorpusOutcome) -> String {
    match outcome {
        Ok(row) => format!("{}|{:?}|{:?}", row.name, row.report.report, row.lint),
        Err(e) => format!("err|{e:?}"),
    }
}

fn main() -> ExitCode {
    let mut circuits: u64 = 1000;
    let mut jobs: usize = 8;
    let mut max_signals: usize = 10;
    let mut json_path = "BENCH_corpus.json".to_string();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        let result: Result<(), String> = match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--circuits" => value("--circuits").and_then(|v| {
                circuits = v.parse().map_err(|_| format!("bad --circuits `{v}`"))?;
                Ok(())
            }),
            "-j" | "--jobs" => value("--jobs").and_then(|v| {
                jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
                Ok(())
            }),
            "--max-signals" => value("--max-signals").and_then(|v| {
                max_signals = v.parse().map_err(|_| format!("bad --max-signals `{v}`"))?;
                Ok(())
            }),
            "--json" => {
                if let Some(next) = it.peek() {
                    if !next.starts_with('-') {
                        json_path = it.next().expect("peeked").clone();
                    }
                }
                Ok(())
            }
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(e) = result {
            eprintln!("corpus_bench: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(3);
        }
    }

    println!("generating {circuits}-circuit manifest (max {max_signals} signals)…");
    let generated = Instant::now();
    let manifest: Vec<CorpusEntry> = (1..=circuits)
        .map(|seed| {
            let c = generate(&CorpusSpec::from_seed(seed, max_signals), seed);
            CorpusEntry {
                name: corpus_name(seed),
                stg_text: c.g_text,
                eqn_text: None,
            }
        })
        .collect();
    let generated = generated.elapsed();

    // Sequential reference: fresh engine, explicit row-order loop. All
    // engines run with the divergence bail-out forced on — see
    // `si_corpus::harness_config` for why corpus sweeps need it.
    let seq_engine = Engine::new(harness_config(EngineConfig::default()));
    let seq_started = Instant::now();
    let seq: Vec<CorpusOutcome> = manifest
        .iter()
        .map(|entry| run_corpus_entry(&seq_engine, entry))
        .collect();
    let seq_wall = seq_started.elapsed();

    // Sharded, cold then a second pass, on one fresh engine.
    let shard_engine = Engine::new(harness_config(EngineConfig::default()));
    let cold_started = Instant::now();
    let cold = run_corpus(&shard_engine, &manifest, jobs);
    let cold_wall = cold_started.elapsed();
    let warm_started = Instant::now();
    let warm = run_corpus(&shard_engine, &manifest, jobs);
    let warm_wall = warm_started.elapsed();

    let identical = seq.len() == cold.len()
        && seq.len() == warm.len()
        && seq.iter().zip(&cold).all(|(a, b)| payload(a) == payload(b))
        && seq.iter().zip(&warm).all(|(a, b)| payload(a) == payload(b));
    let derived = seq.iter().filter(|o| o.is_ok()).count();
    let errored = seq.len() - derived;
    let speedup_cold = seq_wall.as_secs_f64() / cold_wall.as_secs_f64().max(1e-9);
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);

    println!(
        "{derived}/{} derived ({errored} load/derive errors), generation {:.2}s",
        seq.len(),
        generated.as_secs_f64()
    );
    println!(
        "sequential {:.3}s | sharded --jobs {jobs} cold {:.3}s ({speedup_cold:.2}x) warm {:.3}s | {host_cpus} CPU(s)",
        seq_wall.as_secs_f64(),
        cold_wall.as_secs_f64(),
        warm_wall.as_secs_f64()
    );
    println!(
        "row contract: {}",
        if identical {
            "sharded output bit-identical to the sequential reference"
        } else {
            "VIOLATED — sharded output differs from the sequential reference"
        }
    );

    let json = format!(
        "{{\"bench\":{},\"circuits\":{circuits},\"jobs\":{jobs},\"max_signals\":{max_signals},\
         \"host_cpus\":{host_cpus},\"derived\":{derived},\"errored\":{errored},\
         \"generate_wall_us\":{},\"seq_wall_us\":{},\"shard_cold_wall_us\":{},\
         \"shard_warm_wall_us\":{},\"speedup_cold\":{speedup_cold:.4},\"identical\":{identical}}}\n",
        json_str("corpus_sharding"),
        generated.as_micros(),
        seq_wall.as_micros(),
        cold_wall.as_micros(),
        warm_wall.as_micros(),
    );
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("corpus_bench: cannot write `{json_path}`: {e}");
    } else {
        println!("wrote {json_path}");
    }
    if identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
