//! `perfbench` — times `.g` text → constraint report for one workload and
//! prints the metrics, one JSON object on the last line of stdout.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-cold --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Exit codes: 0 every row matched the reference, 1 a row did not (the
//! rows are named on stderr), 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use si_perfbench::{measure, prepare, Options, Workload};

const USAGE: &str = "\
usage: perfbench --workload <suite-cold|corpus-cold|corpus-warm> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prepared = prepare(&opts);
    let result = measure(&opts, &prepared);
    for line in &result.lines {
        println!("{line}");
    }
    for m in &result.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if let Some((tracer, last_pass)) = &result.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        let names: Vec<String> = prepared.rows.iter().map(|r| r.entry.name.clone()).collect();
        match tracer.write_chrome(*last_pass, &names, &path) {
            Ok(()) => println!("last traced pass written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for m in &result.mismatches {
        eprintln!("perfbench: correctness gate: {m}");
    }
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
