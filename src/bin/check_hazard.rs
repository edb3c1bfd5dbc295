//! `check_hazard [OPTIONS] STG.g EQN.eqn` — the thesis tool's command line
//! (Sec. 7.3.1), now backed by the staged [`si_core::Engine`]: reads an
//! STG and a restricted-EQN netlist, derives the adversary-path
//! constraints of the original specification and the relaxed constraint
//! set sufficient for correctness, and prints them as the thesis text
//! report or as machine-readable JSON with per-stage/per-gate metrics
//! and the lint pre-flight's diagnostics.
//!
//! The two files and a `--bench` name alike become one manifest row, run
//! by one call of the text front end, `si_suite::run_corpus_entry` (lint,
//! parse, validate, then the engine's stages); every failure of that call
//! is printed as its `CorpusError` rendering.
//!
//! Exit codes are meaningful: `0` when the circuit needs no relative
//! timing constraints, `1` when a hazard was found (the derived set is
//! non-empty), `2` on parse/lint/IO/derivation errors, `3` on usage
//! errors.

use std::process::ExitCode;
use std::time::Instant;

use si_core::{Engine, EngineConfig, LintPolicy, RelaxationOrder};
use si_lint::LintReport;
use si_redress::suite::{run_corpus_entry, CorpusEntry, CorpusError, CorpusRow};

const USAGE: &str = "\
usage: check_hazard [OPTIONS] <stg.g> <netlist.eqn>
       check_hazard [OPTIONS] --bench <NAME>

Derives the relative timing constraints sufficient for the circuit
(netlist.eqn) to implement its STG (stg.g) hazard-free under the
intra-operator fork assumption, plus the pre-relaxation baseline.

OPTIONS:
        --bench <NAME>    run a bundled Table 7.2 benchmark by name
                          (synthesizing its netlist when the thesis gives
                          none) instead of reading the two files;
                          `corpus:<seed>` runs the seeded synthetic
                          corpus circuit for that seed instead — the
                          canonical spec derivation at 12 signals max
                          (`si_fuzz`'s default bound), synthesized
                          netlist, and the corpus-harness divergence
                          bail-out; perfbench draws at most 10
                          signals, so there the same seed names a
                          different circuit
        --lint            strict lint pre-flight: refuse to derive when
                          the specification has lint errors (the default
                          policy only reports them on stderr)
    -j, --jobs <N>        worker threads for the per-gate fan-out
                          (default 1 = sequential, 0 = one per CPU)
    -f, --format <FMT>    output format: text (default), json or sexp
                          (the S-expression constraint report of
                          docs/interchange.md)
        --order <ORDER>   relaxation order: tightest (default) or lex
        --no-cache        run the reference path: marking-keyed state
                          graphs, no state-graph cache or projection
                          memo (escape hatch; output is identical)
    -h, --help            print this help and exit

EXIT CODES:
    0    clean: the circuit needs no relative timing constraints
    1    hazard found: the derived constraint set is non-empty
    2    parse, lint, I/O or derivation error
    3    usage error
";

/// Where the circuit comes from.
enum Source {
    /// `.g` + `.eqn` files on disk.
    Files { stg_path: String, eqn_path: String },
    /// A bundled Table 7.2 benchmark by name.
    Bench(String),
}

/// Output format for the derivation report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sexp,
}

/// Parsed command line.
struct Args {
    source: Source,
    config: EngineConfig,
    format: Format,
}

enum ArgsOutcome {
    Run(Box<Args>),
    Help,
    Error(String),
}

fn parse_args(argv: &[String]) -> ArgsOutcome {
    let mut config = EngineConfig::default();
    let mut format = Format::Text;
    let mut bench: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return ArgsOutcome::Help,
            "--bench" => match it.next() {
                Some(name) => bench = Some(name.clone()),
                None => return ArgsOutcome::Error("--bench expects a benchmark name".into()),
            },
            "--lint" => config.lint = LintPolicy::Deny,
            "-j" | "--jobs" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => config.jobs = n,
                _ => return ArgsOutcome::Error("--jobs expects a non-negative integer".into()),
            },
            "-f" | "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sexp") => format = Format::Sexp,
                _ => return ArgsOutcome::Error("--format expects `text`, `json` or `sexp`".into()),
            },
            "--order" => match it.next().map(String::as_str) {
                Some("tightest") => config.order = RelaxationOrder::TightestFirst,
                Some("lex") => config.order = RelaxationOrder::Lexicographic,
                _ => return ArgsOutcome::Error("--order expects `tightest` or `lex`".into()),
            },
            "--no-cache" => config.cache = false,
            flag if flag.starts_with('-') => {
                return ArgsOutcome::Error(format!("unknown option `{flag}`"))
            }
            _ => positional.push(arg.clone()),
        }
    }
    match (bench, <[String; 2]>::try_from(positional)) {
        (Some(name), Err(rest)) if rest.is_empty() => ArgsOutcome::Run(Box::new(Args {
            source: Source::Bench(name),
            config,
            format,
        })),
        (Some(_), _) => ArgsOutcome::Error("--bench takes no positional paths".into()),
        (None, Ok([stg_path, eqn_path])) => ArgsOutcome::Run(Box::new(Args {
            source: Source::Files { stg_path, eqn_path },
            config,
            format,
        })),
        (None, Err(_)) => {
            ArgsOutcome::Error("expected exactly two paths: <stg.g> <netlist.eqn>".into())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        ArgsOutcome::Run(args) => args,
        ArgsOutcome::Help => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        ArgsOutcome::Error(message) => {
            eprintln!("check_hazard: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(3);
        }
    };
    match run(&args) {
        // 0 = no constraints needed, 1 = hazard found (constraints derived).
        Ok(hazard) => ExitCode::from(u8::from(hazard)),
        Err(message) => {
            eprintln!("check_hazard: {message}");
            ExitCode::from(2)
        }
    }
}

/// Prints the lint pre-flight's findings (if any) to stderr so the
/// pinned stdout report stays byte-identical for lint-clean runs.
fn report_lint(report: &LintReport, source: &str, origin: &str) {
    if !report.is_clean() {
        eprint!("{}", si_lint::render_text(report, source, origin));
    }
}

/// Resolves a `--bench` name to one manifest row: a bundled Table 7.2
/// benchmark, or `corpus:<seed>` — the seeded corpus circuit of the
/// canonical spec at 12 signals max, with a synthesized netlist. That is
/// `si_fuzz`'s default bound; perfbench draws at most 10 signals, so for
/// it the same seed names a different circuit.
fn bench_entry(name: &str) -> Result<CorpusEntry, String> {
    let Some(seed) = name.strip_prefix("corpus:") else {
        return si_redress::suite::benchmark(name)
            .map(|bench| bench.entry())
            .ok_or_else(|| format!("no bundled benchmark named `{name}`"));
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("`{name}`: expected `corpus:<seed>` with a numeric seed"))?;
    let spec = si_redress::corpus::CorpusSpec::from_seed(seed, 12);
    Ok(CorpusEntry {
        name: si_redress::corpus::corpus_name(seed),
        stg_text: si_redress::corpus::generate(&spec, seed).g_text,
        eqn_text: None,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let engine = Engine::new(args.config);
    let entry = match &args.source {
        Source::Files { stg_path, eqn_path } => {
            let read = |path: &String| {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
            };
            CorpusEntry {
                name: stg_path.clone(),
                stg_text: read(stg_path)?,
                eqn_text: Some(read(eqn_path)?),
            }
        }
        Source::Bench(name) => bench_entry(name)?,
    };
    let row = run_corpus_entry(&engine, &entry).map_err(|e| {
        if let CorpusError::Lint { .. } = e {
            // Re-lint for the full findings: the error only carries the
            // count.
            let report = si_lint::lint_text_with(
                &entry.stg_text,
                &si_lint::LintOptions {
                    state_budget: Some(args.config.global_sg_budget),
                },
            );
            report_lint(&report, &entry.stg_text, &entry.name);
        }
        e.to_string()
    })?;
    report_lint(&row.lint, &entry.stg_text, &entry.name);
    let elapsed = started.elapsed().as_secs_f64();

    match args.format {
        Format::Text => print_text(&row, elapsed),
        Format::Json => println!("{}", render_json(&row, &engine, elapsed)),
        Format::Sexp => print!("{}", row.report.report.sexp()),
    }
    Ok(!row.report.report.constraints.is_empty())
}

fn print_text(row: &CorpusRow, elapsed: f64) {
    let report = &row.report.report;
    println!("The timing constraints in the original specification are:");
    for c in &report.baseline {
        println!("{c}");
    }
    println!();
    println!("The timing constraints for this circuit to work correctly are:");
    for c in &report.constraints {
        println!("{c}");
    }
    println!();
    println!("The running time for this program is {elapsed:.6} seconds");
}

/// The row as one JSON object: both constraint sets, the verdict, the
/// lint findings, the run's metrics
/// ([`si_core::EngineReport::metrics_json`]) and the engine's cache
/// totals.
fn render_json(row: &CorpusRow, engine: &Engine, elapsed: f64) -> String {
    let out = &row.report;
    let constraints = |set: &std::collections::BTreeSet<si_core::Constraint>| {
        let parts: Vec<String> = set
            .iter()
            .map(|c| format!("\"{}\"", si_lint::json_escape(&c.to_string())))
            .collect();
        format!("[{}]", parts.join(","))
    };
    let lint = format!(
        "{{\"errors\":{},\"warnings\":{},\"diagnostics\":{}}}",
        row.lint.error_count(),
        row.lint.warning_count(),
        si_lint::json_diagnostics(&row.lint, ""),
    );
    format!(
        "{{\"baseline\":{},\"constraints\":{},\"hazard\":{},\"state_count\":{},\"iterations\":{},\"lint\":{},{},\"cache\":{},\"projections\":{},\"elapsed_seconds\":{elapsed:.6}}}",
        constraints(&out.report.baseline),
        constraints(&out.report.constraints),
        !out.report.constraints.is_empty(),
        out.report.state_count,
        out.report.iterations,
        lint,
        out.metrics_json(),
        engine.cache_stats().json(),
        engine.projection_stats().json(),
    )
}
