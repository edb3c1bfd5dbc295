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
//! non-empty), `2` on parse/lint/IO/derivation errors (a closed stdout
//! included), `3` on usage errors.

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

use si_core::{Engine, EngineConfig, LintPolicy, RelaxationOrder};
use si_lint::LintReport;
use si_redress::corpus::DEFAULT_MAX_SIGNALS;
use si_redress::suite::{run_corpus_entry, CorpusEntry, CorpusError, CorpusRow};

/// The help text.
fn usage() -> String {
    format!(
        "\
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
                          canonical spec derivation at {DEFAULT_MAX_SIGNALS} signals max
                          (the bound of si_fuzz's default and of
                          perfbench's rows), synthesized netlist, and
                          the corpus-harness divergence bail-out
        --lint            strict lint pre-flight: refuse to derive when
                          the specification has lint errors (the default
                          policy only reports them on stderr)
    -f, --format <FMT>    output format: text (default) or json
        --order <ORDER>   relaxation order: tightest (default) or lex
    -h, --help            print this help and exit

EXIT CODES:
    0    clean: the circuit needs no relative timing constraints
    1    hazard found: the derived constraint set is non-empty
    2    parse, lint, I/O or derivation error (also when stdout closes
         early)
    3    usage error
"
    )
}

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
            "-f" | "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => return ArgsOutcome::Error("--format expects `text` or `json`".into()),
            },
            "--order" => match it.next().map(String::as_str) {
                Some("tightest") => config.order = RelaxationOrder::TightestFirst,
                Some("lex") => config.order = RelaxationOrder::Lexicographic,
                _ => return ArgsOutcome::Error("--order expects `tightest` or `lex`".into()),
            },
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
    let mut out = io::stdout().lock();
    let outcome = match parse_args(&argv) {
        // 0 = no constraints needed, 1 = hazard found (constraints derived).
        ArgsOutcome::Run(args) => {
            run(&args, &mut out).map(|hazard| ExitCode::from(u8::from(hazard)))
        }
        ArgsOutcome::Help => {
            flushed(write!(out, "{}", usage()), &mut out).map(|()| ExitCode::SUCCESS)
        }
        ArgsOutcome::Error(message) => {
            eprintln!("check_hazard: {message}");
            eprint!("{}", usage());
            return ExitCode::from(3);
        }
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("check_hazard: {message}");
        ExitCode::from(2)
    })
}

/// Flushes what was written to stdout; a write error, a closed stdout
/// (`BrokenPipe`) included, becomes the message of an I/O error (exit 2).
fn flushed(written: io::Result<()>, out: &mut impl Write) -> Result<(), String> {
    written
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write to stdout: {e}"))
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
/// canonical spec at [`DEFAULT_MAX_SIGNALS`], with a synthesized netlist:
/// the row `si_fuzz` (by default) and perfbench run for that seed.
fn bench_entry(name: &str) -> Result<CorpusEntry, String> {
    let Some(seed) = name.strip_prefix("corpus:") else {
        return si_redress::suite::benchmark(name)
            .map(|bench| bench.entry())
            .ok_or_else(|| format!("no bundled benchmark named `{name}`"));
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("`{name}`: expected `corpus:<seed>` with a numeric seed"))?;
    let spec = si_redress::corpus::CorpusSpec::from_seed(seed, DEFAULT_MAX_SIGNALS);
    Ok(CorpusEntry {
        name: si_redress::corpus::corpus_name(seed),
        stg_text: si_redress::corpus::generate(&spec, seed).g_text,
        eqn_text: None,
    })
}

fn run(args: &Args, out: &mut impl Write) -> Result<bool, String> {
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

    let written = match args.format {
        Format::Text => write_text(out, &row, elapsed),
        Format::Json => writeln!(out, "{}", render_json(&row, &engine, elapsed)),
    };
    flushed(written, out)?;
    Ok(!row.report.report.constraints.is_empty())
}

fn write_text(out: &mut impl Write, row: &CorpusRow, elapsed: f64) -> io::Result<()> {
    let report = &row.report.report;
    writeln!(
        out,
        "The timing constraints in the original specification are:"
    )?;
    for c in &report.baseline {
        writeln!(out, "{c}")?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "The timing constraints for this circuit to work correctly are:"
    )?;
    for c in &report.constraints {
        writeln!(out, "{c}")?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "The running time for this program is {elapsed:.6} seconds"
    )
}

/// The row as one JSON object: the report
/// ([`si_core::ConstraintReport::json_members`]), the verdict, the lint
/// findings, the run's metrics ([`si_core::EngineReport::metrics_json`])
/// and the engine's state-graph cache totals.
fn render_json(row: &CorpusRow, engine: &Engine, elapsed: f64) -> String {
    let out = &row.report;
    let lint = format!(
        "{{\"errors\":{},\"warnings\":{},\"diagnostics\":{}}}",
        row.lint.error_count(),
        row.lint.warning_count(),
        si_lint::json_diagnostics(&row.lint, ""),
    );
    format!(
        "{{{},\"hazard\":{},\"lint\":{},{},\"cache\":{},\"elapsed_seconds\":{elapsed:.6}}}",
        out.report.json_members(),
        !out.report.constraints.is_empty(),
        lint,
        out.metrics_json(),
        engine.cache_stats().json(),
    )
}
