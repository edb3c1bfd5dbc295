//! `si_lint` — the standalone static specification analyzer.
//!
//! Lints `.g` STG specifications: single files, whole directories
//! (recursing into `*.g` files, plus `.g` blocks embedded in `*.rs`
//! sources), or the bundled benchmark suite.
//!
//! ```text
//! si_lint spec.g                      lint one file
//! si_lint benches/ --format json     lint a tree, JSON output
//! si_lint --suite                    lint the 13 bundled benchmarks
//! ```
//!
//! Exit codes: 0 = no errors (warnings allowed unless `--deny-warnings`),
//! 1 = lint errors found, 2 = usage or I/O error (a closed stdout
//! included).

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use si_lint::{lint_text_with, render_json, render_text, LintOptions};

const USAGE: &str = "\
si_lint - static specification analyzer for STGs

USAGE:
    si_lint [OPTIONS] [PATH...]

ARGS:
    PATH...            .g files, directories (recursed for *.g and for
                       .model/.end blocks embedded in *.rs files), or
                       .rs files

OPTIONS:
    --suite            lint the bundled benchmark suite instead of paths
    -f, --format FMT   output format: text (default) or json
    --budget N         state-graph budget for the SI016 feasibility check
    --deny-warnings    exit nonzero on warnings too
    -h, --help         print this help

EXIT CODES:
    0    no lint errors
    1    at least one lint error (or warning with --deny-warnings)
    2    usage or I/O error (also when stdout closes early)
";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

#[derive(Debug)]
struct Args {
    paths: Vec<PathBuf>,
    suite: bool,
    format: Format,
    budget: Option<usize>,
    deny_warnings: bool,
}

enum ArgsOutcome {
    Run(Args),
    Help,
    Error(String),
}

fn parse_args(argv: &[String]) -> ArgsOutcome {
    let mut args = Args {
        paths: Vec::new(),
        suite: false,
        format: Format::Text,
        budget: None,
        deny_warnings: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return ArgsOutcome::Help,
            "--suite" => args.suite = true,
            "--deny-warnings" => args.deny_warnings = true,
            "-f" | "--format" => match it.next().map(String::as_str) {
                Some("text") => args.format = Format::Text,
                Some("json") => args.format = Format::Json,
                Some(other) => {
                    return ArgsOutcome::Error(format!("unknown format `{other}`"));
                }
                None => return ArgsOutcome::Error("missing value for --format".into()),
            },
            "--budget" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => args.budget = Some(n),
                None => {
                    return ArgsOutcome::Error("missing or invalid value for --budget".into());
                }
            },
            other if other.starts_with('-') => {
                return ArgsOutcome::Error(format!("unknown option `{other}`"));
            }
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if !args.suite && args.paths.is_empty() {
        return ArgsOutcome::Error("no input: pass at least one PATH or --suite".into());
    }
    ArgsOutcome::Run(args)
}

/// One specification to lint: where it came from and its text.
struct Input {
    origin: String,
    text: String,
}

/// Extracts `.g` blocks embedded in a Rust source: every run of lines
/// from one starting with `.model` through one equal to `.end`.
fn embedded_blocks(source: &str, origin: &Path) -> Vec<Input> {
    let mut blocks = Vec::new();
    let mut current: Option<Vec<&str>> = None;
    for line in source.lines() {
        let trimmed = line.trim();
        if current.is_none() && trimmed.starts_with(".model") {
            current = Some(Vec::new());
        }
        if let Some(block) = current.as_mut() {
            block.push(trimmed);
            if trimmed == ".end" {
                let text = block.join("\n") + "\n";
                blocks.push(Input {
                    origin: format!("{}#{}", origin.display(), blocks.len() + 1),
                    text,
                });
                current = None;
            }
        }
    }
    blocks
}

/// Collects lintable inputs from a path: `.g` files verbatim, `.rs`
/// files via embedded-block extraction, directories recursively.
fn collect(path: &Path, inputs: &mut Vec<Input>) -> Result<(), String> {
    let meta = fs::metadata(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    if meta.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)
            .map_err(|e| format!("cannot list `{}`: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            let ext = entry.extension().and_then(|e| e.to_str());
            if entry.is_dir() || matches!(ext, Some("g") | Some("rs")) {
                collect(&entry, inputs)?;
            }
        }
        return Ok(());
    }
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    if path.extension().and_then(|e| e.to_str()) == Some("rs") {
        inputs.extend(embedded_blocks(&text, path));
    } else {
        inputs.push(Input {
            origin: path.display().to_string(),
            text,
        });
    }
    Ok(())
}

fn gather_inputs(args: &Args) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    if args.suite {
        for bench in si_redress::suite::benchmarks() {
            inputs.push(Input {
                origin: format!("suite:{}", bench.name),
                text: bench.stg_text.to_string(),
            });
        }
    }
    for path in &args.paths {
        collect(path, &mut inputs)?;
    }
    Ok(inputs)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let args = match parse_args(&argv) {
        ArgsOutcome::Run(args) => args,
        ArgsOutcome::Help => return finish(write!(out, "{USAGE}"), &mut out, ExitCode::SUCCESS),
        ArgsOutcome::Error(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = match gather_inputs(&args) {
        Ok(inputs) => inputs,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    if inputs.is_empty() {
        eprintln!("error: no .g specifications found");
        return ExitCode::from(2);
    }

    let totals = write_reports(&inputs, &args, &mut out);
    let code = match totals {
        Ok((errors, warnings)) if errors > 0 || (args.deny_warnings && warnings > 0) => {
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    };
    finish(totals.map(drop), &mut out, code)
}

/// Ends the run with `code` once the output is written and flushed, or
/// with 2 when it cannot be: a closed stdout (`BrokenPipe`, as in
/// `si_lint --suite | head -1`) is an I/O error.
fn finish(written: io::Result<()>, out: &mut impl Write, code: ExitCode) -> ExitCode {
    match written.and_then(|()| out.flush()) {
        Ok(()) => code,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::from(2)
        }
    }
}

/// Lints every input and writes the reports to `out`; returns the error
/// and warning totals.
fn write_reports(
    inputs: &[Input],
    args: &Args,
    out: &mut impl Write,
) -> io::Result<(usize, usize)> {
    let opts = LintOptions {
        state_budget: args.budget,
    };
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut json_files = Vec::new();
    for input in inputs {
        let report = lint_text_with(&input.text, &opts);
        errors += report.error_count();
        warnings += report.warning_count();
        match args.format {
            Format::Text => write!(out, "{}", render_text(&report, &input.text, &input.origin))?,
            // Each file's object, indented into the `files` array.
            Format::Json => json_files.push(
                render_json(&report, &input.origin)
                    .lines()
                    .map(|line| format!("    {line}"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            ),
        }
    }
    match args.format {
        Format::Text if inputs.len() > 1 => writeln!(
            out,
            "total: {} file(s), {errors} error(s), {warnings} warning(s)",
            inputs.len()
        )?,
        Format::Json => writeln!(
            out,
            "{{\n  \"files\": [\n{}\n  ],\n  \"errors\": {errors},\n  \"warnings\": {warnings}\n}}",
            json_files.join(",\n")
        )?,
        _ => {}
    }
    Ok((errors, warnings))
}
