//! End-to-end test of the `check_hazard` command line (the thesis tool's
//! interface, Sec. 7.3.1) and its exit-code contract:
//!
//! - `0` — clean: the derived constraint set is empty;
//! - `1` — hazard found: the derived constraint set is non-empty;
//! - `2` — parse/lint/IO/derivation error;
//! - `3` — usage error.
//!
//! Also `check_hazard`'s JSON report, the one machine-readable format of
//! both CLIs, and both CLIs on a stdout that is already closed.

use std::io::Write;
use std::process::Command;

use si_redress::core::{derive_timing_constraints, ConstraintReport, Stage, StageMetrics};
use si_redress::corpus::{corpus_name, generate, CorpusSpec, DEFAULT_MAX_SIGNALS};
use si_redress::suite::{run_corpus_entry, CorpusEntry};

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("si-redress-cli-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

/// A lint-clean circuit whose derived constraint set is empty (the
/// C-element acknowledges both inputs, so no isochronic-fork orderings
/// remain).
const CELEM_G: &str = "\
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
const CELEM_EQN: &str = "c = a*b + a*c + b*c;\n";

#[test]
fn check_hazard_reproduces_the_thesis_report() {
    let bench = si_redress::suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    let stg_path = write_temp("imec.g", bench.stg_text);
    let eqn_path = write_temp("imec.eqn", bench.eqn_text.expect("verbatim netlist"));

    let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
        .arg(&stg_path)
        .arg(&eqn_path)
        .output()
        .expect("binary runs");
    // 12 derived constraints: a hazard was found, so exit code 1.
    assert_eq!(
        output.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);

    assert!(stdout.contains("The timing constraints in the original specification are:"));
    assert!(stdout.contains("The timing constraints for this circuit to work correctly are:"));
    assert!(stdout.contains("The running time for this program is"));
    // Spot-check thesis lines from both sections.
    assert!(stdout.contains("i0: precharged+ < wenin+"));
    assert!(stdout.contains("i0: wenin- < precharged-"));
    assert!(stdout.contains("csc0: wsldin- < i8-"));

    // 19 + 12 constraint lines in total.
    let lines = stdout.lines().filter(|l| l.contains(" < ")).count();
    assert_eq!(lines, 31);

    let _ = std::fs::remove_file(stg_path);
    let _ = std::fs::remove_file(eqn_path);
}

#[test]
fn check_hazard_exits_zero_on_a_constraint_free_circuit() {
    let stg_path = write_temp("celem.g", CELEM_G);
    let eqn_path = write_temp("celem.eqn", CELEM_EQN);
    let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
        .arg("--lint")
        .arg(&stg_path)
        .arg(&eqn_path)
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("The timing constraints for this circuit to work correctly are:"));
    assert_eq!(stdout.matches(" < ").count(), 0);
    let _ = std::fs::remove_file(stg_path);
    let _ = std::fs::remove_file(eqn_path);
}

#[test]
fn check_hazard_rejects_bad_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));
}

#[test]
fn check_hazard_help_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
            .arg(flag)
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("usage"), "{flag}: {stdout}");
        assert!(stdout.contains("--jobs"));
        assert!(stdout.contains("--format"));
        assert!(stdout.contains("--lint"));
        // No reuse flag and no second structured format: JSON is the
        // one machine-readable output.
        for gone in ["--no-cache", "--no-memo", "--no-sigma-cold", "sexp"] {
            assert!(!stdout.contains(gone), "{flag}: {gone}");
        }
        // `corpus:<seed>` draws at the corpus crate's one signal bound.
        assert!(stdout.contains(&format!("at {DEFAULT_MAX_SIGNALS} signals max")));
        assert!(stdout.contains("EXIT CODES"));
    }
}

#[test]
fn check_hazard_rejects_unknown_options() {
    // The removed reuse flags are unknown options now, and the removed
    // `contraction` order and `sexp` format are unknown values.
    for args in [
        &["--frobnicate"][..],
        &["--no-memo"],
        &["--no-sigma-cold"],
        &["--no-cache"],
        &["--order", "contraction"],
        &["--format", "sexp"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
            .args(args)
            .args(["a.g", "b.eqn"])
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(3), "{args:?}");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains(args[0]),
            "{args:?}"
        );
    }
}

#[test]
fn check_hazard_parallel_json_reports_the_gold_circuit() {
    let bench = si_redress::suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    let stg_path = write_temp("imec-json.g", bench.stg_text);
    let eqn_path = write_temp("imec-json.eqn", bench.eqn_text.expect("verbatim netlist"));

    // The files and the bundled benchmark take the same front end.
    let files = [stg_path.as_os_str(), eqn_path.as_os_str()];
    let bench_args = ["--bench", "imec-ram-read-sbuf"].map(std::ffi::OsStr::new);
    for input in [&files[..], &bench_args[..]] {
        let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
            .args(["--jobs", "4", "--format", "json"])
            .args(input)
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(1),
            "{input:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        // One JSON object with the thesis numbers and the stage metrics.
        assert!(stdout.trim_start().starts_with('{'), "not JSON: {stdout}");
        assert!(stdout.contains("\"state_count\":112"));
        assert!(stdout.contains("\"jobs\":4"));
        assert!(stdout.contains("\"hazard\":true"));
        // The lint pre-flight payload: the gold circuit is clean.
        assert!(stdout.contains("\"lint\":{\"errors\":0,\"warnings\":0,\"diagnostics\":[]}"));
        for stage in [
            "lint",
            "parse",
            "validate",
            "decompose",
            "project",
            "relax",
            "merge",
        ] {
            assert!(
                stdout.contains(&format!("\"stage\":\"{stage}\"")),
                "{input:?}: {stage}"
            );
        }
        assert!(stdout.contains("\"i0: precharged+ < wenin+\""));
        assert!(stdout.contains("\"csc0: wsldin- < i8-\""));
        assert!(stdout.contains("\"cache\":{"));
        // The conformance cache and the projection memo are gone, and so
        // are their JSON objects and counters.
        assert!(!stdout.contains("\"conformance\""));
        assert!(!stdout.contains("\"projections\""));
        assert!(!stdout.contains("_memo_"));
        // Every counter of the one metrics record appears once per stage
        // object and twice per gate object (its project and relax records).
        let section = |key: &str| -> &str {
            let start = stdout.find(&format!("\"{key}\":[")).expect(key);
            let rest = &stdout[start..];
            &rest[..rest.find(']').expect("array closes")]
        };
        // 19 baseline + 12 derived constraint strings; the first
        // `baseline` array is the whole report's, ahead of `per_gate`.
        assert_eq!(section("baseline").matches(" < ").count(), 19);
        assert_eq!(section("constraints").matches(" < ").count(), 12);
        let (stages, gates) = (section("stages"), section("gates"));
        assert_eq!(stages.matches("\"stage\":").count(), 7, "{input:?}");
        let gate_count = gates.matches("\"gate\":").count();
        assert_eq!(gate_count, 11, "one object per imec gate");
        for (name, _) in StageMetrics::new(Stage::Lint).counters() {
            let key = format!("\"{name}\":");
            assert_eq!(stages.matches(&key).count(), 7, "{name}");
            assert_eq!(gates.matches(&key).count(), 2 * gate_count, "{name}");
        }
    }

    let _ = std::fs::remove_file(stg_path);
    let _ = std::fs::remove_file(eqn_path);
}

/// A report's constraint lines as the text output prints them: baseline,
/// then derived.
fn report_lines(report: &ConstraintReport) -> Vec<String> {
    let sets = report.baseline.iter().chain(&report.constraints);
    sets.map(ToString::to_string).collect()
}

/// `bench`'s constraint lines from the library's reference derivation
/// (`derive_timing_constraints`, pinned to `EngineConfig::reference()`).
fn reference_lines(bench: &si_redress::suite::Benchmark) -> Vec<String> {
    let (stg, library) = bench.circuit().expect("bundled circuit loads");
    report_lines(&derive_timing_constraints(&stg, &library).expect("derives"))
}

#[test]
fn check_hazard_text_output_is_identical_across_jobs_and_cache_settings() {
    let bench = si_redress::suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    let stg_path = write_temp("imec-jobs.g", bench.stg_text);
    let eqn_path = write_temp("imec-jobs.eqn", bench.eqn_text.expect("verbatim netlist"));

    let constraint_lines = |args: &[&str]| -> Vec<String> {
        let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
            .args(args)
            .arg(&stg_path)
            .arg(&eqn_path)
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(1),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .filter(|l| l.contains(" < "))
            .map(str::to_string)
            .collect()
    };
    // Every run is compared against the library's reference derivation.
    let reference = reference_lines(&bench);
    assert_eq!(reference.len(), 31);
    for args in [
        &["--jobs", "1"][..],
        &["--jobs", "4"],
        &[],
        // The strict lint pre-flight must not change a line either (the
        // spec is clean).
        &["--lint"],
    ] {
        assert_eq!(constraint_lines(args), reference, "{args:?}");
    }

    let _ = std::fs::remove_file(stg_path);
    let _ = std::fs::remove_file(eqn_path);
}

#[test]
fn check_hazard_bench_mode_runs_bundled_circuits() {
    let constraint_lines = |args: &[&str]| -> Vec<String> {
        let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(1),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .filter(|l| l.contains(" < "))
            .map(str::to_string)
            .collect()
    };
    let default = constraint_lines(&["--bench", "imec-ram-read-sbuf"]);
    assert_eq!(default.len(), 31, "19 baseline + 12 derived");
    // The default engine prints the library reference's report.
    let bench = si_redress::suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    assert_eq!(default, reference_lines(&bench));

    // Unknown names are runtime errors (2); mixing --bench with paths is
    // a usage error (3).
    let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
        .args(["--bench", "no-such-circuit"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
        .args(["--bench", "fifo", "a.g", "b.eqn"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(3));
}

#[test]
fn check_hazard_json_embeds_the_library_report_members() {
    let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
        .args(["--bench", "imec-ram-read-sbuf", "--format", "json"])
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let bench = si_redress::suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    let engine = si_redress::core::Engine::new(si_redress::core::EngineConfig::default());
    let report = run_corpus_entry(&engine, &bench.entry())
        .expect("derives")
        .report
        .report;
    assert_eq!((report.per_gate.len(), report.trace.len()), (11, 37));
    // The object opens with the report's members, then the verdict.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let head = format!("{{{},\"hazard\":true,", report.json_members());
    assert!(stdout.starts_with(&head), "{stdout}");
}

#[test]
fn si_lint_rejects_the_sexp_format_as_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_si_lint"))
        .args(["--suite", "--format", "sexp"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown format `sexp`"));
    assert!(output.stdout.is_empty());
}

/// Runs `bin` with `args`, its stdout the write end of a pipe whose read
/// end was closed before the spawn.
fn run_on_closed_stdout(bin: &str, args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(writer)
        .output()
        .expect("binary runs")
}

#[test]
fn both_clis_report_a_closed_stdout_as_an_io_error() {
    let check_hazard = env!("CARGO_BIN_EXE_check_hazard");
    let si_lint = env!("CARGO_BIN_EXE_si_lint");
    let runs: [(&str, &[&str]); 5] = [
        (si_lint, &["--suite"]),
        (si_lint, &["--help"]),
        (check_hazard, &["--bench", "imec-ram-read-sbuf"]),
        (
            check_hazard,
            &["--bench", "imec-ram-read-sbuf", "--format", "json"],
        ),
        (check_hazard, &["--help"]),
    ];
    for (bin, args) in runs {
        let output = run_on_closed_stdout(bin, args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        // 2 is the I/O-error code of both contracts (si_lint 0–2,
        // check_hazard 0–3).
        assert_eq!(output.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("cannot write to stdout"),
            "{bin} {args:?}: {stderr}"
        );
    }
}

#[test]
fn check_hazard_bench_mode_runs_corpus_circuits() {
    // `corpus:<seed>` runs row `<seed>` of the corpus at
    // `DEFAULT_MAX_SIGNALS`: the canonical spec for the seed, a
    // synthesized netlist, the divergence bail-out. That is the row
    // `tests/golden/corpus-outcomes.txt` pins by its snapshot hash and
    // perfbench's corpus workloads time.
    let run = |seed: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
            .args(["--bench", &format!("corpus:{seed}")])
            .output()
            .expect("binary runs");
        let lines: Vec<String> = String::from_utf8_lossy(&output.stdout)
            .lines()
            .filter(|l| l.contains(" < "))
            .map(str::to_string)
            .collect();
        (output.status.code(), lines)
    };
    let library_lines = |seed: u64| -> Vec<String> {
        let entry = CorpusEntry {
            name: corpus_name(seed),
            stg_text: generate(&CorpusSpec::from_seed(seed, DEFAULT_MAX_SIGNALS), seed).g_text,
            eqn_text: None,
        };
        let engine = si_redress::core::Engine::new(si_redress::core::EngineConfig::default());
        report_lines(
            &run_corpus_entry(&engine, &entry)
                .expect("derives")
                .report
                .report,
        )
    };
    // Seed 7 is hazard-positive: 4 baseline constraints relax to 2, a
    // count generator determinism pins.
    let (code, lines) = run("7");
    assert_eq!(code, Some(1), "seed 7 derives hazards");
    assert_eq!(lines.len(), 6);
    assert_eq!(lines, library_lines(7));
    // Seed 42 synthesizes into a constraint-free netlist: exit 0.
    let (code, lines) = run("42");
    assert_eq!(code, Some(0));
    assert_eq!(lines, library_lines(42));
    assert!(lines.is_empty());
    // A malformed seed is a runtime error, like an unknown bench name.
    let (code, _) = run("abc");
    assert_eq!(code, Some(2));
}

#[test]
fn check_hazard_reports_parse_errors() {
    let stg_path = write_temp("bad.g", ".model broken\n.inputs a\n");
    let eqn_path = write_temp("bad.eqn", "a = b;\n");
    let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
        .arg(&stg_path)
        .arg(&eqn_path)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let _ = std::fs::remove_file(stg_path);
    let _ = std::fs::remove_file(eqn_path);
}

#[test]
fn check_hazard_rejects_a_gate_over_twenty_inputs_with_a_parse_error() {
    // A 21-input gate cannot be loaded (its covers enumerate every
    // minterm of the support): the EQN reader rejects it at its line,
    // and the run exits 2 instead of panicking.
    let inputs: Vec<String> = (0..21).map(|i| format!("i{i}")).collect();
    let eqn = format!("{CELEM_EQN}w = {};\n", inputs.join("*"));
    let stg_path = write_temp("wide.g", CELEM_G);
    let eqn_path = write_temp("wide.eqn", &eqn);
    let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
        .arg(&stg_path)
        .arg(&eqn_path)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&output.stderr),
        format!(
            "check_hazard: `{}` failed to load: eqn parse error at line 2: gate `w` \
             reads 21 distinct signals; a gate's support is capped at 20\n",
            stg_path.display()
        )
    );
    let _ = std::fs::remove_file(stg_path);
    let _ = std::fs::remove_file(eqn_path);
}

#[test]
fn check_hazard_lint_gate_blocks_defective_specs_with_diagnostics() {
    // Undeclared signal `b` (SI004) plus an unknown section (SI002): the
    // lenient parser recovers past both, so the lint pre-flight reports
    // them together where the strict parser would stop at the first.
    let stg_path = write_temp(
        "dirty.g",
        "\
.model dirty
.inputs a
.weird
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
",
    );
    let eqn_path = write_temp("dirty.eqn", "b = a;\n");
    let output = Command::new(env!("CARGO_BIN_EXE_check_hazard"))
        .arg("--lint")
        .arg(&stg_path)
        .arg(&eqn_path)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error[SI002]"), "stderr: {stderr}");
    assert!(stderr.contains("error[SI004]"), "stderr: {stderr}");
    assert!(stderr.contains("failed the lint pre-flight"), "{stderr}");
    // Nothing was derived.
    assert!(!String::from_utf8_lossy(&output.stdout)
        .contains("The timing constraints for this circuit to work correctly are:"));
    let _ = std::fs::remove_file(stg_path);
    let _ = std::fs::remove_file(eqn_path);
}

#[test]
fn perf_doc_field_table_lists_exactly_the_metrics_record() {
    // docs/perf.md documents the JSON fields of one metrics record:
    // `wall_us` plus every counter name, in schema order.
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/perf.md"))
        .expect("docs/perf.md");
    let rows = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Field | Meaning |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    // The backticked names of each row's first cell.
    let documented: Vec<&str> = rows
        .flat_map(|row| {
            let cell = row.split('|').nth(1).expect("first cell");
            cell.split('`').skip(1).step_by(2)
        })
        .collect();
    let mut expected = vec!["wall_us"];
    expected.extend(
        StageMetrics::new(Stage::Lint)
            .counters()
            .iter()
            .map(|&(name, _)| name),
    );
    assert_eq!(documented, expected);
}
