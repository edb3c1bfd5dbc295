//! Golden fixture corpus for the `si-lint` diagnostic catalogue: one
//! `.g` fixture per `SI0xx` code under `tests/lint/`, each pinned to its
//! exact human-readable (`.txt`) and JSON (`.json`) rendering — spans,
//! carets, related notes, fix hints and all. `si_lint --format json`
//! prints the same `render_json` objects, so they pin the binary's JSON
//! too.
//!
//! A fixture may carry a `# lint-budget: N` comment on any line; the
//! harness passes `N` as the engine's state-graph budget (this is how
//! the SI016 infeasibility estimate is exercised).
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test lint_golden
//! ```
//!
//! then review the diff like any other code change.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use si_redress::lint::{self, Code, LintOptions};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint")
}

/// All fixture `.g` files, sorted by name for deterministic reporting.
fn fixtures() -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(fixture_dir())
        .expect("tests/lint exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "g"))
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no lint fixtures found");
    out
}

fn stem(path: &std::path::Path) -> String {
    path.file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default()
        .to_string()
}

/// The `SIxxx` prefix of a fixture's file name.
fn named_code(path: &std::path::Path) -> String {
    stem(path).split('_').next().unwrap_or_default().to_string()
}

/// Reads the optional `# lint-budget: N` magic comment.
fn budget_of(text: &str) -> Option<usize> {
    text.lines().find_map(|line| {
        line.strip_prefix("# lint-budget:")
            .and_then(|rest| rest.trim().parse().ok())
    })
}

/// Points at the first diverging line of two renderings.
fn first_diff(actual: &str, expected: &str) -> String {
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        if a != e {
            return format!(
                "first difference at line {}:\n  got:      {a}\n  expected: {e}",
                i + 1
            );
        }
    }
    format!(
        "one rendering is a prefix of the other ({} vs {} lines)",
        actual.lines().count(),
        expected.lines().count()
    )
}

#[test]
fn lint_fixtures_pin_text_and_json_renderings() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    for path in fixtures() {
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let opts = LintOptions {
            state_budget: budget_of(&text),
        };
        let report = lint::lint_text_with(&text, &opts);
        let origin = format!("{}.g", stem(&path));

        // The fixture must actually trigger the code it is named after.
        let code = named_code(&path);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code.to_string() == code),
            "fixture `{origin}` does not trigger {code}; got {:?}",
            report
                .diagnostics
                .iter()
                .map(|d| d.code.to_string())
                .collect::<Vec<_>>()
        );

        for (ext, rendered) in [
            ("txt", lint::render_text(&report, &text, &origin)),
            ("json", lint::render_json(&report, &origin)),
        ] {
            let golden = path.with_extension(ext);
            if update {
                fs::write(&golden, &rendered)
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", golden.display()));
            }
            let expected = fs::read_to_string(&golden).unwrap_or_else(|e| {
                panic!(
                    "missing lint golden `{}`: {e}\n\
                     run `UPDATE_GOLDEN=1 cargo test --test lint_golden` to create it",
                    golden.display()
                )
            });
            assert_eq!(
                rendered,
                expected,
                "lint golden mismatch for `{}`.\n{}\n\
                 If the output change is intentional, regenerate with\n\
                 `UPDATE_GOLDEN=1 cargo test --test lint_golden` and review the diff.",
                golden.display(),
                first_diff(&rendered, &expected),
            );
        }
    }
}

#[test]
fn lint_fixture_corpus_covers_every_code() {
    let names: Vec<String> = fixtures().iter().map(|p| named_code(p)).collect();
    for code in Code::ALL {
        assert!(
            names.iter().any(|n| *n == code.to_string()),
            "no fixture under tests/lint for {code} ({})",
            code.title()
        );
    }
}

#[test]
fn lint_fixture_directory_has_no_stale_goldens() {
    // Every .txt/.json must shadow a .g fixture, and nothing else may
    // live in the directory: a renamed fixture must not leave orphaned
    // goldens silently pinning nothing.
    let g_stems: Vec<String> = fixtures().iter().map(|p| stem(p)).collect();
    for entry in fs::read_dir(fixture_dir()).expect("tests/lint exists") {
        let path = entry.expect("readable entry").path();
        let ext = path
            .extension()
            .and_then(|x| x.to_str())
            .unwrap_or_default();
        match ext {
            "g" => {}
            "txt" | "json" => assert!(
                g_stems.contains(&stem(&path)),
                "stale lint golden `{}` matches no .g fixture",
                path.display()
            ),
            _ => panic!("unexpected file in tests/lint: {}", path.display()),
        }
    }
}

#[test]
fn si_lint_json_lists_each_fixture_as_its_render_json() {
    let output = Command::new(env!("CARGO_BIN_EXE_si_lint"))
        .args(["--format", "json"])
        .arg(fixture_dir())
        .output()
        .expect("binary runs");
    // The fixtures hold lint errors: exit 1.
    assert_eq!(
        output.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The binary passes no budget, so SI016's fixture lints without one.
    let (mut errors, mut warnings) = (0, 0);
    let files: Vec<String> = fixtures()
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path).expect("readable fixture");
            let report = lint::lint_text(&text);
            errors += report.error_count();
            warnings += report.warning_count();
            let json = lint::render_json(&report, &path.display().to_string());
            let lines: Vec<String> = json.lines().map(|l| format!("    {l}")).collect();
            lines.join("\n")
        })
        .collect();
    let expected = format!(
        "{{\n  \"files\": [\n{}\n  ],\n  \"errors\": {errors},\n  \"warnings\": {warnings}\n}}\n",
        files.join(",\n")
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(stdout, expected, "{}", first_diff(&stdout, &expected));
}
