//! Compliance corpus: one S-expression parse-tree dump per bundled
//! benchmark and per pinned generator fixture (`tests/compliance/*.sexp`,
//! grammar in `docs/interchange.md`). Each file is the whole event
//! stream of the spec — every node, token, span and defect the layered
//! front-end produces — so any drift in the lexer, the event layer or the
//! interchange writer shows up as a reviewable diff here before it
//! reaches a downstream tool.
//!
//! To regenerate after an intentional format or front-end change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test compliance
//! ```
//!
//! then review the diff like any other code change.

use std::fs;
use std::path::PathBuf;

use si_redress::corpus::{generate_named, CorpusSpec, MarkingStyle};
use si_stg::parse_events;
use si_stg::sexp::write_events;

fn compliance_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/compliance")
        .join(format!("{name}.sexp"))
}

fn header(name: &str) -> String {
    format!(
        "; Compliance dump for `{name}`: the lossless parse-event stream of\n\
         ; the spec in the S-expression interchange format (see\n\
         ; docs/interchange.md). Regenerate with:\n\
         ;   UPDATE_GOLDEN=1 cargo test --test compliance\n"
    )
}

/// Points at the first diverging line of two dumps.
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
        "one dump is a prefix of the other ({} vs {} lines)",
        actual.lines().count(),
        expected.lines().count()
    )
}

/// The five pinned generator fixtures of `tests/golden.rs`, duplicated
/// verbatim (same names, specs and seeds) so the compliance corpus covers
/// exactly the circuits the golden conformance suite pins. Keep the two
/// tables in sync.
fn corpus_fixtures() -> Vec<(&'static str, CorpusSpec, u64)> {
    let base = CorpusSpec {
        signals: 6,
        choices: 0,
        or_density: 0,
        max_fork: 1,
        interleave: false,
        marking: MarkingStyle::ImplicitArcs,
    };
    vec![
        ("corpus-two-phase-ring", base, 1),
        (
            "corpus-forked-burst",
            CorpusSpec {
                signals: 10,
                max_fork: 3,
                ..base
            },
            7,
        ),
        (
            "corpus-choice-pair",
            CorpusSpec {
                signals: 8,
                choices: 1,
                max_fork: 2,
                marking: MarkingStyle::ExplicitPlace,
                ..base
            },
            11,
        ),
        (
            "corpus-or-tail",
            CorpusSpec {
                signals: 9,
                choices: 2,
                or_density: 100,
                marking: MarkingStyle::ExplicitPlace,
                ..base
            },
            5,
        ),
        (
            "corpus-mixed",
            CorpusSpec {
                signals: 12,
                choices: 2,
                or_density: 60,
                max_fork: 2,
                marking: MarkingStyle::ExplicitPlace,
                ..base
            },
            42,
        ),
    ]
}

/// Every spec in the compliance corpus: the 13 bundled benchmarks plus
/// the 5 pinned generator fixtures.
fn corpus() -> Vec<(String, String)> {
    let mut specs: Vec<(String, String)> = si_redress::suite::benchmarks()
        .iter()
        .map(|b| (b.name.to_string(), b.stg_text.to_string()))
        .collect();
    for (name, spec, seed) in corpus_fixtures() {
        specs.push((name.to_string(), generate_named(&spec, seed, name).g_text));
    }
    specs
}

/// Pins the dump bytes for every spec.
#[test]
fn compliance_dumps_pin_the_event_stream_for_every_spec() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    for (name, stg_text) in corpus() {
        let dump = format!(
            "{}{}",
            header(&name),
            write_events(&parse_events(&stg_text))
        );
        let path = compliance_path(&name);
        if update {
            fs::write(&path, &dump)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing compliance dump `{}`: {e}\n\
                 run `UPDATE_GOLDEN=1 cargo test --test compliance` to create it",
                path.display()
            )
        });
        assert_eq!(
            dump,
            expected,
            "compliance dump mismatch for `{name}` ({}).\n{}\n\
             If the format or front-end change is intentional, regenerate\n\
             with `UPDATE_GOLDEN=1 cargo test --test compliance` and review\n\
             the diff; otherwise the lexer/event/interchange layers drifted.",
            path.display(),
            first_diff(&dump, &expected),
        );
    }
}

#[test]
fn compliance_directory_has_no_stale_dumps() {
    // Every file in tests/compliance must correspond to a spec in the
    // corpus: a renamed or removed benchmark/fixture must not leave an
    // orphaned dump that silently stops being checked.
    let names: Vec<String> = corpus().into_iter().map(|(name, _)| name).collect();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/compliance");
    for entry in fs::read_dir(&dir).expect("compliance directory exists") {
        let path = entry.expect("readable entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        assert!(
            path.extension().is_some_and(|e| e == "sexp"),
            "unexpected file in tests/compliance: {}",
            path.display()
        );
        assert!(
            names.contains(&stem),
            "stale compliance dump `{}`: no bundled benchmark or corpus \
             fixture is named `{stem}`",
            path.display()
        );
    }
}
