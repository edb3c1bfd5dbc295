//! The correctness gate: every timed row must reproduce what the
//! uncached, non-incremental reference engine derives for the same row.

use std::fmt;
use std::path::Path;

use si_core::{CoreError, Engine, EngineConfig};
use si_corpus::harness_config;
use si_suite::{run_corpus_entry, CorpusError, CorpusOutcome};

use crate::manifest::Row;

/// How a row ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A constraint report.
    Ok,
    /// Synthesis rejected the specification for violating CSC.
    CscReject,
    /// The relaxation watchdog bailed with `CoreError::Diverged`.
    Diverged,
    /// Any other error.
    Other,
}

impl Kind {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ok => "ok",
            Kind::CscReject => "csc_reject",
            Kind::Diverged => "diverged",
            Kind::Other => "other",
        }
    }

    /// Classifies an outcome. `run_corpus_entry` renders synthesis errors
    /// into `CorpusError::Load`, so a CSC reject is recognised by the
    /// rendering of `si_synth::CscViolation`.
    pub fn of(outcome: &CorpusOutcome) -> Kind {
        match outcome {
            Ok(_) => Kind::Ok,
            Err(CorpusError::Derive {
                source: CoreError::Diverged { .. },
                ..
            }) => Kind::Diverged,
            Err(CorpusError::Load { detail, .. }) if detail.starts_with("CSC violation") => {
                Kind::CscReject
            }
            Err(_) => Kind::Other,
        }
    }
}

/// What a row must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// `ConstraintReport::snapshot()` of the derived report.
    Report(String),
    /// The error value.
    Error(CorpusError),
}

impl Expected {
    /// The comparable payload of an outcome.
    pub fn of(outcome: &CorpusOutcome) -> Expected {
        match outcome {
            Ok(row) => Expected::Report(row.report.report.snapshot()),
            Err(e) => Expected::Error(e.clone()),
        }
    }

    /// The outcome kind.
    pub fn kind(&self) -> Kind {
        match self {
            Expected::Report(_) => Kind::Ok,
            Expected::Error(e) => Kind::of(&Err(e.clone())),
        }
    }
}

/// A row whose outcome differs from the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Manifest index of the row.
    pub row: usize,
    /// The row's name (and corpus seed).
    pub label: String,
    /// What differed.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row {} `{}`: {}", self.row, self.label, self.detail)
    }
}

/// The expected outcome of every manifest row.
#[derive(Debug, Clone)]
pub struct Gate {
    labels: Vec<String>,
    expected: Vec<Expected>,
}

impl Gate {
    /// Runs every row through `harness_config(EngineConfig::reference())`
    /// — the oracle the differential tests use — and records its outcome.
    pub fn from_reference(rows: &[Row]) -> Gate {
        let reference = Engine::new(harness_config(EngineConfig::reference()));
        Gate {
            labels: rows.iter().map(Row::label).collect(),
            expected: rows
                .iter()
                .map(|row| Expected::of(&run_corpus_entry(&reference, &row.entry)))
                .collect(),
        }
    }

    /// Checks the reference outcomes of the Table 7.2 rows against the
    /// golden snapshots in `golden_dir` (`<name>.txt`, `#` header lines
    /// skipped), and `imec-ram-read-sbuf` against the thesis's 19 → 12
    /// constraints over 112 states.
    pub fn check_goldens(&self, golden_dir: &Path) -> Vec<Mismatch> {
        let mut out = Vec::new();
        for (row, (label, expected)) in self.labels.iter().zip(&self.expected).enumerate() {
            let mismatch = |detail: String| Mismatch {
                row,
                label: label.clone(),
                detail,
            };
            let Expected::Report(snapshot) = expected else {
                out.push(mismatch(format!("reference failed: {expected:?}")));
                continue;
            };
            let path = golden_dir.join(format!("{label}.txt"));
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    let golden: String = text
                        .lines()
                        .skip_while(|l| l.starts_with('#'))
                        .map(|l| format!("{l}\n"))
                        .collect();
                    if golden != *snapshot {
                        out.push(mismatch(format!("differs from {}", path.display())));
                    }
                }
                Err(e) => out.push(mismatch(format!("cannot read {}: {e}", path.display()))),
            }
            if label == "imec-ram-read-sbuf" {
                let gold = ["state_count: 112", "baseline: 19", "constraints: 12"];
                if !gold.iter().all(|g| snapshot.lines().any(|l| l == *g)) {
                    out.push(mismatch(
                        "expected 19 → 12 constraints over 112 states".into(),
                    ));
                }
            }
        }
        out
    }

    /// Compares one row's outcome with the reference.
    pub fn check(&self, row: usize, outcome: &CorpusOutcome) -> Option<Mismatch> {
        let actual = Expected::of(outcome);
        (actual != self.expected[row]).then(|| Mismatch {
            row,
            label: self.labels[row].clone(),
            detail: match (&self.expected[row], &actual) {
                (Expected::Report(_), Expected::Report(_)) => {
                    "constraint report differs from the reference".into()
                }
                (want, got) => format!("expected {want:?}, got {got:?}"),
            },
        })
    }

    /// Row `row`'s expected outcome.
    pub fn expected(&self, row: usize) -> &Expected {
        &self.expected[row]
    }

    /// Replaces row `row`'s expected outcome, so a test can show that a
    /// wrong expectation trips the gate.
    pub fn corrupt(&mut self, row: usize) {
        self.expected[row] = Expected::Report("corrupted expectation\n".into());
    }
}
