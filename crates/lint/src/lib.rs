//! `si-lint` — static specification analysis for STGs, with
//! span-carrying diagnostics.
//!
//! The derivation pipeline assumes its STG inputs are live, safe,
//! consistent and free-choice; a malformed `.g` file used to either die
//! on the first parse error or burn a full state-graph exploration before
//! failing deep inside decomposition. This crate front-loads that
//! feedback: it lints the *structure* of a specification — no state graph
//! is ever explored — and reports every defect in one pass as a
//! [`Diagnostic`] with a stable code (`SI001`…`SI016`), a severity, a
//! byte-span with line/column, optional related spans, and a fix hint.
//!
//! Layers:
//!
//! - [`Code`], [`Severity`], [`Diagnostic`], [`LintReport`] — the
//!   diagnostics model (`diag` module);
//! - [`lint_text`] / [`lint_text_with`] / [`lint_parsed`] — the checks,
//!   built on the error-recovering `si_stg::parse_astg_lenient`
//!   front-end (`checks` module);
//! - [`render_text`] / [`render_json`] / [`json_diagnostics`] — the
//!   renderers (`render` module).
//!
//! Severity contract: **zero error-severity findings implies the strict
//! parser accepts the file** and none of the structural properties the
//! engine's well-formedness gate requires are definitely violated.
//! Warnings flag suspicious-but-possibly-fine structure.
//!
//! ```
//! use si_lint::{lint_text, Code};
//!
//! let report = lint_text(".model x\n.inputs a\n.graph\na+ b+\n.end\n");
//! assert!(report.has_errors());
//! let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
//! assert!(codes.contains(&Code::SI004)); // undeclared signal `b`
//! assert!(codes.contains(&Code::SI009)); // nothing is marked
//! ```

mod checks;
mod diag;
mod render;

pub use checks::{lint_parsed, lint_text, lint_text_with, LintOptions};
pub use diag::{Code, Diagnostic, LintReport, Related, Severity};
pub use render::{json_diagnostics, json_escape, render_json, render_text};
