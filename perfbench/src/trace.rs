//! Spans around the public call of each layer, recorded by the benchmark
//! itself. A traced row runs the same pipeline as
//! `si_suite::run_corpus_entry` — lint, strict parse, netlist (fixed or
//! synthesized), `Engine::run` — one public call at a time, so each call
//! gets its own span. The engine's stage walls are read from the public
//! `EngineReport` as child spans of the engine span.
//!
//! Spans stay in memory; [`Tracer::write_chrome`] writes them out as
//! Chrome trace-event JSON (viewable in Perfetto) when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use si_boolean::{parse_eqn, GateLibrary};
use si_core::{Engine, LintPolicy, Stage};
use si_lint::{LintOptions, LintReport};
use si_stg::parse_astg;
use si_suite::{CorpusEntry, CorpusError, CorpusOutcome, CorpusRow};
use si_synth::{synthesize, SynthError};

use crate::gate::Kind;

/// The engine stages reported as child spans, with their span names.
pub const STAGES: [(Stage, &str); 4] = [
    (Stage::Decompose, "engine.decompose"),
    (Stage::Project, "engine.project"),
    (Stage::Relax, "engine.relax"),
    (Stage::Merge, "engine.merge"),
];

/// The top-level layer spans of a row; their sum is the traced part of
/// the row's wall.
pub const LAYERS: [&str; 4] = ["lint", "parse", "synth", "engine"];

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Row id, shared by every span of one row (its position in the run).
    pub row: usize,
    /// `row`, a layer name, or an engine stage name.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, from the tracer's epoch.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
}

/// One traced row.
#[derive(Debug, Clone, Copy)]
pub struct TracedRow {
    /// The manifest index.
    pub index: usize,
    /// The outcome kind, taken from the typed layer error (not from its
    /// rendering, as [`Kind::of`] must).
    pub kind: Kind,
    /// Bytes of `.g` text given to the strict parser.
    pub parsed_bytes: usize,
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
    /// Every traced row, indexed by row id.
    pub rows: Vec<TracedRow>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            rows: Vec::new(),
        }
    }
}

impl Tracer {
    fn open(&mut self, row: usize, name: &'static str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            row,
            name,
            parent,
            start: self.epoch.elapsed(),
            dur: Duration::ZERO,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        let end = self.epoch.elapsed();
        let s = &mut self.spans[span];
        s.dur = end - s.start;
    }

    /// Runs manifest row `index` through `engine`, one span per layer.
    /// The outcome equals `run_corpus_entry(engine, entry)`'s.
    pub fn run_entry(
        &mut self,
        index: usize,
        engine: &Engine,
        entry: &CorpusEntry,
    ) -> CorpusOutcome {
        let row = self.rows.len();
        let root = self.open(row, "row", None);
        let mut csc_reject = false;
        let outcome = self.layers(row, root, engine, entry, &mut csc_reject);
        self.close(root);
        let kind = match &outcome {
            Err(CorpusError::Load { .. }) if csc_reject => Kind::CscReject,
            Err(CorpusError::Load { .. }) => Kind::Other,
            other => Kind::of(other),
        };
        self.rows.push(TracedRow {
            index,
            kind,
            parsed_bytes: entry.stg_text.len(),
        });
        outcome
    }

    fn layers(
        &mut self,
        row: usize,
        root: usize,
        engine: &Engine,
        entry: &CorpusEntry,
        csc_reject: &mut bool,
    ) -> CorpusOutcome {
        let config = engine.config();
        let lint = if config.lint == LintPolicy::Off {
            LintReport::default()
        } else {
            let span = self.open(row, "lint", Some(root));
            let lint = si_lint::lint_text_with(
                &entry.stg_text,
                &LintOptions {
                    state_budget: Some(config.global_sg_budget),
                },
            );
            self.close(span);
            lint
        };
        if config.lint == LintPolicy::Deny && lint.has_errors() {
            return Err(CorpusError::Lint {
                name: entry.name.clone(),
                errors: lint.error_count(),
            });
        }
        let load = |detail: String| CorpusError::Load {
            name: entry.name.clone(),
            detail,
        };

        let span = self.open(row, "parse", Some(root));
        let stg = parse_astg(&entry.stg_text);
        self.close(span);
        let stg = stg.map_err(|e| load(e.to_string()))?;

        let span = self.open(row, "synth", Some(root));
        let library = match &entry.eqn_text {
            Some(text) => parse_eqn(text)
                .map(|netlist| GateLibrary::from_netlist(&netlist))
                .map_err(|e| e.to_string()),
            None => synthesize(&stg, config.global_sg_budget).map_err(|e| {
                *csc_reject = matches!(e, SynthError::Csc(_));
                e.to_string()
            }),
        };
        self.close(span);
        let library = library.map_err(load)?;

        let span = self.open(row, "engine", Some(root));
        let report = engine.run(&stg, &library);
        self.close(span);
        let report = report.map_err(|source| CorpusError::Derive {
            name: entry.name.clone(),
            source,
        })?;
        // Stage walls as consecutive children of the engine span
        // (`jobs = 1`, so the fanned-out stages run back to back).
        let mut start = self.spans[span].start;
        for (stage, name) in STAGES {
            let dur = report.stage(stage).map_or(Duration::ZERO, |m| m.wall);
            self.spans.push(Span {
                row,
                name,
                parent: Some(span),
                start,
                dur,
            });
            start += dur;
        }
        Ok(CorpusRow {
            name: entry.name.clone(),
            report,
            lint,
        })
    }

    /// Writes spans `from..` as Chrome trace-event JSON, one event per
    /// span, labelled with the row's circuit name and outcome kind.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_chrome(&self, from: usize, names: &[String], path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans[from..].iter().enumerate() {
            let row = &self.rows[s.row];
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"span\": {}, \"parent\": {parent}, \"row\": {}, \"circuit\": \"{}\", \"kind\": \"{}\"}}}}{}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                from + i,
                s.row,
                si_lint::json_escape(&names[row.index]),
                row.kind.name(),
                if from + i + 1 < self.spans.len() { "," } else { "" },
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
