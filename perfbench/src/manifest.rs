//! The rows a workload runs: owned `.g` texts, so `si-suite`'s
//! `&'static str` circuit and lint memos never serve a timed row.

use si_corpus::{corpus_name, generate, CorpusSpec};
use si_suite::CorpusEntry;

use crate::Workload;

/// Signal-count bound of the corpus generator (`CorpusSpec::from_seed`).
const CORPUS_MAX_SIGNALS: usize = 10;

/// One manifest row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The circuit exactly as the program receives it.
    pub entry: CorpusEntry,
    /// The generator seed of a corpus row; `None` for a Table 7.2 circuit.
    pub corpus_seed: Option<u64>,
}

impl Row {
    /// `name` or `name (seed N)`, for messages.
    pub fn label(&self) -> String {
        match self.corpus_seed {
            Some(seed) => format!("{} (seed {seed})", self.entry.name),
            None => self.entry.name.clone(),
        }
    }
}

/// Builds the workload's manifest: the 13 Table 7.2 circuits, or the
/// corpus circuits of `corpus_seeds`.
pub fn build(workload: Workload, corpus_seeds: &[u64]) -> Vec<Row> {
    match workload {
        Workload::SuiteCold => si_suite::benchmarks()
            .into_iter()
            .map(|b| Row {
                entry: CorpusEntry {
                    name: b.name.to_string(),
                    stg_text: b.stg_text.to_string(),
                    eqn_text: b.eqn_text.map(str::to_string),
                },
                corpus_seed: None,
            })
            .collect(),
        Workload::CorpusCold | Workload::CorpusWarm => corpus_seeds
            .iter()
            .map(|&s| Row {
                entry: CorpusEntry {
                    name: corpus_name(s),
                    stg_text: generate(&CorpusSpec::from_seed(s, CORPUS_MAX_SIGNALS), s).g_text,
                    eqn_text: None,
                },
                corpus_seed: Some(s),
            })
            .collect(),
    }
}
