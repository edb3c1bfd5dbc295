//! The sharded corpus runner's merge contract, pinned differentially.
//!
//! [`si_suite::run_corpus`] promises that sharding affects wall clock and
//! cache traffic *only*: for any worker count ([`EngineConfig::jobs`]),
//! the merged rows come back in manifest order and every row's payload —
//! constraint report, lint findings, error value — is bit-identical to an
//! explicit sequential [`run_corpus_entry`] loop over the same manifest
//! on a fresh engine. This suite pins that for 1, 4 and 8 workers, over a
//! cold, an admitting and a warm pass (the cache stores a graph on its
//! second request), on a
//! generated manifest that deliberately includes defective rows (parse
//! failures, lint-rejected specs) so the error path is part of the
//! contract too.

use si_redress::core::{Engine, EngineConfig, LintPolicy};
use si_redress::corpus::{corpus_name, generate, harness_config, CorpusSpec};
use si_redress::suite::{run_corpus, run_corpus_entry, CorpusEntry, CorpusOutcome};

/// The comparable payload of one row: everything except wall times and
/// cache counters, which legitimately differ across schedules.
fn payload(outcome: &CorpusOutcome) -> String {
    match outcome {
        Ok(row) => format!("{}|{:?}|{:?}", row.name, row.report.report, row.lint),
        Err(e) => format!("err|{e:?}"),
    }
}

/// A mixed manifest: generated circuits across the seed range, plus two
/// defective rows wedged into the middle so error values must survive
/// the row-order merge in place.
fn manifest(seeds: std::ops::RangeInclusive<u64>, max_signals: usize) -> Vec<CorpusEntry> {
    let mut rows: Vec<CorpusEntry> = seeds
        .map(|seed| {
            let c = generate(&CorpusSpec::from_seed(seed, max_signals), seed);
            CorpusEntry {
                name: corpus_name(seed),
                stg_text: c.g_text,
                eqn_text: None,
            }
        })
        .collect();
    let mid = rows.len() / 2;
    rows.insert(
        mid,
        CorpusEntry {
            name: "defective-parse".into(),
            stg_text: ".model broken\n.inputs a\n.graph\na+ c+\n.marking { }\n.end\n".into(),
            eqn_text: None,
        },
    );
    rows.insert(
        mid / 2,
        CorpusEntry {
            name: "defective-eqn".into(),
            stg_text: generate(&CorpusSpec::from_seed(3, max_signals), 3).g_text,
            eqn_text: Some("this is not an equation".into()),
        },
    );
    rows
}

/// An engine whose `run_corpus` shards over `jobs` workers.
fn engine(jobs: usize) -> Engine {
    // The corpus-harness divergence bail-out, exactly as `si_fuzz` runs:
    // pathological relaxation shapes become deterministic `Diverged`
    // errors, which the payload comparison covers like any other row.
    Engine::new(harness_config(EngineConfig {
        jobs,
        ..EngineConfig::default()
    }))
}

#[test]
fn sharded_runs_match_the_sequential_reference_cold_and_warm() {
    let manifest = manifest(1..=40, 8);
    // Sequential reference: fresh engine, explicit row-order loop.
    let seq_engine = engine(1);
    let seq: Vec<String> = manifest
        .iter()
        .map(|entry| payload(&run_corpus_entry(&seq_engine, entry)))
        .collect();
    assert!(
        seq.iter().any(|p| p.starts_with("err|")),
        "the manifest must exercise the error path"
    );
    for jobs in [1, 4, 8] {
        let shard_engine = engine(jobs);
        for pass in ["cold", "admitting", "warm"] {
            let rows = run_corpus(&shard_engine, &manifest);
            assert_eq!(rows.len(), seq.len());
            for (i, (row, reference)) in rows.iter().zip(&seq).enumerate() {
                assert_eq!(
                    &payload(row),
                    reference,
                    "jobs={jobs} {pass}: row {i} (`{}`) diverged from the \
                     sequential reference",
                    manifest[i].name
                );
            }
        }
    }
}

#[test]
fn defective_rows_fail_in_place_under_deny_policy() {
    // Under LintPolicy::Deny the lint pre-flight rejects rows instead of
    // the parser; the merged error values must still match a sequential
    // loop on the same policy.
    let config = harness_config(EngineConfig {
        lint: LintPolicy::Deny,
        ..EngineConfig::default()
    });
    let manifest = manifest(1..=12, 6);
    let seq_engine = Engine::new(config);
    let seq: Vec<String> = manifest
        .iter()
        .map(|entry| payload(&run_corpus_entry(&seq_engine, entry)))
        .collect();
    let shard_engine = Engine::new(EngineConfig { jobs: 4, ..config });
    let rows = run_corpus(&shard_engine, &manifest);
    let got: Vec<String> = rows.iter().map(payload).collect();
    assert_eq!(got, seq);
}
