//! Self-test: every workload, one pass on a tiny manifest.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;

use si_perfbench::{measure, prepare, Kind, Options, RunResult, Workload, END_TO_END, PER_LAYER};

/// Seven corpus rows: five that derive, CSC reject 5 and watchdog bail
/// 156, so every outcome kind the corpus workloads meet is covered.
fn tiny(workload: Workload, trace: bool) -> Options {
    let mut opts = Options::new(workload, 7, 0.0, trace);
    opts.corpus_seeds = vec![1, 2, 3, 4, 5, 6, 156];
    opts
}

fn run(workload: Workload, trace: bool) -> RunResult {
    let opts = tiny(workload, trace);
    measure(&opts, &prepare(&opts))
}

/// `(name, unit)` pairs of the objects in `text` that carry a `unit`
/// (metrics), and the names of those that carry a `why` (workloads).
fn declared(text: &str) -> (BTreeSet<(String, String)>, BTreeSet<String>) {
    let field = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(obj[at..at + obj[at..].find('"')?].to_string())
    };
    let (mut metrics, mut workloads) = (BTreeSet::new(), BTreeSet::new());
    for obj in text.split('{').skip(1) {
        let obj = &obj[..obj.find('}').unwrap_or(obj.len())];
        match (field(obj, "name"), field(obj, "unit"), field(obj, "why")) {
            (Some(name), Some(unit), _) => {
                metrics.insert((name, unit));
            }
            (Some(name), None, Some(_)) => {
                workloads.insert(name);
            }
            _ => {}
        }
    }
    (metrics, workloads)
}

#[test]
fn every_metric_is_declared_and_emitted_with_its_unit() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json is readable");
    let (metrics, workloads) = declared(&text);
    let ours: BTreeSet<(String, String)> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(
        metrics, ours,
        "BENCHMARK.json and the benchmark disagree on metrics"
    );
    let names: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);

    for workload in Workload::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = run(workload, trace);
            assert!(result.correct(), "{workload:?}: {:?}", result.mismatches);
            let emitted: Vec<(&str, &str)> =
                result.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(emitted, table, "{workload:?} trace={trace}");
            let json = result.json();
            for m in &result.metrics {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                let entry = format!("\"{}\": {{\"value\": ", m.name);
                let unit = format!("\"unit\": \"{}\"}}", m.unit);
                let at = json
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} missing", m.name));
                assert!(json[at..].contains(&unit), "{} lacks its unit", m.name);
            }
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            if !trace {
                let positive = |name: &str| {
                    result
                        .metrics
                        .iter()
                        .any(|m| m.name == name && m.value > 0.0)
                };
                assert!(
                    END_TO_END.iter().all(|(name, _)| positive(name)),
                    "{workload:?}"
                );
            }
        }
    }
}

#[test]
fn traced_and_untraced_runs_produce_identical_outcomes() {
    for workload in Workload::ALL {
        let untraced = run(workload, false);
        let traced = run(workload, true);
        assert!(untraced.correct() && traced.correct());
        assert_eq!(untraced.outcomes, traced.outcomes, "{workload:?}");
        // Untraced kinds come from rendered errors, traced ones from the
        // typed layer errors: they must agree.
        assert_eq!(untraced.kinds, traced.kinds, "{workload:?}");
        if workload != Workload::SuiteCold {
            for kind in [Kind::Ok, Kind::CscReject, Kind::Diverged] {
                assert!(traced.kinds.contains(&kind), "{workload:?} lacks {kind:?}");
            }
        }
    }
}

#[test]
fn a_corrupted_expected_outcome_trips_the_correctness_gate() {
    for workload in Workload::ALL {
        let opts = tiny(workload, false);
        let mut prepared = prepare(&opts);
        assert!(prepared.mismatches.is_empty());
        prepared.gate.corrupt(2);
        let result = measure(&opts, &prepared);
        assert!(!result.correct());
        let named = &result.mismatches[0];
        assert_eq!(named.row, 2);
        assert_eq!(named.label, prepared.rows[2].label());
        assert!(named.to_string().contains(&prepared.rows[2].entry.name));
        assert!(result.json().starts_with("{\"correct\": false, "));
    }
}
