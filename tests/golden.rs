//! Golden conformance suite: one diff-friendly, human-readable snapshot
//! per bundled benchmark (styx-style, `tests/golden/*.txt`), capturing the
//! semantic payload of `check_hazard --format json` — both constraint
//! sets, the per-gate verdicts and the relaxation trace with its hazard
//! classifications.
//!
//! The files are generated from the *pinned sequential reference path*
//! (`derive_timing_constraints`: uncached, marking-keyed); the test then
//! runs the full-featured engine (the interning explorer and the
//! state-graph cache) and requires its output to be bit-identical.
//! Any divergence between the fast path and the reference is caught here,
//! suite-wide.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! then review the diff like any other code change.

use std::fs;
use std::path::PathBuf;

use si_redress::core::{
    derive_timing_constraints, CoreError, Engine, EngineConfig, GateContext, LocalStg,
};
use si_redress::corpus::{
    corpus_name, generate, generate_named, harness_config, CorpusSpec, DEFAULT_MAX_SIGNALS,
    PINNED_FIXTURES,
};
use si_redress::stg::sexp::write_state_graph;
use si_redress::stg::{MgStg, StateGraph};
use si_redress::suite::{run_corpus_entry, CorpusEntry, CorpusError};
use si_redress::synth::synthesize;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn header(name: &str) -> String {
    format!(
        "# Golden conformance snapshot for benchmark `{name}`: the semantic\n\
         # payload of `check_hazard --format json` (constraints, per-gate\n\
         # verdicts, hazard classifications), pinned by the sequential\n\
         # reference derivation. Regenerate with:\n\
         #   UPDATE_GOLDEN=1 cargo test --test golden\n"
    )
}

/// Points at the first diverging line of two snapshots.
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
        "one snapshot is a prefix of the other ({} vs {} lines)",
        actual.lines().count(),
        expected.lines().count()
    )
}

#[test]
fn golden_snapshots_pin_the_reference_output_for_every_benchmark() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    // One shared engine with every reuse layer on — exactly the
    // configuration whose output must never drift from the reference.
    let engine = Engine::new(EngineConfig::default());
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let path = golden_path(bench.name);
        if update {
            // Regenerate from the pinned reference path, not from the
            // engine under test: the files *are* the reference.
            let reference = derive_timing_constraints(&stg, &library).expect("derives");
            let contents = format!("{}{}", header(bench.name), reference.snapshot());
            fs::write(&path, contents)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        let out = engine.run(&stg, &library).expect("derives");
        let rendered = format!("{}{}", header(bench.name), out.report.snapshot());
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot `{}`: {e}\n\
                 run `UPDATE_GOLDEN=1 cargo test --test golden` to create it",
                path.display()
            )
        });
        assert_eq!(
            rendered,
            expected,
            "golden snapshot mismatch for `{}` ({}).\n{}\n\
             If the output change is intentional, regenerate the snapshots\n\
             with `UPDATE_GOLDEN=1 cargo test --test golden` and review the\n\
             diff; otherwise the memoized engine has diverged\n\
             from the pinned sequential reference.",
            bench.name,
            path.display(),
            first_diff(&rendered, &expected),
        );
    }
}

#[test]
fn golden_snapshots_pin_the_reference_output_for_corpus_fixtures() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let engine = Engine::new(EngineConfig::default());
    let budget = engine.config().global_sg_budget;
    // The five pinned generator fixtures: the generator promises
    // byte-identical `.g` text per `(sanitized spec, seed)` forever, so
    // these snapshots pin the generator as much as the engine — a drifting
    // generator shows up here before it silently reshuffles every fuzz
    // seed.
    for (name, spec, seed) in PINNED_FIXTURES {
        let circuit = generate_named(&spec, seed, name);
        let library = synthesize(&circuit.stg, budget)
            .unwrap_or_else(|e| panic!("corpus fixture `{name}` must synthesize: {e}"));
        let path = golden_path(name);
        if update {
            let reference = derive_timing_constraints(&circuit.stg, &library).expect("derives");
            let contents = format!("{}{}", header(name), reference.snapshot());
            fs::write(&path, contents)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        let out = engine.run(&circuit.stg, &library).expect("derives");
        let rendered = format!("{}{}", header(name), out.report.snapshot());
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot `{}`: {e}\n\
                 run `UPDATE_GOLDEN=1 cargo test --test golden` to create it",
                path.display()
            )
        });
        assert_eq!(
            rendered,
            expected,
            "golden snapshot mismatch for corpus fixture `{name}` ({}).\n{}\n\
             Either the engine diverged from the reference, or the corpus\n\
             generator's output drifted for a pinned (spec, seed) pair —\n\
             the latter breaks every recorded fuzz reproducer and needs a\n\
             deliberate decision, not a snapshot refresh.",
            path.display(),
            first_diff(&rendered, &expected),
        );
    }
}

/// Seed 189 (`corpus-000000bd`) is the canonical diverging specimen: one
/// gate's relaxation loop never converges, and before the trial scheduler
/// it burned whatever iteration budget it was given (the old 400-cap
/// still cost ~1 s; the default 20 000 budget meant hours). The regression
/// contract pinned here: at the *default* budget the full derivation
/// terminates deterministically, in well under a second, with a
/// `Diverged` verdict whose rendering — gate, detector, iteration and
/// trailing arc sequence — is golden-pinned.
#[test]
fn golden_snapshot_pins_the_seed_189_divergence() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let name = "corpus-000000bd-diverged";
    let spec = CorpusSpec::from_seed(189, 12);
    let circuit = generate(&spec, 189);
    let library = synthesize(&circuit.stg, EngineConfig::default().global_sg_budget)
        .expect("seed 189 synthesizes");
    let engine = Engine::new(EngineConfig::default());
    let started = std::time::Instant::now();
    let err = engine
        .run(&circuit.stg, &library)
        .expect_err("seed 189 must not converge");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, CoreError::Diverged { .. }),
        "expected a Diverged verdict, got: {err}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "seed 189 must bail in under a second at the default budget, took {elapsed:?}"
    );
    // An admitting and a warm run of the same engine must reach the
    // identical verdict: the scheduler's inputs are cache-independent.
    for pass in ["admitting", "warm"] {
        assert_eq!(err, engine.run(&circuit.stg, &library).expect_err(pass));
    }

    let path = golden_path(name);
    let rendered = format!("{}{err}\n", header(name));
    if update {
        fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot `{}`: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test --test golden` to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "golden divergence verdict drifted for `{name}` ({}).\n{}",
        path.display(),
        first_diff(&rendered, &expected),
    );
}

/// The corpus rows `corpus-outcomes.txt` pins: seeds 1..=1200 of the
/// canonical spec at [`DEFAULT_MAX_SIGNALS`], the rows of `perfbench`'s
/// corpus workloads.
const OUTCOME_SEEDS: std::ops::RangeInclusive<u64> = 1..=1200;

/// 64-bit FNV-1a of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One corpus row run through `run_corpus_entry`: its outcome kind and
/// the text the golden line hashes — the report snapshot, or the
/// rendered error.
fn corpus_outcome(engine: &Engine, seed: u64) -> (&'static str, String) {
    let entry = CorpusEntry {
        name: corpus_name(seed),
        stg_text: generate(&CorpusSpec::from_seed(seed, DEFAULT_MAX_SIGNALS), seed).g_text,
        eqn_text: None,
    };
    match run_corpus_entry(engine, &entry) {
        Ok(row) => ("ok", row.report.report.snapshot()),
        Err(e) => {
            let kind = match &e {
                CorpusError::Load { detail, .. } if detail.starts_with("CSC violation") => {
                    "csc_reject"
                }
                CorpusError::Load { .. } => "load",
                CorpusError::Lint { .. } => "lint",
                CorpusError::Derive {
                    source: CoreError::Diverged { .. },
                    ..
                } => "diverged",
                CorpusError::Derive { .. } => "derive",
                CorpusError::Panicked { .. } => "panicked",
            };
            (kind, e.to_string())
        }
    }
}

/// Pins the outcome of every corpus row the benchmark times, one line
/// per seed: `<seed> <kind> <FNV-1a of the snapshot or error>`. The 13
/// benchmark goldens and 5 corpus fixtures cover few graph shapes; this
/// file catches an engine change that alters any of the 1200 rows.
#[test]
fn golden_corpus_outcomes_pin_every_benchmark_row() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let name = "corpus-outcomes";
    let engine = Engine::new(harness_config(EngineConfig::default()));
    let mut rendered = format!(
        "# Outcome of corpus seeds {}..={} (`CorpusSpec::from_seed(seed, {DEFAULT_MAX_SIGNALS})`)\n\
         # through `run_corpus_entry`: seed, outcome kind, and the FNV-1a hash\n\
         # of the report snapshot or of the rendered error. Regenerate with:\n\
         #   UPDATE_GOLDEN=1 cargo test --test golden\n",
        OUTCOME_SEEDS.start(),
        OUTCOME_SEEDS.end(),
    );
    let mut payloads = Vec::new();
    for seed in OUTCOME_SEEDS {
        let (kind, text) = corpus_outcome(&engine, seed);
        rendered.push_str(&format!("{seed} {kind} {:016x}\n", fnv1a(&text)));
        payloads.push(text);
    }
    let path = golden_path(name);
    if update {
        fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot `{}`: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test --test golden` to create it",
            path.display()
        )
    });
    if rendered == expected {
        return;
    }
    let rows = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    };
    let (got, want) = (rows(&rendered), rows(&expected));
    let differing: Vec<usize> = (0..got.len().max(want.len()))
        .filter(|&i| got.get(i) != want.get(i))
        .collect();
    let mut report = String::new();
    for &i in differing.iter().take(5) {
        report.push_str(&format!(
            "\n  got:      {}\n  expected: {}\n{}",
            got.get(i).map_or("<missing>", String::as_str),
            want.get(i).map_or("<missing>", String::as_str),
            payloads.get(i).map_or("", String::as_str),
        ));
    }
    panic!(
        "corpus outcomes drifted from `{}`: {} of {} rows differ; the first \
         ones with their full snapshot or error:{report}\n\
         If the output change is intentional, regenerate with\n\
         `UPDATE_GOLDEN=1 cargo test --test golden` and review the diff.",
        path.display(),
        differing.len(),
        want.len(),
    );
}

/// The gate whose local graph the state-graph golden dumps:
/// the one with the most local states (8).
const DUMPED_GATE: &str = "i0";

/// Pins `si_stg::sexp::write_state_graph` on `imec-ram-read-sbuf`: the
/// full state graph (`StateGraph::of_stg`, 112 states) and the local
/// graph of one gate's projection. The dump lists every state's code and
/// every edge in per-state order, so it pins the generators' state
/// numbering and edge order along with the format. Like the other
/// snapshots, the file comes from the reference path (the local graph
/// from `StateGraph::of_mg`) and the test renders the graph of the
/// engine's explorer (`StateGraph::of_mg_interned`).
#[test]
fn golden_state_graph_dump_pins_imec_ram_read_sbuf() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let name = "imec-ram-read-sbuf-state-graph";
    let bench = si_redress::suite::benchmarks()
        .into_iter()
        .find(|b| b.name == "imec-ram-read-sbuf")
        .expect("bundled benchmark");
    let (stg, library) = bench.circuit().expect("loads");
    let budget = EngineConfig::default().global_sg_budget;
    let full = StateGraph::of_stg(&stg, budget).expect("consistent");
    assert_eq!(full.state_count(), 112);
    let gate = library.gate(DUMPED_GATE).expect("gate of the netlist");
    let ctx = GateContext::bind(gate, &stg).expect("binds");
    let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
    let local = LocalStg::project_from(&mg, &ctx).expect("projects");
    let names = stg.signal_names();
    let dump = |local_sg: &StateGraph| {
        format!(
            "# State-graph dump (`write_state_graph`) of benchmark `imec-ram-read-sbuf`:\n\
             # the full graph (`StateGraph::of_stg`), then the local graph\n\
             # (`StateGraph::of_mg_interned`) of gate `{DUMPED_GATE}`. Regenerate with:\n\
             #   UPDATE_GOLDEN=1 cargo test --test golden\n{}{}",
            write_state_graph(&full, &names),
            write_state_graph(local_sg, &names),
        )
    };
    let path = golden_path(name);
    if update {
        let reference = StateGraph::of_mg(&local.mg, budget).expect("consistent");
        fs::write(&path, dump(&reference))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    let rendered = dump(&StateGraph::of_mg_interned(&local.mg, budget).expect("consistent"));
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot `{}`: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test --test golden` to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "state-graph dump drifted for `{name}` ({}).\n{}",
        path.display(),
        first_diff(&rendered, &expected),
    );
}

#[test]
fn golden_directory_has_no_stale_snapshots() {
    // Every file in tests/golden must correspond to a bundled benchmark:
    // a renamed or removed benchmark must not leave an orphaned snapshot
    // silently pinning nothing.
    let mut names: Vec<&str> = si_redress::suite::benchmarks()
        .iter()
        .map(|b| b.name)
        .collect();
    names.extend(PINNED_FIXTURES.iter().map(|(name, _, _)| *name));
    names.push("corpus-000000bd-diverged");
    names.push("corpus-outcomes");
    names.push("imec-ram-read-sbuf-state-graph");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for entry in fs::read_dir(&dir).expect("golden directory exists") {
        let path = entry.expect("readable entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        assert!(
            names.contains(&stem.as_str()),
            "stale golden snapshot `{}` matches no bundled benchmark or corpus fixture",
            path.display()
        );
    }
}
