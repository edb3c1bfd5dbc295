//! One whole-STG walk per run: the text front end, the engine and
//! synthesis read one `Stg::analyze` walk, counted by
//! `si_stg::whole_stg_walks`. The fork/join family below is where the
//! walks in front of the derivation used to dominate: its state space
//! grows about fivefold per two extra branches while the per-gate
//! derivation stays small.

use std::time::{Duration, Instant};

use si_redress::core::{Engine, EngineConfig, Stage};
use si_redress::stg::{parse_astg, whole_stg_walks};
use si_redress::suite::{run_corpus_entry, CorpusEntry};

/// A `k`-way fork into a tree of 2-input C-elements, as `.g` and EQN
/// text: input `r` rises, buffers `x0..x{k-1}` follow it, C-elements
/// `c0..c{k-2}` join the branches pairwise, and the root acknowledges
/// `r`; then the same in falling polarity. A subtree of `n` leaves joins
/// one over the largest power of two below `n` and one over the rest.
/// Every gate has at most 3 inputs; the specification has `2k` signals.
fn fork_join(k: usize) -> (String, String) {
    assert!(k >= 2, "a fork needs two branches");
    let leaves: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
    let mut joins: Vec<(String, String, String)> = Vec::new();
    let root = tree(&leaves, &mut joins);
    let mut g = format!(".model fork-join-{k}\n.inputs r\n.outputs");
    for name in leaves.iter().chain(joins.iter().map(|(c, _, _)| c)) {
        g.push_str(&format!(" {name}"));
    }
    g.push_str("\n.graph\n");
    let mut eqn = String::new();
    for edge in ['+', '-'] {
        g.push_str(&format!("r{edge}"));
        for x in &leaves {
            g.push_str(&format!(" {x}{edge}"));
        }
        g.push('\n');
        for (c, a, b) in &joins {
            g.push_str(&format!("{a}{edge} {c}{edge}\n{b}{edge} {c}{edge}\n"));
        }
    }
    g.push_str(&format!(
        "{root}+ r-\n{root}- r+\n.marking {{ <{root}-,r+> }}\n.end\n"
    ));
    for x in &leaves {
        eqn.push_str(&format!("{x} = r;\n"));
    }
    for (c, a, b) in &joins {
        eqn.push_str(&format!("{c} = {a}*{b} + {a}*{c} + {b}*{c};\n"));
    }
    (g, eqn)
}

/// Joins `nodes` into a C-element tree, appending `(output, a, b)` per
/// C-element; returns the root's name.
fn tree(nodes: &[String], joins: &mut Vec<(String, String, String)>) -> String {
    if nodes.len() == 1 {
        return nodes[0].clone();
    }
    let left = 1 << (nodes.len() - 1).ilog2();
    let a = tree(&nodes[..left], joins);
    let b = tree(&nodes[left..], joins);
    let c = format!("c{}", joins.len());
    joins.push((c.clone(), a, b));
    c
}

/// The walks `run` makes on this thread.
fn walks<T>(run: impl FnOnce() -> T) -> (usize, T) {
    let before = whole_stg_walks();
    let out = run();
    (whole_stg_walks() - before, out)
}

#[test]
fn fork_join_state_spaces_grow_fivefold_per_two_branches() {
    for (k, states) in [(4, 52), (6, 262), (8, 1_354)] {
        let (g, _) = fork_join(k);
        let stg = parse_astg(&g).expect("valid");
        assert_eq!(stg.signal_count(), 2 * k);
        let health = stg.validate(100_000).expect("bounded");
        assert!(health.is_well_formed(), "k = {k}: {health:?}");
        assert_eq!(health.states, Some(states), "k = {k}");
    }
}

#[test]
fn a_run_walks_the_whole_stg_once() {
    let engine = Engine::new(EngineConfig::default());
    let (g, eqn) = fork_join(4);

    // `Engine::run`: the decompose stage makes the walk.
    let stg = parse_astg(&g).expect("valid");
    let library = si_redress::boolean::GateLibrary::from_netlist(
        &si_redress::boolean::parse_eqn(&eqn).expect("valid"),
    );
    let (n, out) = walks(|| engine.run(&stg, &library));
    assert_eq!(n, 1);
    assert_eq!(
        out.expect("derives")
            .stage(Stage::Decompose)
            .expect("ran")
            .states_explored,
        52
    );

    // `run_corpus_entry`, with a fixed netlist and with a synthesized one:
    // validate makes the walk, synthesis and the derivation read it.
    let fixed = CorpusEntry {
        name: "fork-join-4".into(),
        stg_text: g.clone(),
        eqn_text: Some(eqn),
    };
    let synthesized = CorpusEntry {
        eqn_text: None,
        ..fixed.clone()
    };
    for entry in [&fixed, &synthesized] {
        let (n, row) = walks(|| run_corpus_entry(&engine, entry));
        assert_eq!(n, 1, "{:?}", entry.eqn_text);
        let out = row.expect("derives").report;
        assert_eq!(out.report.state_count, 52);
        let states = |stage| out.stage(stage).expect("ran").states_explored;
        assert_eq!((states(Stage::Validate), states(Stage::Decompose)), (52, 0));
    }

    // A synthesized corpus row, whatever its outcome, walks once too.
    let mut outcomes = [0usize; 2];
    for seed in 1..=40 {
        let spec = si_redress::corpus::CorpusSpec::from_seed(seed, 10);
        let entry = CorpusEntry {
            name: si_redress::corpus::corpus_name(seed),
            stg_text: si_redress::corpus::generate(&spec, seed).g_text,
            eqn_text: None,
        };
        let (n, row) = walks(|| run_corpus_entry(&engine, &entry));
        assert_eq!(n, 1, "seed {seed}");
        outcomes[usize::from(row.is_ok())] += 1;
    }
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}

#[test]
fn loading_a_bundled_circuit_walks_the_whole_stg_once() {
    // `Benchmark::circuit` is the front end's loading half: validation
    // and synthesis read one walk, with a fixed netlist too.
    for bench in si_redress::suite::benchmarks() {
        let (n, circuit) = walks(|| bench.circuit());
        circuit.expect("loads");
        assert_eq!(n, 1, "{}", bench.name);
    }
}

/// The fastest of `reps` timings of `run`.
fn fastest(reps: usize, mut run: impl FnMut() -> Duration) -> Duration {
    (0..reps).map(|_| run()).min().expect("at least one rep")
}

/// The walls in front of the derivation on fork/join circuits, against
/// one whole-STG walk: `run_corpus_entry`'s validate and decompose stages
/// together take at most two walks. A timing probe, so not part of the
/// default run:
///
/// ```text
/// cargo test --release --test one_walk -- --ignored --nocapture
/// ```
#[test]
#[ignore = "timing probe; run in release"]
fn validate_and_decompose_take_at_most_two_walks() {
    let engine = Engine::new(EngineConfig::default());
    println!(
        "| k | signals | states | one walk ms | validate ms | decompose ms | project + relax ms |"
    );
    println!("|---|---|---|---|---|---|---|");
    for k in [8, 10, 12] {
        let (g, eqn) = fork_join(k);
        let stg = parse_astg(&g).expect("valid");
        let entry = CorpusEntry {
            name: format!("fork-join-{k}"),
            stg_text: g,
            eqn_text: Some(eqn),
        };
        let budget = engine.config().global_sg_budget;
        let walk = fastest(3, || {
            let t = Instant::now();
            let analysis = stg.analyze(budget).expect("bounded");
            let wall = t.elapsed();
            drop(analysis);
            wall
        });
        let mut stages = [Duration::MAX; 3];
        let mut states = 0;
        for _ in 0..3 {
            let out = run_corpus_entry(&engine, &entry).expect("derives").report;
            let wall = |stage| out.stage(stage).expect("ran").wall;
            let walls = [
                wall(Stage::Validate),
                wall(Stage::Decompose),
                wall(Stage::Project) + wall(Stage::Relax),
            ];
            for (best, wall) in stages.iter_mut().zip(walls) {
                *best = (*best).min(wall);
            }
            states = out.report.state_count;
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        println!(
            "| {k} | {} | {states} | {:.1} | {:.1} | {:.1} | {:.1} |",
            2 * k,
            ms(walk),
            ms(stages[0]),
            ms(stages[1]),
            ms(stages[2])
        );
        assert!(
            stages[0] + stages[1] <= 2 * walk,
            "k = {k}: validate + decompose {:?} against one walk {walk:?}",
            stages[0] + stages[1]
        );
    }
}
