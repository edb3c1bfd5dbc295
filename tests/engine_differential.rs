//! Differential property of the staged engine: for every bundled
//! benchmark, the memoized pipeline, run alone or sharded over corpus
//! workers, must produce results **bit-identical** to the sequential
//! uncached path (the seed's monolithic entry point) — same baseline, same
//! derived constraints, same per-gate breakdown, same trace, same
//! iteration counts. The configuration matrix below covers the one reuse
//! switch (`cache`: the whole reuse stack vs the reference path), over
//! three passes per engine — cold, admitting (the cache stores what is
//! requested a second time) and warm — so no configuration can silently
//! diverge from the reference.

use std::time::Duration;

use si_redress::core::{CacheStats, Engine, EngineConfig, RelaxationOrder, Stage, StageMetrics};
use si_redress::prelude::*;

/// An engine whose `run_corpus` shards over `jobs` workers.
fn sharded(jobs: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        ..EngineConfig::default()
    })
}

#[test]
fn parallel_memoized_engine_is_bit_identical_to_the_sequential_uncached_path() {
    // One shared engine for the whole suite, its rows sharded over four
    // workers: the cache carries across circuits and workers, which is
    // exactly the configuration that must not leak state between
    // benchmarks. Three passes: cold, admitting and warm.
    let engine = sharded(4);
    for pass in ["cold", "admitting", "warm"] {
        let rows = si_redress::suite::run_corpus(&engine, &suite_manifest());
        assert_rows_match_the_reference(rows, RelaxationOrder::TightestFirst, pass);
    }
}

#[test]
fn every_reuse_layer_configuration_is_bit_identical_to_the_reference() {
    // The cache on and off, three passes each, every one compared against
    // the sequential uncached reference. The cache stores a graph on its
    // second request, so the second pass is the one that stores and the
    // third runs the all-hits path; memo bugs typically only bite there.
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let reference = derive_timing_constraints(&stg, &library).expect("derives");
        for cache in [false, true] {
            let config = EngineConfig {
                cache,
                ..EngineConfig::default()
            };
            let engine = Engine::new(config);
            for pass in ["cold", "admitting", "warm"] {
                let out = engine.run(&stg, &library).expect("derives");
                assert_eq!(
                    out.report, reference,
                    "{}: {pass} run diverged under {config:?}",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn reuse_layers_engage_on_a_warm_run() {
    // The matrix above proves the layers are *safe*; this pins that they
    // are *live* — a refactor that silently stops consulting the cache
    // would otherwise keep passing every differential. The cache stores a
    // graph on its second request, so the third run is the warm one.
    // Projection is not memoized: every run projects afresh.
    let bench = si_redress::suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    let (stg, library) = bench.circuit().expect("loads");
    let engine = Engine::new(EngineConfig::default());
    let cold = engine.run(&stg, &library).expect("derives");
    let admitting = engine.run(&stg, &library).expect("derives");
    assert_eq!(admitting.report, cold.report);
    let warm = engine.run(&stg, &library).expect("derives");
    assert_eq!(warm.report, cold.report);
    let project = warm.stage(Stage::Project).expect("ran");
    assert_eq!(engine.projection_stats(), CacheStats::default());
    let relax = warm.stage(Stage::Relax).expect("ran");
    assert!(
        relax.sg_cache_hits > 0,
        "a warm run must answer its trials from the state-graph cache: {relax:?}"
    );
    assert!(
        engine.cache_stats().hits >= project.sg_cache_hits + relax.sg_cache_hits,
        "engine-level state-graph counters must cover the warm run: {:?}",
        engine.cache_stats()
    );
    for stage in [project, relax] {
        assert_eq!(stage.sg_cache_misses, 0, "{stage:?}");
        assert_eq!(stage.states_explored, 0, "{stage:?}");
    }
    // Nothing memoizes the decompose stage: every run explores the
    // whole-STG graph, Table 7.2's 112 states.
    let decompose = warm.stage(Stage::Decompose).expect("ran");
    assert_eq!(decompose.states_explored, 112, "{decompose:?}");
}

/// The thirteen bundled benchmarks as manifest rows.
fn suite_manifest() -> Vec<si_redress::suite::CorpusEntry> {
    si_redress::suite::benchmarks()
        .iter()
        .map(|bench| bench.entry())
        .collect()
}

/// Asserts that `rows`, one per bundled benchmark in suite order, carry
/// exactly the reference path's report under `order`.
fn assert_rows_match_the_reference(
    rows: Vec<si_redress::suite::CorpusOutcome>,
    order: RelaxationOrder,
    run: &str,
) {
    assert_eq!(rows.len(), 13);
    for (row, bench) in rows.into_iter().zip(si_redress::suite::benchmarks()) {
        let row = row.expect("derives");
        let (stg, library) = bench.circuit().expect("loads");
        let reference = Engine::new(EngineConfig {
            order,
            ..EngineConfig::reference()
        })
        .run(&stg, &library)
        .expect("derives");
        assert_eq!(row.report.report, reference.report, "{}: {run}", row.name);
    }
}

#[test]
fn batch_entry_point_matches_per_circuit_runs() {
    let rows = si_redress::suite::run_corpus(&sharded(2), &suite_manifest());
    assert_rows_match_the_reference(rows, RelaxationOrder::TightestFirst, "two workers");
}

#[test]
fn memoization_pays_off_within_a_single_suite_pass() {
    // Admission on the second request: one suite pass stores only the
    // graphs it requests at least twice (a small minority: most trial
    // graphs are requested once), and a repeat pass stores the rest and
    // hits the repeats. A graph missed once when it was marked and once
    // more when it was stored, so after a pass `misses − entries` is the
    // number of distinct graphs it requested.
    let engine = Engine::new(EngineConfig::default());
    let pass = || {
        for row in si_redress::suite::run_corpus(&engine, &suite_manifest()) {
            row.expect("derives");
        }
        engine.cache_stats()
    };
    let one = pass();
    let distinct = one.misses - one.entries;
    assert!(
        one.entries > 0 && 2 * one.entries < distinct,
        "one pass must store its repeated graphs and only those: {one:?}"
    );
    let two = pass();
    assert!(two.hits > one.hits, "a repeat pass must hit: {two:?}");
    assert_eq!(
        two.misses - one.misses,
        distinct - one.entries,
        "the repeat pass computes exactly the graphs the first did not store: {two:?}"
    );
    assert_eq!(two.entries, distinct, "{two:?}");
    let three = pass();
    assert_eq!(
        three.misses, two.misses,
        "the third pass is all hits: {three:?}"
    );
}

#[test]
fn relaxation_order_is_respected_under_parallel_fanout() {
    // The suite's rows fanned out over four workers: every shard must
    // relax in the engine's order.
    for order in [
        RelaxationOrder::TightestFirst,
        RelaxationOrder::Lexicographic,
    ] {
        let engine = Engine::new(EngineConfig {
            jobs: 4,
            order,
            ..EngineConfig::default()
        });
        let rows = si_redress::suite::run_corpus(&engine, &suite_manifest());
        assert_rows_match_the_reference(rows, order, &format!("{order:?}"));
    }
}

#[test]
fn engine_report_metrics_are_coherent() {
    // The stage records are the sums of the gate records, counter by
    // counter, under every engine configuration, over a cold, an
    // admitting and a warm pass.
    let bench = si_redress::suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    let (stg, library) = bench.circuit().expect("loads");
    for cache in [false, true] {
        let config = EngineConfig {
            cache,
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        for pass in ["cold", "admitting", "warm"] {
            let out = engine.run(&stg, &library).expect("derives");
            assert_eq!(out.gates.len(), out.report.per_gate.len());
            let gate_iterations: usize = out.gates.iter().map(|g| g.iterations).sum();
            assert_eq!(gate_iterations, out.report.iterations);
            for stage in [Stage::Project, Stage::Relax] {
                let parts: Vec<&StageMetrics> = out
                    .gates
                    .iter()
                    .map(|g| match stage {
                        Stage::Project => &g.project,
                        _ => &g.relax,
                    })
                    .collect();
                assert!(parts.iter().all(|part| part.stage == stage));
                let reported = out.stage(stage).expect("ran");
                let wall: Duration = parts.iter().map(|part| part.wall).sum();
                assert_eq!(wall, reported.wall);
                for (i, (name, value)) in reported.counters().into_iter().enumerate() {
                    let total: usize = parts.iter().map(|part| part.counters()[i].1).sum();
                    assert_eq!(total, value, "{stage:?} {name}, {pass}, {config:?}");
                }
            }
            let project = out.stage(Stage::Project).expect("ran");
            assert!(
                project.sg_cache_misses + project.sg_cache_hits > 0,
                "the conformance pre-check generates SGs in the project stage: {project:?}"
            );
            // The decompose stage explores the Table 7.2 state count
            // on every run.
            assert_eq!(
                out.stage(Stage::Decompose).expect("ran").states_explored,
                112,
                "{pass}, {config:?}"
            );
            assert_eq!(out.report.state_count, 112);
        }
    }
}
