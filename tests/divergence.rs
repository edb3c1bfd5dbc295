//! Divergence determinism: the covering ledger's `Diverged` verdict is a
//! *semantic* output, so it must be bit-identical — same gate, same sign,
//! same iteration, same covered iteration, same growing arcs — across
//! every engine configuration, over cold, admitting and warm runs, exactly
//! like the constraint sets are. And on circuits that do converge, the
//! ledger must be invisible: ledger-on output ≡ ledger-off output on all
//! bundled benchmarks, the corpus golden fixtures and the one converging
//! corpus row that ever puts two tokens on an arc.

use proptest::prelude::*;
use si_redress::core::{CoreError, DivergencePolicy, Engine, EngineConfig};
use si_redress::corpus::{generate, strategies, CorpusSpec, PINNED_FIXTURES};
use si_redress::synth::synthesize;

/// The canonical diverging specimen: seed 189 (`corpus-000000bd`), whose
/// gate `o2` never converges.
fn seed_189() -> (si_redress::stg::Stg, si_redress::boolean::GateLibrary) {
    let spec = CorpusSpec::from_seed(189, 12);
    let circuit = generate(&spec, 189);
    let library = synthesize(&circuit.stg, EngineConfig::default().global_sg_budget)
        .expect("seed 189 synthesizes");
    (circuit.stg, library)
}

#[test]
fn seed_189_verdict_is_identical_across_the_differential_matrix() {
    let (stg, library) = seed_189();
    // The ledger bails at iteration 67, so the whole matrix stays
    // affordable in debug builds. (The verdict's rendering and its
    // sub-second wall clock are pinned by the golden suite.)
    let expected = Engine::new(EngineConfig::default())
        .run(&stg, &library)
        .expect_err("seed 189 must diverge");
    assert!(
        matches!(&expected, CoreError::Diverged { gate, witness }
            if gate == "o2" && witness.iteration == 67),
        "got: {expected}"
    );
    for cache in [false, true] {
        for jobs in [1usize, 4] {
            let config = EngineConfig {
                cache,
                jobs,
                ..EngineConfig::default()
            };
            // The cache stores a graph on its second request: the second
            // run stores what the first one marked, and the third is warm.
            let engine = Engine::new(config);
            for pass in ["cold", "admitting", "warm"] {
                let err = engine.run(&stg, &library).expect_err("diverges");
                assert_eq!(err, expected, "{pass} run diverged under {config:?}");
            }
        }
    }
}

#[test]
fn scheduler_on_equals_scheduler_off_on_all_converging_circuits() {
    // On every bundled benchmark and corpus golden fixture the loop
    // converges, so Bail vs Exhaust must be indistinguishable — the
    // ledger may only ever change the outcome of a diverging gate. So
    // does corpus seed 822 at 12 signals, the one corpus row that puts a
    // second token on an arc (at iteration 235) and then converges: the
    // ledger must not mistake it for a pump.
    let bail = Engine::new(EngineConfig::default());
    assert_eq!(
        bail.config().divergence_policy,
        DivergencePolicy::Bail,
        "the engine default must be the bail-out policy"
    );
    let exhaust = Engine::new(EngineConfig {
        divergence_policy: DivergencePolicy::Exhaust,
        ..EngineConfig::default()
    });
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let on = bail.run(&stg, &library).expect("derives");
        let off = exhaust.run(&stg, &library).expect("derives");
        assert_eq!(on.report, off.report, "{}", bench.name);
        // The ledger was live (it observed every iteration) even though
        // nothing tripped.
        if on.report.iterations > 0 {
            let relax: usize = on.gates.iter().map(|g| g.relax.sched_fingerprints).sum();
            assert!(relax > 0, "{}: ledger never observed", bench.name);
        }
        let off_sched: usize = off.gates.iter().map(|g| g.relax.sched_fingerprints).sum();
        assert_eq!(
            off_sched, 0,
            "{}: exhaust policy must not fingerprint",
            bench.name
        );
    }
    let near_miss = ("seed 822", CorpusSpec::from_seed(822, 12), 822);
    for (_, spec, seed) in PINNED_FIXTURES.into_iter().chain([near_miss]) {
        let circuit = generate(&spec, seed);
        let library = synthesize(&circuit.stg, EngineConfig::default().global_sg_budget)
            .expect("fixture synthesizes");
        let on = bail.run(&circuit.stg, &library).expect("derives");
        let off = exhaust.run(&circuit.stg, &library).expect("derives");
        assert_eq!(on.report, off.report, "corpus fixture seed {seed}");
    }
}

#[test]
fn exhaust_policy_keeps_the_historical_budget_semantics() {
    // `derive_timing_constraints` runs under `EngineConfig::reference()`,
    // whose policy is Exhaust: it must keep the historical
    // burn-the-budget behaviour, erroring with the budget rather than a
    // divergence verdict. Pinned at the old 400-iteration harness cap —
    // the default 20 000 budget is exactly the hours-long tarpit the
    // ledger exists to avoid.
    let (stg, library) = seed_189();
    let config = EngineConfig {
        expand_budget: 400,
        ..EngineConfig::reference()
    };
    assert_eq!(config.divergence_policy, DivergencePolicy::Exhaust);
    let err = Engine::new(config)
        .run(&stg, &library)
        .expect_err("never converges");
    assert!(
        matches!(err, CoreError::IterationBudgetExceeded { .. }),
        "the exhaust policy must burn the budget, got: {err}"
    );
}

#[test]
fn an_exhausting_gate_does_not_fill_the_cache() {
    // Corpus seed 156 at 10 signals pumps tokens into gate `o2`: every
    // trial asks for a new, larger state graph, once. Under `Exhaust` the
    // loop burns its whole budget, and a cache that stored every graph on
    // its first request held 759 of them after 500 iterations (693 MB of
    // resident memory after 2 000). Admission on the second request keeps
    // almost none.
    let spec = CorpusSpec::from_seed(156, 10);
    let circuit = generate(&spec, 156);
    let library = synthesize(&circuit.stg, EngineConfig::default().global_sg_budget)
        .expect("seed 156 synthesizes");
    let engine = Engine::new(EngineConfig {
        divergence_policy: DivergencePolicy::Exhaust,
        expand_budget: 500,
        ..EngineConfig::default()
    });
    let err = engine
        .run(&circuit.stg, &library)
        .expect_err("never converges");
    assert!(
        matches!(&err, CoreError::IterationBudgetExceeded { gate, .. } if gate == "o2"),
        "got: {err}"
    );
    let stats = engine.cache_stats();
    assert!(stats.entries <= 2, "{stats:?}");
}

#[test]
fn si_fuzz_audits_every_bail_under_exhaust() {
    // Corpus seed 387 at 12 signals bails as a token pump at iteration
    // 15. The fuzz scan re-runs it under `Exhaust` for 1000 iterations,
    // where it does not converge either: one audit, no fault.
    let artifact = std::env::temp_dir().join(format!(
        "si-redress-divergence-{}-si_fuzz_failure.txt",
        std::process::id()
    ));
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_si_fuzz"))
        .args(["--start", "387", "--seeds", "1", "--max-signals", "12"])
        .arg("--artifact")
        .arg(&artifact)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("audited 1 bails under Exhaust (1000 iterations): 0 converged"),
        "{stdout}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random corpus circuits: whatever the verdict — convergence,
    /// divergence or any other error — it must be payload-identical
    /// across cache/parallel configs, over a cold, an admitting and a warm
    /// run.
    #[test]
    fn random_circuits_agree_on_the_verdict_across_configurations(
        (spec, seed) in strategies::corpus_case()
    ) {
        let circuit = generate(&spec, seed);
        let budget = EngineConfig::default().global_sg_budget;
        let Ok(library) = synthesize(&circuit.stg, budget) else {
            // Interleaved specs may lack CSC; generation validity is
            // pinned elsewhere.
            return Ok(());
        };
        let configs = [
            EngineConfig::default(),
            EngineConfig {
                divergence_policy: DivergencePolicy::Bail,
                ..EngineConfig::reference()
            },
            EngineConfig::parallel(4),
        ];
        let render = |r: &Result<si_redress::core::EngineReport, CoreError>| match r {
            Ok(out) => format!("ok|{:?}|{:?}", out.report.constraints, out.report.trace),
            Err(e) => format!("err|{e}"),
        };
        let engine = Engine::new(configs[0]);
        let expected = render(&engine.run(&circuit.stg, &library));
        // An admitting run, then a warm one.
        for _ in 0..2 {
            let again = render(&engine.run(&circuit.stg, &library));
            prop_assert_eq!(&again, &expected);
        }
        for config in &configs[1..] {
            let cold = render(&Engine::new(*config).run(&circuit.stg, &library));
            prop_assert_eq!(&cold, &expected);
        }
    }
}
