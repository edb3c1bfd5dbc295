//! Criterion benches for the end-to-end constraint derivation — the
//! polynomial-complexity claim of thesis Sec. 5.6.1, measured per
//! benchmark circuit, plus an ablation of the relaxation-order policy
//! (tightest-first vs the arc picked by naive label order — Fig. 5.23's
//! point that order changes the work done) and the staged-engine
//! configurations (cache, parallel fan-out) against the seed path.
//!
//! Circuits that fail to load PANIC with the circuit name — a broken
//! bundled benchmark must fail the bench run loudly, never shrink it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use si_core::{derive_timing_constraints, Engine, EngineConfig};

/// Loads a benchmark circuit or panics with its name: the benches must
/// never silently skip a broken circuit.
fn load(bench: &si_suite::Benchmark) -> (si_stg::Stg, si_boolean::GateLibrary) {
    bench
        .circuit()
        .unwrap_or_else(|e| panic!("benchmark `{}` failed to load: {e}", bench.name))
}

fn bench_derivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("derive_timing_constraints");
    group.sample_size(10);
    for bench in si_suite::benchmarks() {
        let (stg, library) = load(&bench);
        group.bench_function(bench.name, |b| {
            b.iter_batched(
                || (stg.clone(), library.clone()),
                |(stg, library)| derive_timing_constraints(&stg, &library).expect("derives"),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_engine_configs(c: &mut Criterion) {
    // The refactor's measurable effects on the gold circuit: sequential
    // uncached (the seed path), sequential with a warm shared cache, and
    // the parallel fan-out.
    let bench = si_suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    let (stg, library) = load(&bench);
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("sequential_uncached", |b| {
        b.iter(|| {
            Engine::new(EngineConfig::reference())
                .run(&stg, &library)
                .expect("derives")
                .report
                .constraints
                .len()
        })
    });
    // Two priming runs: the caches store a graph on its second request.
    let warm = Engine::new(EngineConfig::default());
    for _ in 0..2 {
        warm.run(&stg, &library).expect("derives");
    }
    group.bench_function("sequential_warm_cache", |b| {
        b.iter(|| {
            warm.run(&stg, &library)
                .expect("derives")
                .report
                .constraints
                .len()
        })
    });
    let parallel = Engine::new(EngineConfig::parallel(0));
    group.bench_function("parallel_cold_cache", |b| {
        b.iter(|| {
            parallel.clear_cache();
            parallel
                .run(&stg, &library)
                .expect("derives")
                .report
                .constraints
                .len()
        })
    });
    group.finish();
}

fn bench_baseline_only(c: &mut Criterion) {
    // The baseline (Keller et al.) set needs only projection, no
    // relaxation loop: the gap to the full derivation is the cost of the
    // paper's contribution.
    let mut group = c.benchmark_group("baseline_projection_only");
    group.sample_size(10);
    for name in ["imec-ram-read-sbuf", "fifo", "trimos-send"] {
        let bench = si_suite::benchmark(name).expect("bundled");
        let (stg, library) = load(&bench);
        group.bench_function(name, |b| {
            b.iter(|| {
                let components = stg.mg_components(4096).expect("free choice");
                let mut count = 0usize;
                for a in stg.gate_signals() {
                    let gate = library.gate(stg.signal_name(a)).expect("present");
                    let ctx = si_core::GateContext::bind(gate, &stg).expect("binds");
                    for component in &components {
                        if let Ok(local) = si_core::LocalStg::project_from(component, &ctx) {
                            count += local.input_to_input_arcs().len();
                        }
                    }
                }
                count
            })
        });
    }
    group.finish();
}

fn bench_order_ablation(c: &mut Criterion) {
    // Sec. 5.5 ablation: cost of the two relaxation-order policies.
    use si_core::{derive_timing_constraints_with_order, RelaxationOrder};
    let mut group = c.benchmark_group("relaxation_order");
    group.sample_size(10);
    let bench = si_suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    let (stg, library) = load(&bench);
    for (name, order) in [
        ("tightest_first", RelaxationOrder::TightestFirst),
        ("lexicographic", RelaxationOrder::Lexicographic),
        ("contraction_first", RelaxationOrder::ContractionFirst),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                derive_timing_constraints_with_order(&stg, &library, order)
                    .expect("derives")
                    .constraints
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_relax_sched(c: &mut Criterion) {
    // The trial scheduler's payoff on the canonical diverging specimen
    // (seed 189, gate `o2`): the old harness answer — exhaust a clamped
    // 400-iteration budget — against the scheduler's watchdog bail-out at
    // the real default budget. Both runs end in an error by design; the
    // measurement is the wall clock to reach the deterministic verdict.
    use si_core::DivergencePolicy;
    use si_corpus::{generate, CorpusSpec};
    let spec = CorpusSpec::from_seed(189, 12);
    let circuit = generate(&spec, 189);
    let library = si_synth::synthesize(&circuit.stg, EngineConfig::default().global_sg_budget)
        .expect("seed 189 synthesizes");
    let mut group = c.benchmark_group("relax_sched");
    group.sample_size(10);
    group.bench_function("seed189_exhaust_budget400", |b| {
        let engine = Engine::new(EngineConfig {
            expand_budget: 400,
            divergence_policy: DivergencePolicy::Exhaust,
            ..EngineConfig::default()
        });
        b.iter(|| engine.run(&circuit.stg, &library).expect_err("exhausts"))
    });
    group.bench_function("seed189_scheduler_bail", |b| {
        let engine = Engine::new(EngineConfig::default());
        b.iter(|| engine.run(&circuit.stg, &library).expect_err("diverges"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_derivation,
    bench_engine_configs,
    bench_baseline_only,
    bench_order_ablation,
    bench_relax_sched
);
criterion_main!(benches);
