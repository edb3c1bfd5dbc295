//! Regenerates thesis Table 7.2: for all thirteen benchmarks, the number
//! of timing constraints before relaxation (the Keller-et-al. adversary
//! path conditions), after relaxation, the `≤5`- and `≤3`-level buckets,
//! the implementation-STG state count and the CPU time; the bottom line is
//! the total after/before ratio — the paper's headline ≈40 % reduction.
//!
//! All rows run through **one shared engine** (parallel per-gate fan-out,
//! state-graph cache shared across circuits); footers compare the
//! engine's wall-clock against the seed's sequential uncached path, the
//! cold-pass effect of σ-space exploration, and the warm-path effect of
//! the projection memo on top of the state-graph and conformance caches.
//!
//! `--json [PATH]` additionally writes the whole run — rows, per-stage
//! wall times, cache-tier traffic, cold/warm suite totals — as one JSON
//! object (default `BENCH_table72.json`), so future changes diff perf
//! machine-readably instead of quoting footer text.

use std::time::{Duration, Instant};

use si_bench::table_row_report;
use si_core::{derive_timing_constraints, Engine, EngineConfig, EngineReport, StageMetrics};

/// The PR 3 warm full-suite wall-clock this PR optimizes against
/// (microseconds); kept in the JSON so the ratio is self-describing.
const PR3_WARM_BASELINE_US: u64 = 6800;

fn json_str(s: &str) -> String {
    format!("\"{}\"", si_lint::json_escape(s))
}

/// The per-stage metrics of one engine run as a JSON fragment.
fn report_json(out: &EngineReport) -> String {
    let stages: Vec<String> = out.stages.iter().map(StageMetrics::json).collect();
    format!(
        "\"total_wall_us\":{},\"fanout_wall_us\":{},\"stages\":[{}]",
        out.total_wall.as_micros(),
        out.fanout_wall.as_micros(),
        stages.join(",")
    )
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(
                    args.next()
                        .unwrap_or_else(|| "BENCH_table72.json".to_string()),
                );
            }
            other => {
                eprintln!("table_7_2: unknown argument `{other}` (expected `--json [PATH]`)");
                std::process::exit(3);
            }
        }
    }

    let engine = Engine::new(EngineConfig::parallel(0));
    println!("Table 7.2 — Comparison of the timing constraints");
    println!(
        "{:<20} {:>3} {:>4} {:>5} {:>7} | {:>7} {:>6} | {:>8} {:>7} | {:>8} {:>7} | {:>8}",
        "Name",
        "in",
        "out",
        "gate",
        "states",
        "adv.bef",
        "adv.aft",
        "<=5.bef",
        "<=5.aft",
        "<=3.bef",
        "<=3.aft",
        "CPU(s)"
    );
    let (mut tb, mut ta) = (0usize, 0usize);
    let (mut t5b, mut t5a, mut t3b, mut t3a) = (0usize, 0usize, 0usize, 0usize);
    let mut row_objects: Vec<String> = Vec::new();
    let engine_started = Instant::now();
    for bench in si_suite::benchmarks() {
        match table_row_report(&engine, &bench) {
            Ok((row, out)) => {
                tb += row.before;
                ta += row.after;
                t5b += row.lvl5.0;
                t5a += row.lvl5.1;
                t3b += row.lvl3.0;
                t3a += row.lvl3.1;
                println!(
                    "{:<20} {:>3} {:>4} {:>5} {:>7} | {:>7} {:>6} | {:>8} {:>7} | {:>8} {:>7} | {:>8.3}",
                    row.name, row.inputs, row.outputs, row.gates, row.states, row.before,
                    row.after, row.lvl5.0, row.lvl5.1, row.lvl3.0, row.lvl3.1, row.cpu
                );
                row_objects.push(format!(
                    "{{\"name\":{},\"inputs\":{},\"outputs\":{},\"gates\":{},\"states\":{},\"before\":{},\"after\":{},\"lvl5_before\":{},\"lvl5_after\":{},\"lvl3_before\":{},\"lvl3_after\":{},\"cpu_seconds\":{:.6},{}}}",
                    json_str(&row.name),
                    row.inputs,
                    row.outputs,
                    row.gates,
                    row.states,
                    row.before,
                    row.after,
                    row.lvl5.0,
                    row.lvl5.1,
                    row.lvl3.0,
                    row.lvl3.1,
                    row.cpu,
                    report_json(&out),
                ));
            }
            Err(e) => println!("{:<20} ERROR: {e}", bench.name),
        }
    }
    println!();
    let pct = |a: usize, b: usize| {
        if b == 0 {
            100.0
        } else {
            100.0 * a as f64 / b as f64
        }
    };
    println!(
        "Total ratio after/before = {:.1}%   (<=5 level: {:.1}%, <=3 level: {:.1}%)",
        pct(ta, tb),
        pct(t5a, t5b),
        pct(t3a, t3b),
    );
    println!("Thesis totals for reference: 63.9% (all), 60.0% (<=5), 57.5% (<=3)");

    let engine_wall = engine_started.elapsed();
    let cache = engine.cache_stats();
    let projections = engine.projection_stats();
    let conformance = engine.conformance_stats();
    println!();
    let jobs = match engine.config().jobs {
        0 => format!(
            "auto ({})",
            std::thread::available_parallelism().map_or(1, usize::from)
        ),
        n => n.to_string(),
    };
    println!(
        "Engine: {jobs} jobs, SG cache {} hits / {} misses ({:.0}% hit rate, {} entries), \
         conformance cache {} hits / {} misses ({} entries)",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_ratio(),
        cache.entries,
        conformance.hits,
        conformance.misses,
        conformance.entries,
    );

    // The before/after comparison of the refactor: the same thirteen
    // rows through the seed's sequential uncached path — including the
    // constraint-level classification the engine loop pays for, so both
    // sides measure the same load + derive + classify scope. A circuit
    // that fails to load or derive panics with its name — a partial seed
    // run would make the ratio below apples-to-oranges.
    let seed_started = Instant::now();
    for bench in si_suite::benchmarks() {
        let (stg, library) = bench
            .circuit()
            .unwrap_or_else(|e| panic!("benchmark `{}` failed to load: {e}", bench.name));
        let report = derive_timing_constraints(&stg, &library)
            .unwrap_or_else(|e| panic!("benchmark `{}` failed to derive: {e}", bench.name));
        let oracle = si_core::AdversaryOracle::new(&stg);
        for level in [5u32, 3] {
            std::hint::black_box(report.constraints_within_level(
                &report.baseline,
                &oracle,
                &stg,
                level,
            ));
            std::hint::black_box(report.constraints_within_level(
                &report.constraints,
                &oracle,
                &stg,
                level,
            ));
        }
    }
    let seed_wall = seed_started.elapsed();
    println!(
        "Suite wall-clock: engine {engine_wall:.2?} vs seed sequential {seed_wall:.2?} ({:.2}x)",
        seed_wall.as_secs_f64() / engine_wall.as_secs_f64().max(1e-9),
    );

    // Cold pass: a fresh engine's first full-suite run, classic marking
    // keys vs σ (firing count vector) keys — this PR's cold-side change.
    let cold_suite = |config: EngineConfig| -> Duration {
        let engine = Engine::new(config);
        let started = Instant::now();
        si_suite::run_suite(&engine).unwrap_or_else(|e| panic!("cold pass failed: {e}"));
        started.elapsed()
    };
    let cold_classic = cold_suite(EngineConfig {
        sigma_cold: false,
        ..EngineConfig::default()
    });
    let cold_sigma = cold_suite(EngineConfig::default());
    println!(
        "Cold suite: marking-keyed {cold_classic:.2?} vs sigma-keyed {cold_sigma:.2?} ({:.2}x)",
        cold_classic.as_secs_f64() / cold_sigma.as_secs_f64().max(1e-9),
    );

    // The projection memo's marginal win on the *warm* path: the state-graph
    // and conformance caches alone against the full stack. Each engine is
    // primed by one cold suite pass, then timed warm.
    let warm_suite = |config: EngineConfig| -> Duration {
        let engine = Engine::new(config);
        si_suite::run_suite(&engine).unwrap_or_else(|e| panic!("priming pass failed: {e}"));
        let started = Instant::now();
        si_suite::run_suite(&engine).unwrap_or_else(|e| panic!("warm pass failed: {e}"));
        started.elapsed()
    };
    let no_memo_warm = warm_suite(EngineConfig {
        memo_projection: false,
        ..EngineConfig::default()
    });
    let full_warm = warm_suite(EngineConfig::default());
    println!(
        "Warm suite: without projection memo {no_memo_warm:.2?} vs full reuse {full_warm:.2?} ({:.2}x)",
        no_memo_warm.as_secs_f64() / full_warm.as_secs_f64().max(1e-9),
    );
    println!(
        "Warm suite vs PR 3 baseline ({:.1} ms): {full_warm:.2?} ({:.2}x)",
        PR3_WARM_BASELINE_US as f64 / 1000.0,
        PR3_WARM_BASELINE_US as f64 / 1e6 / full_warm.as_secs_f64().max(1e-9),
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\"table\":\"7.2\",\"jobs\":{},\"rows\":[{}],\"totals\":{{\"before\":{tb},\"after\":{ta},\"ratio_pct\":{:.1},\"lvl5_pct\":{:.1},\"lvl3_pct\":{:.1}}},\"cache\":{},\"projections\":{},\"conformance\":{},\"suite\":{{\"engine_wall_us\":{},\"seed_wall_us\":{},\"cold_classic_us\":{},\"cold_sigma_us\":{},\"warm_no_memo_us\":{},\"warm_full_us\":{},\"pr3_warm_baseline_us\":{PR3_WARM_BASELINE_US},\"warm_vs_pr3\":{:.2}}}}}",
            engine.config().jobs,
            row_objects.join(","),
            pct(ta, tb),
            pct(t5a, t5b),
            pct(t3a, t3b),
            cache.json(),
            projections.json(),
            conformance.json(),
            engine_wall.as_micros(),
            seed_wall.as_micros(),
            cold_classic.as_micros(),
            cold_sigma.as_micros(),
            no_memo_warm.as_micros(),
            full_warm.as_micros(),
            PR3_WARM_BASELINE_US as f64 / 1e6 / full_warm.as_secs_f64().max(1e-9),
        );
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("table_7_2: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        println!("Wrote {path}");
    }
}
