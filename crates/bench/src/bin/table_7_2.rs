//! Regenerates thesis Table 7.2: for all thirteen benchmarks, the number
//! of timing constraints before relaxation (the Keller-et-al. adversary
//! path conditions), after relaxation, the `≤5`- and `≤3`-level buckets,
//! the implementation-STG state count and the CPU time; the bottom line is
//! the total after/before ratio — the paper's headline ≈40 % reduction.
//!
//! All rows run through **one shared engine** (the default configuration,
//! its reuse stack shared across circuits); the footer reports its cache
//! traffic. The CPU column is one run of the row from `.g` text to report
//! through the text front end (`si_suite::run_corpus_entry`: lint, parse,
//! synthesis, validation, derivation); repeated timing lives in
//! `perfbench/`.
//!
//! `--json [PATH]` additionally writes the whole run — rows with their
//! stage and gate metrics (the front end's lint, parse and validate
//! stages first), totals, state-graph cache traffic — as one JSON object
//! (default `BENCH_table72.json`).

use si_bench::table_row;
use si_core::Engine;

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

    let engine = Engine::default();
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
    for bench in si_suite::benchmarks() {
        match table_row(&engine, &bench) {
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
                    "{{\"name\":\"{}\",\"inputs\":{},\"outputs\":{},\"gates\":{},\"states\":{},\"before\":{},\"after\":{},\"lvl5_before\":{},\"lvl5_after\":{},\"lvl3_before\":{},\"lvl3_after\":{},\"cpu_seconds\":{:.6},\"metrics\":{{{}}}}}",
                    si_stg::sexp::escape(&row.name),
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
                    out.metrics_json(),
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

    let cache = engine.cache_stats();
    println!();
    println!(
        "Engine: SG cache {} hits / {} misses ({:.0}% hit rate, {} entries); \
         the cache stores a graph on its second request",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_ratio(),
        cache.entries,
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\"table\":\"7.2\",\"rows\":[{}],\"totals\":{{\"before\":{tb},\"after\":{ta},\"ratio_pct\":{:.1},\"lvl5_pct\":{:.1},\"lvl3_pct\":{:.1}}},\"cache\":{}}}",
            row_objects.join(","),
            pct(ta, tb),
            pct(t5a, t5b),
            pct(t3a, t3b),
            cache.json(),
        );
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("table_7_2: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        println!("Wrote {path}");
    }
}
