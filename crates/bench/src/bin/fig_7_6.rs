//! Regenerates thesis Fig. 7.6: circuit error rate versus die scale
//! (0.5 M → 4 M gates) at the 90 nm node, `un-buf` and `buf-1` series.
//! The derivation runs through the staged [`Engine`], like the table
//! binaries.

use si_bench::strong_constraint_gates;
use si_core::Engine;
use si_sim::{circuit_error_rate, ErrorRateConfig, ForkStyle, NODES};

fn main() {
    let bench = si_suite::benchmark("fifo").expect("bundled");
    let (stg, library) = bench.circuit().expect("loads");
    let engine = Engine::default();
    let out = engine.run(&stg, &library).expect("derives");
    let report = &out.report;
    let gates = strong_constraint_gates(&stg, report);
    let tech = NODES[0]; // 90 nm

    println!(
        "Fig. 7.6 — error rate vs scale at 90nm ({} strong constraints)",
        gates.len()
    );
    println!("{:<10} {:>10} {:>10}", "gates", "un-buf", "buf-1");
    for n in [500_000u64, 1_000_000, 2_000_000, 4_000_000] {
        let unbuf = circuit_error_rate(
            &tech,
            &ErrorRateConfig::new(n, ForkStyle::Unbuffered),
            &gates,
        );
        let buf = circuit_error_rate(
            &tech,
            &ErrorRateConfig::new(n, ForkStyle::BufferedDirect),
            &gates,
        );
        println!(
            "{:>7}k {:>9.2}% {:>9.2}%",
            n / 1000,
            100.0 * unbuf,
            100.0 * buf
        );
    }
    println!("\nExpected shape (thesis): error rate grows with the gate count.");
}
