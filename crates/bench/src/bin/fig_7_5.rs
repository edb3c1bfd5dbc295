//! Regenerates thesis Fig. 7.5: circuit error rate versus technology node
//! (90 → 32 nm) on a one-million-gate die, for the unbuffered fork
//! (`un-buf`) and the fork with one repeater on the direct wire (`buf-1`).
//! The constraint set is the FIFO's, as in the thesis simulation. The
//! derivation runs through the staged [`Engine`], like the table
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
    println!(
        "Fig. 7.5 — error rate vs technology ({} strong constraints, 1M gates)",
        gates.len()
    );
    println!("{:<8} {:>10} {:>10}", "node", "un-buf", "buf-1");
    for tech in NODES {
        let unbuf = circuit_error_rate(
            &tech,
            &ErrorRateConfig::new(1_000_000, ForkStyle::Unbuffered),
            &gates,
        );
        let buf = circuit_error_rate(
            &tech,
            &ErrorRateConfig::new(1_000_000, ForkStyle::BufferedDirect),
            &gates,
        );
        println!(
            "{:>5}nm {:>9.2}% {:>9.2}%",
            tech.node_nm,
            100.0 * unbuf,
            100.0 * buf
        );
    }
    println!("\nExpected shape (thesis): both series rise as the node shrinks;");
    println!("buf-1 lies above un-buf at every node.");
}
