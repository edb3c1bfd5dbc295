//! Deep-submicron error-rate study (thesis Sec. 7.2): how likely is an
//! isochronic-fork failure for the FIFO's derived constraints across
//! technology nodes, die sizes and fork constructions, using the Davis
//! interconnect-length distribution.
//!
//! Run with `cargo run --example error_rate_study`.

use si_redress::prelude::*;
use si_redress::sim::{
    circuit_error_rate, constraint_error_rate, ErrorRateConfig, ForkStyle, WireLengthDistribution,
    NODES,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = si_redress::suite::benchmark("fifo").expect("bundled");
    let (stg, library) = bench.circuit()?;
    let report = derive_timing_constraints(&stg, &library)?;
    let oracle = si_redress::core::AdversaryOracle::new(&stg);

    // Gate counts of the strong adversary paths.
    let gates: Vec<u32> = report
        .constraints
        .iter()
        .filter_map(|c| oracle.path_of(c))
        .filter(|path| !path.through_env)
        .map(|path| path.gates)
        .collect();
    println!("strong constraints and their adversary depths: {gates:?}\n");

    let dist = WireLengthDistribution::with_defaults(1_000_000);
    println!("wire-length distribution on a 1M-gate die:");
    for l in [10.0, 50.0, 200.0, 800.0] {
        println!(
            "  P(length > {l:>5} pitches) = {:.4}",
            dist.probability_longer_than(l)
        );
    }

    println!("\nper-constraint and circuit error rates:");
    println!(
        "{:<8} {:>12} {:>12} {:>12}",
        "node", "ER(1 gate)", "circuit", "buf-1"
    );
    for tech in NODES {
        let config = ErrorRateConfig::new(1_000_000, ForkStyle::Unbuffered);
        let single = constraint_error_rate(&tech, &config, 1);
        let circuit = circuit_error_rate(&tech, &config, &gates);
        let buffered = circuit_error_rate(
            &tech,
            &ErrorRateConfig::new(1_000_000, ForkStyle::BufferedDirect),
            &gates,
        );
        println!(
            "{:>5}nm {:>11.3}% {:>11.2}% {:>11.2}%",
            tech.node_nm,
            100.0 * single,
            100.0 * circuit,
            100.0 * buffered
        );
    }
    Ok(())
}
