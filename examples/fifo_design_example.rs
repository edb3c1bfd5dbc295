//! The thesis Ch. 7.1 design example, end to end: the FIFO latch
//! controller with its explicit delay line, the derived Table 7.1
//! constraints with their wire-vs-adversary-path readings, the Sec. 5.7
//! padding plan, and a timing-simulation demonstration that a violated
//! constraint glitches while the padded circuit runs clean.
//!
//! Run with `cargo run --example fifo_design_example`.

use si_redress::core::{plan_padding, AdversaryOracle, TraceEvent};
use si_redress::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = si_redress::suite::benchmark("fifo").expect("bundled");
    let (stg, library) = bench.circuit()?;
    println!(
        "FIFO latch controller: {} signals, gates:",
        stg.signal_count()
    );
    for gate in &library.gates {
        println!("  {} = {}", gate.output, gate.up.display(&gate.vars));
    }

    let report = derive_timing_constraints(&stg, &library)?;
    let oracle = AdversaryOracle::new(&stg);
    println!(
        "\n{} baseline orderings relied on the isochronic fork; {} constraints remain:",
        report.baseline.len(),
        report.constraints.len()
    );
    for c in &report.constraints {
        match oracle.path_of(c) {
            Some(p) if p.through_env => println!("  {c}   [crosses ENV: fulfilled]"),
            Some(p) => {
                let hops: Vec<String> = p.hops.iter().map(|&h| stg.label_string(h)).collect();
                println!("  {c}   [adversary: {}]", hops.join(" => "));
            }
            None => println!("  {c}"),
        }
    }

    // The relaxation narrative of Fig. 7.3 for gate g0 (the done detector).
    println!("\nrelaxation steps touching gate g0:");
    for event in &report.trace {
        match event {
            TraceEvent::Relaxed { gate, arc, case } if gate == "g0" => {
                println!("  relax {arc}: case {case}");
            }
            TraceEvent::Decomposed { gate, parts } if gate == "g0" => {
                println!("  OR-causality decomposition into {parts} sub-STGs");
            }
            _ => {}
        }
    }

    // Padding per Sec. 5.7 for the strong constraints.
    let plan = plan_padding(&oracle, &report.constraints, 5);
    println!(
        "\npadding plan ({} strong constraints):",
        plan.entries.len()
    );
    for (c, pos) in &plan.entries {
        println!("  {c}  ->  {pos:?}");
    }

    // Demonstration: break the `g0: d- < l+` race, watch the glitch, then
    // pad the adversary (gate l) and watch it disappear.
    let mut broken = DelayModel::uniform(40.0, 2.0, 80.0);
    broken.set_wire("d", "g0", 3000.0);
    let glitchy = simulate(&stg, &library, &broken, 400)?;
    println!(
        "\nwith a 3 ns skew on the d -> g0 branch: {} glitch(es) at g0",
        glitchy.glitches.iter().filter(|g| g.gate == "g0").count()
    );

    let mut padded = broken.clone();
    padded.set_gate("l", 3200.0);
    let clean = simulate(&stg, &library, &padded, 400)?;
    println!(
        "after padding the adversary path (gate l): {} glitch(es) at g0",
        clean.glitches.iter().filter(|g| g.gate == "g0").count()
    );
    Ok(())
}
