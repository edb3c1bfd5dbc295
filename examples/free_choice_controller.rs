//! Free-choice STGs end to end: the `nowick` benchmark lets its
//! environment choose between two bursts, so its STG has a free-choice
//! place and the flow must first decompose it into marked-graph components
//! (Hack's algorithm, thesis Sec. 5.2.1) before projecting local STGs.
//!
//! Run with `cargo run --example free_choice_controller`.

use si_redress::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = si_redress::suite::benchmark("nowick").expect("bundled");
    let (stg, library) = bench.circuit()?;
    println!(
        "`{}` is free-choice: {}",
        stg.name,
        stg.net().is_free_choice()
    );

    // One walk of the reachable markings gives every component its
    // initial signal values.
    let components = stg.mg_components(&stg.analyze(100_000)?, 64)?;
    println!(
        "Hack decomposition yields {} MG components:",
        components.len()
    );
    for (i, mg) in components.iter().enumerate() {
        let labels: Vec<String> = mg
            .transitions()
            .into_iter()
            .map(|t| mg.label_string(t))
            .collect();
        println!("  component {}: {}", i + 1, labels.join(" "));
    }

    let report = derive_timing_constraints(&stg, &library)?;
    println!(
        "\nconstraints: {} before relaxation, {} after:",
        report.baseline.len(),
        report.constraints.len()
    );
    for c in &report.constraints {
        println!("  {c}");
    }

    // Both environment choices must simulate cleanly under isochronic
    // forks (the simulator resolves free choices deterministically by
    // scheduling order, exercising one branch per enabling).
    let delays = DelayModel::uniform(30.0, 1.0, 60.0);
    let outcome = simulate(&stg, &library, &delays, 120)?;
    println!(
        "\nsimulated {} output transitions with {} glitches",
        outcome.fired,
        outcome.glitches.len()
    );
    Ok(())
}
