//! Regenerates thesis Table 7.1 and the Fig. 7.3 narrative: the FIFO
//! (chu150-flavour) design example of Ch. 7.1. Prints the derived relative
//! timing constraints, each mapped to its wire-vs-adversary-path delay
//! relation, the per-gate relaxation trace (`--trace`), and the greedy
//! padding plan of Sec. 5.7 for the strong constraints.

use si_core::{derive_timing_constraints, plan_padding, AdversaryOracle, TraceEvent};

fn main() {
    let trace_mode = std::env::args().any(|a| a == "--trace");
    let bench = si_suite::benchmark("fifo").expect("bundled");
    let (stg, library) = bench.circuit().expect("loads");
    let report = derive_timing_constraints(&stg, &library).expect("derives");
    let oracle = AdversaryOracle::new(&stg);

    println!("Design example: FIFO latch controller (thesis Ch. 7.1)");
    println!(
        "{} gates, {} reachable states, {} baseline constraints, {} after relaxation\n",
        stg.gate_signals().len(),
        report.state_count,
        report.baseline.len(),
        report.constraints.len()
    );

    println!("Table 7.1 — list of timing constraints (wire < adversary path)");
    println!("{:<24} adversary path", "wire");
    for c in &report.constraints {
        let wire = format!("{} -> gate {}", c.before, c.gate);
        match oracle.path_of(c) {
            Some(path) => {
                let suffix = if path.through_env {
                    " (crosses ENV)"
                } else {
                    ""
                };
                let hops: Vec<String> = path.hops.iter().map(|&h| stg.label_string(h)).collect();
                println!("{:<24} {}{}", wire, hops.join(" => "), suffix);
            }
            None => println!("{:<24} (no structural path)", wire),
        }
    }

    println!("\nPadding plan for strong (level <= 5) constraints, Sec. 5.7:");
    let plan = plan_padding(&oracle, &report.constraints, 5);
    if plan.entries.is_empty() {
        println!("  (none needed: all adversary paths are long or cross the environment)");
    }
    for (c, pos) in &plan.entries {
        println!("  {c}  ->  pad {pos:?}");
    }

    if trace_mode {
        println!("\nRelaxation trace (the Fig. 7.3 procedure):");
        for event in &report.trace {
            match event {
                TraceEvent::Relaxed { gate, arc, case } => {
                    println!("  [{gate}] relax {arc}: case {case}");
                }
                TraceEvent::MadeConcurrentWithOutput { gate, transition } => {
                    println!("  [{gate}] {transition} made concurrent with the output");
                }
                TraceEvent::Decomposed { gate, parts } => {
                    println!("  [{gate}] OR-causality decomposition into {parts} sub-STGs");
                }
                TraceEvent::ConstraintEmitted { constraint } => {
                    println!("  constraint: {constraint}");
                }
                TraceEvent::Fallback { gate, reason } => {
                    println!("  [{gate}] fallback: {reason}");
                }
            }
        }
    } else {
        println!("\n(run with --trace for the per-gate Fig. 7.3 relaxation narrative)");
    }
}
