//! Regenerates thesis Fig. 7.7: the cycle-time penalty of padding the
//! FIFO's strong constraints, per technology node, for the two delay
//! element types: a repeater (delays both edges of the padded signal) and
//! a current-starved element (delays only the constrained edge,
//! Fig. 7.4). Padding positions come from the Sec. 5.7 greedy planner;
//! the pad magnitude counters the maximum direct-wire delay at each node.

use si_core::{plan_padding, AdversaryOracle, Engine, PaddingPosition};
use si_sim::{cycle_time, DelayAssignment, NODES};
use si_stg::MgStg;

fn main() {
    let bench = si_suite::benchmark("fifo").expect("bundled");
    let (stg, library) = bench.circuit().expect("loads");
    // The staged engine, like the table binaries.
    let engine = Engine::default();
    let out = engine.run(&stg, &library).expect("derives");
    let report = &out.report;
    let oracle = AdversaryOracle::new(&stg);
    let plan = plan_padding(&oracle, &report.constraints, 5);
    let mg = MgStg::from_stg_mg(&stg).expect("the FIFO STG is a marked graph");

    println!(
        "Fig. 7.7 — delay penalty of padding ({} pads)",
        plan.entries.len()
    );
    println!("{:<8} {:>16} {:>12}", "node", "current-starved", "repeater");

    for tech in NODES {
        // Pad magnitude: enough to out-delay the longest plausible local
        // wire (the thesis counters the maximum wire-length delay).
        let pad = tech.wire_delay(100.0);
        let base_delay = DelayAssignment::uniform(tech.gate_delay_ps);
        let base = cycle_time(&mg, &base_delay).expect("cyclic");

        let mut starved = base_delay.clone();
        let mut repeater = base_delay.clone();
        for (c, pos) in &plan.entries {
            let signal = match pos {
                PaddingPosition::Wire { from, .. } => from.clone(),
                PaddingPosition::GateOutput { gate } => gate.clone(),
            };
            // The current-starved element delays only the constrained
            // edge: the `after` transition's polarity on the padded signal.
            let edge = format!("{}{}", signal, c.after.polarity);
            starved.pad_label(&edge, pad);
            repeater.pad_signal(&mg, &signal, pad);
        }
        let t_starved = cycle_time(&mg, &starved).expect("cyclic");
        let t_repeater = cycle_time(&mg, &repeater).expect("cyclic");
        println!(
            "{:>5}nm {:>15.1}% {:>11.1}%",
            tech.node_nm,
            100.0 * (t_starved - base) / base,
            100.0 * (t_repeater - base) / base,
        );
    }
    println!("\nExpected shape (thesis): the repeater penalty dominates the");
    println!("current-starved penalty at every node.");
}
