//! OR-causality up close (thesis Ch. 6): relaxing an input ordering on an
//! OR gate lets two clauses race to fire the output; no safe marked graph
//! expresses the race, so the local STG is decomposed into sub-STGs with
//! `#` order-restriction arcs — one per way the race can be won.
//!
//! Run with `cargo run --example or_causality_demo`.

use si_redress::core::{
    classify_states, find_candidate_clauses, find_candidate_transitions, initial_restrictions,
    or_causality_decomposition, prerequisite_sets, relax_arc, GateContext, LocalStg,
    RelaxationCase,
};
use si_redress::prelude::*;

const STG: &str = "\
.model case3
.inputs x y
.outputs o
.graph
x+ o+
x+ y+
o+ x-
y+ x-
x- y-
y- o-
o- x+
.marking { <o-,x+> }
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // o = x + y, with o+ triggered by x+ and y+ ordered after x+ only by
    // a type-4 arc. Relaxing x+ => y+ lets y+ overtake: the clause `y`
    // can now legitimately fire o+ before x+ lands — OR-causality.
    let stg = parse_astg(STG)?;
    let library = GateLibrary::from_netlist(&parse_eqn("o = x + y;")?);
    let ctx = GateContext::bind(library.gate("o").expect("present"), &stg)?;
    let component = MgStg::from_stg_mg(&stg)?;
    let mut local = LocalStg::project_from(&component, &ctx)?;

    let x = local.mg.transition_by_label("x+").expect("present");
    let y = local.mg.transition_by_label("y+").expect("present");
    let epre = prerequisite_sets(&local);
    relax_arc(&mut local.mg, x, y)?;
    let sg = StateGraph::of_mg(&local.mg, 10_000)?;
    let (case, report) = classify_states(&local, &sg, &epre, Some(x))?;
    assert_eq!(case, RelaxationCase::Case3);
    println!("relaxing x+ => y+ gives relaxation case 3 (OR-causality)");

    let (_, t_out) = report.premature[0];
    let clauses = find_candidate_clauses(&local, &sg, t_out, &epre);
    println!("candidate clauses of f_up = x + y: {} of 2", clauses.len());

    let mut cands = std::collections::BTreeMap::new();
    for c in clauses {
        let set = find_candidate_transitions(&local, c, t_out, x, Polarity::Plus);
        let rendered: Vec<String> = set.iter().map(|&t| local.mg.label_string(t)).collect();
        println!("  clause {}: candidates {{{}}}", c, rendered.join(", "));
        cands.insert(c, set);
    }
    let all: std::collections::BTreeSet<usize> = cands.values().flatten().copied().collect();
    let init = initial_restrictions(&local, &all);
    let solution = or_causality_decomposition(&cands, &init);
    println!("\nsolution group ({} sub-STGs):", solution.len());
    for (clause, restrictions) in &solution {
        let rendered: Vec<String> = restrictions
            .iter()
            .map(|&(a, b)| {
                format!(
                    "{} # {}",
                    local.mg.label_string(a),
                    local.mg.label_string(b)
                )
            })
            .collect();
        println!("  clause {clause} wins under {{{}}}", rendered.join(", "));
    }

    // The full pipeline resolves this without emitting the ordering as a
    // timing constraint.
    let full = derive_timing_constraints(&stg, &library)?;
    println!(
        "\nfull derivation keeps {} of {} baseline orderings (x+ < y+ was discharged)",
        full.constraints.len(),
        full.baseline.len()
    );
    Ok(())
}
