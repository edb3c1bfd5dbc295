//! The complex-gate synthesis procedure.

use std::collections::BTreeMap;

use si_boolean::{expand_cover, irredundant_cover, Gate, GateLibrary, MAX_EXACT_VARS};
use si_stg::{SignalId, StateGraph, Stg};

use crate::csc::{check_csc, next_value};
use crate::error::SynthError;

/// Exact-minimization cap on support size (QM enumerates `2^n` minterms).
const MAX_SUPPORT: usize = 16;

/// Synthesizes a complex-gate implementation for every non-input signal of
/// `stg`, exploring at most `budget` states: one walk
/// ([`StateGraph::of_stg`]), then [`synthesize_sg`].
///
/// # Errors
///
/// - [`SynthError::Stg`] for inconsistent/unbounded STGs;
/// - [`SynthError::Csc`] when no logic function exists for some signal;
/// - [`SynthError::SupportTooLarge`] when a gate would need more than 16
///   support variables.
pub fn synthesize(stg: &Stg, budget: usize) -> Result<GateLibrary, SynthError> {
    synthesize_sg(stg, &StateGraph::of_stg(stg, budget)?)
}

/// Synthesizes a complex-gate implementation for every non-input signal of
/// `stg` from `sg`, its whole state graph — the graph of the run's one
/// walk ([`si_stg::StgAnalysis::state_graph`]).
///
/// # Errors
///
/// [`SynthError::Csc`] and [`SynthError::SupportTooLarge`], as
/// [`synthesize`].
pub fn synthesize_sg(stg: &Stg, sg: &StateGraph) -> Result<GateLibrary, SynthError> {
    check_csc(stg, sg)?;
    let mut gates = Vec::new();
    for a in stg.gate_signals() {
        gates.push(synthesize_signal(stg, sg, a)?);
    }
    Ok(GateLibrary { gates })
}

/// Builds the gate for one signal: minimal well-defined support, then exact
/// two-level minimization of `f↑` and `f↓`.
fn synthesize_signal(stg: &Stg, sg: &StateGraph, a: SignalId) -> Result<Gate, SynthError> {
    let n_all = stg.signal_count();
    // next(a) per reachable state.
    let targets: Vec<bool> = (0..sg.state_count())
        .map(|s| next_value(sg, s, a))
        .collect();

    // Greedy support shrinking: start from every signal (in id order) and
    // drop those whose removal keeps the function well defined. Dropping is
    // attempted for signals other than `a` first so that feedback is only
    // kept when genuinely needed.
    let mut support: Vec<SignalId> = (0..n_all).map(SignalId).collect();
    let mut order: Vec<SignalId> = support.clone();
    order.sort_by_key(|&s| if s == a { 0 } else { 1 });
    order.reverse(); // feedback literal considered for removal last
    for &candidate in &order {
        let trial: Vec<SignalId> = support
            .iter()
            .copied()
            .filter(|&s| s != candidate)
            .collect();
        if well_defined(sg, &trial, &targets) {
            support = trial;
        }
    }

    if support.len() > MAX_SUPPORT {
        return Err(SynthError::SupportTooLarge {
            signal: stg.signal_name(a).to_string(),
            support: support.len(),
        });
    }

    // Project states onto the support and build on/off/dc minterm sets.
    let project = |code: u64| -> u64 {
        let mut packed = 0u64;
        for (i, &s) in support.iter().enumerate() {
            if code & (1u64 << s.0) != 0 {
                packed |= 1u64 << i;
            }
        }
        packed
    };
    let mut on: Vec<u64> = Vec::new();
    let mut off: Vec<u64> = Vec::new();
    let mut seen: BTreeMap<u64, bool> = BTreeMap::new();
    for (s, &target) in targets.iter().enumerate() {
        let m = project(sg.code(s));
        if seen.insert(m, target).is_none() {
            if target {
                on.push(m);
            } else {
                off.push(m);
            }
        }
    }
    // Minimize the pull-up with the unreachable codes as don't-cares, then
    // freeze the don't-care choices: the gate is the resulting function
    // everywhere and `f↓` is its exact complement. This matches the EQN
    // netlist semantics (a netlist only records `f↑`), so synthesized
    // gates round-trip through the restricted EQN format bit-exactly.
    // Past MAX_EXACT_VARS support variables the unreachable-code
    // don't-care set approaches the full 2^n space and exact QM takes
    // minutes; the off-set-driven expansion stays linear in the (small)
    // reachable off-set instead.
    let up = if support.len() <= MAX_EXACT_VARS {
        let dc: Vec<u64> = (0..(1u64 << support.len()))
            .filter(|m| !seen.contains_key(m))
            .collect();
        irredundant_cover(&on, &dc, support.len())
    } else {
        expand_cover(&on, &off, support.len())
    };
    let vars: Vec<String> = support
        .iter()
        .map(|&s| stg.signal_name(s).to_string())
        .collect();
    Ok(Gate::from_up_cover(
        stg.signal_name(a).to_string(),
        vars,
        up,
    ))
}

/// Whether `next` is a function of the chosen support: any two states that
/// agree on the support must agree on the target value.
fn well_defined(sg: &StateGraph, support: &[SignalId], targets: &[bool]) -> bool {
    let mut table: BTreeMap<u64, bool> = BTreeMap::new();
    for (s, &target) in targets.iter().enumerate() {
        let mut key = 0u64;
        for (i, &sig) in support.iter().enumerate() {
            if sg.value(s, sig) {
                key |= 1u64 << i;
            }
        }
        match table.get(&key) {
            Some(&v) if v != target => return false,
            Some(_) => {}
            None => {
                table.insert(key, target);
            }
        }
    }
    true
}

/// Verifies that a gate library implements the STG: in every reachable
/// state, each gate's pull-up cover is true exactly when the signal's next
/// value is 1 (and the pull-down when it is 0).
///
/// Returns the list of `(signal, state index)` mismatches (empty = correct).
pub fn verify_implements(
    stg: &Stg,
    sg: &StateGraph,
    library: &GateLibrary,
) -> Vec<(String, usize)> {
    let mut mismatches = Vec::new();
    for gate in &library.gates {
        let Some(a) = stg.signal_by_name(&gate.output) else {
            mismatches.push((gate.output.clone(), usize::MAX));
            continue;
        };
        for s in 0..sg.state_count() {
            let values = |name: &str| -> bool {
                stg.signal_by_name(name).is_some_and(|sig| sg.value(s, sig))
            };
            let up = gate.eval_up(values);
            let down = gate.eval_down(values);
            let target = next_value(sg, s, a);
            if up != target || down == target {
                mismatches.push((gate.output.clone(), s));
                break;
            }
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::parse_astg;

    #[test]
    fn synthesizes_a_c_element_for_the_join() {
        // Classic Muller C-element environment: c waits for both a and b.
        let text = "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let lib = synthesize(&stg, 1000).expect("CSC holds");
        assert_eq!(lib.gates.len(), 1);
        let c = &lib.gates[0];
        // A C-element needs feedback: support {a, b, c}.
        assert_eq!(c.vars.len(), 3);
        assert!(c.vars.contains(&"c".to_string()));
        // f↑ = a·b + a·c + b·c (3 cubes); f↓ symmetric.
        assert_eq!(c.up.cubes().len(), 3);
        assert_eq!(c.down.cubes().len(), 3);
    }

    #[test]
    fn synthesizes_combinational_gate_without_feedback() {
        // b is a simple buffer of a.
        let text = "\
.model buffer
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let lib = synthesize(&stg, 100).expect("CSC holds");
        let b = &lib.gates[0];
        assert_eq!(b.vars, vec!["a".to_string()]);
        assert_eq!(b.up.cubes().len(), 1);
    }

    #[test]
    fn synthesized_library_implements_the_sg() {
        let stg = parse_astg(si_stg::IMEC_RAM_READ_SBUF_G).expect("valid");
        let lib = synthesize(&stg, 100_000).expect("CSC holds");
        assert_eq!(lib.gates.len(), 11);
        let sg = StateGraph::of_stg(&stg, 100_000).expect("consistent");
        assert!(verify_implements(&stg, &sg, &lib).is_empty());
    }

    #[test]
    fn thesis_eqn_netlist_also_implements_the_imec_sg() {
        // Cross-check: the EQN netlist printed in the thesis implements the
        // same STG our synthesizer consumes.
        let eqn = "\
i0 = precharged + wenin';
ack = i0' + map0';
i2 = csc0' * map0';
wsen = wsldin' * i2';
i4 = wenin + req;
prnot = i4* precharged + i4 * prnot + precharged * prnot;
wen = req * prnotin;
wsld = wenin' * csc0';
i8 = req' * prnotin;
csc0 = i8' *wsldin + i8' * csc0;
map0 = wsldin' * csc0;
";
        let stg = parse_astg(si_stg::IMEC_RAM_READ_SBUF_G).expect("valid");
        let sg = StateGraph::of_stg(&stg, 100_000).expect("consistent");
        let netlist = si_boolean::parse_eqn(eqn).expect("valid");
        let lib = GateLibrary::from_netlist(&netlist);
        assert!(verify_implements(&stg, &sg, &lib).is_empty());
    }

    #[test]
    fn csc_violation_is_propagated() {
        let text = "\
.model viol
.inputs a
.outputs b
.graph
a+ a-
a- a+/2
a+/2 b+
b+ a-/2
a-/2 b-
b- a+
.marking { <b-,a+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        assert!(matches!(synthesize(&stg, 1000), Err(SynthError::Csc(_))));
    }
}
