//! Timing conformance and the four-case relaxation criterion
//! (thesis Sec. 5.4).
//!
//! A local STG is *timing conformant* to its gate when, in its state graph,
//! `f↑` is true exactly on `ER(o+) ∪ QR(o+)` and `f↓` on
//! `ER(o-) ∪ QR(o-)`. After relaxing an arc, violations are classified:
//!
//! - **case 1**: no violation — accept the relaxed STG;
//! - **case 2**: the gate is prematurely excited in a quiescent region, but
//!   every prerequisite transition of the next output transition has
//!   already fired — the relaxed transition was unnecessarily made a
//!   prerequisite;
//! - **case 3**: OR-causality — the only missing prerequisite is the relaxed
//!   transition itself, and firing it lands in the excitation region;
//! - **case 4**: a genuine hazard — a timing constraint must pin the
//!   original order.
//!
//! "Has fired" is judged on firing history, not on value snapshots: a
//! prerequisite `z*` counts as fired in state `s` iff no path from `s`
//! fires `z*` before the output transition (a value test would confuse
//! "not yet risen" with "already fallen" when the relaxation lets another
//! input overtake — exactly the thesis Fig. 4.1 glitch).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use si_stg::{Polarity, SignalId, StateGraph, TransitionLabel};

use crate::error::CoreError;
use crate::local::LocalStg;

/// Classification of a single conformance-violating quiescent state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateClass {
    /// All prerequisite transitions of the next output transition fired.
    Complete,
    /// Only the just-relaxed transition is missing, and firing it enters
    /// the excitation region.
    OrCausal,
    /// Neither: a premature firing would be a glitch.
    Hazard,
}

/// Outcome of the four-case criterion for one relaxation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelaxationCase {
    /// Timing conformance holds: accept.
    Case1,
    /// Premature excitation, but complete prerequisites (case 2).
    Case2,
    /// OR-causality (case 3).
    Case3,
    /// Hazard: emit a constraint (case 4).
    Case4,
    /// No premature excitation, but the gate lags in some excitation-region
    /// state (`f` false inside ER): the OR-causality signature seen after
    /// the case-2 arc modification (thesis Sec. 6.1.1).
    LaggingOnly,
}

/// Raw conformance violations of a local STG's state graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceReport {
    /// `(state, next output transition)` pairs where the gate is excited by
    /// logic while the STG keeps the output quiescent.
    pub premature: Vec<(usize, usize)>,
    /// States inside an excitation region where the triggering function is
    /// still false.
    pub lagging: Vec<usize>,
}

impl ConformanceReport {
    /// Whether the STG is fully timing conformant.
    pub fn is_conformant(&self) -> bool {
        self.premature.is_empty() && self.lagging.is_empty()
    }
}

/// The purely *local* part of one state's conformance verdict: membership
/// in the premature/lagging sets is a function of the state's own code,
/// its own edge list and the shared label table only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocalVerdict {
    /// Conformant here.
    Clean,
    /// Inside an excitation region with the triggering function false.
    Lagging,
    /// Excited by logic while the STG keeps the output quiescent.
    Premature,
}

fn local_verdict(local: &LocalStg, sg: &StateGraph, s: usize) -> LocalVerdict {
    let o = local.ctx.output;
    let code = sg.code(s);
    if sg.is_excited(s, o) {
        for &(t, _) in sg.edges(s) {
            let l = sg.label(t);
            if l.signal != o {
                continue;
            }
            let ok = match l.polarity {
                Polarity::Plus => local.ctx.eval_up(code),
                Polarity::Minus => local.ctx.eval_down(code),
            };
            if !ok {
                return LocalVerdict::Lagging;
            }
        }
        LocalVerdict::Clean
    } else {
        let value = sg.value(s, o);
        let fires_early = if value {
            local.ctx.eval_down(code) // in QR(o+) but f↓ true
        } else {
            local.ctx.eval_up(code) // in QR(o-) but f↑ true
        };
        if fires_early {
            LocalVerdict::Premature
        } else {
            LocalVerdict::Clean
        }
    }
}

/// The next output transition reachable from premature state `s` — a
/// forward-path query, unlike the local membership verdict.
fn resolve_t_out(sg: &StateGraph, s: usize, o: SignalId, o_name: &str) -> Result<usize, CoreError> {
    sg.next_transition_of(s, o, o_name)
        .map_err(CoreError::from)?
        .ok_or_else(|| CoreError::Unresolved {
            gate: o_name.to_string(),
            detail: format!("output never fires again from state {s}"),
        })
}

/// Computes the conformance report of `local` against its gate covers.
///
/// # Errors
///
/// [`CoreError::Unresolved`] if the output never fires again from a
/// premature state (the MG was not live).
pub fn conformance(local: &LocalStg, sg: &StateGraph) -> Result<ConformanceReport, CoreError> {
    let o = local.ctx.output;
    let o_name = local.mg.signal_name(o);
    let mut premature = Vec::new();
    let mut lagging = Vec::new();
    for s in 0..sg.state_count() {
        match local_verdict(local, sg, s) {
            LocalVerdict::Clean => {}
            LocalVerdict::Lagging => lagging.push(s),
            LocalVerdict::Premature => premature.push((s, resolve_t_out(sg, s, o, o_name)?)),
        }
    }
    Ok(ConformanceReport { premature, lagging })
}

/// The prerequisite transition sets `Epre` of every output transition:
/// labels of its predecessor transitions in the *current* local STG
/// (computed before the relaxation under test, thesis Sec. 5.4.1).
pub fn prerequisite_sets(local: &LocalStg) -> BTreeMap<usize, BTreeSet<TransitionLabel>> {
    let o = local.ctx.output;
    let mut map = BTreeMap::new();
    for t in local.mg.transitions() {
        if local.mg.label(t).signal != o {
            continue;
        }
        let set: BTreeSet<TransitionLabel> = local
            .mg
            .preds(t)
            .into_iter()
            .map(|p| local.mg.label(p))
            .collect();
        map.insert(t, set);
    }
    map
}

/// All prerequisite labels of `e` still pending before `t_out` from
/// `state`, computed in one DFS (skipping `t_out` edges) instead of one
/// DFS per prerequisite. `seen` is a caller-owned scratch buffer, cleared
/// and regrown here so a classification sweep allocates it once. The
/// result preserves `e`'s (sorted) iteration order.
fn pending_of(
    sg: &StateGraph,
    state: usize,
    t_out: usize,
    e: &BTreeSet<TransitionLabel>,
    seen: &mut Vec<bool>,
) -> Vec<TransitionLabel> {
    let mut found = BTreeSet::new();
    if e.is_empty() {
        return Vec::new();
    }
    seen.clear();
    seen.resize(sg.state_count(), false);
    let mut stack = vec![state];
    seen[state] = true;
    'dfs: while let Some(s) = stack.pop() {
        for &(t, j) in sg.edges(s) {
            if t == t_out {
                continue; // stop at the output transition
            }
            let l = sg.label(t);
            if e.contains(&l) {
                found.insert(l);
                if found.len() == e.len() {
                    break 'dfs; // every prerequisite already found pending
                }
            }
            if !seen[j] {
                seen[j] = true;
                stack.push(j);
            }
        }
    }
    found.into_iter().collect()
}

/// Classifies one premature state (thesis relaxation cases 2–4), over a
/// caller-owned scratch buffer.
fn classify_state_with(
    sg: &StateGraph,
    state: usize,
    t_out: usize,
    epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
    relaxed: Option<(usize, TransitionLabel)>,
    seen: &mut Vec<bool>,
) -> StateClass {
    let empty = BTreeSet::new();
    let e = epre.get(&t_out).unwrap_or(&empty);
    let pending = pending_of(sg, state, t_out, e, seen);
    if pending.is_empty() {
        return StateClass::Complete;
    }
    if let Some((x, x_label)) = relaxed {
        // Case 3: x is the sole missing prerequisite, it is excited here,
        // and firing it enters the excitation region of the same output
        // occurrence.
        if pending == [x_label] {
            if let Some(s2) = sg.successor_by(state, x) {
                if sg.successor_by(s2, t_out).is_some() {
                    return StateClass::OrCausal;
                }
            }
        }
    }
    StateClass::Hazard
}

/// Runs the full four-case criterion: conformance plus per-state
/// classification (`Check` of Algorithm 4).
///
/// # Errors
///
/// Propagates [`conformance`] errors.
pub fn classify_states(
    local: &LocalStg,
    sg: &StateGraph,
    epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
    relaxed: Option<usize>,
) -> Result<(RelaxationCase, ConformanceReport), CoreError> {
    let report = conformance(local, sg)?;
    if report.is_conformant() {
        return Ok((RelaxationCase::Case1, report));
    }
    if report.premature.is_empty() {
        return Ok((RelaxationCase::LaggingOnly, report));
    }
    let relaxed_pair = relaxed.map(|x| (x, local.mg.label(x)));
    let mut seen = Vec::new();
    let mut any_or_causal = false;
    for &(s, t_out) in &report.premature {
        match classify_state_with(sg, s, t_out, epre, relaxed_pair, &mut seen) {
            StateClass::Hazard => return Ok((RelaxationCase::Case4, report)),
            StateClass::OrCausal => any_or_causal = true,
            StateClass::Complete => {}
        }
    }
    if any_or_causal {
        Ok((RelaxationCase::Case3, report))
    } else {
        Ok((RelaxationCase::Case2, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::GateContext;
    use crate::relax::relax_arc;
    use si_boolean::{parse_eqn, GateLibrary};
    use si_stg::{parse_astg, MgStg};

    fn build(stg_text: &str, eqn: &str, gate: &str) -> LocalStg {
        let stg = parse_astg(stg_text).expect("valid STG");
        let lib = GateLibrary::from_netlist(&parse_eqn(eqn).expect("valid EQN"));
        let ctx = GateContext::bind(lib.gate(gate).expect("gate exists"), &stg).expect("binds");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        crate::local::LocalStg::project_from(&mg, &ctx).expect("projects")
    }

    fn check_after_relax(
        local: &mut LocalStg,
        from: &str,
        to: &str,
    ) -> (RelaxationCase, ConformanceReport) {
        let x = local.mg.transition_by_label(from).expect("present");
        let y = local.mg.transition_by_label(to).expect("present");
        let epre = prerequisite_sets(local);
        relax_arc(&mut local.mg, x, y).expect("relaxes");
        let sg = si_stg::StateGraph::of_mg(&local.mg, 10_000).expect("consistent");
        classify_states(local, &sg, &epre, Some(x)).expect("checks")
    }

    /// Thesis Fig. 5.17 (relaxation case 1): o = x·y AND gate, x+ ⇒ y+
    /// relaxed; conformance still holds. The falling edge is triggered by
    /// x- (an AND gate falls with its first falling input).
    const FIG_5_17: &str = "\
.model fig517
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- o-
o- y-
y- x+
.marking { <y-,x+> }
.end
";

    #[test]
    fn fig_5_17_case_1() {
        let mut local = build(FIG_5_17, "o = x*y;", "o");
        let sg0 = si_stg::StateGraph::of_mg(&local.mg, 1000).expect("consistent");
        let epre = prerequisite_sets(&local);
        let (case0, _) = classify_states(&local, &sg0, &epre, None).expect("checks");
        assert_eq!(case0, RelaxationCase::Case1, "initial local STG conformant");
        let (case, report) = check_after_relax(&mut local, "x+", "y+");
        assert_eq!(case, RelaxationCase::Case1);
        assert!(report.is_conformant());
    }

    #[test]
    fn fig_5_19_case_3_or_causality() {
        // OR gate o = x + y; o+ is triggered by x+ (arc x+ ⇒ o+); y+ is
        // ordered after x+ only by a type-4 arc. Relaxing x+ ⇒ y+ lets y+
        // overtake and excite o through the other clause: case 3.
        let text = "\
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
        let mut local = build(text, "o = x + y;", "o");
        let sg0 = si_stg::StateGraph::of_mg(&local.mg, 1000).expect("consistent");
        let epre0 = prerequisite_sets(&local);
        let (case0, _) = classify_states(&local, &sg0, &epre0, None).expect("checks");
        assert_eq!(case0, RelaxationCase::Case1, "initial STG conformant");

        let (case, report) = check_after_relax(&mut local, "x+", "y+");
        assert_eq!(case, RelaxationCase::Case3);
        assert_eq!(report.premature.len(), 1);
    }

    #[test]
    fn fig_4_1_style_case_4_hazard() {
        // OR gate o = y + z expected to hold 1 across the handover
        // z+ ⇒ y-: if y- overtakes z+, both inputs are low and the gate
        // dips — the classic Fig. 4.1 glitch. Must be case 4.
        let text = "\
.model case4
.inputs y z
.outputs o
.graph
z+ y-
y- z-
z- o-
o- y+
y+ o+
o+ z+
.marking { <o+,z+> }
.end
";
        let mut local = build(text, "o = y + z;", "o");
        let sg0 = si_stg::StateGraph::of_mg(&local.mg, 1000).expect("consistent");
        let epre0 = prerequisite_sets(&local);
        let (case0, _) = classify_states(&local, &sg0, &epre0, None).expect("checks");
        assert_eq!(case0, RelaxationCase::Case1, "initial STG conformant");

        let (case, report) = check_after_relax(&mut local, "z+", "y-");
        assert_eq!(case, RelaxationCase::Case4);
        assert!(!report.premature.is_empty());
    }

    #[test]
    fn pending_distinguishes_not_yet_risen_from_fallen() {
        // In the case-4 example after relaxation, state (y fell early):
        // prerequisite z- of o- is pending (z+ then z- still to come), even
        // though the value of z is already 0.
        let text = "\
.model case4
.inputs y z
.outputs o
.graph
z+ y-
y- z-
z- o-
o- y+
y+ o+
o+ z+
.marking { <o+,z+> }
.end
";
        let mut local = build(text, "o = y + z;", "o");
        let x = local.mg.transition_by_label("z+").expect("present");
        let y = local.mg.transition_by_label("y-").expect("present");
        relax_arc(&mut local.mg, x, y).expect("relaxes");
        let sg = si_stg::StateGraph::of_mg(&local.mg, 1000).expect("consistent");
        let report = conformance(&local, &sg).expect("checks");
        let &(s, t_out) = report.premature.first().expect("premature state exists");
        let zm = local.mg.transition_by_label("z-").expect("present");
        let z_minus = local.mg.label(zm);
        let pending = pending_of(&sg, s, t_out, &BTreeSet::from([z_minus]), &mut Vec::new());
        assert_eq!(pending, [z_minus]);
    }

    #[test]
    fn case_2_when_prerequisites_all_fired() {
        // Gate o = x'·z: relaxing x+ ⇒ z+ lets z+ overtake x+; in the
        // early state the code coincides with the legitimate firing state
        // BUT the prerequisite x- has not fired yet, so this is a hazard
        // (premature rise followed by a forced early fall when x+ lands).
        let text = "\
.model xz
.inputs x z
.outputs o
.graph
x+ z+
z+ x-
x- o+
o+ z-
z- o-
o- x+
.marking { <o-,x+> }
.end
";
        let mut local = build(text, "o = x'*z;", "o");
        let sg0 = si_stg::StateGraph::of_mg(&local.mg, 1000).expect("consistent");
        let epre0 = prerequisite_sets(&local);
        let (case0, _) = classify_states(&local, &sg0, &epre0, None).expect("checks");
        assert_eq!(case0, RelaxationCase::Case1);

        let (case, _) = check_after_relax(&mut local, "x+", "z+");
        assert_eq!(case, RelaxationCase::Case4);
    }

    #[test]
    fn prerequisite_sets_follow_arcs() {
        let local = build(FIG_5_17, "o = x*y;", "o");
        let epre = prerequisite_sets(&local);
        let op = local.mg.transition_by_label("o+").expect("present");
        let e = &epre[&op];
        assert_eq!(e.len(), 1); // only y+ is a direct predecessor
        let om = local.mg.transition_by_label("o-").expect("present");
        assert_eq!(epre[&om].len(), 1); // only y-
    }
}
