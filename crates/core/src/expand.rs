//! The per-gate relaxation loop — Algorithm 4 (`Expand`) of the thesis.
//!
//! While the local STG still contains unguaranteed type-4 arcs, pick the
//! tightest (shortest adversary path), relax it, classify the result:
//!
//! - case 1 — accept;
//! - case 2 — additionally relax `x ⇒ o`; if that restores conformance,
//!   accept, otherwise decompose the OR-causality and recurse;
//! - case 3 — decompose the OR-causality and recurse;
//! - case 4 — reject the relaxation, emit the relative timing constraint
//!   `gate: x* < y*` and mark the arc guaranteed.
//!
//! Decomposition dead-ends (no candidate clauses, empty solution groups or
//! non-conformant sub-STGs) fall back to the sound case-4 treatment: the
//! ordering is pinned by a constraint instead of being relaxed. This keeps
//! the derived constraint set sufficient in every code path.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use si_stg::{StateGraph, TransitionLabel};

use crate::cache::Caches;
use crate::check::{classify_states, conformance, prerequisite_sets, RelaxationCase};
use crate::constraint::{Constraint, ConstraintAtom};
use crate::engine::{Stage, StageMetrics};
use crate::error::CoreError;
use crate::local::LocalStg;
use crate::orcausality::{
    build_sub_stgs_case2, build_sub_stgs_case3, find_candidate_clauses, find_candidate_transitions,
    initial_restrictions, or_causality_decomposition, Restriction,
};
use crate::paths::AdversaryOracle;
use crate::relax::relax_arc;
use crate::sched::{CoveringLedger, DivergencePolicy};

/// State-graph generation budget for local STGs inside the relaxation
/// loop.
pub(crate) const LOCAL_SG_BUDGET: usize = 200_000;
/// Maximum OR-causality recursion depth.
const MAX_DEPTH: usize = 32;

/// Everything one relaxation run needs besides the local STG itself: the
/// oracle, the engine limits and the engine's reuse stack. One instance is
/// built per gate by the engine (or by the [`expand`] compatibility
/// wrapper) and threaded through the whole recursion.
#[derive(Clone, Copy)]
pub(crate) struct ExpandCtx<'a> {
    /// Adversary-path oracle of the implementation STG.
    pub oracle: &'a AdversaryOracle,
    /// Arc-picking policy.
    pub order: RelaxationOrder,
    /// Relaxation-iteration budget for the gate.
    pub iteration_budget: usize,
    /// State budget per local state graph.
    pub sg_budget: usize,
    /// The engine's reuse stack; `None` runs the reference path.
    pub caches: Option<&'a Caches>,
    /// Whether the loop keeps a covering ledger and bails on detected
    /// divergence, or lets the loop exhaust its iteration budget.
    pub divergence_policy: DivergencePolicy,
}

impl<'a> ExpandCtx<'a> {
    /// A tightest-first context with the engine-default limits.
    pub fn with_defaults(
        oracle: &'a AdversaryOracle,
        iteration_budget: usize,
        caches: Option<&'a Caches>,
    ) -> Self {
        Self {
            oracle,
            order: RelaxationOrder::TightestFirst,
            iteration_budget,
            sg_budget: LOCAL_SG_BUDGET,
            caches,
            // The compatibility wrapper (and through it the monolithic
            // `derive_timing_constraints`) keeps the historical
            // exhaust-the-budget semantics: it is the differential oracle
            // the ledger is measured against.
            divergence_policy: DivergencePolicy::Exhaust,
        }
    }

    /// The local state graph of `mg` — from the reuse stack when there is
    /// one, the marking-keyed reference generation otherwise — recording
    /// cache traffic and exploration work into `metrics`.
    pub(crate) fn sg(
        &self,
        mg: &si_stg::MgStg,
        metrics: &mut StageMetrics,
    ) -> Result<Arc<StateGraph>, CoreError> {
        let (sg, hit) = match self.caches {
            Some(caches) => caches.sg.of_mg(mg, self.sg_budget)?,
            None => (Arc::new(StateGraph::of_mg(mg, self.sg_budget)?), false),
        };
        if hit {
            metrics.sg_cache_hits += 1;
        } else {
            metrics.sg_cache_misses += 1;
            metrics.states_explored += sg.state_count();
        }
        Ok(sg)
    }
}

/// The policy picking which type-4 arc to relax next (thesis Sec. 5.5:
/// different orders can yield different constraint sets, Fig. 5.23).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelaxationOrder {
    /// Tightest arc first: shortest adversary path, the thesis's policy
    /// for the weakest constraint set.
    #[default]
    TightestFirst,
    /// Naive textual order of arc labels — the ablation baseline.
    Lexicographic,
}

/// One step of the relaxation trace (the thesis Fig. 7.3 narrative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An arc was picked and relaxed, with the resulting case.
    Relaxed {
        /// The gate being expanded.
        gate: String,
        /// Rendered arc `x* => y*`.
        arc: String,
        /// The classification outcome (`1`–`4`, or `lagging`). A static
        /// tag: the hot loop pushes one of these per iteration and must
        /// not allocate for it.
        case: &'static str,
    },
    /// Case 2 accepted after additionally relaxing `x ⇒ o`.
    MadeConcurrentWithOutput {
        /// The gate being expanded.
        gate: String,
        /// The transition made concurrent with the output.
        transition: String,
    },
    /// An OR-causality decomposition produced sub-STGs.
    Decomposed {
        /// The gate being expanded.
        gate: String,
        /// Number of sub-STGs.
        parts: usize,
    },
    /// A case-4 constraint was emitted.
    ConstraintEmitted {
        /// The constraint, rendered.
        constraint: String,
    },
    /// A decomposition dead-end forced the conservative case-4 fallback.
    Fallback {
        /// The gate being expanded.
        gate: String,
        /// Why the fallback fired.
        reason: String,
    },
}

impl std::fmt::Display for TraceEvent {
    /// Stable one-line rendering, used by the golden conformance
    /// snapshots: changing it invalidates every checked-in golden file.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Relaxed { gate, arc, case } => {
                write!(f, "relax [{gate}] {arc}: case {case}")
            }
            TraceEvent::MadeConcurrentWithOutput { gate, transition } => {
                write!(f, "concurrent-with-output [{gate}] {transition}")
            }
            TraceEvent::Decomposed { gate, parts } => {
                write!(f, "decompose [{gate}] into {parts} sub-STGs")
            }
            TraceEvent::ConstraintEmitted { constraint } => {
                write!(f, "constraint {constraint}")
            }
            TraceEvent::Fallback { gate, reason } => {
                write!(f, "fallback [{gate}] {reason}")
            }
        }
    }
}

/// Accumulated result of expanding one or more local STGs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandOutcome {
    /// The derived relative timing constraints (`Rt` of Algorithm 4).
    pub constraints: BTreeSet<Constraint>,
    /// Relaxation trace for reporting.
    pub trace: Vec<TraceEvent>,
    /// Total relaxation iterations across all (sub-)STGs.
    pub iterations: usize,
    /// State-graph and covering-ledger counters of the loop
    /// (a [`Stage::Relax`] record; the engine sets its `wall`).
    pub metrics: StageMetrics,
}

impl Default for ExpandOutcome {
    fn default() -> Self {
        Self {
            constraints: BTreeSet::new(),
            trace: Vec::new(),
            iterations: 0,
            metrics: StageMetrics::new(Stage::Relax),
        }
    }
}

fn atom(local: &LocalStg, label: TransitionLabel) -> ConstraintAtom {
    ConstraintAtom::from_label(label, &local.mg.signal_names())
}

fn gate_name(local: &LocalStg) -> String {
    local.mg.signal_name(local.ctx.output).to_string()
}

fn emit_constraint(local: &mut LocalStg, x: usize, y: usize, out: &mut ExpandOutcome) {
    let c = Constraint {
        gate: gate_name(local),
        before: atom(local, local.mg.label(x)),
        after: atom(local, local.mg.label(y)),
    };
    out.trace.push(TraceEvent::ConstraintEmitted {
        constraint: c.to_string(),
    });
    out.constraints.insert(c);
    local.mark_guaranteed(x, y);
}

/// The conservative case-4 treatment of a dead end: record why in the
/// trace, then pin the ordering `x ⇒ y` by a constraint.
fn fall_back(local: &mut LocalStg, x: usize, y: usize, out: &mut ExpandOutcome, reason: &str) {
    out.trace.push(TraceEvent::Fallback {
        gate: gate_name(local),
        reason: reason.to_string(),
    });
    emit_constraint(local, x, y, out);
}

/// Picks the next arc to relax under the chosen policy (Sec. 5.5) from
/// the caller-supplied relaxable set; weight ties break by label text for
/// determinism.
fn find_next_arc(
    local: &LocalStg,
    arcs: &[(usize, usize)],
    oracle: &AdversaryOracle,
    order: RelaxationOrder,
) -> Option<(usize, usize)> {
    // Equivalent to `min_by_key` over `(weight, label_string(a),
    // label_string(b))`, but renders label text only on weight ties and
    // into reused buffers — this runs once per relaxation iteration over
    // every relaxable arc, so per-arc `String`s dominate otherwise.
    let mut best: Option<((bool, u32), (usize, usize))> = None;
    let (mut best_a, mut best_b) = (String::new(), String::new());
    let (mut cand_a, mut cand_b) = (String::new(), String::new());
    for &(a, b) in arcs {
        let weight = match order {
            RelaxationOrder::TightestFirst => {
                oracle.weight_key(local.mg.label(a), local.mg.label(b))
            }
            RelaxationOrder::Lexicographic => (false, 0),
        };
        let better = match best {
            None => true,
            Some((best_weight, _)) => {
                if weight != best_weight {
                    weight < best_weight
                } else {
                    cand_a.clear();
                    cand_b.clear();
                    local.mg.write_label(a, &mut cand_a);
                    local.mg.write_label(b, &mut cand_b);
                    (cand_a.as_str(), cand_b.as_str()) < (best_a.as_str(), best_b.as_str())
                }
            }
        };
        if better {
            best_a.clear();
            best_b.clear();
            local.mg.write_label(a, &mut best_a);
            local.mg.write_label(b, &mut best_b);
            best = Some((weight, (a, b)));
        }
    }
    best.map(|(_, arc)| arc)
}

/// Expands one local STG to a fixpoint, accumulating constraints into
/// `out` (Algorithm 4). Sub-STGs from OR-causality decompositions are
/// processed recursively. Runs the reference path: tightest arc first,
/// nothing memoized.
///
/// # Errors
///
/// [`CoreError::IterationBudgetExceeded`] when `budget` relaxation steps
/// are exhausted, plus any STG-level error.
pub fn expand(
    local: LocalStg,
    oracle: &AdversaryOracle,
    budget: usize,
    out: &mut ExpandOutcome,
) -> Result<(), CoreError> {
    expand_ctx(local, &ExpandCtx::with_defaults(oracle, budget, None), out)
}

/// Expands one local STG under an explicit engine context — the entry
/// point the staged [`crate::Engine`] uses, sharing one cache across all
/// gates.
pub(crate) fn expand_ctx(
    mut local: LocalStg,
    ctx: &ExpandCtx<'_>,
    out: &mut ExpandOutcome,
) -> Result<(), CoreError> {
    expand_at(&mut local, ctx, out, 0)
}

fn expand_at(
    local: &mut LocalStg,
    ctx: &ExpandCtx<'_>,
    out: &mut ExpandOutcome,
    depth: usize,
) -> Result<(), CoreError> {
    let gate = gate_name(local);
    // One ledger per loop instance: every decomposition sub-STG and every
    // fallback resume (each constraint emitted is progress) starts afresh.
    let mut ledger = CoveringLedger::for_policy(ctx.divergence_policy);
    // The arc label is rendered into this buffer, reused across
    // iterations; the trace clones it once, exact-size.
    let mut arc_text = String::new();
    loop {
        out.iterations += 1;
        if out.iterations > ctx.iteration_budget {
            return Err(CoreError::IterationBudgetExceeded {
                gate,
                budget: ctx.iteration_budget,
            });
        }
        let arcs = local.relaxable_arcs();
        let Some((x, y)) = find_next_arc(local, &arcs, ctx.oracle, ctx.order) else {
            return Ok(());
        };
        arc_text.clear();
        local.mg.write_label(x, &mut arc_text);
        arc_text.push_str(" => ");
        local.mg.write_label(y, &mut arc_text);

        // Epre is computed on the STG *before* this relaxation.
        let epre = prerequisite_sets(local);
        let mut trial = local.clone();
        relax_arc(&mut trial.mg, x, y)?;
        let sg = ctx.sg(&trial.mg, &mut out.metrics)?;
        let (case, report) = classify_states(&trial, &sg, &epre, Some(x))?;
        out.trace.push(TraceEvent::Relaxed {
            gate: gate.clone(),
            arc: arc_text.clone(),
            case: match case {
                RelaxationCase::Case1 => "1",
                RelaxationCase::Case2 => "2",
                RelaxationCase::Case3 => "3",
                RelaxationCase::Case4 => "4",
                RelaxationCase::LaggingOnly => "lagging",
            },
        });
        // The ledger observes the *pre-trial* loop state — `local` is
        // untouched until the `match` below — after classification, so
        // the trace still records the iteration that tripped it.
        if let Some(ledger) = &mut ledger {
            if let Some(witness) = ledger.observe(&local.mg, local.guaranteed.len(), out) {
                return Err(CoreError::Diverged { gate, witness });
            }
        }

        match case {
            RelaxationCase::Case1 => *local = trial,
            RelaxationCase::Case4 => {
                emit_constraint(local, x, y, out);
            }
            RelaxationCase::Case2 => {
                let t_out = report.premature[0].1;
                // Try the plain arc modification first: make x concurrent
                // with the output transition.
                if trial.mg.arc(x, t_out).is_some_and(|a| !a.restriction) {
                    let mut modified = trial.clone();
                    relax_arc(&mut modified.mg, x, t_out)?;
                    let sg2 = ctx.sg(&modified.mg, &mut out.metrics)?;
                    let (case2, _) = classify_states(&modified, &sg2, &epre, Some(x))?;
                    if case2 == RelaxationCase::Case1 {
                        out.trace.push(TraceEvent::MadeConcurrentWithOutput {
                            gate: gate.clone(),
                            transition: modified.mg.label_string(x),
                        });
                        *local = modified;
                        continue;
                    }
                    // OR-causality in case 2: decompose from the modified
                    // STG, with candidates judged on the SG before the
                    // modification (thesis Sec. 6.1.1).
                    let subs = decompose(&trial, &sg, &modified, t_out, x, &epre)
                        .map(|(sol, cands)| build_sub_stgs_case2(&modified, t_out, &sol, &cands));
                    match subs {
                        Some(subs) => return recurse(subs, local, x, y, ctx, out, depth),
                        None => fall_back(local, x, y, out, "case-2 decomposition dead end"),
                    }
                } else {
                    // No x ⇒ o arc to relax: conservative fallback.
                    fall_back(local, x, y, out, "case 2 without an x => o arc");
                }
            }
            RelaxationCase::Case3 | RelaxationCase::LaggingOnly => {
                let t_out = match report.premature.first() {
                    Some(&(_, t)) => t,
                    None => match first_lagging_output(&trial, &sg, &report.lagging) {
                        Some(t) => t,
                        None => {
                            fall_back(local, x, y, out, "lagging state without output transition");
                            continue;
                        }
                    },
                };
                let subs = decompose(&trial, &sg, &trial, t_out, x, &epre)
                    .map(|(sol, cands)| build_sub_stgs_case3(&trial, t_out, &sol, &cands))
                    .transpose()?;
                match subs {
                    Some(subs) => return recurse(subs, local, x, y, ctx, out, depth),
                    None => fall_back(local, x, y, out, "case-3 decomposition dead end"),
                }
            }
        }
    }
}

/// Records the decomposition and recurses into its sub-STGs; if any
/// sub-STG is itself non-conformant the whole decomposition is abandoned
/// in favour of the case-4 constraint.
fn recurse(
    subs: Vec<LocalStg>,
    local: &mut LocalStg,
    x: usize,
    y: usize,
    ctx: &ExpandCtx<'_>,
    out: &mut ExpandOutcome,
    depth: usize,
) -> Result<(), CoreError> {
    out.trace.push(TraceEvent::Decomposed {
        gate: gate_name(local),
        parts: subs.len(),
    });
    if depth + 1 >= MAX_DEPTH {
        fall_back(local, x, y, out, "decomposition depth limit");
        return expand_at(local, ctx, out, depth);
    }
    // Verify conformance of each sub-STG before committing to them.
    for sub in &subs {
        let sg = ctx.sg(&sub.mg, &mut out.metrics)?;
        if !conformance(sub, &sg)?.is_conformant() {
            fall_back(local, x, y, out, "non-conformant sub-STG");
            return expand_at(local, ctx, out, depth);
        }
    }
    for mut sub in subs {
        expand_at(&mut sub, ctx, out, depth + 1)?;
    }
    Ok(())
}

fn first_lagging_output(local: &LocalStg, sg: &StateGraph, lagging: &[usize]) -> Option<usize> {
    let o = local.ctx.output;
    for &s in lagging {
        for &(t, _) in sg.edges(s) {
            if sg.label(t).signal == o {
                return Some(t);
            }
        }
    }
    None
}

/// One OR-causality solution: the clause each sub-STG keeps, with the
/// order restrictions that isolate it.
type Solution = Vec<(usize, BTreeSet<Restriction>)>;

/// OR-causality decomposition (thesis Ch. 6): candidate clauses and
/// transitions judged on `(before, sg_before)`, initial restrictions read
/// from `base`. Returns the solution and the candidate map, or `None` at a
/// dead end (fewer than two candidate clauses, or no solution); the caller
/// builds the sub-STGs on `base`. Case 2 passes the STG before the
/// `x ⇒ o` modification as `before` and the modified one as `base`
/// (thesis Sec. 6.1.1); case 3 passes the relaxed STG as both.
fn decompose(
    before: &LocalStg,
    sg_before: &StateGraph,
    base: &LocalStg,
    t_out: usize,
    x: usize,
    epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
) -> Option<(Solution, BTreeMap<usize, BTreeSet<usize>>)> {
    let empty = BTreeSet::new();
    let e = epre.get(&t_out).unwrap_or(&empty);
    let clauses = find_candidate_clauses(before, sg_before, t_out, e);
    if clauses.len() < 2 {
        return None;
    }
    let direction = before.mg.label(t_out).polarity;
    let mut cands = BTreeMap::new();
    for c in clauses {
        let set = find_candidate_transitions(before, c, t_out, x, direction);
        cands.insert(c, set);
    }
    let all: BTreeSet<usize> = cands.values().flatten().copied().collect();
    let init = initial_restrictions(base, &all);
    let solution = or_causality_decomposition(&cands, &init);
    (!solution.is_empty()).then_some((solution, cands))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::GateContext;
    use si_boolean::{parse_eqn, GateLibrary};
    use si_stg::{parse_astg, MgStg};

    /// A two-input AND gate's handshake: `x+ ⇒ y+ ⇒ o+`, then `x-` drops
    /// the output before `y-`.
    const AND2: &str = "\
.model and2
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

    fn build(stg_text: &str, eqn: &str, gate: &str) -> (LocalStg, AdversaryOracle) {
        let stg = parse_astg(stg_text).expect("valid STG");
        let lib = GateLibrary::from_netlist(&parse_eqn(eqn).expect("valid EQN"));
        let ctx = GateContext::bind(lib.gate(gate).expect("gate exists"), &stg).expect("binds");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let local = crate::local::LocalStg::project_from(&mg, &ctx).expect("projects");
        (local, AdversaryOracle::new(&stg))
    }

    #[test]
    fn and_gate_relaxes_rising_order_keeps_cycle_boundary() {
        // o = x·y with x- triggering the fall. The rising-side ordering
        // x+ ⇒ y+ can be relaxed (an AND gate waits for both inputs), but
        // the cross-cycle ordering y- ⇒ x+ is load-bearing: if the next
        // cycle's x+ overtakes the previous cycle's y-, the gate sees
        // x·y = 1 and pulses early. Exactly one constraint must survive.
        let (local, oracle) = build(AND2, "o = x*y;", "o");
        let mut out = ExpandOutcome::default();
        expand(local, &oracle, 1000, &mut out).expect("expands");
        let rendered: Vec<String> = out.constraints.iter().map(|c| c.to_string()).collect();
        assert_eq!(rendered, vec!["o: y- < x+"]);
    }

    #[test]
    fn hazardous_handover_keeps_one_constraint() {
        // o = y + z holding 1 across the z+ ⇒ y- handover: the ordering is
        // load-bearing, expansion must emit exactly that constraint.
        let text = "\
.model handover
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
        let (local, oracle) = build(text, "o = y + z;", "o");
        let mut out = ExpandOutcome::default();
        expand(local, &oracle, 1000, &mut out).expect("expands");
        let rendered: Vec<String> = out.constraints.iter().map(|c| c.to_string()).collect();
        assert_eq!(rendered, vec!["o: z+ < y-"]);
    }

    #[test]
    fn or_causality_case3_decomposes_without_constraints() {
        // o = x + y with o+ triggered by x+; y+ overtaking is legitimate
        // OR-causality: the decomposition resolves it with no constraint.
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
        let (local, oracle) = build(text, "o = x + y;", "o");
        let mut out = ExpandOutcome::default();
        expand(local, &oracle, 1000, &mut out).expect("expands");
        assert!(
            out.trace
                .iter()
                .any(|e| matches!(e, TraceEvent::Decomposed { .. })),
            "expected a decomposition, trace: {:?}",
            out.trace
        );
        // x+ ⇒ y+ itself must not survive as a constraint; the sub-STG
        // processing may pin other orderings, but the OR race is free.
        assert!(
            !out.constraints
                .iter()
                .any(|c| c.to_string() == "o: x+ < y+"),
            "got {:?}",
            out.constraints
        );
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let (local, oracle) = build(AND2, "o = x*y;", "o");
        let mut out = ExpandOutcome::default();
        let err = expand(local, &oracle, 1, &mut out);
        assert!(matches!(
            err,
            Err(CoreError::IterationBudgetExceeded { .. })
        ));
    }

    #[test]
    fn cached_expansion_matches_uncached_bit_for_bit() {
        let (local, oracle) = build(AND2, "o = x*y;", "o");
        let mut plain = ExpandOutcome::default();
        expand(local.clone(), &oracle, 1000, &mut plain).expect("expands");

        // A cold run and an admitting run through the reuse stack equal
        // the reference path; the cold one explores every trial.
        let caches = Caches::default();
        let ctx = ExpandCtx::with_defaults(&oracle, 1000, Some(&caches));
        for pass in ["cold", "admitting"] {
            let mut run = ExpandOutcome::default();
            expand_ctx(local.clone(), &ctx, &mut run).expect("expands");
            assert_eq!(plain.constraints, run.constraints, "{pass}");
            assert_eq!(plain.trace, run.trace, "{pass}");
            assert_eq!(plain.iterations, run.iterations, "{pass}");
            assert!(
                pass != "cold" || run.metrics.sg_cache_misses > 0,
                "a cold run must explore its trials: {run:?}"
            );
        }

        // A warm re-run answers every graph from the stack: no
        // exploration.
        let mut warm = ExpandOutcome::default();
        expand_ctx(local, &ctx, &mut warm).expect("expands");
        assert_eq!(plain.constraints, warm.constraints);
        assert_eq!(plain.trace, warm.trace);
        assert!(
            warm.metrics.sg_cache_hits > 0,
            "a warm run must hit the cache: {warm:?}"
        );
        assert_eq!(warm.metrics.sg_cache_misses, 0);
        assert_eq!(warm.metrics.states_explored, 0);
    }

    #[test]
    fn c_element_needs_no_constraints() {
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
        let (local, oracle) = build(text, "c = a*b + a*c + b*c;", "c");
        let mut out = ExpandOutcome::default();
        expand(local, &oracle, 1000, &mut out).expect("expands");
        assert!(out.constraints.is_empty());
    }
}
