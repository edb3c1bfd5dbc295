//! The arc relaxation operation — Algorithm 2 of the thesis (Sec. 5.3.2).
//!
//! Relaxing `x* ⇒ y*` makes the two ordered transitions concurrent while
//! keeping every other ordering: predecessors of `x*` gain arcs to `y*`,
//! successors of `y*` gain arcs from `x*`, tokens carry over, the original
//! arc disappears, and redundant implicit places are swept. The edit is
//! si-stg's bypass primitive ([`MgStg::bypass`]), which projection's
//! hiding step shares.

use si_stg::{Bypass, MgStg, StgError};

/// Relaxes the arc `x ⇒ y` in place (Algorithm 2).
///
/// Token transfer follows the algorithm: a bypass arc is marked when either
/// of the arcs it replaces was marked; with token counts this is the sum
/// along the collapsed two-arc path. Self-loops produced when `x` and `y`
/// are also ordered the other way are dropped when marked (loop-only
/// places).
///
/// # Errors
///
/// [`StgError::MalformedMarkedGraph`] if the arc does not exist or a
/// token-free self-loop appears (the MG was not live).
pub fn relax_arc(g: &mut MgStg, x: usize, y: usize) -> Result<(), StgError> {
    let Some(xy) = g.arc(x, y) else {
        return Err(StgError::MalformedMarkedGraph {
            reason: format!(
                "arc {} ⇒ {} does not exist",
                g.label_string(x),
                g.label_string(y)
            ),
        });
    };
    if xy.restriction {
        return Err(StgError::MalformedMarkedGraph {
            reason: format!(
                "arc {} ⇒ {} is an order-restriction arc and must not be relaxed",
                g.label_string(x),
                g.label_string(y)
            ),
        });
    }

    // Lines 1–12: bypass arcs b ⇒ y and x ⇒ d; line 16: delete the
    // relaxed arc; line 17: sweep redundancy.
    g.bypass(Bypass::Relax(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::{parse_astg, StateGraph};

    fn parse_mg(text: &str) -> MgStg {
        let stg = parse_astg(text).expect("valid");
        MgStg::from_stg_mg(&stg).expect("marked graph")
    }

    /// Thesis Fig. 5.13: relaxing b+ ⇒ a- in a small cycle creates the
    /// redundant arc o+ ⇒ a- which the sweep removes.
    const FIG_5_13: &str = "\
.model fig513
.inputs a b
.outputs o
.graph
a+ o+
b+ o+
o+ a-
b+ b-
b- o-
a- o-
o- a+ b+
b+ a-
.marking { <o-,a+> <o-,b+> }
.end
";

    #[test]
    fn fig_5_13_relaxation_sweeps_redundant_arcs() {
        let mut g = parse_mg(FIG_5_13);
        let bp = g.transition_by_label("b+").expect("present");
        let am = g.transition_by_label("a-").expect("present");
        let op = g.transition_by_label("o+").expect("present");
        assert!(g.arc(bp, am).is_some());
        relax_arc(&mut g, bp, am).expect("relaxes");
        assert!(g.arc(bp, am).is_none(), "relaxed arc removed");
        // The bypass o- ⇒ a- (pred of b+ is o-) would be redundant via
        // o- ⇒ a+ ⇒ ... and the bypass b+ ⇒ o- via b+ ⇒ b- ⇒ o-; the arc
        // o+ ⇒ a- must survive (it orders the acknowledgement).
        assert!(g.arc(op, am).is_some());
        assert!(g.is_live());
        assert!(g.is_safe());
    }

    #[test]
    fn relaxation_makes_transitions_concurrent() {
        // Chain x+ → y+ → o+ → x- → y- → o- → x+: relaxing x+ ⇒ y+ leaves
        // no other ordering path between them.
        let text = "\
.model chain
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- y-
y- o-
o- x+
.marking { <o-,x+> }
.end
";
        let mut g = parse_mg(text);
        let xp = g.transition_by_label("x+").expect("present");
        let yp = g.transition_by_label("y+").expect("present");
        assert!(g.precedes(xp, yp));
        relax_arc(&mut g, xp, yp).expect("relaxes");
        assert!(
            g.concurrent(xp, yp),
            "x+ and y+ concurrent after relaxation"
        );
        // The bypasses keep every other ordering: o- ⇒ y+ and x+ ⇒ o+.
        let om = g.transition_by_label("o-").expect("present");
        let op = g.transition_by_label("o+").expect("present");
        assert!(g.arc(om, yp).is_some());
        assert!(g.arc(xp, op).is_some());
        assert!(g.is_live());
        assert!(g.is_safe());
    }

    #[test]
    fn acknowledged_orderings_survive_relaxation() {
        // In Fig. 5.13 the ordering b+ before a- is also enforced through
        // the acknowledgement path b+ → o+ → a-, so after relaxing the
        // direct arc the transitions are still ordered (not concurrent).
        let mut g = parse_mg(FIG_5_13);
        let bp = g.transition_by_label("b+").expect("present");
        let am = g.transition_by_label("a-").expect("present");
        assert!(g.precedes(bp, am));
        relax_arc(&mut g, bp, am).expect("relaxes");
        assert!(g.precedes(bp, am), "ordering kept through o+");
        assert!(g.arc(bp, am).is_none());
    }

    #[test]
    fn relaxation_preserves_liveness_and_consistency() {
        // Thesis Lemma 1.
        let mut g = parse_mg(FIG_5_13);
        let bp = g.transition_by_label("b+").expect("present");
        let am = g.transition_by_label("a-").expect("present");
        relax_arc(&mut g, bp, am).expect("relaxes");
        assert!(g.is_live());
        // Consistency: the SG still builds without alternation violations.
        StateGraph::of_mg(&g, 10_000).expect("consistent");
    }

    #[test]
    fn relaxation_expands_the_state_space() {
        let mut g = parse_mg(FIG_5_13);
        let before = StateGraph::of_mg(&g, 10_000)
            .expect("consistent")
            .state_count();
        let bp = g.transition_by_label("b+").expect("present");
        let am = g.transition_by_label("a-").expect("present");
        relax_arc(&mut g, bp, am).expect("relaxes");
        let after = StateGraph::of_mg(&g, 10_000)
            .expect("consistent")
            .state_count();
        assert!(after >= before, "{after} < {before}");
    }

    #[test]
    fn missing_arc_is_an_error() {
        let mut g = parse_mg(FIG_5_13);
        let am = g.transition_by_label("a-").expect("present");
        let bp = g.transition_by_label("b+").expect("present");
        assert!(relax_arc(&mut g, am, bp).is_err()); // reversed: no such arc
    }

    #[test]
    fn restriction_arc_cannot_be_relaxed() {
        let mut g = parse_mg(FIG_5_13);
        let bp = g.transition_by_label("b+").expect("present");
        let am = g.transition_by_label("a-").expect("present");
        g.remove_arc(bp, am);
        g.insert_arc(bp, am, 0, true);
        assert!(relax_arc(&mut g, bp, am).is_err());
    }

    #[test]
    fn thesis_fig_5_7_relaxation_token_transfer() {
        // q- ⇒ p+ relaxed: the bypass arc q- ⇒ a+ inherits the marking of
        // <q-, p+>'s path; general-case token bookkeeping.
        let text = "\
.model fig57
.inputs p q a
.outputs o
.graph
p+ a+
a+ o+
o+ a-
a- o-
o- p-
p- q+
q+ q-
q- p+
p+ p-
.marking { <q-,p+> }
.end
";
        let mut g = parse_mg(text);
        let qm = g.transition_by_label("q-").expect("present");
        let pp = g.transition_by_label("p+").expect("present");
        let qp = g.transition_by_label("q+").expect("present");
        relax_arc(&mut g, qm, pp).expect("relaxes");
        // The bypass q+ ⇒ p+ inherits the token of <q-, p+>.
        assert_eq!(g.arc(qp, pp).expect("bypass").tokens, 1);
        assert!(g.arc(qm, pp).is_none());
        assert!(g.is_live());
    }
}
