//! Projection of a marked-graph STG onto a subset of signals — Algorithm 1
//! of the thesis (Sec. 5.2.2).
//!
//! Hiding a transition `t` replaces it with arcs from every predecessor to
//! every successor, summing tokens along the collapsed path; redundant arcs
//! are eliminated after each hiding step ([`MgStg::bypass`]).

use std::collections::BTreeSet;

use crate::mg::{Bypass, MgStg};
use crate::signal::SignalId;
use crate::stg::StgError;

impl MgStg {
    /// Projects the marked graph onto `keep` (Algorithm 1): hides every
    /// transition whose signal is not in the set, preserving the firing
    /// order of the kept transitions.
    ///
    /// # Errors
    ///
    /// [`StgError::MalformedMarkedGraph`] if hiding exposes a token-free
    /// self-loop (the input was not live).
    pub fn project(&self, keep: &BTreeSet<SignalId>) -> Result<MgStg, StgError> {
        let mut g = self.clone();
        for t in g.transitions() {
            if !keep.contains(&g.label(t).signal) {
                g.bypass(Bypass::Hide(t))?;
            }
        }
        Ok(g)
    }

    /// Projects onto the operator signals of a gate: the gate's output plus
    /// its fan-in signals (`X = o ∪ fan-in(o)` of thesis Sec. 5.2.2).
    ///
    /// # Errors
    ///
    /// Same as [`MgStg::project`].
    pub fn project_on_gate(&self, output: SignalId, fanin: &[SignalId]) -> Result<MgStg, StgError> {
        let mut keep: BTreeSet<SignalId> = fanin.iter().copied().collect();
        keep.insert(output);
        self.project(&keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_astg;
    use crate::sg::StateGraph;
    use crate::signal::Polarity;

    fn chain() -> MgStg {
        // a+ → x+ → b+ → a- → x- → b- → (token) a+
        let text = "\
.model chain
.inputs a
.outputs x b
.graph
a+ x+
x+ b+
b+ a-
a- x-
x- b-
b- a+
.marking { <b-,a+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        MgStg::from_stg_mg(&stg).expect("marked graph")
    }

    #[test]
    fn hiding_middle_signal_collapses_path() {
        let mg = chain();
        let a = mg.signal_by_name("a").expect("declared");
        let b = mg.signal_by_name("b").expect("declared");
        let keep: BTreeSet<SignalId> = [a, b].into_iter().collect();
        let proj = mg.project(&keep).expect("live");
        assert_eq!(proj.transitions().len(), 4);
        let ap = proj.transition_by_label("a+").expect("kept");
        let bp = proj.transition_by_label("b+").expect("kept");
        assert!(proj.arc(ap, bp).is_some(), "a+ ⇒ b+ after hiding x+");
        assert!(proj.is_live());
        assert!(proj.is_safe());
    }

    #[test]
    fn projection_preserves_firing_order_language() {
        // The order of kept transitions in the projected MG's SG must match
        // the order observed in the original SG restricted to kept signals.
        let mg = chain();
        let a = mg.signal_by_name("a").expect("declared");
        let b = mg.signal_by_name("b").expect("declared");
        let keep: BTreeSet<SignalId> = [a, b].into_iter().collect();
        let proj = mg.project(&keep).expect("live");

        let trace = |g: &MgStg, n: usize| -> Vec<String> {
            // Deterministic firing sequence, recording the first `n` kept
            // transitions.
            let mut m = g.initial_marking();
            let mut out = Vec::new();
            while out.len() < n {
                let t = g
                    .transitions()
                    .into_iter()
                    .find(|&t| g.enabled_in(t, &m))
                    .expect("live");
                if keep.contains(&g.label(t).signal) {
                    out.push(g.label_string(t));
                }
                m = g.fire_in(t, &m);
            }
            out
        };
        // The chain has a single firing sequence, so the kept subsequence
        // must match exactly between original and projection.
        assert_eq!(trace(&mg, 8), trace(&proj, 8));
    }

    #[test]
    fn thesis_fig_5_3_shape() {
        // Fig. 5.3: hiding t* between two layers produces the complete
        // bipartite connection of its predecessors and successors.
        let text = "\
.model fig53
.inputs p q t r s
.graph
p+ t+
q+ t+
t+ r+
t+ s+
r+ p+
s+ q+
.marking { <r+,p+> <s+,q+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let keep: BTreeSet<SignalId> = ["p", "q", "r", "s"]
            .iter()
            .map(|n| mg.signal_by_name(n).expect("declared"))
            .collect();
        let proj = mg.project(&keep).expect("live");
        let id = |l: &str| proj.transition_by_label(l).expect("kept");
        for src in ["p+", "q+"] {
            for dst in ["r+", "s+"] {
                assert!(
                    proj.arc(id(src), id(dst)).is_some(),
                    "{src} ⇒ {dst} missing after hiding t+"
                );
            }
        }
    }

    #[test]
    fn projection_of_imec_onto_gate_i0() {
        // Gate i0 = precharged + wenin' (fan-in {precharged, wenin}).
        let stg = parse_astg(crate::parse::IMEC_RAM_READ_SBUF_G).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("MG: the STG has no choice places");
        let i0 = mg.signal_by_name("i0").expect("declared");
        let pre = mg.signal_by_name("precharged").expect("declared");
        let wenin = mg.signal_by_name("wenin").expect("declared");
        let local = mg.project_on_gate(i0, &[pre, wenin]).expect("live");
        assert!(local.is_live());
        assert!(local.is_safe());
        // Only transitions on {i0, precharged, wenin} remain.
        for t in local.transitions() {
            let s = local.label(t).signal;
            assert!([i0, pre, wenin].contains(&s));
        }
        let sg = StateGraph::of_mg(&local, 10_000).expect("consistent");
        assert!(sg.state_count() >= 4);
    }

    #[test]
    fn projecting_away_everything_but_one_signal() {
        let mg = chain();
        let a = mg.signal_by_name("a").expect("declared");
        let keep: BTreeSet<SignalId> = [a].into_iter().collect();
        let proj = mg.project(&keep).expect("live");
        assert_eq!(proj.transitions().len(), 2);
        assert!(proj.is_live());
        let sg = StateGraph::of_mg(&proj, 100).expect("consistent");
        assert_eq!(sg.state_count(), 2);
        let _ = Polarity::Plus;
    }

    #[test]
    fn tokens_accumulate_across_hidden_transitions() {
        // a+ →(1 token) x+ →(1 token) b+ → a+: hiding x+ must give the arc
        // a+ ⇒ b+ two tokens.
        let text = "\
.model toks
.inputs a x b
.graph
a+ x+
x+ b+
b+ a+
.marking { <a+,x+> <x+,b+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let a = mg.signal_by_name("a").expect("declared");
        let b = mg.signal_by_name("b").expect("declared");
        let keep: BTreeSet<SignalId> = [a, b].into_iter().collect();
        let proj = mg.project(&keep).expect("live");
        let ap = proj.transition_by_label("a+").expect("kept");
        let bp = proj.transition_by_label("b+").expect("kept");
        assert_eq!(proj.arc(ap, bp).expect("arc").tokens, 2);
    }
}
