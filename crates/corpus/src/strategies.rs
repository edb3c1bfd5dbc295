//! Shared property-test strategies.
//!
//! The random-ring generators and the single-arc [`Edit`] space used by
//! the σ-space explorer proptests (`si-stg`) and the trial classification
//! proptests (`si-core`) live here once, instead of being duplicated per
//! test file. The corpus generator itself is also exposed as a strategy
//! ([`corpus_case`]) for end-to-end properties over whole circuits.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use si_boolean::{parse_eqn, GateLibrary};
use si_core::{GateContext, LocalStg};
use si_stg::{MgStg, Polarity, SignalKind, Stg, TransitionLabel};

use crate::spec::{CorpusSpec, MarkingStyle};

/// One randomly generated marked graph: a consistent ring
/// `s0+ … s(k-1)+ s0- … s(k-1)-` (one token on the closing arc) plus a
/// handful of random extra arcs that may introduce concurrency, deadlock
/// or inconsistency — all of which the derivation paths under test must
/// report identically.
#[derive(Debug, Clone)]
pub struct RandomMg {
    /// Ring width (signal count).
    pub signals: usize,
    /// Extra arcs as `(from, to, tokens)`, indices wrapping over the ring.
    pub extras: Vec<(usize, usize, u32)>,
}

impl RandomMg {
    /// Materializes the marked graph.
    #[must_use]
    pub fn build(&self) -> MgStg {
        let mut stg = Stg::new("prop");
        let sigs: Vec<_> = (0..self.signals)
            .map(|i| stg.add_signal(format!("s{i}"), SignalKind::Input))
            .collect();
        let mut mg = MgStg::empty_like(&stg);
        let mut ring = Vec::new();
        for &s in &sigs {
            ring.push(mg.add_transition(TransitionLabel::first(s, Polarity::Plus)));
        }
        for &s in &sigs {
            ring.push(mg.add_transition(TransitionLabel::first(s, Polarity::Minus)));
        }
        for w in 0..ring.len() {
            let next = (w + 1) % ring.len();
            let tokens = u32::from(next == 0);
            mg.insert_arc(ring[w], ring[next], tokens, false);
        }
        for &(a, b, tokens) in &self.extras {
            mg.insert_arc(ring[a % ring.len()], ring[b % ring.len()], tokens, false);
        }
        mg
    }
}

/// One randomly generated local STG: `k` input signals plus one gate
/// output `z` (a `k`-input C-element), wired as the consistent handshake
/// ring `s0+ … s(k-1)+ z+ s0- … s(k-1)- z-` (one token on the closing
/// arc) plus random extra arcs that may introduce concurrency, deadlock,
/// non-conformance or inconsistency.
#[derive(Debug, Clone)]
pub struct RandomLocal {
    /// Input signal count (the gate is a `k`-input C-element).
    pub inputs: usize,
    /// Extra arcs as `(from, to, tokens)`, indices wrapping over the ring.
    pub extras: Vec<(usize, usize, u32)>,
}

impl RandomLocal {
    /// Materializes the local STG with its bound gate context.
    ///
    /// # Panics
    ///
    /// Never for well-formed field values: the C-element equation always
    /// parses and binds.
    #[must_use]
    pub fn build(&self) -> LocalStg {
        let mut stg = Stg::new("prop");
        let sigs: Vec<_> = (0..self.inputs)
            .map(|i| stg.add_signal(format!("s{i}"), SignalKind::Input))
            .collect();
        let z = stg.add_signal("z", SignalKind::Output);
        // A C-element over all inputs: z rises when every input is high,
        // falls when every input is low, holds otherwise.
        let and: Vec<String> = (0..self.inputs).map(|i| format!("s{i}")).collect();
        let hold: Vec<String> = (0..self.inputs).map(|i| format!("z*s{i}")).collect();
        let eqn = format!("z = {} + {};", and.join("*"), hold.join(" + "));
        let netlist = parse_eqn(&eqn).expect("well-formed C-element equation");
        let library = GateLibrary::from_netlist(&netlist);
        let ctx = GateContext::bind(&library.gates[0], &stg).expect("binds");

        let mut mg = MgStg::empty_like(&stg);
        let mut ring = Vec::new();
        for &s in &sigs {
            ring.push(mg.add_transition(TransitionLabel::first(s, Polarity::Plus)));
        }
        ring.push(mg.add_transition(TransitionLabel::first(z, Polarity::Plus)));
        for &s in &sigs {
            ring.push(mg.add_transition(TransitionLabel::first(s, Polarity::Minus)));
        }
        ring.push(mg.add_transition(TransitionLabel::first(z, Polarity::Minus)));
        for w in 0..ring.len() {
            let next = (w + 1) % ring.len();
            let tokens = u32::from(next == 0);
            mg.insert_arc(ring[w], ring[next], tokens, false);
        }
        for &(a, b, tokens) in &self.extras {
            mg.insert_arc(ring[a % ring.len()], ring[b % ring.len()], tokens, false);
        }
        LocalStg {
            mg,
            ctx: Arc::new(ctx),
            guaranteed: BTreeSet::new(),
        }
    }
}

/// A single-arc edit: remove an arc, insert one, or retoken one — the
/// same edit space the relaxation loop's trials draw from.
#[derive(Debug, Clone)]
pub enum Edit {
    /// Remove the `i`-th arc (wrapping).
    Remove(usize),
    /// Insert an arc between the wrapped transition indices.
    Insert(usize, usize, u32),
    /// Replace the `i`-th arc's token count (wrapping).
    Retoken(usize, u32),
}

impl Edit {
    /// Applies the edit to a clone of `mg` (indices wrap over the current
    /// arc list / transition list, so every drawn edit is applicable).
    #[must_use]
    pub fn apply_mg(&self, mg: &MgStg) -> MgStg {
        let mut out = mg.clone();
        let arcs: Vec<(usize, usize)> = mg.arcs().map(|(k, _)| k).collect();
        let ts = mg.transitions();
        match *self {
            Edit::Remove(i) => {
                let (a, b) = arcs[i % arcs.len()];
                out.remove_arc(a, b);
            }
            Edit::Insert(a, b, tokens) => {
                out.insert_arc(ts[a % ts.len()], ts[b % ts.len()], tokens, false);
            }
            Edit::Retoken(i, tokens) => {
                let (a, b) = arcs[i % arcs.len()];
                out.remove_arc(a, b);
                out.insert_arc(a, b, tokens, false);
            }
        }
        out
    }

    /// Applies the edit to a clone of `local`'s marked graph, keeping the
    /// bound gate context.
    #[must_use]
    pub fn apply_local(&self, local: &LocalStg) -> LocalStg {
        let mut out = local.clone();
        out.mg = self.apply_mg(&local.mg);
        out
    }
}

/// The single-arc edit space.
pub fn edit() -> impl Strategy<Value = Edit> {
    (0u8..3, 0usize..32, 0usize..32, 0u32..=2).prop_map(|(kind, a, b, tokens)| match kind {
        0 => Edit::Remove(a),
        1 => Edit::Insert(a, b, tokens),
        _ => Edit::Retoken(a, tokens),
    })
}

/// A random ring MG plus a random single-arc edit — the case shape of
/// the σ-space explorer proptests.
pub fn random_mg_case() -> impl Strategy<Value = (RandomMg, Edit)> {
    let mg = (
        2usize..=5,
        proptest::collection::vec((0usize..10, 0usize..10, 0u32..=1), 0..4),
    )
        .prop_map(|(signals, extras)| RandomMg { signals, extras });
    (mg, edit())
}

/// A random local STG, a random single-arc edit, and a wrapped relaxed
/// transition index — the case shape of the trial classification
/// proptests.
pub fn random_local_case() -> impl Strategy<Value = (RandomLocal, Edit, usize)> {
    let local = (
        2usize..=4,
        proptest::collection::vec((0usize..12, 0usize..12, 0u32..=1), 0..4),
    )
        .prop_map(|(inputs, extras)| RandomLocal { inputs, extras });
    (local, edit(), 0usize..32)
}

/// A random [`CorpusSpec`] over the whole supported envelope (already
/// sanitized).
pub fn corpus_spec() -> impl Strategy<Value = CorpusSpec> {
    (2usize..=12, 0usize..=3, 0u8..=100, 1usize..=4, 0u8..4).prop_map(
        |(signals, choices, or_density, max_fork, style)| {
            CorpusSpec {
                signals,
                choices,
                or_density,
                max_fork,
                interleave: style & 1 == 1,
                marking: if style & 2 == 0 {
                    MarkingStyle::ImplicitArcs
                } else {
                    MarkingStyle::ExplicitPlace
                },
            }
            .sanitized()
        },
    )
}

/// A random `(spec, seed)` generation case.
pub fn corpus_case() -> impl Strategy<Value = (CorpusSpec, u64)> {
    (corpus_spec(), 0u64..=u64::MAX / 2)
}
