//! The covering ledger guarding the per-gate relaxation loop
//! (Algorithm 4).
//!
//! The loop `find_next_arc → clone → relax → classify` has no inherent
//! termination guarantee. `relax_arc` gives a bypass arc the sum of the
//! tokens on the two arcs it replaces, and on some circuits (canonical
//! specimen: corpus seed 189, gate `o2`) the loop then cycles through a
//! few arcs, each round adding tokens and growing the local state graph.
//! Such a loop burns whatever iteration budget it is given: the default
//! 20 000 means hours on one gate. Under [`DivergencePolicy::Bail`] one
//! covering ledger, in the spirit of Karp–Miller coverability trees
//! (Karp & Miller, 1969), watches every iteration and aborts the gate
//! with a deterministic [`crate::CoreError::Diverged`] carrying a
//! [`DivergenceWitness`].
//!
//! The ledger keys each pre-trial loop state by its *skeleton*: the local
//! STG without token counts ([`si_stg::MgStg::skeleton_fingerprint`]: the
//! initial code, the alive transitions with ids and labels, the arcs with
//! their restriction flags) plus the size of the guaranteed-arc set.
//! Within one loop instance the guaranteed set only grows, so its size
//! identifies it. Under each key the ledger keeps the token vectors
//! ([`si_stg::MgStg::arc_tokens`]) of the earlier visits. The loop bails
//! when the current vector *covers* one of them: at least as many tokens
//! on every arc.
//!
//! - **Equal vectors give [`DivergenceKind::RepeatedState`], a proof.**
//!   The loop is a deterministic function of (local STG, guaranteed set),
//!   so a state that comes back repeats its trials forever. The only
//!   caveat is a 64-bit collision of skeleton keys.
//! - **A vector larger on some arc gives [`DivergenceKind::TokenPump`], a
//!   heuristic.** In a Petri net a covering marking lets the firing
//!   sequence that reached it repeat, because firing is monotone in
//!   tokens. Here the next arc and its case are read off the local state
//!   graph, which changes with the tokens, so covering does not imply
//!   that the loop repeats. The verdict rests on evidence: on corpus seeds
//!   1..=1200 at 10 and 12 signals it fires on exactly the rows that do
//!   not converge under [`DivergencePolicy::Exhaust`], and `si_fuzz`
//!   audits every bail it scans (`docs/diagnostics.md`, `Diverged`).
//!
//! The ledger observes only the loop state, which is independent of
//! caching and parallelism, so a `Diverged` verdict is bit-identical
//! across the whole engine configuration matrix, warm or cold.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::Range;

use si_stg::{extend_fingerprint, MgStg};

use crate::cache::PassThrough;
use crate::expand::ExpandOutcome;

/// What the relaxation loop does when the covering ledger detects a
/// non-converging gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DivergencePolicy {
    /// Abort the gate immediately with [`crate::CoreError::Diverged`] —
    /// the engine default.
    #[default]
    Bail,
    /// Keep no ledger and relax until the iteration budget is exhausted —
    /// the historical behaviour, kept by [`crate::EngineConfig::reference`]
    /// (and through it [`crate::derive_timing_constraints`]) so the
    /// differential oracle is ledger-free.
    Exhaust,
}

/// Which sign of divergence the ledger saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The loop state came back with the same token vector: a true
    /// cycle, proven.
    RepeatedState,
    /// The loop state came back with a token vector that covers the
    /// earlier one and is larger on at least one arc: a heuristic sign of
    /// non-termination, not a proof.
    TokenPump,
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceKind::RepeatedState => write!(f, "repeated state"),
            DivergenceKind::TokenPump => write!(f, "token pump"),
        }
    }
}

/// The evidence attached to a [`crate::CoreError::Diverged`] verdict:
/// which sign the ledger saw, at which relaxation iteration, which earlier
/// iteration's loop state it covers, and the arcs whose tokens grew in
/// between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceWitness {
    /// Which sign the ledger saw.
    pub kind: DivergenceKind,
    /// The relaxation iteration (1-based, as counted by
    /// [`ExpandOutcome::iterations`]) at which it fired.
    pub iteration: usize,
    /// The earlier iteration whose loop state this one covers.
    pub since: usize,
    /// The arcs (`x* => y*`, in arc-key order) holding more tokens than at
    /// `since`; empty for [`DivergenceKind::RepeatedState`].
    pub arcs: Vec<String>,
}

impl std::fmt::Display for DivergenceWitness {
    /// Stable one-line rendering — golden snapshots pin it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let relation = match self.kind {
            DivergenceKind::RepeatedState => "repeats",
            DivergenceKind::TokenPump => "covers",
        };
        write!(
            f,
            "{} at iteration {} ({relation} iteration {})",
            self.kind, self.iteration, self.since
        )?;
        if !self.arcs.is_empty() {
            write!(f, "; growing arcs: {}", self.arcs.join(", "))?;
        }
        Ok(())
    }
}

/// One observed pre-trial loop state.
struct Visit {
    /// The relaxation iteration that observed it.
    iteration: usize,
    /// The previous visit with the same skeleton key.
    prev: Option<usize>,
    /// Its token vector's place in [`CoveringLedger::tokens`].
    tokens: Range<usize>,
}

/// Per-loop-instance divergence monitor. The relaxation loop builds one
/// ledger per `expand_at` invocation, and only under
/// [`DivergencePolicy::Bail`]: each decomposition sub-STG, and each
/// fallback resume (constraint emission is progress), starts afresh.
pub(crate) struct CoveringLedger {
    /// Skeleton key → index of its latest visit in `visits`.
    latest: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    /// Every visit in iteration order, chained per key.
    visits: Vec<Visit>,
    /// The visits' token vectors, packed end to end.
    tokens: Vec<u32>,
}

impl CoveringLedger {
    /// The ledger of one loop instance under `policy`; `None` under
    /// [`DivergencePolicy::Exhaust`], which never fingerprints.
    pub(crate) fn for_policy(policy: DivergencePolicy) -> Option<Self> {
        (policy == DivergencePolicy::Bail).then(|| Self {
            latest: HashMap::default(),
            visits: Vec::new(),
            tokens: Vec::new(),
        })
    }

    /// Records the pre-trial loop state — `mg` with a guaranteed set of
    /// `guaranteed` arcs — at iteration `out.iterations`. Returns the
    /// witness when its token vector covers an earlier visit's on the same
    /// skeleton, naming the most recent such visit. New keys count into
    /// `out.metrics`.
    pub(crate) fn observe(
        &mut self,
        mg: &MgStg,
        guaranteed: usize,
        out: &mut ExpandOutcome,
    ) -> Option<DivergenceWitness> {
        let key = extend_fingerprint(mg.skeleton_fingerprint(), [guaranteed as u64]);
        let start = self.tokens.len();
        self.tokens.extend(mg.arc_tokens());
        let current = &self.tokens[start..];
        let prev = self.latest.get(&key).copied();
        if prev.is_none() {
            out.metrics.sched_fingerprints += 1;
        }
        let mut earlier = prev;
        while let Some(index) = earlier {
            let visit = &self.visits[index];
            let old = &self.tokens[visit.tokens.clone()];
            if old.len() == current.len() && current.iter().zip(old).all(|(new, old)| new >= old) {
                let arcs: Vec<String> = mg
                    .arcs()
                    .zip(current.iter().zip(old))
                    .filter(|(_, (new, old))| new > old)
                    .map(|(((a, b), _), _)| {
                        format!("{} => {}", mg.label_string(a), mg.label_string(b))
                    })
                    .collect();
                return Some(DivergenceWitness {
                    kind: if arcs.is_empty() {
                        DivergenceKind::RepeatedState
                    } else {
                        DivergenceKind::TokenPump
                    },
                    iteration: out.iterations,
                    since: visit.iteration,
                    arcs,
                });
            }
            earlier = visit.prev;
        }
        self.latest.insert(key, self.visits.len());
        self.visits.push(Visit {
            iteration: out.iterations,
            prev,
            tokens: start..self.tokens.len(),
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::parse_astg;

    /// A three-signal ring: `a+ ⇒ b+ ⇒ c+ ⇒ a- ⇒ b- ⇒ c- ⇒ a+`.
    fn ring() -> MgStg {
        let stg = parse_astg(
            "\
.model ring
.inputs a b
.outputs c
.graph
a+ b+
b+ c+
c+ a-
a- b-
b- c-
c- a+
.marking { <c-,a+> }
.end
",
        )
        .expect("valid STG");
        MgStg::from_stg_mg(&stg).expect("marked graph")
    }

    /// `mg` with `tokens` on the arc `src ⇒ dst` (rendered labels).
    fn with_tokens(mg: &MgStg, src: &str, dst: &str, tokens: u32) -> MgStg {
        let (a, b) = (
            mg.transition_by_label(src).expect("src"),
            mg.transition_by_label(dst).expect("dst"),
        );
        let mut mg = mg.clone();
        let attr = mg.remove_arc(a, b).expect("arc exists");
        mg.insert_arc(a, b, tokens, attr.restriction);
        mg
    }

    /// The ring with its token moved from `c- ⇒ a+` to `a+ ⇒ b+`: one arc
    /// up, another down, so neither token vector covers the other.
    fn moved(mg: &MgStg) -> MgStg {
        with_tokens(&with_tokens(mg, "a+", "b+", 1), "c-", "a+", 0)
    }

    /// Feeds `(mg, guaranteed)` loop states to a fresh ledger, one per
    /// iteration, and returns the first witness.
    fn drive(states: &[(&MgStg, usize)], out: &mut ExpandOutcome) -> Option<DivergenceWitness> {
        let mut ledger = CoveringLedger::for_policy(DivergencePolicy::Bail).expect("bail");
        for &(mg, guaranteed) in states {
            out.iterations += 1;
            if let Some(w) = ledger.observe(mg, guaranteed, out) {
                return Some(w);
            }
        }
        None
    }

    #[test]
    fn exhaust_policy_never_trips() {
        // No ledger, so nothing fingerprints and nothing trips.
        assert!(CoveringLedger::for_policy(DivergencePolicy::Exhaust).is_none());
        assert!(CoveringLedger::for_policy(DivergencePolicy::Bail).is_some());
    }

    #[test]
    fn repeated_state_trips_the_ledger() {
        let mg = ring();
        let other = moved(&mg);
        let mut out = ExpandOutcome::default();
        // The second state does not cover the first; the third is the
        // first again.
        let w = drive(&[(&mg, 0), (&other, 0), (&mg, 0)], &mut out).expect("cycle detected");
        assert_eq!(w.kind, DivergenceKind::RepeatedState);
        assert_eq!((w.iteration, w.since), (3, 1));
        assert!(w.arcs.is_empty());
        assert_eq!(
            w.to_string(),
            "repeated state at iteration 3 (repeats iteration 1)"
        );
        // One skeleton, visited three times.
        assert_eq!(out.metrics.sched_fingerprints, 1);
    }

    #[test]
    fn a_covering_vector_is_a_token_pump() {
        let mg = ring();
        let pumped = with_tokens(&mg, "b+", "c+", 2);
        let mut out = ExpandOutcome::default();
        let w = drive(&[(&mg, 0), (&pumped, 0)], &mut out).expect("pump detected");
        assert_eq!(w.kind, DivergenceKind::TokenPump);
        assert_eq!((w.iteration, w.since), (2, 1));
        assert_eq!(w.arcs, vec!["b+ => c+"]);
        assert_eq!(
            w.to_string(),
            "token pump at iteration 2 (covers iteration 1); growing arcs: b+ => c+"
        );
    }

    #[test]
    fn incomparable_token_vectors_give_no_verdict() {
        let mg = ring();
        let mut out = ExpandOutcome::default();
        assert_eq!(drive(&[(&mg, 0), (&moved(&mg), 0)], &mut out), None);
    }

    #[test]
    fn a_grown_guaranteed_set_is_progress_not_a_cycle() {
        let mg = ring();
        let pumped = with_tokens(&mg, "b+", "c+", 1);
        let mut out = ExpandOutcome::default();
        // The same arc skeleton, equal or covering tokens, but the
        // guaranteed set grew in between: a new loop state.
        assert_eq!(drive(&[(&mg, 0), (&mg, 1), (&pumped, 2)], &mut out), None);
        assert_eq!(out.metrics.sched_fingerprints, 3);
    }
}
