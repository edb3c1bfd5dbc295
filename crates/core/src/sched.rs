//! The convergence-aware trial scheduler guarding the per-gate
//! relaxation loop (Algorithm 4).
//!
//! The loop `find_next_arc → clone → relax → classify` has no inherent
//! termination guarantee: on adversarial circuits (canonical specimen:
//! corpus seed 189, gate `o2`) the relaxable-arc count oscillates forever
//! while the local state graph grows linearly, so the loop burns whatever
//! iteration budget it is given — the default 20 000 budget means hours on
//! a single gate. The scheduler watches every iteration through two
//! complementary detectors and, under [`DivergencePolicy::Bail`], aborts
//! the gate with a deterministic [`crate::CoreError::Diverged`] carrying a
//! [`DivergenceWitness`]:
//!
//! - **progress ledger** — a fingerprint map over every visited local STG
//!   (via [`si_stg::MgStg::sg_fingerprint`], the streaming digest of
//!   exactly what `sg_key` canonicalizes) paired with the size of the
//!   guaranteed-arc set. Within one loop instance the guaranteed set only
//!   grows, so an equal size implies an equal set; a repeated
//!   (fingerprint, size) pair therefore means the *entire* loop state
//!   repeated and the deterministic loop will cycle forever →
//!   [`DivergenceKind::RepeatedState`].
//! - **contraction watchdog** — a sliding window over the last
//!   `divergence_window` iterations. A converging loop keeps making new
//!   strict minima of the relaxable-arc count on its way to zero; when no
//!   new strict minimum appears for a full window *and* the trial state
//!   graph has not shrunk across that window, the loop is classified as
//!   non-contracting → [`DivergenceKind::NonContraction`]. This catches
//!   the seed-189 shape, where the relaxable count oscillates in a band
//!   and `sg_key` never repeats because the graph keeps growing.
//!
//! Both detectors observe only values that are independent of caching and
//! parallelism (the arc sequence, relaxable-arc counts, state-graph
//! sizes), so a `Diverged` verdict is bit-identical across the whole
//! engine configuration matrix, warm or cold.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use crate::expand::ExpandOutcome;

/// Default sliding-window length for the contraction watchdog
/// ([`crate::EngineConfig::divergence_window`]). Sized so the oscillating
/// specimen (seed 189: band of width ≤ 4, period ≤ 7) trips within ~130
/// iterations — well under a second — while every bundled benchmark and
/// corpus fixture converges long before a window elapses without progress.
pub const DEFAULT_DIVERGENCE_WINDOW: usize = 128;

/// How many trailing arc labels a [`DivergenceWitness`] carries.
const WITNESS_ARCS: usize = 8;

/// What the relaxation loop does when the trial scheduler detects a
/// non-converging gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DivergencePolicy {
    /// Abort the gate immediately with [`crate::CoreError::Diverged`] —
    /// the engine default.
    #[default]
    Bail,
    /// Ignore the detectors and relax until the iteration budget is
    /// exhausted — the historical behaviour, kept by
    /// [`crate::EngineConfig::reference`] (and the plain
    /// [`crate::expand`] entry points) so the differential oracle is
    /// scheduler-free.
    Exhaust,
}

/// Which detector classified the loop as diverging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The progress ledger saw the exact loop state — STG fingerprint plus
    /// guaranteed-set size — a second time: a true cycle.
    RepeatedState,
    /// The contraction watchdog saw a full window without a new strict
    /// minimum of the relaxable-arc count, with a non-shrinking trial
    /// state graph.
    NonContraction,
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceKind::RepeatedState => write!(f, "repeated state"),
            DivergenceKind::NonContraction => write!(f, "non-contracting window"),
        }
    }
}

/// The evidence attached to a [`crate::CoreError::Diverged`] verdict:
/// which detector fired, at which relaxation iteration, and the trailing
/// arc sequence (up to eight most recent `x* => y*` labels, oldest
/// first) — the repeating pattern a human needs to see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceWitness {
    /// Which detector fired.
    pub kind: DivergenceKind,
    /// The relaxation iteration (1-based, as counted by
    /// [`ExpandOutcome::iterations`]) at which it fired.
    pub iteration: usize,
    /// Up to eight (`WITNESS_ARCS`) most recent relaxed arcs, oldest first.
    pub arcs: Vec<String>,
}

impl std::fmt::Display for DivergenceWitness {
    /// Stable one-line rendering — golden snapshots pin it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at iteration {}", self.kind, self.iteration)?;
        if !self.arcs.is_empty() {
            write!(f, "; trailing arcs: {}", self.arcs.join(", "))?;
        }
        Ok(())
    }
}

/// One watchdog sample: the arc relaxed this iteration and the trial
/// state graph's size.
struct Sample {
    arc: String,
    sg_states: usize,
}

/// Per-loop-instance convergence monitor. The relaxation loop constructs
/// one scheduler per [`expand_at`](crate::expand) invocation — each
/// decomposition sub-STG, and each fallback resume (constraint emission is
/// progress), starts with a fresh ledger and window.
pub(crate) struct TrialScheduler {
    policy: DivergencePolicy,
    window: usize,
    /// STG fingerprint → guaranteed-set size at the last visit.
    ledger: HashMap<u64, usize>,
    /// The last `window` samples, oldest first.
    ring: VecDeque<Sample>,
    /// Smallest relaxable-arc count seen so far.
    min_relaxable: usize,
    /// Iterations since `min_relaxable` last strictly decreased.
    since_min: usize,
}

impl TrialScheduler {
    pub(crate) fn new(policy: DivergencePolicy, window: usize) -> Self {
        Self {
            policy,
            window,
            ledger: HashMap::new(),
            ring: VecDeque::new(),
            min_relaxable: usize::MAX,
            since_min: 0,
        }
    }

    /// Feeds one completed iteration (the state *before* the trial, the
    /// arc that was relaxed and the trial's state-graph size) into both
    /// detectors. Returns the witness if either detector fires under
    /// [`DivergencePolicy::Bail`]; a no-op under
    /// [`DivergencePolicy::Exhaust`]. Ledger growth counts into
    /// `out.metrics`.
    pub(crate) fn observe(
        &mut self,
        fingerprint: u64,
        guaranteed_len: usize,
        relaxable: usize,
        arc_text: &str,
        sg_states: usize,
        out: &mut ExpandOutcome,
    ) -> Option<DivergenceWitness> {
        if self.policy == DivergencePolicy::Exhaust {
            return None;
        }
        // Rotate the watchdog window, reusing the evicted sample's string
        // so the steady state allocates nothing.
        if self.window > 0 {
            if self.ring.len() == self.window {
                let mut s = self.ring.pop_front().expect("ring is full");
                s.arc.clear();
                s.arc.push_str(arc_text);
                s.sg_states = sg_states;
                self.ring.push_back(s);
            } else {
                self.ring.push_back(Sample {
                    arc: arc_text.to_string(),
                    sg_states,
                });
            }
        }
        // Progress ledger: a revisit with an unchanged guaranteed-set size
        // is an exact repetition of the loop state.
        match self.ledger.entry(fingerprint) {
            Entry::Vacant(v) => {
                v.insert(guaranteed_len);
                out.metrics.sched_fingerprints += 1;
            }
            Entry::Occupied(mut o) => {
                if *o.get() == guaranteed_len {
                    return Some(self.witness(DivergenceKind::RepeatedState, out.iterations));
                }
                o.insert(guaranteed_len);
            }
        }
        // Contraction watchdog: equal-to-minimum does NOT reset the
        // counter — an oscillating band keeps touching its floor without
        // ever contracting below it.
        if relaxable < self.min_relaxable {
            self.min_relaxable = relaxable;
            self.since_min = 0;
        } else {
            self.since_min += 1;
        }
        if self.window > 0 && self.since_min >= self.window {
            let oldest = self.ring.front().expect("window elapsed");
            if sg_states >= oldest.sg_states {
                return Some(self.witness(DivergenceKind::NonContraction, out.iterations));
            }
        }
        None
    }

    fn witness(&self, kind: DivergenceKind, iteration: usize) -> DivergenceWitness {
        let skip = self.ring.len().saturating_sub(WITNESS_ARCS);
        DivergenceWitness {
            kind,
            iteration,
            arcs: self.ring.iter().skip(skip).map(|s| s.arc.clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `steps` iterations of `(fingerprint, glen, relaxable,
    /// sg_states)` through a scheduler and returns the first witness.
    fn drive(
        sched: &mut TrialScheduler,
        out: &mut ExpandOutcome,
        steps: impl IntoIterator<Item = (u64, usize, usize, usize)>,
    ) -> Option<DivergenceWitness> {
        for (fp, glen, relaxable, sg) in steps {
            out.iterations += 1;
            let arc = format!("a{fp} => b{fp}");
            if let Some(w) = sched.observe(fp, glen, relaxable, &arc, sg, out) {
                return Some(w);
            }
        }
        None
    }

    #[test]
    fn exhaust_policy_never_trips() {
        let mut sched = TrialScheduler::new(DivergencePolicy::Exhaust, 2);
        let mut out = ExpandOutcome::default();
        // The same state over and over: both detectors would fire.
        let w = drive(&mut sched, &mut out, (0..100).map(|_| (7, 0, 5, 10)));
        assert_eq!(w, None);
        assert_eq!(out.metrics.sched_fingerprints, 0);
    }

    #[test]
    fn repeated_state_trips_the_ledger() {
        let mut sched = TrialScheduler::new(DivergencePolicy::Bail, 64);
        let mut out = ExpandOutcome::default();
        let w = drive(
            &mut sched,
            &mut out,
            [(1, 0, 5, 10), (2, 0, 5, 12), (1, 0, 5, 10)],
        )
        .expect("cycle detected");
        assert_eq!(w.kind, DivergenceKind::RepeatedState);
        assert_eq!(w.iteration, 3);
        assert_eq!(out.metrics.sched_fingerprints, 2);
    }

    #[test]
    fn a_grown_guaranteed_set_is_progress_not_a_cycle() {
        let mut sched = TrialScheduler::new(DivergencePolicy::Bail, 64);
        let mut out = ExpandOutcome::default();
        // Same fingerprint, but the guaranteed set grew in between: the
        // loop state did not repeat.
        let w = drive(&mut sched, &mut out, [(1, 0, 5, 10), (1, 1, 4, 10)]);
        assert_eq!(w, None);
    }

    #[test]
    fn stalled_minimum_trips_the_watchdog() {
        let mut sched = TrialScheduler::new(DivergencePolicy::Bail, 4);
        let mut out = ExpandOutcome::default();
        // Relaxable oscillates in a band touching its floor; the SG grows.
        let band = [3usize, 5, 4, 3, 6, 3, 5, 4];
        let w = drive(
            &mut sched,
            &mut out,
            (0..20).map(|i| (i as u64, 0, band[i % band.len()], 10 + i)),
        )
        .expect("watchdog fired");
        assert_eq!(w.kind, DivergenceKind::NonContraction);
        assert!(!w.arcs.is_empty() && w.arcs.len() <= 4);
    }

    #[test]
    fn fresh_minima_keep_the_watchdog_quiet() {
        let mut sched = TrialScheduler::new(DivergencePolicy::Bail, 4);
        let mut out = ExpandOutcome::default();
        // Every 3rd iteration contracts strictly: converging behaviour.
        let w = drive(
            &mut sched,
            &mut out,
            (0..30).map(|i| (i as u64, 0, 100 - i / 3, 10 + i)),
        );
        assert_eq!(w, None);
    }

    #[test]
    fn a_shrinking_state_graph_vetoes_the_watchdog() {
        let mut sched = TrialScheduler::new(DivergencePolicy::Bail, 4);
        let mut out = ExpandOutcome::default();
        // No new minima, but the SG is strictly shrinking across the
        // window — that is contraction in the other currency.
        let w = drive(
            &mut sched,
            &mut out,
            (0..6).map(|i| (i as u64, 0, 5, 100 - i)),
        );
        assert_eq!(w, None);
    }

    #[test]
    fn witness_arcs_are_capped_and_oldest_first() {
        let mut sched = TrialScheduler::new(DivergencePolicy::Bail, 32);
        let mut out = ExpandOutcome::default();
        let w = drive(
            &mut sched,
            &mut out,
            (0..40).map(|i| (i as u64, 0, 5, 10 + i)),
        )
        .expect("watchdog fired");
        assert_eq!(w.arcs.len(), WITNESS_ARCS);
        let first: Vec<&str> = w.arcs[0].split(' ').collect();
        let last: Vec<&str> = w.arcs[WITNESS_ARCS - 1].split(' ').collect();
        assert!(first[0] < last[0], "oldest first: {:?}", w.arcs);
        assert_eq!(
            w.to_string(),
            format!(
                "non-contracting window at iteration {}; trailing arcs: {}",
                w.iteration,
                w.arcs.join(", ")
            )
        );
    }
}
