//! Property-based tests over randomly generated marked-graph STGs.
//!
//! Generator: a random ring of `k` signals' rising/falling transitions
//! (each `s+` before `s-`), one token closing the ring, plus random
//! forward chords with zero tokens. Rings of this shape are always live,
//! safe and consistent; forward chords preserve all three (a chord is
//! parallel to a ring segment, so every cycle through it contains the
//! ring token). The thesis invariants are then checked on random
//! relaxations, projections and redundancy sweeps.

use proptest::prelude::*;
use si_redress::core::relax_arc;
use si_redress::stg::{MgStg, SignalKind, StateGraph, TransitionLabel};
use si_redress::stg::{Polarity, SignalId, Stg};
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
struct RandomRing {
    signals: usize,
    order: Vec<usize>,           // permutation of 2k slots; slot -> signal
    chords: Vec<(usize, usize)>, // forward (i, j) positions, j > i + 1
}

fn ring_strategy() -> impl Strategy<Value = RandomRing> {
    (2usize..5)
        .prop_flat_map(|signals| {
            let slots = 2 * signals;
            let order = Just((0..signals).chain(0..signals).collect::<Vec<usize>>()).prop_shuffle();
            let chords = proptest::collection::vec(
                (0..slots, 0..slots).prop_filter_map("forward non-adjacent", move |(a, b)| {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    (hi > lo + 1 && hi < slots).then_some((lo, hi))
                }),
                0..4,
            );
            (Just(signals), order, chords)
        })
        .prop_map(|(signals, order, chords)| RandomRing {
            signals,
            order,
            chords,
        })
}

/// Materializes the random ring as an `MgStg`. The i-th occurrence of a
/// signal in the shuffled order is its rising edge, the second its
/// falling edge — guaranteeing consistency.
fn build(ring: &RandomRing) -> MgStg {
    let mut stg = Stg::new("random-ring");
    let ids: Vec<SignalId> = (0..ring.signals)
        .map(|i| stg.add_signal(format!("s{i}"), SignalKind::Input))
        .collect();
    let mut mg = MgStg::empty_like(&stg);
    let mut seen = vec![0usize; ring.signals];
    let mut tids = Vec::new();
    for &sig in &ring.order {
        let polarity = if seen[sig] == 0 {
            Polarity::Plus
        } else {
            Polarity::Minus
        };
        seen[sig] += 1;
        tids.push(mg.add_transition(TransitionLabel::first(ids[sig], polarity)));
    }
    let slots = tids.len();
    for i in 0..slots {
        let tokens = u32::from(i + 1 == slots);
        mg.insert_arc(tids[i], tids[(i + 1) % slots], tokens, false);
    }
    for &(a, b) in &ring.chords {
        if a != b {
            mg.insert_arc(tids[a], tids[b], 0, false);
        }
    }
    mg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_rings_are_live_safe_consistent(ring in ring_strategy()) {
        let mg = build(&ring);
        prop_assert!(mg.is_live());
        prop_assert!(mg.is_safe());
        prop_assert!(StateGraph::of_mg(&mg, 100_000).is_ok());
    }

    #[test]
    fn redundancy_sweep_preserves_the_state_graph(ring in ring_strategy()) {
        let mg = build(&ring);
        let before = StateGraph::of_mg(&mg, 100_000).expect("consistent");
        let mut swept = mg.clone();
        swept.eliminate_redundant_arcs();
        let after = StateGraph::of_mg(&swept, 100_000).expect("consistent");
        // A redundant arc never constrains a firing: the same states,
        // numbered alike, with the same edges in the same order.
        prop_assert_eq!(before, after);
    }

    #[test]
    fn relaxation_preserves_liveness_and_consistency(ring in ring_strategy()) {
        // Thesis Lemma 1 on arbitrary ring chords.
        let mg = build(&ring);
        let arcs: Vec<(usize, usize)> = mg
            .arcs()
            .filter(|&((a, b), attr)| {
                attr.tokens == 0 && !mg.label(a).same_signal(&mg.label(b))
            })
            .map(|(k, _)| k)
            .collect();
        for (a, b) in arcs {
            let mut relaxed = mg.clone();
            if relax_arc(&mut relaxed.clone(), a, b).is_err() {
                continue;
            }
            relax_arc(&mut relaxed, a, b).expect("checked");
            prop_assert!(relaxed.is_live(), "relaxing {a}->{b} killed liveness");
            prop_assert!(StateGraph::of_mg(&relaxed, 200_000).is_ok());
        }
    }

    #[test]
    fn relaxation_never_shrinks_the_state_space(ring in ring_strategy()) {
        let mg = build(&ring);
        let base = StateGraph::of_mg(&mg, 100_000).expect("consistent").state_count();
        let arcs: Vec<(usize, usize)> = mg
            .arcs()
            .filter(|&((a, b), attr)| {
                attr.tokens == 0 && !mg.label(a).same_signal(&mg.label(b))
            })
            .map(|(k, _)| k)
            .collect();
        if let Some(&(a, b)) = arcs.first() {
            let mut relaxed = mg.clone();
            if relax_arc(&mut relaxed, a, b).is_ok() {
                let grown =
                    StateGraph::of_mg(&relaxed, 200_000).expect("consistent").state_count();
                prop_assert!(grown >= base, "{grown} < {base}");
            }
        }
    }

    #[test]
    fn projection_keeps_liveness_safety_and_kept_signal_order(ring in ring_strategy()) {
        let mg = build(&ring);
        // Keep a random-but-deterministic half of the signals.
        let keep: BTreeSet<SignalId> =
            (0..ring.signals).step_by(2).map(SignalId).collect();
        let projected = mg.project(&keep).expect("projects");
        prop_assert!(projected.is_live());
        prop_assert!(projected.is_safe());
        // Every kept transition survives; every hidden one is gone.
        for t in projected.transitions() {
            prop_assert!(keep.contains(&projected.label(t).signal));
        }
        let kept_count = mg
            .transitions()
            .into_iter()
            .filter(|&t| keep.contains(&mg.label(t).signal))
            .count();
        prop_assert_eq!(projected.transitions().len(), kept_count);
        // Projection preserves the firing order of kept transitions: the
        // unique ring sequence restricted to kept signals matches.
        let trace = |g: &MgStg, n: usize| -> Vec<String> {
            let mut m = g.initial_marking();
            let mut out = Vec::new();
            let mut guard = 0;
            while out.len() < n && guard < 10 * n {
                guard += 1;
                let Some(t) = g.transitions().into_iter().find(|&t| g.enabled_in(t, &m))
                else {
                    break;
                };
                if keep.contains(&g.label(t).signal) {
                    out.push(g.label_string(t));
                }
                m = g.fire_in(t, &m);
            }
            out
        };
        let n = 2 * kept_count.max(1);
        prop_assert_eq!(trace(&mg, n), trace(&projected, n));
    }

    #[test]
    fn min_token_path_is_a_triangle_inequality(ring in ring_strategy()) {
        let mg = build(&ring);
        let ts = mg.transitions();
        for &a in ts.iter().take(4) {
            for &b in ts.iter().take(4) {
                for &c in ts.iter().take(4) {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    if let (Some(ab), Some(bc)) =
                        (mg.min_token_path(a, b, false), mg.min_token_path(b, c, false))
                    {
                        let ac = mg.min_token_path(a, c, false).expect("composable");
                        prop_assert!(ac <= ab + bc, "{ac} > {ab} + {bc}");
                    }
                }
            }
        }
    }
}

/// Serializes the random ring as `.g` text — the same structure
/// [`build`] creates in memory, but through the parser's front door, so
/// the linter sees spans and all.
fn astg_text(ring: &RandomRing) -> String {
    let mut labels = Vec::new();
    let mut seen = vec![0usize; ring.signals];
    for &sig in &ring.order {
        let polarity = if seen[sig] == 0 { '+' } else { '-' };
        seen[sig] += 1;
        labels.push(format!("s{sig}{polarity}"));
    }
    let slots = labels.len();
    let mut text = String::from(".model random-ring\n.inputs");
    for i in 0..ring.signals {
        text.push_str(&format!(" s{i}"));
    }
    text.push_str("\n.graph\n");
    for i in 0..slots {
        text.push_str(&format!("{} {}\n", labels[i], labels[(i + 1) % slots]));
    }
    for &(a, b) in &ring.chords {
        text.push_str(&format!("{} {}\n", labels[a], labels[b]));
    }
    text.push_str(&format!(
        ".marking {{ <{},{}> }}\n.end\n",
        labels[slots - 1],
        labels[0]
    ));
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The linter never panics on — and never reports an error-severity
    /// finding for — a valid randomly generated marked graph. (Warnings
    /// are possible: a duplicated random chord is reported as SI007.)
    #[test]
    fn linter_accepts_every_generated_ring(ring in ring_strategy()) {
        let text = astg_text(&ring);
        let report = si_redress::lint::lint_text(&text);
        prop_assert!(
            !report.has_errors(),
            "lint errors on a valid MG:\n{}",
            si_redress::lint::render_text(&report, &text, "random-ring.g")
        );
        // And the rendered forms stay well-formed (no panics either).
        let _ = si_redress::lint::render_json(&report, "random-ring.g");
    }
}
