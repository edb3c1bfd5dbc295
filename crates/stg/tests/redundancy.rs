//! Property tests for the Algorithm 3 redundancy sweep and the bounded
//! path query behind it. On random marked graphs, along chains of
//! single-arc edits and with some arcs turned into restriction arcs:
//!
//! - [`MgStg::eliminate_redundant_arcs`] (one pass of bounded searches)
//!   removes exactly what a sweep repeated until nothing changes, built
//!   here on the Dijkstra of [`MgStg::min_token_path`], removes — the
//!   same arcs in the same order — and a second sweep removes nothing;
//! - [`MgStg::has_path_within`] and the predicates routed through it
//!   agree with [`MgStg::min_token_path`] on every pair of transitions,
//!   self-pairs and non-live graphs included;
//! - along chains of hides and relaxations ([`MgStg::bypass`]), each
//!   edit leaves exactly the graph that the edit applied by hand and
//!   followed by a full [`MgStg::eliminate_redundant_arcs`] leaves, so
//!   the edit-local sweep on a graph marked redundancy-free removes what
//!   a full sweep removes;
//! - along chains of arc insertions and removals, transition removals
//!   and bypass edits, the arc array stays sorted, the arc lookups equal
//!   filters over [`MgStg::arcs`], the path queries equal a Bellman–Ford
//!   written here (so [`MgStg::min_token_path`] is checked too, not only
//!   trusted as an oracle), and the token game moves one token per arc
//!   of the fired transition.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use si_corpus::strategies::{edit, random_mg_case, Edit, RandomMg};
use si_stg::{ArcAttr, Bypass, MgStg, StgError};

/// The redundancy sweep as it was specified: candidates in arc-key
/// order, each tested with a Dijkstra over the arcs still present, the
/// whole pass repeated until a round removes nothing.
fn looped_sweep(mg: &mut MgStg) -> Vec<(usize, usize)> {
    let mut removed = Vec::new();
    loop {
        let candidates: Vec<(usize, usize)> = mg
            .arcs()
            .filter(|(_, attr)| !attr.restriction)
            .map(|(k, _)| k)
            .collect();
        let mut changed = false;
        for (a, b) in candidates {
            let Some(attr) = mg.arc(a, b) else {
                continue;
            };
            let redundant = if a == b {
                attr.tokens >= 1
            } else {
                mg.min_token_path(a, b, true)
                    .is_some_and(|w| w <= attr.tokens)
            };
            if redundant {
                mg.remove_arc(a, b);
                removed.push((a, b));
                changed = true;
            }
        }
        if !changed {
            return removed;
        }
    }
}

/// A random ring MG, a chain of one to four single-arc edits, and up to
/// two arc indices (wrapping) to re-insert as restriction arcs.
fn random_case() -> impl Strategy<Value = (RandomMg, Vec<Edit>, Vec<usize>)> {
    (
        random_mg_case(),
        proptest::collection::vec(edit(), 0..4),
        proptest::collection::vec(0usize..32, 0..3),
    )
        .prop_map(|((spec, first), mut rest, restricted)| {
            rest.insert(0, first);
            (spec, rest, restricted)
        })
}

/// The unedited MG and the graph after each edit, each with the
/// `restricted` arcs re-inserted as restriction arcs.
fn case_graphs(spec: &RandomMg, edits: &[Edit], restricted: &[usize]) -> Vec<MgStg> {
    let mut mgs = vec![spec.build()];
    for edit in edits {
        let next = edit.apply_mg(mgs.last().expect("starts non-empty"));
        mgs.push(next);
    }
    for mg in &mut mgs {
        let arcs: Vec<_> = mg.arcs().collect();
        if arcs.is_empty() {
            continue;
        }
        for &i in restricted {
            let ((a, b), attr) = arcs[i % arcs.len()];
            mg.remove_arc(a, b);
            mg.insert_arc(a, b, attr.tokens, true);
        }
    }
    mgs
}

/// A bypass edit as Algorithms 1 and 2 state it, on a copy of `mg`,
/// followed by a full sweep: the reference for [`MgStg::bypass`].
fn bypass_by_hand(mg: &MgStg, edit: Bypass) -> Result<MgStg, StgError> {
    let mut g = mg.clone();
    let tokens = |a: usize, b: usize| mg.arc(a, b).expect("an arc of the edit").tokens;
    let bypasses: Vec<(usize, usize, u32)> = match edit {
        Bypass::Hide(t) => mg
            .preds(t)
            .into_iter()
            .flat_map(|a| mg.succs(t).into_iter().map(move |b| (a, b)))
            .map(|(a, b)| (a, b, tokens(a, t) + tokens(t, b)))
            .collect(),
        Bypass::Relax(x, y) => {
            let into = mg.preds(x).into_iter().map(|b| (b, y, tokens(b, x)));
            let out = mg.succs(y).into_iter().map(|d| (x, d, tokens(y, d)));
            into.chain(out)
                .map(|(a, b, w)| (a, b, w + tokens(x, y)))
                .collect()
        }
    };
    for (a, b, w) in bypasses {
        if a != b {
            g.insert_arc(a, b, w, false);
        } else if w == 0 {
            return Err(StgError::MalformedMarkedGraph {
                reason: "a token-free self-loop".into(),
            });
        }
    }
    match edit {
        Bypass::Hide(t) => g.remove_transition(t),
        Bypass::Relax(x, y) => {
            g.remove_arc(x, y);
        }
    }
    g.eliminate_redundant_arcs();
    Ok(g)
}

/// One step of a bypass chain; indices wrap over the current alive
/// transitions or arcs.
#[derive(Debug, Clone)]
enum Step {
    /// Hide a transition (projection).
    Hide(usize),
    /// Relax a non-restriction arc (the relaxation loop).
    Relax(usize),
    /// Insert an arc, then relax one: the case-3 sub-STG builder's order,
    /// which relaxes a graph no sweep has seen since the insertion.
    InsertThenRelax(usize, usize, u32, usize),
    /// Re-insert an arc as a restriction arc, then sweep fully, as the
    /// sub-STG builders do.
    Restrict(usize),
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..8, 0usize..32, 0usize..32, 0u32..=1, 0usize..32).prop_map(|(kind, i, j, tokens, k)| {
        match kind {
            0..=2 => Step::Hide(i),
            3..=5 => Step::Relax(i),
            6 => Step::InsertThenRelax(i, j, tokens, k),
            _ => Step::Restrict(i),
        }
    })
}

/// The relaxable (non-restriction) arcs of `mg`, in arc-key order.
fn relaxable(mg: &MgStg) -> Vec<(usize, usize)> {
    mg.arcs()
        .filter(|(_, attr)| !attr.restriction)
        .map(|(k, _)| k)
        .collect()
}

/// Applies `edit` both ways and compares; `Ok(false)` when both refuse
/// it, which ends the chain.
fn check_bypass(g: &mut MgStg, edit: Bypass) -> Result<bool, TestCaseError> {
    let expected = bypass_by_hand(g, edit);
    // The edit and the graph it starts from ride along so that a failure
    // names them.
    let before = (edit, g.clone());
    let result = g.bypass(edit);
    prop_assert_eq!((&before, result.is_ok()), (&before, expected.is_ok()));
    if let Ok(expected) = expected {
        prop_assert_eq!((&before, &*g), (&before, &expected));
    }
    Ok(result.is_ok())
}

/// Minimum tokens over non-empty paths `a → b`, without the arc `a ⇒ b`
/// under `exclude_direct`: Bellman–Ford over [`MgStg::arcs`] alone, so
/// it shares no code with the graph's own searches. A lightest non-empty
/// path is simple or one simple cycle, so it has at most as many arcs as
/// there are transitions.
fn bellman_ford(mg: &MgStg, a: usize, b: usize, exclude_direct: bool) -> Option<u32> {
    let arcs: Vec<((usize, usize), u32)> = mg
        .arcs()
        .filter(|&(k, _)| !(exclude_direct && k == (a, b)))
        .map(|(k, attr)| (k, attr.tokens))
        .collect();
    // Paths of one arc, then one more arc per round.
    let mut dist: BTreeMap<usize, u32> = BTreeMap::new();
    let improve = |dist: &mut BTreeMap<usize, u32>, t: usize, d: u32| {
        let best = dist.entry(t).or_insert(d);
        *best = (*best).min(d);
    };
    for &((src, dst), w) in &arcs {
        if src == a {
            improve(&mut dist, dst, w);
        }
    }
    for _ in 1..mg.transitions().len() {
        for &((src, dst), w) in &arcs {
            if let Some(&d) = dist.get(&src) {
                improve(&mut dist, dst, d + w);
            }
        }
    }
    dist.get(&b).copied()
}

/// Checks `mg`'s arc array, lookups, path queries and token game against
/// [`MgStg::arcs`] and [`bellman_ford`].
fn check_against_the_oracle(mg: &MgStg) -> Result<(), TestCaseError> {
    let arcs: Vec<((usize, usize), ArcAttr)> = mg.arcs().collect();
    prop_assert!(
        arcs.windows(2).all(|w| w[0].0 < w[1].0),
        "arcs not strictly ascending: {:?}",
        arcs
    );
    let ts = mg.transitions();
    for &t in &ts {
        let preds: Vec<usize> = arcs
            .iter()
            .filter(|(k, _)| k.1 == t)
            .map(|(k, _)| k.0)
            .collect();
        let succs: Vec<usize> = arcs
            .iter()
            .filter(|(k, _)| k.0 == t)
            .map(|(k, _)| k.1)
            .collect();
        prop_assert_eq!((t, mg.preds(t)), (t, preds));
        prop_assert_eq!((t, mg.succs(t)), (t, succs));
    }
    for &a in &ts {
        for &b in &ts {
            let attr = arcs
                .iter()
                .find(|(k, _)| *k == (a, b))
                .map(|&(_, attr)| attr);
            prop_assert_eq!(((a, b), mg.arc(a, b)), ((a, b), attr));
            for exclude_direct in [false, true] {
                let min = bellman_ford(mg, a, b, exclude_direct);
                let query = (a, b, exclude_direct);
                prop_assert_eq!(
                    (query, mg.min_token_path(a, b, exclude_direct)),
                    (query, min)
                );
                for k in 0..=2 {
                    prop_assert_eq!(
                        (query, k, mg.has_path_within(a, b, k, exclude_direct)),
                        (query, k, min.is_some_and(|w| w <= k))
                    );
                }
            }
            let precedes = a != b && bellman_ford(mg, a, b, false) == Some(0);
            let follows = a != b && bellman_ford(mg, b, a, false) == Some(0);
            prop_assert_eq!(((a, b), mg.precedes(a, b)), ((a, b), precedes));
            prop_assert_eq!(
                ((a, b), mg.concurrent(a, b)),
                ((a, b), a != b && !precedes && !follows)
            );
        }
    }
    // A few firings of the first enabled transition from the initial
    // marking, which holds every arc's tokens in arc order.
    let mut marking = mg.initial_marking();
    prop_assert_eq!(&marking, &mg.arc_tokens().collect::<Vec<_>>());
    for _ in 0..4 {
        let enabled = |m: &[u32], t: usize| {
            arcs.iter()
                .zip(m)
                .all(|(&((_, dst), _), &tokens)| dst != t || tokens > 0)
        };
        for &t in &ts {
            prop_assert_eq!((t, mg.enabled_in(t, &marking)), (t, enabled(&marking, t)));
        }
        let Some(t) = ts.iter().copied().find(|&t| enabled(&marking, t)) else {
            break;
        };
        let next = mg.fire_in(t, &marking);
        prop_assert_eq!(next.len(), arcs.len());
        for (i, &((src, dst), _)) in arcs.iter().enumerate() {
            let moved = marking[i] - u32::from(dst == t) + u32::from(src == t);
            prop_assert_eq!(((t, src, dst), next[i]), ((t, src, dst), moved));
        }
        marking = next;
    }
    Ok(())
}

/// One step of an oracle chain; indices wrap over the current alive
/// transitions or arcs.
#[derive(Debug, Clone)]
enum Change {
    /// Insert (or merge into) an arc, maybe a restriction arc.
    Insert(usize, usize, u32, bool),
    /// Remove an arc.
    Remove(usize),
    /// Remove a transition with its arcs.
    RemoveTransition(usize),
    /// Hide a transition ([`Bypass::Hide`]).
    Hide(usize),
    /// Relax a non-restriction arc ([`Bypass::Relax`]).
    Relax(usize),
}

fn change() -> impl Strategy<Value = Change> {
    (0u8..5, 0usize..32, 0usize..32, 0u32..=1, 0u8..4).prop_map(|(kind, i, j, tokens, flag)| {
        match kind {
            0 => Change::Insert(i, j, tokens, flag == 0),
            1 => Change::Remove(i),
            2 => Change::RemoveTransition(i),
            3 => Change::Hide(i),
            _ => Change::Relax(i),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bypass_chains_sweep_like_a_full_sweep(
        ((spec, _), restricted, steps) in (
            random_mg_case(),
            proptest::collection::vec(0usize..32, 0..3),
            proptest::collection::vec(step(), 1..8),
        )
    ) {
        // Some random graphs have token-free cycles (not live) or marked
        // self-loops; both stay in the chain.
        let mut g = case_graphs(&spec, &[], &restricted).remove(0);
        // A full sweep marks the graph redundancy-free, so the edits that
        // follow sweep locally until an insertion clears the mark.
        g.eliminate_redundant_arcs();
        for step in steps {
            let ts = g.transitions();
            let edit = match step {
                Step::Hide(i) if ts.len() > 2 => Bypass::Hide(ts[i % ts.len()]),
                Step::Hide(_) => continue,
                Step::Relax(i) => {
                    let arcs = relaxable(&g);
                    if arcs.is_empty() {
                        continue;
                    }
                    let (x, y) = arcs[i % arcs.len()];
                    Bypass::Relax(x, y)
                }
                Step::InsertThenRelax(i, j, tokens, k) => {
                    g.insert_arc(ts[i % ts.len()], ts[j % ts.len()], tokens, false);
                    // The insertion may merge into a restriction arc and
                    // leave nothing to relax.
                    let arcs = relaxable(&g);
                    if arcs.is_empty() {
                        continue;
                    }
                    let (x, y) = arcs[k % arcs.len()];
                    Bypass::Relax(x, y)
                }
                Step::Restrict(i) => {
                    let arcs: Vec<_> = g.arcs().collect();
                    if let Some(&((a, b), attr)) = arcs.get(i % arcs.len().max(1)) {
                        g.remove_arc(a, b);
                        g.insert_arc(a, b, attr.tokens, true);
                    }
                    g.eliminate_redundant_arcs();
                    continue;
                }
            };
            if !check_bypass(&mut g, edit)? {
                break;
            }
        }
    }

    #[test]
    fn one_pass_sweep_matches_the_looped_sweep(
        (spec, edits, restricted) in random_case()
    ) {
        for mg in case_graphs(&spec, &edits, &restricted) {
            let mut swept = mg.clone();
            let mut oracle = mg.clone();
            prop_assert_eq!(swept.eliminate_redundant_arcs(), looped_sweep(&mut oracle));
            prop_assert_eq!(&swept, &oracle);
            prop_assert_eq!(swept.eliminate_redundant_arcs(), Vec::new());
        }
    }

    #[test]
    fn bounded_query_matches_the_minimum_token_path(
        (spec, edits, restricted) in random_case()
    ) {
        for mg in case_graphs(&spec, &edits, &restricted) {
            let ts = mg.transitions();
            for &a in &ts {
                for &b in &ts {
                    for exclude_direct in [false, true] {
                        let min = mg.min_token_path(a, b, exclude_direct);
                        for bound in [0, 1, 2, 3, u32::MAX] {
                            // The query's inputs ride along so that a
                            // failure names them.
                            let query = (a, b, bound, exclude_direct);
                            prop_assert_eq!(
                                (query, mg.has_path_within(a, b, bound, exclude_direct)),
                                (query, min.is_some_and(|w| w <= bound))
                            );
                        }
                    }
                    let precedes = a != b && mg.min_token_path(a, b, false) == Some(0);
                    let follows = a != b && mg.min_token_path(b, a, false) == Some(0);
                    prop_assert_eq!(mg.precedes(a, b), precedes);
                    prop_assert_eq!(mg.concurrent(a, b), a != b && !precedes && !follows);
                    let redundant = mg.arc(a, b).is_some_and(|attr| {
                        if a == b {
                            attr.tokens >= 1
                        } else {
                            mg.min_token_path(a, b, true).is_some_and(|w| w <= attr.tokens)
                        }
                    });
                    prop_assert_eq!(mg.is_redundant_arc(a, b), redundant);
                }
            }
        }
    }

    #[test]
    fn arc_array_and_path_queries_match_an_independent_oracle(
        ((spec, _), changes) in (random_mg_case(), proptest::collection::vec(change(), 0..8))
    ) {
        // Random graphs may have token-free cycles (not live) or marked
        // self-loops; both stay in the chain.
        let mut g = spec.build();
        check_against_the_oracle(&g)?;
        for change in changes {
            let ts = g.transitions();
            let arcs: Vec<(usize, usize)> = g.arcs().map(|(k, _)| k).collect();
            match change {
                Change::Insert(i, j, tokens, restriction) => {
                    let (a, b) = (ts[i % ts.len()], ts[j % ts.len()]);
                    let merged = g.arc(a, b).map_or(ArcAttr { tokens, restriction }, |old| {
                        ArcAttr {
                            tokens: old.tokens.min(tokens),
                            restriction: old.restriction || restriction,
                        }
                    });
                    g.insert_arc(a, b, tokens, restriction);
                    prop_assert_eq!(g.arc(a, b), Some(merged));
                }
                Change::Remove(i) if !arcs.is_empty() => {
                    let (a, b) = arcs[i % arcs.len()];
                    let attr = g.arc(a, b);
                    prop_assert_eq!(g.remove_arc(a, b), attr);
                    prop_assert_eq!(g.arc(a, b), None);
                    prop_assert_eq!(g.remove_arc(a, b), None);
                }
                Change::RemoveTransition(i) if ts.len() > 1 => {
                    g.remove_transition(ts[i % ts.len()]);
                }
                Change::Hide(i) if ts.len() > 2 => {
                    if g.bypass(Bypass::Hide(ts[i % ts.len()])).is_err() {
                        break;
                    }
                }
                Change::Relax(i) => {
                    let arcs = relaxable(&g);
                    if arcs.is_empty() {
                        continue;
                    }
                    let (x, y) = arcs[i % arcs.len()];
                    if g.bypass(Bypass::Relax(x, y)).is_err() {
                        break;
                    }
                }
                _ => continue,
            }
            check_against_the_oracle(&g)?;
        }
    }
}
