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
//!   a full sweep removes.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use si_corpus::strategies::{edit, random_mg_case, Edit, RandomMg};
use si_stg::{Bypass, MgStg, StgError};

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
}
