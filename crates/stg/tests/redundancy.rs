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
//!   self-pairs and non-live graphs included.

use proptest::prelude::*;
use si_corpus::strategies::{edit, random_mg_case, Edit, RandomMg};
use si_stg::MgStg;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
