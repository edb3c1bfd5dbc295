//! Property tests for regenerating a local state graph after arc edits —
//! the work every relaxation trial does. On a random marked graph and on
//! the graphs after random single-arc edits, the σ-space explorer
//! ([`StateGraph::of_mg_sigma`]) must agree with the marking-keyed
//! [`StateGraph::of_mg`] *exactly* — identical states, arcs and edge order
//! on success, and the identical error under tight budgets or inconsistent
//! edits. The marking-keyed generator is the pinned reference; any
//! divergence here is a soundness bug in the explorer.

use proptest::prelude::*;
use si_corpus::strategies::{edit, random_mg_case, Edit, RandomMg};
use si_stg::{MgStg, StateGraph};

/// The shared [`si_corpus::strategies::random_mg_case`] drives these
/// properties: a random consistent ring MG plus a random single-arc
/// [`Edit`] (relaxation trials are exactly such edited graphs).
fn random_case() -> impl Strategy<Value = (RandomMg, Edit)> {
    random_mg_case()
}

/// A random ring MG plus a chain of one to four single-arc edits, applied
/// in order like successive relaxation trials.
fn random_chain() -> impl Strategy<Value = (RandomMg, Vec<Edit>)> {
    (random_mg_case(), proptest::collection::vec(edit(), 0..4)).prop_map(
        |((spec, first), mut rest)| {
            rest.insert(0, first);
            (spec, rest)
        },
    )
}

/// The unedited MG followed by the graph after each edit of the chain.
fn chain_graphs(spec: &RandomMg, edits: &[Edit]) -> Vec<MgStg> {
    let mut mgs = vec![spec.build()];
    for edit in edits {
        let next = edit.apply_mg(mgs.last().expect("starts non-empty"));
        mgs.push(next);
    }
    mgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn incremental_matches_scratch_under_a_generous_budget((spec, edits) in random_chain()) {
        for mg in &chain_graphs(&spec, &edits) {
            prop_assert_eq!(
                StateGraph::of_mg_sigma(mg, 10_000),
                StateGraph::of_mg(mg, 10_000)
            );
        }
    }

    /// σ-space cold exploration must agree with the marking-keyed scratch
    /// generator exactly — Ok and Err alike, generous and tight budgets.
    #[test]
    fn sigma_cold_matches_scratch((spec, edit) in random_case()) {
        let parent = spec.build();
        let child = edit.apply_mg(&parent);
        for mg in [&parent, &child] {
            prop_assert_eq!(
                StateGraph::of_mg_sigma(mg, 10_000),
                StateGraph::of_mg(mg, 10_000)
            );
            for budget in [1usize, 2, 3, 5, 9, 17] {
                prop_assert_eq!(
                    StateGraph::of_mg_sigma(mg, budget),
                    StateGraph::of_mg(mg, budget)
                );
            }
        }
    }

    #[test]
    fn incremental_replays_tight_budget_failures_exactly((spec, edits) in random_chain()) {
        for mg in &chain_graphs(&spec, &edits) {
            for budget in [1usize, 2, 3, 5, 9, 17] {
                prop_assert_eq!(
                    StateGraph::of_mg_sigma(mg, budget),
                    StateGraph::of_mg(mg, budget)
                );
            }
        }
    }
}
