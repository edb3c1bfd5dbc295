//! Property tests for exploring a local state graph after arc edits —
//! the work every relaxation trial does. On a random marked graph and on
//! the graphs after random single-arc edits, the engine's explorer
//! ([`StateGraph::of_mg_interned`]) must agree with the reference
//! [`StateGraph::of_mg`] *exactly* — identical states, arcs and edge order
//! on success, and the identical error under tight budgets or inconsistent
//! edits. The reference generator is pinned; any divergence here is a
//! soundness bug in the explorer.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use si_corpus::strategies::{edit, random_mg, random_mg_case, Edit, RandomMg};
use si_stg::{MgStg, StateGraph};

/// The budgets the tight-budget properties replay: most of them stop the
/// exploration part way.
const TIGHT_BUDGETS: [usize; 6] = [1, 2, 3, 5, 9, 17];

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

/// Two random ring MGs side by side, whose arcs do not connect them,
/// plus a chain of up to four single-arc edits, which may join them.
fn two_rings_chain() -> impl Strategy<Value = ([RandomMg; 2], Vec<Edit>)> {
    (
        random_mg(),
        random_mg(),
        proptest::collection::vec(edit(), 0..5),
    )
        .prop_map(|(a, b, edits)| ([a, b], edits))
}

/// `first` followed by the graph after each edit of the chain.
fn chain_graphs(first: MgStg, edits: &[Edit]) -> Vec<MgStg> {
    let mut mgs = vec![first];
    for edit in edits {
        let next = edit.apply_mg(mgs.last().expect("starts non-empty"));
        mgs.push(next);
    }
    mgs
}

/// The explorer equals the reference on `mg` under a generous budget
/// and under every tight one.
fn explores_like_the_reference(mg: &MgStg) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        StateGraph::of_mg_interned(mg, 10_000),
        StateGraph::of_mg(mg, 10_000)
    );
    for budget in TIGHT_BUDGETS {
        prop_assert_eq!(
            StateGraph::of_mg_interned(mg, budget),
            StateGraph::of_mg(mg, budget)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn incremental_matches_scratch_under_a_generous_budget((spec, edits) in random_chain()) {
        for mg in &chain_graphs(spec.build(), &edits) {
            prop_assert_eq!(
                StateGraph::of_mg_interned(mg, 10_000),
                StateGraph::of_mg(mg, 10_000)
            );
        }
    }

    /// One edit: the explorer agrees with the reference on the graph and
    /// its edited child — Ok and Err alike, generous and tight budgets.
    #[test]
    fn one_edit_explores_like_the_reference((spec, edit) in random_case()) {
        let parent = spec.build();
        let child = edit.apply_mg(&parent);
        for mg in [&parent, &child] {
            explores_like_the_reference(mg)?;
        }
    }

    #[test]
    fn incremental_replays_tight_budget_failures_exactly((spec, edits) in random_chain()) {
        for mg in &chain_graphs(spec.build(), &edits) {
            for budget in TIGHT_BUDGETS {
                prop_assert_eq!(
                    StateGraph::of_mg_interned(mg, budget),
                    StateGraph::of_mg(mg, budget)
                );
            }
        }
    }

    /// Graphs whose arcs fall apart into two rings, and the edit chains
    /// that may join them: every marking key is exact whether or not the
    /// arcs connect the transitions.
    #[test]
    fn two_rings_side_by_side_explore_like_the_reference((rings, edits) in two_rings_chain()) {
        for mg in &chain_graphs(RandomMg::side_by_side(&rings), &edits) {
            explores_like_the_reference(mg)?;
        }
    }
}
