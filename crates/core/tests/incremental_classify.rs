//! Property tests for classifying relaxation trials: on a random local STG
//! and a random single-arc edit, the verdicts the relaxation loop works
//! from — each trial's state graph served by the [`SgCache`] (σ-space
//! exploration on every miss, stored on the second request), then swept
//! by [`classify_states`] — must agree with the from-scratch sweep
//! ([`classify_states`] over the marking-keyed [`StateGraph::of_mg`])
//! *exactly*: the same [`RelaxationCase`], the same [`ConformanceReport`]
//! (premature pairs and lagging states in the same order) and the same
//! error, whether the graph was computed cold, computed and stored, or
//! answered from the cache, under generous and tight state budgets alike.
//! The scratch sweep is the pinned reference; a divergence here means the
//! cache conflates two graphs or the explorer drifted.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use si_core::{
    classify_states, prerequisite_sets, ConformanceReport, CoreError, LocalStg, RelaxationCase,
    SgCache,
};
use si_corpus::strategies::{random_local_case, Edit, RandomLocal};
use si_stg::{StateGraph, TransitionLabel};

/// The shared [`si_corpus::strategies::random_local_case`] drives these
/// properties: a random C-element local STG, a random single-arc
/// [`Edit`], and a wrapped relaxed-transition index.
fn random_case() -> impl Strategy<Value = (RandomLocal, Edit, usize)> {
    random_local_case()
}

type Epre = BTreeMap<usize, BTreeSet<TransitionLabel>>;
type Verdict = Result<(RelaxationCase, ConformanceReport), CoreError>;

/// One trial's verdict the way the relaxation loop obtains it: the graph
/// from the state-graph cache, then a sweep.
fn served(
    sgs: &SgCache,
    local: &LocalStg,
    epre: &Epre,
    relaxed: Option<usize>,
    budget: usize,
) -> Verdict {
    let (sg, _) = sgs.of_mg(&local.mg, budget)?;
    classify_states(local, &sg, epre, relaxed)
}

/// The same verdict from a fresh marking-keyed generation and sweep.
fn scratch(local: &LocalStg, epre: &Epre, relaxed: Option<usize>, budget: usize) -> Verdict {
    let sg = StateGraph::of_mg(&local.mg, budget)?;
    classify_states(local, &sg, epre, relaxed)
}

/// Runs the parent and its edited child at `budget` through `sgs`,
/// asserting every served verdict reproduces the scratch one bit for bit.
fn check_round(
    spec: &RandomLocal,
    edit: &Edit,
    relaxed_idx: usize,
    budget: usize,
    sgs: &SgCache,
) -> Result<(), TestCaseError> {
    let parent = spec.build();
    let child = edit.apply_local(&parent);
    for local in [&parent, &child] {
        let epre = prerequisite_sets(local);
        let ts = local.mg.transitions();
        for relaxed in [None, Some(ts[relaxed_idx % ts.len()])] {
            prop_assert_eq!(
                served(sgs, local, &epre, relaxed, budget),
                scratch(local, &epre, relaxed, budget)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// A cold round, an admitting one that stores the graphs, then a warm
    /// one answered from the cache.
    #[test]
    fn incremental_classification_matches_scratch((spec, edit, relaxed_idx) in random_case()) {
        let sgs = SgCache::default();
        for _ in 0..3 {
            check_round(&spec, &edit, relaxed_idx, 10_000, &sgs)?;
        }
    }

    /// Shrinking budgets over one shared cache: a graph cached under a
    /// larger budget must fail a smaller one exactly like a scratch
    /// generation.
    #[test]
    fn incremental_classification_matches_scratch_under_tight_budgets(
        (spec, edit, relaxed_idx) in random_case()
    ) {
        let sgs = SgCache::default();
        for budget in [33usize, 17, 9, 5, 3, 2] {
            check_round(&spec, &edit, relaxed_idx, budget, &sgs)?;
        }
    }
}
