//! Property tests for the state-graph memo key. On random marked graphs,
//! along chains of edits that include single-arc edits, restriction-flag
//! flips, token changes, tombstoned transitions and a changed initial
//! code:
//!
//! - [`SgKey::matches`], the in-place comparison the engine's memo runs
//!   on every lookup, gives the same answer as comparing with a freshly
//!   built [`MgStg::sg_key`], for the key of every graph of the chain
//!   against every graph of the chain;
//! - equal keys give equal [`MgStg::sg_fingerprint`]s, so a stored graph
//!   is always found in the slot its request picks.

use proptest::prelude::*;
use si_corpus::strategies::{edit, random_mg_case, Edit, RandomMg};
use si_stg::MgStg;

/// One step of an edit chain.
#[derive(Debug, Clone)]
enum Step {
    /// A single-arc edit: remove, insert or retoken.
    Edit(Edit),
    /// Re-inserts the `i`-th arc (wrapping) with its restriction flag
    /// flipped; the key must not change.
    FlipRestriction(usize),
    /// Tombstones the `i`-th alive transition (wrapping) and its arcs.
    Tombstone(usize),
    /// Replaces the initial code.
    Recode(u64),
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..7, edit(), 0usize..32, 0u64..4).prop_map(|(kind, edit, i, code)| match kind {
        0..=2 => Step::Edit(edit),
        3 | 4 => Step::FlipRestriction(i),
        5 => Step::Tombstone(i),
        _ => Step::Recode(code),
    })
}

/// A random ring MG and a chain of up to eight steps after its first
/// single-arc edit.
fn random_case() -> impl Strategy<Value = (RandomMg, Edit, Vec<Step>)> {
    (random_mg_case(), proptest::collection::vec(step(), 0..8))
        .prop_map(|((spec, first), steps)| (spec, first, steps))
}

/// `mg` after `step`; a step the graph cannot take (no arcs left, or no
/// transitions) leaves it as it is.
fn apply(mg: &MgStg, step: &Step) -> MgStg {
    let mut out = mg.clone();
    let arcs: Vec<_> = mg.arcs().collect();
    let ts = mg.transitions();
    match *step {
        Step::Edit(ref edit) => {
            let needs_arcs = !matches!(edit, Edit::Insert(..));
            if ts.is_empty() || (needs_arcs && arcs.is_empty()) {
                return out;
            }
            out = edit.apply_mg(mg);
        }
        Step::FlipRestriction(i) => {
            if let Some(&((a, b), attr)) = arcs.get(i % arcs.len().max(1)) {
                out.remove_arc(a, b);
                out.insert_arc(a, b, attr.tokens, !attr.restriction);
            }
        }
        Step::Tombstone(i) => {
            if let Some(&t) = ts.get(i % ts.len().max(1)) {
                out.remove_transition(t);
            }
        }
        Step::Recode(code) => out.set_initial_code(code),
    }
    out
}

/// The unedited MG and the graph after each step.
fn chain(spec: &RandomMg, first: &Edit, steps: &[Step]) -> Vec<MgStg> {
    let start = spec.build();
    let mut mgs = vec![start.clone(), first.apply_mg(&start)];
    for step in steps {
        let next = apply(mgs.last().expect("starts non-empty"), step);
        mgs.push(next);
    }
    mgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_match_equals_key_equality((spec, first, steps) in random_case()) {
        let mgs = chain(&spec, &first, &steps);
        let keys: Vec<_> = mgs.iter().map(MgStg::sg_key).collect();
        for (i, key) in keys.iter().enumerate() {
            prop_assert!(key.matches(&mgs[i]), "a graph matches its own key");
            for (j, mg) in mgs.iter().enumerate() {
                let equal = *key == keys[j];
                prop_assert_eq!((i, j, key.matches(mg)), (i, j, equal));
                if equal {
                    prop_assert_eq!(mgs[i].sg_fingerprint(), mg.sg_fingerprint());
                }
            }
        }
    }
}
