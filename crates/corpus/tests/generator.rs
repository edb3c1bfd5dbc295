//! The generator's two load-bearing guarantees, pinned as properties:
//! every generated circuit is *valid* (strict-parses, zero lint errors,
//! well-formed whenever the state graph fits the probe budget) and
//! *stable* (deterministic per seed; round-trips through the `.g` writer
//! onto the same canonical state-graph keys). The two-phase mode's
//! CSC-cleanliness — what makes the corpus synthesizable at scale — is
//! pinned as well.

use proptest::prelude::*;
use si_corpus::strategies::{corpus_case, corpus_spec};
use si_corpus::{generate, CorpusSpec, MarkingStyle};
use si_lint::{LintOptions, Severity};
use si_stg::{parse_astg, write_astg, StateGraph};
use si_synth::check_csc;

const PROBE_BUDGET: usize = 40_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Guarantee 1: the emitted `.g` text strict-parses (checked inside
    /// `generate`, which panics otherwise) and lints with zero errors.
    #[test]
    fn generated_circuits_strict_parse_and_lint_error_free((spec, seed) in corpus_case()) {
        let c = generate(&spec, seed);
        let report = si_lint::lint_text_with(
            &c.g_text,
            &LintOptions { state_budget: Some(PROBE_BUDGET) },
        );
        prop_assert!(
            report.error_count() == 0,
            "seed {} spec {:?} lints with errors:\n{:?}\n{}",
            seed,
            c.spec,
            report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect::<Vec<_>>(),
            c.g_text
        );
    }

    /// Every generated circuit is live, 1-safe, consistent and
    /// free-choice — the construction circulates a single token through
    /// fork–join stages, so well-formedness holds by design.
    #[test]
    fn generated_circuits_are_well_formed((spec, seed) in corpus_case()) {
        let c = generate(&spec, seed);
        let health = c.stg.validate(PROBE_BUDGET).expect("probe fits");
        prop_assert!(
            health.is_well_formed(),
            "seed {} spec {:?} not well-formed: {:?}\n{}",
            seed,
            c.spec,
            health,
            c.g_text
        );
    }

    /// Guarantee 2 (stability): emitting the parsed STG back through
    /// [`write_astg`] and re-parsing lands on the same components,
    /// compared by transition *labels* (the canonical writer sorts graph
    /// lines by name, so raw transition numbering is not preserved — the
    /// labelled structure must be). The writer's text itself is a
    /// parse/write fixed point.
    #[test]
    fn generated_circuits_round_trip_through_the_writer((spec, seed) in corpus_case()) {
        let c = generate(&spec, seed);
        let written = write_astg(&c.stg);
        let reparsed = parse_astg(&written).expect("writer output strict-parses");
        prop_assert_eq!(&write_astg(&reparsed), &written);
        let keys = |stg: &si_stg::Stg| {
            let analysis = stg.analyze(PROBE_BUDGET).expect("probe fits");
            let mut keys: Vec<_> = stg
                .mg_components(&analysis, PROBE_BUDGET)
                .expect("decomposes")
                .iter()
                .map(|mg| {
                    let mut arcs: Vec<_> = mg
                        .arcs()
                        .map(|((a, b), attr)| {
                            (mg.label(a), mg.label(b), attr.tokens, attr.restriction)
                        })
                        .collect();
                    arcs.sort();
                    let mut labels: Vec<_> =
                        mg.transitions().iter().map(|&t| mg.label(t)).collect();
                    labels.sort();
                    (mg.initial_code(), labels, arcs)
                })
                .collect();
            keys.sort();
            keys
        };
        prop_assert_eq!(keys(&c.stg), keys(&reparsed));
    }

    /// Two-phase circuits (`interleave = false`) are CSC-clean: inside a
    /// burst the guard signal disambiguates the rising and falling
    /// phases, and the all-zero codes at the choice/merge places only
    /// excite input guards.
    #[test]
    fn two_phase_circuits_are_csc_clean((spec, seed) in corpus_case()) {
        let spec = CorpusSpec { interleave: false, ..spec };
        let c = generate(&spec, seed);
        let sg = StateGraph::of_stg(&c.stg, PROBE_BUDGET).expect("consistent by construction");
        prop_assert!(
            check_csc(&c.stg, &sg).is_ok(),
            "seed {} spec {:?} has a CSC conflict\n{}",
            seed,
            c.spec,
            c.g_text
        );
    }

    /// Determinism: one seed, one circuit — byte-identical text and
    /// identical parse across repeated calls.
    #[test]
    fn generation_is_a_pure_function_of_spec_and_seed((spec, seed) in corpus_case()) {
        let a = generate(&spec, seed);
        let b = generate(&spec, seed);
        prop_assert_eq!(&a.g_text, &b.g_text);
        prop_assert_eq!(&a.stg, &b.stg);
        prop_assert_eq!(a.spec, b.spec);
    }

    /// Sanitization is idempotent and `generate` only ever sees (and
    /// reports) sanitized specs.
    #[test]
    fn sanitization_is_idempotent(spec in corpus_spec()) {
        prop_assert_eq!(spec.sanitized(), spec);
        let c = generate(&spec, 7);
        prop_assert_eq!(c.spec, spec);
    }
}

/// The canonical seed → spec derivation stays deterministic and inside
/// the sanitized envelope for every seed (spot-checked densely at the
/// low end where the fuzzer starts).
#[test]
fn from_seed_is_deterministic_and_sanitized() {
    for seed in (0u64..512).chain([u64::MAX, u64::MAX / 2]) {
        let a = CorpusSpec::from_seed(seed, 12);
        let b = CorpusSpec::from_seed(seed, 12);
        assert_eq!(a, b);
        assert_eq!(a.sanitized(), a);
        assert!((2..=12).contains(&a.signals), "seed {seed}: {a:?}");
        if a.choices > 0 {
            assert_eq!(a.marking, MarkingStyle::ExplicitPlace);
        }
    }
}
