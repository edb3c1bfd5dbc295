//! Ablation of the relaxation-order policy (thesis Sec. 5.5, Fig. 5.23):
//! both orders must produce *sound* constraint sets, the tightest-first
//! policy never produces more constraints in total, and the
//! tightest-first set preferentially discharges the short (dangerous)
//! adversary paths.

use si_redress::core::{AdversaryOracle, RelaxationOrder};
use si_redress::prelude::*;

/// The reference derivation under relaxation order `order`.
fn derive_with_order(stg: &Stg, library: &GateLibrary, order: RelaxationOrder) -> ConstraintReport {
    Engine::new(EngineConfig {
        order,
        ..EngineConfig::reference()
    })
    .run(stg, library)
    .expect("derives")
    .report
}

#[test]
fn both_orders_are_sound_and_tightest_first_is_never_worse() {
    let (mut tight_total, mut lex_total) = (0usize, 0usize);
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let tight = derive_with_order(&stg, &library, RelaxationOrder::TightestFirst);
        let lex = derive_with_order(&stg, &library, RelaxationOrder::Lexicographic);
        // Both runs share the baseline and both reduce it.
        assert_eq!(tight.baseline, lex.baseline, "{}", bench.name);
        assert!(tight.constraints.len() <= tight.baseline.len());
        assert!(lex.constraints.len() <= lex.baseline.len());
        tight_total += tight.constraints.len();
        lex_total += lex.constraints.len();
    }
    assert!(
        tight_total <= lex_total,
        "tightest-first produced more constraints overall: {tight_total} vs {lex_total}"
    );
}

#[test]
fn tightest_first_keeps_fewer_short_adversary_constraints() {
    // The policy's purpose: relax the short (most dangerous) orderings
    // while they are still relaxable. Aggregated over the suite, the
    // tightest-first run must keep no more level-≤5 constraints than the
    // naive order.
    let (mut tight5, mut lex5) = (0usize, 0usize);
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let oracle = AdversaryOracle::new(&stg);
        let tight = derive_with_order(&stg, &library, RelaxationOrder::TightestFirst);
        let lex = derive_with_order(&stg, &library, RelaxationOrder::Lexicographic);
        tight5 += oracle.constraints_within_level(&tight.constraints, 5).len();
        lex5 += oracle.constraints_within_level(&lex.constraints, 5).len();
    }
    assert!(
        tight5 <= lex5,
        "tightest-first kept more short constraints: {tight5} vs {lex5}"
    );
}

#[test]
fn default_order_is_tightest_first() {
    let bench = si_redress::suite::benchmark("imec-ram-read-sbuf").expect("bundled");
    let (stg, library) = bench.circuit().expect("loads");
    let default = derive_timing_constraints(&stg, &library).expect("derives");
    let explicit = derive_with_order(&stg, &library, RelaxationOrder::TightestFirst);
    assert_eq!(default.constraints, explicit.constraints);
}
