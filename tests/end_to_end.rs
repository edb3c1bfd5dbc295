//! Cross-crate integration: the full pipeline over the entire benchmark
//! corpus, exercising parser → decomposition → projection → synthesis →
//! relaxation → constraints → simulation in one flow.

use si_redress::core::{AdversaryOracle, PaddingPosition};
use si_redress::prelude::*;

#[test]
fn the_headline_reduction_holds_across_the_suite() {
    // Thesis Table 7.2: roughly 40 % of adversary-path constraints are
    // unnecessary. Reconstructed circuits land in the same band: require
    // a strict overall reduction of at least 20 %.
    let (mut before, mut after) = (0usize, 0usize);
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let report = derive_timing_constraints(&stg, &library).expect("derives");
        assert!(
            report.constraints.len() <= report.baseline.len(),
            "{}: more constraints than baseline",
            bench.name
        );
        before += report.baseline.len();
        after += report.constraints.len();
    }
    assert!(before > 0);
    let ratio = after as f64 / before as f64;
    assert!(
        ratio < 0.80,
        "reduction too small: {after}/{before} = {ratio:.2}"
    );
    assert!(
        ratio > 0.40,
        "reduction suspiciously large: {after}/{before}"
    );
}

#[test]
fn every_derived_constraint_has_a_realizable_adversary_path() {
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let report = derive_timing_constraints(&stg, &library).expect("derives");
        let oracle = AdversaryOracle::new(&stg);
        for c in &report.constraints {
            assert!(
                oracle.path_of(c).is_some(),
                "{}: constraint {c} has no causal path",
                bench.name
            );
        }
    }
}

#[test]
fn weight_only_search_matches_the_path_search() {
    // The arc pick's weight builds no hop list; on every ordered pair of
    // transitions of the bundled circuits and the pinned corpus fixtures
    // it must give the key read off the hops of the path `path` finds.
    let mut stgs: Vec<(String, Stg)> = si_redress::suite::benchmarks()
        .into_iter()
        .map(|bench| (bench.name.to_string(), bench.circuit().expect("loads").0))
        .collect();
    for (name, spec, seed) in si_redress::corpus::PINNED_FIXTURES {
        let stg = si_redress::corpus::generate_named(&spec, seed, name).stg;
        stgs.push((name.to_string(), stg));
    }
    // Pairs by kind: gate-only path, environment-crossing path, none.
    let mut kinds = [0usize; 3];
    for (name, stg) in &stgs {
        let oracle = AdversaryOracle::new(stg);
        let labels: Vec<_> = stg.net().transitions().map(|t| stg.label(t)).collect();
        for &x in &labels {
            for &y in &labels {
                let pair = format!("{name}: {} => {}", stg.label_string(x), stg.label_string(y));
                let expected = oracle.path(x, y).map_or((true, u32::MAX), |p| {
                    // The hops after `x*`: does one cross the environment,
                    // and how many are gate-driven?
                    let driven: Vec<bool> = p.hops[1..]
                        .iter()
                        .map(|h| stg.signal_kind(h.signal).is_gate_driven())
                        .collect();
                    let key = (
                        driven.contains(&false),
                        driven.iter().filter(|&&d| d).count() as u32,
                    );
                    assert_eq!(p.weight_key(), key, "{pair}");
                    key
                });
                assert_eq!(oracle.weight_key(x, y), expected, "{pair}");
                kinds[match expected {
                    (false, _) => 0,
                    (true, u32::MAX) => 2,
                    (true, _) => 1,
                }] += 1;
            }
        }
    }
    assert!(kinds.iter().all(|&n| n > 0), "pairs by kind: {kinds:?}");
}

#[test]
fn synthesized_netlists_also_roundtrip_through_eqn() {
    // Write every synthesized netlist to the restricted EQN format, parse
    // it back, and confirm the same constraint sets fall out.
    for name in ["adfast", "converta", "nowick"] {
        let bench = si_redress::suite::benchmark(name).expect("bundled");
        let (stg, library) = bench.circuit().expect("loads");

        let text = si_redress::boolean::write_eqn(&library.netlist());
        let reparsed = GateLibrary::from_netlist(&parse_eqn(&text).expect("valid"));

        let direct = derive_timing_constraints(&stg, &library).expect("derives");
        let via_eqn = derive_timing_constraints(&stg, &reparsed).expect("derives");
        assert_eq!(direct.constraints, via_eqn.constraints, "{name}");
    }
}

#[test]
fn astg_writer_roundtrip_preserves_constraints() {
    for name in ["fifo", "imec-ram-read-sbuf"] {
        let bench = si_redress::suite::benchmark(name).expect("bundled");
        let (stg, library) = bench.circuit().expect("loads");
        let text = si_redress::stg::write_astg(&stg);
        let reparsed = parse_astg(&text).expect("round trip");
        let direct = derive_timing_constraints(&stg, &library).expect("derives");
        let via_text = derive_timing_constraints(&reparsed, &library).expect("derives");
        assert_eq!(direct.constraints, via_text.constraints, "{name}");
        assert_eq!(direct.baseline, via_text.baseline, "{name}");
    }
}

#[test]
fn relaxed_circuits_still_simulate_clean_with_mild_skew() {
    // The derived constraints are *sufficient*: any skew assignment that
    // respects them keeps the circuit hazard-free. Mild uniform jitter
    // respects every constraint (orderings hold by construction).
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let mut delays = DelayModel::uniform(40.0, 2.0, 90.0);
        // Slightly skew every branch of the first gate: still well within
        // every adversary path's slack (one gate delay ≈ 40 ps).
        if let Some(gate) = library.gates.first() {
            for v in &gate.vars {
                delays.set_wire(v, &gate.output, 7.0);
            }
        }
        let out = simulate(&stg, &library, &delays, 120).expect("simulates");
        assert!(
            out.glitches.is_empty(),
            "{}: {:?}",
            bench.name,
            out.glitches
        );
    }
}

#[test]
fn padding_plans_cover_all_strong_constraints() {
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let report = derive_timing_constraints(&stg, &library).expect("derives");
        let oracle = AdversaryOracle::new(&stg);
        let plan = si_redress::core::plan_padding(&oracle, &report.constraints, 5);
        let strong = oracle
            .constraints_within_level(&report.constraints, 5)
            .len();
        assert_eq!(plan.entries.len(), strong, "{}", bench.name);
        // Every position names signals the STG declares. (Not netlist
        // wires: a pad follows an STG causality hop, which the receiving
        // gate need not read.)
        for (c, position) in &plan.entries {
            let signals = match position {
                PaddingPosition::Wire { from, to } => vec![from, to],
                PaddingPosition::GateOutput { gate } => vec![gate],
            };
            for signal in signals {
                assert!(
                    stg.signal_by_name(signal).is_some(),
                    "{}: {c} pads {position:?}, and `{signal}` is no signal",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn the_fifo_pads_a_causality_hop_that_is_no_netlist_wire() {
    // A padding wire is a hop of the STG's adversary path. The FIFO's
    // `g0: d- < l+` pads `d → l`, which gate `l` does not read: a later
    // change to the padding model moves this entry on purpose.
    let bench = si_redress::suite::benchmark("fifo").expect("bundled");
    let (stg, library) = bench.circuit().expect("loads");
    let report = derive_timing_constraints(&stg, &library).expect("derives");
    let plan = si_redress::core::plan_padding(&AdversaryOracle::new(&stg), &report.constraints, 5);
    let (_, position) = plan
        .entries
        .iter()
        .find(|(c, _)| c.to_string() == "g0: d- < l+")
        .expect("a strong FIFO constraint");
    assert_eq!(
        *position,
        PaddingPosition::Wire {
            from: "d".into(),
            to: "l".into()
        }
    );
    let l = library.gate("l").expect("gate of the netlist");
    assert!(
        !l.vars.iter().any(|v| v == "d"),
        "gate `l` reads {:?}",
        l.vars
    );
}
