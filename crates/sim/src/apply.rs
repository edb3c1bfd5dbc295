//! Bridge from the Sec. 5.7 padding planner to the event simulator:
//! materializes a [`si_core::PaddingPlan`] as delay overrides, closing the
//! loop derive-constraints → plan-padding → simulate-clean.

use si_core::{PaddingPlan, PaddingPosition};

use crate::event::DelayModel;

/// Applies `pad_ps` of extra delay at every position of the plan: wire
/// positions add to the branch delay, gate positions to the gate delay.
pub fn apply_padding(delays: &mut DelayModel, plan: &PaddingPlan, pad_ps: f64) {
    for position in plan.positions() {
        match position {
            PaddingPosition::Wire { from, to } => {
                let current = delays
                    .wire_ps
                    .get(&(from.clone(), to.clone()))
                    .copied()
                    .unwrap_or(delays.default_wire_ps);
                delays.set_wire(&from, &to, current + pad_ps);
            }
            PaddingPosition::GateOutput { gate } => {
                let current = delays
                    .gate_ps
                    .get(&gate)
                    .copied()
                    .unwrap_or(delays.default_gate_ps);
                delays.set_gate(&gate, current + pad_ps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::simulate;
    use si_core::{derive_timing_constraints, plan_padding, AdversaryOracle};

    #[test]
    fn planned_padding_defeats_a_constraint_violating_skew() {
        // Closed loop: derive the FIFO's constraints, skew a fork far
        // enough to violate `g0: d- < l+`, confirm the glitch, then apply
        // the planner's own positions with a pad larger than the skew and
        // confirm the glitch is gone.
        let (stg, library) = si_suite::benchmark("fifo")
            .expect("bundled")
            .circuit()
            .expect("loads");
        let report = derive_timing_constraints(&stg, &library).expect("derives");
        let oracle = AdversaryOracle::new(&stg);
        let plan = plan_padding(&oracle, &report.constraints, 5);
        assert!(!plan.entries.is_empty());

        let skew = 3000.0;
        let mut broken = DelayModel::uniform(40.0, 2.0, 80.0);
        broken.set_wire("d", "g0", skew);
        let glitchy = simulate(&stg, &library, &broken, 400).expect("simulates");
        assert!(glitchy.glitches.iter().any(|g| g.gate == "g0"));

        let mut padded = broken.clone();
        apply_padding(&mut padded, &plan, skew + 200.0);
        let clean = simulate(&stg, &library, &padded, 200).expect("simulates");
        assert!(
            !clean.glitches.iter().any(|g| g.gate == "g0"),
            "g0 still glitches after applying the plan: {:?}",
            clean.glitches
        );
    }

    #[test]
    fn shared_positions_pad_once() {
        let (stg, library) = si_suite::benchmark("fifo")
            .expect("bundled")
            .circuit()
            .expect("loads");
        let report = derive_timing_constraints(&stg, &library).expect("derives");
        let oracle = AdversaryOracle::new(&stg);
        let plan = plan_padding(&oracle, &report.constraints, 5);

        let mut delays = DelayModel::uniform(40.0, 2.0, 80.0);
        apply_padding(&mut delays, &plan, 100.0);
        // Every override is base + exactly one pad.
        for &ps in delays.wire_ps.values() {
            assert!((ps - 102.0).abs() < 1e-9, "{ps}");
        }
        for &ps in delays.gate_ps.values() {
            assert!((ps - 140.0).abs() < 1e-9, "{ps}");
        }
    }
}
