//! Delay padding to fulfil strong timing constraints (thesis Sec. 5.7).
//!
//! A constraint `gate: x* < y*` is a delay relation between the *direct
//! wire* (from gate `x` to the constrained gate) and the *adversary path*
//! realizing `y*`. Strong constraints (short adversary paths) are fulfilled
//! by padding delay into the adversary path. The thesis heuristic, greedy:
//!
//! 1. prefer padding the wire closest to the destination gate (position 1),
//!    provided that wire is not itself the fast side of another constraint;
//! 2. otherwise walk backwards along the path (position 3, …);
//! 3. in the worst case pad the last gate's output (position 2), which can
//!    always fulfil the constraint at a broader performance cost.

use std::collections::BTreeSet;

use crate::constraint::Constraint;
use crate::paths::AdversaryOracle;

/// Where a delay element is inserted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum PaddingPosition {
    /// On the wire between two gates (delays one branch only).
    ///
    /// The wire is one causality hop `from* ⇒ to*` of the STG's adversary
    /// path, which need not be a wire of the netlist: the receiving gate
    /// may not read `from` at all. The FIFO's `g0: d- < l+` pads `d → l`,
    /// but its gate `l` reads no `d`, so `si_sim::apply_padding` delays a
    /// wire its simulator never uses.
    Wire {
        /// Driving signal.
        from: String,
        /// Receiving gate (output signal name).
        to: String,
    },
    /// On a gate output (delays every branch of its fork).
    GateOutput {
        /// The padded gate.
        gate: String,
    },
}

/// A padding plan: one position per strong constraint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PaddingPlan {
    /// `(constraint, chosen position)` pairs, in constraint order.
    pub entries: Vec<(Constraint, PaddingPosition)>,
}

impl PaddingPlan {
    /// The set of distinct padding positions (shared wires pad once).
    pub fn positions(&self) -> BTreeSet<PaddingPosition> {
        self.entries.iter().map(|(_, p)| p.clone()).collect()
    }
}

/// Plans padding for every constraint whose adversary path is at most
/// `max_level` deep (deeper paths and environment-crossing paths are
/// considered already fulfilled, Sec. 7.1).
///
/// The plan reads the STG, not the netlist: a [`PaddingPosition::Wire`]
/// names two consecutive signals of the adversary path, a causality hop
/// that need not be a netlist wire (the FIFO's `g0: d- < l+` pads
/// `d → l`, and gate `l` reads no `d`).
pub fn plan_padding(
    oracle: &AdversaryOracle,
    constraints: &BTreeSet<Constraint>,
    max_level: u32,
) -> PaddingPlan {
    // Fast sides: the direct wires that must stay fast — wire from the
    // `before` signal to the constrained gate.
    let fast_sides: BTreeSet<(&str, &str)> = constraints
        .iter()
        .map(|c| (c.before.signal.as_str(), c.gate.as_str()))
        .collect();

    let mut entries = Vec::new();
    for c in constraints {
        let Some(path) = oracle.path_of(c) else {
            continue;
        };
        if path.level().is_none_or(|l| l > max_level) {
            continue; // slow or environment path: already fulfilled
        }
        // Candidate wires along the adversary path, destination-first: the
        // wire hop into the constrained gate, then backwards.
        let mut hops: Vec<&str> = path
            .hops
            .iter()
            .map(|h| oracle.signal_name(h.signal))
            .collect();
        hops.dedup();
        // Wire i runs from hops[i] into receivers[i].
        let receivers: Vec<&str> = hops[1..].iter().copied().chain([c.gate.as_str()]).collect();
        let wire = hops
            .iter()
            .copied()
            .zip(receivers)
            .rev()
            .find(|wire| !fast_sides.contains(wire));
        let position = match wire {
            Some((from, to)) => PaddingPosition::Wire {
                from: from.to_string(),
                to: to.to_string(),
            },
            None => PaddingPosition::GateOutput {
                gate: hops[hops.len() - 1].to_string(),
            },
        };
        entries.push((c.clone(), position));
    }
    PaddingPlan { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintAtom;
    use si_stg::{parse_astg, Polarity};

    fn constraint(gate: &str, before: (&str, Polarity), after: (&str, Polarity)) -> Constraint {
        Constraint {
            gate: gate.to_string(),
            before: ConstraintAtom {
                signal: before.0.to_string(),
                polarity: before.1,
                occurrence: 1,
            },
            after: ConstraintAtom {
                signal: after.0.to_string(),
                polarity: after.1,
                occurrence: 1,
            },
        }
    }

    const CHAIN: &str = "\
.model chain
.inputs c
.outputs m a o
.graph
c+ m-
m- a+
a+ o+
c+ o+
o+ c-
c- m+
m+ a-
a- o-
c- o-
o- c+
.marking { <o-,c+> }
.end
";

    #[test]
    fn pads_the_wire_nearest_the_destination() {
        let stg = parse_astg(CHAIN).expect("valid");
        let oracle = AdversaryOracle::new(&stg);
        // Constraint at gate o: c+ must beat a+ (path c+ ⇒ m- ⇒ a+).
        let set: BTreeSet<Constraint> = [constraint(
            "o",
            ("c", Polarity::Plus),
            ("a", Polarity::Plus),
        )]
        .into();
        let plan = plan_padding(&oracle, &set, 11);
        assert_eq!(plan.entries.len(), 1);
        match &plan.entries[0].1 {
            PaddingPosition::Wire { from, to } => {
                assert_eq!(from, "a");
                assert_eq!(to, "o");
            }
            other => panic!("expected a wire position, got {other:?}"),
        }
    }

    #[test]
    fn avoids_fast_sides_of_other_constraints() {
        let stg = parse_astg(CHAIN).expect("valid");
        let oracle = AdversaryOracle::new(&stg);
        let set: BTreeSet<Constraint> = [
            constraint("o", ("c", Polarity::Plus), ("a", Polarity::Plus)),
            // A second constraint whose fast side is the wire a -> o.
            constraint("o", ("a", Polarity::Plus), ("m", Polarity::Minus)),
        ]
        .into();
        let plan = plan_padding(&oracle, &set, 11);
        let first = plan
            .entries
            .iter()
            .find(|(c, _)| c.after.signal == "a")
            .expect("planned");
        // Wire a -> o is a fast side; the planner must walk backwards.
        assert_ne!(
            first.1,
            PaddingPosition::Wire {
                from: "a".into(),
                to: "o".into()
            }
        );
    }

    #[test]
    fn slow_paths_are_skipped() {
        let stg = parse_astg(CHAIN).expect("valid");
        let oracle = AdversaryOracle::new(&stg);
        let set: BTreeSet<Constraint> = [constraint(
            "o",
            ("c", Polarity::Plus),
            ("a", Polarity::Plus),
        )]
        .into();
        let plan = plan_padding(&oracle, &set, 3); // path is level 5
        assert!(plan.entries.is_empty());
    }
}
