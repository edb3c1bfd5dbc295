//! The top-level derivation — Algorithm 5 (`Deriving_timing_constraints`).
//!
//! Decomposes the implementation STG into MG components, projects every
//! gate's local STG, records the baseline (Keller et al.) adversary-path
//! constraints, runs the relaxation loop, and unions the per-gate results.
//!
//! Since the staged-pipeline refactor the heavy lifting lives in
//! [`crate::Engine`]; the two `derive_timing_constraints*` functions here
//! are the classic monolithic entry points, pinned to the engine's
//! sequential, uncached [`crate::EngineConfig::reference`] configuration
//! (the differential baseline every other configuration is tested
//! against).

use std::collections::BTreeSet;

use si_boolean::GateLibrary;
use si_stg::Stg;

use crate::constraint::Constraint;
use crate::engine::{Engine, EngineConfig};
use crate::error::CoreError;
use crate::expand::{RelaxationOrder, TraceEvent};

/// Per-gate derivation summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateReport {
    /// The gate's output signal.
    pub gate: String,
    /// Baseline (pre-relaxation) type-4 constraints of this gate.
    pub baseline: BTreeSet<Constraint>,
    /// Constraints surviving relaxation for this gate.
    pub derived: BTreeSet<Constraint>,
}

/// The full derivation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintReport {
    /// The baseline constraint set: one constraint per type-4 arc before
    /// relaxation (the Keller et al. adversary-path conditions).
    pub baseline: BTreeSet<Constraint>,
    /// The derived relative timing constraints (`Rt`).
    pub constraints: BTreeSet<Constraint>,
    /// Per-gate breakdown.
    pub per_gate: Vec<GateReport>,
    /// Relaxation trace across all gates.
    pub trace: Vec<TraceEvent>,
    /// Reachable states of the full implementation STG (Table 7.2 column).
    pub state_count: usize,
    /// Total relaxation iterations.
    pub iterations: usize,
}

impl ConstraintReport {
    /// Renders one constraint set in the thesis tool's line format.
    pub fn render(set: &BTreeSet<Constraint>) -> String {
        let mut s = String::new();
        for c in set {
            s.push_str(&c.to_string());
            s.push('\n');
        }
        s
    }

    /// Renders the full report as a deterministic, diff-friendly snapshot:
    /// the semantic content of the `check_hazard --format json` payload
    /// (state count, iteration count, both constraint sets, the per-gate
    /// verdicts and the relaxation trace with its hazard classifications),
    /// with every volatile field — wall times, cache counters, job counts
    /// — excluded. The golden conformance suite pins one snapshot per
    /// bundled benchmark; any change to this format invalidates those
    /// files (regenerate with `UPDATE_GOLDEN=1 cargo test --test golden`).
    pub fn snapshot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "state_count: {}", self.state_count);
        let _ = writeln!(s, "iterations: {}", self.iterations);
        let _ = writeln!(s, "baseline: {}", self.baseline.len());
        for c in &self.baseline {
            let _ = writeln!(s, "  {c}");
        }
        let _ = writeln!(s, "constraints: {}", self.constraints.len());
        for c in &self.constraints {
            let _ = writeln!(s, "  {c}");
        }
        for gate in &self.per_gate {
            let _ = writeln!(s, "gate {}:", gate.gate);
            let _ = writeln!(s, "  baseline: {}", gate.baseline.len());
            for c in &gate.baseline {
                let _ = writeln!(s, "    {c}");
            }
            let _ = writeln!(s, "  derived: {}", gate.derived.len());
            for c in &gate.derived {
                let _ = writeln!(s, "    {c}");
            }
        }
        let _ = writeln!(s, "trace: {}", self.trace.len());
        for event in &self.trace {
            let _ = writeln!(s, "  {event}");
        }
        s
    }

    /// Renders the report in the S-expression interchange format
    /// (`docs/interchange.md`): a `constraint-report` document carrying
    /// the same stable content as [`Self::snapshot`] — counts, both
    /// constraint sets, the per-gate verdicts and the relaxation trace —
    /// with every volatile field excluded. Constraints and trace events
    /// ride as quoted strings in their `Display` form.
    #[must_use]
    pub fn sexp(&self) -> String {
        let mut w = si_stg::sexp::SexpWriter::new("constraint-report");
        w.open("constraint-report");
        w.open("state-count");
        w.atom(&self.state_count.to_string());
        w.close();
        w.open("iterations");
        w.atom(&self.iterations.to_string());
        w.close();
        let set = |w: &mut si_stg::sexp::SexpWriter, head: &str, set: &BTreeSet<Constraint>| {
            w.open(head);
            for c in set {
                w.open("constraint");
                w.string(&c.to_string());
                w.close();
            }
            w.close();
        };
        set(&mut w, "baseline", &self.baseline);
        set(&mut w, "constraints", &self.constraints);
        for gate in &self.per_gate {
            w.open("gate");
            w.string(&gate.gate);
            set(&mut w, "baseline", &gate.baseline);
            set(&mut w, "derived", &gate.derived);
            w.close();
        }
        w.open("trace");
        for event in &self.trace {
            w.open("event");
            w.string(&event.to_string());
            w.close();
        }
        w.close();
        w.close();
        w.finish()
    }
}

/// Derives the relative timing constraints sufficient for `stg`'s circuit
/// (given as `library`) to stay hazard-free under the intra-operator fork
/// assumption (Algorithm 5), along with the pre-relaxation baseline.
///
/// # Errors
///
/// - [`CoreError::MissingGate`] when a non-input signal has no gate;
/// - [`CoreError::NotConformant`] when the netlist does not implement the
///   STG hazard-free under the isochronic-fork assumption (the method's
///   precondition);
/// - plus decomposition/state-graph errors for malformed inputs.
pub fn derive_timing_constraints(
    stg: &Stg,
    library: &GateLibrary,
) -> Result<ConstraintReport, CoreError> {
    derive_timing_constraints_with_order(stg, library, RelaxationOrder::TightestFirst)
}

/// [`derive_timing_constraints`] under an explicit relaxation-order policy
/// (the Sec. 5.5 ablation: naive orders can only produce equal-or-stronger
/// constraint sets).
///
/// # Errors
///
/// Same as [`derive_timing_constraints`].
pub fn derive_timing_constraints_with_order(
    stg: &Stg,
    library: &GateLibrary,
    order: RelaxationOrder,
) -> Result<ConstraintReport, CoreError> {
    Engine::new(EngineConfig::reference().with_order(order))
        .run(stg, library)
        .map(|out| out.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_boolean::parse_eqn;
    use si_stg::parse_astg;

    #[test]
    fn c_element_has_no_constraints_at_all() {
        let stg = parse_astg(
            "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
",
        )
        .expect("valid");
        let lib = GateLibrary::from_netlist(&parse_eqn("c = a*b + a*c + b*c;").expect("valid"));
        let report = derive_timing_constraints(&stg, &lib).expect("derives");
        assert!(report.baseline.is_empty());
        assert!(report.constraints.is_empty());
        assert_eq!(report.state_count, 8);
    }

    #[test]
    fn derived_set_is_a_strict_subset_of_the_baseline() {
        // The hazardous handover has two type-4 arcs (z+ ⇒ y- and
        // y- ⇒ z-); relaxation discharges the falling-order one and keeps
        // only the load-bearing handover: a 50 % reduction, the paper's
        // headline effect in miniature.
        let stg = parse_astg(
            "\
.model handover
.inputs y z
.outputs o
.graph
z+ y-
y- z-
z- o-
o- y+
y+ o+
o+ z+
.marking { <o+,z+> }
.end
",
        )
        .expect("valid");
        let lib = GateLibrary::from_netlist(&parse_eqn("o = y + z;").expect("valid"));
        let report = derive_timing_constraints(&stg, &lib).expect("derives");
        assert_eq!(report.baseline.len(), 2);
        let rendered: Vec<String> = report.constraints.iter().map(|c| c.to_string()).collect();
        assert_eq!(rendered, vec!["o: z+ < y-"]);
        assert!(report.constraints.is_subset(&report.baseline));
    }

    #[test]
    fn missing_gate_is_reported() {
        let stg = parse_astg(
            "\
.model buf
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
",
        )
        .expect("valid");
        let lib = GateLibrary::default();
        assert!(matches!(
            derive_timing_constraints(&stg, &lib),
            Err(CoreError::MissingGate { .. })
        ));
    }

    #[test]
    fn wrong_netlist_fails_conformance() {
        // An OR gate cannot implement the C-element STG: the initial local
        // STG is not conformant.
        let stg = parse_astg(
            "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
",
        )
        .expect("valid");
        let lib = GateLibrary::from_netlist(&parse_eqn("c = a + b;").expect("valid"));
        assert!(matches!(
            derive_timing_constraints(&stg, &lib),
            Err(CoreError::NotConformant { .. })
        ));
    }
}
