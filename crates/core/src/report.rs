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
use si_stg::sexp::escape;
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
    /// Renders the full report as a deterministic, diff-friendly snapshot:
    /// the content of [`Self::json_members`] (state count, iteration
    /// count, both constraint sets, the per-gate verdicts and the
    /// relaxation trace with its hazard classifications), with every
    /// volatile field of the `check_hazard --format json` payload — wall
    /// times, cache counters, job counts — excluded. The golden
    /// conformance suite pins one snapshot per bundled benchmark; any
    /// change to this format invalidates those files (regenerate with
    /// `UPDATE_GOLDEN=1 cargo test --test golden`).
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

    /// The report as JSON object members, for a caller to place inside
    /// its own object (`check_hazard --format json` does): `baseline`,
    /// `constraints`, `state_count`, `iterations`, `per_gate` (one
    /// `{gate, baseline, derived}` object per gate) and `trace` — the
    /// content of [`Self::snapshot`], constraints and trace events as
    /// strings in their `Display` form.
    #[must_use]
    pub fn json_members(&self) -> String {
        let gates: Vec<String> = self
            .per_gate
            .iter()
            .map(|g| {
                format!(
                    "{{\"gate\":\"{}\",\"baseline\":{},\"derived\":{}}}",
                    escape(&g.gate),
                    json_strings(&g.baseline),
                    json_strings(&g.derived)
                )
            })
            .collect();
        format!(
            "\"baseline\":{},\"constraints\":{},\"state_count\":{},\"iterations\":{},\"per_gate\":[{}],\"trace\":{}",
            json_strings(&self.baseline),
            json_strings(&self.constraints),
            self.state_count,
            self.iterations,
            gates.join(","),
            json_strings(&self.trace)
        )
    }
}

/// A JSON array of `items`' `Display` forms.
fn json_strings<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let strings: Vec<String> = items
        .into_iter()
        .map(|item| format!("\"{}\"", escape(&item.to_string())))
        .collect();
    format!("[{}]", strings.join(","))
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
        // The one JSON definition: both sets, the counts, the per-gate
        // verdicts and the trace, as `Display` strings.
        assert_eq!(
            report.json_members(),
            "\"baseline\":[\"o: y- < z-\",\"o: z+ < y-\"],\"constraints\":[\"o: z+ < y-\"],\
             \"state_count\":6,\"iterations\":3,\"per_gate\":[{\"gate\":\"o\",\
             \"baseline\":[\"o: y- < z-\",\"o: z+ < y-\"],\"derived\":[\"o: z+ < y-\"]}],\
             \"trace\":[\"relax [o] y- => z-: case 1\",\"relax [o] z+ => y-: case 4\",\
             \"constraint o: z+ < y-\"]"
        );
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
