//! Complete state coding (CSC) verification.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use si_stg::{Polarity, SignalId, StateGraph, Stg};

/// A CSC violation: two reachable states share a binary code but disagree on
/// the excitation of a non-input signal, so no logic function can implement
/// that signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscViolation {
    /// Name of the signal whose next-state function is ill-defined.
    pub signal: String,
    /// The shared binary code of the conflicting states.
    pub code: u64,
}

impl fmt::Display for CscViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CSC violation on signal `{}`: states with code {:#b} disagree on its excitation",
            self.signal, self.code
        )
    }
}

impl Error for CscViolation {}

/// The "next value" a signal takes from a state: its current value unless an
/// enabled transition changes it.
pub(crate) fn next_value(sg: &StateGraph, state: usize, signal: SignalId) -> bool {
    for &(t, _) in sg.edges(state) {
        let l = sg.label(t);
        if l.signal == signal {
            return l.polarity == Polarity::Plus;
        }
    }
    sg.value(state, signal)
}

/// Checks complete state coding over all non-input signals.
///
/// # Errors
///
/// Returns the first [`CscViolation`] found (deterministic order).
pub fn check_csc(stg: &Stg, sg: &StateGraph) -> Result<(), CscViolation> {
    let gate_signals = stg.gate_signals();
    let mut by_code: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for i in 0..sg.state_count() {
        by_code.entry(sg.code(i)).or_default().push(i);
    }
    for (&code, states) in &by_code {
        if states.len() < 2 {
            continue;
        }
        for &a in &gate_signals {
            let first = next_value(sg, states[0], a);
            if states[1..].iter().any(|&s| next_value(sg, s, a) != first) {
                return Err(CscViolation {
                    signal: stg.signal_name(a).to_string(),
                    code,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::parse_astg;

    #[test]
    fn imec_benchmark_has_csc() {
        // The thesis benchmark already contains csc0/map0 resolving state
        // conflicts.
        let stg = parse_astg(si_stg::IMEC_RAM_READ_SBUF_G).expect("valid");
        let sg = StateGraph::of_stg(&stg, 100_000).expect("consistent");
        assert!(check_csc(&stg, &sg).is_ok());
    }

    #[test]
    fn classic_csc_violation_is_detected() {
        // The canonical CSC conflict: two handshakes in sequence pass
        // through the all-zero code twice with different future behaviour.
        let text = "\
.model cscviol
.inputs a
.outputs b c
.graph
a+ b+
b+ a-
a- c+
c+ b-
b- c-
c- a+
.marking { <c-,a+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let sg = StateGraph::of_stg(&stg, 1000).expect("consistent");
        // Trace the codes: 000 →a+ 100 →b+ 110 →a- 010 →c+ 011 →b- 001
        // →c- 000. Every code is unique, so this one actually has CSC.
        // Extend with a second a+/a- pulse that revisits a code:
        let text2 = "\
.model cscviol2
.inputs a
.outputs b
.graph
a+ a-
a- a+/2
a+/2 b+
b+ a-/2
a-/2 b-
b- a+
.marking { <b-,a+> }
.end
";
        let stg2 = parse_astg(text2).expect("valid");
        let sg2 = StateGraph::of_stg(&stg2, 1000).expect("consistent");
        // After a+ a- the code returns to 00 but b+ is not yet due at the
        // initial 00: violation on b.
        let violation = check_csc(&stg2, &sg2).unwrap_err();
        assert_eq!(violation.signal, "b");
        let _ = check_csc(&stg, &sg); // either outcome; exercised above
    }
}
