//! Extended corpus beyond Table 7.2: circuits exercising features the
//! main suite touches only lightly — multiple occurrences per signal
//! (`l+/2`, the double latch pulse of the thesis Fig. 7.1 FIFO) and the
//! classic VME-bus read controller.

use crate::Benchmark;

/// The thesis Fig. 7.1 FIFO with the **double** latch pulse: `l` (and the
/// delay-line echo `d`, and the done detector `g0`) toggle twice per
/// handshake cycle, so the local STGs carry `/2` occurrence indices
/// through projection, relaxation and constraint reporting.
pub const FIFO_DOUBLE_G: &str = "\
.model fifo-double
.inputs ri ao d
.outputs ai ro l
.internal g0 p
.graph
ri+ l+
l+ d+
d+ g0+
g0+ p+
p+ ai+
ai+ l- ri-
l- g0- d-
g0- ro+
ro+ ao+
ao+ l+/2
d- l+/2
l+/2 d+/2
d+/2 g0+/2
g0+/2 p-
p- ro-
ro- ao-
ao- l-/2
l-/2 g0-/2 d-/2
ri- ai-
g0-/2 ai-
ai- ri+
d-/2 l+
.marking { <ai-,ri+> <d-/2,l+> }
.end
";

/// The VME-bus read-cycle controller (thesis Fig. 8.1 discusses the
/// read/write version; the read cycle alone is free of CSC conflicts):
/// `dsr`/`ldtack` in, `lds`/`d`/`dtack` out.
pub const VME_READ_G: &str = "\
.model vme-read
.inputs dsr ldtack
.outputs lds d dtack
.graph
dsr+ lds+
lds+ ldtack+
ldtack+ d+
d+ dtack+
dtack+ dsr-
dsr- d-
d- dtack- lds-
lds- ldtack-
ldtack- dsr+
dtack- dsr+
.marking { <ldtack-,dsr+> <dtack-,dsr+> }
.end
";

/// Extended benchmarks (not part of the Table 7.2 row set).
pub fn extended() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "fifo-double",
            stg_text: FIFO_DOUBLE_G,
            eqn_text: None,
        },
        Benchmark {
            name: "vme-read",
            stg_text: VME_READ_G,
            eqn_text: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use si_core::derive_timing_constraints;
    use si_stg::StateGraph;
    use si_synth::verify_implements;

    #[test]
    fn extended_circuits_validate_like_the_main_suite() {
        for b in super::extended() {
            let (stg, lib) = b.circuit().unwrap_or_else(|e| panic!("{e}"));
            assert!(
                stg.net().is_live(1_000_000).expect("bounded"),
                "{} live",
                b.name
            );
            assert!(
                stg.net().is_safe(1_000_000).expect("bounded"),
                "{} safe",
                b.name
            );
            let sg = StateGraph::of_stg(&stg, 1_000_000).expect("consistent");
            assert!(verify_implements(&stg, &sg, &lib).is_empty(), "{}", b.name);
        }
    }

    #[test]
    fn double_pulse_constraints_carry_occurrence_indices() {
        let b = super::extended()
            .into_iter()
            .find(|b| b.name == "fifo-double")
            .expect("present");
        let (stg, lib) = b.circuit().expect("loads");
        let report = derive_timing_constraints(&stg, &lib).expect("derives");
        assert!(
            report.constraints.len() < report.baseline.len(),
            "no reduction: {} vs {}",
            report.constraints.len(),
            report.baseline.len()
        );
        // The second latch pulse must appear somewhere in the constraint
        // universe with its /2 suffix.
        let all: Vec<String> = report
            .baseline
            .iter()
            .chain(report.constraints.iter())
            .map(|c| c.to_string())
            .collect();
        assert!(
            all.iter().any(|c| c.contains("/2")),
            "no occurrence-indexed constraint in {all:?}"
        );
    }

    #[test]
    fn vme_read_reduces_its_baseline() {
        let b = super::extended()
            .into_iter()
            .find(|b| b.name == "vme-read")
            .expect("present");
        let (stg, lib) = b.circuit().expect("loads");
        let report = derive_timing_constraints(&stg, &lib).expect("derives");
        assert!(report.constraints.len() <= report.baseline.len());
        assert!(!report.baseline.is_empty());
    }
}
