//! The benchmark STGs (and the one verbatim netlist).
//!
//! Interface widths follow thesis Table 7.2. Reconstructed controllers are
//! documented inline; every one is validated by the suite tests (live,
//! safe, consistent, CSC, conformant).

use crate::Benchmark;

/// A/D converter fast controller: sample → compare → count handshake with
/// a completion-sensing branch (3 in / 3 out).
const ADFAST_G: &str = "\
.model adfast
.inputs go cmp rdy
.outputs samp cnt done
.graph
go+ samp+
samp+ cmp+
cmp+ cnt+
cnt+ rdy+
rdy+ samp- done+
samp- cmp-
done+ go-
cmp- cnt-
go- cnt-
cnt- rdy-
rdy- done-
done- go+
.marking { <done-,go+> }
.end
";

/// A-to-D start/latch/ack controller with a concurrent end-of-conversion
/// branch (3 in / 3 out).
const ATOD_G: &str = "\
.model atod
.inputs req eoc d
.outputs start la ack
.graph
req+ start+
start+ eoc+
eoc+ la+
la+ d+ start-
start- eoc-
d+ ack+
eoc- ack+
ack+ req-
req- la-
la- d-
d- ack-
ack- req+
.marking { <ack-,req+> }
.end
";

/// Three-stage AND-chain controller: each stage waits for the previous
/// stage's gate and its own environment echo (3 in / 3 out).
const CHU133_G: &str = "\
.model chu133
.inputs a b c
.outputs x y z
.graph
a+ x+
x+ b+
b+ y+
y+ c+
c+ z+
z+ a-
a- x-
x- b- y-
y- z-
z- c-
c- a+
b- a+
.marking { <c-,a+> <b-,a+> }
.end
";

/// Handshake protocol converter with an internal phase signal
/// (2 in / 3 out).
const CONVERTA_G: &str = "\
.model converta
.inputs a k
.outputs b r x
.graph
a+ r+
r+ k+
k+ b+
b+ a-
a- x+
x+ r-
r- k-
k- x-
x- b-
b- a+
.marking { <b-,a+> }
.end
";

/// Two-port sequencer in the Ebergen style: the right port's request is
/// gated by the left port's progress (2 in / 3 out).
const EBERGEN_G: &str = "\
.model ebergen
.inputs i j
.outputs p q r
.graph
i+ p+
p+ j+
j+ q+
q+ r+
r+ i-
i- p- r-
p- q-
q- j-
j- i+
r- i+
.marking { <j-,i+> <r-,i+> }
.end
";

/// The FIFO latch controller of thesis Ch. 7.1 (chu150 flavour): latch
/// enable `l` mirrored by the environment's delay line `d`, done detector
/// `g0 = l·d` (3 in / 3 out + 1 internal).
pub const FIFO_G: &str = "\
.model fifo
.inputs ri ao d
.outputs ai ro l
.internal g0
.graph
ri+ l+
l+ d+
d+ g0+
g0+ ai+
ai+ ri- ro+
ro+ ao+
ao+ l-
l- ro- g0- d-
d- l+ ai-
g0- l+ ai-
ri- ai-
ro- ai-
ai- ri+
ro- ao-
ao- ro+
.marking { <ai-,ri+> <g0-,l+> <d-,l+> <ao-,ro+> }
.end
";

/// Request/nak/ack arbiter-free controller: a request fans through two
/// resource handshakes before the (n)ack phase (4 in / 5 out).
const IMEC_NAK_PA_G: &str = "\
.model imec-nak-pa
.inputs req a0 a1 nak
.outputs r0 r1 ack g h
.graph
req+ g+
g+ r0+
r0+ a0+
a0+ r1+
r1+ a1+
a1+ h+
h+ nak+
nak+ ack+
ack+ req-
req- r0- h-
r0- a0-
a0- r1-
r1- a1-
a1- g-
g- nak-
nak- ack-
h- ack-
ack- req+
.marking { <ack-,req+> }
.end
";

/// Verbatim thesis benchmark (Sec. 7.3.1): STG and netlist as printed.
const IMEC_RAM_READ_SBUF_EQN: &str = "\
i0 = precharged + wenin';
ack = i0' + map0';
i2 = csc0' * map0';
wsen = wsldin' * i2';
i4 = wenin + req;
prnot = i4* precharged + i4 * prnot + precharged * prnot;
wen = req * prnotin;
wsld = wenin' * csc0';
i8 = req' * prnotin;
csc0 = i8' *wsldin + i8' * csc0;
map0 = wsldin' * csc0;
";

/// Sense-buffer read control: precharge pulse then enable/done handshake
/// (2 in / 4 out).
const IMEC_SBUF_READ_CTL_G: &str = "\
.model imec-sbuf-read-ctl
.inputs req prin
.outputs ack pr en done
.graph
req+ pr+
pr+ prin+
prin+ en+
en+ pr-
pr- prin-
prin- done+
done+ ack+
ack+ req-
req- en-
en- done-
done- ack-
ack- req+
.marking { <ack-,req+> }
.end
";

/// Packet-forwarding controller: forward to channel 0, then channel 1,
/// then acknowledge (3 in / 5 out).
const MP_FORWARD_PKT_G: &str = "\
.model mp-forward-pkt
.inputs req a0 a1
.outputs s r0 t r1 ack
.graph
req+ s+
s+ r0+
r0+ a0+
a0+ t+
t+ r0- r1+
r0- a0-
r1+ a1+
a1+ ack+
ack+ r1- req-
r1- a1-
req- s-
s- t-
t- ack-
ack- req+
a0- s-
a1- t-
.marking { <ack-,req+> }
.end
";

/// Free-choice controller in the Nowick burst-mode flavour: the
/// environment chooses between a long (a/x/c/y) and a short (b/z) burst
/// (3 in / 3 out, two MG components).
const NOWICK_G: &str = "\
.model nowick
.inputs a b c
.outputs x y z
.graph
p0 a+ b+
a+ x+
x+ c+
c+ y+
y+ a-
a- x-
x- y-
y- c-
c- p0
b+ z+
z+ b-
b- z-
z- p0
.marking { p0 }
.end
";

/// Three-stage memory-send sequencer: grant gates g0..g2 thread a request
/// through two data handshakes (3 in / 6 out).
const TRIMOS_SEND_G: &str = "\
.model trimos-send
.inputs req am ad
.outputs g0 rm g1 rd g2 done
.graph
req+ g0+
g0+ rm+
rm+ am+
am+ g1+
g1+ rd+
rd+ ad+
ad+ g2+
g2+ done+
done+ g0- req-
g0- rm- g1-
rm- am-
g1- rd- g2-
rd- ad-
g2- done-
am- done-
ad- done-
req- done-
done- req+
.marking { <done-,req+> }
.end
";

/// Chained broadcast with a C-element join at the far end
/// (3 in / 5 out).
const VBE5C_G: &str = "\
.model vbe5c
.inputs a b c
.outputs x y z w v
.graph
a+ x+
x+ y+
y+ b+
b+ z+
z+ c+
c+ w+
w+ v+
v+ a-
a- x-
x- y-
y- b-
b- z- w-
z- c-
c- v-
w- v-
v- a+
.marking { <v-,a+> }
.end
";

/// All thirteen benchmarks in Table 7.2 row order.
pub fn all() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "adfast",
            stg_text: ADFAST_G,
            eqn_text: None,
        },
        Benchmark {
            name: "atod",
            stg_text: ATOD_G,
            eqn_text: None,
        },
        Benchmark {
            name: "chu133",
            stg_text: CHU133_G,
            eqn_text: None,
        },
        Benchmark {
            name: "converta",
            stg_text: CONVERTA_G,
            eqn_text: None,
        },
        Benchmark {
            name: "ebergen",
            stg_text: EBERGEN_G,
            eqn_text: None,
        },
        Benchmark {
            name: "fifo",
            stg_text: FIFO_G,
            eqn_text: None,
        },
        Benchmark {
            name: "imec-nak-pa",
            stg_text: IMEC_NAK_PA_G,
            eqn_text: None,
        },
        Benchmark {
            name: "imec-ram-read-sbuf",
            stg_text: si_stg::IMEC_RAM_READ_SBUF_G,
            eqn_text: Some(IMEC_RAM_READ_SBUF_EQN),
        },
        Benchmark {
            name: "imec-sbuf-read-ctl",
            stg_text: IMEC_SBUF_READ_CTL_G,
            eqn_text: None,
        },
        Benchmark {
            name: "mp-forward-pkt",
            stg_text: MP_FORWARD_PKT_G,
            eqn_text: None,
        },
        Benchmark {
            name: "nowick",
            stg_text: NOWICK_G,
            eqn_text: None,
        },
        Benchmark {
            name: "trimos-send",
            stg_text: TRIMOS_SEND_G,
            eqn_text: None,
        },
        Benchmark {
            name: "vbe5c",
            stg_text: VBE5C_G,
            eqn_text: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use si_core::derive_timing_constraints;
    use si_stg::{parse_astg, SignalKind, StateGraph};
    use si_synth::verify_implements;

    use super::*;

    #[test]
    fn every_benchmark_parses_live_safe_consistent() {
        for b in all() {
            let stg = parse_astg(b.stg_text).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(
                stg.net().is_live(1_000_000).expect("bounded"),
                "{} is not live",
                b.name
            );
            assert!(
                stg.net().is_safe(1_000_000).expect("bounded"),
                "{} is not safe",
                b.name
            );
            // Consistency: the SG builds.
            StateGraph::of_stg(&stg, 1_000_000).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    #[test]
    fn every_benchmark_synthesizes_and_implements_its_sg() {
        for b in all() {
            let (stg, lib) = b.circuit().unwrap_or_else(|e| panic!("{e}"));
            let sg = StateGraph::of_stg(&stg, 1_000_000).expect("consistent");
            let mismatches = verify_implements(&stg, &sg, &lib);
            assert!(mismatches.is_empty(), "{}: {mismatches:?}", b.name);
        }
    }

    #[test]
    fn every_benchmark_derives_constraints() {
        for b in all() {
            let (stg, lib) = b.circuit().unwrap_or_else(|e| panic!("{e}"));
            let report =
                derive_timing_constraints(&stg, &lib).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(
                report.constraints.len() <= report.baseline.len(),
                "{}: derived {} > baseline {}",
                b.name,
                report.constraints.len(),
                report.baseline.len()
            );
        }
    }

    #[test]
    fn interface_widths_match_table_7_2() {
        let expected: &[(&str, usize, usize)] = &[
            ("adfast", 3, 3),
            ("atod", 3, 3),
            ("chu133", 3, 3),
            ("converta", 2, 3),
            ("ebergen", 2, 3),
            ("fifo", 3, 3),
            ("imec-nak-pa", 4, 5),
            ("imec-ram-read-sbuf", 5, 5),
            ("imec-sbuf-read-ctl", 2, 4),
            ("mp-forward-pkt", 3, 5),
            ("nowick", 3, 3),
            ("trimos-send", 3, 6),
            ("vbe5c", 3, 5),
        ];
        for &(name, inputs, outputs) in expected {
            let stg =
                parse_astg(crate::benchmark(name).expect("present").stg_text).expect("parses");
            assert_eq!(
                stg.signals_of_kind(SignalKind::Input).len(),
                inputs,
                "{name} inputs"
            );
            assert_eq!(
                stg.signals_of_kind(SignalKind::Output).len(),
                outputs,
                "{name} outputs"
            );
        }
    }

    #[test]
    fn nowick_is_free_choice_with_two_components() {
        let stg =
            parse_astg(crate::benchmark("nowick").expect("present").stg_text).expect("parses");
        assert!(stg.net().is_free_choice());
        let analysis = stg.analyze(1_000_000).expect("bounded");
        let comps = stg.mg_components(&analysis, 64).expect("decomposes");
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn imec_gold_counts_match_the_thesis() {
        let b = crate::benchmark("imec-ram-read-sbuf").expect("present");
        let (stg, lib) = b.circuit().expect("loads");
        let report = derive_timing_constraints(&stg, &lib).expect("derives");
        // Thesis Table 7.2 row: 19 before, 12 after, 112 states.
        assert_eq!(report.baseline.len(), 19);
        assert_eq!(report.constraints.len(), 12);
        assert_eq!(report.state_count, 112);
    }
}
