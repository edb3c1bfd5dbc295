//! Event-driven gate-level timing simulation with per-branch wire delays.
//!
//! This is the workbench on which the thesis's central claim is observable:
//! with isochronic forks (equal wire delays) a speed-independent circuit is
//! glitch-free; skew a fork beyond a derived timing constraint and the
//! affected gate glitches; honour the constraints (e.g. by padding) and the
//! glitches disappear.
//!
//! Mechanics: every gate keeps its own *view* of its support signals,
//! updated by per-wire arrival events; the gate's pull-up/pull-down covers
//! are evaluated on the view, output flips are scheduled one gate delay
//! later. An excitation that is withdrawn before the output fires is
//! recorded as a glitch (a pure-delay gate would emit the runt pulse; an
//! inertial gate absorbs it — either way the thesis counts it as a
//! hazard). Output flips are also checked against the STG: a flip with no
//! enabled specification transition is a specification violation. The
//! environment fires input transitions `env_delay` after they become
//! specification-enabled.

use std::collections::{BTreeMap, BinaryHeap};
use std::error::Error;
use std::fmt;

use si_boolean::GateLibrary;
use si_stg::{Polarity, Stg, StgError, DEFAULT_GLOBAL_SG_BUDGET};

/// Per-instance delay assignment, picoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayModel {
    /// Default gate propagation delay.
    pub default_gate_ps: f64,
    /// Default wire delay (every fork branch).
    pub default_wire_ps: f64,
    /// Environment response time.
    pub env_delay_ps: f64,
    /// Per-gate overrides, keyed by output name.
    pub gate_ps: BTreeMap<String, f64>,
    /// Per-branch overrides, keyed by `(driver signal, receiving gate)`.
    pub wire_ps: BTreeMap<(String, String), f64>,
    /// Pure-delay gate semantics (thesis Sec. 2.6): a withdrawn excitation
    /// still emits its runt pulse downstream instead of being absorbed.
    /// The default (`false`) models inertial delays, recording the
    /// withdrawal as a glitch without propagating it.
    pub pure_delay: bool,
}

impl DelayModel {
    /// Uniform delays: `gate` per gate, `wire` per branch, `env` for the
    /// environment.
    pub fn uniform(gate: f64, wire: f64, env: f64) -> Self {
        Self {
            default_gate_ps: gate,
            default_wire_ps: wire,
            env_delay_ps: env,
            gate_ps: BTreeMap::new(),
            wire_ps: BTreeMap::new(),
            pure_delay: false,
        }
    }

    /// Sets a branch delay override.
    pub fn set_wire(&mut self, driver: &str, gate: &str, ps: f64) {
        self.wire_ps
            .insert((driver.to_string(), gate.to_string()), ps);
    }

    /// Sets a gate delay override.
    pub fn set_gate(&mut self, gate: &str, ps: f64) {
        self.gate_ps.insert(gate.to_string(), ps);
    }

    fn gate(&self, name: &str) -> f64 {
        self.gate_ps
            .get(name)
            .copied()
            .unwrap_or(self.default_gate_ps)
    }

    fn wire(&self, driver: &str, gate: &str) -> f64 {
        self.wire_ps
            .get(&(driver.to_string(), gate.to_string()))
            .copied()
            .unwrap_or(self.default_wire_ps)
    }
}

/// A recorded hazard.
#[derive(Debug, Clone, PartialEq)]
pub struct Glitch {
    /// The gate whose excitation was withdrawn or whose flip violated the
    /// specification.
    pub gate: String,
    /// Simulation time, picoseconds.
    pub time_ps: f64,
    /// Human-readable description.
    pub kind: String,
}

/// Simulation result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    /// Hazards observed (empty = clean run).
    pub glitches: Vec<Glitch>,
    /// Output transitions fired.
    pub fired: usize,
    /// Final simulation time, picoseconds.
    pub time_ps: f64,
}

/// Simulation setup failure.
#[derive(Debug)]
pub enum SimulateError {
    /// The STG is malformed.
    Stg(StgError),
    /// A non-input signal has no gate in the library.
    MissingGate(String),
    /// A gate references a signal the STG does not declare.
    UnknownSignal(String),
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulateError::Stg(e) => write!(f, "{e}"),
            SimulateError::MissingGate(s) => write!(f, "no gate implements `{s}`"),
            SimulateError::UnknownSignal(s) => {
                write!(f, "gate references unknown signal `{s}`")
            }
        }
    }
}

impl Error for SimulateError {}

impl From<StgError> for SimulateError {
    fn from(e: StgError) -> Self {
        SimulateError::Stg(e)
    }
}

type Time = u64; // femtoseconds

fn fs(ps: f64) -> Time {
    (ps * 1000.0).round().max(0.0) as Time
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    WireArrival {
        gate: usize,
        var: usize,
        value: bool,
    },
    GateOutput {
        gate: usize,
        value: bool,
        version: u64,
    },
    EnvFire {
        transition: usize,
    },
}

struct GateInst {
    name: String,
    output: usize,
    up: si_boolean::Cover,
    down: si_boolean::Cover,
    support: Vec<usize>,
    view: u64,
    out: bool,
    pending: Option<bool>,
    version: u64,
    /// Pure-delay output pipeline: scheduled `(time, value)` flips.
    pipeline: Vec<(Time, bool)>,
}

struct Scheduler {
    queue: BinaryHeap<std::cmp::Reverse<(Time, u64, usize)>>,
    events: Vec<Event>,
    seq: u64,
}

impl Scheduler {
    fn new() -> Self {
        Self {
            queue: BinaryHeap::new(),
            events: Vec::new(),
            seq: 0,
        }
    }

    fn push(&mut self, t: Time, e: Event) {
        self.events.push(e);
        self.queue
            .push(std::cmp::Reverse((t, self.seq, self.events.len() - 1)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, Event)> {
        self.queue
            .pop()
            .map(|std::cmp::Reverse((t, _, i))| (t, self.events[i].clone()))
    }
}

/// Runs the circuit against its STG environment until `max_fired` output
/// transitions have fired (or activity dies out).
///
/// # Errors
///
/// Fails on malformed inputs (missing gates, unknown signals, dead STGs).
pub fn simulate(
    stg: &Stg,
    library: &GateLibrary,
    delays: &DelayModel,
    max_fired: usize,
) -> Result<SimOutcome, SimulateError> {
    // The initial signal values, read off one walk of the reachable
    // markings.
    let code = stg.analyze(DEFAULT_GLOBAL_SG_BUDGET)?.initial_code()?;
    let mut values: Vec<bool> = (0..stg.signal_count())
        .map(|s| (code >> s) & 1 == 1)
        .collect();
    let net = stg.net();

    let mut gates: Vec<GateInst> = Vec::new();
    for s in stg.gate_signals() {
        let name = stg.signal_name(s).to_string();
        let gate = library
            .gate(&name)
            .ok_or_else(|| SimulateError::MissingGate(name.clone()))?;
        let mut support = Vec::new();
        for v in &gate.vars {
            let sig = stg
                .signal_by_name(v)
                .ok_or_else(|| SimulateError::UnknownSignal(v.clone()))?;
            support.push(sig.0);
        }
        let mut view = 0u64;
        for (i, &sig) in support.iter().enumerate() {
            if values[sig] {
                view |= 1u64 << i;
            }
        }
        gates.push(GateInst {
            name,
            output: s.0,
            up: gate.up.clone(),
            down: gate.down.clone(),
            support,
            view,
            out: values[s.0],
            pending: None,
            version: 0,
            pipeline: Vec::new(),
        });
    }

    // Fan-out lists: signal -> (gate idx, var idx).
    let mut fanout: Vec<Vec<(usize, usize)>> = vec![Vec::new(); stg.signal_count()];
    for (gi, g) in gates.iter().enumerate() {
        for (vi, &sig) in g.support.iter().enumerate() {
            fanout[sig].push((gi, vi));
        }
    }

    let is_input = |t: usize| {
        !stg.signal_kind(stg.label(si_petri::TransitionId(t)).signal)
            .is_gate_driven()
    };

    let mut marking = net.initial_marking();
    let mut sched = Scheduler::new();
    let mut env_scheduled: Vec<bool> = vec![false; net.transition_count()];

    for t in net.transitions() {
        if is_input(t.0) && net.enabled(t, &marking) {
            env_scheduled[t.0] = true;
            sched.push(fs(delays.env_delay_ps), Event::EnvFire { transition: t.0 });
        }
    }

    // Gates excited in the initial state fire without waiting for input
    // activity (e.g. a marking whose first enabled transition is a gate
    // output).
    for (gi, g) in gates.iter_mut().enumerate() {
        let want = if g.up.eval(g.view) {
            true
        } else if g.down.eval(g.view) {
            false
        } else {
            g.out
        };
        if want != g.out {
            g.pending = Some(want);
            g.version += 1;
            let delay = fs(delays.gate(&g.name));
            let version = g.version;
            sched.push(
                delay,
                Event::GateOutput {
                    gate: gi,
                    value: want,
                    version,
                },
            );
        }
    }

    let mut outcome = SimOutcome::default();
    let max_events = 500_000usize;
    let mut processed = 0usize;

    while let Some((t, event)) = sched.pop() {
        if outcome.fired >= max_fired || processed >= max_events {
            break;
        }
        processed += 1;
        outcome.time_ps = t as f64 / 1000.0;
        match event {
            Event::WireArrival { gate, var, value } => {
                let bit = 1u64 << var;
                let g = &mut gates[gate];
                let view = if value { g.view | bit } else { g.view & !bit };
                if view == g.view {
                    continue;
                }
                g.view = view;
                let want = if g.up.eval(view) {
                    true
                } else if g.down.eval(view) {
                    false
                } else {
                    g.out // hold state
                };
                if delays.pure_delay {
                    // Pure delay: every change of the eventual value is
                    // emitted after the gate delay; two reversals at the
                    // same instant cancel (a zero-width pulse).
                    let eventual = g.pipeline.last().map_or(g.out, |&(_, v)| v);
                    if want != eventual {
                        let fire_at = t + fs(delays.gate(&g.name));
                        if g.pipeline.last() == Some(&(fire_at, !want)) {
                            g.pipeline.pop();
                        } else {
                            g.pipeline.push((fire_at, want));
                            g.version += 1;
                            let version = g.version;
                            sched.push(
                                fire_at,
                                Event::GateOutput {
                                    gate,
                                    value: want,
                                    version,
                                },
                            );
                        }
                    }
                    continue;
                }
                match g.pending {
                    Some(p) if p == want => {}
                    Some(_) => {
                        // Excitation withdrawn or reversed before firing.
                        g.version += 1;
                        if want == g.out {
                            g.pending = None;
                            outcome.glitches.push(Glitch {
                                gate: g.name.clone(),
                                time_ps: t as f64 / 1000.0,
                                kind: "excitation withdrawn before firing".to_string(),
                            });
                        } else {
                            g.pending = Some(want);
                            let delay = fs(delays.gate(&g.name));
                            let version = g.version;
                            sched.push(
                                t + delay,
                                Event::GateOutput {
                                    gate,
                                    value: want,
                                    version,
                                },
                            );
                        }
                    }
                    None => {
                        if want != g.out {
                            g.pending = Some(want);
                            g.version += 1;
                            let delay = fs(delays.gate(&g.name));
                            let version = g.version;
                            sched.push(
                                t + delay,
                                Event::GateOutput {
                                    gate,
                                    value: want,
                                    version,
                                },
                            );
                        }
                    }
                }
            }
            Event::GateOutput {
                gate,
                value,
                version,
            } => {
                if delays.pure_delay {
                    // Commit the front of the pipeline if this event still
                    // matches it (cancelled pulses removed it).
                    match gates[gate].pipeline.first() {
                        Some(&(at, v)) if at == t && v == value => {
                            gates[gate].pipeline.remove(0);
                        }
                        _ => continue,
                    }
                    if gates[gate].out == value {
                        continue;
                    }
                } else if gates[gate].version != version || gates[gate].pending != Some(value) {
                    continue; // superseded
                }
                gates[gate].pending = None;
                gates[gate].out = value;
                let sig = gates[gate].output;
                values[sig] = value;
                outcome.fired += 1;

                // Specification progress.
                let pol = if value {
                    Polarity::Plus
                } else {
                    Polarity::Minus
                };
                let spec = net.transitions().find(|&tr| {
                    let l = stg.label(tr);
                    l.signal.0 == sig && l.polarity == pol && net.enabled(tr, &marking)
                });
                match spec {
                    Some(tr) => {
                        marking = net.fire(tr, &marking);
                        for u in net.transitions() {
                            if is_input(u.0) && net.enabled(u, &marking) && !env_scheduled[u.0] {
                                env_scheduled[u.0] = true;
                                sched.push(
                                    t + fs(delays.env_delay_ps),
                                    Event::EnvFire { transition: u.0 },
                                );
                            }
                        }
                    }
                    None => outcome.glitches.push(Glitch {
                        gate: gates[gate].name.clone(),
                        time_ps: t as f64 / 1000.0,
                        kind: format!(
                            "fired {}{pol} with no enabled specification transition",
                            gates[gate].name
                        ),
                    }),
                }

                let driver = stg.signal_name(si_stg::SignalId(sig)).to_string();
                for &(gi, vi) in &fanout[sig] {
                    let wire = fs(delays.wire(&driver, &gates[gi].name));
                    sched.push(
                        t + wire,
                        Event::WireArrival {
                            gate: gi,
                            var: vi,
                            value,
                        },
                    );
                }
            }
            Event::EnvFire { transition } => {
                let tr = si_petri::TransitionId(transition);
                env_scheduled[transition] = false;
                if !net.enabled(tr, &marking) {
                    continue; // lost a free choice
                }
                marking = net.fire(tr, &marking);
                let label = stg.label(tr);
                let sig = label.signal.0;
                values[sig] = label.polarity.target_value();
                let driver = stg.signal_name(label.signal).to_string();
                for &(gi, vi) in &fanout[sig] {
                    let wire = fs(delays.wire(&driver, &gates[gi].name));
                    sched.push(
                        t + wire,
                        Event::WireArrival {
                            gate: gi,
                            var: vi,
                            value: values[sig],
                        },
                    );
                }
                for u in net.transitions() {
                    if is_input(u.0) && net.enabled(u, &marking) && !env_scheduled[u.0] {
                        env_scheduled[u.0] = true;
                        sched.push(
                            t + fs(delays.env_delay_ps),
                            Event::EnvFire { transition: u.0 },
                        );
                    }
                }
            }
        }
    }

    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fifo() -> (Stg, GateLibrary) {
        si_suite::benchmark("fifo")
            .expect("present")
            .circuit()
            .expect("loads")
    }

    #[test]
    fn isochronic_forks_run_clean() {
        let (stg, lib) = fifo();
        let delays = DelayModel::uniform(40.0, 2.0, 80.0);
        let out = simulate(&stg, &lib, &delays, 200).expect("simulates");
        assert!(out.glitches.is_empty(), "{:?}", out.glitches);
        assert!(out.fired >= 200, "only {} transitions fired", out.fired);
    }

    #[test]
    fn violating_the_derived_constraint_glitches() {
        // Table 7.1-style: the FIFO's done detector g0 requires d- to
        // reach it before the next l+. Slowing the d → g0 branch far
        // beyond a cycle violates the constraint and must glitch.
        let (stg, lib) = fifo();
        let mut delays = DelayModel::uniform(40.0, 2.0, 80.0);
        delays.set_wire("d", "g0", 3000.0);
        let out = simulate(&stg, &lib, &delays, 400).expect("simulates");
        assert!(
            out.glitches.iter().any(|g| g.gate == "g0"),
            "expected a glitch at g0, got {:?}",
            out.glitches
        );
    }

    #[test]
    fn padding_the_adversary_path_restores_correctness() {
        // Same skew, but the adversary path (gate l) padded so that l+
        // again loses the race: clean run. This is the Sec. 5.7 fix.
        let (stg, lib) = fifo();
        let mut delays = DelayModel::uniform(40.0, 2.0, 80.0);
        delays.set_wire("d", "g0", 3000.0);
        delays.set_gate("l", 3200.0);
        let out = simulate(&stg, &lib, &delays, 200).expect("simulates");
        assert!(
            !out.glitches.iter().any(|g| g.gate == "g0"),
            "g0 still glitches: {:?}",
            out.glitches
        );
    }

    #[test]
    fn c_element_tolerates_arbitrary_skew() {
        let text = "\
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
";
        let stg = si_stg::parse_astg(text).expect("valid");
        let lib = si_synth::synthesize(&stg, 1000).expect("CSC");
        let mut delays = DelayModel::uniform(40.0, 2.0, 80.0);
        delays.set_wire("a", "c", 5000.0); // monstrous skew on one branch
        let out = simulate(&stg, &lib, &delays, 100).expect("simulates");
        assert!(out.glitches.is_empty(), "{:?}", out.glitches);
    }

    #[test]
    fn pure_delay_clean_circuit_stays_clean() {
        let (stg, lib) = fifo();
        let mut delays = DelayModel::uniform(40.0, 2.0, 80.0);
        delays.pure_delay = true;
        let out = simulate(&stg, &lib, &delays, 200).expect("simulates");
        assert!(out.glitches.is_empty(), "{:?}", out.glitches);
        assert!(out.fired >= 200);
    }

    #[test]
    fn pure_delay_propagates_the_runt_pulse() {
        // Thesis Sec. 2.6: under pure delay the withdrawn excitation is
        // not absorbed — the violated constraint produces *specification
        // violations* (the pulse fires against the STG), not just a
        // withdrawal report.
        let (stg, lib) = fifo();
        let mut delays = DelayModel::uniform(40.0, 2.0, 80.0);
        delays.pure_delay = true;
        delays.set_wire("d", "g0", 3000.0);
        let out = simulate(&stg, &lib, &delays, 400).expect("simulates");
        assert!(
            out.glitches
                .iter()
                .any(|g| g.gate == "g0" && g.kind.contains("specification")),
            "expected a propagated pulse at g0, got {:?}",
            out.glitches
        );
    }

    #[test]
    fn every_benchmark_simulates_clean_under_isochronic_forks() {
        for b in si_suite::benchmarks() {
            let (stg, lib) = b.circuit().expect("loads");
            let delays = DelayModel::uniform(30.0, 1.0, 60.0);
            let out = simulate(&stg, &lib, &delays, 100).expect("simulates");
            assert!(out.glitches.is_empty(), "{}: {:?}", b.name, out.glitches);
            assert!(out.fired > 0, "{}: nothing fired", b.name);
        }
    }
}
