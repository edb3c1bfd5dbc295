use std::error::Error;
use std::fmt;

use si_petri::{decompose_into_mg_components, PetriError, PetriNet, TransitionId};

use crate::mg::MgStg;
use crate::signal::{Polarity, SignalId, SignalKind, TransitionLabel};
use crate::walk::StgAnalysis;

/// Default state budget of a whole-STG walk: the engine's default
/// whole-STG budget, and the budget of the walks that take none
/// ([`Stg::initial_values`], [`MgStg::from_stg_mg`]).
pub const DEFAULT_GLOBAL_SG_BUDGET: usize = 1_000_000;

/// Allocation cap of Hack's MG decomposition ([`Stg::mg_components`]).
pub const ALLOCATION_CAP: usize = 4096;

/// Errors produced by STG-level analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgError {
    /// An underlying net analysis failed.
    Petri(PetriError),
    /// The STG violates consistency: rising and falling transitions of a
    /// signal do not alternate (thesis Sec. 3.3).
    Inconsistent {
        /// Name of the offending signal.
        signal: String,
    },
    /// A signal never fires from the initial marking, so its initial value
    /// cannot be determined.
    DeadSignal {
        /// Name of the signal.
        signal: String,
    },
    /// More signals than the 64-bit state encoding supports.
    TooManySignals {
        /// Signal count.
        count: usize,
    },
    /// The marked-graph view cannot be built (e.g. a dangling place).
    MalformedMarkedGraph {
        /// Explanation.
        reason: String,
    },
    /// A referenced signal does not exist.
    UnknownSignal {
        /// The missing name.
        name: String,
    },
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::Petri(e) => write!(f, "{e}"),
            StgError::Inconsistent { signal } => {
                write!(f, "STG is not consistent on signal `{signal}`")
            }
            StgError::DeadSignal { signal } => {
                write!(f, "signal `{signal}` never fires from the initial marking")
            }
            StgError::TooManySignals { count } => {
                write!(f, "{count} signals exceed the 64-signal state encoding")
            }
            StgError::MalformedMarkedGraph { reason } => {
                write!(f, "malformed marked graph: {reason}")
            }
            StgError::UnknownSignal { name } => write!(f, "unknown signal `{name}`"),
        }
    }
}

impl Error for StgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StgError::Petri(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PetriError> for StgError {
    fn from(e: PetriError) -> Self {
        StgError::Petri(e)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SignalDecl {
    pub name: String,
    pub kind: SignalKind,
}

/// A signal transition graph: a labelled Petri net (thesis Sec. 3.3).
///
/// Transitions of the underlying net carry [`TransitionLabel`]s; signals are
/// declared with a [`SignalKind`] matching the `.inputs` / `.outputs` /
/// `.internal` sections of the `.g` format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stg {
    /// Model name (the `.model` line).
    pub name: String,
    pub(crate) net: PetriNet,
    pub(crate) signals: Vec<SignalDecl>,
    pub(crate) labels: Vec<TransitionLabel>,
}

impl Stg {
    /// Creates an empty STG.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            net: PetriNet::new(),
            signals: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Declares a signal and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn add_signal(&mut self, name: impl Into<String>, kind: SignalKind) -> SignalId {
        let name = name.into();
        assert!(
            self.signal_by_name(&name).is_none(),
            "signal `{name}` is already declared"
        );
        self.signals.push(SignalDecl { name, kind });
        SignalId(self.signals.len() - 1)
    }

    /// Adds a labelled transition and returns the underlying net id.
    pub fn add_transition(&mut self, label: TransitionLabel) -> TransitionId {
        let name = label.named(self.signal_name(label.signal)).to_string();
        let t = self.net.add_transition(name);
        self.labels.push(label);
        t
    }

    /// Connects two transitions through a fresh implicit place holding
    /// `tokens` tokens; returns nothing (the place is anonymous).
    pub fn add_arc(&mut self, from: TransitionId, to: TransitionId, tokens: u32) {
        let pname = format!(
            "<{},{}>",
            self.net.transition_name(from),
            self.net.transition_name(to)
        );
        let p = self.net.add_place(pname, tokens);
        self.net.add_arc_tp(from, p);
        self.net.add_arc_pt(p, to);
    }

    /// The underlying Petri net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// Mutable access to the underlying net, for explicit-place construction.
    pub fn net_mut(&mut self) -> &mut PetriNet {
        &mut self.net
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// All signal ids.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> {
        (0..self.signals.len()).map(SignalId)
    }

    /// Name of signal `s`.
    pub fn signal_name(&self, s: SignalId) -> &str {
        &self.signals[s.0].name
    }

    /// Kind of signal `s`.
    pub fn signal_kind(&self, s: SignalId) -> SignalKind {
        self.signals[s.0].kind
    }

    /// The full name table, indexed by [`SignalId`].
    pub fn signal_names(&self) -> Vec<String> {
        self.signals.iter().map(|d| d.name.clone()).collect()
    }

    /// Finds a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|d| d.name == name)
            .map(SignalId)
    }

    /// Label of transition `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn label(&self, t: TransitionId) -> TransitionLabel {
        self.labels[t.0]
    }

    /// All transitions labelled with signal `s`.
    pub fn transitions_of(&self, s: SignalId) -> Vec<TransitionId> {
        self.net
            .transitions()
            .filter(|t| self.labels[t.0].signal == s)
            .collect()
    }

    /// Signals of kind Input / Output / Internal.
    pub fn signals_of_kind(&self, kind: SignalKind) -> Vec<SignalId> {
        self.signal_ids()
            .filter(|&s| self.signal_kind(s) == kind)
            .collect()
    }

    /// Non-input signals (`R ∪ O`): those implemented by gates.
    pub fn gate_signals(&self) -> Vec<SignalId> {
        self.signal_ids()
            .filter(|&s| self.signal_kind(s).is_gate_driven())
            .collect()
    }

    /// Computes the initial value of every signal by simulating a firing
    /// sequence until each signal has fired once: a signal whose first
    /// transition is falling starts at 1, rising starts at 0 (consistency
    /// makes the first polarity path-independent).
    ///
    /// A walk of its own, over at most [`DEFAULT_GLOBAL_SG_BUDGET`]
    /// markings. A run reads the initial values off its one walk instead
    /// ([`StgAnalysis::initial_code`](crate::StgAnalysis::initial_code)).
    ///
    /// # Errors
    ///
    /// [`StgError::DeadSignal`] if some signal never fires (the STG is not
    /// live), [`StgError::TooManySignals`] for > 64 signals.
    pub fn initial_values(&self) -> Result<Vec<bool>, StgError> {
        if self.signals.len() > 64 {
            return Err(StgError::TooManySignals {
                count: self.signals.len(),
            });
        }
        crate::walk::count_walk();
        // For each signal, the first transition reachable along any path
        // determines the initial value; consistency makes the polarity
        // path-independent, which is verified here. A per-signal BFS over
        // the reachability graph handles free choice (a deterministic
        // firing sequence could starve one branch).
        let reach = self.net.reachability(DEFAULT_GLOBAL_SG_BUDGET)?;
        let mut values = Vec::with_capacity(self.signals.len());
        for s in 0..self.signals.len() {
            let mut polarity: Option<Polarity> = None;
            let mut seen = vec![false; reach.markings.len()];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(i) = stack.pop() {
                for &(t, j) in &reach.edges[i] {
                    let label = self.labels[t.0];
                    if label.signal.0 == s {
                        match polarity {
                            None => polarity = Some(label.polarity),
                            Some(p) if p != label.polarity => {
                                return Err(StgError::Inconsistent {
                                    signal: self.signals[s].name.clone(),
                                });
                            }
                            _ => {}
                        }
                    } else if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
            match polarity {
                Some(Polarity::Plus) => values.push(false),
                Some(Polarity::Minus) => values.push(true),
                None => {
                    return Err(StgError::DeadSignal {
                        signal: self.signals[s].name.clone(),
                    })
                }
            }
        }
        Ok(values)
    }

    /// Decomposes the (free-choice) STG into marked-graph STG components
    /// (thesis Sec. 5.2.1), capping allocation enumeration at `cap`. Every
    /// component starts at the initial code of `analysis`, this STG's
    /// walk.
    ///
    /// # Errors
    ///
    /// Decomposition errors, then the initial code's error, then
    /// malformed-component errors.
    pub fn mg_components(
        &self,
        analysis: &StgAnalysis,
        cap: usize,
    ) -> Result<Vec<MgStg>, StgError> {
        let comps = decompose_into_mg_components(&self.net, cap)?;
        let initial_code = analysis.initial_code()?;
        comps
            .iter()
            .map(|c| MgStg::from_component(self, c, initial_code))
            .collect()
    }

    /// A label rendered with this STG's signal names.
    pub fn label_string(&self, label: TransitionLabel) -> String {
        label.named(self.signal_name(label.signal)).to_string()
    }

    /// Checks the well-formedness properties the thesis flow assumes:
    /// liveness, safeness, free choice and consistency, plus basic size
    /// statistics. `budget` bounds the state exploration: one walk
    /// ([`Stg::analyze`]), whose [`StgAnalysis::health`] this is.
    ///
    /// # Errors
    ///
    /// Propagates state-budget exhaustion; individual property failures
    /// are reported in the returned [`StgHealth`], not as errors.
    pub fn validate(&self, budget: usize) -> Result<StgHealth, StgError> {
        self.analyze(budget)?.health()
    }
}

/// Well-formedness summary returned by [`Stg::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StgHealth {
    /// Every transition stays fireable (thesis Sec. 3.2).
    pub live: bool,
    /// Every place holds at most one token.
    pub safe: bool,
    /// Every choice place is free-choice (required by Hack decomposition).
    pub free_choice: bool,
    /// Rising/falling transitions alternate per signal.
    pub consistent: bool,
    /// Reachable state count, when consistent.
    pub states: Option<usize>,
    /// Transition count.
    pub transitions: usize,
    /// Signal count.
    pub signals: usize,
}

impl StgHealth {
    /// Whether the STG satisfies everything the derivation flow requires.
    pub fn is_well_formed(&self) -> bool {
        self.live && self.safe && self.free_choice && self.consistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple handshake: req+ → ack+ → req- → ack- → (back).
    pub(crate) fn handshake() -> Stg {
        let mut stg = Stg::new("handshake");
        let req = stg.add_signal("req", SignalKind::Input);
        let ack = stg.add_signal("ack", SignalKind::Output);
        let rp = stg.add_transition(TransitionLabel::first(req, Polarity::Plus));
        let ap = stg.add_transition(TransitionLabel::first(ack, Polarity::Plus));
        let rm = stg.add_transition(TransitionLabel::first(req, Polarity::Minus));
        let am = stg.add_transition(TransitionLabel::first(ack, Polarity::Minus));
        stg.add_arc(rp, ap, 0);
        stg.add_arc(ap, rm, 0);
        stg.add_arc(rm, am, 0);
        stg.add_arc(am, rp, 1);
        stg
    }

    #[test]
    fn initial_values_from_first_polarity() {
        let stg = handshake();
        assert_eq!(stg.initial_values().expect("live"), vec![false, false]);
    }

    #[test]
    fn initial_values_high_signal() {
        // ack starts high: ack- fires first.
        let mut stg = Stg::new("inv");
        let a = stg.add_signal("a", SignalKind::Input);
        let b = stg.add_signal("b", SignalKind::Output);
        let ap = stg.add_transition(TransitionLabel::first(a, Polarity::Plus));
        let bm = stg.add_transition(TransitionLabel::first(b, Polarity::Minus));
        let am = stg.add_transition(TransitionLabel::first(a, Polarity::Minus));
        let bp = stg.add_transition(TransitionLabel::first(b, Polarity::Plus));
        stg.add_arc(ap, bm, 0);
        stg.add_arc(bm, am, 0);
        stg.add_arc(am, bp, 0);
        stg.add_arc(bp, ap, 1);
        assert_eq!(stg.initial_values().expect("live"), vec![false, true]);
    }

    #[test]
    fn dead_signal_is_reported() {
        let mut stg = Stg::new("dead");
        let a = stg.add_signal("a", SignalKind::Input);
        let b = stg.add_signal("b", SignalKind::Output);
        let ap = stg.add_transition(TransitionLabel::first(a, Polarity::Plus));
        let am = stg.add_transition(TransitionLabel::first(a, Polarity::Minus));
        stg.add_arc(ap, am, 0);
        stg.add_arc(am, ap, 1);
        // b has a transition that can never fire.
        let bp = stg.add_transition(TransitionLabel::first(b, Polarity::Plus));
        let dead = stg.net_mut().add_place("dead", 0);
        stg.net_mut().add_arc_pt(dead, bp);
        assert_eq!(
            stg.initial_values(),
            Err(StgError::DeadSignal {
                signal: "b".to_string()
            })
        );
    }

    #[test]
    fn transitions_of_signal() {
        let stg = handshake();
        let req = stg.signal_by_name("req").expect("declared");
        let ts = stg.transitions_of(req);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn duplicate_signal_panics() {
        let mut stg = Stg::new("dup");
        stg.add_signal("a", SignalKind::Input);
        stg.add_signal("a", SignalKind::Output);
    }

    #[test]
    fn validate_reports_well_formedness() {
        let health = handshake().validate(1000).expect("bounded");
        assert!(health.is_well_formed());
        assert_eq!(health.states, Some(4));
        assert_eq!(health.signals, 2);
        assert_eq!(health.transitions, 4);
    }

    #[test]
    fn validate_flags_inconsistency() {
        let mut stg = Stg::new("bad");
        let a = stg.add_signal("a", SignalKind::Input);
        let t1 = stg.add_transition(TransitionLabel::new(a, Polarity::Plus, 1));
        let t2 = stg.add_transition(TransitionLabel::new(a, Polarity::Plus, 2));
        stg.add_arc(t1, t2, 0);
        stg.add_arc(t2, t1, 1);
        let health = stg.validate(1000).expect("bounded");
        assert!(!health.consistent);
        assert!(!health.is_well_formed());
        assert!(health.live);
    }

    #[test]
    fn gate_signals_exclude_inputs() {
        let stg = handshake();
        let gs = stg.gate_signals();
        assert_eq!(gs.len(), 1);
        assert_eq!(stg.signal_name(gs[0]), "ack");
    }
}
