use std::error::Error;
use std::fmt;

use si_stg::StgError;

use crate::sched::DivergenceWitness;

/// Errors reported by the constraint-derivation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An STG-level analysis failed.
    Stg(StgError),
    /// An input artefact failed to parse (engine parse stage).
    Parse {
        /// What was being parsed (`"STG"`, `"EQN netlist"`).
        what: &'static str,
        /// The underlying parser message.
        detail: String,
    },
    /// The specification failed the static lint pre-flight under
    /// [`LintPolicy::Deny`](crate::LintPolicy::Deny) (engine lint stage).
    Lint {
        /// The STG's model name.
        name: String,
        /// How many error-severity findings the linter reported.
        errors: usize,
        /// The first error's message (the full set is in the
        /// [`EngineReport::lint`](crate::EngineReport::lint) the CLI
        /// renders; errors cannot carry it, so they carry the headline).
        detail: String,
    },
    /// The STG parsed but is not well formed: not live, unsafe,
    /// non-free-choice or inconsistent (engine validate stage).
    NotWellFormed {
        /// The STG's model name.
        name: String,
        /// Which of the four checks failed.
        detail: String,
    },
    /// The netlist has no gate for a non-input signal of the STG.
    MissingGate {
        /// The signal without an implementation.
        signal: String,
    },
    /// A gate references a signal the STG does not declare.
    UnknownSignal {
        /// The gate whose support is wrong.
        gate: String,
        /// The missing signal.
        name: String,
    },
    /// A gate has a redundant literal; the relaxation operation is only
    /// sound without them (thesis Lemma 2).
    RedundantLiteral {
        /// The offending gate.
        gate: String,
    },
    /// The initial local STG already violates timing conformance: the
    /// circuit is not a correct SI implementation of the STG.
    NotConformant {
        /// The gate whose local STG is non-conformant.
        gate: String,
    },
    /// The per-gate relaxation loop exceeded its iteration budget.
    IterationBudgetExceeded {
        /// The gate being expanded.
        gate: String,
        /// The exhausted budget.
        budget: usize,
    },
    /// The covering ledger classified the per-gate relaxation loop as
    /// non-converging under [`DivergencePolicy::Bail`](crate::DivergencePolicy::Bail):
    /// a loop state came back covering an earlier one, a repeated state
    /// (proof of a cycle) or a token pump (a heuristic). Deterministic —
    /// the same circuit diverges with the same witness under every engine
    /// configuration.
    Diverged {
        /// The gate being expanded.
        gate: String,
        /// Which sign the ledger saw, when, the covered earlier iteration
        /// and the arcs whose tokens grew.
        witness: DivergenceWitness,
    },
    /// A relaxation produced a state the four-case criterion cannot
    /// classify soundly (should not happen for live/safe/consistent
    /// inputs; reported rather than mis-handled).
    Unresolved {
        /// The gate being expanded.
        gate: String,
        /// Human-readable context.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Stg(e) => write!(f, "{e}"),
            CoreError::Parse { what, detail } => write!(f, "cannot parse {what}: {detail}"),
            CoreError::Lint {
                name,
                errors,
                detail,
            } => write!(
                f,
                "STG `{name}` failed the lint pre-flight with {errors} error(s); first: {detail}"
            ),
            CoreError::NotWellFormed { name, detail } => {
                write!(f, "STG `{name}` is not well formed ({detail})")
            }
            CoreError::MissingGate { signal } => {
                write!(f, "no gate implements non-input signal `{signal}`")
            }
            CoreError::UnknownSignal { gate, name } => {
                write!(f, "gate `{gate}` references undeclared signal `{name}`")
            }
            CoreError::RedundantLiteral { gate } => {
                write!(
                    f,
                    "gate `{gate}` has a redundant literal; remove it before relaxation"
                )
            }
            CoreError::NotConformant { gate } => write!(
                f,
                "gate `{gate}` is not timing-conformant to its local STG before relaxation"
            ),
            CoreError::IterationBudgetExceeded { gate, budget } => {
                write!(
                    f,
                    "relaxation of gate `{gate}` exceeded {budget} iterations"
                )
            }
            CoreError::Diverged { gate, witness } => {
                write!(f, "relaxation of gate `{gate}` diverged: {witness}")
            }
            CoreError::Unresolved { gate, detail } => {
                write!(f, "unresolved relaxation state at gate `{gate}`: {detail}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Stg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StgError> for CoreError {
    fn from(e: StgError) -> Self {
        CoreError::Stg(e)
    }
}
