use std::error::Error;
use std::fmt;

/// Errors reported by net-level analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PetriError {
    /// A bounded exploration exceeded its state budget before converging.
    StateBudgetExceeded {
        /// The budget that was exhausted.
        budget: usize,
    },
    /// The net is not free-choice, but the requested operation needs it.
    NotFreeChoice {
        /// Name of an offending choice place.
        place: String,
    },
    /// Hack's decomposition would enumerate too many MG allocations.
    TooManyAllocations {
        /// Number of allocations that would be required.
        count: usize,
        /// The enumeration cap.
        cap: usize,
    },
    /// An MG allocation reduced to a component that is not a marked graph
    /// (only possible when the input net is not live-and-safe free-choice).
    ComponentNotMarkedGraph {
        /// Name of a place with more than one surviving input or output
        /// transition.
        place: String,
    },
}

impl fmt::Display for PetriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PetriError::StateBudgetExceeded { budget } => {
                write!(
                    f,
                    "state exploration exceeded the budget of {budget} markings"
                )
            }
            PetriError::NotFreeChoice { place } => {
                write!(
                    f,
                    "net is not free-choice: place `{place}` shares an output transition"
                )
            }
            PetriError::TooManyAllocations { count, cap } => {
                write!(
                    f,
                    "MG decomposition needs {count} allocations, more than the cap {cap}"
                )
            }
            PetriError::ComponentNotMarkedGraph { place } => {
                write!(
                    f,
                    "allocation reduced to a non-MG component at place `{place}`"
                )
            }
        }
    }
}

impl Error for PetriError {}
