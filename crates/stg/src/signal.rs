use std::fmt;

/// Index of a signal inside an [`crate::Stg`]'s signal table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub usize);

/// Direction of a signal transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Polarity {
    /// Rising transition (`a+`): logic low to logic high.
    Plus,
    /// Falling transition (`a-`): logic high to logic low.
    Minus,
}

impl Polarity {
    /// The opposite polarity.
    pub fn opposite(self) -> Self {
        match self {
            Polarity::Plus => Polarity::Minus,
            Polarity::Minus => Polarity::Plus,
        }
    }

    /// The signal value *after* a transition of this polarity fires.
    pub fn target_value(self) -> bool {
        matches!(self, Polarity::Plus)
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::Plus => write!(f, "+"),
            Polarity::Minus => write!(f, "-"),
        }
    }
}

/// Role of a signal in the circuit (thesis Sec. 2.3: `A = I ∪ O ∪ R`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SignalKind {
    /// Primary input: driven by the environment.
    Input,
    /// Primary output: driven by a gate and observed by the environment.
    Output,
    /// Internal: driven by a gate, not visible to the environment.
    Internal,
}

impl SignalKind {
    /// Whether a gate in the circuit drives this signal.
    pub fn is_gate_driven(self) -> bool {
        !matches!(self, SignalKind::Input)
    }
}

/// A signal-transition label `a+/i` (thesis Sec. 3.3): signal, polarity and
/// 1-based occurrence index distinguishing multiple transitions on the same
/// signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionLabel {
    /// The underlying signal.
    pub signal: SignalId,
    /// Rising or falling.
    pub polarity: Polarity,
    /// 1-based occurrence index (`a+` is occurrence 1, `a+/2` is 2, …).
    pub occurrence: u32,
}

impl TransitionLabel {
    /// Builds a label; `occurrence` defaults to 1 via [`Self::first`].
    pub fn new(signal: SignalId, polarity: Polarity, occurrence: u32) -> Self {
        Self {
            signal,
            polarity,
            occurrence,
        }
    }

    /// The first occurrence `sig±`.
    pub fn first(signal: SignalId, polarity: Polarity) -> Self {
        Self::new(signal, polarity, 1)
    }

    /// Whether the two labels are transitions on the same signal.
    pub fn same_signal(&self, other: &Self) -> bool {
        self.signal == other.signal
    }

    /// Renders the label with a signal-name table (`req+`, `csc0-/2`).
    pub fn display<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        self.named(&names[self.signal.0])
    }

    /// Renders the label with its signal's name: the one formatting rule
    /// behind [`Self::display`].
    pub(crate) fn named<'a>(&'a self, name: &'a str) -> impl fmt::Display + 'a {
        struct D<'a>(&'a TransitionLabel, &'a str);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.1, self.0.polarity)?;
                if self.0.occurrence != 1 {
                    write!(f, "/{}", self.0.occurrence)?;
                }
                Ok(())
            }
        }
        D(self, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_round_trip() {
        assert_eq!(Polarity::Plus.opposite(), Polarity::Minus);
        assert_eq!(Polarity::Minus.opposite(), Polarity::Plus);
        assert!(Polarity::Plus.target_value());
        assert!(!Polarity::Minus.target_value());
    }

    #[test]
    fn label_display() {
        let names = vec!["req".to_string(), "ack".to_string()];
        let l1 = TransitionLabel::first(SignalId(0), Polarity::Plus);
        let l2 = TransitionLabel::new(SignalId(1), Polarity::Minus, 2);
        assert_eq!(l1.display(&names).to_string(), "req+");
        assert_eq!(l2.display(&names).to_string(), "ack-/2");
    }

    #[test]
    fn kinds() {
        assert!(!SignalKind::Input.is_gate_driven());
        assert!(SignalKind::Output.is_gate_driven());
        assert!(SignalKind::Internal.is_gate_driven());
    }
}
