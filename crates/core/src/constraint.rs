use std::fmt;

use si_stg::{Polarity, SignalId, TransitionLabel};

/// A transition named independently of any particular STG instance, so
/// constraints survive sub-STG decomposition and cross-component union.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintAtom {
    /// Signal name.
    pub signal: String,
    /// Transition direction.
    pub polarity: Polarity,
    /// 1-based occurrence index.
    pub occurrence: u32,
}

impl ConstraintAtom {
    /// Builds an atom from a label and the owning name table.
    pub fn from_label(label: TransitionLabel, names: &[String]) -> Self {
        Self {
            signal: names[label.signal.0].clone(),
            polarity: label.polarity,
            occurrence: label.occurrence,
        }
    }

    /// The label this atom names in a signal-name table, the inverse of
    /// [`Self::from_label`]: the one place a constraint resolves back to
    /// an STG's transitions. `None` when the table has no such signal.
    pub fn to_label(&self, names: &[String]) -> Option<TransitionLabel> {
        let signal = names.iter().position(|n| *n == self.signal)?;
        Some(TransitionLabel::new(
            SignalId(signal),
            self.polarity,
            self.occurrence,
        ))
    }
}

impl fmt::Display for ConstraintAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.signal, self.polarity)?;
        if self.occurrence != 1 {
            write!(f, "/{}", self.occurrence)?;
        }
        Ok(())
    }
}

/// A relative timing constraint `gate: x* < y*` (thesis notation
/// `a : x* ≤ y*`): transition `before` must reach `gate`'s inputs before
/// transition `after`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Constraint {
    /// Output signal of the gate whose input ordering is constrained.
    pub gate: String,
    /// The transition that must arrive first.
    pub before: ConstraintAtom,
    /// The transition that must arrive later.
    pub after: ConstraintAtom,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} < {}", self.gate, self.before, self.after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_thesis_tool_output() {
        let names = vec!["wenin".to_string(), "precharged".to_string()];
        let c = Constraint {
            gate: "i0".to_string(),
            before: ConstraintAtom::from_label(
                TransitionLabel::first(SignalId(0), Polarity::Minus),
                &names,
            ),
            after: ConstraintAtom::from_label(
                TransitionLabel::first(SignalId(1), Polarity::Minus),
                &names,
            ),
        };
        assert_eq!(c.to_string(), "i0: wenin- < precharged-");
        let l2 = TransitionLabel {
            signal: SignalId(1),
            polarity: Polarity::Plus,
            occurrence: 2,
        };
        let atom = ConstraintAtom::from_label(l2, &names);
        assert_eq!(atom.to_label(&names), Some(l2));
        assert_eq!(atom.to_label(&names[..1]), None);
    }

    #[test]
    fn occurrence_suffix_only_when_not_first() {
        let a = ConstraintAtom {
            signal: "l".into(),
            polarity: Polarity::Plus,
            occurrence: 2,
        };
        assert_eq!(a.to_string(), "l+/2");
        let b = ConstraintAtom {
            signal: "l".into(),
            polarity: Polarity::Minus,
            occurrence: 1,
        };
        assert_eq!(b.to_string(), "l-");
    }

    #[test]
    fn ordering_is_deterministic() {
        let mk = |g: &str, s1: &str, s2: &str| Constraint {
            gate: g.into(),
            before: ConstraintAtom {
                signal: s1.into(),
                polarity: Polarity::Plus,
                occurrence: 1,
            },
            after: ConstraintAtom {
                signal: s2.into(),
                polarity: Polarity::Plus,
                occurrence: 1,
            },
        };
        let mut v = [mk("b", "x", "y"), mk("a", "x", "y"), mk("a", "w", "y")];
        v.sort();
        assert_eq!(v[0].gate, "a");
        assert_eq!(v[0].before.signal, "w");
    }
}
