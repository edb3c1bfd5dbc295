use std::fmt;

/// A cube: a set of literals over at most 64 variables, with no variable
/// appearing both positively and negatively (thesis Sec. 2.1).
///
/// A cube denotes the Boolean product of its literals; the empty cube is the
/// constant 1. States are packed as `u64` bit vectors, bit `i` holding the
/// value of variable `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cube {
    pos: u64,
    neg: u64,
}

impl Cube {
    /// The empty cube (constant 1).
    pub fn top() -> Self {
        Self::default()
    }

    /// Builds a cube from `(variable, positive)` literal pairs.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is `>= n`, `n > 64`, or a variable appears
    /// with both polarities.
    pub fn from_literals(n: usize, literals: &[(usize, bool)]) -> Self {
        assert!(n <= 64, "at most 64 variables are supported");
        let mut cube = Self::default();
        for &(var, positive) in literals {
            assert!(var < n, "variable {var} out of range (n = {n})");
            let bit = 1u64 << var;
            if positive {
                assert_eq!(
                    cube.neg & bit,
                    0,
                    "variable {var} appears with both polarities"
                );
                cube.pos |= bit;
            } else {
                assert_eq!(
                    cube.pos & bit,
                    0,
                    "variable {var} appears with both polarities"
                );
                cube.neg |= bit;
            }
        }
        cube
    }

    /// Builds a cube from a minterm `value` over the variables in `care`
    /// (bits outside `care` are don't-care in the cube).
    pub fn from_minterm(value: u64, care: u64) -> Self {
        Self {
            pos: value & care,
            neg: !value & care,
        }
    }

    /// The set of variables constrained by this cube, as a bit mask.
    pub fn support(&self) -> u64 {
        self.pos | self.neg
    }

    /// Number of literals.
    pub fn literal_count(&self) -> u32 {
        self.support().count_ones()
    }

    /// Polarity of `var` in this cube: `Some(true)` positive, `Some(false)`
    /// negative, `None` absent.
    pub fn literal(&self, var: usize) -> Option<bool> {
        let bit = 1u64 << var;
        if self.pos & bit != 0 {
            Some(true)
        } else if self.neg & bit != 0 {
            Some(false)
        } else {
            None
        }
    }

    /// Iterates over the `(variable, positive)` literals in index order.
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        let support = self.support();
        (0..64).filter_map(move |v| {
            let bit = 1u64 << v;
            if support & bit == 0 {
                None
            } else {
                Some((v, self.pos & bit != 0))
            }
        })
    }

    /// Whether the cube evaluates to 1 in `state`.
    pub fn eval(&self, state: u64) -> bool {
        (state & self.pos) == self.pos && (state & self.neg) == 0
    }

    /// Removes `var`'s literal, widening the cube.
    pub fn without(&self, var: usize) -> Cube {
        let bit = !(1u64 << var);
        Cube {
            pos: self.pos & bit,
            neg: self.neg & bit,
        }
    }

    /// Consensus-style merge used by Quine–McCluskey: if the two cubes have
    /// the same support and differ in exactly one variable's polarity,
    /// returns the common widened cube.
    pub fn merge_one_apart(&self, other: &Cube) -> Option<Cube> {
        if self.support() != other.support() {
            return None;
        }
        let diff = self.pos ^ other.pos;
        if diff.count_ones() == 1 && (self.neg ^ other.neg) == diff {
            let bit = !diff;
            Some(Cube {
                pos: self.pos & bit,
                neg: self.neg & bit,
            })
        } else {
            None
        }
    }

    /// Formats the cube with the given variable names, thesis style
    /// (`a*b'`); the empty cube prints as `1`.
    pub fn display<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Cube, &'a [String]);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.support() == 0 {
                    return write!(f, "1");
                }
                let mut first = true;
                for (v, positive) in self.0.literals() {
                    if !first {
                        write!(f, "*")?;
                    }
                    first = false;
                    write!(f, "{}{}", self.1[v], if positive { "" } else { "'" })?;
                }
                Ok(())
            }
        }
        D(self, names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_literals() {
        let c = Cube::from_literals(3, &[(0, true), (2, false)]); // a * c'
        assert!(c.eval(0b001));
        assert!(c.eval(0b011));
        assert!(!c.eval(0b101)); // c = 1
        assert!(!c.eval(0b000)); // a = 0
    }

    #[test]
    fn top_cube_is_constant_one() {
        assert!(Cube::top().eval(0));
        assert!(Cube::top().eval(u64::MAX));
        assert_eq!(Cube::top().literal_count(), 0);
    }

    #[test]
    fn containment_follows_literal_subsets() {
        // A cube implies every cube over a subset of its literals, and
        // not the other way round.
        let ab = Cube::from_literals(3, &[(0, true), (1, true)]);
        let a = Cube::from_literals(3, &[(0, true)]);
        for s in 0u64..8 {
            assert!(!ab.eval(s) || (a.eval(s) && Cube::top().eval(s)), "{s:03b}");
        }
        assert!(a.eval(0b001) && !ab.eval(0b001));
    }

    #[test]
    #[should_panic(expected = "both polarities")]
    fn conflicting_literals_panic() {
        Cube::from_literals(2, &[(0, true), (0, false)]);
    }

    #[test]
    fn merge_one_apart_widens() {
        let n = 3;
        let c0 = Cube::from_minterm(0b011, 0b111); // a b c'
        let c1 = Cube::from_minterm(0b111, 0b111); // a b c
        let merged = c0.merge_one_apart(&c1).expect("one apart");
        assert_eq!(merged, Cube::from_literals(n, &[(0, true), (1, true)]));
        // Two apart: no merge.
        let c2 = Cube::from_minterm(0b100, 0b111);
        assert_eq!(c0.merge_one_apart(&c2), None);
        // Different support: no merge.
        let c3 = Cube::from_literals(n, &[(0, true)]);
        assert_eq!(c0.merge_one_apart(&c3), None);
    }

    #[test]
    fn minterm_round_trip() {
        let c = Cube::from_minterm(0b101, 0b111);
        assert!(c.eval(0b101));
        assert!(!c.eval(0b111));
        assert!(!c.eval(0b100));
        assert_eq!(c.literal(0), Some(true));
        assert_eq!(c.literal(1), Some(false));
        assert_eq!(c.literal(2), Some(true));
    }

    #[test]
    fn display_uses_thesis_notation() {
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let c = Cube::from_literals(3, &[(0, true), (1, false)]);
        assert_eq!(c.display(&names).to_string(), "a*b'");
        assert_eq!(Cube::top().display(&names).to_string(), "1");
    }
}
