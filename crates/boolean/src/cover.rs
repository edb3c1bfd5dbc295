use std::fmt;

use crate::cube::Cube;

/// A cover: a set of cubes over `n` variables, read as their Boolean sum
/// (thesis Sec. 2.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cover {
    n: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// Builds a cover from cubes over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn new(n: usize, cubes: Vec<Cube>) -> Self {
        assert!(n <= 64, "at most 64 variables are supported");
        Self { n, cubes }
    }

    /// The constant-0 cover over `n` variables.
    pub fn zero(n: usize) -> Self {
        Self::new(n, Vec::new())
    }

    /// The constant-1 cover over `n` variables.
    pub fn one(n: usize) -> Self {
        Self::new(n, vec![Cube::top()])
    }

    /// The cubes (clauses) of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Whether the cover evaluates to 1 in `state`.
    pub fn eval(&self, state: u64) -> bool {
        self.cubes.iter().any(|c| c.eval(state))
    }

    /// Whether two covers denote the same function (exhaustive over `2^n`).
    pub fn equivalent(&self, other: &Cover) -> bool {
        self.n == other.n && (0u64..(1u64 << self.n)).all(|s| self.eval(s) == other.eval(s))
    }

    /// The set of variables the function actually depends on, as a bit mask
    /// (semantic support: flipping the variable changes the output for some
    /// state).
    pub fn semantic_support(&self) -> u64 {
        let mut support = 0u64;
        for v in 0..self.n {
            let bit = 1u64 << v;
            for s in 0u64..(1u64 << self.n) {
                if self.eval(s) != self.eval(s ^ bit) {
                    support |= bit;
                    break;
                }
            }
        }
        support
    }

    /// The irredundant prime cover of the complement (`f̄`), computed
    /// exactly over the `2^n` state space.
    ///
    /// # Panics
    ///
    /// Panics if `n > 20` (exact enumeration).
    pub fn complement(&self) -> Cover {
        let off: Vec<u64> = (0..(1u64 << self.n)).filter(|&s| !self.eval(s)).collect();
        crate::qm::irredundant_cover(&off, &[], self.n)
    }

    /// The Shannon cofactor `f|_{var=value}` as a cover over the same
    /// variable space (the fixed variable no longer appears).
    pub fn cofactor(&self, var: usize, value: bool) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| match c.literal(var) {
                Some(v) if v != value => None, // conflicting literal: drops out
                Some(_) => Some(c.without(var)),
                None => Some(*c),
            })
            .collect();
        Cover::new(self.n, cubes)
    }

    /// Formats the cover with the given variable names (`a*b' + c`).
    pub fn display<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Cover, &'a [String]);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.0.cubes.is_empty() {
                    return write!(f, "0");
                }
                for (i, c) in self.0.cubes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{}", c.display(self.1))?;
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

    fn names() -> Vec<String> {
        ["a", "b", "c"].iter().map(|s| s.to_string()).collect()
    }

    /// The thesis Fig. 2.1 gate: fa↑ = a·b + c.
    fn fig_2_1_up() -> Cover {
        Cover::new(
            3,
            vec![
                Cube::from_literals(3, &[(0, true), (1, true)]),
                Cube::from_literals(3, &[(2, true)]),
            ],
        )
    }

    #[test]
    fn eval_is_disjunction_of_cubes() {
        let f = fig_2_1_up();
        assert!(f.eval(0b011));
        assert!(f.eval(0b100));
        assert!(!f.eval(0b010));
        assert!(!f.eval(0b000));
    }

    #[test]
    fn constants() {
        for s in 0u64..8 {
            assert!(Cover::one(3).eval(s));
            assert!(!Cover::zero(3).eval(s));
        }
    }

    #[test]
    fn semantic_support_detects_redundant_literal() {
        // f = a·b + a·b' = a: b is redundant (thesis Fig. 5.12 situation).
        let f = Cover::new(
            2,
            vec![
                Cube::from_literals(2, &[(0, true), (1, true)]),
                Cube::from_literals(2, &[(0, true), (1, false)]),
            ],
        );
        assert_eq!(f.semantic_support(), 0b01);
    }

    #[test]
    fn equivalence_is_semantic() {
        let f = fig_2_1_up();
        // a·b + c == a·b·c' + c
        let g = Cover::new(
            3,
            vec![
                Cube::from_literals(3, &[(0, true), (1, true), (2, false)]),
                Cube::from_literals(3, &[(2, true)]),
            ],
        );
        assert!(f.equivalent(&g));
        assert!(!f.equivalent(&Cover::zero(3)));
    }

    #[test]
    fn complement_is_exact() {
        let f = fig_2_1_up();
        let g = f.complement();
        for s in 0u64..8 {
            assert_ne!(f.eval(s), g.eval(s), "state {s:b}");
        }
        // Complement of a complement is equivalent to the original.
        assert!(f.equivalent(&g.complement()));
    }

    #[test]
    fn cofactor_obeys_shannon_expansion() {
        let f = fig_2_1_up();
        for var in 0..3 {
            let f1 = f.cofactor(var, true);
            let f0 = f.cofactor(var, false);
            for s in 0u64..8 {
                let expected = if s & (1 << var) != 0 {
                    f1.eval(s)
                } else {
                    f0.eval(s)
                };
                assert_eq!(f.eval(s), expected, "var {var} state {s:b}");
            }
        }
    }

    #[test]
    fn tautology_detection() {
        assert!(!fig_2_1_up().equivalent(&Cover::one(3)));
        // a + a' is a tautology.
        let t = Cover::new(
            1,
            vec![
                Cube::from_literals(1, &[(0, true)]),
                Cube::from_literals(1, &[(0, false)]),
            ],
        );
        assert!(t.equivalent(&Cover::one(1)));
    }

    #[test]
    fn display_matches_thesis_notation() {
        assert_eq!(fig_2_1_up().display(&names()).to_string(), "a*b + c");
        assert_eq!(Cover::zero(3).display(&names()).to_string(), "0");
    }
}
