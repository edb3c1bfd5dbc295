//! Gate-level view: pull-up / pull-down covers over a named support set.

use std::collections::BTreeSet;

use crate::cover::Cover;
use crate::cube::Cube;
use crate::eqn::{EqnGate, Netlist};
use crate::qm::{expand_cover, irredundant_cover, MAX_EXACT_VARS};

/// The most support variables a gate may have: building one enumerates
/// all `2^n` minterms of its support. [`parse_eqn`](crate::parse_eqn)
/// rejects a wider gate.
pub const MAX_GATE_SUPPORT: usize = 20;

/// A gate: a single-output Boolean (possibly sequential) element described
/// by an irredundant prime cover of its on-set (`f↑`, the pull-up function)
/// and of its off-set (`f↓`, the pull-down function) — thesis Sec. 2.1.
///
/// `vars` names the support; sequential gates include the output itself
/// (feedback literal). Cover variable `i` corresponds to `vars[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Output signal name.
    pub output: String,
    /// Support variable names; covers index into this list.
    pub vars: Vec<String>,
    /// Pull-up function `f↑` (on-set cover).
    pub up: Cover,
    /// Pull-down function `f↓` (off-set cover).
    pub down: Cover,
}

impl Gate {
    /// Builds a gate from an on-set cover; the pull-down cover is derived as
    /// an irredundant prime cover of the complement. Past
    /// [`MAX_EXACT_VARS`] support variables the exact minimization is
    /// replaced by [`expand_cover`] (still irredundant and deterministic,
    /// no longer exact-minimal).
    ///
    /// # Panics
    ///
    /// Panics if the support exceeds [`MAX_GATE_SUPPORT`] variables.
    pub fn from_up_cover(output: impl Into<String>, vars: Vec<String>, up: Cover) -> Self {
        let n = vars.len();
        assert!(
            n <= MAX_GATE_SUPPORT,
            "gate support is capped at {MAX_GATE_SUPPORT} variables"
        );
        let off: Vec<u64> = (0..(1u64 << n)).filter(|&s| !up.eval(s)).collect();
        let on: Vec<u64> = (0..(1u64 << n)).filter(|&s| up.eval(s)).collect();
        // Re-minimize the on-set too, so `up` is an irredundant prime cover.
        let (up, down) = if n <= MAX_EXACT_VARS {
            (
                irredundant_cover(&on, &[], n),
                irredundant_cover(&off, &[], n),
            )
        } else {
            (expand_cover(&on, &off, n), expand_cover(&off, &on, n))
        };
        Self {
            output: output.into(),
            vars,
            up,
            down,
        }
    }

    /// The fan-in signal names: the support minus the output feedback
    /// literal.
    pub fn fanin(&self) -> Vec<&str> {
        self.vars
            .iter()
            .map(String::as_str)
            .filter(|&v| v != self.output)
            .collect()
    }

    /// Evaluates `f↑` with `values(name)` supplying each support variable.
    pub fn eval_up(&self, values: impl Fn(&str) -> bool) -> bool {
        self.up.eval(self.pack(values))
    }

    /// Evaluates `f↓` with `values(name)` supplying each support variable.
    pub fn eval_down(&self, values: impl Fn(&str) -> bool) -> bool {
        self.down.eval(self.pack(values))
    }

    /// Packs named values into the cover's bit order.
    pub fn pack(&self, values: impl Fn(&str) -> bool) -> u64 {
        let mut state = 0u64;
        for (i, v) in self.vars.iter().enumerate() {
            if values(v) {
                state |= 1u64 << i;
            }
        }
        state
    }

    /// Whether any support variable is semantically redundant in both
    /// covers (thesis Sec. 5.3.2: relaxation assumes no redundant literals).
    pub fn has_redundant_literal(&self) -> bool {
        let support = self.up.semantic_support() | self.down.semantic_support();
        (0..self.vars.len()).any(|v| support & (1u64 << v) == 0)
    }
}

/// A circuit as a set of gates keyed by output name (the thesis circuit
/// `C = (A, φ)` restricted to its gate equations).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GateLibrary {
    /// Gates in definition order.
    pub gates: Vec<Gate>,
}

impl GateLibrary {
    /// Builds the library from a parsed EQN netlist, deriving `f↓` covers by
    /// complementation.
    ///
    /// # Panics
    ///
    /// Panics if a gate's support exceeds [`MAX_GATE_SUPPORT`] variables,
    /// which no netlist from [`parse_eqn`](crate::parse_eqn) has.
    pub fn from_netlist(netlist: &Netlist) -> Self {
        let gates = netlist.gates.iter().map(gate_from_eqn).collect();
        Self { gates }
    }

    /// The library as an EQN netlist: each gate's pull-up cover, one
    /// product term per cube, which [`write_eqn`](crate::write_eqn)
    /// renders and [`GateLibrary::from_netlist`] reads back.
    pub fn netlist(&self) -> Netlist {
        let gates = self.gates.iter().map(|gate| EqnGate {
            output: gate.output.clone(),
            terms: gate
                .up
                .cubes()
                .iter()
                .map(|cube| {
                    cube.literals()
                        .map(|(v, positive)| (gate.vars[v].clone(), positive))
                        .collect()
                })
                .collect(),
        });
        Netlist {
            gates: gates.collect(),
        }
    }

    /// Finds a gate by output name.
    pub fn gate(&self, output: &str) -> Option<&Gate> {
        self.gates.iter().find(|g| g.output == output)
    }

    /// All signal names referenced anywhere (outputs and fan-ins), sorted.
    pub fn signal_names(&self) -> Vec<String> {
        let mut names: BTreeSet<String> = BTreeSet::new();
        for g in &self.gates {
            names.insert(g.output.clone());
            for v in &g.vars {
                names.insert(v.clone());
            }
        }
        names.into_iter().collect()
    }
}

fn gate_from_eqn(eqn: &EqnGate) -> Gate {
    // Collect support in first-appearance order for stable cover layouts.
    let mut vars: Vec<String> = Vec::new();
    for term in &eqn.terms {
        for (name, _) in term {
            if !vars.contains(name) {
                vars.push(name.clone());
            }
        }
    }
    let n = vars.len();
    let cubes: Vec<Cube> = eqn
        .terms
        .iter()
        .map(|term| {
            let lits: Vec<(usize, bool)> = term
                .iter()
                .map(|(name, pos)| {
                    (
                        vars.iter().position(|v| v == name).expect("collected"),
                        *pos,
                    )
                })
                .collect();
            Cube::from_literals(n, &lits)
        })
        .collect();
    Gate::from_up_cover(eqn.output.clone(), vars, Cover::new(n, cubes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqn::parse_eqn;

    fn c_element() -> Gate {
        let net = parse_eqn("c = a*b + a*c + b*c;").expect("valid");
        GateLibrary::from_netlist(&net).gates[0].clone()
    }

    #[test]
    fn c_element_covers() {
        let g = c_element();
        // f↓ of a majority gate is the minority: a'·b' + a'·c' + b'·c'.
        assert_eq!(g.down.cubes().len(), 3);
        assert!(g.eval_up(|v| v == "a" || v == "b"));
        assert!(!g.eval_up(|v| v == "a"));
        assert!(g.eval_down(|_| false));
        assert!(!g.eval_down(|v| v == "a" || v == "c"));
        // up and down are complementary everywhere.
        for s in 0u64..8 {
            assert_ne!(g.up.eval(s), g.down.eval(s));
        }
    }

    #[test]
    fn fanin_excludes_feedback() {
        let g = c_element();
        assert_eq!(g.fanin(), vec!["a", "b"]);
        assert_eq!(g.vars, vec!["a", "b", "c"]);
    }

    #[test]
    fn sr_latch_covers_match_thesis_fig_5_4() {
        // The thesis SR-latch example (Sec. 2.1): fa↑ = a·b + c with
        // fa↓ = a'·c' + b'·c'. Using the thesis gate `a` with inputs b, c:
        // actually the Fig. 2.1 gate: f↑ = a·b + c (a is the output).
        let net = parse_eqn("a = a*b + c;").expect("valid");
        let g = &GateLibrary::from_netlist(&net).gates[0];
        let names = g.vars.clone();
        let down = g.down.display(&names).to_string();
        // f↓ = a'·c' + b'·c' (order of cubes is deterministic).
        assert!(down.contains("c'"), "down cover was {down}");
        for s in 0u64..8 {
            assert_ne!(g.up.eval(s), g.down.eval(s));
        }
    }

    #[test]
    fn redundant_literal_is_detected() {
        // o = b·p + b  — p is redundant (thesis Fig. 5.12).
        let net = parse_eqn("o = b*p + b;").expect("valid");
        let gate = gate_from_eqn(&net.gates[0]);
        assert!(gate.has_redundant_literal());
        let healthy = c_element();
        assert!(!healthy.has_redundant_literal());
    }

    #[test]
    fn library_signal_names() {
        let net = parse_eqn("x = a*b;\ny = x + a;\n").expect("valid");
        let lib = GateLibrary::from_netlist(&net);
        assert_eq!(lib.signal_names(), vec!["a", "b", "x", "y"]);
        assert!(lib.gate("x").is_some());
        assert!(lib.gate("zz").is_none());
    }

    #[test]
    fn combinational_gate_has_complementary_covers() {
        let net = parse_eqn("z = a*b' + c;").expect("valid");
        let g = &GateLibrary::from_netlist(&net).gates[0];
        for s in 0u64..8 {
            assert_ne!(g.up.eval(s), g.down.eval(s));
        }
    }
}
