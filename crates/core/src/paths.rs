//! Adversary paths in the implementation STG (thesis Sec. 4.3 and 5.5).
//!
//! A type-4 arc `x* ⇒ y*` of a local STG is realized by an *adversary
//! path*: a chain of gates that propagates the effect of `x*` into the
//! transition `y*` arriving at the same gate. Its *level* counts wires and
//! gates along the path (`2·gates + 1`); the thesis buckets constraints at
//! level 3 (one gate) and level ≤ 5 (two gates), and orders relaxation by
//! tightness — the shortest adversary path first. Paths that cross the
//! environment (pass through a primary-input transition) are considered
//! slow and safe (Sec. 7.1).
//!
//! The oracle serves all three uses. A path carries the
//! [`TransitionLabel`]s of its hops, so its level, its weight and the
//! signals a padding plan names are read off it; printing callers render
//! the labels with the STG's names. A constraint resolves to labels in one
//! place, [`ConstraintAtom::to_label`](crate::ConstraintAtom::to_label),
//! behind [`AdversaryOracle::path_of`].

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};

use si_stg::{SignalId, Stg, TransitionLabel};

use crate::constraint::Constraint;

/// Description of the tightest adversary path realizing an ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryPath {
    /// Gate-driven transitions after `x*`, up to and including `y*`.
    pub gates: u32,
    /// Whether the path necessarily crosses the environment (some hop is a
    /// primary-input transition).
    pub through_env: bool,
    /// Transition labels along the tightest path, from `x*` to `y*`
    /// ([`Stg::label_string`] renders one).
    pub hops: Vec<TransitionLabel>,
}

impl AdversaryPath {
    /// The thesis level `2·gates + 1`; `None` for environment-crossing
    /// paths (treated as unbounded).
    pub fn level(&self) -> Option<u32> {
        (!self.through_env).then_some(2 * self.gates + 1)
    }

    /// Sort key for tightest-first relaxation: gate-only paths before
    /// environment paths, shorter before longer.
    pub fn weight_key(&self) -> (bool, u32) {
        (self.through_env, self.gates)
    }
}

/// Oracle answering adversary-path queries against the implementation STG.
///
/// Plain data, a function of the STG alone: every query is a fresh
/// breadth-first search, so one oracle serves any number of threads. The
/// relaxation loop memoizes the searches it repeats, one memo per gate.
#[derive(Debug, Clone)]
pub struct AdversaryOracle {
    labels: Vec<TransitionLabel>,
    is_input: Vec<bool>,
    succs: Vec<Vec<usize>>,
    names: Vec<String>,
}

impl AdversaryOracle {
    /// Builds the oracle from the implementation STG.
    pub fn new(stg: &Stg) -> Self {
        let net = stg.net();
        let n = net.transition_count();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in net.transitions() {
            for &p in net.transition_post(t) {
                for &u in net.place_post(p) {
                    if !succs[t.0].contains(&u.0) {
                        succs[t.0].push(u.0);
                    }
                }
            }
        }
        let labels: Vec<TransitionLabel> = net.transitions().map(|t| stg.label(t)).collect();
        let is_input: Vec<bool> = labels
            .iter()
            .map(|l| !stg.signal_kind(l.signal).is_gate_driven())
            .collect();
        Self {
            labels,
            is_input,
            succs,
            names: stg.signal_names(),
        }
    }

    /// Name of signal `s` of the STG, e.g. of a hop's signal.
    pub(crate) fn signal_name(&self, s: SignalId) -> &str {
        &self.names[s.0]
    }

    fn find_transitions(&self, label: TransitionLabel) -> Vec<usize> {
        let exact: Vec<usize> = (0..self.labels.len())
            .filter(|&i| self.labels[i] == label)
            .collect();
        if !exact.is_empty() {
            return exact;
        }
        // Occurrence indices may have diverged through decomposition; fall
        // back to any transition of the same edge.
        (0..self.labels.len())
            .filter(|&i| {
                self.labels[i].signal == label.signal && self.labels[i].polarity == label.polarity
            })
            .collect()
    }

    /// The tightest adversary path realizing `x* ⇒ y*`, if any causal path
    /// exists at all.
    pub fn path(&self, x: TransitionLabel, y: TransitionLabel) -> Option<AdversaryPath> {
        self.search(x, y, false).or_else(|| self.search(x, y, true))
    }

    /// The tightest adversary path realizing constraint `c`'s ordering
    /// `before ⇒ after`; `None` when an atom names a signal the STG does
    /// not declare, or no causal path exists.
    pub fn path_of(&self, c: &Constraint) -> Option<AdversaryPath> {
        self.path(
            c.before.to_label(&self.names)?,
            c.after.to_label(&self.names)?,
        )
    }

    /// Constraints of `set` whose tightest adversary path has level ≤
    /// `max_level` (gate-only paths; environment paths never qualify):
    /// the Table 7.2 level columns.
    pub fn constraints_within_level<'a>(
        &self,
        set: &'a BTreeSet<Constraint>,
        max_level: u32,
    ) -> Vec<&'a Constraint> {
        set.iter()
            .filter(|c| {
                self.path_of(c)
                    .and_then(|p| p.level())
                    .is_some_and(|l| l <= max_level)
            })
            .collect()
    }

    fn search(
        &self,
        x: TransitionLabel,
        y: TransitionLabel,
        allow_env: bool,
    ) -> Option<AdversaryPath> {
        let starts = self.find_transitions(x);
        let goals = self.find_transitions(y);
        if starts.is_empty() || goals.is_empty() {
            return None;
        }
        // BFS over transitions; hops after the start must be gate-driven
        // unless `allow_env`. `prev[v]` is `v`'s BFS parent; starts have
        // none.
        const NONE: usize = usize::MAX;
        let mut prev: Vec<usize> = vec![NONE; self.labels.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut visited: Vec<bool> = vec![false; self.labels.len()];
        for &s in &starts {
            queue.push_back(s);
            visited[s] = true;
        }
        let mut found: Option<usize> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in &self.succs[u] {
                if visited[v] || (!allow_env && self.is_input[v]) {
                    continue;
                }
                visited[v] = true;
                prev[v] = u;
                if goals.contains(&v) {
                    found = Some(v);
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
        let mut cur = found?;
        let mut hops_rev = vec![cur];
        while prev[cur] != NONE {
            cur = prev[cur];
            hops_rev.push(cur);
        }
        hops_rev.reverse();
        let gates = hops_rev
            .iter()
            .skip(1)
            .filter(|&&t| !self.is_input[t])
            .count() as u32;
        let through_env = hops_rev.iter().skip(1).any(|&t| self.is_input[t]);
        Some(AdversaryPath {
            gates,
            through_env,
            hops: hops_rev.iter().map(|&t| self.labels[t]).collect(),
        })
    }
}

/// The tightest-first sort keys of one gate's arcs
/// ([`AdversaryPath::weight_key`]; unknown paths sort last), each pair
/// searched once. One gate's relaxation runs on one worker, so the memo
/// takes no lock.
pub(crate) struct ArcWeights<'a> {
    oracle: &'a AdversaryOracle,
    memo: RefCell<HashMap<(TransitionLabel, TransitionLabel), (bool, u32)>>,
}

impl<'a> ArcWeights<'a> {
    /// An empty memo over `oracle`.
    pub(crate) fn new(oracle: &'a AdversaryOracle) -> Self {
        Self {
            oracle,
            memo: RefCell::default(),
        }
    }

    /// The sort key of the arc `x* ⇒ y*`.
    pub(crate) fn get(&self, x: TransitionLabel, y: TransitionLabel) -> (bool, u32) {
        *self.memo.borrow_mut().entry((x, y)).or_insert_with(|| {
            self.oracle
                .path(x, y)
                .map_or((true, u32::MAX), |p| p.weight_key())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::{parse_astg, Polarity};

    fn label(stg: &Stg, name: &str, pol: Polarity) -> TransitionLabel {
        TransitionLabel::first(stg.signal_by_name(name).expect("declared"), pol)
    }

    #[test]
    fn direct_causation_is_level_three() {
        // c+ directly causes a+ through gate a: one gate, level 3.
        let text = "\
.model lv3
.inputs c
.outputs a o
.graph
c+ a+
a+ o+
c+ o+
o+ c-
c- a-
a- o-
c- o-
o- c+
.marking { <o-,c+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let oracle = AdversaryOracle::new(&stg);
        let path = oracle
            .path(
                label(&stg, "c", Polarity::Plus),
                label(&stg, "a", Polarity::Plus),
            )
            .expect("exists");
        assert_eq!(path.gates, 1);
        assert_eq!(path.level(), Some(3));
        assert!(!path.through_env);
    }

    #[test]
    fn multi_gate_path_levels() {
        // c+ ⇒ m- ⇒ n+ ⇒ a+: gate hops m-, n+, a+ → level 7 (three gates
        // and four wires), the Fig. 5.24 weighting.
        let text = "\
.model lv7
.inputs c
.outputs m n a
.graph
c+ m-
m- n+
n+ a+
a+ c-
c- m+
m+ n-
n- a-
a- c+
.marking { <a-,c+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let oracle = AdversaryOracle::new(&stg);
        let path = oracle
            .path(
                label(&stg, "c", Polarity::Plus),
                label(&stg, "a", Polarity::Plus),
            )
            .expect("exists");
        assert_eq!(path.gates, 3);
        assert_eq!(path.level(), Some(7));
        let hops: Vec<String> = path.hops.iter().map(|&h| stg.label_string(h)).collect();
        assert_eq!(hops, vec!["c+", "m-", "n+", "a+"]);
        // The shorter hop c+ ⇒ m- is level 3.
        let short = oracle
            .path(
                label(&stg, "c", Polarity::Plus),
                label(&stg, "m", Polarity::Minus),
            )
            .expect("exists");
        assert_eq!(short.level(), Some(3));
    }

    #[test]
    fn environment_paths_are_flagged() {
        // x+ causes i+ (a primary input) which causes y+: env path.
        let text = "\
.model env
.inputs i
.outputs x y
.graph
x+ i+
i+ y+
y+ x-
x- i-
i- y-
y- x+
.marking { <y-,x+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let oracle = AdversaryOracle::new(&stg);
        let xp = label(&stg, "x", Polarity::Plus);
        let yp = label(&stg, "y", Polarity::Plus);
        let path = oracle.path(xp, yp).expect("exists");
        assert!(path.through_env);
        assert_eq!(path.level(), None);
        // env paths sort after every gate-only weight.
        assert!(ArcWeights::new(&oracle).get(xp, yp) > (false, u32::MAX - 1));
    }

    #[test]
    fn occurrence_fallback_finds_same_edge() {
        let text = "\
.model tiny
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let oracle = AdversaryOracle::new(&stg);
        let a = stg.signal_by_name("a").expect("declared");
        let ghost = TransitionLabel::new(a, Polarity::Plus, 7); // no such occurrence
        let bp = label(&stg, "b", Polarity::Plus);
        assert!(oracle.path(ghost, bp).is_some());
    }

    #[test]
    fn unconnected_pair_has_no_path() {
        // Two independent handshakes: no causal path between them.
        let text = "\
.model split
.inputs a c
.outputs b d
.graph
a+ b+
b+ a-
a- b-
b- a+
c+ d+
d+ c-
c- d-
d- c+
.marking { <b-,a+> <d-,c+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let oracle = AdversaryOracle::new(&stg);
        let ap = label(&stg, "a", Polarity::Plus);
        let dp = label(&stg, "d", Polarity::Plus);
        assert!(oracle.path(ap, dp).is_none());
        assert_eq!(ArcWeights::new(&oracle).get(ap, dp), (true, u32::MAX));
    }
}
