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

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, VecDeque};

use si_stg::{MgStg, SignalId, Stg, TransitionLabel};

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
/// breadth-first search over the calling thread's search buffers, reused
/// from query to query. The relaxation loop keeps the weights it repeats,
/// one table per local STG (`ArcWeights`).
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

    /// The transitions a query for `label` starts or ends at, as a
    /// predicate over transition ids: those carrying `label`, or, when
    /// none does, every transition of its signal edge (occurrence indices
    /// may have diverged through decomposition).
    fn matcher(&self, label: TransitionLabel) -> impl Fn(usize) -> bool + '_ {
        let exact = self.labels.contains(&label);
        move |t| {
            let l = self.labels[t];
            if exact {
                l == label
            } else {
                l.signal == label.signal && l.polarity == label.polarity
            }
        }
    }

    /// The tightest adversary path realizing `x* ⇒ y*`, if any causal path
    /// exists at all.
    pub fn path(&self, x: TransitionLabel, y: TransitionLabel) -> Option<AdversaryPath> {
        SEARCH_SCRATCH.with_borrow_mut(|scratch| {
            let goal = self.search(x, y, scratch)?;
            let (through_env, gates) = scratch.reached(goal).key;
            let mut hops = vec![self.labels[goal]];
            let mut cur = goal;
            while let Some(parent) = scratch.reached(cur).parent {
                hops.push(self.labels[parent]);
                cur = parent;
            }
            hops.reverse();
            Some(AdversaryPath {
                gates,
                through_env,
                hops,
            })
        })
    }

    /// The tightest-first sort key of `x* ⇒ y*`: the
    /// [`AdversaryPath::weight_key`] of [`AdversaryOracle::path`]`(x, y)`,
    /// or `(true, u32::MAX)`, after every path, when there is none. The
    /// same search as `path`, without building the hop list.
    pub fn weight_key(&self, x: TransitionLabel, y: TransitionLabel) -> (bool, u32) {
        SEARCH_SCRATCH.with_borrow_mut(|scratch| {
            self.search(x, y, scratch)
                .map_or((true, u32::MAX), |goal| scratch.reached(goal).key)
        })
    }

    /// The goal the tightest path `x* → y*` ends at, its search tree left
    /// in `scratch`: a gate-only path if one exists, else one that may
    /// cross the environment.
    fn search(
        &self,
        x: TransitionLabel,
        y: TransitionLabel,
        scratch: &mut SearchScratch,
    ) -> Option<usize> {
        self.bfs(x, y, false, scratch)
            .or_else(|| self.bfs(x, y, true, scratch))
    }

    /// One breadth-first search over transitions from every start to the
    /// first goal reached; hops after the start must be gate-driven unless
    /// `allow_env`.
    fn bfs(
        &self,
        x: TransitionLabel,
        y: TransitionLabel,
        allow_env: bool,
        SearchScratch { queue, reached }: &mut SearchScratch,
    ) -> Option<usize> {
        let (start, goal) = (self.matcher(x), self.matcher(y));
        queue.clear();
        reached.clear();
        reached.resize(self.labels.len(), None);
        for s in (0..self.labels.len()).filter(|&t| start(t)) {
            reached[s] = Some(Reached {
                parent: None,
                key: (false, 0),
            });
            queue.push_back(s);
        }
        while let Some(u) = queue.pop_front() {
            let (env, gates) = reached[u].expect("queued transitions are reached").key;
            for &v in &self.succs[u] {
                let input = self.is_input[v];
                if reached[v].is_some() || (!allow_env && input) {
                    continue;
                }
                reached[v] = Some(Reached {
                    parent: Some(u),
                    key: (env || input, gates + u32::from(!input)),
                });
                if goal(v) {
                    return Some(v);
                }
                queue.push_back(v);
            }
        }
        None
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
}

/// How a search reached a transition.
#[derive(Debug, Clone, Copy)]
struct Reached {
    /// The transition it was reached from; `None` for a start.
    parent: Option<usize>,
    /// The `(through_env, gates)` key of its search-tree path.
    key: (bool, u32),
}

/// The scratch of an adversary-path search.
struct SearchScratch {
    queue: VecDeque<usize>,
    /// Per transition, how the last search reached it; `None` if it did
    /// not.
    reached: Vec<Option<Reached>>,
}

impl SearchScratch {
    fn reached(&self, t: usize) -> Reached {
        self.reached[t].expect("the search reached the transition")
    }
}

thread_local! {
    static SEARCH_SCRATCH: RefCell<SearchScratch> = const {
        RefCell::new(SearchScratch {
            queue: VecDeque::new(),
            reached: Vec::new(),
        })
    };
}

/// A packed [`AdversaryOracle::weight_key`] no search has filled yet.
const UNWEIGHED: u64 = u64::MAX;

/// The sort keys of one local STG's arcs for the relaxation loop's pick:
/// the tightest-first weight ([`AdversaryOracle::weight_key`], packed
/// `through_env << 32 | gates`) and, to break ties, each transition's
/// place in the text order of the rendered labels.
///
/// Relaxation and the OR-causality sub-STG builders never add, remove or
/// relabel a transition, so one table serves the local STG's whole
/// recursion: a dense square over its alive transitions, each weight
/// searched the first time an arc between the pair is weighed, and the
/// ranks computed once. The table belongs to one relaxation loop, which
/// runs in one thread, so it takes no lock.
pub(crate) struct ArcWeights<'a> {
    oracle: &'a AdversaryOracle,
    /// Per transition id, its row and column in `weights` and its rank
    /// (unused for dead transitions).
    slot: Vec<(usize, usize)>,
    alive: usize,
    weights: Vec<Cell<u64>>,
}

impl<'a> ArcWeights<'a> {
    /// An unfilled table over `mg`'s transitions, ranked.
    pub(crate) fn new(oracle: &'a AdversaryOracle, mg: &MgStg) -> Self {
        let mut order = mg.transitions();
        let mut slot = vec![(0, 0); order.last().map_or(0, |&t| t + 1)];
        for (i, &t) in order.iter().enumerate() {
            slot[t].0 = i;
        }
        order.sort_by_cached_key(|&t| mg.label_string(t));
        for (rank, &t) in order.iter().enumerate() {
            slot[t].1 = rank;
        }
        Self {
            oracle,
            slot,
            alive: order.len(),
            weights: vec![Cell::new(UNWEIGHED); order.len() * order.len()],
        }
    }

    /// The tightest-first weight of `mg`'s arc `a ⇒ b`, packed; `mg` is
    /// the table's local STG or one relaxed or decomposed from it.
    pub(crate) fn weight(&self, mg: &MgStg, a: usize, b: usize) -> u64 {
        let cell = &self.weights[self.slot[a].0 * self.alive + self.slot[b].0];
        if cell.get() == UNWEIGHED {
            let (env, gates) = self.oracle.weight_key(mg.label(a), mg.label(b));
            cell.set(u64::from(env) << 32 | u64::from(gates));
        }
        cell.get()
    }

    /// Transition `t`'s place in the text order of the rendered labels.
    pub(crate) fn rank(&self, t: usize) -> usize {
        self.slot[t].1
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
        assert!(oracle.weight_key(xp, yp) > (false, u32::MAX - 1));
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
        assert_eq!(oracle.weight_key(ap, dp), (true, u32::MAX));
    }
}
