//! Marked-graph STGs at the transition level.
//!
//! Inside an MG every place has exactly one input and one output transition,
//! so the thesis (Sec. 5.2.2) works with *arcs* `t1 ⇒ t2` carrying the
//! tokens of the implicit place `<t1, t2>`. [`MgStg`] is that view: labelled
//! transitions plus token-counted arcs, with the structural predicates the
//! relaxation engine needs (precedence, concurrency, liveness, safeness and
//! the Algorithm 3 shortcut-place redundancy check).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

use si_petri::MgComponent;

use crate::sg::mix_word;
use crate::signal::{SignalId, SignalKind, TransitionLabel};
use crate::stg::{SignalDecl, Stg, StgError, ALLOCATION_CAP, DEFAULT_GLOBAL_SG_BUDGET};

/// Attributes of an arc (implicit place) of an [`MgStg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcAttr {
    /// Tokens currently held by the implicit place.
    pub tokens: u32,
    /// Whether this is an order-restriction arc (`#` in the thesis Ch. 6):
    /// never relaxed and never removed as redundant.
    pub restriction: bool,
}

/// Canonical structural key of an [`MgStg`] for state-graph memoization.
///
/// Two `MgStg`s with equal keys generate byte-identical [`crate::StateGraph`]s:
/// the key captures exactly the inputs of [`crate::StateGraph::of_mg`] —
/// the initial signal code, the alive transitions with their ids and
/// labels, and the arc skeleton with token counts. Signal *names* and
/// restriction flags are deliberately excluded: neither influences
/// state-graph generation, so excluding them widens cache sharing (e.g. a
/// sub-STG that only adds `#`-restriction markings hits the parent's
/// entry).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SgKey {
    initial_code: u64,
    transitions: Vec<(usize, TransitionLabel)>,
    arcs: Vec<(usize, usize, u32)>,
}

impl SgKey {
    /// Whether this is `mg`'s key: the same answer as `*self ==
    /// mg.sg_key()`, found by walking `mg`'s transitions and arc map in
    /// place, with no allocation.
    pub fn matches(&self, mg: &MgStg) -> bool {
        self.initial_code == mg.initial_code
            && self.arcs.len() == mg.arcs.len()
            && self.transitions.iter().copied().eq(mg.alive_labels())
            && self.arcs.iter().copied().eq(mg.key_arcs())
    }
}

/// Extends `fingerprint` with `words`, one multiply-rotate step per word,
/// then folds the result's high half into its low half — the mixing of
/// [`MgStg::sg_fingerprint`], which is this function applied to the key
/// content from 0. For memo keys that add content to a marked graph's
/// fingerprint.
pub fn extend_fingerprint(fingerprint: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let h = words.into_iter().fold(fingerprint, mix_word);
    // The last product mixes its input only upward, and a hash table
    // picks buckets by the low bits: fold the high half into them.
    h ^ (h >> 32)
}

/// Whether `edges`, taken as undirected, connect all of `nodes` (false
/// for no nodes): union-find over `parent`, one entry per node id below
/// `ids`, which the caller may reuse across calls.
pub(crate) fn weakly_connected(
    parent: &mut Vec<usize>,
    ids: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
    nodes: impl IntoIterator<Item = usize>,
) -> bool {
    fn root(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            // Path halving: point `x` at its grandparent as we climb.
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    parent.clear();
    parent.extend(0..ids);
    for (a, b) in edges {
        let (ra, rb) = (root(parent, a), root(parent, b));
        parent[ra] = rb;
    }
    let mut nodes = nodes.into_iter();
    let Some(first) = nodes.next() else {
        return false;
    };
    let r = root(parent, first);
    nodes.all(|n| root(parent, n) == r)
}

/// A marked-graph STG over transition-level arcs.
///
/// Transition ids are stable across edits (removed transitions are
/// tombstoned), so the relaxation engine can hold ids across structural
/// rewrites. All iteration orders are deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgStg {
    /// Model name, inherited from the source STG.
    pub name: String,
    /// Shared with every clone: the signal table never changes after
    /// construction, and the relaxation loop clones the graph once per
    /// trial — sharing it keeps those clones off the heap.
    signals: Arc<Vec<SignalDecl>>,
    transitions: Vec<Option<TransitionLabel>>,
    arcs: BTreeMap<(usize, usize), ArcAttr>,
    initial_code: u64,
}

impl MgStg {
    /// Builds the transition-level view of one MG component of `stg`,
    /// starting at `initial_code`, the whole STG's initial code
    /// ([`crate::StgAnalysis::initial_code`]).
    ///
    /// Parallel places between the same transition pair merge to the
    /// binding (minimum-token) constraint.
    ///
    /// # Errors
    ///
    /// [`StgError::MalformedMarkedGraph`] if a place of the component is
    /// dangling.
    pub fn from_component(
        stg: &Stg,
        comp: &MgComponent,
        initial_code: u64,
    ) -> Result<Self, StgError> {
        let mut mg = Self {
            name: stg.name.clone(),
            signals: Arc::new(stg.signals.clone()),
            transitions: Vec::new(),
            arcs: BTreeMap::new(),
            initial_code,
        };
        for t in comp.net.transitions() {
            let orig = comp.transition_map[t.0];
            mg.transitions.push(Some(stg.label(orig)));
        }
        let m0 = comp.net.initial_marking();
        for p in comp.net.places() {
            let pre = comp.net.place_pre(p);
            let post = comp.net.place_post(p);
            let (&src, &dst) = match (pre.first(), post.first()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(StgError::MalformedMarkedGraph {
                        reason: format!(
                            "place `{}` is dangling in the MG component",
                            comp.net.place_name(p)
                        ),
                    })
                }
            };
            mg.insert_arc(src.0, dst.0, m0[p.0], false);
        }
        Ok(mg)
    }

    /// Builds an `MgStg` directly (used by tests and builders); the caller
    /// supplies the signal table of the owning [`Stg`] via `stg`, whose
    /// walk may visit at most [`DEFAULT_GLOBAL_SG_BUDGET`] markings.
    pub fn from_stg_mg(stg: &Stg) -> Result<Self, StgError> {
        let comps = stg.mg_components(&stg.analyze(DEFAULT_GLOBAL_SG_BUDGET)?, ALLOCATION_CAP)?;
        match comps.len() {
            1 => Ok(comps.into_iter().next().expect("checked")),
            n => Err(StgError::MalformedMarkedGraph {
                reason: format!("expected a marked graph, got {n} MG components"),
            }),
        }
    }

    /// Global initial state code (bit `i` = initial value of signal `i`).
    pub fn initial_code(&self) -> u64 {
        self.initial_code
    }

    /// The canonical [`SgKey`] of this MG — the memoization key for
    /// [`crate::StateGraph::of_mg`]. Deterministic: alive transitions in
    /// ascending id order, arcs in `BTreeMap` key order.
    pub fn sg_key(&self) -> SgKey {
        SgKey {
            initial_code: self.initial_code,
            transitions: self.alive_labels().collect(),
            arcs: self.key_arcs().collect(),
        }
    }

    /// The alive transitions with their labels, ascending, as [`SgKey`]
    /// lists them.
    pub(crate) fn alive_labels(&self) -> impl Iterator<Item = (usize, TransitionLabel)> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .filter_map(|(t, label)| label.map(|l| (t, l)))
    }

    /// The arc skeleton with token counts, as [`SgKey`] lists it.
    fn key_arcs(&self) -> impl Iterator<Item = (usize, usize, u32)> + '_ {
        self.arcs.iter().map(|(&(a, b), attr)| (a, b, attr.tokens))
    }

    /// A cheap 64-bit fingerprint of exactly the content [`MgStg::sg_key`]
    /// canonicalizes — the initial code, the alive transitions with ids
    /// and labels, and the arc skeleton with token counts — computed with
    /// no allocation, stable across runs and platforms. Each value is one
    /// 64-bit word folded in by the multiply-rotate step of the state-row
    /// hash; a final mix spreads the result into the low bits.
    ///
    /// Equal [`SgKey`]s always yield equal fingerprints; the converse
    /// holds only up to 64-bit collision odds. The engine's memo uses the
    /// fingerprint only to pick a slot and compares the stored key
    /// ([`SgKey::matches`]).
    pub fn sg_fingerprint(&self) -> u64 {
        self.fingerprint_with(|attr| u64::from(attr.tokens))
    }

    /// The token-free counterpart of [`MgStg::sg_fingerprint`]: the same
    /// word stream with each arc's restriction flag in place of its token
    /// count. Two graphs that differ only in their tokens share it; their
    /// token vectors ([`MgStg::arc_tokens`]) tell them apart. The
    /// relaxation loop's covering ledger keys its visits by it.
    pub fn skeleton_fingerprint(&self) -> u64 {
        self.fingerprint_with(|attr| u64::from(attr.restriction))
    }

    /// The token count of every arc, in arc-key order (the order of
    /// [`MgStg::arcs`]).
    pub fn arc_tokens(&self) -> impl Iterator<Item = u32> + '_ {
        self.arcs.values().map(|attr| attr.tokens)
    }

    /// The one word stream behind both fingerprints: the initial code, the
    /// alive transitions with ids and labels, then per arc its endpoints
    /// and `arc_word` of its attributes.
    fn fingerprint_with(&self, arc_word: impl Fn(ArcAttr) -> u64) -> u64 {
        let transitions = self.alive_labels().flat_map(|(t, l)| {
            let polarity = match l.polarity {
                crate::Polarity::Plus => 1,
                crate::Polarity::Minus => 2,
            };
            [
                t as u64,
                l.signal.0 as u64,
                polarity,
                u64::from(l.occurrence),
            ]
        });
        let arcs = self
            .arcs
            .iter()
            .flat_map(|(&(a, b), &attr)| [a as u64, b as u64, arc_word(attr)]);
        let words = std::iter::once(self.initial_code)
            .chain(transitions)
            .chain(arcs);
        extend_fingerprint(0, words)
    }

    /// Overrides the initial state code.
    pub fn set_initial_code(&mut self, code: u64) {
        self.initial_code = code;
    }

    /// Whether every alive transition lies in one weakly connected
    /// component of the arc graph (arcs taken as undirected edges).
    ///
    /// This is the condition under which a reachable marking determines the
    /// transition firing-count vector up to a constant shift, which lets
    /// the σ-space explorer ([`crate::StateGraph::of_mg_sigma`]) identify
    /// states by normalized firing counts instead of full markings.
    pub fn arcs_weakly_connected(&self) -> bool {
        weakly_connected(
            &mut Vec::new(),
            self.transitions.len(),
            self.arcs.keys().copied(),
            self.alive_labels().map(|(t, _)| t),
        )
    }

    /// Number of signals in the signal table.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Name of signal `s`.
    pub fn signal_name(&self, s: SignalId) -> &str {
        &self.signals[s.0].name
    }

    /// Kind of signal `s`.
    pub fn signal_kind(&self, s: SignalId) -> SignalKind {
        self.signals[s.0].kind
    }

    /// Finds a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|d| d.name == name)
            .map(SignalId)
    }

    /// The signal-name table.
    pub fn signal_names(&self) -> Vec<String> {
        self.signals.iter().map(|d| d.name.clone()).collect()
    }

    /// Alive transition ids, ascending.
    pub fn transitions(&self) -> Vec<usize> {
        self.alive_labels().map(|(t, _)| t).collect()
    }

    /// Whether transition `t` is alive.
    pub fn is_alive(&self, t: usize) -> bool {
        self.transitions.get(t).is_some_and(|l| l.is_some())
    }

    /// Label of transition `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is dead or out of range.
    pub fn label(&self, t: usize) -> TransitionLabel {
        self.transitions[t].expect("transition is alive")
    }

    /// Renders transition `t`'s label (`req+`, `csc0-/2`).
    pub fn label_string(&self, t: usize) -> String {
        let mut s = String::new();
        self.write_label(t, &mut s);
        s
    }

    /// Appends transition `t`'s rendered label to `buf` — the same text as
    /// [`MgStg::label_string`] without cloning the signal-name table, so
    /// hot loops can reuse one buffer across many renders.
    ///
    /// # Panics
    ///
    /// Panics if `t` is dead or out of range.
    pub fn write_label(&self, t: usize, buf: &mut String) {
        use std::fmt::Write;
        let l = self.label(t);
        buf.push_str(self.signal_name(l.signal));
        let _ = write!(buf, "{}", l.polarity);
        if l.occurrence != 1 {
            let _ = write!(buf, "/{}", l.occurrence);
        }
    }

    /// Finds an alive transition by rendered label.
    pub fn transition_by_label(&self, label: &str) -> Option<usize> {
        self.transitions()
            .into_iter()
            .find(|&t| self.label_string(t) == label)
    }

    /// Adds a transition (used by builders/tests) and returns its id.
    pub fn add_transition(&mut self, label: TransitionLabel) -> usize {
        self.transitions.push(Some(label));
        self.transitions.len() - 1
    }

    /// Creates an empty `MgStg` sharing `stg`'s signal table. The initial
    /// code defaults to all-zero; set it with [`MgStg::set_initial_code`].
    pub fn empty_like(stg: &Stg) -> Self {
        Self {
            name: stg.name.clone(),
            signals: Arc::new(stg.signals.clone()),
            transitions: Vec::new(),
            arcs: BTreeMap::new(),
            initial_code: 0,
        }
    }

    /// All arcs `((src, dst), attr)` in deterministic order.
    pub fn arcs(&self) -> impl Iterator<Item = ((usize, usize), ArcAttr)> + '_ {
        self.arcs.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Attribute of arc `src ⇒ dst`, if present.
    pub fn arc(&self, src: usize, dst: usize) -> Option<ArcAttr> {
        self.arcs.get(&(src, dst)).copied()
    }

    /// Inserts (or merges into) the arc `src ⇒ dst`.
    ///
    /// Parallel insertions merge to the minimum token count (the binding
    /// constraint); restriction status is sticky.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is dead.
    pub fn insert_arc(&mut self, src: usize, dst: usize, tokens: u32, restriction: bool) {
        assert!(
            self.is_alive(src) && self.is_alive(dst),
            "arc endpoints must be alive"
        );
        self.arcs
            .entry((src, dst))
            .and_modify(|a| {
                a.tokens = a.tokens.min(tokens);
                a.restriction |= restriction;
            })
            .or_insert(ArcAttr {
                tokens,
                restriction,
            });
    }

    /// Removes the arc `src ⇒ dst`; returns its attributes if it existed.
    pub fn remove_arc(&mut self, src: usize, dst: usize) -> Option<ArcAttr> {
        self.arcs.remove(&(src, dst))
    }

    /// Removes a transition and all incident arcs.
    pub fn remove_transition(&mut self, t: usize) {
        self.transitions[t] = None;
        self.arcs.retain(|&(a, b), _| a != t && b != t);
    }

    /// Predecessor transitions of `t` (thesis `/t`).
    pub fn preds(&self, t: usize) -> Vec<usize> {
        self.arcs
            .keys()
            .filter(|&&(_, b)| b == t)
            .map(|&(a, _)| a)
            .collect()
    }

    /// Successor transitions of `t` (thesis `t.`).
    pub fn succs(&self, t: usize) -> Vec<usize> {
        self.arcs
            .keys()
            .filter(|&&(a, _)| a == t)
            .map(|&(_, b)| b)
            .collect()
    }

    /// Minimum-token weight of a non-empty directed path from `a` to `b`
    /// (Dijkstra over arc token counts). With `exclude_direct`, the arc
    /// `(a, b)` is removed from the graph entirely, as in the Algorithm 3
    /// shortcut-place construction. `a == b` asks for the lightest cycle
    /// through `a`.
    ///
    /// A yes/no question about the weight is cheaper to ask through
    /// [`MgStg::has_path_within`].
    pub fn min_token_path(&self, a: usize, b: usize, exclude_direct: bool) -> Option<u32> {
        let mut paths = PathIndex::new(self);
        if exclude_direct {
            paths.hide(a, b);
        }
        paths.min_tokens(a, b)
    }

    /// Whether a non-empty directed path from `a` to `b` carries at most
    /// `max_tokens` tokens — `min_token_path(a, b, exclude_direct)` being
    /// at most `max_tokens`, answered by a search that stops at `b` or at
    /// the bound instead of computing the minimum.
    pub fn has_path_within(
        &self,
        a: usize,
        b: usize,
        max_tokens: u32,
        exclude_direct: bool,
    ) -> bool {
        let mut paths = PathIndex::new(self);
        if exclude_direct {
            paths.hide(a, b);
        }
        paths.within(a, b, max_tokens)
    }

    /// Whether `a` must fire before `b` in the current cycle: a token-free
    /// directed path `a → b` exists.
    pub fn precedes(&self, a: usize, b: usize) -> bool {
        a != b && self.has_path_within(a, b, 0, false)
    }

    /// Whether `a` and `b` are concurrent (neither precedes the other).
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let mut paths = PathIndex::new(self);
        !paths.within(a, b, 0) && !paths.within(b, a, 0)
    }

    /// Whether the MG is live: strongly connected over alive transitions
    /// and every directed cycle carries at least one token (equivalently,
    /// the token-free subgraph is acyclic).
    pub fn is_live(&self) -> bool {
        let alive = self.transitions();
        if alive.is_empty() {
            return false;
        }
        self.strongly_connected(&alive) && self.zero_token_acyclic(&alive)
    }

    fn strongly_connected(&self, alive: &[usize]) -> bool {
        let reach = |forward: bool| -> BTreeSet<usize> {
            let mut seen = BTreeSet::new();
            let mut stack = vec![alive[0]];
            seen.insert(alive[0]);
            while let Some(n) = stack.pop() {
                for &(a, b) in self.arcs.keys() {
                    let (from, to) = if forward { (a, b) } else { (b, a) };
                    if from == n && seen.insert(to) {
                        stack.push(to);
                    }
                }
            }
            seen
        };
        let fwd = reach(true);
        let bwd = reach(false);
        alive.iter().all(|t| fwd.contains(t) && bwd.contains(t))
    }

    fn zero_token_acyclic(&self, alive: &[usize]) -> bool {
        // Kahn's algorithm on the token-free subgraph.
        let mut indeg: BTreeMap<usize, usize> = alive.iter().map(|&t| (t, 0)).collect();
        for (&(_, b), attr) in &self.arcs {
            if attr.tokens == 0 {
                *indeg.get_mut(&b).expect("alive") += 1;
            }
        }
        let mut queue: Vec<usize> = indeg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&t, _)| t)
            .collect();
        let mut removed = 0usize;
        while let Some(n) = queue.pop() {
            removed += 1;
            for (&(a, b), attr) in &self.arcs {
                if attr.tokens == 0 && a == n {
                    let d = indeg.get_mut(&b).expect("alive");
                    *d -= 1;
                    if *d == 0 {
                        queue.push(b);
                    }
                }
            }
        }
        removed == alive.len()
    }

    /// Whether the MG is safe: every implicit place can hold at most one
    /// token in any reachable marking. For a live MG the bound of place
    /// `(a, b)` is `tokens(a, b) + min-token-path(b → a)`.
    pub fn is_safe(&self) -> bool {
        let paths = PathIndex::new(self);
        self.arcs
            .iter()
            .all(|(&(a, b), attr)| match paths.min_tokens(b, a) {
                Some(back) => attr.tokens + back <= 1,
                None => attr.tokens <= 1, // no cycle: bound is the initial count
            })
    }

    /// The Algorithm 3 redundancy check for the implicit place on arc
    /// `src ⇒ dst`: the arc is redundant iff a different path `src → dst`
    /// carries no more tokens than the arc itself, or the arc is a marked
    /// self-loop ("loop-only place").
    pub fn is_redundant_arc(&self, src: usize, dst: usize) -> bool {
        let Some(attr) = self.arc(src, dst) else {
            return false;
        };
        let mut paths = PathIndex::new(self);
        let e = paths.arc_index(src, dst).expect("the arc exists");
        paths.sweep_arc(e, src, dst, attr.tokens)
    }

    /// Removes every redundant non-restriction arc (thesis Sec. 5.3.3);
    /// returns the removed arcs in removal order.
    ///
    /// One pass in arc-key order, each arc tested against the arcs still
    /// present at its turn, is exact: it removes the same arcs, in the
    /// same order, as repeating the pass until a round removes nothing.
    /// An arc's test asks only whether some *other* path carries at most
    /// the arc's tokens, and removing arcs only removes paths. So an arc
    /// found non-redundant stays non-redundant for the rest of the pass,
    /// and a second pass would remove nothing. (A self-loop's test reads
    /// its own token count alone.)
    ///
    /// Each test is a bounded search ([`MgStg::has_path_within`]) over one
    /// flat successor list built per sweep, with one scratch buffer shared
    /// by every candidate. A removed arc is hidden from the later searches
    /// by a flag and leaves the arc map at the end of the pass.
    pub fn eliminate_redundant_arcs(&mut self) -> Vec<(usize, usize)> {
        let mut paths = PathIndex::new(self);
        let removed: Vec<(usize, usize)> = self
            .arcs
            .iter()
            .enumerate()
            .filter(|&(e, (&(a, b), attr))| {
                !attr.restriction && paths.sweep_arc(e, a, b, attr.tokens)
            })
            .map(|(_, (&k, _))| k)
            .collect();
        for k in &removed {
            self.arcs.remove(k);
        }
        removed
    }

    /// The initial marking as a map from arcs to token counts.
    pub fn initial_marking(&self) -> BTreeMap<(usize, usize), u32> {
        self.arcs
            .iter()
            .map(|(&k, attr)| (k, attr.tokens))
            .collect()
    }

    /// Whether transition `t` is enabled in `marking`.
    pub fn enabled_in(&self, t: usize, marking: &BTreeMap<(usize, usize), u32>) -> bool {
        self.is_alive(t)
            && self
                .arcs
                .keys()
                .filter(|&&(_, b)| b == t)
                .all(|k| marking.get(k).copied().unwrap_or(0) > 0)
    }

    /// Fires `t` in `marking`, returning the successor marking.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled.
    pub fn fire_in(
        &self,
        t: usize,
        marking: &BTreeMap<(usize, usize), u32>,
    ) -> BTreeMap<(usize, usize), u32> {
        assert!(self.enabled_in(t, marking), "transition {t} is not enabled");
        let mut next = marking.clone();
        for &(a, b) in self.arcs.keys() {
            if b == t {
                *next.get_mut(&(a, b)).expect("incoming arc") -= 1;
            }
        }
        for &(a, b) in self.arcs.keys() {
            if a == t {
                *next.get_mut(&(a, b)).expect("outgoing arc") += 1;
            }
        }
        next
    }
}

/// The arcs of an [`MgStg`] as flat successor lists (compressed sparse
/// rows), with the scratch of the path searches over them. The arcs
/// leaving `t` are `succ[start[t]..start[t + 1]]` as `(dst, tokens)`;
/// because the arc map is keyed `(src, dst)`, entry `e` of `succ` is arc
/// `e` of [`MgStg::arcs`]. An arc whose `live` flag is clear is invisible
/// to every search.
struct PathIndex {
    start: Vec<usize>,
    succ: Vec<(usize, u32)>,
    live: Vec<bool>,
    /// Per transition, the fewest tokens [`PathIndex::within`] has reached
    /// it with (`u32::MAX` = unreached); reset through `touched` after
    /// each search.
    best: Vec<u32>,
    touched: Vec<usize>,
    stack: Vec<(usize, u32)>,
}

impl PathIndex {
    fn new(mg: &MgStg) -> Self {
        let n = mg.transitions.len();
        let mut start = vec![0usize; n + 1];
        for &(src, _) in mg.arcs.keys() {
            start[src + 1] += 1;
        }
        for t in 0..n {
            start[t + 1] += start[t];
        }
        let succ: Vec<(usize, u32)> = mg.arcs.iter().map(|(&(_, b), a)| (b, a.tokens)).collect();
        Self {
            start,
            live: vec![true; succ.len()],
            succ,
            best: vec![u32::MAX; n],
            touched: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The index of arc `a ⇒ b`, if present.
    fn arc_index(&self, a: usize, b: usize) -> Option<usize> {
        let first = self.start[a];
        self.succ[first..self.start[a + 1]]
            .binary_search_by_key(&b, |&(dst, _)| dst)
            .ok()
            .map(|i| first + i)
    }

    /// Hides arc `a ⇒ b` from every later search.
    fn hide(&mut self, a: usize, b: usize) {
        if let Some(e) = self.arc_index(a, b) {
            self.live[e] = false;
        }
    }

    /// The Algorithm 3 test of arc `e`, which is `a ⇒ b` holding `tokens`:
    /// a marked self-loop, or another path `a → b` with at most `tokens`
    /// tokens. Leaves the arc hidden iff it is redundant.
    fn sweep_arc(&mut self, e: usize, a: usize, b: usize, tokens: u32) -> bool {
        self.live[e] = false;
        let redundant = if a == b {
            tokens >= 1
        } else {
            self.within(a, b, tokens)
        };
        self.live[e] = !redundant;
        redundant
    }

    /// Whether a non-empty path `a → b` over live arcs carries at most
    /// `bound` tokens. A depth-first search that never extends a path
    /// past `bound` tokens and revisits a transition only when reaching it
    /// with fewer tokens than before, so each transition is expanded at
    /// most `bound + 1` times; it stops at the first arrival at `b`.
    fn within(&mut self, a: usize, b: usize, bound: u32) -> bool {
        let found = self.search(a, b, bound);
        for &t in &self.touched {
            self.best[t] = u32::MAX;
        }
        self.touched.clear();
        self.stack.clear();
        found
    }

    fn search(&mut self, a: usize, b: usize, bound: u32) -> bool {
        // The seed entry records no arrival at `a`, so the paths searched
        // are non-empty: `a` is reached only if a cycle leads back to it.
        self.stack.push((a, 0));
        while let Some((n, d)) = self.stack.pop() {
            if d > self.best[n] {
                continue; // superseded by a cheaper arrival
            }
            for e in self.start[n]..self.start[n + 1] {
                let (dst, tokens) = self.succ[e];
                if !self.live[e] || tokens > bound - d {
                    continue;
                }
                if dst == b {
                    return true;
                }
                let nd = d + tokens;
                if nd < self.best[dst] {
                    if self.best[dst] == u32::MAX {
                        self.touched.push(dst);
                    }
                    self.best[dst] = nd;
                    self.stack.push((dst, nd));
                }
            }
        }
        false
    }

    /// Minimum tokens over non-empty paths `a → b` on live arcs
    /// (Dijkstra); `a == b` asks for the lightest cycle through `a`.
    fn min_tokens(&self, a: usize, b: usize) -> Option<u32> {
        let mut dist: Vec<Option<u32>> = vec![None; self.start.len() - 1];
        // Start from `a` at distance 0 without giving it one, so that paths
        // are non-empty: `a` gets a distance only if a cycle reaches it.
        let mut heap = BinaryHeap::from([Reverse((0, a))]);
        while let Some(Reverse((d, n))) = heap.pop() {
            if dist[n].is_some_and(|seen| d > seen) {
                continue;
            }
            for e in self.start[n]..self.start[n + 1] {
                let (dst, tokens) = self.succ[e];
                if !self.live[e] {
                    continue;
                }
                let nd = d + tokens;
                if dist[dst].is_none_or(|seen| nd < seen) {
                    dist[dst] = Some(nd);
                    heap.push(Reverse((nd, dst)));
                }
            }
        }
        dist[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sg::StateGraph;
    use crate::signal::Polarity;
    use crate::stg::Stg;

    /// Builds the SR-latch local STG of thesis Fig. 5.4 directly:
    /// b- ⇒ a-, b+/2 ⇒ a+ are the type-4 arcs.
    fn sr_latch_local() -> (MgStg, BTreeMap<&'static str, usize>) {
        let mut stg = Stg::new("sr");
        let a = stg.add_signal("a", SignalKind::Input);
        let b = stg.add_signal("b", SignalKind::Input);
        let o = stg.add_signal("o", SignalKind::Output);
        let mut mg = MgStg {
            name: "sr".into(),
            signals: Arc::new(stg.signals.clone()),
            transitions: Vec::new(),
            arcs: BTreeMap::new(),
            initial_code: 0,
        };
        let am = mg.add_transition(TransitionLabel::first(a, Polarity::Minus));
        let ap = mg.add_transition(TransitionLabel::first(a, Polarity::Plus));
        let bm = mg.add_transition(TransitionLabel::first(b, Polarity::Minus));
        let bp = mg.add_transition(TransitionLabel::first(b, Polarity::Plus));
        let bm2 = mg.add_transition(TransitionLabel::new(b, Polarity::Minus, 2));
        let bp2 = mg.add_transition(TransitionLabel::new(b, Polarity::Plus, 2));
        let op = mg.add_transition(TransitionLabel::first(o, Polarity::Plus));
        let om = mg.add_transition(TransitionLabel::first(o, Polarity::Minus));
        // a- ⇒ o+, a+ ⇒ o-, b-/2 ⇒ o- : type (1)
        mg.insert_arc(am, op, 0, false);
        mg.insert_arc(ap, om, 0, false);
        mg.insert_arc(bm2, om, 0, false);
        // o- ⇒ b+, o+ ⇒ b+/2 : type (2)
        mg.insert_arc(om, bp, 1, false);
        mg.insert_arc(op, bp2, 0, false);
        // b+ ⇒ b-, b+/2 ⇒ b-/2 : type (3)
        mg.insert_arc(bp, bm, 0, false);
        mg.insert_arc(bp2, bm2, 0, false);
        // b- ⇒ a-, b+/2 ⇒ a+ : type (4)
        mg.insert_arc(bm, am, 0, false);
        mg.insert_arc(bp2, ap, 0, false);
        let names = [
            ("a-", am),
            ("a+", ap),
            ("b-", bm),
            ("b+", bp),
            ("b-/2", bm2),
            ("b+/2", bp2),
            ("o+", op),
            ("o-", om),
        ]
        .into_iter()
        .collect();
        (mg, names)
    }

    #[test]
    fn fingerprint_tracks_sg_key() {
        let (mg, names) = sr_latch_local();
        // Stable across calls, and a clone fingerprints identically.
        assert_eq!(mg.sg_fingerprint(), mg.sg_fingerprint());
        assert_eq!(mg.sg_fingerprint(), mg.clone().sg_fingerprint());
        // Equal keys ⟹ equal fingerprints even across different edit
        // histories: removing an arc and re-inserting it lands back on
        // the same canonical content.
        let before = mg.sg_fingerprint();
        let mut edited = mg.clone();
        edited.remove_arc(names["b-"], names["a-"]);
        assert_ne!(edited.sg_fingerprint(), before, "an edit must show up");
        edited.insert_arc(names["b-"], names["a-"], 0, false);
        assert_eq!(edited.sg_key(), mg.sg_key());
        assert_eq!(edited.sg_fingerprint(), before);
        // Token counts and the initial code are part of the content;
        // restriction flags are not (matching `SgKey`).
        let mut tokens = mg.clone();
        tokens.remove_arc(names["b-"], names["a-"]);
        tokens.insert_arc(names["b-"], names["a-"], 1, false);
        assert_ne!(tokens.sg_fingerprint(), before);
        let mut code = mg.clone();
        code.set_initial_code(1);
        assert_ne!(code.sg_fingerprint(), before);
        let mut restricted = mg.clone();
        restricted.remove_arc(names["b-"], names["a-"]);
        restricted.insert_arc(names["b-"], names["a-"], 0, true);
        assert_eq!(restricted.sg_key(), mg.sg_key());
        assert_eq!(restricted.sg_fingerprint(), before);
    }

    #[test]
    fn skeleton_fingerprint_swaps_tokens_for_restriction_flags() {
        let (mg, names) = sr_latch_local();
        let skeleton = mg.skeleton_fingerprint();
        assert_ne!(skeleton, mg.sg_fingerprint());
        // Tokens are not part of the skeleton; `arc_tokens` carries them,
        // one per arc in arc-key order.
        let mut tokens = mg.clone();
        tokens.remove_arc(names["b-"], names["a-"]);
        tokens.insert_arc(names["b-"], names["a-"], 3, false);
        assert_eq!(tokens.skeleton_fingerprint(), skeleton);
        let grown: Vec<(u32, u32)> = mg.arc_tokens().zip(tokens.arc_tokens()).collect();
        assert_eq!(grown.len(), mg.arc_count());
        let changed: Vec<(usize, usize)> = mg
            .arcs()
            .zip(&grown)
            .filter(|(_, (old, new))| old != new)
            .map(|((arc, _), _)| arc)
            .collect();
        assert_eq!(changed, vec![(names["b-"], names["a-"])]);
        // Restriction flags and the arc structure are.
        let mut restricted = mg.clone();
        restricted.remove_arc(names["b-"], names["a-"]);
        restricted.insert_arc(names["b-"], names["a-"], 0, true);
        assert_ne!(restricted.skeleton_fingerprint(), skeleton);
        let mut edited = mg.clone();
        edited.remove_arc(names["b-"], names["a-"]);
        assert_ne!(edited.skeleton_fingerprint(), skeleton);
    }

    #[test]
    fn sr_latch_is_live_and_safe() {
        let (mg, _) = sr_latch_local();
        assert!(mg.is_live());
        assert!(mg.is_safe());
    }

    #[test]
    fn precedence_and_concurrency() {
        let (mg, n) = sr_latch_local();
        assert!(mg.precedes(n["b-"], n["a-"]));
        assert!(mg.precedes(n["a-"], n["o+"]));
        assert!(!mg.precedes(n["o+"], n["a-"]));
        assert!(!mg.concurrent(n["b-"], n["a-"]));
    }

    #[test]
    fn min_token_path_counts_tokens() {
        let (mg, n) = sr_latch_local();
        // o- → b+ carries one token; path o- → a- must go the long way.
        assert_eq!(mg.min_token_path(n["o-"], n["b+"], false), Some(1));
        assert_eq!(mg.min_token_path(n["b+"], n["a-"], false), Some(0));
    }

    #[test]
    fn shortcut_place_is_redundant() {
        // Thesis Fig. 5.14 (a): p4 = <x+, x-> is a shortcut of the path
        // x+ → y+ → x-.
        let mut stg = Stg::new("fig514a");
        let x = stg.add_signal("x", SignalKind::Input);
        let y = stg.add_signal("y", SignalKind::Input);
        let mut mg = MgStg {
            name: "fig514a".into(),
            signals: Arc::new(stg.signals.clone()),
            transitions: Vec::new(),
            arcs: BTreeMap::new(),
            initial_code: 0,
        };
        let xp = mg.add_transition(TransitionLabel::first(x, Polarity::Plus));
        let yp = mg.add_transition(TransitionLabel::first(y, Polarity::Plus));
        let xm = mg.add_transition(TransitionLabel::first(x, Polarity::Minus));
        let ym = mg.add_transition(TransitionLabel::first(y, Polarity::Minus));
        mg.insert_arc(xp, yp, 0, false); // p2
        mg.insert_arc(yp, xm, 0, false); // p3
        mg.insert_arc(xp, xm, 0, false); // p4: the shortcut
        mg.insert_arc(xm, ym, 0, false); // p5
        mg.insert_arc(ym, xp, 1, false); // p1
        assert!(mg.is_redundant_arc(xp, xm));
        assert!(!mg.is_redundant_arc(xp, yp));
        let removed = mg.eliminate_redundant_arcs();
        assert_eq!(removed, vec![(xp, xm)]);
        assert!(mg.is_live());
    }

    #[test]
    fn marked_path_is_not_a_shortcut() {
        // Thesis Fig. 5.14 (b) situation: the place <b-, b+> holds one
        // token, but every alternative path b- → b+ carries two tokens, so
        // the place is NOT a shortcut and must be kept.
        let mut stg = Stg::new("fig514b");
        let x = stg.add_signal("x", SignalKind::Input);
        let y = stg.add_signal("y", SignalKind::Input);
        let b = stg.add_signal("b", SignalKind::Input);
        let mut mg = MgStg {
            name: "fig514b".into(),
            signals: Arc::new(stg.signals.clone()),
            transitions: Vec::new(),
            arcs: BTreeMap::new(),
            initial_code: 0,
        };
        let bm = mg.add_transition(TransitionLabel::first(b, Polarity::Minus));
        let xp = mg.add_transition(TransitionLabel::first(x, Polarity::Plus));
        let yp = mg.add_transition(TransitionLabel::first(y, Polarity::Plus));
        let bp = mg.add_transition(TransitionLabel::first(b, Polarity::Plus));
        mg.insert_arc(bm, xp, 0, false);
        mg.insert_arc(xp, yp, 1, false);
        mg.insert_arc(yp, bp, 1, false);
        mg.insert_arc(bp, bm, 0, false);
        mg.insert_arc(bm, bp, 1, false); // the candidate place: 1 < 2
        assert!(!mg.is_redundant_arc(bm, bp));
        // Raising the candidate's tokens to the path weight makes it
        // redundant again.
        mg.remove_arc(bm, bp);
        mg.insert_arc(bm, bp, 2, false);
        assert!(mg.is_redundant_arc(bm, bp));
    }

    #[test]
    fn zero_token_cycle_is_not_live() {
        let (mut mg, n) = sr_latch_local();
        // Drain the only token: dead.
        mg.insert_arc(n["o-"], n["b+"], 0, false); // merges to min = 0
        assert!(!mg.is_live());
    }

    #[test]
    fn two_tokens_in_cycle_is_unsafe() {
        let mut stg = Stg::new("unsafe");
        let x = stg.add_signal("x", SignalKind::Input);
        let mut mg = MgStg {
            name: "unsafe".into(),
            signals: Arc::new(stg.signals.clone()),
            transitions: Vec::new(),
            arcs: BTreeMap::new(),
            initial_code: 0,
        };
        let xp = mg.add_transition(TransitionLabel::first(x, Polarity::Plus));
        let xm = mg.add_transition(TransitionLabel::first(x, Polarity::Minus));
        mg.insert_arc(xp, xm, 1, false);
        mg.insert_arc(xm, xp, 1, false);
        assert!(mg.is_live());
        assert!(!mg.is_safe());
    }

    #[test]
    fn restriction_arcs_survive_redundancy_elimination() {
        let (mut mg, n) = sr_latch_local();
        mg.insert_arc(n["b-"], n["o+"], 0, true); // redundant but protected
        let removed = mg.eliminate_redundant_arcs();
        assert!(!removed.contains(&(n["b-"], n["o+"])));
        assert!(mg.arc(n["b-"], n["o+"]).is_some());
    }

    #[test]
    fn token_game_round_trip() {
        let (mg, n) = sr_latch_local();
        let m0 = mg.initial_marking();
        assert!(mg.enabled_in(n["b+"], &m0));
        let m1 = mg.fire_in(n["b+"], &m0);
        assert!(mg.enabled_in(n["b-"], &m1));
        assert!(!mg.enabled_in(n["b+"], &m1));
    }

    #[test]
    fn sg_key_distinguishes_structurally_different_mgs() {
        let (mg, n) = sr_latch_local();
        // A clone is key-identical.
        assert_eq!(mg.sg_key(), mg.clone().sg_key());
        // Moving a token changes the key.
        let mut moved = mg.clone();
        moved.remove_arc(n["o-"], n["b+"]);
        moved.insert_arc(n["o-"], n["b+"], 0, false);
        moved.remove_arc(n["b+"], n["b-"]);
        moved.insert_arc(n["b+"], n["b-"], 1, false);
        assert_ne!(mg.sg_key(), moved.sg_key());
        // Removing an arc changes the key.
        let mut fewer = mg.clone();
        fewer.remove_arc(n["b-"], n["a-"]);
        assert_ne!(mg.sg_key(), fewer.sg_key());
        // Removing a transition changes the key.
        let mut dead = mg.clone();
        dead.remove_transition(n["o+"]);
        assert_ne!(mg.sg_key(), dead.sg_key());
        // A different initial code changes the key.
        let mut flipped = mg.clone();
        flipped.set_initial_code(mg.initial_code() ^ 1);
        assert_ne!(mg.sg_key(), flipped.sg_key());
    }

    #[test]
    fn sg_key_ignores_restriction_flags() {
        // Restriction arcs alter relaxation policy, not state-graph
        // semantics: the key (and thus the SG cache) treats them alike.
        let (mg, n) = sr_latch_local();
        let mut restricted = mg.clone();
        restricted.remove_arc(n["b-"], n["a-"]);
        restricted.insert_arc(n["b-"], n["a-"], 0, true);
        assert_eq!(mg.sg_key(), restricted.sg_key());
    }

    #[test]
    fn equal_sg_keys_mean_equal_state_graphs() {
        let stg = crate::parse::parse_astg(
            "\
.model handshake
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
",
        )
        .expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let mut restricted = mg.clone();
        let (&(a, b), attr) = mg.arcs.iter().next().expect("has arcs");
        restricted.remove_arc(a, b);
        restricted.insert_arc(a, b, attr.tokens, true);
        assert_eq!(mg.sg_key(), restricted.sg_key());
        let x = StateGraph::of_mg(&mg, 1000).expect("consistent");
        let y = StateGraph::of_mg(&restricted, 1000).expect("consistent");
        assert_eq!(x, y);
    }

    #[test]
    fn remove_transition_drops_incident_arcs() {
        let (mut mg, n) = sr_latch_local();
        let before = mg.arc_count();
        mg.remove_transition(n["o+"]);
        assert!(!mg.is_alive(n["o+"]));
        assert!(mg.arc_count() < before);
        assert!(mg.arcs().all(|((a, b), _)| a != n["o+"] && b != n["o+"]));
    }
}
