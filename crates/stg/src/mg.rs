//! Marked-graph STGs at the transition level.
//!
//! Inside an MG every place has exactly one input and one output transition,
//! so the thesis (Sec. 5.2.2) works with *arcs* `t1 ⇒ t2` carrying the
//! tokens of the implicit place `<t1, t2>`. [`MgStg`] is that view: labelled
//! transitions plus token-counted arcs, with the structural predicates the
//! relaxation engine needs (precedence, concurrency, liveness, safeness and
//! the Algorithm 3 shortcut-place redundancy check).
//!
//! The arcs live in one array sorted by `(src, dst)`, so the arcs out of a
//! transition form one contiguous run. The path searches read those runs
//! in place, the redundancy sweep removes each redundant arc from the
//! array as it finds it, and the reference token game's markings are
//! aligned with the array.

use std::cell::RefCell;
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
    /// mg.sg_key()`, found by walking `mg`'s transitions and arc array in
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
/// content from 0. The relaxation loop's covering ledger adds its
/// guaranteed-arc count to [`MgStg::skeleton_fingerprint`] with it.
pub fn extend_fingerprint(fingerprint: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let h = words.into_iter().fold(fingerprint, mix_word);
    // The last product mixes its input only upward, and a hash table
    // picks buckets by the low bits: fold the high half into them.
    h ^ (h >> 32)
}

/// The scratch of [`MgStg::has_path_within`]'s search. Each thread keeps
/// one, reset at the start of every search, so a search allocates only
/// when a graph outgrows it.
struct Search {
    /// Per transition, the fewest tokens the search has reached it with
    /// (`u32::MAX` = unreached).
    best: Vec<u32>,
    stack: Vec<(usize, u32)>,
}

thread_local! {
    static SEARCH: RefCell<Search> = const {
        RefCell::new(Search {
            best: Vec::new(),
            stack: Vec::new(),
        })
    };
}

/// A marked-graph STG over transition-level arcs.
///
/// Transition ids are stable across edits (removed transitions are
/// tombstoned), so the relaxation engine can hold ids across structural
/// rewrites. All iteration orders are deterministic.
///
/// Equality compares the graph, not how it was last swept: the
/// redundancy-free mark stays out of it, as it stays out of [`SgKey`] and
/// both fingerprints.
#[derive(Debug, Clone)]
pub struct MgStg {
    /// Model name, inherited from the source STG.
    pub name: String,
    /// Shared with every clone: the signal table never changes after
    /// construction, and the relaxation loop clones the graph once per
    /// trial — sharing it keeps those clones off the heap.
    signals: Arc<Vec<SignalDecl>>,
    transitions: Vec<Option<TransitionLabel>>,
    /// Every arc `((src, dst), attr)`, sorted by key with no key twice —
    /// the order of [`MgStg::arcs`] — so the arcs out of a transition form
    /// one contiguous run ([`MgStg::arcs_out_of`]).
    arcs: Vec<((usize, usize), ArcAttr)>,
    initial_code: u64,
    /// Whether no non-restriction arc is redundant: set by a full sweep
    /// ([`MgStg::eliminate_redundant_arcs`]) and kept by a bypass edit's
    /// sweep ([`MgStg::bypass`]), cleared by [`MgStg::insert_arc`].
    /// Removing arcs or transitions keeps it, since that only removes
    /// paths.
    redundancy_free: bool,
}

impl PartialEq for MgStg {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.signals == other.signals
            && self.transitions == other.transitions
            && self.arcs == other.arcs
            && self.initial_code == other.initial_code
    }
}

impl Eq for MgStg {}

/// A bypass edit (Algorithms 1 and 2): two-arc paths through a
/// transition or an arc collapse into bypass arcs, each carrying the
/// tokens of the path it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bypass {
    /// Hides transition `t` (Algorithm 1): every predecessor of `t`
    /// gains an arc to every successor, and `t` goes with its arcs.
    Hide(usize),
    /// Relaxes the arc `x ⇒ y` (Algorithm 2): every predecessor of `x`
    /// gains an arc to `y`, `x` gains an arc to every successor of `y`,
    /// and the arc goes.
    Relax(usize, usize),
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
        let mut mg = Self::empty_like(stg);
        mg.initial_code = initial_code;
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
    /// ascending id order, arcs in key order.
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
        self.arcs.iter().map(|&((a, b), attr)| (a, b, attr.tokens))
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

    /// The token count of every arc, in key order (the order of
    /// [`MgStg::arcs`]).
    pub fn arc_tokens(&self) -> impl Iterator<Item = u32> + '_ {
        self.arcs.iter().map(|(_, attr)| attr.tokens)
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
            .flat_map(|&((a, b), attr)| [a as u64, b as u64, arc_word(attr)]);
        let words = std::iter::once(self.initial_code)
            .chain(transitions)
            .chain(arcs);
        extend_fingerprint(0, words)
    }

    /// Overrides the initial state code.
    pub fn set_initial_code(&mut self, code: u64) {
        self.initial_code = code;
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
            arcs: Vec::new(),
            initial_code: 0,
            redundancy_free: false,
        }
    }

    /// All arcs `((src, dst), attr)`, ascending by key.
    pub fn arcs(&self) -> impl Iterator<Item = ((usize, usize), ArcAttr)> + '_ {
        self.arcs.iter().copied()
    }

    /// Where arc `src ⇒ dst` sits in the arc array: `Ok` with its index
    /// if present, else `Err` with the index that keeps the array sorted.
    fn position(&self, src: usize, dst: usize) -> Result<usize, usize> {
        self.arcs.binary_search_by_key(&(src, dst), |&(k, _)| k)
    }

    /// The arcs out of `t`, ascending: one run of the arc array.
    fn arcs_out_of(&self, t: usize) -> &[((usize, usize), ArcAttr)] {
        let start = self.arcs.partition_point(|&((src, _), _)| src < t);
        let len = self.arcs[start..].partition_point(|&((src, _), _)| src == t);
        &self.arcs[start..start + len]
    }

    /// The arcs into `t` as `(src, tokens)`, ascending.
    fn arcs_into(&self, t: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.arcs
            .iter()
            .filter(move |&&((_, b), _)| b == t)
            .map(|&((a, _), attr)| (a, attr.tokens))
    }

    /// Attribute of arc `src ⇒ dst`, if present.
    pub fn arc(&self, src: usize, dst: usize) -> Option<ArcAttr> {
        self.position(src, dst).ok().map(|i| self.arcs[i].1)
    }

    /// Inserts (or merges into) the arc `src ⇒ dst`.
    ///
    /// Parallel insertions merge to the minimum token count (the binding
    /// constraint); restriction status is sticky. The graph no longer
    /// counts as redundancy-free, so the next bypass edit sweeps every
    /// arc.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is dead.
    pub fn insert_arc(&mut self, src: usize, dst: usize, tokens: u32, restriction: bool) {
        assert!(
            self.is_alive(src) && self.is_alive(dst),
            "arc endpoints must be alive"
        );
        self.redundancy_free = false;
        match self.position(src, dst) {
            Ok(i) => {
                let attr = &mut self.arcs[i].1;
                attr.tokens = attr.tokens.min(tokens);
                attr.restriction |= restriction;
            }
            Err(i) => self.arcs.insert(
                i,
                (
                    (src, dst),
                    ArcAttr {
                        tokens,
                        restriction,
                    },
                ),
            ),
        }
    }

    /// Removes the arc `src ⇒ dst`; returns its attributes if it existed.
    pub fn remove_arc(&mut self, src: usize, dst: usize) -> Option<ArcAttr> {
        let i = self.position(src, dst).ok()?;
        Some(self.arcs.remove(i).1)
    }

    /// Removes a transition and all incident arcs.
    pub fn remove_transition(&mut self, t: usize) {
        self.transitions[t] = None;
        self.arcs.retain(|&((a, b), _)| a != t && b != t);
    }

    /// Predecessor transitions of `t` (thesis `/t`).
    pub fn preds(&self, t: usize) -> Vec<usize> {
        self.arcs_into(t).map(|(a, _)| a).collect()
    }

    /// Successor transitions of `t` (thesis `t.`).
    pub fn succs(&self, t: usize) -> Vec<usize> {
        self.arcs_out_of(t).iter().map(|&((_, b), _)| b).collect()
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
        let skip = exclude_direct.then_some((a, b));
        let mut dist: Vec<Option<u32>> = vec![None; self.transitions.len()];
        // Start from `a` at distance 0 without giving it one, so that paths
        // are non-empty: `a` gets a distance only if a cycle reaches it.
        let mut heap = BinaryHeap::from([Reverse((0, a))]);
        while let Some(Reverse((d, n))) = heap.pop() {
            if dist[n].is_some_and(|seen| d > seen) {
                continue;
            }
            for &(key @ (_, dst), attr) in self.arcs_out_of(n) {
                if Some(key) == skip {
                    continue;
                }
                let nd = d + attr.tokens;
                if dist[dst].is_none_or(|seen| nd < seen) {
                    dist[dst] = Some(nd);
                    heap.push(Reverse((nd, dst)));
                }
            }
        }
        dist[b]
    }

    /// Whether a non-empty directed path from `a` to `b` carries at most
    /// `max_tokens` tokens — `min_token_path(a, b, exclude_direct)` being
    /// at most `max_tokens`, answered by a search that stops at `b` or at
    /// the bound instead of computing the minimum.
    ///
    /// The search is depth-first over the arcs' runs, read in place. It
    /// never extends a path past `max_tokens` tokens and revisits a
    /// transition only when reaching it with fewer tokens than before, so
    /// each transition is expanded at most `max_tokens + 1` times; it
    /// stops at the first arrival at `b`.
    pub fn has_path_within(
        &self,
        a: usize,
        b: usize,
        max_tokens: u32,
        exclude_direct: bool,
    ) -> bool {
        let skip = exclude_direct.then_some((a, b));
        SEARCH.with_borrow_mut(|Search { best, stack }| {
            best.clear();
            best.resize(self.transitions.len(), u32::MAX);
            stack.clear();
            // The seed entry records no arrival at `a`, so the paths
            // searched are non-empty: `a` is reached only if a cycle leads
            // back to it.
            stack.push((a, 0));
            while let Some((n, d)) = stack.pop() {
                if d > best[n] {
                    continue; // superseded by a cheaper arrival
                }
                for &(key @ (_, dst), attr) in self.arcs_out_of(n) {
                    if attr.tokens > max_tokens - d || Some(key) == skip {
                        continue;
                    }
                    if dst == b {
                        return true;
                    }
                    let nd = d + attr.tokens;
                    if nd < best[dst] {
                        best[dst] = nd;
                        stack.push((dst, nd));
                    }
                }
            }
            false
        })
    }

    /// Whether `a` must fire before `b` in the current cycle: a token-free
    /// directed path `a → b` exists.
    pub fn precedes(&self, a: usize, b: usize) -> bool {
        a != b && self.has_path_within(a, b, 0, false)
    }

    /// Whether `a` and `b` are concurrent (neither precedes the other).
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.has_path_within(a, b, 0, false) && !self.has_path_within(b, a, 0, false)
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
                for &((a, b), _) in &self.arcs {
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
        for &((_, b), attr) in &self.arcs {
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
            for &((_, b), attr) in self.arcs_out_of(n) {
                if attr.tokens == 0 {
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
        self.arcs
            .iter()
            .all(|&((a, b), attr)| match self.min_token_path(b, a, false) {
                Some(back) => attr.tokens + back <= 1,
                None => attr.tokens <= 1, // no cycle: bound is the initial count
            })
    }

    /// The Algorithm 3 redundancy check for the implicit place on arc
    /// `src ⇒ dst`: the arc is redundant iff a different path `src → dst`
    /// carries no more tokens than the arc itself, or the arc is a marked
    /// self-loop ("loop-only place").
    pub fn is_redundant_arc(&self, src: usize, dst: usize) -> bool {
        self.arc(src, dst)
            .is_some_and(|attr| self.redundant(src, dst, attr.tokens))
    }

    /// The Algorithm 3 test of the arc `a ⇒ b`, which holds `tokens`: a
    /// marked self-loop, or another path `a → b` with at most `tokens`
    /// tokens.
    fn redundant(&self, a: usize, b: usize, tokens: u32) -> bool {
        if a == b {
            tokens >= 1
        } else {
            self.has_path_within(a, b, tokens, true)
        }
    }

    /// Removes every redundant non-restriction arc (thesis Sec. 5.3.3);
    /// returns the removed arcs in removal order.
    ///
    /// One pass in key order, each arc tested against the arcs still
    /// present at its turn, is exact: it removes the same arcs, in the
    /// same order, as repeating the pass until a round removes nothing.
    /// An arc's test asks only whether some *other* path carries at most
    /// the arc's tokens, and removing arcs only removes paths. So an arc
    /// found non-redundant stays non-redundant for the rest of the pass,
    /// and a second pass would remove nothing. (A self-loop's test reads
    /// its own token count alone.)
    ///
    /// Each test is a bounded search ([`MgStg::has_path_within`]) over the
    /// arc array, and a redundant arc leaves the array as soon as its
    /// test finds it, so later tests no longer see it.
    ///
    /// The swept graph is marked redundancy-free, so a later bypass edit
    /// ([`MgStg::bypass`]) sweeps only the arcs it inserted or merged;
    /// [`MgStg::insert_arc`] clears the mark.
    pub fn eliminate_redundant_arcs(&mut self) -> Vec<(usize, usize)> {
        let keys: Vec<(usize, usize)> = self.arcs.iter().map(|&(k, _)| k).collect();
        self.sweep(&keys)
    }

    /// Removes, in the order given, each non-restriction arc among
    /// `candidates` that is redundant at its turn; a candidate that is no
    /// arc is passed over. Returns the removed arcs; the graph is then
    /// marked redundancy-free.
    fn sweep(&mut self, candidates: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let mut removed = Vec::new();
        for &(a, b) in candidates {
            let Ok(i) = self.position(a, b) else {
                continue;
            };
            let attr = self.arcs[i].1;
            if !attr.restriction && self.redundant(a, b, attr.tokens) {
                self.arcs.remove(i);
                removed.push((a, b));
            }
        }
        self.redundancy_free = true;
        removed
    }

    /// Applies one bypass edit (Algorithm 1's hiding step or Algorithm 2's
    /// relaxation), then removes the arcs it made redundant (Algorithm 3).
    ///
    /// Each bypass arc carries the tokens of the two-arc path it stands
    /// for and merges into an existing arc as [`MgStg::insert_arc`] does.
    /// A bypass that would be a marked self-loop is a loop-only place and
    /// is dropped.
    ///
    /// On a graph marked redundancy-free the sweep tests only the arcs the
    /// edit inserted or merged, in key order, and leaves exactly what
    /// [`MgStg::eliminate_redundant_arcs`] would: every path the edit
    /// creates stands for an old path with the same tokens, so a light
    /// path past a surviving arc would have made it redundant before the
    /// edit. The one exception is relaxing a token-free `x ⇒ y` while a
    /// token-free path `y → x` exists: the old path can then run through
    /// the surviving arc itself, closing a token-free cycle that a live
    /// graph never has, and that case, like an unmarked graph, gets the
    /// full sweep. Debug builds check every edit-local sweep against a
    /// full sweep of a copy.
    ///
    /// # Errors
    ///
    /// [`StgError::MalformedMarkedGraph`] if a bypass arc is a token-free
    /// self-loop (the graph was not live); the graph is then left half
    /// edited.
    ///
    /// # Panics
    ///
    /// Panics if `Hide` names an unknown transition or `Relax` a missing
    /// arc.
    pub fn bypass(&mut self, edit: Bypass) -> Result<(), StgError> {
        let swept = self.redundancy_free;
        // The bypasses as `(src, dst, tokens)`.
        let mut bypasses = Vec::new();
        let guard = match edit {
            Bypass::Hide(t) => {
                let outs = self.arcs_out_of(t);
                for (a, into) in self.arcs_into(t) {
                    bypasses.extend(outs.iter().map(|&((_, b), out)| (a, b, into + out.tokens)));
                }
                None
            }
            Bypass::Relax(x, y) => {
                let tokens = self.arc(x, y).expect("the relaxed arc is present").tokens;
                let into = self.arcs_into(x).map(|(b, w)| (b, y, w + tokens));
                let out = self
                    .arcs_out_of(y)
                    .iter()
                    .map(|&((_, d), w)| (x, d, tokens + w.tokens));
                bypasses.extend(into.chain(out));
                (tokens == 0).then_some((y, x))
            }
        };
        for &(a, b, tokens) in &bypasses {
            if a != b {
                self.insert_arc(a, b, tokens, false);
            } else if tokens == 0 {
                let what = match edit {
                    Bypass::Hide(t) => format!("hiding `{}`", self.label_string(t)),
                    Bypass::Relax(x, y) => {
                        format!(
                            "relaxing {} ⇒ {}",
                            self.label_string(x),
                            self.label_string(y)
                        )
                    }
                };
                return Err(StgError::MalformedMarkedGraph {
                    reason: format!("{what} exposes a token-free self-loop"),
                });
            }
        }
        match edit {
            Bypass::Hide(t) => self.remove_transition(t),
            Bypass::Relax(x, y) => {
                self.remove_arc(x, y);
            }
        }

        #[cfg(debug_assertions)]
        let full = swept.then(|| {
            let mut full = self.clone();
            full.eliminate_redundant_arcs();
            full
        });
        if !swept || guard.is_some_and(|(y, x)| self.has_path_within(y, x, 0, false)) {
            self.eliminate_redundant_arcs();
        } else {
            // The arcs the edit inserted or merged, in key order; a bypass
            // out of or into the hidden transition, or onto the relaxed
            // arc, left with the edit and is passed over.
            let mut touched: Vec<(usize, usize)> =
                bypasses.iter().map(|&(a, b, _)| (a, b)).collect();
            touched.sort_unstable();
            touched.dedup();
            self.sweep(&touched);
        }
        #[cfg(debug_assertions)]
        if let Some(full) = full {
            assert!(
                self.arcs == full.arcs,
                "the sweep after {edit:?} left {:?}, a full sweep {:?}",
                self.arcs,
                full.arcs
            );
        }
        Ok(())
    }

    /// The initial marking of the reference token game: the token count
    /// of every arc, aligned with [`MgStg::arcs`].
    pub fn initial_marking(&self) -> Vec<u32> {
        self.arc_tokens().collect()
    }

    /// Whether transition `t` is enabled in `marking` (aligned with
    /// [`MgStg::arcs`]): alive, with a token on every arc into it.
    pub fn enabled_in(&self, t: usize, marking: &[u32]) -> bool {
        debug_assert_eq!(marking.len(), self.arcs.len(), "a marking of this graph");
        self.is_alive(t)
            && self
                .arcs
                .iter()
                .zip(marking)
                .all(|(&((_, b), _), &tokens)| b != t || tokens > 0)
    }

    /// Fires `t` in `marking`, returning the successor marking: one token
    /// off every arc into `t`, one onto every arc out of it.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled.
    pub fn fire_in(&self, t: usize, marking: &[u32]) -> Vec<u32> {
        assert!(self.enabled_in(t, marking), "transition {t} is not enabled");
        self.arcs
            .iter()
            .zip(marking)
            .map(|(&((a, b), _), &tokens)| tokens - u32::from(b == t) + u32::from(a == t))
            .collect()
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
        let mut mg = MgStg::empty_like(&stg);
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
        assert_eq!(grown.len(), mg.arcs().count());
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
        let mut mg = MgStg::empty_like(&stg);
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
        let mut mg = MgStg::empty_like(&stg);
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
        let mut mg = MgStg::empty_like(&stg);
        let xp = mg.add_transition(TransitionLabel::first(x, Polarity::Plus));
        let xm = mg.add_transition(TransitionLabel::first(x, Polarity::Minus));
        mg.insert_arc(xp, xm, 1, false);
        mg.insert_arc(xm, xp, 1, false);
        assert!(mg.is_live());
        assert!(!mg.is_safe());
    }

    #[test]
    fn relaxing_into_a_token_free_cycle_sweeps_every_arc() {
        // b ⇒ x ⇒ y ⇒ z ⇒ x, all token-free, no arc redundant. Relaxing
        // x ⇒ y adds b ⇒ y, z ⇒ y and x ⇒ z; the path b ⇒ y ⇒ z ⇒ x then
        // makes the untouched b ⇒ x redundant, which only a full sweep
        // finds.
        let mut stg = Stg::new("cycle");
        let s = stg.add_signal("s", SignalKind::Input);
        let mut mg = MgStg::empty_like(&stg);
        let [b, x, y, z] =
            [1, 2, 3, 4].map(|i| mg.add_transition(TransitionLabel::new(s, Polarity::Plus, i)));
        for (src, dst) in [(b, x), (x, y), (y, z), (z, x)] {
            mg.insert_arc(src, dst, 0, false);
        }
        assert!(mg.eliminate_redundant_arcs().is_empty());
        mg.bypass(Bypass::Relax(x, y)).expect("no self-loop");
        let arcs: Vec<(usize, usize)> = mg.arcs().map(|(k, _)| k).collect();
        assert_eq!(arcs, [(b, y), (x, z), (y, z), (z, x), (z, y)]);
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
        let ((a, b), attr) = mg.arcs().next().expect("has arcs");
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
        let before = mg.arcs().count();
        mg.remove_transition(n["o+"]);
        assert!(!mg.is_alive(n["o+"]));
        assert!(mg.arcs().count() < before);
        assert!(mg.arcs().all(|((a, b), _)| a != n["o+"] && b != n["o+"]));
    }
}
