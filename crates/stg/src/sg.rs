//! Binary-coded state graphs and the region machinery of thesis Sec. 3.4.
//!
//! A [`StateGraph`] keeps every edge in one flat array, one contiguous
//! run per state, read through [`StateGraph::edges`]; all generators fill
//! it through one builder. Marked-graph STGs have two generators that
//! must agree bit for bit: [`StateGraph::of_mg`], kept as the reference
//! oracle, and the engine's [`StateGraph::of_mg_interned`]. Both key a
//! state by its marking; the engine's explorer interns markings in one
//! flat arena, hashes a successor in O(1) from its parent's hash, and
//! works in buffers reused per thread, so it allocates only the graph it
//! returns. [`StateGraph::of_stg`] keeps the graph of a full
//! (free-choice) STG's one walk ([`Stg::analyze`](crate::Stg::analyze)),
//! which interns its markings the same way.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::mg::MgStg;
use crate::signal::{SignalId, TransitionLabel};
use crate::stg::{Stg, StgError};

/// End of a [`RowIndex`] bucket chain.
const NO_ROW: u32 = u32::MAX;

/// Buckets of a fresh [`RowIndex`] (a power of two).
const INITIAL_BUCKETS: usize = 64;

/// Row-arena bytes past which an exploration frees the explorer's
/// scratch instead of keeping it for the thread's next call; every other
/// buffer grows with the state count too. The largest corpus graph (846
/// states × 30 arcs) takes 99 KiB of rows in an arena grown to 192 KiB,
/// so only outliers give their buffers back.
const SCRATCH_RETAIN_ROW_BYTES: usize = 256 * 1024;

/// One step of the Fx-style multiply-rotate word hash behind
/// [`MgStg::sg_fingerprint`] and the row index's buckets. The product
/// mixes every input bit upward, into the top bits of the result.
pub(crate) fn mix_word(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The default weight of row column `k` (a SplitMix64 output). A row's
/// hash is `Σ w[k] · row[k]` over sign-extended entries: linear, so one
/// firing changes it by a fixed delta (the weights of the columns it adds
/// a token to, minus those it takes one from), and with pairwise
/// unrelated 64-bit weights distinct rows collide only by chance.
pub(crate) fn column_weight(k: usize) -> u64 {
    let z = (k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Interns fixed-width `i32` rows in one flat arena: row `j` occupies
/// `rows[j * width..(j + 1) * width]`. The caller supplies each row's
/// hash. A power-of-two bucket table chains rows by the top bits of the
/// mixed hash, and a lookup compares the candidates element by element,
/// so distinct rows that share a hash stay distinct entries. [`clear`]
/// keeps every buffer's capacity.
///
/// [`clear`]: RowIndex::clear
pub(crate) struct RowIndex {
    width: usize,
    rows: Vec<i32>,
    hashes: Vec<u64>,
    next: Vec<u32>,
    heads: Vec<u32>,
    /// `64 - log2(heads.len())`: a hash's bucket is its mix's top bits.
    shift: u32,
}

impl RowIndex {
    pub(crate) const fn new() -> Self {
        Self {
            width: 0,
            rows: Vec::new(),
            hashes: Vec::new(),
            next: Vec::new(),
            heads: Vec::new(),
            shift: 64 - INITIAL_BUCKETS.trailing_zeros(),
        }
    }

    /// Empties the index for rows of `width` entries.
    pub(crate) fn clear(&mut self, width: usize) {
        self.width = width;
        self.rows.clear();
        self.hashes.clear();
        self.next.clear();
        self.heads.clear();
        self.heads.resize(INITIAL_BUCKETS, NO_ROW);
        self.shift = 64 - INITIAL_BUCKETS.trailing_zeros();
    }

    pub(crate) fn len(&self) -> usize {
        self.next.len()
    }

    pub(crate) fn row(&self, j: usize) -> &[i32] {
        &self.rows[j * self.width..(j + 1) * self.width]
    }

    /// Heap bytes the row arena holds.
    fn row_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<i32>()
    }

    pub(crate) fn hash(&self, j: usize) -> u64 {
        self.hashes[j]
    }

    fn bucket(&self, h: u64) -> usize {
        (mix_word(0, h) >> self.shift) as usize
    }

    /// The entry equal to `row` (whose hash is `h`), if interned.
    pub(crate) fn find(&self, row: &[i32], h: u64) -> Option<usize> {
        let mut j = self.heads[self.bucket(h)];
        while j != NO_ROW {
            let k = j as usize;
            if self.hashes[k] == h && self.row(k) == row {
                return Some(k);
            }
            j = self.next[k];
        }
        None
    }

    /// Interns `row` (hash `h`, not yet present) and returns its entry.
    pub(crate) fn insert(&mut self, row: &[i32], h: u64) -> usize {
        if self.len() == self.heads.len() {
            self.grow();
        }
        let j = self.len();
        let b = self.bucket(h);
        self.rows.extend_from_slice(row);
        self.hashes.push(h);
        self.next.push(self.heads[b]);
        self.heads[b] = u32::try_from(j).expect("row index exceeds u32 entries");
        j
    }

    /// Doubles the bucket table and rechains every entry.
    fn grow(&mut self) {
        let buckets = self.heads.len() * 2;
        self.shift -= 1;
        self.heads.clear();
        self.heads.resize(buckets, NO_ROW);
        for j in 0..self.len() {
            let b = self.bucket(self.hashes[j]);
            self.next[j] = self.heads[b];
            self.heads[b] = j as u32;
        }
    }
}

/// One state of a [`StateGraph`]: a reachable marking labelled with the
/// binary signal vector (bit `i` = value of signal `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgState {
    /// Packed signal values.
    pub code: u64,
}

/// A state graph: reachable markings of an STG with consistent binary codes
/// (thesis Sec. 3.4). State 0 is the initial state. Edge labels are the
/// transition ids of the source [`MgStg`] or [`Stg`].
///
/// Every edge lives in one flat array, each state's edges in one
/// contiguous run ([`StateGraph::edges`]). The runs follow the order in
/// which the generator expanded the states; equality compares states,
/// labels and each state's run, so it does not depend on that order.
#[derive(Debug, Clone)]
pub struct StateGraph {
    /// States; index 0 is the initial state.
    pub(crate) states: Vec<SgState>,
    /// `(transition id, successor state)` pairs, one run per state.
    pub(crate) edges: Vec<(usize, usize)>,
    /// `spans[i]` is the `start..end` of state `i`'s run in `edges`: one
    /// span per state, which is why no field is public.
    pub(crate) spans: Vec<(u32, u32)>,
    pub(crate) labels: Vec<Option<TransitionLabel>>,
}

impl PartialEq for StateGraph {
    fn eq(&self, other: &Self) -> bool {
        self.states == other.states
            && self.labels == other.labels
            && (0..self.states.len()).all(|i| self.edges(i) == other.edges(i))
    }
}

impl Eq for StateGraph {}

/// Fills a [`StateGraph`]: a generator numbers each state as it
/// discovers it ([`SgBuilder::add_state`]), then expands the states one
/// at a time in any order, opening a state's edge run with
/// [`SgBuilder::expand`] and appending to it with [`SgBuilder::edge`].
/// [`SgBuilder::graph`] copies the result out exactly sized, so one
/// builder can serve many graphs.
pub(crate) struct SgBuilder {
    states: Vec<SgState>,
    edges: Vec<(usize, usize)>,
    spans: Vec<(u32, u32)>,
}

impl SgBuilder {
    pub(crate) const fn new() -> Self {
        Self {
            states: Vec::new(),
            edges: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.states.clear();
        self.edges.clear();
        self.spans.clear();
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    pub(crate) fn code(&self, i: usize) -> u64 {
        self.states[i].code
    }

    /// Numbers a newly discovered state.
    pub(crate) fn add_state(&mut self, code: u64) -> usize {
        self.states.push(SgState { code });
        self.spans.push((0, 0));
        self.states.len() - 1
    }

    /// Opens state `i`'s edge run at the end of the edge array.
    pub(crate) fn expand(&mut self, i: usize) {
        let at = u32::try_from(self.edges.len()).expect("state graph exceeds u32 edges");
        self.spans[i] = (at, at);
    }

    /// Appends edge `(t, j)` to the run of `i`, the state last expanded.
    pub(crate) fn edge(&mut self, i: usize, t: usize, j: usize) {
        self.edges.push((t, j));
        self.spans[i].1 += 1;
    }

    fn graph(&self, labels: Vec<Option<TransitionLabel>>) -> StateGraph {
        StateGraph {
            states: self.states.clone(),
            edges: self.edges.clone(),
            spans: self.spans.clone(),
            labels,
        }
    }

    /// The graph, moving this builder's buffers into it.
    pub(crate) fn into_graph(self, labels: Vec<Option<TransitionLabel>>) -> StateGraph {
        StateGraph {
            states: self.states,
            edges: self.edges,
            spans: self.spans,
            labels,
        }
    }
}

/// The marked-graph explorer's working buffers. Each thread keeps one
/// between calls, reset at the start of every exploration, so a
/// warmed-up thread explores without allocating anything but the graph
/// it returns.
struct ExploreScratch {
    /// Alive transitions with their labels, ascending.
    alive: Vec<(usize, TransitionLabel)>,
    /// The arcs out of transition `t` are marking entries `out[t]..out[t +
    /// 1]`: its run of the sorted arc array.
    out: Vec<usize>,
    /// The arcs into every transition as CSR: `into[start[t]..start[t +
    /// 1]]` lists their marking entries.
    start: Vec<usize>,
    into: Vec<usize>,
    /// Per transition, the change of the marking hash when it fires.
    deltas: Vec<u64>,
    index: RowIndex,
    /// The marking being expanded, and its successor under construction.
    cur: Vec<i32>,
    next: Vec<i32>,
    frontier: Vec<usize>,
    graph: SgBuilder,
}

thread_local! {
    static EXPLORE_SCRATCH: RefCell<ExploreScratch> =
        const { RefCell::new(ExploreScratch::new()) };
}

impl ExploreScratch {
    const fn new() -> Self {
        Self {
            alive: Vec::new(),
            out: Vec::new(),
            start: Vec::new(),
            into: Vec::new(),
            deltas: Vec::new(),
            index: RowIndex::new(),
            cur: Vec::new(),
            next: Vec::new(),
            frontier: Vec::new(),
            graph: SgBuilder::new(),
        }
    }

    /// [`StateGraph::explore_interned`] in these buffers.
    fn explore(
        &mut self,
        mg: &MgStg,
        budget: usize,
        weight: fn(usize) -> u64,
    ) -> Result<StateGraph, StgError> {
        let Self {
            alive,
            out,
            start,
            into,
            deltas,
            index,
            cur,
            next,
            frontier,
            graph,
        } = self;
        alive.clear();
        alive.extend(mg.alive_labels());
        let ids = alive.last().map_or(0, |&(t, _)| t + 1);
        // Marking entry `e` is arc `e` of the sorted array, so counting
        // arcs per source and per target gives both offset arrays. The
        // marking hash is linear in the entries, sign-extended, so firing
        // `t` changes it by `deltas[t]`: the weights of its out-arcs minus
        // those of its in-arcs.
        out.clear();
        out.resize(ids + 1, 0);
        start.clear();
        start.resize(ids + 1, 0);
        deltas.clear();
        deltas.resize(ids, 0);
        cur.clear();
        let mut h0 = 0u64;
        for (e, ((a, b), attr)) in mg.arcs().enumerate() {
            out[a + 1] += 1;
            start[b + 1] += 1;
            let w = weight(e);
            deltas[a] = deltas[a].wrapping_add(w);
            deltas[b] = deltas[b].wrapping_sub(w);
            // The `u32` token count's bits: the game fires with wrapping
            // arithmetic and tests entries against zero only.
            let tokens = attr.tokens as i32;
            h0 = h0.wrapping_add(w.wrapping_mul(tokens as i64 as u64));
            cur.push(tokens);
        }
        for t in 0..ids {
            out[t + 1] += out[t];
            start[t + 1] += start[t];
        }
        let width = cur.len();
        into.clear();
        into.resize(width, 0);
        // Fill with `start[t]` as t's cursor, which leaves it at t's end;
        // shifting the array back restores the starts.
        for (e, ((_, b), _)) in mg.arcs().enumerate() {
            into[start[b]] = e;
            start[b] += 1;
        }
        start.copy_within(0..ids, 1);
        start[0] = 0;
        let inconsistent = |label: TransitionLabel| StgError::Inconsistent {
            signal: mg.signal_name(label.signal).to_string(),
        };

        index.clear(width);
        graph.clear();
        frontier.clear();
        next.clone_from(cur);
        index.insert(cur, h0);
        graph.add_state(mg.initial_code());
        frontier.push(0);

        while let Some(i) = frontier.pop() {
            cur.copy_from_slice(index.row(i));
            let (h, code) = (index.hash(i), graph.code(i));
            graph.expand(i);
            for &(t, label) in alive.iter() {
                let pre = &into[start[t]..start[t + 1]];
                if !pre.iter().all(|&e| cur[e] != 0) {
                    continue;
                }
                let bit = 1u64 << label.signal.0;
                if (code & bit != 0) == label.polarity.target_value() {
                    return Err(inconsistent(label));
                }
                let next_code = code ^ bit;
                next.copy_from_slice(cur);
                for &e in pre {
                    next[e] = next[e].wrapping_sub(1);
                }
                for k in &mut next[out[t]..out[t + 1]] {
                    *k = k.wrapping_add(1);
                }
                let next_hash = h.wrapping_add(deltas[t]);
                let j = match index.find(next, next_hash) {
                    Some(j) => {
                        if graph.code(j) != next_code {
                            return Err(inconsistent(label));
                        }
                        j
                    }
                    None => {
                        if graph.len() >= budget {
                            return Err(StgError::Petri(
                                si_petri::PetriError::StateBudgetExceeded { budget },
                            ));
                        }
                        let j = index.insert(next, next_hash);
                        graph.add_state(next_code);
                        frontier.push(j);
                        j
                    }
                };
                graph.edge(i, t, j);
            }
        }
        let mut labels = vec![None; ids];
        for &(t, label) in alive.iter() {
            labels[t] = Some(label);
        }
        Ok(graph.graph(labels))
    }
}

impl StateGraph {
    /// Generates the state graph of a marked-graph STG (the `Write_sg` step
    /// of Algorithm 4), checking consistency along the way: the token game
    /// of [`MgStg::fire_in`] from [`MgStg::initial_marking`], one state per
    /// reachable marking, indexed by the marking itself.
    ///
    /// # Errors
    ///
    /// [`StgError::Inconsistent`] if rising/falling transitions do not
    /// alternate, [`StgError::Petri`] via budget exhaustion.
    pub fn of_mg(mg: &MgStg, budget: usize) -> Result<Self, StgError> {
        let alive = mg.transitions();
        let mut labels = vec![None; alive.last().map_or(0, |&t| t + 1)];
        for &t in &alive {
            labels[t] = Some(mg.label(t));
        }

        let m0 = mg.initial_marking();
        let mut graph = SgBuilder::new();
        graph.add_state(mg.initial_code());
        let mut index: HashMap<Vec<u32>, usize> = HashMap::from([(m0.clone(), 0)]);
        let mut frontier = vec![(0usize, m0)];

        while let Some((i, m)) = frontier.pop() {
            let code = graph.code(i);
            graph.expand(i);
            for &t in &alive {
                if !mg.enabled_in(t, &m) {
                    continue;
                }
                let label = mg.label(t);
                let bit = 1u64 << label.signal.0;
                let before = code & bit != 0;
                if before == label.polarity.target_value() {
                    return Err(StgError::Inconsistent {
                        signal: mg.signal_name(label.signal).to_string(),
                    });
                }
                let next_code = code ^ bit;
                let next_m = mg.fire_in(t, &m);
                let j = match index.get(&next_m) {
                    Some(&j) => {
                        if graph.code(j) != next_code {
                            return Err(StgError::Inconsistent {
                                signal: mg.signal_name(label.signal).to_string(),
                            });
                        }
                        j
                    }
                    None => {
                        if graph.len() >= budget {
                            return Err(StgError::Petri(
                                si_petri::PetriError::StateBudgetExceeded { budget },
                            ));
                        }
                        let j = graph.add_state(next_code);
                        index.insert(next_m.clone(), j);
                        frontier.push((j, next_m));
                        j
                    }
                };
                graph.edge(i, t, j);
            }
        }
        Ok(graph.into_graph(labels))
    }

    /// Generates the state graph of a marked-graph STG exactly as
    /// [`StateGraph::of_mg`] does, in buffers reused per thread: the
    /// engine's explorer. A state is keyed by its marking, one `i32` per
    /// arc of [`MgStg::arcs`] holding the arc's `u32` token count bit for
    /// bit, interned in one flat arena behind a chained hash index, as
    /// [`Stg::analyze`] keys its states. The marking hash is linear in the
    /// entries, so a successor's hash is its parent's plus the fired
    /// transition's delta, computed once per call. The arcs into each
    /// transition are one CSR list, and the arcs out of it are its run of
    /// the sorted arc array. Every buffer lives in a per-thread scratch
    /// reset at the start of each call; the graph is copied out of it
    /// exactly sized, so a call allocates only the graph it returns. A
    /// call that grows the scratch past a fixed size frees it afterwards.
    ///
    /// The output contract is exact equivalence with [`StateGraph::of_mg`]:
    /// the same LIFO frontier and ascending transition order visit the
    /// same states, so the returned graph — and every failure, raised at
    /// the same exploration point — is bit-identical.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`StateGraph::of_mg`] under `budget`.
    pub fn of_mg_interned(mg: &MgStg, budget: usize) -> Result<Self, StgError> {
        Self::explore_interned(mg, budget, column_weight)
    }

    /// [`StateGraph::of_mg_interned`] under explicit hash weights per
    /// marking entry, in this thread's scratch.
    fn explore_interned(
        mg: &MgStg,
        budget: usize,
        weight: fn(usize) -> u64,
    ) -> Result<Self, StgError> {
        EXPLORE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let result = scratch.explore(mg, budget, weight);
            if scratch.index.row_bytes() > SCRATCH_RETAIN_ROW_BYTES {
                *scratch = ExploreScratch::new();
            }
            result
        })
    }

    /// Generates the state graph of a full (possibly free-choice) STG:
    /// [`Stg::analyze`]'s one walk, keeping only the graph.
    ///
    /// # Errors
    ///
    /// Budget exhaustion, then [`StgAnalysis::state_graph`]'s errors.
    ///
    /// [`StgAnalysis::state_graph`]: crate::StgAnalysis::state_graph
    pub fn of_stg(stg: &Stg, budget: usize) -> Result<Self, StgError> {
        stg.analyze(budget)?.into_state_graph()
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The edges leaving state `i`: `(transition id, successor state)`
    /// pairs in the order the generator found them (ascending transition
    /// id for marked graphs).
    pub fn edges(&self, i: usize) -> &[(usize, usize)] {
        let (start, end) = self.spans[i];
        &self.edges[start as usize..end as usize]
    }

    /// Label of transition id `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` was not alive when the graph was generated.
    pub fn label(&self, t: usize) -> TransitionLabel {
        self.labels[t].expect("transition was alive at SG generation")
    }

    /// The binary code of state `i`.
    pub fn code(&self, i: usize) -> u64 {
        self.states[i].code
    }

    /// Value of `signal` in state `i`.
    pub fn value(&self, i: usize, signal: SignalId) -> bool {
        self.states[i].code & (1u64 << signal.0) != 0
    }

    /// Whether `signal` is excited in state `i` (some transition of the
    /// signal is enabled).
    pub fn is_excited(&self, i: usize, signal: SignalId) -> bool {
        self.edges(i)
            .iter()
            .any(|&(t, _)| self.label(t).signal == signal)
    }

    /// The successor of state `i` by transition `t`, if enabled there.
    pub fn successor_by(&self, i: usize, t: usize) -> Option<usize> {
        self.edges(i)
            .iter()
            .find(|&&(u, _)| u == t)
            .map(|&(_, j)| j)
    }

    /// The next transition of `signal` to fire from state `i`: the unique
    /// transition of the signal first reachable along any path. Returns
    /// `None` if the signal never fires from `i`.
    ///
    /// # Errors
    ///
    /// [`StgError::Inconsistent`] if different paths reach different
    /// occurrences first (impossible in a consistent STG).
    pub fn next_transition_of(
        &self,
        i: usize,
        signal: SignalId,
        signal_name: &str,
    ) -> Result<Option<usize>, StgError> {
        let mut seen = vec![false; self.states.len()];
        let mut stack = vec![i];
        seen[i] = true;
        let mut found: Option<usize> = None;
        while let Some(s) = stack.pop() {
            for &(t, j) in self.edges(s) {
                if self.label(t).signal == signal {
                    match found {
                        None => found = Some(t),
                        Some(prev) if prev != t => {
                            return Err(StgError::Inconsistent {
                                signal: signal_name.to_string(),
                            })
                        }
                        _ => {}
                    }
                } else if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_astg;
    use crate::signal::{Polarity, SignalKind};

    fn handshake_mg() -> (Stg, MgStg) {
        let text = "\
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
";
        let stg = parse_astg(text).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        (stg, mg)
    }

    #[test]
    fn handshake_sg_has_four_states() {
        let (_, mg) = handshake_mg();
        let sg = StateGraph::of_mg(&mg, 100).expect("consistent");
        assert_eq!(sg.state_count(), 4);
        // Initial state 00.
        assert_eq!(sg.code(0), 0);
    }

    #[test]
    fn regions_partition_states() {
        let (stg, mg) = handshake_mg();
        let sg = StateGraph::of_mg(&mg, 100).expect("consistent");
        // Every state lies in one region of each signal: ER(s+) (excited
        // at 0), QR(s-) (stable at 0), ER(s-) (excited at 1) or QR(s+)
        // (stable at 1). In a handshake each region holds one state.
        for name in ["req", "ack"] {
            let s = stg.signal_by_name(name).expect("declared");
            let mut regions = [0; 4];
            for i in 0..sg.state_count() {
                regions[2 * usize::from(sg.value(i, s)) + usize::from(sg.is_excited(i, s))] += 1;
            }
            assert_eq!(regions, [1, 1, 1, 1], "{name}");
        }
    }

    #[test]
    fn inconsistent_mg_is_rejected() {
        // x+ followed by x+ again: inconsistent.
        let mut stg = Stg::new("bad");
        let x = stg.add_signal("x", SignalKind::Input);
        let mut mg = MgStg::empty_like(&stg);
        let a = mg.add_transition(TransitionLabel::new(x, Polarity::Plus, 1));
        let b = mg.add_transition(TransitionLabel::new(x, Polarity::Plus, 2));
        mg.insert_arc(a, b, 0, false);
        mg.insert_arc(b, a, 1, false);
        assert!(matches!(
            StateGraph::of_mg(&mg, 100),
            Err(StgError::Inconsistent { .. })
        ));
    }

    #[test]
    fn full_stg_sg_handles_choice() {
        let text = "\
.model choice
.inputs a b
.outputs c
.graph
p0 a+ b+
a+ c+
b+ c+
c+ p1
p1 a- b-
a- c-
b- c-
c- p0
.marking { p0 }
.end
";
        // A free-choice STG where either a or b handshakes with c. Note the
        // second choice must match the first for consistency, so this STG is
        // only consistent if a+ pairs with a- — here both orders exist, so
        // consistency fails. Use it to check error reporting:
        let stg = parse_astg(text).expect("parses");
        assert!(StateGraph::of_stg(&stg, 1000).is_err());
    }

    #[test]
    fn full_stg_sg_of_imec_benchmark() {
        let stg = parse_astg(crate::parse::IMEC_RAM_READ_SBUF_G).expect("valid");
        let sg = StateGraph::of_stg(&stg, 100_000).expect("consistent");
        assert_eq!(sg.state_count(), 112); // thesis Table 7.2
    }

    /// The chain `x+ → y+ → o+ → x- → y- → o- → x+` of the relaxation
    /// tests, plus its relaxed successor (the arcs `relax_arc` produces
    /// for `x+ ⇒ y+`: the direct arc removed, bypasses `o- ⇒ y+` and
    /// `x+ ⇒ o+` inserted).
    fn chain_and_relaxed() -> (MgStg, MgStg) {
        let text = "\
.model chain
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- y-
y- o-
o- x+
.marking { <o-,x+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let parent = MgStg::from_stg_mg(&stg).expect("marked graph");
        let xp = parent.transition_by_label("x+").expect("present");
        let yp = parent.transition_by_label("y+").expect("present");
        let op = parent.transition_by_label("o+").expect("present");
        let om = parent.transition_by_label("o-").expect("present");
        let mut child = parent.clone();
        child.remove_arc(xp, yp);
        child.insert_arc(om, yp, 1, false);
        child.insert_arc(xp, op, 0, false);
        (parent, child)
    }

    /// The handshake advanced by one firing of `req+`: the token moves
    /// from `<ack-, req+>` to `<req+, ack+>` and the initial code flips
    /// `req`.
    fn handshake_token_moved() -> MgStg {
        let (_, mg) = handshake_mg();
        let reqp = mg.transition_by_label("req+").expect("present");
        let ackp = mg.transition_by_label("ack+").expect("present");
        let ackm = mg.transition_by_label("ack-").expect("present");
        let mut moved = mg.clone();
        moved.remove_arc(reqp, ackp);
        moved.insert_arc(reqp, ackp, 1, false);
        moved.remove_arc(ackm, reqp);
        moved.insert_arc(ackm, reqp, 0, false);
        moved.set_initial_code(1);
        moved
    }

    /// The relaxed chain with `y+ ⇒ o+` replaced by `o- ⇒ o+`: `o+` races
    /// ahead of `y+`, an inconsistent edit.
    fn chain_inconsistent() -> MgStg {
        let (parent, _) = chain_and_relaxed();
        let mut bad = parent.clone();
        let yp = bad.transition_by_label("y+").expect("present");
        let op = bad.transition_by_label("o+").expect("present");
        let om = bad.transition_by_label("o-").expect("present");
        bad.remove_arc(yp, op);
        bad.insert_arc(om, op, 1, false);
        bad
    }

    #[test]
    fn interned_exploration_matches_the_reference() {
        let (_, mg) = handshake_mg();
        let (parent, _) = chain_and_relaxed();
        for mg in [&mg, &parent] {
            assert_eq!(
                StateGraph::of_mg_interned(mg, 1000).expect("consistent"),
                StateGraph::of_mg(mg, 1000).expect("consistent")
            );
            // Budget failures replay at the same point.
            for budget in 1..=6 {
                assert_eq!(
                    StateGraph::of_mg_interned(mg, budget),
                    StateGraph::of_mg(mg, budget),
                    "budget {budget}"
                );
            }
        }
    }

    // Every relaxation trial explores the local graph of an edited MG
    // through the interning explorer; `of_mg` is the reference.

    #[test]
    fn exploration_after_a_relaxation_edit_matches_the_reference() {
        let (parent, child) = chain_and_relaxed();
        let parent_sg = StateGraph::of_mg_interned(&parent, 1000).expect("consistent");
        let explored = StateGraph::of_mg_interned(&child, 1000).expect("consistent");
        assert_eq!(
            explored,
            StateGraph::of_mg(&child, 1000).expect("consistent")
        );
        assert!(
            explored.state_count() > parent_sg.state_count(),
            "relaxation grows the interleaving space: {} vs {}",
            explored.state_count(),
            parent_sg.state_count()
        );
    }

    #[test]
    fn exploration_after_a_token_move_matches_the_reference() {
        let (_, mg) = handshake_mg();
        let parent_sg = StateGraph::of_mg_interned(&mg, 100).expect("consistent");
        let moved = handshake_token_moved();
        let explored = StateGraph::of_mg_interned(&moved, 100).expect("consistent");
        assert_eq!(
            explored,
            StateGraph::of_mg(&moved, 100).expect("consistent")
        );
        // The same cycle entered one firing later: as many states, but the
        // initial code has `req` high.
        assert_eq!(explored.state_count(), parent_sg.state_count());
        assert_ne!(explored.code(0), parent_sg.code(0));
    }

    #[test]
    fn exploration_replays_the_reference_failures_exactly() {
        // Under every budget — including ones neither graph fits in — the
        // explorer must reproduce the reference result, Ok or Err alike.
        let (_, child) = chain_and_relaxed();
        for budget in 1..=10 {
            assert_eq!(
                StateGraph::of_mg_interned(&child, budget),
                StateGraph::of_mg(&child, budget),
                "budget {budget}"
            );
        }
        // An inconsistent edit (removing y+'s only ordering toward o+
        // leaves o+ racing) must fail identically on both paths.
        let bad = chain_inconsistent();
        let reference = StateGraph::of_mg(&bad, 1000);
        assert!(reference.is_err(), "edit must be inconsistent");
        assert_eq!(StateGraph::of_mg_interned(&bad, 1000), reference);
    }

    #[test]
    fn disconnected_arcs_explore_like_the_reference() {
        // Two independent handshakes side by side: the arc skeleton is not
        // weakly connected, and the product of the two cycles is explored.
        let (stg, _) = handshake_mg();
        let mut mg = MgStg::empty_like(&stg);
        for s in [SignalId(0), SignalId(1)] {
            let up = mg.add_transition(TransitionLabel::new(s, Polarity::Plus, 1));
            let down = mg.add_transition(TransitionLabel::new(s, Polarity::Minus, 1));
            mg.insert_arc(up, down, 0, false);
            mg.insert_arc(down, up, 1, false);
        }
        let sg = StateGraph::of_mg_interned(&mg, 100).expect("consistent");
        assert_eq!(sg.state_count(), 4);
        assert_eq!(sg, StateGraph::of_mg(&mg, 100).expect("consistent"));
    }

    #[test]
    fn an_arc_holding_two_to_the_31_tokens_enables_its_transition() {
        // A marking entry holds the arc's `u32` count bit for bit: 1 << 31
        // is `i32::MIN`, non-zero, so it enables `req+`, and the firings
        // wrap it to `i32::MAX` and back.
        let (_, mut mg) = handshake_mg();
        let reqm = mg.transition_by_label("req-").expect("present");
        let reqp = mg.transition_by_label("req+").expect("present");
        mg.insert_arc(reqm, reqp, 1 << 31, false);
        let reference = StateGraph::of_mg(&mg, 100).expect("consistent");
        assert_eq!(reference.state_count(), 4);
        assert_eq!(
            StateGraph::of_mg_interned(&mg, 100).expect("consistent"),
            reference
        );
    }

    /// The linear row hash under column weights `weight`.
    fn linear_hash(row: &[i32], weight: fn(usize) -> u64) -> u64 {
        row.iter().enumerate().fold(0u64, |h, (k, &v)| {
            h.wrapping_add(weight(k).wrapping_mul(v as u64))
        })
    }

    #[test]
    fn row_index_keeps_colliding_rows_distinct() {
        // Under all-zero weights every row hashes alike: distinct rows
        // must still intern as distinct entries, past several
        // bucket-table doublings, and a cleared index starts over.
        let rows: Vec<[i32; 3]> = (0..300).map(|n| [n % 7, n / 7, 3 - n % 4]).collect();
        let mut index = RowIndex::new();
        for weight in [(|_| 0) as fn(usize) -> u64, column_weight] {
            index.clear(3);
            for (n, row) in rows.iter().enumerate() {
                let h = linear_hash(row, weight);
                assert_eq!(index.find(row, h), None, "row {n} is new");
                assert_eq!(index.insert(row, h), n);
            }
            assert_eq!(index.len(), rows.len());
            for (n, row) in rows.iter().enumerate() {
                assert_eq!(index.find(row, linear_hash(row, weight)), Some(n));
                assert_eq!(index.row(n), row);
            }
            let absent = [9, 9, 9];
            assert_eq!(index.find(&absent, linear_hash(&absent, weight)), None);
        }
    }

    #[test]
    fn exploration_under_one_hash_matches_the_reference() {
        // All-zero weights hash every marking to 0, putting every row in
        // one bucket chain: the explorer leans on the element-wise
        // comparison alone — graphs and errors must not move.
        let (_, mg) = handshake_mg();
        let (parent, child) = chain_and_relaxed();
        let moved = handshake_token_moved();
        let bad = chain_inconsistent();
        for mg in [&mg, &parent, &child, &moved, &bad] {
            for budget in [3, 1000] {
                assert_eq!(
                    StateGraph::explore_interned(mg, budget, |_| 0),
                    StateGraph::of_mg(mg, budget)
                );
            }
        }
    }

    /// `k` output handshakes forked from and joined into one input:
    /// `a+ → (b0+ ∥ … ∥ bk-1+) → a- → (b0- ∥ … ∥ bk-1-) → a+`, whose
    /// concurrency yields `2^(k + 1)` markings of `4k` arcs.
    fn fork_join(k: usize) -> MgStg {
        let mut stg = Stg::new("fork-join");
        let a = stg.add_signal("a", SignalKind::Input);
        let outputs: Vec<SignalId> = (0..k)
            .map(|i| stg.add_signal(format!("b{i}"), SignalKind::Output))
            .collect();
        let mut mg = MgStg::empty_like(&stg);
        let up = mg.add_transition(TransitionLabel::new(a, Polarity::Plus, 1));
        let down = mg.add_transition(TransitionLabel::new(a, Polarity::Minus, 1));
        for b in outputs {
            let b_up = mg.add_transition(TransitionLabel::new(b, Polarity::Plus, 1));
            let b_down = mg.add_transition(TransitionLabel::new(b, Polarity::Minus, 1));
            mg.insert_arc(up, b_up, 0, false);
            mg.insert_arc(b_up, down, 0, false);
            mg.insert_arc(down, b_down, 0, false);
            mg.insert_arc(b_down, up, 1, false);
        }
        mg
    }

    #[test]
    fn explorer_scratch_is_kept_for_small_graphs_and_released_after_large_ones() {
        // Bytes of the row arena and edges of the edge array: any
        // retained scratch holds both.
        let retained = || {
            EXPLORE_SCRATCH.with(|cell| {
                let scratch = cell.borrow();
                (scratch.index.row_bytes(), scratch.graph.edges.capacity())
            })
        };
        let large = fork_join(12);
        let small = fork_join(3);
        let explore = |mg: &MgStg| StateGraph::of_mg_interned(mg, 100_000).expect("consistent");
        // Start from a released scratch, whatever ran on this thread before.
        assert_eq!(explore(&large).state_count(), 1 << 13);
        assert_eq!(retained(), (0, 0), "a large exploration frees the scratch");
        assert_eq!(
            explore(&small),
            StateGraph::of_mg(&small, 100).expect("consistent")
        );
        let kept = retained();
        assert!(
            kept.0 > 0 && kept.1 > 0 && kept.0 <= SCRATCH_RETAIN_ROW_BYTES,
            "a small exploration keeps its buffers: {kept:?}"
        );
        explore(&large);
        assert_eq!(retained(), (0, 0));
        explore(&small);
        assert_eq!(retained(), kept, "the same graph regrows the same buffers");
    }

    #[test]
    fn next_transition_of_follows_paths() {
        let (stg, mg) = handshake_mg();
        let sg = StateGraph::of_mg(&mg, 100).expect("consistent");
        let ack = stg.signal_by_name("ack").expect("declared");
        let next = sg
            .next_transition_of(0, ack, "ack")
            .expect("consistent")
            .expect("fires");
        assert_eq!(sg.label(next).polarity, Polarity::Plus);
    }

    #[test]
    fn concurrency_diamonds_enumerate_all_interleavings() {
        // a+ → (b+ ∥ c+) → a- → (b- ∥ c-) → a+: two diamonds, 8 states.
        let text = "\
.model diamonds
.inputs a
.outputs b c
.graph
a+ b+ c+
b+ a-
c+ a-
a- b- c-
b- a+
c- a+
.marking { <b-,a+> <c-,a+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let sg = StateGraph::of_mg(&mg, 1000).expect("consistent");
        assert_eq!(sg.state_count(), 8);
        // Codes are unique per marking here and consistent: b and c are
        // concurrent after a+, so both orders exist.
        let b = stg.signal_by_name("b").expect("declared");
        let c = stg.signal_by_name("c").expect("declared");
        // ER(s+): the states where s is excited at 0.
        let rising = |s| {
            (0..sg.state_count())
                .filter(|&i| sg.is_excited(i, s) && !sg.value(i, s))
                .count()
        };
        assert_eq!((rising(b), rising(c)), (2, 2));
    }
}
