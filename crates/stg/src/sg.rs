//! Binary-coded state graphs and the region machinery of thesis Sec. 3.4.
//!
//! A [`StateGraph`] keeps every edge in one flat array, one contiguous
//! run per state, read through [`StateGraph::edges`]; all generators fill
//! it through one builder. Marked-graph STGs have two generators that
//! must agree bit for bit: the marking-keyed [`StateGraph::of_mg`], kept
//! as the reference oracle, and the σ-space explorer
//! [`StateGraph::of_mg_sigma`], which keys states by normalized
//! firing-count rows interned in one flat arena, hashes a successor row
//! in O(1) from its parent's hash, and works in buffers reused per thread,
//! so it allocates only the graph it returns. [`StateGraph::of_stg`]
//! keeps the graph of a full (free-choice) STG's one walk
//! ([`Stg::analyze`](crate::Stg::analyze)).

use std::cell::RefCell;
use std::collections::HashMap;

use crate::mg::{weakly_connected, MgStg};
use crate::signal::{SignalId, TransitionLabel};
use crate::stg::{Stg, StgError};

/// End of a [`RowIndex`] bucket chain.
const NO_ROW: u32 = u32::MAX;

/// Buckets of a fresh [`RowIndex`] (a power of two).
const INITIAL_BUCKETS: usize = 64;

/// Row-arena bytes past which an exploration frees the σ-explorer
/// scratch instead of keeping it for the thread's next call; every other
/// buffer grows with the state count too. The largest corpus graph (903
/// states × 16 columns) takes 56 KiB of rows and about 200 KiB of
/// scratch in all, so only outliers give their buffers back.
const SCRATCH_RETAIN_ROW_BYTES: usize = 256 * 1024;

/// One step of the Fx-style multiply-rotate word hash behind
/// [`MgStg::sg_fingerprint`] and the row index's buckets. The product
/// mixes every input bit upward, into the top bits of the result.
pub(crate) fn mix_word(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The default weight of row column `k` (a SplitMix64 output). A row's
/// hash is `Σ w[k] · row[k]`: linear, so one firing changes it by one
/// weight, and with pairwise unrelated 64-bit weights distinct rows
/// collide only by chance.
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

/// The σ explorer's working buffers. Each thread keeps one between
/// calls, reset at the start of every exploration, so a warmed-up thread
/// explores without allocating anything but the graph it returns.
struct SigmaScratch {
    /// Alive transition ids, ascending: row column `k` is `alive[k]`.
    alive: Vec<usize>,
    /// Label of every column.
    column_labels: Vec<TransitionLabel>,
    /// Row column of each alive transition id.
    column: Vec<usize>,
    /// The arcs as `(source column, target column, tokens)`.
    arcs: Vec<(usize, usize, i64)>,
    /// Union-find parents of the weak-connectivity check, per column.
    parent: Vec<usize>,
    /// Incoming arcs of every column as CSR: `preds[start[k]..start[k +
    /// 1]]` lists `(source column, tokens)`.
    start: Vec<usize>,
    preds: Vec<(usize, i64)>,
    /// Row-hash weight of every column.
    weights: Vec<u64>,
    index: RowIndex,
    /// Zero entries of every interned row.
    zeros: Vec<usize>,
    /// The row being expanded, and its successor under construction.
    cur: Vec<i32>,
    next: Vec<i32>,
    frontier: Vec<usize>,
    graph: SgBuilder,
}

thread_local! {
    static SIGMA_SCRATCH: RefCell<SigmaScratch> = const { RefCell::new(SigmaScratch::new()) };
}

impl SigmaScratch {
    const fn new() -> Self {
        Self {
            alive: Vec::new(),
            column_labels: Vec::new(),
            column: Vec::new(),
            arcs: Vec::new(),
            parent: Vec::new(),
            start: Vec::new(),
            preds: Vec::new(),
            weights: Vec::new(),
            index: RowIndex::new(),
            zeros: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
            frontier: Vec::new(),
            graph: SgBuilder::new(),
        }
    }

    /// [`StateGraph::explore_sigma`] in these buffers.
    fn explore(
        &mut self,
        mg: &MgStg,
        budget: usize,
        weight: fn(usize) -> u64,
    ) -> Result<StateGraph, StgError> {
        let Self {
            alive,
            column_labels,
            column,
            arcs,
            parent,
            start,
            preds,
            weights,
            index,
            zeros,
            cur,
            next,
            frontier,
            graph,
        } = self;
        alive.clear();
        column_labels.clear();
        for (t, label) in mg.alive_labels() {
            alive.push(t);
            column_labels.push(label);
        }
        let width = alive.len();
        let ids = alive.last().map_or(0, |&t| t + 1);
        column.clear();
        column.resize(ids, 0);
        for (k, &t) in alive.iter().enumerate() {
            column[t] = k;
        }
        arcs.clear();
        arcs.extend(
            mg.arcs()
                .map(|((a, b), attr)| (column[a], column[b], i64::from(attr.tokens))),
        );
        if !weakly_connected(
            parent,
            width,
            arcs.iter().map(|&(a, b, _)| (a, b)),
            0..width,
        ) {
            return StateGraph::of_mg(mg, budget);
        }
        start.clear();
        start.resize(width + 1, 0);
        for &(_, b, _) in arcs.iter() {
            start[b + 1] += 1;
        }
        for k in 0..width {
            start[k + 1] += start[k];
        }
        preds.clear();
        preds.resize(start[width], (0, 0));
        // Fill with `start[k]` as column k's cursor, which leaves it at
        // column k's end; shifting the array back restores the starts.
        for &(a, b, tokens) in arcs.iter() {
            preds[start[b]] = (a, tokens);
            start[b] += 1;
        }
        start.copy_within(0..width, 1);
        start[0] = 0;
        weights.clear();
        weights.extend((0..width).map(weight));
        let weight_sum = weights.iter().fold(0u64, |s, &w| s.wrapping_add(w));
        let inconsistent = |label: TransitionLabel| StgError::Inconsistent {
            signal: mg.signal_name(label.signal).to_string(),
        };

        index.clear(width);
        zeros.clear();
        graph.clear();
        frontier.clear();
        cur.clear();
        cur.resize(width, 0);
        next.clear();
        next.resize(width, 0);
        // State 0 is the all-zero row, whose hash is 0.
        index.insert(cur, 0);
        zeros.push(width);
        graph.add_state(mg.initial_code());
        frontier.push(0);

        while let Some(i) = frontier.pop() {
            cur.copy_from_slice(index.row(i));
            let (h, row_zeros, code) = (index.hash(i), zeros[i], graph.code(i));
            graph.expand(i);
            for k in 0..width {
                let here = i64::from(cur[k]);
                if !preds[start[k]..start[k + 1]]
                    .iter()
                    .all(|&(a, tokens)| tokens + i64::from(cur[a]) - here > 0)
                {
                    continue;
                }
                let label = column_labels[k];
                let bit = 1u64 << label.signal.0;
                if (code & bit != 0) == label.polarity.target_value() {
                    return Err(inconsistent(label));
                }
                let next_code = code ^ bit;
                // The successor row: one more firing of column k. It
                // renormalizes (every entry drops by one) exactly when k
                // held the row's only 0, and its hash follows suit.
                let renormalize = cur[k] == 0 && row_zeros == 1;
                next.copy_from_slice(cur);
                next[k] += 1;
                let mut next_hash = h.wrapping_add(weights[k]);
                if renormalize {
                    next.iter_mut().for_each(|v| *v -= 1);
                    next_hash = next_hash.wrapping_sub(weight_sum);
                }
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
                        zeros.push(next.iter().filter(|&&v| v == 0).count());
                        graph.add_state(next_code);
                        frontier.push(j);
                        j
                    }
                };
                graph.edge(i, alive[k], j);
            }
        }
        let mut labels = vec![None; ids];
        for (&t, &label) in alive.iter().zip(column_labels.iter()) {
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

    /// Generates the state graph of a *weakly connected* marked-graph STG
    /// in σ-space: a state is keyed by its normalized firing-count row
    /// instead of its marking. In a weakly connected marked graph a
    /// reachable marking determines the firing counts up to a constant
    /// shift, so the row with its minimum subtracted is a faithful key,
    /// and enabledness reduces to the per-arc test
    /// `tokens + σ(src) − σ(dst) > 0`.
    ///
    /// Rows hold one `i32` per alive transition and live in one flat
    /// arena behind a chained hash index; predecessor arcs are CSR lists.
    /// A row's hash is linear in its entries, so a successor's hash is its
    /// parent's plus the fired column's weight, minus the weight sum when
    /// the row renormalizes — which a per-row zero count decides. Every
    /// buffer lives in a per-thread scratch reset at the start of each
    /// call; the graph is copied out of it exactly sized, so a call
    /// allocates only the graph it returns. A call that grows the scratch
    /// past a fixed size frees it afterwards.
    ///
    /// The output contract is exact equivalence with [`StateGraph::of_mg`]:
    /// the same LIFO frontier and ascending transition order visit the
    /// same states under either key, so the returned graph — and every
    /// failure, raised at the same exploration point — is bit-identical.
    /// Inputs that are not weakly connected fall back to
    /// [`StateGraph::of_mg`] transparently.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`StateGraph::of_mg`] under `budget`.
    pub fn of_mg_sigma(mg: &MgStg, budget: usize) -> Result<Self, StgError> {
        Self::explore_sigma(mg, budget, column_weight)
    }

    /// [`StateGraph::of_mg_sigma`] under explicit row-hash column weights,
    /// in this thread's scratch.
    fn explore_sigma(
        mg: &MgStg,
        budget: usize,
        weight: fn(usize) -> u64,
    ) -> Result<Self, StgError> {
        SIGMA_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let result = scratch.explore(mg, budget, weight);
            if scratch.index.row_bytes() > SCRATCH_RETAIN_ROW_BYTES {
                *scratch = SigmaScratch::new();
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
    fn sigma_cold_generation_matches_marking_keyed_generation() {
        let (_, mg) = handshake_mg();
        let (parent, _) = chain_and_relaxed();
        for mg in [&mg, &parent] {
            assert_eq!(
                StateGraph::of_mg_sigma(mg, 1000).expect("consistent"),
                StateGraph::of_mg(mg, 1000).expect("consistent")
            );
            // Budget failures replay at the same point.
            for budget in 1..=6 {
                assert_eq!(
                    StateGraph::of_mg_sigma(mg, budget),
                    StateGraph::of_mg(mg, budget),
                    "budget {budget}"
                );
            }
        }
    }

    // Every relaxation trial regenerates the local graph of an edited MG
    // through the σ explorer; the marking-keyed generator is the reference.

    #[test]
    fn incremental_regeneration_matches_scratch_after_relaxation_edit() {
        let (parent, child) = chain_and_relaxed();
        let parent_sg = StateGraph::of_mg_sigma(&parent, 1000).expect("consistent");
        let regenerated = StateGraph::of_mg_sigma(&child, 1000).expect("consistent");
        assert_eq!(
            regenerated,
            StateGraph::of_mg(&child, 1000).expect("consistent")
        );
        assert!(
            regenerated.state_count() > parent_sg.state_count(),
            "relaxation grows the interleaving space: {} vs {}",
            regenerated.state_count(),
            parent_sg.state_count()
        );
    }

    #[test]
    fn incremental_regeneration_matches_scratch_after_token_move() {
        let (_, mg) = handshake_mg();
        let parent_sg = StateGraph::of_mg_sigma(&mg, 100).expect("consistent");
        let moved = handshake_token_moved();
        let regenerated = StateGraph::of_mg_sigma(&moved, 100).expect("consistent");
        assert_eq!(
            regenerated,
            StateGraph::of_mg(&moved, 100).expect("consistent")
        );
        // The same cycle entered one firing later: as many states, but the
        // initial code has `req` high.
        assert_eq!(regenerated.state_count(), parent_sg.state_count());
        assert_ne!(regenerated.code(0), parent_sg.code(0));
    }

    #[test]
    fn incremental_regeneration_replays_failures_exactly() {
        // Under every budget — including ones neither graph fits in — the
        // regenerated child must reproduce the scratch result, Ok or Err
        // alike.
        let (_, child) = chain_and_relaxed();
        for budget in 1..=10 {
            let scratch = StateGraph::of_mg(&child, budget);
            let sigma = StateGraph::of_mg_sigma(&child, budget);
            assert_eq!(sigma, scratch, "budget {budget}");
        }
        // An inconsistent edit (removing y+'s only ordering toward o+
        // leaves o+ racing) must fail identically on both paths.
        let bad = chain_inconsistent();
        let scratch = StateGraph::of_mg(&bad, 1000);
        assert!(scratch.is_err(), "edit must be inconsistent");
        assert_eq!(StateGraph::of_mg_sigma(&bad, 1000), scratch);
    }

    #[test]
    fn sigma_generation_falls_back_on_disconnected_arcs() {
        // Two independent handshakes side by side: the arc skeleton is not
        // weakly connected, so firing counts are no faithful key and the
        // explorer must hand over to the marking-keyed generator.
        let (stg, _) = handshake_mg();
        let mut mg = MgStg::empty_like(&stg);
        for s in [SignalId(0), SignalId(1)] {
            let up = mg.add_transition(TransitionLabel::new(s, Polarity::Plus, 1));
            let down = mg.add_transition(TransitionLabel::new(s, Polarity::Minus, 1));
            mg.insert_arc(up, down, 0, false);
            mg.insert_arc(down, up, 1, false);
        }
        assert!(!mg.arcs_weakly_connected());
        let sg = StateGraph::of_mg_sigma(&mg, 100).expect("consistent");
        assert_eq!(sg.state_count(), 4);
        assert_eq!(sg, StateGraph::of_mg(&mg, 100).expect("consistent"));
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
    fn sigma_generation_under_one_hash_matches_marking_keyed_generation() {
        // All-zero column weights hash every row to 0, putting every row
        // in one bucket chain: the explorer leans on the element-wise
        // comparison alone — graphs and errors must not move.
        let (_, mg) = handshake_mg();
        let (parent, child) = chain_and_relaxed();
        let moved = handshake_token_moved();
        let bad = chain_inconsistent();
        for mg in [&mg, &parent, &child, &moved, &bad] {
            for budget in [3, 1000] {
                assert_eq!(
                    StateGraph::explore_sigma(mg, budget, |_| 0),
                    StateGraph::of_mg(mg, budget)
                );
            }
        }
    }

    /// `k` output handshakes forked from and joined into one input:
    /// `a+ → (b0+ ∥ … ∥ bk-1+) → a- → (b0- ∥ … ∥ bk-1-) → a+`, whose
    /// concurrency yields `2^(k + 1)` states over `2k + 2` columns.
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
    fn sigma_scratch_is_kept_for_small_graphs_and_released_after_large_ones() {
        // Bytes of the row arena and edges of the edge array: any
        // retained scratch holds both.
        let retained = || {
            SIGMA_SCRATCH.with(|cell| {
                let scratch = cell.borrow();
                (scratch.index.row_bytes(), scratch.graph.edges.capacity())
            })
        };
        let large = fork_join(12);
        let small = fork_join(3);
        let explore = |mg: &MgStg| StateGraph::of_mg_sigma(mg, 100_000).expect("consistent");
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
