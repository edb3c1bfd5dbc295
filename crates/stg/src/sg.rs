//! Binary-coded state graphs and the region machinery of thesis Sec. 3.4.
//!
//! Marked-graph STGs have two generators that must agree bit for bit: the
//! marking-keyed [`StateGraph::of_mg`], kept as the reference oracle, and
//! the σ-space explorer [`StateGraph::of_mg_sigma`], which keys states by
//! normalized firing-count rows interned in one flat arena and allocates
//! nothing per edge. [`StateGraph::of_stg`] explores full (free-choice)
//! STGs.

use std::collections::HashMap;

use crate::mg::MgStg;
use crate::signal::{Polarity, SignalId, TransitionLabel};
use crate::stg::{Stg, StgError};

/// End of a [`RowIndex`] bucket chain.
const NO_ROW: u32 = u32::MAX;

/// Buckets of a fresh [`RowIndex`] (a power of two).
const INITIAL_BUCKETS: usize = 64;

/// One step of the Fx-style multiply-rotate word hash behind the row
/// index and [`MgStg::sg_fingerprint`]. The product mixes every input bit
/// upward, into the top bits of the result.
pub(crate) fn mix_word(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The default row hash: [`mix_word`] over the entries. Bucket selection
/// takes the product's top bits, which mix every entry.
fn row_hash(row: &[i32]) -> u64 {
    row.iter().fold(0, |h, &v| mix_word(h, u64::from(v as u32)))
}

/// Interns fixed-width `i32` rows in one flat arena: row `j` occupies
/// `rows[j * width..(j + 1) * width]`. A power-of-two bucket table chains
/// rows by hash, and a lookup compares the candidates element by element,
/// so distinct rows that share a hash stay distinct entries. Interning a
/// row appends to four vectors and allocates nothing else.
struct RowIndex {
    width: usize,
    rows: Vec<i32>,
    hashes: Vec<u64>,
    next: Vec<u32>,
    heads: Vec<u32>,
    /// `64 - log2(heads.len())`: a hash's bucket is its top bits.
    shift: u32,
    hash: fn(&[i32]) -> u64,
}

impl RowIndex {
    fn new(width: usize, hash: fn(&[i32]) -> u64) -> Self {
        Self {
            width,
            rows: Vec::new(),
            hashes: Vec::new(),
            next: Vec::new(),
            heads: vec![NO_ROW; INITIAL_BUCKETS],
            shift: 64 - INITIAL_BUCKETS.trailing_zeros(),
            hash,
        }
    }

    fn len(&self) -> usize {
        self.next.len()
    }

    fn row(&self, j: usize) -> &[i32] {
        &self.rows[j * self.width..(j + 1) * self.width]
    }

    fn hash_of(&self, row: &[i32]) -> u64 {
        (self.hash)(row)
    }

    fn bucket(&self, h: u64) -> usize {
        (h >> self.shift) as usize
    }

    /// The entry equal to `row` (whose hash is `h`), if interned.
    fn find(&self, row: &[i32], h: u64) -> Option<usize> {
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
    fn insert(&mut self, row: &[i32], h: u64) -> usize {
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateGraph {
    /// States; index 0 is the initial state.
    pub states: Vec<SgState>,
    /// `edges[i]` lists `(transition id, successor state)` pairs.
    pub edges: Vec<Vec<(usize, usize)>>,
    labels: Vec<Option<TransitionLabel>>,
}

impl StateGraph {
    /// Generates the state graph of a marked-graph STG (the `Write_sg` step
    /// of Algorithm 4), checking consistency along the way.
    ///
    /// # Errors
    ///
    /// [`StgError::Inconsistent`] if rising/falling transitions do not
    /// alternate, [`StgError::Petri`] via budget exhaustion.
    pub fn of_mg(mg: &MgStg, budget: usize) -> Result<Self, StgError> {
        let arc_keys: Vec<(usize, usize)> = mg.arcs().map(|(k, _)| k).collect();
        let pack = |m: &std::collections::BTreeMap<(usize, usize), u32>| -> Vec<u32> {
            arc_keys
                .iter()
                .map(|k| m.get(k).copied().unwrap_or(0))
                .collect()
        };
        let alive = mg.transitions();
        let mut labels: Vec<Option<TransitionLabel>> = Vec::new();
        for &t in &alive {
            while labels.len() <= t {
                labels.push(None);
            }
            labels[t] = Some(mg.label(t));
        }

        let m0 = mg.initial_marking();
        let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut markings = vec![m0.clone()];
        let mut states = vec![SgState {
            code: mg.initial_code(),
        }];
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
        index.insert(pack(&m0), 0);
        let mut frontier = vec![0usize];

        while let Some(i) = frontier.pop() {
            let m = markings[i].clone();
            let code = states[i].code;
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
                let key = pack(&next_m);
                let j = match index.get(&key) {
                    Some(&j) => {
                        if states[j].code != next_code {
                            return Err(StgError::Inconsistent {
                                signal: mg.signal_name(label.signal).to_string(),
                            });
                        }
                        j
                    }
                    None => {
                        if markings.len() >= budget {
                            return Err(StgError::Petri(
                                si_petri::PetriError::StateBudgetExceeded { budget },
                            ));
                        }
                        let j = markings.len();
                        markings.push(next_m);
                        states.push(SgState { code: next_code });
                        edges.push(Vec::new());
                        index.insert(key, j);
                        frontier.push(j);
                        j
                    }
                };
                edges[i].push((t, j));
            }
        }
        Ok(Self {
            states,
            edges,
            labels,
        })
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
    /// arena behind a chained hash index; predecessor arcs are CSR lists;
    /// successor rows are built in one reused scratch row. Exploring an
    /// edge allocates nothing.
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
        Self::explore_sigma(mg, budget, row_hash)
    }

    /// [`StateGraph::of_mg_sigma`] under an explicit row hash.
    fn explore_sigma(mg: &MgStg, budget: usize, hash: fn(&[i32]) -> u64) -> Result<Self, StgError> {
        if !mg.arcs_weakly_connected() {
            return Self::of_mg(mg, budget);
        }
        let alive = mg.transitions();
        let width = alive.len();
        let mut labels: Vec<Option<TransitionLabel>> =
            vec![None; alive.last().map_or(0, |&t| t + 1)];
        // Row column of each alive transition id.
        let mut column = vec![0usize; labels.len()];
        for (k, &t) in alive.iter().enumerate() {
            labels[t] = Some(mg.label(t));
            column[t] = k;
        }
        // Incoming arcs of every column as CSR: `preds[start[k]..start[k +
        // 1]]` lists `(source column, tokens)`.
        let mut start = vec![0usize; width + 1];
        for ((_, b), _) in mg.arcs() {
            start[column[b] + 1] += 1;
        }
        for k in 0..width {
            start[k + 1] += start[k];
        }
        let mut fill = start.clone();
        let mut preds = vec![(0usize, 0i64); start[width]];
        for ((a, b), attr) in mg.arcs() {
            let k = column[b];
            preds[fill[k]] = (column[a], i64::from(attr.tokens));
            fill[k] += 1;
        }
        let inconsistent = |label: TransitionLabel| StgError::Inconsistent {
            signal: mg.signal_name(label.signal).to_string(),
        };

        let mut index = RowIndex::new(width, hash);
        let mut states = vec![SgState {
            code: mg.initial_code(),
        }];
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
        let mut cur = vec![0i32; width];
        let mut scratch = vec![0i32; width];
        index.insert(&cur, index.hash_of(&cur));
        let mut frontier = vec![0usize];

        while let Some(i) = frontier.pop() {
            cur.copy_from_slice(index.row(i));
            let code = states[i].code;
            for (k, &t) in alive.iter().enumerate() {
                let here = i64::from(cur[k]);
                if !preds[start[k]..start[k + 1]]
                    .iter()
                    .all(|&(a, tokens)| tokens + i64::from(cur[a]) - here > 0)
                {
                    continue;
                }
                let label = mg.label(t);
                let bit = 1u64 << label.signal.0;
                if (code & bit != 0) == label.polarity.target_value() {
                    return Err(inconsistent(label));
                }
                let next_code = code ^ bit;
                // The successor row: one more firing of `t`, renormalized
                // (the minimum is 1 exactly when `t` held the only 0).
                scratch.copy_from_slice(&cur);
                scratch[k] += 1;
                if !scratch.contains(&0) {
                    scratch.iter_mut().for_each(|v| *v -= 1);
                }
                let h = index.hash_of(&scratch);
                let j = match index.find(&scratch, h) {
                    Some(j) => {
                        if states[j].code != next_code {
                            return Err(inconsistent(label));
                        }
                        j
                    }
                    None => {
                        if states.len() >= budget {
                            return Err(StgError::Petri(
                                si_petri::PetriError::StateBudgetExceeded { budget },
                            ));
                        }
                        let j = index.insert(&scratch, h);
                        states.push(SgState { code: next_code });
                        edges.push(Vec::new());
                        frontier.push(j);
                        j
                    }
                };
                edges[i].push((t, j));
            }
        }
        Ok(Self {
            states,
            edges,
            labels,
        })
    }

    /// Generates the state graph of a full (possibly free-choice) STG.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateGraph::of_mg`], plus errors from
    /// [`Stg::initial_values`].
    pub fn of_stg(stg: &Stg, budget: usize) -> Result<Self, StgError> {
        let values = stg.initial_values()?;
        let mut code0 = 0u64;
        for (i, &v) in values.iter().enumerate() {
            if v {
                code0 |= 1u64 << i;
            }
        }
        let net = stg.net();
        let labels: Vec<Option<TransitionLabel>> =
            net.transitions().map(|t| Some(stg.label(t))).collect();

        let m0 = net.initial_marking();
        let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut markings = vec![m0.clone()];
        let mut states = vec![SgState { code: code0 }];
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
        index.insert(m0, 0);
        let mut frontier = vec![0usize];

        while let Some(i) = frontier.pop() {
            let m = markings[i].clone();
            let code = states[i].code;
            for t in net.enabled_transitions(&m) {
                let label = stg.label(t);
                let bit = 1u64 << label.signal.0;
                if (code & bit != 0) == label.polarity.target_value() {
                    return Err(StgError::Inconsistent {
                        signal: stg.signal_name(label.signal).to_string(),
                    });
                }
                let next_code = code ^ bit;
                let next_m = net.fire(t, &m);
                let j = match index.get(&next_m) {
                    Some(&j) => {
                        if states[j].code != next_code {
                            return Err(StgError::Inconsistent {
                                signal: stg.signal_name(label.signal).to_string(),
                            });
                        }
                        j
                    }
                    None => {
                        if markings.len() >= budget {
                            return Err(StgError::Petri(
                                si_petri::PetriError::StateBudgetExceeded { budget },
                            ));
                        }
                        let j = markings.len();
                        markings.push(next_m.clone());
                        states.push(SgState { code: next_code });
                        edges.push(Vec::new());
                        index.insert(next_m, j);
                        frontier.push(j);
                        j
                    }
                };
                edges[i].push((t.0, j));
            }
        }
        Ok(Self {
            states,
            edges,
            labels,
        })
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
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
        self.edges[i]
            .iter()
            .any(|&(t, _)| self.label(t).signal == signal)
    }

    /// The successor of state `i` by transition `t`, if enabled there.
    pub fn successor_by(&self, i: usize, t: usize) -> Option<usize> {
        self.edges[i]
            .iter()
            .find(|&&(u, _)| u == t)
            .map(|&(_, j)| j)
    }

    /// States where transition `t` is enabled: the excitation region of that
    /// particular occurrence.
    pub fn er_of_transition(&self, t: usize) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| self.edges[i].iter().any(|&(u, _)| u == t))
            .collect()
    }

    /// `ER(signal±)`: states where any occurrence of the edge is enabled.
    pub fn er_states(&self, signal: SignalId, polarity: Polarity) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| {
                self.edges[i].iter().any(|&(t, _)| {
                    let l = self.label(t);
                    l.signal == signal && l.polarity == polarity
                })
            })
            .collect()
    }

    /// `QR(signal+)` (`value = true`) or `QR(signal-)` (`value = false`):
    /// states where the signal is stable at `value`.
    pub fn qr_states(&self, signal: SignalId, value: bool) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| !self.is_excited(i, signal) && self.value(i, signal) == value)
            .collect()
    }

    /// The indexed excitation regions `ERi(signal±)` of thesis Sec. 3.4:
    /// the connected components of the excitation region, each sorted, in
    /// deterministic order.
    pub fn er_regions(&self, signal: SignalId, polarity: Polarity) -> Vec<Vec<usize>> {
        self.connected_components(&self.er_states(signal, polarity))
    }

    /// The indexed quiescent regions `QRi` (`value = true` for `QR(sig+)`).
    pub fn qr_regions(&self, signal: SignalId, value: bool) -> Vec<Vec<usize>> {
        self.connected_components(&self.qr_states(signal, value))
    }

    fn connected_components(&self, members: &[usize]) -> Vec<Vec<usize>> {
        let member_set: std::collections::BTreeSet<usize> = members.iter().copied().collect();
        let mut assigned: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        let mut components: Vec<Vec<usize>> = Vec::new();
        for &start in members {
            if assigned.contains_key(&start) {
                continue;
            }
            let id = components.len();
            let mut component = Vec::new();
            let mut stack = vec![start];
            assigned.insert(start, id);
            while let Some(s) = stack.pop() {
                component.push(s);
                // Undirected adjacency restricted to the member set.
                for &(_, j) in &self.edges[s] {
                    if member_set.contains(&j) && !assigned.contains_key(&j) {
                        assigned.insert(j, id);
                        stack.push(j);
                    }
                }
                for (p, outs) in self.edges.iter().enumerate() {
                    if member_set.contains(&p)
                        && !assigned.contains_key(&p)
                        && outs.iter().any(|&(_, j)| j == s)
                    {
                        assigned.insert(p, id);
                        stack.push(p);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
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
            for &(t, j) in &self.edges[s] {
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
    use crate::signal::SignalKind;

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
        let req = stg.signal_by_name("req").expect("declared");
        let ack = stg.signal_by_name("ack").expect("declared");
        // ER(ack+) = {state after req+}, one state; QR(ack+) similar.
        assert_eq!(sg.er_states(ack, Polarity::Plus).len(), 1);
        assert_eq!(sg.er_states(ack, Polarity::Minus).len(), 1);
        assert_eq!(sg.qr_states(ack, true).len(), 1);
        assert_eq!(sg.qr_states(ack, false).len(), 1);
        // req is an input: every state has req either excited or stable.
        let total = sg.er_states(req, Polarity::Plus).len()
            + sg.er_states(req, Polarity::Minus).len()
            + sg.qr_states(req, true).len()
            + sg.qr_states(req, false).len();
        assert_eq!(total, 4);
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

    #[test]
    fn indexed_regions_are_connected_partitions() {
        // fifo-double style: a signal toggling twice per cycle has two
        // disjoint positive excitation regions. Use a chain where x rises
        // twice: x+ a+ x- x+/2 b+ x-/2 (ring).
        let text = "\
.model twice
.inputs a b
.outputs x
.graph
x+ a+
a+ x-
x- a-
a- x+/2
x+/2 b+
b+ x-/2
x-/2 b-
b- x+
.marking { <b-,x+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let sg = StateGraph::of_mg(&mg, 1000).expect("consistent");
        let x = stg.signal_by_name("x").expect("declared");
        let ers = sg.er_regions(x, Polarity::Plus);
        assert_eq!(ers.len(), 2, "two separate ER(x+) components: {ers:?}");
        let qrs = sg.qr_regions(x, true);
        assert_eq!(qrs.len(), 2, "two separate QR(x+) components: {qrs:?}");
        // Regions partition their aggregate sets.
        let total: usize = ers.iter().map(Vec::len).sum();
        assert_eq!(total, sg.er_states(x, Polarity::Plus).len());
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

    #[test]
    fn row_index_keeps_colliding_rows_distinct() {
        // Every row hashes alike: distinct rows must still intern as
        // distinct entries, past several bucket-table doublings.
        let rows: Vec<[i32; 3]> = (0..300).map(|n| [n % 7, n / 7, 3 - n % 4]).collect();
        for hash in [(|_: &[i32]| 42) as fn(&[i32]) -> u64, row_hash] {
            let mut index = RowIndex::new(3, hash);
            for (n, row) in rows.iter().enumerate() {
                let h = index.hash_of(row);
                assert_eq!(index.find(row, h), None, "row {n} is new");
                assert_eq!(index.insert(row, h), n);
            }
            assert_eq!(index.len(), rows.len());
            for (n, row) in rows.iter().enumerate() {
                assert_eq!(index.find(row, index.hash_of(row)), Some(n));
                assert_eq!(index.row(n), row);
            }
            assert_eq!(index.find(&[9, 9, 9], index.hash_of(&[9, 9, 9])), None);
        }
    }

    #[test]
    fn sigma_generation_under_one_hash_matches_marking_keyed_generation() {
        // With every row in one bucket chain the explorer leans on the
        // element-wise comparison alone — graphs and errors must not move.
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
        assert_eq!(sg.er_states(b, Polarity::Plus).len(), 2);
        assert_eq!(sg.er_states(c, Polarity::Plus).len(), 2);
    }
}
