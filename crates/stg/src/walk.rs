//! The whole-STG analysis: one walk of the reachable markings, and every
//! fact a run reads off it (thesis Sec. 3.2–3.4).
//!
//! [`Stg::analyze`] explores the reachable markings once, in the order of
//! the historical state-graph walk (a LIFO frontier, transitions in
//! ascending id order), and yields
//!
//! - the state graph with its binary codes ([`StgAnalysis::state_graph`]);
//! - the initial signal values, read off the walk itself: codes are kept
//!   relative to the initial marking, and each signal's initial value is
//!   fixed by its first transition ([`StgAnalysis::initial_code`]);
//! - safeness and liveness ([`StgAnalysis::health`]). A net is live exactly
//!   when every bottom strongly connected component of its reachability
//!   graph fires every transition.
//!
//! Markings live in one flat arena behind a hash that is linear in the
//! token counts, so a successor's hash is its parent's plus the fired
//! transition's precomputed delta.
//!
//! Within the budget every verdict equals the one the separate analyses
//! give: [`Stg::initial_values`], then a marking walk that checks codes,
//! plus [`si_petri::PetriNet::is_live`] and [`si_petri::PetriNet::is_safe`].
//! `tests/properties.rs` keeps that composition as the reference.

use std::cell::Cell;

use si_petri::PetriError;

use crate::sg::{column_weight, RowIndex, SgBuilder, StateGraph};
use crate::signal::{Polarity, TransitionLabel};
use crate::stg::{Stg, StgError, StgHealth};

thread_local! {
    static WALKS: Cell<usize> = const { Cell::new(0) };
}

/// How many whole-STG marking walks the calling thread has run: one per
/// [`Stg::analyze`] and one per [`Stg::initial_values`]. Read it before
/// and after a run to count the run's walks.
pub fn whole_stg_walks() -> usize {
    WALKS.with(Cell::get)
}

/// Counts one whole-STG walk on this thread.
pub(crate) fn count_walk() {
    WALKS.with(|walks| walks.set(walks.get() + 1));
}

/// What one walk of an STG's reachable markings yields: the state graph,
/// the initial code, safeness and liveness. Build it with
/// [`Stg::analyze`], once per run, and pass it down.
#[derive(Debug, Clone)]
pub struct StgAnalysis {
    /// The reachability graph, states numbered in discovery order. Its
    /// codes are the signal values when the coding is consistent, and
    /// values relative to the initial state otherwise.
    graph: StateGraph,
    coding: Coding,
    safe: bool,
    free_choice: bool,
    signals: usize,
}

/// What the walk makes of the signal coding.
#[derive(Debug, Clone)]
enum Coding {
    /// Consistent: the graph's codes are the signal values.
    Consistent,
    /// The initial values cannot be read off the walk: the error
    /// [`Stg::initial_values`] reports.
    NoInitialCode(StgError),
    /// The initial values exist, but the coded walk from them fails.
    Inconsistent { initial_code: u64, error: StgError },
}

impl StgAnalysis {
    /// The state graph, when the coding is consistent.
    ///
    /// # Errors
    ///
    /// [`StgError::TooManySignals`], [`StgError::DeadSignal`] or
    /// [`StgError::Inconsistent`]: the first defect, in the order a
    /// search for the initial values and then a coded walk meet them.
    pub fn state_graph(&self) -> Result<&StateGraph, StgError> {
        match &self.coding {
            Coding::Consistent => Ok(&self.graph),
            Coding::NoInitialCode(error) | Coding::Inconsistent { error, .. } => Err(error.clone()),
        }
    }

    /// [`StgAnalysis::state_graph`], by value.
    ///
    /// # Errors
    ///
    /// As [`StgAnalysis::state_graph`].
    pub fn into_state_graph(self) -> Result<StateGraph, StgError> {
        match self.coding {
            Coding::Consistent => Ok(self.graph),
            Coding::NoInitialCode(error) | Coding::Inconsistent { error, .. } => Err(error),
        }
    }

    /// The initial state code (bit `i` = initial value of signal `i`): a
    /// signal whose first transition falls starts at 1.
    ///
    /// # Errors
    ///
    /// [`StgError::TooManySignals`], or the first signal, in id order,
    /// that never fires ([`StgError::DeadSignal`]) or whose first
    /// transitions differ in polarity ([`StgError::Inconsistent`]).
    pub fn initial_code(&self) -> Result<u64, StgError> {
        match &self.coding {
            Coding::Consistent => Ok(self.graph.code(0)),
            Coding::NoInitialCode(error) => Err(error.clone()),
            Coding::Inconsistent { initial_code, .. } => Ok(*initial_code),
        }
    }

    /// Reachable markings.
    pub fn state_count(&self) -> usize {
        self.graph.state_count()
    }

    /// The well-formedness summary of [`Stg::validate`]. Safe: every
    /// place holds at most one token in every reachable marking. Live:
    /// every transition stays fireable from every reachable marking,
    /// that is, every bottom strongly connected component of the
    /// reachability graph fires every transition.
    ///
    /// # Errors
    ///
    /// Every [`StgAnalysis::state_graph`] error except
    /// [`StgError::Inconsistent`], which the summary reports as
    /// `consistent: false`.
    pub fn health(&self) -> Result<StgHealth, StgError> {
        let consistent = match self.state_graph() {
            Ok(_) => true,
            Err(StgError::Inconsistent { .. }) => false,
            Err(e) => return Err(e),
        };
        Ok(StgHealth {
            live: bottom_components_fire_everything(&self.graph),
            safe: self.safe,
            free_choice: self.free_choice,
            consistent,
            states: consistent.then(|| self.graph.state_count()),
            transitions: self.graph.labels.len(),
            signals: self.signals,
        })
    }
}

impl Stg {
    /// Walks the reachable markings once, up to `budget` of them, and
    /// returns everything the run needs from them (see [`StgAnalysis`]).
    ///
    /// # Errors
    ///
    /// [`StgError::Petri`] when more than `budget` markings are reachable.
    /// Every other defect — too many signals, a dead signal, an
    /// inconsistency — is kept in the analysis, so that liveness and
    /// safeness stay readable.
    pub fn analyze(&self, budget: usize) -> Result<StgAnalysis, StgError> {
        count_walk();
        let net = &self.net;
        let n = self.signals.len();
        let coded = n <= 64;
        let labels: Vec<TransitionLabel> = net.transitions().map(|t| self.label(t)).collect();
        // Per transition: its signal's code bit, that bit again if the
        // signal is high before the transition (a falling edge), and the
        // change of the marking hash when it fires.
        let bits: Vec<u64> = labels
            .iter()
            .map(|l| if coded { 1u64 << l.signal.0 } else { 0 })
            .collect();
        let high_before: Vec<u64> = labels
            .iter()
            .zip(&bits)
            .map(|(l, &bit)| {
                if l.polarity == Polarity::Minus {
                    bit
                } else {
                    0
                }
            })
            .collect();
        let deltas: Vec<u64> = net
            .transitions()
            .map(|t| {
                let added = net
                    .transition_post(t)
                    .iter()
                    .fold(0u64, |h, p| h.wrapping_add(column_weight(p.0)));
                net.transition_pre(t)
                    .iter()
                    .fold(added, |h, p| h.wrapping_sub(column_weight(p.0)))
            })
            .collect();

        // Token counts as `i32` with wrapping arithmetic: the same bits as
        // the net's `u32` markings, hashed sign-extended so that one firing
        // changes the hash by its delta.
        let mut row: Vec<i32> = net.initial_marking().iter().map(|&k| k as i32).collect();
        let h0 = row.iter().enumerate().fold(0u64, |h, (p, &k)| {
            h.wrapping_add(column_weight(p).wrapping_mul(k as i64 as u64))
        });
        let mut next = row.clone();
        let mut index = RowIndex::new();
        index.clear(row.len());
        let mut graph = SgBuilder::new();
        let mut safe = row.iter().all(|&k| k as u32 <= 1);
        index.insert(&row, h0);
        graph.add_state(0);
        let mut frontier = vec![0usize];
        // The initial value of every signal whose code bit is in `fixed`,
        // and whether an edge contradicted the codes kept so far.
        let (mut fixed, mut values, mut flagged) = (0u64, 0u64, false);

        while let Some(i) = frontier.pop() {
            row.copy_from_slice(index.row(i));
            let (h, code) = (index.hash(i), graph.code(i));
            graph.expand(i);
            for t in net.transitions() {
                let pre = net.transition_pre(t);
                if !pre.iter().all(|p| row[p.0] != 0) {
                    continue;
                }
                next.copy_from_slice(&row);
                for p in pre {
                    next[p.0] = next[p.0].wrapping_sub(1);
                }
                for p in net.transition_post(t) {
                    next[p.0] = next[p.0].wrapping_add(1);
                }
                let bit = bits[t.0];
                // The initial value this edge implies for its signal.
                let value = high_before[t.0] ^ (code & bit);
                if fixed & bit == 0 {
                    fixed |= bit;
                    values |= value;
                } else if values & bit != value {
                    flagged = true;
                }
                let next_code = code ^ bit;
                let next_hash = h.wrapping_add(deltas[t.0]);
                let j = match index.find(&next, next_hash) {
                    Some(j) => {
                        flagged |= graph.code(j) != next_code;
                        j
                    }
                    None => {
                        if index.len() >= budget {
                            return Err(StgError::Petri(PetriError::StateBudgetExceeded {
                                budget,
                            }));
                        }
                        safe &= next.iter().all(|&k| k as u32 <= 1);
                        let j = index.insert(&next, next_hash);
                        graph.add_state(next_code);
                        frontier.push(j);
                        j
                    }
                };
                graph.edge(i, t.0, j);
            }
        }

        let mut graph = graph.into_graph(labels.into_iter().map(Some).collect());
        let coding = if !coded {
            Coding::NoInitialCode(StgError::TooManySignals { count: n })
        } else if !flagged && fixed == u64::MAX.checked_shr(64 - n as u32).unwrap_or(0) {
            graph.states.iter_mut().for_each(|s| s.code ^= values);
            Coding::Consistent
        } else {
            diagnose(self, &mut graph)
        };
        Ok(StgAnalysis {
            graph,
            coding,
            safe,
            free_choice: net.is_free_choice(),
            signals: n,
        })
    }
}

/// The verdict on a walk whose one-pass checks flagged a defect, found
/// the way the separate analyses find it: the per-signal search for the
/// initial values first, then the coded walk replayed edge by edge in
/// the order it ran. Leaves the graph's codes absolute if no defect
/// turns up.
fn diagnose(stg: &Stg, graph: &mut StateGraph) -> Coding {
    let initial_code = match first_values(stg, graph) {
        Ok(code) => code,
        Err(error) => return Coding::NoInitialCode(error),
    };
    // The source state of every edge: the edge array holds one run per
    // state, in the order the walk expanded them.
    let mut source = vec![0usize; graph.edges.len()];
    for (i, &(start, end)) in graph.spans.iter().enumerate() {
        source[start as usize..end as usize].fill(i);
    }
    let mut codes = vec![0u64; graph.state_count()];
    codes[0] = initial_code;
    let mut discovered = 1;
    for (&(t, j), &i) in graph.edges.iter().zip(&source) {
        let label = graph.label(t);
        let bit = 1u64 << label.signal.0;
        let next_code = codes[i] ^ bit;
        // States are numbered as the walk discovers them, so the first
        // edge into `j` is the one that discovered it.
        let broken = if (codes[i] & bit != 0) == label.polarity.target_value() {
            true
        } else if j < discovered {
            codes[j] != next_code
        } else {
            codes[j] = next_code;
            discovered += 1;
            false
        };
        if broken {
            let signal = stg.signal_name(label.signal).to_string();
            return Coding::Inconsistent {
                initial_code,
                error: StgError::Inconsistent { signal },
            };
        }
    }
    for (state, code) in graph.states.iter_mut().zip(codes) {
        state.code = code;
    }
    Coding::Consistent
}

/// [`Stg::initial_values`]'s search on the walked graph: for each signal
/// in id order, the polarities of its first transitions along every path
/// from the initial state.
fn first_values(stg: &Stg, graph: &StateGraph) -> Result<u64, StgError> {
    let mut code = 0u64;
    let mut seen = vec![false; graph.state_count()];
    let mut stack = Vec::new();
    for s in stg.signal_ids() {
        let mut polarity = None;
        seen.fill(false);
        seen[0] = true;
        stack.clear();
        stack.push(0);
        while let Some(i) = stack.pop() {
            for &(t, j) in graph.edges(i) {
                let label = graph.label(t);
                if label.signal != s {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                } else if *polarity.get_or_insert(label.polarity) != label.polarity {
                    return Err(StgError::Inconsistent {
                        signal: stg.signal_name(s).to_string(),
                    });
                }
            }
        }
        match polarity {
            Some(Polarity::Minus) => code |= 1u64 << s.0,
            Some(Polarity::Plus) => {}
            None => {
                return Err(StgError::DeadSignal {
                    signal: stg.signal_name(s).to_string(),
                })
            }
        }
    }
    Ok(code)
}

/// Whether every bottom strongly connected component of `graph` has an
/// edge of every transition: Tarjan's algorithm from state 0, which
/// reaches every state, checking each component as it completes.
fn bottom_components_fire_everything(graph: &StateGraph) -> bool {
    const UNSEEN: usize = usize::MAX;
    let n = graph.state_count();
    let mut order = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    // The component of every completed state; `UNSEEN` while open.
    let mut component = vec![UNSEEN; n];
    let mut open: Vec<usize> = vec![0];
    let mut calls: Vec<(usize, usize)> = vec![(0, 0)];
    let mut fired = vec![false; graph.labels.len()];
    let (mut visited, mut completed) = (1, 0);
    order[0] = 0;
    while let Some(&mut (v, ref mut at)) = calls.last_mut() {
        if let Some(&(_, w)) = graph.edges(v).get(*at) {
            *at += 1;
            if order[w] == UNSEEN {
                order[w] = visited;
                low[w] = visited;
                visited += 1;
                open.push(w);
                calls.push((w, 0));
            } else if component[w] == UNSEEN {
                low[v] = low[v].min(order[w]);
            }
            continue;
        }
        calls.pop();
        if let Some(&(u, _)) = calls.last() {
            low[u] = low[u].min(low[v]);
        }
        if low[v] != order[v] {
            continue;
        }
        let root = open.iter().rposition(|&x| x == v).expect("v is open");
        let members = open.split_off(root);
        for &x in &members {
            component[x] = completed;
        }
        // Every state reachable from this component is completed, so an
        // edge leaves it exactly when its target lies in another one.
        fired.fill(false);
        let mut bottom = true;
        for &x in &members {
            for &(t, w) in graph.edges(x) {
                fired[t] = true;
                bottom &= component[w] == completed;
            }
        }
        if bottom && fired.contains(&false) {
            return false;
        }
        completed += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use crate::parse_astg;
    use crate::sg::SgBuilder;
    use crate::signal::{SignalId, SignalKind};
    use crate::stg::Stg;
    use crate::{Polarity, TransitionLabel};

    const CELEM: &str = "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
";

    #[test]
    fn one_walk_yields_graph_code_and_health() {
        let stg = parse_astg(CELEM).expect("valid");
        let before = super::whole_stg_walks();
        let analysis = stg.analyze(1000).expect("bounded");
        assert_eq!(super::whole_stg_walks(), before + 1);
        assert_eq!(analysis.state_count(), 8);
        assert_eq!(analysis.initial_code(), Ok(0));
        let health = analysis.health().expect("consistent");
        assert!(health.is_well_formed());
        assert_eq!(health.states, Some(8));
        assert_eq!(super::whole_stg_walks(), before + 1);
    }

    #[test]
    fn a_high_signal_starts_at_one() {
        // b falls first, so it starts high.
        let mut stg = Stg::new("inv");
        let a = stg.add_signal("a", SignalKind::Input);
        let b = stg.add_signal("b", SignalKind::Output);
        let ap = stg.add_transition(TransitionLabel::first(a, Polarity::Plus));
        let bm = stg.add_transition(TransitionLabel::first(b, Polarity::Minus));
        let am = stg.add_transition(TransitionLabel::first(a, Polarity::Minus));
        let bp = stg.add_transition(TransitionLabel::first(b, Polarity::Plus));
        stg.add_arc(ap, bm, 0);
        stg.add_arc(bm, am, 0);
        stg.add_arc(am, bp, 0);
        stg.add_arc(bp, ap, 1);
        let analysis = stg.analyze(100).expect("bounded");
        assert_eq!(analysis.initial_code(), Ok(0b10));
        let sg = analysis.state_graph().expect("consistent");
        assert_eq!(sg.code(0), 0b10);
    }

    #[test]
    fn more_than_64_signals_are_walked_then_refused() {
        let mut stg = Stg::new("wide");
        for i in 0..65 {
            stg.add_signal(format!("s{i}"), SignalKind::Input);
        }
        let analysis = stg.analyze(10).expect("one state");
        assert_eq!(analysis.state_count(), 1);
        let too_many = crate::StgError::TooManySignals { count: 65 };
        assert_eq!(analysis.initial_code(), Err(too_many.clone()));
        assert_eq!(analysis.health(), Err(too_many));
    }

    #[test]
    fn liveness_reads_only_the_bottom_components() {
        // State 0 fires t0 into the cycle 1 → 2 → 1, and nothing leads
        // back to it: its component is not a bottom one, so it need not
        // fire t1.
        let graph = |cycle: [usize; 2]| {
            let mut builder = SgBuilder::new();
            for _ in 0..3 {
                builder.add_state(0);
            }
            for (i, t, j) in [(0, 0, 1), (1, cycle[0], 2), (2, cycle[1], 1)] {
                builder.expand(i);
                builder.edge(i, t, j);
            }
            let label = TransitionLabel::first(SignalId(0), Polarity::Plus);
            builder.into_graph(vec![Some(label); 2])
        };
        assert!(super::bottom_components_fire_everything(&graph([1, 0])));
        assert!(!super::bottom_components_fire_everything(&graph([1, 1])));
    }

    #[test]
    fn a_deadlock_is_not_live_and_two_tokens_are_not_safe() {
        // a+ fires once and the net stops.
        let mut stg = Stg::new("once");
        let a = stg.add_signal("a", SignalKind::Input);
        let ap = stg.add_transition(TransitionLabel::first(a, Polarity::Plus));
        let p = stg.net_mut().add_place("p", 2);
        stg.net_mut().add_arc_pt(p, ap);
        let health = stg.analyze(100).expect("bounded").health();
        let health = health.expect("a fires");
        assert!(!health.live);
        assert!(!health.safe);
        // a+ fires twice in a row, so the coding is inconsistent.
        assert!(!health.consistent);
    }
}
