//! Structural-hash memoization of state-graph generation, local-STG
//! projection and conformance classification — the engine's reuse stack.
//!
//! The relaxation loop rebuilds local state graphs after every arc edit,
//! and the same `MgStg` structure recurs across the conformance pre-check,
//! the relaxation trials, the case-2 arc modification, OR-causality
//! sub-STG vetting and conformance re-checks — and across repeated runs of
//! the same circuit. [`SgCache`] memoizes state-graph generation keyed on
//! the canonical [`SgKey`] of the input, so any structurally identical MG
//! (regardless of signal names or restriction flags) is generated once.
//! Every miss is one σ-space exploration ([`StateGraph::of_mg_sigma`]).
//!
//! [`ProjCache`] plays the same role for [`MgStg::project_on_gate`]: warm
//! runs of a circuit re-project identical components onto identical gates,
//! and the memo turns those projections into lookups (about 7 % of warm
//! corpus throughput in the end-to-end benchmark). [`ConformanceCache`]
//! memoizes the four-case classification verdict itself, keyed on the
//! complete functional input of [`crate::classify_states`] (the MG's
//! [`SgKey`], the gate's covers and variable binding, the prerequisite
//! sets and the relaxed transition), so repeated trials and warm suite
//! runs skip the conformance sweep entirely.
//!
//! The three share one memo with one counting rule: a hit when a stored
//! value is served, a miss when a computed value is stored, neither on an
//! error — errors are never cached. The graph cache is budget-exact: a hit
//! whose stored graph exceeds the caller's state budget reports the same
//! budget-exhaustion error an uncached generation would, so cached and
//! uncached runs are behaviourally indistinguishable. All caches are
//! `Sync` — one instance is shared across the parallel per-gate fan-out.
//!
//! The engine holds the three caches and its decompose memo as one
//! `Caches` bundle when [`crate::EngineConfig::cache`] is on, and no
//! bundle at all when it is off.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use si_boolean::Cover;
use si_stg::{MgStg, SgKey, SignalId, SignalKind, StateGraph, Stg, StgError, TransitionLabel};

use crate::check::{classify_states, ConformanceReport, RelaxationCase};
use crate::error::CoreError;
use crate::local::LocalStg;

/// Counters of a [`SgCache`], [`ProjCache`] or [`ConformanceCache`],
/// readable at any point of an engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that computed (and stored) a new entry.
    pub misses: usize,
    /// Distinct entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; `0` when the cache saw no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters as one JSON object (`hits`, `misses`, `entries`).
    pub fn json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"entries\":{}}}",
            self.hits, self.misses, self.entries
        )
    }
}

/// The memo behind every cache: a mutex map of shared values plus hit and
/// miss counters.
#[derive(Debug)]
struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<V>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }
}

impl<K: Eq + Hash, V> Memo<K, V> {
    /// The value stored under `key` once `replay` accepts it (a hit), or
    /// else `compute`'s value, stored (a miss). The boolean is `true` on a
    /// hit. An error from either closure is returned as is: counted as
    /// neither, stored nowhere.
    fn get_or_compute<E>(
        &self,
        key: K,
        replay: impl FnOnce(&V) -> Result<(), E>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        if let Some(value) = self.lock().get(&key) {
            replay(value)?;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(value), true));
        }
        // Compute outside the lock: concurrent gates may race on the same
        // key, in which case the last insert wins — both values are
        // identical, so either Arc is valid.
        let value = Arc::new(compute()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.lock().insert(key, Arc::clone(&value));
        Ok((value, false))
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, Arc<V>>> {
        self.map.lock().expect("cache poisoned")
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }

    fn clear(&self) {
        self.lock().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// A thread-safe memoization cache for state-graph generation: every miss
/// is one σ-space exploration ([`StateGraph::of_mg_sigma`]), bit-identical
/// to [`StateGraph::of_mg`].
#[derive(Debug, Default)]
pub struct SgCache(Memo<SgKey, StateGraph>);

impl SgCache {
    /// The state graph of `mg`, memoized. The boolean is `true` on a cache
    /// hit.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`StateGraph::of_mg`] under `budget` —
    /// including [`si_petri::PetriError::StateBudgetExceeded`] when a
    /// cached graph (generated under a larger budget) has more states than
    /// `budget` allows, which is precisely when an uncached generation
    /// would have failed.
    pub fn of_mg(&self, mg: &MgStg, budget: usize) -> Result<(Arc<StateGraph>, bool), StgError> {
        self.0.get_or_compute(
            mg.sg_key(),
            // Generation fails iff the reachable state count exceeds the
            // budget; replay that outcome for graphs cached under a larger
            // one.
            |sg| {
                if sg.state_count() > budget {
                    Err(StgError::Petri(si_petri::PetriError::StateBudgetExceeded {
                        budget,
                    }))
                } else {
                    Ok(())
                }
            },
            || StateGraph::of_mg_sigma(mg, budget),
        )
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }

    /// Drops all stored graphs and resets the counters.
    pub fn clear(&self) {
        self.0.clear();
    }
}

/// Canonical key of one local-STG projection: the full structural identity
/// of the component (its [`SgKey`] plus everything the key deliberately
/// leaves out — model name, signal table, restriction arcs) together with
/// the gate's output and fan-in. Projection is a pure function of exactly
/// these inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProjKey {
    component: SgKey,
    name: String,
    signals: Vec<(String, SignalKind)>,
    restrictions: Vec<(usize, usize)>,
    output: usize,
    fanin: Vec<usize>,
}

impl ProjKey {
    fn of(component: &MgStg, output: SignalId, fanin: &[SignalId]) -> Self {
        Self {
            component: component.sg_key(),
            name: component.name.clone(),
            signals: (0..component.signal_count())
                .map(|i| {
                    let s = SignalId(i);
                    (
                        component.signal_name(s).to_string(),
                        component.signal_kind(s),
                    )
                })
                .collect(),
            restrictions: component
                .arcs()
                .filter(|&(_, attr)| attr.restriction)
                .map(|(k, _)| k)
                .collect(),
            output: output.0,
            fanin: fanin.iter().map(|s| s.0).collect(),
        }
    }
}

/// A thread-safe memoization cache for [`MgStg::project_on_gate`] — the
/// engine-level projection memo that makes warm runs of a circuit skip
/// the per-gate hiding/redundancy sweeps entirely.
#[derive(Debug, Default)]
pub struct ProjCache(Memo<ProjKey, MgStg>);

impl ProjCache {
    /// The projection of `component` onto `output` + `fanin`, memoized.
    /// The boolean is `true` on a cache hit. The returned graph is an
    /// owned clone — the relaxation loop mutates it freely.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`MgStg::project_on_gate`]. Errors are never
    /// cached.
    pub fn project_on_gate(
        &self,
        component: &MgStg,
        output: SignalId,
        fanin: &[SignalId],
    ) -> Result<(MgStg, bool), StgError> {
        let (mg, hit) = self.0.get_or_compute(
            ProjKey::of(component, output, fanin),
            |_| Ok(()),
            || component.project_on_gate(output, fanin),
        )?;
        Ok(((*mg).clone(), hit))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }

    /// Drops all stored projections and resets the counters.
    pub fn clear(&self) {
        self.0.clear();
    }
}

/// Canonical key of one four-case classification: the complete functional
/// input of [`crate::classify_states`]. The verdict is a pure function of
/// the local STG's structure (its [`SgKey`] — labels, arcs, initial code),
/// the gate's covers with their positional signal binding (`var_map`
/// resolves cover variable `i` to a signal id, and `SgKey` speaks in
/// signal ids), the prerequisite sets and the relaxed transition id.
/// Signal *names* are deliberately excluded, matching `SgKey`: they only
/// appear in error messages, and errors are never cached.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ConfKey {
    sg: SgKey,
    output: usize,
    up: Cover,
    down: Cover,
    var_map: Vec<usize>,
    epre: Vec<(usize, Vec<TransitionLabel>)>,
    relaxed: Option<usize>,
}

impl ConfKey {
    fn of(
        local: &LocalStg,
        epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
        relaxed: Option<usize>,
    ) -> Self {
        Self {
            sg: local.mg.sg_key(),
            output: local.ctx.output.0,
            up: local.ctx.gate.up.clone(),
            down: local.ctx.gate.down.clone(),
            var_map: local.ctx.var_map.iter().map(|s| s.0).collect(),
            epre: epre
                .iter()
                .map(|(&t, set)| (t, set.iter().copied().collect()))
                .collect(),
            relaxed,
        }
    }
}

/// A thread-safe memoization cache for the four-case conformance
/// classification ([`crate::classify_states`]).
/// Where [`SgCache`] answers "what does this MG's state graph look like"
/// and [`ProjCache`] "what does this projection look like", this cache
/// answers the relaxation loop's actual question — "what is the verdict
/// of this trial" — so a repeated trial (warm suite run, re-explored
/// branch of the relaxation search) skips state sweep, pending DFS and
/// all.
#[derive(Debug, Default)]
pub struct ConformanceCache(Memo<ConfKey, (RelaxationCase, ConformanceReport)>);

impl ConformanceCache {
    /// The verdict [`crate::classify_states`] gives for `(local, sg,
    /// epre, relaxed)`, memoized. `sg` must be the state graph of
    /// `local.mg`: the key is built from `local` alone. The boolean is
    /// `true` on a cache hit.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`crate::classify_states`]. Errors are never
    /// cached.
    pub fn classify(
        &self,
        local: &LocalStg,
        sg: &StateGraph,
        epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
        relaxed: Option<usize>,
    ) -> Result<((RelaxationCase, ConformanceReport), bool), CoreError> {
        let (verdict, hit) = self.0.get_or_compute(
            ConfKey::of(local, epre, relaxed),
            |_| Ok(()),
            || classify_states(local, sg, epre, relaxed),
        )?;
        Ok(((verdict.0, verdict.1.clone()), hit))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }

    /// Drops all stored verdicts and resets the counters.
    pub fn clear(&self) {
        self.0.clear();
    }
}

/// The decompose stage's result: the MG components and the global state
/// count.
pub(crate) type Decomposition = (Vec<MgStg>, usize);

/// Distinct specifications the decompose memo admits; beyond this the
/// stage is recomputed (never evicted mid-scan) so a pathological caller
/// cannot grow the memo without bound.
const DECOMPOSE_MEMO_CAP: usize = 64;

/// The engine's whole reuse stack, held iff
/// [`crate::EngineConfig::cache`] is on: the three caches plus the
/// decompose memo, shared across gates, runs and circuits.
#[derive(Debug, Default)]
pub(crate) struct Caches {
    /// Local state graphs.
    pub sg: SgCache,
    /// Per-gate local-STG projections.
    pub projections: ProjCache,
    /// Classification verdicts.
    pub conformance: ConformanceCache,
    /// Decompose-stage results by specification value. A linear scan
    /// suffices: the corpus is a dozen specifications and the derived
    /// `PartialEq` rejects non-matches on the name field first.
    decompositions: Mutex<Vec<(Stg, Arc<Decomposition>)>>,
}

impl Caches {
    /// The decompose stage of `stg`, memoized by specification value: the
    /// MG components and the global state count are pure functions of the
    /// specification (under the engine's fixed budgets), so a warm engine
    /// re-running the same [`Stg`] skips the decomposition sweep and the
    /// global reachability walk. Only successes are stored; errors are
    /// recomputed (and re-reported) every run.
    pub(crate) fn decompose(
        &self,
        stg: &Stg,
        compute: impl FnOnce() -> Result<Decomposition, CoreError>,
    ) -> Result<Arc<Decomposition>, CoreError> {
        let lock = || self.decompositions.lock().expect("decompose memo poisoned");
        if let Some((_, cached)) = lock().iter().find(|(spec, _)| spec == stg) {
            return Ok(Arc::clone(cached));
        }
        let result = Arc::new(compute()?);
        let mut entries = lock();
        if entries.len() < DECOMPOSE_MEMO_CAP && !entries.iter().any(|(spec, _)| spec == stg) {
            entries.push((stg.clone(), Arc::clone(&result)));
        }
        Ok(result)
    }

    /// Drops every memoized value and resets the counters.
    pub(crate) fn clear(&self) {
        self.sg.clear();
        self.projections.clear();
        self.conformance.clear();
        self.decompositions
            .lock()
            .expect("decompose memo poisoned")
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::parse_astg;

    fn handshake_mg() -> MgStg {
        let stg = parse_astg(
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
        MgStg::from_stg_mg(&stg).expect("marked graph")
    }

    #[test]
    fn second_lookup_hits_and_shares_the_graph() {
        let cache = SgCache::default();
        let mg = handshake_mg();
        let (first, hit1) = cache.of_mg(&mg, 100).expect("consistent");
        let (second, hit2) = cache.of_mg(&mg, 100).expect("consistent");
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1,
            }
        );
    }

    #[test]
    fn cached_result_equals_uncached() {
        // Every miss is a σ-space exploration: its graph and its budget
        // error must both equal the marking-keyed generator's.
        let cache = SgCache::default();
        let mg = handshake_mg();
        let (cached, _) = cache.of_mg(&mg, 100).expect("consistent");
        let direct = StateGraph::of_mg(&mg, 100).expect("consistent");
        assert_eq!(*cached, direct);
        let err = SgCache::default().of_mg(&mg, 2).expect_err("budget");
        let uncached = StateGraph::of_mg(&mg, 2).expect_err("budget");
        assert_eq!(err, uncached);
    }

    #[test]
    fn hit_replays_budget_exhaustion_exactly() {
        let cache = SgCache::default();
        let mg = handshake_mg(); // 4 states
        cache.of_mg(&mg, 100).expect("consistent");
        // A smaller budget that an uncached run would exhaust must fail
        // identically on the hit path.
        let uncached = StateGraph::of_mg(&mg, 2).expect_err("budget");
        let hit = cache.of_mg(&mg, 2).expect_err("budget");
        assert_eq!(format!("{hit}"), format!("{uncached}"));
        // A budget the graph fits in succeeds from cache.
        assert!(cache.of_mg(&mg, 4).expect("fits").1);
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let cache = SgCache::default();
        let mg = handshake_mg();
        cache.of_mg(&mg, 100).expect("consistent");
        cache.of_mg(&mg, 100).expect("consistent");
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        let (_, hit) = cache.of_mg(&mg, 100).expect("consistent");
        assert!(!hit);
    }

    #[test]
    fn errors_count_as_neither_hit_nor_miss() {
        let memo: Memo<u8, u8> = Memo::default();
        let accept = |_: &u8| Ok(());
        assert!(memo.get_or_compute(1, accept, || Err(())).is_err());
        assert_eq!(memo.stats(), CacheStats::default());
        assert!(memo.get_or_compute(1, accept, || Ok(7)).is_ok());
        // A stored value the replay rejects is not served either.
        assert!(memo.get_or_compute(1, |_| Err(()), || Ok(7)).is_err());
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
    }

    #[test]
    fn conformance_cache_round_trips_verdicts() {
        use crate::check::prerequisite_sets;
        use crate::local::GateContext;
        use si_boolean::{parse_eqn, GateLibrary};

        let stg = parse_astg(
            "\
.model fig517
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- o-
o- y-
y- x+
.marking { <y-,x+> }
.end
",
        )
        .expect("valid");
        let lib = GateLibrary::from_netlist(&parse_eqn("o = x*y;").expect("valid EQN"));
        let ctx = GateContext::bind(lib.gate("o").expect("gate exists"), &stg).expect("binds");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let local = LocalStg::project_from(&mg, &ctx).expect("projects");
        let sg = StateGraph::of_mg(&local.mg, 1000).expect("consistent");
        let epre = prerequisite_sets(&local);
        let direct = classify_states(&local, &sg, &epre, None).expect("checks");

        let cache = ConformanceCache::default();
        let (first, hit1) = cache.classify(&local, &sg, &epre, None).expect("checks");
        let (second, hit2) = cache.classify(&local, &sg, &epre, None).expect("checks");
        assert!(!hit1 && hit2);
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        // A different relaxed id is a different entry.
        let (_, hit3) = cache.classify(&local, &sg, &epre, Some(0)).expect("checks");
        assert!(!hit3);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                entries: 2,
            }
        );
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn projection_cache_round_trips_and_hits() {
        let mg = handshake_mg();
        let req = mg.signal_by_name("req").expect("declared");
        let ack = mg.signal_by_name("ack").expect("declared");
        let cache = ProjCache::default();
        let direct = mg.project_on_gate(ack, &[req]).expect("projects");
        let (first, hit1) = cache.project_on_gate(&mg, ack, &[req]).expect("projects");
        let (second, hit2) = cache.project_on_gate(&mg, ack, &[req]).expect("projects");
        assert!(!hit1 && hit2);
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        // A different fan-in is a different entry.
        let (_, hit3) = cache.project_on_gate(&mg, ack, &[]).expect("projects");
        assert!(!hit3);
    }
}
