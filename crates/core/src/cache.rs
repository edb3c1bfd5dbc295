//! Structural-hash memoization of state-graph generation, local-STG
//! projection and conformance classification.
//!
//! The relaxation loop rebuilds local state graphs after every arc edit,
//! and the same `MgStg` structure recurs across the conformance pre-check,
//! the relaxation trials, the case-2 arc modification, OR-causality
//! sub-STG vetting and conformance re-checks — and across repeated runs of
//! the same circuit. [`SgCache`] memoizes state-graph generation keyed on
//! the canonical [`SgKey`] of the input, so any structurally identical MG
//! (regardless of signal names or restriction flags) is generated once.
//! Every miss is a cold exploration: σ-space
//! ([`StateGraph::of_mg_sigma`]) by default, marking-keyed
//! ([`StateGraph::of_mg`]) when [`SgCache::with_sigma_cold`] is off.
//!
//! [`ProjCache`] plays the same role for [`MgStg::project_on_gate`]: warm
//! runs of a circuit re-project identical components onto identical gates,
//! and the projection's redundancy sweeps dominate the profile once state
//! graphs are memoized. [`ConformanceCache`] memoizes the four-case
//! classification verdict itself, keyed on the complete functional input
//! of [`crate::classify_states`] (the MG's [`SgKey`], the gate's covers
//! and variable binding, the prerequisite sets and the relaxed
//! transition), so repeated trials and warm suite runs skip the
//! conformance sweep entirely.
//!
//! The graph caches are budget-exact: a hit whose stored graph exceeds
//! the caller's state budget reports the same budget-exhaustion error an
//! uncached generation would, so cached and uncached runs are
//! behaviourally indistinguishable. Errors are never cached. All caches
//! are `Sync` — one instance is shared across the parallel per-gate
//! fan-out.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use si_boolean::Cover;
use si_stg::{MgStg, SgKey, SignalId, SignalKind, StateGraph, StgError, TransitionLabel};

use crate::check::{ConformanceReport, RelaxationCase};
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

/// A thread-safe memoization cache for [`StateGraph::of_mg`].
#[derive(Debug, Default)]
pub struct SgCache {
    enabled: bool,
    sigma_cold: bool,
    map: Mutex<HashMap<SgKey, Arc<StateGraph>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SgCache {
    /// A live cache.
    pub fn new() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A pass-through cache: every call generates from scratch and stores
    /// nothing (the seed's uncached behaviour, byte for byte).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Routes scratch generations through the σ-space explorer
    /// ([`StateGraph::of_mg_sigma`]) when `on`. Applies to both the
    /// enabled and the pass-through cache; output is bit-identical either
    /// way.
    pub fn with_sigma_cold(mut self, on: bool) -> Self {
        self.sigma_cold = on;
        self
    }

    /// Whether lookups are served from the memo table.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether scratch generations use σ-space (firing-count-vector) keys.
    pub fn sigma_cold(&self) -> bool {
        self.sigma_cold
    }

    /// One scratch generation, honouring the σ-cold policy.
    fn generate(&self, mg: &MgStg, budget: usize) -> Result<StateGraph, StgError> {
        if self.sigma_cold {
            StateGraph::of_mg_sigma(mg, budget)
        } else {
            StateGraph::of_mg(mg, budget)
        }
    }

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
        if !self.enabled {
            return Ok((Arc::new(self.generate(mg, budget)?), false));
        }
        let key = mg.sg_key();
        if let Some(sg) = self.map.lock().expect("sg cache poisoned").get(&key) {
            Self::replay_budget(sg, budget)?;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(sg), true));
        }
        // Generate outside the lock: concurrent gates may race on the same
        // key, in which case the last insert wins — both values are
        // identical, so either Arc is valid.
        let sg = Arc::new(self.generate(mg, budget)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.map
            .lock()
            .expect("sg cache poisoned")
            .insert(key, Arc::clone(&sg));
        Ok((sg, false))
    }

    /// `of_mg` fails iff the reachable state count exceeds the budget;
    /// replay that outcome for cached graphs under smaller budgets.
    fn replay_budget(sg: &Arc<StateGraph>, budget: usize) -> Result<(), StgError> {
        if sg.state_count() > budget {
            return Err(StgError::Petri(si_petri::PetriError::StateBudgetExceeded {
                budget,
            }));
        }
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("sg cache poisoned").len(),
        }
    }

    /// Drops all stored graphs and resets the counters.
    pub fn clear(&self) {
        self.map.lock().expect("sg cache poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
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
pub struct ProjCache {
    enabled: bool,
    map: Mutex<HashMap<ProjKey, Arc<MgStg>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ProjCache {
    /// A live cache.
    pub fn new() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A pass-through cache: every call projects from scratch and stores
    /// nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether lookups are served from the memo table.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

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
        if !self.enabled {
            return Ok((component.project_on_gate(output, fanin)?, false));
        }
        let key = ProjKey::of(component, output, fanin);
        if let Some(mg) = self
            .map
            .lock()
            .expect("projection cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(((**mg).clone(), true));
        }
        let mg = component.project_on_gate(output, fanin)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.map
            .lock()
            .expect("projection cache poisoned")
            .insert(key, Arc::new(mg.clone()));
        Ok((mg, false))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("projection cache poisoned").len(),
        }
    }

    /// Drops all stored projections and resets the counters.
    pub fn clear(&self) {
        self.map.lock().expect("projection cache poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
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
/// all. Errors are never cached.
#[derive(Debug, Default)]
pub struct ConformanceCache {
    enabled: bool,
    map: Mutex<HashMap<ConfKey, Arc<(RelaxationCase, ConformanceReport)>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ConformanceCache {
    /// A live cache.
    pub fn new() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A pass-through cache: every lookup misses and stores nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether lookups are served from the memo table.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The cached verdict of `(local, epre, relaxed)`, if present.
    /// Counts a hit or a miss; a miss should be followed by [`Self::store`]
    /// once the verdict is computed.
    pub fn lookup(
        &self,
        local: &LocalStg,
        epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
        relaxed: Option<usize>,
    ) -> Option<(RelaxationCase, ConformanceReport)> {
        if !self.enabled {
            return None;
        }
        let key = ConfKey::of(local, epre, relaxed);
        if let Some(v) = self
            .map
            .lock()
            .expect("conformance cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((v.0, v.1.clone()));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a freshly computed verdict. No-op when disabled.
    pub fn store(
        &self,
        local: &LocalStg,
        epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
        relaxed: Option<usize>,
        case: RelaxationCase,
        report: &ConformanceReport,
    ) {
        if !self.enabled {
            return;
        }
        let key = ConfKey::of(local, epre, relaxed);
        self.map
            .lock()
            .expect("conformance cache poisoned")
            .insert(key, Arc::new((case, report.clone())));
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("conformance cache poisoned").len(),
        }
    }

    /// Drops all stored verdicts and resets the counters.
    pub fn clear(&self) {
        self.map.lock().expect("conformance cache poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
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
        let cache = SgCache::new();
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
        let cache = SgCache::new();
        let mg = handshake_mg();
        let (cached, _) = cache.of_mg(&mg, 100).expect("consistent");
        let direct = StateGraph::of_mg(&mg, 100).expect("consistent");
        assert_eq!(*cached, direct);
    }

    #[test]
    fn hit_replays_budget_exhaustion_exactly() {
        let cache = SgCache::new();
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
    fn disabled_cache_stores_nothing() {
        let cache = SgCache::disabled();
        let mg = handshake_mg();
        let (_, hit1) = cache.of_mg(&mg, 100).expect("consistent");
        let (_, hit2) = cache.of_mg(&mg, 100).expect("consistent");
        assert!(!hit1 && !hit2);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let cache = SgCache::new();
        let mg = handshake_mg();
        cache.of_mg(&mg, 100).expect("consistent");
        cache.of_mg(&mg, 100).expect("consistent");
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        let (_, hit) = cache.of_mg(&mg, 100).expect("consistent");
        assert!(!hit);
    }

    #[test]
    fn sigma_cold_cache_generates_identical_graphs() {
        let mg = handshake_mg();
        let direct = StateGraph::of_mg(&mg, 100).expect("consistent");
        for cache in [
            SgCache::new().with_sigma_cold(true),
            SgCache::disabled().with_sigma_cold(true),
        ] {
            assert!(cache.sigma_cold());
            let (sg, _) = cache.of_mg(&mg, 100).expect("consistent");
            assert_eq!(*sg, direct);
            // Budget exhaustion replays identically through the σ path.
            let err = cache.of_mg(&mg, 2).expect_err("budget");
            let uncached = StateGraph::of_mg(&mg, 2).expect_err("budget");
            assert_eq!(err, uncached);
        }
    }

    #[test]
    fn conformance_cache_round_trips_verdicts() {
        use crate::check::{classify_states, prerequisite_sets};
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
        let (case, report) = classify_states(&local, &sg, &epre, None).expect("checks");

        let cache = ConformanceCache::new();
        assert!(cache.lookup(&local, &epre, None).is_none());
        cache.store(&local, &epre, None, case, &report);
        let (case2, report2) = cache.lookup(&local, &epre, None).expect("hit");
        assert_eq!(case2, case);
        assert_eq!(report2, report);
        // A different relaxed id is a different entry.
        assert!(cache.lookup(&local, &epre, Some(0)).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                entries: 1,
            }
        );
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        // Disabled: never hits, never counts.
        let off = ConformanceCache::disabled();
        assert!(off.lookup(&local, &epre, None).is_none());
        off.store(&local, &epre, None, case, &report);
        assert!(off.lookup(&local, &epre, None).is_none());
        assert_eq!(off.stats(), CacheStats::default());
    }

    #[test]
    fn projection_cache_round_trips_and_hits() {
        let mg = handshake_mg();
        let req = mg.signal_by_name("req").expect("declared");
        let ack = mg.signal_by_name("ack").expect("declared");
        let cache = ProjCache::new();
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
        // Disabled: always a miss, nothing stored.
        let off = ProjCache::disabled();
        let (p, hit) = off.project_on_gate(&mg, ack, &[req]).expect("projects");
        assert!(!hit);
        assert_eq!(p, direct);
        assert_eq!(off.stats(), CacheStats::default());
    }
}
