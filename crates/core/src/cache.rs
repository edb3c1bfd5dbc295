//! Fingerprint-keyed memoization of state-graph generation and local-STG
//! projection — the engine's reuse stack.
//!
//! The relaxation loop rebuilds local state graphs after every arc edit,
//! and the same `MgStg` structure can recur across the conformance
//! pre-check, the relaxation trials, the case-2 arc modification,
//! OR-causality sub-STG vetting — and across repeated runs of the same
//! circuit. [`SgCache`] memoizes state-graph generation keyed on the
//! canonical [`SgKey`] of the input, so structurally identical MGs
//! (regardless of signal names or restriction flags) share one stored
//! graph. Every miss is one σ-space exploration
//! ([`StateGraph::of_mg_sigma`]). [`ProjCache`] plays the same role for
//! [`MgStg::project_on_gate`]: warm runs of a circuit re-project identical
//! components onto identical gates, and the memo turns those projections
//! into lookups.
//!
//! **Admission on the second request.** Most graphs are asked for exactly
//! once: a cold pass over the benchmark corpus requests 16 344 of its
//! 17 339 distinct state graphs a single time (`docs/perf.md`,
//! "Admission"). So the memo stores a value only when its fingerprint is
//! requested a second time. The first request leaves a `Seen` mark in the
//! fingerprint's slot and returns the computed value, with no key built
//! and nothing stored. This is the doorkeeper of TinyLFU (Einziger,
//! Friedman & Manes, ACM TOS 2017) in front of an exact table: a circuit
//! run twice on one engine explores most of its graphs twice, and its
//! third run is warm.
//!
//! **Exact.** The 64-bit fingerprint ([`MgStg::sg_fingerprint`]) only picks
//! a slot. A slot holds every stored key with its fingerprint, and a
//! lookup compares each one with the request in place
//! ([`SgKey::matches`]), so a fingerprint collision can never serve the
//! wrong value.
//!
//! One counting rule: a hit is a stored value served, a miss is a value
//! computed, and entries are values stored — so `misses − entries` counts
//! first requests that were not kept. Errors are never stored, never
//! marked and never counted. The graph cache is budget-exact: a hit whose
//! stored graph exceeds the caller's state budget reports the same
//! budget-exhaustion error an uncached generation would, so cached and
//! uncached runs are behaviourally indistinguishable. Both caches are
//! `Sync` — one instance is shared across the parallel per-gate fan-out
//! and across corpus shards. No caller code runs while a cache's lock is
//! held, and a lock poisoned by a panic elsewhere is taken over as is, so
//! one panicking corpus row cannot disable the cache for the others.
//!
//! The engine holds the two caches as one `Caches` bundle when
//! [`crate::EngineConfig::cache`] is on, and no bundle at all when it is
//! off.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use si_stg::{extend_fingerprint, MgStg, SgKey, SignalId, SignalKind, StateGraph, StgError};

/// Counters of a [`SgCache`] or [`ProjCache`], readable at any point of an
/// engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that computed a value (stored only on a repeat request).
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

/// A request to a [`Memo`]: it names its slot, recognises its stored key
/// in place, and builds that key only when its value is admitted.
trait Request<K> {
    /// The slot. Equal keys must give equal fingerprints.
    fn fingerprint(&self) -> u64;
    /// Whether `key` is this request's key, without building it.
    fn matches(&self, key: &K) -> bool;
    /// The canonical key.
    fn key(&self) -> K;
}

/// The hasher of the slot map: its keys are fingerprints, already mixed,
/// so hashing one again would only cost time. A fingerprint is a fixed
/// function of the graph, so inputs whose fingerprints collide would
/// collide under any table hasher; a slot's `Vec` keeps their keys apart.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    // The map hashes its `u64` keys through `write_u64`; this fold only
    // completes the trait.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
    }
}

/// One fingerprint's slot: the values stored under it, one per distinct
/// key. An empty slot is the `Seen` mark of a fingerprint requested once.
type Slot<K, V> = Vec<(K, Arc<V>)>;

/// The slots of a [`Memo`], keyed by fingerprint.
type Slots<K, V> = HashMap<u64, Slot<K, V>, BuildHasherDefault<PassThrough>>;

/// The memo behind both caches: a mutex map of fingerprint slots plus hit
/// and miss counters, admitting a value on its fingerprint's second
/// request.
#[derive(Debug)]
struct Memo<K, V> {
    slots: Mutex<Slots<K, V>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            slots: Mutex::default(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }
}

impl<K: PartialEq, V> Memo<K, V> {
    /// The value stored under `request`'s key once `replay` accepts it (a
    /// hit), or else `compute`'s value (a miss), which is stored iff the
    /// request's fingerprint was requested before. The boolean is `true`
    /// on a hit. An error from either closure is returned as is: counted
    /// as neither, stored and marked nowhere.
    fn get_or_compute<E>(
        &self,
        request: &impl Request<K>,
        replay: impl FnOnce(&V) -> Result<(), E>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let fingerprint = request.fingerprint();
        let (stored, seen) = match self.lock().get(&fingerprint) {
            None => (None, false),
            Some(slot) => (
                slot.iter()
                    .find(|(key, _)| request.matches(key))
                    .map(|(_, value)| Arc::clone(value)),
                true,
            ),
        };
        // Neither closure runs under the lock.
        if let Some(value) = stored {
            replay(&value)?;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((value, true));
        }
        let value = Arc::new(compute()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let key = seen.then(|| request.key());
        match self.lock().entry(fingerprint) {
            Entry::Vacant(slot) => {
                slot.insert(Vec::new());
            }
            Entry::Occupied(slot) => {
                // A repeat request. Its key is built under the lock only
                // when a concurrent first request marked the slot after
                // this one looked.
                let key = key.unwrap_or_else(|| request.key());
                let slot = slot.into_mut();
                // Concurrent gates may race on the same key; the values
                // are identical, so the first one stored stays.
                if !slot.iter().any(|(stored, _)| *stored == key) {
                    slot.push((key, Arc::clone(&value)));
                }
            }
        }
        Ok((value, false))
    }

    /// The slots. No caller code runs under the lock and every update
    /// leaves the map valid, so a lock poisoned by a panic elsewhere is
    /// taken over as is.
    fn lock(&self) -> MutexGuard<'_, Slots<K, V>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().values().map(Vec::len).sum(),
        }
    }

    /// Drops every stored value and every `Seen` mark, and resets the
    /// counters.
    fn clear(&self) {
        self.lock().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl Request<SgKey> for MgStg {
    fn fingerprint(&self) -> u64 {
        self.sg_fingerprint()
    }

    fn matches(&self, key: &SgKey) -> bool {
        key.matches(self)
    }

    fn key(&self) -> SgKey {
        self.sg_key()
    }
}

/// A thread-safe memoization cache for state-graph generation: every miss
/// is one σ-space exploration ([`StateGraph::of_mg_sigma`]), bit-identical
/// to [`StateGraph::of_mg`].
#[derive(Debug, Default)]
pub struct SgCache(Memo<SgKey, StateGraph>);

impl SgCache {
    /// The state graph of `mg`, memoized from its second request on. The
    /// boolean is `true` on a cache hit.
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
            mg,
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

    /// Drops all stored graphs and `Seen` marks, and resets the counters.
    pub fn clear(&self) {
        self.0.clear();
    }
}

/// Canonical key of one local-STG projection: the full structural identity
/// of the component (its [`SgKey`] plus everything the key deliberately
/// leaves out — model name, signal table, restriction arcs) together with
/// the gate's output and fan-in. Projection is a pure function of exactly
/// these inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ProjKey {
    component: SgKey,
    name: String,
    signals: Vec<(String, SignalKind)>,
    restrictions: Vec<(usize, usize)>,
    output: usize,
    fanin: Vec<usize>,
}

/// One projection request: a component and the gate it is projected on.
struct ProjRequest<'a> {
    component: &'a MgStg,
    output: SignalId,
    fanin: &'a [SignalId],
}

impl ProjRequest<'_> {
    /// The component's restriction arcs, as [`ProjKey`] lists them.
    fn restrictions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.component
            .arcs()
            .filter(|&(_, attr)| attr.restriction)
            .map(|(k, _)| k)
    }
}

impl Request<ProjKey> for ProjRequest<'_> {
    /// The component's [`MgStg::sg_fingerprint`] extended with its model
    /// name and the gate; the signal table and the restriction arcs are
    /// left to the key.
    fn fingerprint(&self) -> u64 {
        let name = self.component.name.bytes().map(u64::from);
        let gate = std::iter::once(self.output.0)
            .chain(self.fanin.iter().map(|s| s.0))
            .map(|s| s as u64);
        extend_fingerprint(self.component.sg_fingerprint(), name.chain(gate))
    }

    fn matches(&self, key: &ProjKey) -> bool {
        let c = self.component;
        key.output == self.output.0
            && key.fanin.iter().copied().eq(self.fanin.iter().map(|s| s.0))
            && key.name == c.name
            && key.component.matches(c)
            && key.signals.len() == c.signal_count()
            && key.signals.iter().enumerate().all(|(i, (name, kind))| {
                c.signal_name(SignalId(i)) == name && c.signal_kind(SignalId(i)) == *kind
            })
            && key.restrictions.iter().copied().eq(self.restrictions())
    }

    fn key(&self) -> ProjKey {
        let c = self.component;
        ProjKey {
            component: c.sg_key(),
            name: c.name.clone(),
            signals: (0..c.signal_count())
                .map(|i| {
                    let s = SignalId(i);
                    (c.signal_name(s).to_string(), c.signal_kind(s))
                })
                .collect(),
            restrictions: self.restrictions().collect(),
            output: self.output.0,
            fanin: self.fanin.iter().map(|s| s.0).collect(),
        }
    }
}

/// A thread-safe memoization cache for [`MgStg::project_on_gate`] — the
/// engine-level projection memo that makes warm runs of a circuit skip
/// the per-gate hiding/redundancy sweeps entirely.
#[derive(Debug, Default)]
pub struct ProjCache(Memo<ProjKey, MgStg>);

impl ProjCache {
    /// The projection of `component` onto `output` + `fanin`, memoized
    /// from its second request on. The boolean is `true` on a cache hit.
    /// The returned graph is owned — the relaxation loop mutates it
    /// freely.
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
        let request = ProjRequest {
            component,
            output,
            fanin,
        };
        let (mg, hit) = self.0.get_or_compute(
            &request,
            |_| Ok(()),
            || component.project_on_gate(output, fanin),
        )?;
        // A projection that was not stored is moved out, not cloned.
        Ok((Arc::try_unwrap(mg).unwrap_or_else(|mg| (*mg).clone()), hit))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }

    /// Drops all stored projections and `Seen` marks, and resets the
    /// counters.
    pub fn clear(&self) {
        self.0.clear();
    }
}

/// The engine's whole reuse stack, held iff
/// [`crate::EngineConfig::cache`] is on: the two caches, shared across
/// gates, runs and circuits.
#[derive(Debug, Default)]
pub(crate) struct Caches {
    /// Local state graphs.
    pub sg: SgCache,
    /// Per-gate local-STG projections.
    pub projections: ProjCache,
}

impl Caches {
    /// Drops every memoized value and `Seen` mark, and resets the
    /// counters.
    pub(crate) fn clear(&self) {
        self.sg.clear();
        self.projections.clear();
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

    /// A memo request with a chosen fingerprint, so tests can force
    /// collisions.
    struct Probe {
        fingerprint: u64,
        key: u8,
    }

    impl Request<u8> for Probe {
        fn fingerprint(&self) -> u64 {
            self.fingerprint
        }

        fn matches(&self, key: &u8) -> bool {
            *key == self.key
        }

        fn key(&self) -> u8 {
            self.key
        }
    }

    fn probe(key: u8) -> Probe {
        Probe {
            fingerprint: u64::from(key),
            key,
        }
    }

    fn accept(_: &u8) -> Result<(), ()> {
        Ok(())
    }

    #[test]
    fn the_second_request_stores_and_the_third_hits() {
        let memo: Memo<u8, u8> = Memo::default();
        let (first, hit1) = memo
            .get_or_compute(&probe(1), accept, || Ok(7))
            .expect("ok");
        assert!(!hit1);
        assert_eq!((*first, memo.stats().entries), (7, 0), "nothing stored");
        let (second, hit2) = memo
            .get_or_compute(&probe(1), accept, || Ok(7))
            .expect("ok");
        assert!(!hit2);
        assert_eq!(memo.stats().entries, 1, "the repeat is stored");
        let (third, hit3) = memo
            .get_or_compute(&probe(1), accept, || -> Result<u8, ()> {
                panic!("a stored value is served, not computed")
            })
            .expect("ok");
        assert!(hit3);
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                entries: 1,
            }
        );
    }

    #[test]
    fn colliding_fingerprints_serve_each_key_its_own_value() {
        let memo: Memo<u8, u8> = Memo::default();
        let forced = |key| Probe {
            fingerprint: 42,
            key,
        };
        for _ in 0..2 {
            for key in [1, 2] {
                memo.get_or_compute(&forced(key), accept, || Ok(key * 10))
                    .expect("ok");
            }
        }
        assert_eq!(memo.stats().entries, 2, "one slot, two keys");
        for key in [1, 2] {
            let (value, hit) = memo
                .get_or_compute(&forced(key), accept, || Ok(0))
                .expect("ok");
            assert!(hit);
            assert_eq!(*value, key * 10);
        }
        // A third key on the same slot is computed, not served.
        let (value, hit) = memo
            .get_or_compute(&forced(3), accept, || Ok(30))
            .expect("ok");
        assert!(!hit);
        assert_eq!(*value, 30);
    }

    #[test]
    fn a_failing_computation_leaves_no_seen_mark() {
        let memo: Memo<u8, u8> = Memo::default();
        assert!(memo.get_or_compute(&probe(1), accept, || Err(())).is_err());
        // Had the failure marked the slot, this success would be stored.
        memo.get_or_compute(&probe(1), accept, || Ok(7))
            .expect("ok");
        assert_eq!(memo.stats().entries, 0);
        memo.get_or_compute(&probe(1), accept, || Ok(7))
            .expect("ok");
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn clear_forgets_the_seen_marks() {
        let memo: Memo<u8, u8> = Memo::default();
        memo.get_or_compute(&probe(1), accept, || Ok(7))
            .expect("ok");
        memo.clear();
        // After `clear` the next request is a first request again.
        memo.get_or_compute(&probe(1), accept, || Ok(7))
            .expect("ok");
        assert_eq!(memo.stats().entries, 0);
        memo.get_or_compute(&probe(1), accept, || Ok(7))
            .expect("ok");
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn a_repeat_request_that_raced_the_first_is_stored() {
        // The outer computation runs outside the lock, so a request nested
        // in it completes in between, exactly as a concurrent first
        // request would: it marks the slot after the outer one looked.
        let memo: Memo<u8, u8> = Memo::default();
        memo.get_or_compute(&probe(1), accept, || {
            memo.get_or_compute(&probe(1), accept, || Ok(7))
                .map(|(value, _)| *value)
        })
        .expect("ok");
        assert_eq!(memo.stats().entries, 1, "two requests, one stored value");
        let (value, hit) = memo
            .get_or_compute(&probe(1), accept, || Ok(0))
            .expect("ok");
        assert!(hit);
        assert_eq!(*value, 7);
    }

    #[test]
    fn second_lookup_hits_and_shares_the_graph() {
        // The first request explores and keeps nothing, the second
        // explores and stores; the lookup after that hits.
        let cache = SgCache::default();
        let mg = handshake_mg();
        for _ in 0..2 {
            let (_, hit) = cache.of_mg(&mg, 100).expect("consistent");
            assert!(!hit);
        }
        let (stored, hit1) = cache.of_mg(&mg, 100).expect("consistent");
        let (second, hit2) = cache.of_mg(&mg, 100).expect("consistent");
        assert!(hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&stored, &second));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 2,
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
        cache.of_mg(&mg, 100).expect("consistent");
        assert_eq!(cache.stats().entries, 1);
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
        assert!(memo.get_or_compute(&probe(1), accept, || Err(())).is_err());
        assert_eq!(memo.stats(), CacheStats::default());
        for _ in 0..2 {
            assert!(memo.get_or_compute(&probe(1), accept, || Ok(7)).is_ok());
        }
        // A stored value the replay rejects is not served either.
        assert!(memo
            .get_or_compute(&probe(1), |_| Err(()), || Ok(7))
            .is_err());
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
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
        let (third, hit3) = cache.project_on_gate(&mg, ack, &[req]).expect("projects");
        assert!(!hit1 && !hit2 && hit3);
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        assert_eq!(third, direct);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 2);
        // A different fan-in is a different entry.
        for _ in 0..2 {
            let (_, hit) = cache.project_on_gate(&mg, ack, &[]).expect("projects");
            assert!(!hit);
        }
        assert_eq!(cache.stats().entries, 2);
    }
}
