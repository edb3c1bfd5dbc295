//! Fingerprint-keyed memoization of state-graph generation — the engine's
//! one cache.
//!
//! The relaxation loop rebuilds local state graphs after every arc edit,
//! and the same `MgStg` structure can recur across the conformance
//! pre-check, the relaxation trials, the case-2 arc modification,
//! OR-causality sub-STG vetting — and across repeated runs of the same
//! circuit. [`SgCache`] memoizes state-graph generation keyed on the
//! canonical [`SgKey`] of the input, so structurally identical MGs
//! (regardless of signal names or restriction flags) share one stored
//! graph. Every miss is one σ-space exploration
//! ([`StateGraph::of_mg_sigma`]). Projection is not memoized: with
//! edit-local sweeps, [`MgStg::project_on_gate`] is cheap enough that a
//! memo of it cost cold passes more than it saved warm ones
//! (`docs/perf.md`, "The projection memo, deleted").
//!
//! **Admission on the second request.** Most graphs are asked for exactly
//! once: a cold pass over the benchmark corpus requests 16 344 of its
//! 17 339 distinct state graphs a single time (`docs/perf.md`,
//! "Admission"). So the memo stores a value only when its fingerprint is
//! requested a second time. The first request leaves a `Seen` mark in the
//! fingerprint's slot and returns the explored graph, with no key built
//! and nothing stored. This is the doorkeeper of TinyLFU (Einziger,
//! Friedman & Manes, ACM TOS 2017) in front of an exact table: a circuit
//! run twice on one engine explores most of its graphs twice, and its
//! third run is warm.
//!
//! **Exact.** The 64-bit fingerprint ([`MgStg::sg_fingerprint`]) only picks
//! a slot. A slot holds every stored key with its fingerprint, and a
//! lookup compares each one with the request in place
//! ([`SgKey::matches`]), so a fingerprint collision can never serve the
//! wrong graph.
//!
//! One counting rule: a hit is a stored graph served, a miss is a graph
//! explored, and entries are graphs stored — so `misses − entries` counts
//! first requests that were not kept. Errors are never stored, never
//! marked and never counted. The cache is budget-exact: a hit whose
//! stored graph exceeds the caller's state budget reports the same
//! budget-exhaustion error an uncached generation would, so cached and
//! uncached runs are behaviourally indistinguishable. The cache is
//! `Sync` — one instance is shared by every gate of a run and across the
//! corpus runner's shards. No exploration runs while its lock is held,
//! and a lock poisoned by a panic elsewhere is taken over as is, so one
//! panicking corpus row cannot disable the cache for the others.
//!
//! The engine holds one [`SgCache`] when [`crate::EngineConfig::cache`]
//! is on, and none when it is off.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use si_petri::PetriError;
use si_stg::{MgStg, SgKey, StateGraph, StgError};

/// Counters of an [`SgCache`], readable at any point of an engine run.
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

/// One fingerprint's slot: the graphs stored under it, one per distinct
/// key. An empty slot is the `Seen` mark of a fingerprint requested once.
type Slot = Vec<(SgKey, Arc<StateGraph>)>;

/// The slots of an [`SgCache`], keyed by fingerprint.
type Slots = HashMap<u64, Slot, BuildHasherDefault<PassThrough>>;

/// A thread-safe memoization cache for state-graph generation: every miss
/// is one σ-space exploration ([`StateGraph::of_mg_sigma`]), bit-identical
/// to [`StateGraph::of_mg`]. A mutex map of fingerprint slots plus hit
/// and miss counters, admitting a graph on its fingerprint's second
/// request.
#[derive(Debug, Default)]
pub struct SgCache {
    slots: Mutex<Slots>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SgCache {
    /// The state graph of `mg`, memoized from its second request on. The
    /// boolean is `true` on a cache hit.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`StateGraph::of_mg`] under `budget` —
    /// including [`PetriError::StateBudgetExceeded`] when a cached graph
    /// (generated under a larger budget) has more states than `budget`
    /// allows, which is precisely when an uncached generation would have
    /// failed.
    pub fn of_mg(&self, mg: &MgStg, budget: usize) -> Result<(Arc<StateGraph>, bool), StgError> {
        self.lookup(mg.sg_fingerprint(), mg, budget, || {
            StateGraph::of_mg_sigma(mg, budget)
        })
    }

    /// [`SgCache::of_mg`] under a given slot and exploration, so tests can
    /// force fingerprint collisions and nest requests. The graph stored
    /// under `mg`'s key once its state count fits `budget` (a hit), or else
    /// `explore`'s graph (a miss), which is stored iff `fingerprint` was
    /// requested before. A stored graph over `budget` and an error from
    /// `explore` are returned as errors: counted as neither, stored and
    /// marked nowhere.
    fn lookup(
        &self,
        fingerprint: u64,
        mg: &MgStg,
        budget: usize,
        explore: impl FnOnce() -> Result<StateGraph, StgError>,
    ) -> Result<(Arc<StateGraph>, bool), StgError> {
        let (stored, seen) = match self.lock().get(&fingerprint) {
            None => (None, false),
            Some(slot) => (
                slot.iter()
                    .find(|(key, _)| key.matches(mg))
                    .map(|(_, sg)| Arc::clone(sg)),
                true,
            ),
        };
        // Nothing below runs under the lock.
        if let Some(sg) = stored {
            // Generation fails iff the reachable state count exceeds the
            // budget; replay that outcome for graphs cached under a larger
            // one.
            if sg.state_count() > budget {
                return Err(StgError::Petri(PetriError::StateBudgetExceeded { budget }));
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((sg, true));
        }
        let sg = Arc::new(explore()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let key = seen.then(|| mg.sg_key());
        match self.lock().entry(fingerprint) {
            Entry::Vacant(slot) => {
                slot.insert(Vec::new());
            }
            Entry::Occupied(slot) => {
                // A repeat request. Its key is built under the lock only
                // when a concurrent first request marked the slot after
                // this one looked.
                let key = key.unwrap_or_else(|| mg.sg_key());
                let slot = slot.into_mut();
                // Concurrent corpus rows may race on the same key; the
                // graphs are identical, so the first one stored stays.
                if !slot.iter().any(|(stored, _)| *stored == key) {
                    slot.push((key, Arc::clone(&sg)));
                }
            }
        }
        Ok((sg, false))
    }

    /// The slots. No exploration runs under the lock and every update
    /// leaves the map valid, so a lock poisoned by a panic elsewhere is
    /// taken over as is.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().values().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_stg::parse_astg;

    /// The marked graph of a ring of `n` signals that rise in turn and then
    /// fall in turn: `2n` states. `ring(2)` is a four-phase handshake.
    fn ring(n: usize) -> MgStg {
        let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let events: Vec<String> = ["+", "-"]
            .iter()
            .flat_map(|sign| names.iter().map(move |name| format!("{name}{sign}")))
            .collect();
        let mut text = format!(".model ring\n.inputs {}\n.graph\n", names.join(" "));
        for (i, event) in events.iter().enumerate() {
            text += &format!("{event} {}\n", events[(i + 1) % events.len()]);
        }
        text += &format!(
            ".marking {{ <{},{}> }}\n.end\n",
            events[2 * n - 1],
            events[0]
        );
        MgStg::from_stg_mg(&parse_astg(&text).expect("valid")).expect("marked graph")
    }

    /// The exploration `of_mg` runs on a miss.
    fn explore(mg: &MgStg) -> Result<StateGraph, StgError> {
        StateGraph::of_mg_sigma(mg, 100)
    }

    #[test]
    fn the_second_request_stores_and_the_third_hits() {
        let cache = SgCache::default();
        let mg = ring(2);
        let (first, hit1) = cache.of_mg(&mg, 100).expect("consistent");
        assert!(!hit1);
        assert_eq!(first.state_count(), 4);
        assert_eq!(cache.stats().entries, 0, "nothing stored");
        let (second, hit2) = cache.of_mg(&mg, 100).expect("consistent");
        assert!(!hit2);
        assert_eq!(cache.stats().entries, 1, "the repeat is stored");
        let (third, hit3) = cache
            .lookup(mg.sg_fingerprint(), &mg, 100, || {
                panic!("a stored graph is served, not explored")
            })
            .expect("consistent");
        assert!(hit3);
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                entries: 1,
            }
        );
    }

    #[test]
    fn colliding_fingerprints_serve_each_key_its_own_value() {
        let cache = SgCache::default();
        let forced = |mg: &MgStg| cache.lookup(42, mg, 100, || explore(mg));
        let (two, three) = (ring(2), ring(3));
        for _ in 0..2 {
            for mg in [&two, &three] {
                forced(mg).expect("consistent");
            }
        }
        assert_eq!(cache.stats().entries, 2, "one slot, two keys");
        for (mg, states) in [(&two, 4), (&three, 6)] {
            let (sg, hit) = forced(mg).expect("consistent");
            assert!(hit);
            assert_eq!(sg.state_count(), states);
        }
        // A third key on the same slot is explored, not served.
        let (sg, hit) = forced(&ring(4)).expect("consistent");
        assert!(!hit);
        assert_eq!(sg.state_count(), 8);
    }

    #[test]
    fn a_failing_computation_leaves_no_seen_mark() {
        let cache = SgCache::default();
        let mg = ring(2);
        assert!(cache.of_mg(&mg, 2).is_err(), "4 states exceed 2");
        // Had the failure marked the slot, this success would be stored.
        cache.of_mg(&mg, 100).expect("consistent");
        assert_eq!(cache.stats().entries, 0);
        cache.of_mg(&mg, 100).expect("consistent");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn a_repeat_request_that_raced_the_first_is_stored() {
        // The outer exploration runs outside the lock, so a request nested
        // in it completes in between, exactly as a concurrent first
        // request would: it marks the slot after the outer one looked.
        let cache = SgCache::default();
        let mg = ring(2);
        cache
            .lookup(mg.sg_fingerprint(), &mg, 100, || {
                cache.of_mg(&mg, 100)?;
                explore(&mg)
            })
            .expect("consistent");
        assert_eq!(cache.stats().entries, 1, "two requests, one stored graph");
        let (sg, hit) = cache.of_mg(&mg, 100).expect("consistent");
        assert!(hit);
        assert_eq!(sg.state_count(), 4);
    }

    #[test]
    fn second_lookup_hits_and_shares_the_graph() {
        // The first request explores and keeps nothing, the second
        // explores and stores; the lookup after that hits.
        let cache = SgCache::default();
        let mg = ring(2);
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
        let mg = ring(2);
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
        let mg = ring(2); // 4 states
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
    fn errors_count_as_neither_hit_nor_miss() {
        let cache = SgCache::default();
        let mg = ring(2);
        assert!(cache.of_mg(&mg, 2).is_err());
        assert_eq!(cache.stats(), CacheStats::default());
        for _ in 0..2 {
            assert!(cache.of_mg(&mg, 100).is_ok());
        }
        // A stored graph the budget replay rejects is not served either.
        assert!(cache.of_mg(&mg, 2).is_err());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
    }
}
