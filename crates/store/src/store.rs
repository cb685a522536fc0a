//! The in-memory memoization table.

use crate::entry::Entry;
use crate::key::ObligationKey;
use crate::stats::StoreStats;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default capacity: plenty for every obligation of the paper's case
/// studies while bounding memory for adversarial workloads.
const DEFAULT_CAPACITY: usize = 4096;

struct Slot {
    entry: Entry,
    last_used: u64,
}

struct Inner {
    map: HashMap<ObligationKey, Slot>,
    /// The recency index: each resident key under its slot's `last_used`
    /// clock, so the first entry is the least recently used. Every touch
    /// takes a fresh clock value, so no two slots share one.
    recency: BTreeMap<u64, ObligationKey>,
    /// Logical clock for LRU bookkeeping (bumped on every touch).
    clock: u64,
    stats: StoreStats,
}

impl Inner {
    /// Put `entry` under `key` as the most recently used entry, moving
    /// the key's recency entry (an overwrite drops its old clock).
    fn put(&mut self, key: ObligationKey, entry: Entry) {
        self.clock += 1;
        let slot = Slot {
            entry,
            last_used: self.clock,
        };
        if let Some(old) = self.map.insert(key, slot) {
            self.recency.remove(&old.last_used);
        }
        self.recency.insert(self.clock, key);
    }
}

/// A content-addressed, thread-safe store of verification outcomes.
///
/// Keys are structural hashes of obligations ([`ObligationKey`]); values
/// are verdicts with optional certificates ([`Entry`]). The store is
/// bounded: at capacity, the least-recently-used entry is evicted, found
/// in O(log n) through a recency index ordered by the LRU clock. All
/// methods take `&self`; interior mutability is one [`Mutex`], so a store
/// shared behind `Arc` can serve several engines and `cmc-serve`'s
/// concurrent batch workers. (Every lookup updates the LRU clock and the
/// hit/miss counters, so a reader/writer lock would have no shared side
/// worth having.)
pub struct CertStore {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl CertStore {
    /// Store with the default capacity.
    pub fn new() -> Self {
        CertStore::with_capacity(DEFAULT_CAPACITY)
    }

    /// Store holding at most `capacity` entries (`capacity ≥ 1`).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "store capacity must be positive");
        CertStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                clock: 0,
                stats: StoreStats::default(),
            }),
            capacity,
        }
    }

    // No update of `Inner` can panic between its map and its recency
    // index (both are plain collection operations on owned keys), so a
    // panic in another holder leaves nothing half-written: recover a
    // poisoned lock.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up an obligation, counting a hit or miss.
    pub fn lookup(&self, key: &ObligationKey) -> Option<Entry> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let Inner {
            map,
            recency,
            stats,
            ..
        } = &mut *inner;
        match map.get_mut(key) {
            Some(slot) => {
                recency.remove(&slot.last_used);
                recency.insert(clock, *key);
                slot.last_used = clock;
                stats.hits += 1;
                Some(slot.entry.clone())
            }
            None => {
                stats.misses += 1;
                None
            }
        }
    }

    /// Memoize an outcome, evicting the least-recently-used entry if the
    /// store is full. Re-inserting an existing key overwrites in place.
    pub fn insert(&self, key: ObligationKey, entry: Entry) {
        let mut inner = self.lock();
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some((_, victim)) = inner.recency.pop_first() {
                inner.map.remove(&victim);
                inner.stats.evictions += 1;
            }
        }
        inner.put(key, entry);
        inner.stats.insertions += 1;
    }

    /// The memoizing check wrapper: return the stored outcome for `key`,
    /// or run `check`, store its result, and return it. The second element
    /// reports whether this was a store hit. Errors are returned verbatim
    /// and never cached (a failed check may succeed on retry, e.g. after
    /// an out-of-scope proposition is added).
    pub fn get_or_check<E>(
        &self,
        key: ObligationKey,
        check: impl FnOnce() -> Result<Entry, E>,
    ) -> Result<(Entry, bool), E> {
        if let Some(entry) = self.lookup(&key) {
            return Ok((entry, true));
        }
        let entry = check()?;
        self.insert(key, entry.clone());
        Ok((entry, false))
    }

    /// Counter snapshot (with `entries` filled in).
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        let mut stats = inner.stats;
        stats.entries = inner.map.len();
        stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All resident entries, sorted by key, for the on-disk layer (sorted
    /// so that saving is deterministic). The sort runs after the lock is
    /// released, so lookups wait only for the copy.
    pub fn snapshot(&self) -> Vec<(ObligationKey, Entry)> {
        let mut out: Vec<(ObligationKey, Entry)> = self
            .lock()
            .map
            .iter()
            .map(|(k, slot)| (*k, slot.entry.clone()))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Install an entry loaded from disk (bypasses miss counting; counts a
    /// disk load instead) and report whether it was installed. A resident
    /// key is overwritten in place, so a later segment overrides an
    /// earlier one even in a full store; a new key is dropped once the
    /// store is full, because disk entries never evict live results.
    pub(crate) fn install_from_disk(&self, key: ObligationKey, entry: Entry) -> bool {
        let mut inner = self.lock();
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            return false;
        }
        inner.put(key, entry);
        inner.stats.disk_loads += 1;
        true
    }

    /// Count a rejected on-disk entry.
    pub(crate) fn count_disk_reject(&self) {
        self.lock().stats.disk_rejects += 1;
    }

    /// Count a skipped (torn/truncated/unreadable) on-disk segment.
    pub(crate) fn count_segment_skip(&self) {
        self.lock().stats.segments_skipped += 1;
    }

    /// Record one compaction pass over the segmented disk tier: how many
    /// entries the byte budget evicted and the resulting disk footprint.
    pub(crate) fn count_compaction(&self, budget_evicted: u64, disk_bytes: u64) {
        let mut inner = self.lock();
        inner.stats.compactions += 1;
        inner.stats.budget_evictions += budget_evicted;
        inner.stats.disk_bytes = disk_bytes;
    }

    /// Record the disk tier's current byte footprint (after an append).
    pub(crate) fn note_disk_bytes(&self, disk_bytes: u64) {
        self.lock().stats.disk_bytes = disk_bytes;
    }
}

impl Default for CertStore {
    fn default() -> Self {
        CertStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{StoredCertificate, StoredStep};
    use proptest::prelude::*;

    fn key(n: u128) -> ObligationKey {
        ObligationKey(n)
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let store = CertStore::new();
        assert!(store.lookup(&key(1)).is_none());
        store.insert(key(1), Entry::verdict(true));
        assert_eq!(store.lookup(&key(1)), Some(Entry::verdict(true)));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn get_or_check_runs_the_check_exactly_once() {
        let store = CertStore::new();
        let mut runs = 0;
        let r1: Result<_, String> = store.get_or_check(key(7), || {
            runs += 1;
            Ok(Entry::verdict(false))
        });
        let (e1, hit1) = r1.unwrap();
        let r2: Result<_, String> = store.get_or_check(key(7), || {
            runs += 1;
            Ok(Entry::verdict(false))
        });
        let (e2, hit2) = r2.unwrap();
        assert_eq!(runs, 1, "underlying check must run exactly once");
        assert_eq!((hit1, hit2), (false, true));
        assert_eq!(e1, e2);
    }

    #[test]
    fn errors_are_not_cached() {
        let store = CertStore::new();
        let r: Result<(Entry, bool), String> =
            store.get_or_check(key(9), || Err("engine busy".to_string()));
        assert!(r.is_err());
        // The failed check left nothing behind; the next call runs again.
        let r2: Result<_, String> = store.get_or_check(key(9), || Ok(Entry::verdict(true)));
        assert_eq!(r2.unwrap(), (Entry::verdict(true), false));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let store = CertStore::with_capacity(2);
        store.insert(key(1), Entry::verdict(true));
        store.insert(key(2), Entry::verdict(true));
        store.lookup(&key(1)); // make key 2 the LRU entry
        store.insert(key(3), Entry::verdict(false));
        assert_eq!(store.len(), 2);
        assert!(store.lookup(&key(1)).is_some());
        assert!(
            store.lookup(&key(2)).is_none(),
            "LRU entry should be evicted"
        );
        assert!(store.lookup(&key(3)).is_some());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn certificates_round_trip_through_the_store() {
        let store = CertStore::new();
        let cert = StoredCertificate {
            goal: "C0 ∘ C1 ⊨ AG p".to_string(),
            steps: vec![StoredStep {
                description: "component C0 ⊨ AG p".to_string(),
                ok: true,
                compositional: true,
                backend: Some("explicit".to_string()),
            }],
            valid: true,
            abstractions: vec![],
        };
        store.insert(key(4), Entry::with_certificate(true, cert.clone()));
        let got = store.lookup(&key(4)).unwrap();
        assert_eq!(got.certificate, Some(cert));
    }

    #[test]
    fn snapshot_is_sorted() {
        let store = CertStore::new();
        store.insert(key(9), Entry::verdict(true));
        store.insert(key(3), Entry::verdict(false));
        store.insert(key(6), Entry::verdict(true));
        let keys: Vec<u128> = store.snapshot().iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![3, 6, 9]);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let store = Arc::new(CertStore::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..100u128 {
                        let k = key(i % 16);
                        let _ = store.get_or_check::<()>(k, || Ok(Entry::verdict(t % 2 == 0)));
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.hits + stats.misses, 400);
        assert_eq!(stats.entries, 16);
    }

    /// The LRU policy as the store kept it before its recency index: each
    /// slot carries the clock of its last touch, and a full store scans
    /// every slot for the smallest.
    #[derive(Default)]
    struct ScanLru {
        map: HashMap<ObligationKey, (Entry, u64)>,
        clock: u64,
        stats: StoreStats,
    }

    impl ScanLru {
        fn lookup(&mut self, key: &ObligationKey) -> Option<Entry> {
            self.clock += 1;
            match self.map.get_mut(key) {
                Some((entry, last_used)) => {
                    *last_used = self.clock;
                    self.stats.hits += 1;
                    Some(entry.clone())
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, capacity: usize, key: ObligationKey, entry: Entry) {
            self.clock += 1;
            if !self.map.contains_key(&key) && self.map.len() >= capacity {
                if let Some(victim) = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(k, _)| *k)
                {
                    self.map.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            self.map.insert(key, (entry, self.clock));
            self.stats.insertions += 1;
        }

        fn install_from_disk(&mut self, capacity: usize, key: ObligationKey, entry: Entry) -> bool {
            if !self.map.contains_key(&key) && self.map.len() >= capacity {
                return false;
            }
            self.clock += 1;
            self.map.insert(key, (entry, self.clock));
            self.stats.disk_loads += 1;
            true
        }

        fn resident(&self) -> Vec<(ObligationKey, Entry)> {
            let mut out: Vec<_> = self.map.iter().map(|(k, (e, _))| (*k, e.clone())).collect();
            out.sort_by_key(|(k, _)| *k);
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The recency index evicts exactly what the scan evicted: after
        /// every `insert`, `lookup`, `get_or_check` and `install_from_disk`
        /// the two agree on each answer, on hits, misses, insertions,
        /// evictions and disk loads, and on the resident entries; and the
        /// index holds each resident key once, under its slot's clock.
        #[test]
        fn recency_index_evicts_as_the_scan_did(
            capacity in 1usize..=8,
            ops in proptest::collection::vec((0u8..4, 0u8..12, any::<bool>()), 0..200),
        ) {
            let store = CertStore::with_capacity(capacity);
            let mut scan = ScanLru::default();
            for (step, &(op, k, verdict)) in ops.iter().enumerate() {
                let k = key(k.into());
                let entry = Entry::verdict(verdict);
                match op {
                    0 => {
                        store.insert(k, entry.clone());
                        scan.insert(capacity, k, entry);
                    }
                    1 => prop_assert_eq!(store.lookup(&k), scan.lookup(&k), "step {}", step),
                    2 => {
                        let got = store.get_or_check::<()>(k, || Ok(entry.clone())).unwrap();
                        let want = match scan.lookup(&k) {
                            Some(stored) => (stored, true),
                            None => {
                                scan.insert(capacity, k, entry.clone());
                                (entry, false)
                            }
                        };
                        prop_assert_eq!(got, want, "step {}", step);
                    }
                    _ => prop_assert_eq!(
                        store.install_from_disk(k, entry.clone()),
                        scan.install_from_disk(capacity, k, entry),
                        "step {}", step
                    ),
                }
                let mut stats = scan.stats;
                stats.entries = scan.map.len();
                prop_assert_eq!(store.stats(), stats, "step {}", step);
                prop_assert_eq!(store.snapshot(), scan.resident(), "step {}", step);
                let inner = store.lock();
                prop_assert_eq!(inner.recency.len(), inner.map.len(), "step {}", step);
                for (clock, k) in &inner.recency {
                    prop_assert_eq!(inner.map[k].last_used, *clock, "step {}", step);
                }
            }
        }
    }

    #[test]
    fn store_keeps_working_after_a_panicking_holder() {
        let store = CertStore::new();
        store.insert(key(1), Entry::verdict(true));
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = store.inner.lock();
                panic!("poison the store's lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(store.inner.is_poisoned());
        assert_eq!(store.lookup(&key(1)), Some(Entry::verdict(true)));
        store.insert(key(2), Entry::verdict(false));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().hits, 1);
    }
}
