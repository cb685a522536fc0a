//! The in-memory memoization table.

use crate::entry::Entry;
use crate::key::ObligationKey;
use crate::stats::StoreStats;
use std::collections::HashMap;
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
    /// Logical clock for LRU bookkeeping (bumped on every touch).
    clock: u64,
    stats: StoreStats,
}

/// A content-addressed, thread-safe store of verification outcomes.
///
/// Keys are structural hashes of obligations ([`ObligationKey`]); values
/// are verdicts with optional certificates ([`Entry`]). The store is
/// bounded: at capacity, the least-recently-used entry is evicted. All
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
                clock: 0,
                stats: StoreStats::default(),
            }),
            capacity,
        }
    }

    // Every update of `Inner` leaves it valid at each step (one map
    // operation or one counter bump at a time), so a panic in another
    // holder leaves nothing half-written: recover a poisoned lock.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up an obligation, counting a hit or miss.
    pub fn lookup(&self, key: &ObligationKey) -> Option<Entry> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = clock;
                let entry = slot.entry.clone();
                inner.stats.hits += 1;
                Some(entry)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Memoize an outcome, evicting the least-recently-used entry if the
    /// store is full. Re-inserting an existing key overwrites in place.
    pub fn insert(&self, key: ObligationKey, entry: Entry) {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
            {
                inner.map.remove(&victim);
                inner.stats.evictions += 1;
            }
        }
        inner.map.insert(
            key,
            Slot {
                entry,
                last_used: clock,
            },
        );
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
    /// so that saving is deterministic).
    pub fn snapshot(&self) -> Vec<(ObligationKey, Entry)> {
        let inner = self.lock();
        let mut out: Vec<(ObligationKey, Entry)> = inner
            .map
            .iter()
            .map(|(k, slot)| (*k, slot.entry.clone()))
            .collect();
        out.sort_by_key(|(k, _)| *k);
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
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.insert(
            key,
            Slot {
                entry,
                last_used: clock,
            },
        );
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
