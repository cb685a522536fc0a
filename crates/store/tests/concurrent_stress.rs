//! Concurrency stress for the shared `CertStore` tier: N writer threads
//! and M reader threads hammer an overlapping key range, as concurrent
//! `cmc-serve` sessions do. The invariants under test:
//!
//! * **no lost entries** — every key any writer inserted is resident
//!   afterwards (capacity exceeds the key range, so nothing may evict),
//!   and its verdict is one a writer actually wrote;
//! * **stable stats** — counters tally exactly with the operations
//!   performed (lookups = hits + misses, insertions counted once each,
//!   zero evictions below capacity);
//! * **`get_or_check` coherence** — once any thread memoizes a key, every
//!   later `get_or_check` returns that verdict without re-running;
//! * **exact eviction at capacity** — writers inserting fresh keys past a
//!   small capacity leave it exactly full, evict exactly the excess, and
//!   never let a concurrent reader see it over capacity.

use cmc_store::{CertStore, Entry, ObligationKey};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const WRITERS: usize = 4;
const READERS: usize = 4;
const KEYS: u128 = 64;
const ITERS: usize = 250;

/// The deterministic verdict every writer agrees on for `key`.
fn verdict_for(key: u128) -> bool {
    key.is_multiple_of(3)
}

#[test]
fn writers_and_readers_lose_nothing_and_stats_stay_coherent() {
    let store = Arc::new(CertStore::with_capacity(4096));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..ITERS {
                    // Overlapping ranges: every writer touches every key,
                    // offset so interleavings differ.
                    let k = ((w * 17 + i) as u128) % KEYS;
                    store.insert(ObligationKey(k), Entry::verdict(verdict_for(k)));
                }
            });
        }
        for r in 0..READERS {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..ITERS {
                    let k = ((r * 29 + i) as u128) % KEYS;
                    if let Some(entry) = store.lookup(&ObligationKey(k)) {
                        assert_eq!(
                            entry.verdict,
                            verdict_for(k),
                            "reader observed a verdict no writer wrote for key {k}"
                        );
                    }
                }
            });
        }
    });

    // No lost entries: every key written is resident with its verdict.
    for k in 0..KEYS {
        let entry = store
            .lookup(&ObligationKey(k))
            .unwrap_or_else(|| panic!("key {k} was lost"));
        assert_eq!(entry.verdict, verdict_for(k));
    }

    let stats = store.stats();
    assert_eq!(stats.entries, KEYS as usize);
    assert_eq!(stats.insertions, (WRITERS * ITERS) as u64);
    // Reader lookups plus the verification sweep above.
    assert_eq!(
        stats.hits + stats.misses,
        (READERS * ITERS) as u64 + KEYS as u64
    );
    assert_eq!(stats.evictions, 0, "capacity was never exceeded");
}

#[test]
fn get_or_check_memoizes_exactly_once_per_key_under_contention() {
    let store = Arc::new(CertStore::with_capacity(4096));
    let runs: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    std::thread::scope(|scope| {
        for t in 0..(WRITERS + READERS) {
            let store = Arc::clone(&store);
            let runs = Arc::clone(&runs);
            scope.spawn(move || {
                for i in 0..ITERS {
                    let k = ((t * 13 + i) as u128) % KEYS;
                    let (entry, _hit) = store
                        .get_or_check::<std::convert::Infallible>(ObligationKey(k), || {
                            runs[k as usize].fetch_add(1, Ordering::SeqCst);
                            Ok(Entry::verdict(verdict_for(k)))
                        })
                        .unwrap();
                    assert_eq!(entry.verdict, verdict_for(k));
                }
            });
        }
    });
    // Contention may race two first-checks for the same key (lookup-then-
    // insert is not one critical section — by design, checks run outside
    // the lock), but the count must stay far below once-per-lookup and
    // every key must have been computed at least once.
    let total: u64 = runs.iter().map(|r| r.load(Ordering::SeqCst)).sum();
    assert!(total >= KEYS as u64, "every key computed at least once");
    let lookups = ((WRITERS + READERS) * ITERS) as u64;
    assert!(
        total <= KEYS as u64 * (WRITERS + READERS) as u64,
        "at most one duplicated first-check per contending thread"
    );
    assert!(total < lookups / 4, "memoization absorbed the workload");
    let stats = store.stats();
    assert_eq!(stats.hits + stats.misses, lookups);
    assert_eq!(stats.entries, KEYS as usize);
}

#[test]
fn writers_past_capacity_evict_exactly_the_excess() {
    const CAPACITY: usize = 48;
    const FRESH: usize = 400;
    let store = Arc::new(CertStore::with_capacity(CAPACITY));
    let largest = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                // Disjoint fresh keys: writer `w` owns every key ≡ w mod WRITERS.
                for i in 0..FRESH {
                    let k = (i * WRITERS + w) as u128;
                    store.insert(ObligationKey(k), Entry::verdict(verdict_for(k)));
                }
            });
        }
        for r in 0..READERS {
            let store = Arc::clone(&store);
            let largest = Arc::clone(&largest);
            scope.spawn(move || {
                for i in 0..ITERS * 4 {
                    let k = ((r * 31 + i * 7) % (WRITERS * FRESH)) as u128;
                    if let Some(entry) = store.lookup(&ObligationKey(k)) {
                        assert_eq!(entry.verdict, verdict_for(k), "key {k}");
                    }
                    largest.fetch_max(store.len(), Ordering::Relaxed);
                }
            });
        }
    });

    let stats = store.stats();
    assert_eq!(store.len(), CAPACITY);
    assert_eq!(stats.insertions, (WRITERS * FRESH) as u64);
    assert_eq!(stats.evictions, stats.insertions - CAPACITY as u64);
    assert_eq!(stats.hits + stats.misses, (READERS * ITERS * 4) as u64);
    for (key, entry) in store.snapshot() {
        assert!(
            key.0 < (WRITERS * FRESH) as u128,
            "key {} never written",
            key.0
        );
        assert_eq!(entry.verdict, verdict_for(key.0), "key {}", key.0);
    }
    assert!(
        largest.load(Ordering::Relaxed) <= CAPACITY,
        "a reader saw {} resident entries",
        largest.load(Ordering::Relaxed)
    );
}
