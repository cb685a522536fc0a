//! Single-flight deduplication of in-flight obligations.
//!
//! Two cold clients asking for the same obligation at the same instant
//! both miss the store and both pay for the check — the second result is
//! thrown away when its `insert` lands on an already-memoized key. The
//! [`SingleFlight`] map closes that window: before a job runs, the
//! session claims every store obligation key the job will check (the
//! keys [`cmc_smv::spec_keys`] computes, which the driver then looks
//! up); a concurrent job sharing *any* of those keys blocks until the
//! first flight lands, then runs against the now-warm store and answers
//! from it. Keys are claimed all-or-nothing under one lock (no ordering, no
//! hold-and-wait), so two jobs with overlapping key sets cannot
//! deadlock.

use cmc_store::ObligationKey;
use std::collections::HashSet;
use std::sync::{Condvar, Mutex};

/// The pending map: obligation keys with a check currently in flight.
#[derive(Default)]
pub struct SingleFlight {
    pending: Mutex<HashSet<ObligationKey>>,
    landed: Condvar,
}

/// Releases its flight's keys (and wakes waiters) on drop, so a
/// panicking check cannot strand a key in the pending map.
pub struct FlightGuard<'a> {
    flights: &'a SingleFlight,
    keys: Vec<ObligationKey>,
}

impl SingleFlight {
    /// A fresh map with nothing in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim `keys` for one flight, blocking while **any** of them is
    /// already in flight elsewhere. The claim is atomic: either every
    /// key is inserted or the caller keeps waiting, so overlapping
    /// claims serialize instead of interleaving.
    pub fn acquire(&self, keys: Vec<ObligationKey>) -> FlightGuard<'_> {
        let mut pending = self.pending.lock().expect("single-flight map poisoned");
        while keys.iter().any(|k| pending.contains(k)) {
            pending = self
                .landed
                .wait(pending)
                .expect("single-flight map poisoned");
        }
        for k in &keys {
            pending.insert(*k);
        }
        drop(pending);
        FlightGuard {
            flights: self,
            keys,
        }
    }

    /// Number of keys currently in flight (tests and stats).
    pub fn in_flight(&self) -> usize {
        self.pending
            .lock()
            .expect("single-flight map poisoned")
            .len()
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut pending = self
            .flights
            .pending
            .lock()
            .expect("single-flight map poisoned");
        for k in &self.keys {
            pending.remove(k);
        }
        drop(pending);
        self.flights.landed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn overlapping_flights_serialize() {
        let flights = Arc::new(SingleFlight::new());
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let keys = vec![ObligationKey(1), ObligationKey(2)];
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (flights, concurrent, peak, keys) = (
                    Arc::clone(&flights),
                    Arc::clone(&concurrent),
                    Arc::clone(&peak),
                    keys.clone(),
                );
                std::thread::spawn(move || {
                    let _guard = flights.acquire(keys);
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "flights overlapped");
        assert_eq!(flights.in_flight(), 0);
    }

    #[test]
    fn disjoint_flights_run_concurrently() {
        let flights = SingleFlight::new();
        let a = flights.acquire(vec![ObligationKey(1)]);
        // A disjoint claim must not block even while `a` is in flight.
        let b = flights.acquire(vec![ObligationKey(2)]);
        assert_eq!(flights.in_flight(), 2);
        drop(a);
        drop(b);
        assert_eq!(flights.in_flight(), 0);
    }

    #[test]
    fn guard_releases_on_panic() {
        let flights = Arc::new(SingleFlight::new());
        let f = Arc::clone(&flights);
        let res = std::thread::spawn(move || {
            let _guard = f.acquire(vec![ObligationKey(7)]);
            panic!("check blew up");
        })
        .join();
        assert!(res.is_err());
        // The key must not be stranded: a re-acquire returns immediately.
        let _again = flights.acquire(vec![ObligationKey(7)]);
        assert_eq!(flights.in_flight(), 1);
    }
}
