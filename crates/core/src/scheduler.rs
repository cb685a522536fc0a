//! Bounded work-claiming scheduler for obligation fan-out.
//!
//! The proof engine fans independent component obligations out over it
//! (`Engine::check_universal`, `Engine::prove_invariant`), and `cmc-serve`
//! runs each batch's jobs through [`run_bounded`]. The parallelism sits
//! between obligations, as in the paper's Discussion: every single check
//! (one labelling or BDD fixpoint) runs on one thread.
//!
//! One OS thread per component would be fine for the paper's
//! three-process AFS case study and pathological for a 30-component proof
//! on a 4-core box (oversubscription, stack pressure, unbounded spawn
//! cost). This module is a *bounded* scheduler instead: at most
//! `min(available_parallelism, tasks)` worker threads share one atomic
//! claim counter over the task list, so every core stays busy, no task
//! waits behind an idle sibling, and adding components adds queue
//! entries, not threads.
//!
//! Determinism: results are written to the slot matching each task's
//! index, so the output order equals the input order *regardless of the
//! worker count or claim interleaving*. A panic inside one task degrades
//! to `Err(message)` for that slot only; sibling tasks are unaffected.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Render a captured panic payload as a task-level error message.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("component check panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("component check panicked: {s}")
    } else {
        "component check panicked".to_string()
    }
}

/// The scheduler's default worker cap: the machine's available
/// parallelism, falling back to 1 when it cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `count` tasks on at most `workers` threads, claiming tasks off a
/// shared atomic counter. Returns the results in task-index order,
/// converting a panicked task into `Err(message)` for that slot only.
///
/// `workers` is clamped to `[1, count]`; `workers == 1` runs everything
/// on one spawned thread (still through the claim loop, so the code path
/// is identical to the parallel one).
pub fn run_bounded<T, F>(count: usize, workers: usize, job: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, count);
    let next = AtomicUsize::new(0);
    // One pre-sized slot per task: each is written by exactly the worker
    // that claimed the task, so index order is preserved by construction.
    let slots: Vec<std::sync::Mutex<Option<Result<T, String>>>> =
        (0..count).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let slots = &slots;
            let job = &job;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                let out = catch_unwind(AssertUnwindSafe(|| job(i)))
                    .map_err(|p| panic_message(p.as_ref()));
                *slots[i].lock().expect("slot lock poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock poisoned")
                .expect("scope join guarantees every task ran")
        })
        .collect()
}

/// [`run_bounded`] at the machine's [`default_workers`] cap.
pub fn run<T, F>(count: usize, job: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_bounded(count, default_workers(), job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_task_order_for_every_worker_count() {
        let expect: Vec<Result<usize, String>> = (0..37).map(|i| Ok(i * i)).collect();
        for workers in [1, 2, 4, 8, 64] {
            let got = run_bounded(37, workers, |i| i * i);
            assert_eq!(got, expect, "worker count {workers}");
        }
    }

    #[test]
    fn worker_count_is_bounded_by_tasks_and_cap() {
        // Track the peak number of concurrently live jobs; with a cap of
        // 2 workers it can never exceed 2 even for 16 tasks.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_bounded(16, 2, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let got: Vec<Result<u8, String>> = run_bounded(0, 8, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_bounded(100, 7, |i| {
            runs[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn panic_degrades_to_err_for_that_slot_only() {
        let got = run_bounded(5, 3, |i| {
            if i == 2 {
                panic!("injected fault in job {i}");
            }
            i * 10
        });
        assert_eq!(got[0], Ok(0));
        assert_eq!(got[1], Ok(10));
        assert_eq!(got[3], Ok(30));
        assert_eq!(got[4], Ok(40));
        let err = got[2].as_ref().unwrap_err();
        assert!(err.contains("panicked"), "unexpected message: {err}");
        assert!(err.contains("injected fault"), "payload lost: {err}");
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
