//! The explicit-state frontier kernel on the token-ring family, plus
//! bounded-scheduler scaling — the numbers behind `BENCH_explicit.json`.
//!
//! `Checker::from_components` builds CSR adjacency straight from the
//! components and runs worklist fixpoints. The `EF` rows compare every
//! timed iteration's satisfying count with the first run's, so each is
//! also a check. The pre-frontier kernel's baseline (materialised product,
//! edge-rescanning fixpoints) is no longer re-measured: the committed
//! `BENCH_explicit.json` and the README's table keep its last run.
//!
//! Quick mode (`CMC_BENCH_QUICK=1`, used by the CI smoke job) shrinks the
//! size sweep and runs one iteration per point so the binary and the JSON
//! emitter stay exercised cheaply.

use cmc_bench::ring;
use cmc_core::parallel::check_targets_with_workers;
use cmc_core::{BackendChoice, ExplicitBackend, Target};
use cmc_ctl::{parse, Formula, Restriction};
use cmc_kripke::System;
use cmc_smv::compile_explicit;
use cmc_store::json::Json;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// The `n` station systems (2-proposition alphabets `{tᵢ, tᵢ₊₁}`).
fn stations(n: usize) -> Vec<System> {
    (0..n)
        .map(|i| {
            compile_explicit(&ring::station_module(i, n))
                .unwrap()
                .system
        })
        .collect()
}

/// Same obligation as `BENCH_backend.json`'s explicit series, so the two
/// files are directly comparable.
fn handoff_formula() -> Formula {
    parse("t0 -> AX (t0 | t1)").unwrap()
}

/// A real least fixpoint: the token reaches the far side of the ring.
fn ef_goal(n: usize) -> Formula {
    Formula::ap(format!("t{}", n / 2))
}

fn quick_mode() -> bool {
    std::env::var_os("CMC_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// Mean wall time of `f` over `iters` runs (one warm-up run first), ns.
fn mean_ns(mut f: impl FnMut(), iters: u32) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn emit_summary(c: &mut Criterion) {
    let quick = quick_mode();
    let sizes: &[usize] = if quick { &[4, 8] } else { &[4, 8, 12, 16, 20] };
    let iters = if quick { 1 } else { 3 };
    let r = Restriction::trivial();
    let f = handoff_formula();

    let mut series = Vec::new();
    for &n in sizes {
        let target = Target::composition(stations(n));

        let frontier_ns = mean_ns(
            || {
                let v = ExplicitBackend::default().check(&target, &r, &f).unwrap();
                assert!(v.holds);
            },
            iters,
        );

        // The fixpoint-heavy obligation: EF (token at the far station).
        // It does NOT hold everywhere (token-free states stutter forever),
        // so every timed iteration re-checks the exact satisfying count.
        let ef = ef_goal(n).ef();
        let expected = ExplicitBackend::default()
            .check(&target, &r, &ef)
            .unwrap()
            .sat_states
            .unwrap();
        let frontier_ef_ns = mean_ns(
            || {
                let v = ExplicitBackend::default().check(&target, &r, &ef).unwrap();
                assert_eq!(v.sat_states, Some(expected));
            },
            iters,
        );

        series.push(Json::Obj(vec![
            ("stations".into(), Json::int(n as u64)),
            ("frontier_ns".into(), Json::Num(frontier_ns)),
            ("frontier_ef_ns".into(), Json::Num(frontier_ef_ns)),
        ]));
    }

    // Scheduler scaling: a batch of identical full-ring obligations
    // drained by 1/2/4/8 bounded workers. The 16-station check is a few
    // milliseconds, so the batch is long enough for worker count (not
    // spawn overhead) to dominate the wall time.
    //
    // On a single-hardware-thread host the sweep is REFUSED: multi-worker
    // rows there time scheduling overhead, not parallel speedup, and an
    // earlier artifact silently recorded exactly that. Only the
    // one-worker row is measured and the refusal is recorded in the
    // JSON; every emitted row carries the thread count that actually ran.
    let avail = cmc_core::scheduler::default_workers();
    let sched_stations = if quick { 8 } else { 16 };
    let sched_tasks = 16usize;
    let systems = stations(sched_stations);
    let tasks: Vec<(String, Target, Formula)> = (0..sched_tasks)
        .map(|i| {
            (
                format!("ring{i}"),
                Target::composition(systems.clone()),
                handoff_formula(),
            )
        })
        .collect();
    let worker_sweep: &[usize] = if avail == 1 { &[1] } else { &[1, 2, 4, 8] };
    let mut sched_series = Vec::new();
    for &workers in worker_sweep {
        // `run_bounded` clamps to the task count: the threads that ran.
        let threads = workers.clamp(1, sched_tasks);
        let wall = mean_ns(
            || {
                let out = check_targets_with_workers(&tasks, BackendChoice::Explicit, workers);
                assert!(out.iter().all(|(_, v)| v.as_ref().unwrap().holds));
            },
            iters,
        );
        sched_series.push(Json::Obj(vec![
            ("workers".into(), Json::int(workers as u64)),
            ("threads".into(), Json::int(threads as u64)),
            ("oversubscribed".into(), Json::Bool(threads > avail)),
            ("wall_ns".into(), Json::Num(wall)),
        ]));
    }
    let mut scheduler = vec![
        ("stations".into(), Json::int(sched_stations as u64)),
        ("tasks".into(), Json::int(sched_tasks as u64)),
        ("available_parallelism".into(), Json::int(avail as u64)),
    ];
    if avail == 1 {
        scheduler.push((
            "refused".into(),
            Json::Str(format!(
                "scaling sweep refused: available_parallelism() reports {avail} hardware \
                 thread(s), so multi-worker rows would measure scheduling overhead, not \
                 parallel speedup; only the one-worker row was recorded"
            )),
        ));
    }
    scheduler.push(("series".into(), Json::Arr(sched_series)));

    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("explicit_kernel".into())),
        ("family".into(), Json::Str("token-ring".into())),
        (
            "unit".into(),
            Json::Str(format!("ns/iter (mean of {iters})")),
        ),
        ("quick".into(), Json::Bool(quick)),
        (
            "obligation".into(),
            Json::Str("t0 -> AX (t0 | t1)  /  EF t[n/2]".into()),
        ),
        ("series".into(), Json::Arr(series)),
        ("scheduler".into(), Json::Obj(scheduler)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explicit.json");
    std::fs::write(path, doc.to_pretty() + "\n").expect("write BENCH_explicit.json");
    c.bench_function("explicit_kernel_summary_emitted", |b| {
        b.iter(|| black_box(&doc))
    });
}

/// Criterion-visible timings for the frontier path at a mid size (the
/// summary emitter above owns the JSON artifact).
fn frontier_kernel(c: &mut Criterion) {
    let n = if quick_mode() { 8 } else { 16 };
    let systems = stations(n);
    let target = Target::composition(systems);
    let r = Restriction::trivial();
    let f = handoff_formula();
    c.bench_function(&format!("frontier_explicit_{n}"), |b| {
        b.iter(|| {
            let v = ExplicitBackend::default().check(&target, &r, &f).unwrap();
            assert!(v.holds);
            black_box(v.sat_states)
        })
    });
}

criterion_group!(
    name = explicit_kernel;
    config = Criterion::default().sample_size(10);
    targets = frontier_kernel, emit_summary
);
criterion_main!(explicit_kernel);
