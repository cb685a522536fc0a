//! The symbolic engine's memory kernel under measurement: garbage
//! collection, the bounded computed table, and frontier-seeded fixpoints
//! on the token-ring family — the numbers behind `BENCH_symbolic.json`.
//!
//! Three policies run the same obligations:
//!
//! * **unbounded** — maintenance disabled, computed table large enough to
//!   never rotate: the grow-forever baseline the kernel replaces;
//! * **bounded** — automatic GC at an arena threshold sized from the
//!   unbounded run's peak, plus a bounded cache, no reordering (so node
//!   counts stay comparable);
//! * **forced** — GC at every 4th safe point with periodic sift-based
//!   rehosting: the stress schedule the conformance suite pins.
//!
//! The acceptance row is the 30-station ring: with the bounded policy the
//! check's peak live nodes and bytes must land strictly below the
//! unbounded baseline while wall time stays within 1.2×. The file also
//! carries a computed-table capacity sweep and a long-lived session
//! series (live-node trajectory over a stream of checks, maintained vs
//! not) — the leak-plateau picture behind the testkit `--soak` mode.
//!
//! Quick mode (`CMC_BENCH_QUICK=1`, the CI smoke job) shrinks every sweep
//! so the binary and the JSON emitter stay exercised cheaply.

use cmc_bdd::BddStats;
use cmc_bench::ring;
use cmc_core::{Backend, SymbolicBackend, Target};
use cmc_ctl::{parse, Formula, Restriction};
use cmc_kripke::{Alphabet, System};
use cmc_smv::compile_explicit;
use cmc_store::json::Json;
use cmc_symbolic::{MaintenanceConfig, SymbolicModel};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// Arena threshold for the bounded policy: a quarter of the peak the
/// unbounded run measured on the same obligation, so every point in the
/// sweep collects a handful of times mid-fixpoint, however few nodes the
/// check needs — enough to bound the arena, not so often that cache
/// flushes dominate (the manager also adapts the threshold upward to
/// twice the live count after each collection).
fn bounded_threshold(unbounded_peak: usize) -> usize {
    unbounded_peak / 4
}

/// Computed-table capacity for the bounded and forced policies.
const BOUNDED_CACHE: usize = 1 << 15;

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

/// A real least fixpoint over the whole ring: the token reaches the far
/// station. Every fixpoint round is a safe point, so the maintenance
/// schedule gets exercised `O(n)` times per check.
fn ef_goal(n: usize) -> Formula {
    parse(&format!("EF t{}", n / 2)).unwrap()
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

/// Maintenance disabled and a computed table too big to rotate: what the
/// engine looked like before the memory kernel.
fn unbounded_backend() -> SymbolicBackend {
    SymbolicBackend::with_maintenance(MaintenanceConfig::disabled()).cache_capacity(1 << 22)
}

/// Automatic GC, bounded cache, no reordering — reorder-free so peak
/// node counts are directly comparable with the unbounded baseline.
fn bounded_backend(unbounded_peak: usize) -> SymbolicBackend {
    SymbolicBackend::with_maintenance(MaintenanceConfig {
        gc_threshold: bounded_threshold(unbounded_peak),
        ..MaintenanceConfig::default()
    })
    .cache_capacity(BOUNDED_CACHE)
}

/// Peak live nodes of one unbounded check of `f`.
fn unbounded_peak(target: &Target, r: &Restriction, f: &Formula) -> usize {
    let v = unbounded_backend().check(target, r, f).unwrap();
    v.stats
        .bdd
        .expect("symbolic backend reports BDD stats")
        .peak_live_nodes
}

/// The conformance stress schedule: collect at every 4th safe point,
/// rehost (sift + rebuild) at every 3rd collection.
fn forced_backend() -> SymbolicBackend {
    SymbolicBackend::with_maintenance(MaintenanceConfig::forced_every(4))
        .cache_capacity(BOUNDED_CACHE)
}

/// One policy on one obligation: stats from a fresh run, wall time as a
/// mean over `iters` further runs (each re-checked against the first
/// run's satisfying count, so every timed iteration is also a check).
fn run_policy(
    target: &Target,
    r: &Restriction,
    f: &Formula,
    backend: SymbolicBackend,
    iters: u32,
) -> (f64, BddStats) {
    let v = backend.check(target, r, f).unwrap();
    let stats = v.stats.bdd.expect("symbolic backend reports BDD stats");
    let expected = v.sat_states;
    let wall = mean_ns(
        || {
            let v = backend.check(target, r, f).unwrap();
            assert_eq!(v.sat_states, expected);
        },
        iters,
    );
    (wall, stats)
}

fn stats_json(wall_ns: f64, s: &BddStats) -> Json {
    Json::Obj(vec![
        ("wall_ns".into(), Json::Num(wall_ns)),
        (
            "peak_live_nodes".into(),
            Json::int(s.peak_live_nodes as u64),
        ),
        ("live_nodes".into(), Json::int(s.live_nodes as u64)),
        (
            "bytes_allocated".into(),
            Json::int(s.bytes_allocated as u64),
        ),
        (
            "nodes_allocated".into(),
            Json::int(s.nodes_allocated as u64),
        ),
        ("gc_runs".into(), Json::int(s.gc_runs)),
        ("gc_reclaimed".into(), Json::int(s.gc_reclaimed)),
        ("cache_evictions".into(), Json::int(s.cache_evictions)),
    ])
}

/// Live-node trajectory of one long-lived session over a stream of `EF`
/// checks (one per station, cycling). Maintained (with the unbounded
/// single-check peak the threshold is sized from), the curve plateaus;
/// without it the arena only grows.
fn session_series(n: usize, checks: usize, maintained: Option<usize>) -> Vec<Json> {
    let systems = stations(n);
    let refs: Vec<&System> = systems.iter().collect();
    let mut model = SymbolicModel::from_components(&refs, &Alphabet::empty());
    if let Some(peak) = maintained {
        model.set_maintenance(MaintenanceConfig {
            gc_threshold: bounded_threshold(peak),
            ..MaintenanceConfig::default()
        });
        model.mgr().set_cache_capacity(BOUNDED_CACHE);
    } else {
        model.set_maintenance(MaintenanceConfig::disabled());
    }
    let r = Restriction::trivial();
    let mut out = Vec::new();
    for i in 0..checks {
        let f = parse(&format!("EF t{}", i % n)).unwrap();
        let v = model.check(&r, &f).unwrap();
        black_box(v.holds);
        let s = model.mgr_ref().stats();
        out.push(Json::Obj(vec![
            ("check".into(), Json::int(i as u64 + 1)),
            ("live_nodes".into(), Json::int(s.live_nodes as u64)),
            (
                "peak_live_nodes".into(),
                Json::int(s.peak_live_nodes as u64),
            ),
            ("gc_runs".into(), Json::int(s.gc_runs)),
        ]));
    }
    out
}

fn emit_summary(c: &mut Criterion) {
    let quick = quick_mode();
    let sizes: &[usize] = if quick { &[8, 12] } else { &[8, 16, 26, 30] };
    let iters = if quick { 1 } else { 10 };
    let r = Restriction::trivial();

    let mut series = Vec::new();
    let mut acceptance = Json::Null;
    for &n in sizes {
        let target = Target::composition(stations(n));
        let f = ef_goal(n);
        let (u_ns, u) = run_policy(&target, &r, &f, unbounded_backend(), iters);
        let bounded = bounded_backend(u.peak_live_nodes);
        let (b_ns, b) = run_policy(&target, &r, &f, bounded, iters);
        let (f_ns, fo) = run_policy(&target, &r, &f, forced_backend(), iters);
        assert!(
            b.gc_runs > 0,
            "{n} stations: the bounded policy never collected"
        );
        assert!(
            b.peak_live_nodes < u.peak_live_nodes,
            "{n} stations: bounded peak {} not below unbounded {}",
            b.peak_live_nodes,
            u.peak_live_nodes
        );
        assert!(
            b.bytes_allocated < u.bytes_allocated,
            "{n} stations: bounded footprint {}B not below unbounded {}B",
            b.bytes_allocated,
            u.bytes_allocated
        );
        let peak_ratio = b.peak_live_nodes as f64 / u.peak_live_nodes as f64;
        let bytes_ratio = b.bytes_allocated as f64 / u.bytes_allocated as f64;
        let wall_ratio = b_ns / u_ns;
        series.push(Json::Obj(vec![
            ("stations".into(), Json::int(n as u64)),
            ("unbounded".into(), stats_json(u_ns, &u)),
            ("bounded".into(), stats_json(b_ns, &b)),
            ("forced".into(), stats_json(f_ns, &fo)),
            ("bounded_peak_ratio".into(), Json::Num(peak_ratio)),
            ("bounded_bytes_ratio".into(), Json::Num(bytes_ratio)),
            ("bounded_wall_ratio".into(), Json::Num(wall_ratio)),
        ]));
        // The acceptance row is the largest ring in the sweep (30
        // stations in a full run): bounded strictly below baseline on
        // peak nodes and bytes, wall within 1.2×.
        if n == *sizes.last().unwrap() {
            acceptance = Json::Obj(vec![
                ("stations".into(), Json::int(n as u64)),
                (
                    "peak_below_baseline".into(),
                    Json::Bool(b.peak_live_nodes < u.peak_live_nodes),
                ),
                (
                    "bytes_below_baseline".into(),
                    Json::Bool(b.bytes_allocated < u.bytes_allocated),
                ),
                ("wall_ratio".into(), Json::Num(wall_ratio)),
                ("wall_ratio_target".into(), Json::Num(1.2)),
                ("wall_within_target".into(), Json::Bool(wall_ratio <= 1.2)),
            ]);
        }
    }

    // Computed-table capacity sweep at a fixed ring size: how small can
    // the cache go before rotation churn shows up in the wall time.
    let sweep_stations = if quick { 8 } else { 16 };
    let sweep_target = Target::composition(stations(sweep_stations));
    let sweep_f = ef_goal(sweep_stations);
    let caps: &[usize] = if quick {
        &[1 << 8, 1 << 12]
    } else {
        &[1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16]
    };
    let mut cache_series = Vec::new();
    for &cap in caps {
        let backend =
            SymbolicBackend::with_maintenance(MaintenanceConfig::disabled()).cache_capacity(cap);
        let (wall, s) = run_policy(&sweep_target, &r, &sweep_f, backend, iters);
        let lookups = s.cache_hits + s.cache_misses;
        let hit_rate = if lookups == 0 {
            Json::Null
        } else {
            Json::Num(s.cache_hits as f64 / lookups as f64)
        };
        cache_series.push(Json::Obj(vec![
            ("capacity".into(), Json::int(cap as u64)),
            ("wall_ns".into(), Json::Num(wall)),
            ("cache_hits".into(), Json::int(s.cache_hits)),
            ("cache_misses".into(), Json::int(s.cache_misses)),
            ("cache_evictions".into(), Json::int(s.cache_evictions)),
            ("hit_rate".into(), hit_rate),
        ]));
    }

    // Long-lived session: live-node trajectory with and without the
    // kernel, over a stream of checks against one shared manager.
    let session_stations = if quick { 8 } else { 12 };
    let session_checks = if quick { 8 } else { 24 };
    let session_peak = unbounded_peak(
        &Target::composition(stations(session_stations)),
        &r,
        &ef_goal(session_stations),
    );
    let maintained = session_series(session_stations, session_checks, Some(session_peak));
    let unmaintained = session_series(session_stations, session_checks, None);

    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("symbolic_kernel".into())),
        ("family".into(), Json::Str("token-ring".into())),
        (
            "unit".into(),
            Json::Str(format!("ns/iter (mean of {iters})")),
        ),
        ("quick".into(), Json::Bool(quick)),
        (
            "obligation".into(),
            Json::Str("EF t[n/2] over the n-station ring".into()),
        ),
        (
            "policies".into(),
            Json::Obj(vec![
                (
                    "unbounded".into(),
                    Json::Str("maintenance disabled, cache 2^22 (never rotates)".into()),
                ),
                (
                    "bounded".into(),
                    Json::Str(format!(
                        "auto GC at a quarter of the unbounded peak, cache {BOUNDED_CACHE}, \
                         no reorder"
                    )),
                ),
                (
                    "forced".into(),
                    Json::Str(format!(
                        "GC every 4th safe point, rehost every 3rd GC, cache {BOUNDED_CACHE}"
                    )),
                ),
            ]),
        ),
        ("ring".into(), Json::Arr(series)),
        ("acceptance".into(), acceptance),
        (
            "cache_sweep".into(),
            Json::Obj(vec![
                ("stations".into(), Json::int(sweep_stations as u64)),
                ("series".into(), Json::Arr(cache_series)),
            ]),
        ),
        (
            "session".into(),
            Json::Obj(vec![
                ("stations".into(), Json::int(session_stations as u64)),
                ("checks".into(), Json::int(session_checks as u64)),
                ("maintained".into(), Json::Arr(maintained)),
                ("unmaintained".into(), Json::Arr(unmaintained)),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_symbolic.json");
    std::fs::write(path, doc.to_pretty() + "\n").expect("write BENCH_symbolic.json");
    c.bench_function("symbolic_kernel_summary_emitted", |b| {
        b.iter(|| black_box(&doc))
    });
}

/// Criterion-visible timings for the bounded policy at a mid size (the
/// summary emitter above owns the JSON artifact).
fn bounded_kernel(c: &mut Criterion) {
    let n = if quick_mode() { 8 } else { 16 };
    let target = Target::composition(stations(n));
    let r = Restriction::trivial();
    let f = ef_goal(n);
    let bounded = bounded_backend(unbounded_peak(&target, &r, &f));
    c.bench_function(&format!("symbolic_bounded_{n}"), |b| {
        b.iter(|| {
            let v = bounded.check(&target, &r, &f).unwrap();
            black_box(v.sat_states)
        })
    });
}

criterion_group!(
    name = symbolic_kernel;
    config = Criterion::default().sample_size(10);
    targets = bounded_kernel, emit_summary
);
criterion_main!(symbolic_kernel);
