//! Partitioned vs monolithic transition relations on the token-ring
//! family — the numbers behind `BENCH_partition.json`.
//!
//! The obligation is `BENCH_symbolic.json`'s `EF t[n/2]`, checked with
//! the default scheduled image (cluster merging + cost-model ordering)
//! and with the memoised monolithic relation. The product relation is
//! never built on the scheduled path; the monolithic leg is the
//! measurable baseline it replaces. Both legs decide the same set, so
//! every timed iteration is also a differential check. The largest ring
//! also times the merged plan (the default) against the unmerged control
//! plan (`SymbolicBackend::unmerged`, one cluster per station) and records
//! a merged-vs-unmerged acceptance row (≥1.3× wall or ≥20 % peak-live-node
//! reduction).
//!
//! `BENCH_symbolic.json` is a fixed record: the memory-kernel sweep that
//! wrote it last ran at commit `1b55cc2`. Its 30-station unbounded wall
//! is the pre-partition baseline the acceptance row compares against.
//!
//! Quick mode (`CMC_BENCH_QUICK=1`, the CI partition-smoke job) shrinks
//! the sizes and runs one iteration per point so the binary and the JSON
//! emitter stay exercised cheaply.
//!
//! Run with `cargo bench -p cmc-bench --bench partition_kernel`; it
//! overwrites the committed `BENCH_partition.json`.

use cmc_bench::ring;
use cmc_core::{ImageMode, SymbolicBackend, Target};
use cmc_ctl::{parse, Formula, Restriction};
use cmc_store::json::Json;
use std::time::Instant;

/// Same least fixpoint as `BENCH_symbolic.json`: the token reaches the
/// far station.
fn ef_goal(n: usize) -> Formula {
    parse(&format!("EF t{}", n / 2)).unwrap()
}

fn quick_mode() -> bool {
    std::env::var_os("CMC_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// A wall-time baseline recorded by a sibling artifact: the `field` of
/// the `series_key` row at `stations` in `file` (repo root). `None` when
/// the artifact is absent or shaped differently — acceptance rows then
/// say so instead of guessing.
fn recorded_baseline(file: &str, series_key: &str, stations: usize, path: &[&str]) -> Option<f64> {
    let file_path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let doc = Json::parse(&std::fs::read_to_string(file_path).ok()?).ok()?;
    let mut v = doc
        .get(series_key)?
        .as_arr()?
        .iter()
        .find(|row| row.get("stations").and_then(Json::as_num) == Some(stations as f64))?;
    for key in path {
        v = v.get(key)?;
    }
    v.as_num()
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

fn main() {
    let quick = quick_mode();
    let iters = if quick { 1 } else { 10 };
    let r = Restriction::trivial();
    let avail = cmc_core::scheduler::default_workers();

    // ------------------------------------------------------------------
    // Symbolic: scheduled early quantification vs the memoised
    // monolithic relation, same obligation as BENCH_symbolic so the two
    // files are directly comparable.
    // ------------------------------------------------------------------
    let sym_sizes: &[usize] = if quick { &[8, 12] } else { &[20, 30] };
    let mut sym_series = Vec::new();
    let mut sym_acceptance = Json::Null;
    let mut sched_acceptance = Json::Null;
    let mut merge_sweep = Vec::new();
    for &n in sym_sizes {
        let stations = ring::stations(n);
        let target = Target::composition(stations.iter().collect());
        let f = ef_goal(n);

        let sched_backend = SymbolicBackend::default();
        let mono_backend = SymbolicBackend::default().with_image_mode(ImageMode::Monolithic);

        // Every timed iteration is also a differential check against the
        // scheduled leg's exact sat count.
        let sv = sched_backend.check(&target, &r, &f).unwrap();
        let expected = sv.sat_states;
        let partitions = sv.stats.partitions;
        let sched_peak = sv.stats.bdd.map_or(0, |b| b.peak_live_nodes);
        let (clusters_before, clusters_after) = sv
            .stats
            .schedule
            .as_ref()
            .map_or((0, 0), |s| (s.clusters_before, s.clusters_after));

        let sched_ns = mean_ns(
            || {
                let v = sched_backend.check(&target, &r, &f).unwrap();
                assert_eq!(v.sat_states, expected);
            },
            iters,
        );
        let mono_ns = mean_ns(
            || {
                let v = mono_backend.check(&target, &r, &f).unwrap();
                assert_eq!(v.sat_states, expected);
            },
            iters,
        );

        sym_series.push(Json::Obj(vec![
            ("stations".into(), Json::int(n as u64)),
            ("partitions".into(), Json::int(partitions as u64)),
            ("scheduled_ns".into(), Json::Num(sched_ns)),
            ("monolithic_ns".into(), Json::Num(mono_ns)),
            ("speedup".into(), Json::Num(mono_ns / sched_ns)),
            ("scheduled_peak_live".into(), Json::int(sched_peak as u64)),
            ("clusters_before".into(), Json::int(clusters_before as u64)),
            ("clusters_after".into(), Json::int(clusters_after as u64)),
        ]));
        // The acceptance row is the largest ring in the sweep (30
        // stations in a full run): the scheduled image — which never
        // materialises the product relation — must beat the wall the
        // pre-partition engine recorded in BENCH_symbolic.json (its
        // `unbounded` policy rebuilt the full relation per check).
        if n == *sym_sizes.last().unwrap() {
            let recorded =
                recorded_baseline("BENCH_symbolic.json", "ring", n, &["unbounded", "wall_ns"]);
            let beats = match recorded {
                Some(base) => Json::Bool(sched_ns < base),
                None => Json::Null,
            };
            sym_acceptance = Json::Obj(vec![
                ("stations".into(), Json::int(n as u64)),
                ("scheduled_ns".into(), Json::Num(sched_ns)),
                ("monolithic_ns".into(), Json::Num(mono_ns)),
                (
                    "recorded_symbolic_baseline_ns".into(),
                    recorded.map_or(Json::Null, Json::Num),
                ),
                ("beats_recorded_baseline".into(), beats),
            ]);
            // The merge sweep: the merged plan against the unmerged
            // control plan, which keeps one cluster per station and so
            // measures what ordering alone buys. The unmerged row is the
            // control the acceptance row below compares against.
            let mut unmerged = (0.0, 0);
            for (plan, backend) in [
                ("unmerged", sched_backend.unmerged()),
                ("merged", sched_backend),
            ] {
                let v = backend.check(&target, &r, &f).unwrap();
                assert_eq!(v.sat_states, expected, "{plan} plan diverged");
                let peak = v.stats.bdd.map_or(0, |b| b.peak_live_nodes);
                let after = v.stats.schedule.as_ref().map_or(0, |s| s.clusters_after);
                let wall = mean_ns(
                    || {
                        let v = backend.check(&target, &r, &f).unwrap();
                        assert_eq!(v.sat_states, expected);
                    },
                    iters,
                );
                if backend.unmerged {
                    unmerged = (wall, peak);
                }
                merge_sweep.push(Json::Obj(vec![
                    ("plan".into(), Json::Str(plan.into())),
                    ("clusters_after".into(), Json::int(after as u64)),
                    ("wall_ns".into(), Json::Num(wall)),
                    ("peak_live".into(), Json::int(peak as u64)),
                ]));
            }
            // Merged-plan acceptance against the unmerged sweep row, same
            // host, same run: a ≥1.3× wall-time speedup OR a ≥20 %
            // peak-live-node reduction counts.
            let (unmerged_ns, unmerged_peak) = unmerged;
            let wall_speedup = unmerged_ns / sched_ns;
            let peak_drop_pct = if unmerged_peak > 0 {
                100.0 * (unmerged_peak as f64 - sched_peak as f64) / unmerged_peak as f64
            } else {
                0.0
            };
            sched_acceptance = Json::Obj(vec![
                ("stations".into(), Json::int(n as u64)),
                ("unmerged_ns".into(), Json::Num(unmerged_ns)),
                ("scheduled_ns".into(), Json::Num(sched_ns)),
                ("wall_speedup".into(), Json::Num(wall_speedup)),
                ("unmerged_peak_live".into(), Json::int(unmerged_peak as u64)),
                ("scheduled_peak_live".into(), Json::int(sched_peak as u64)),
                ("peak_live_reduction_pct".into(), Json::Num(peak_drop_pct)),
                (
                    "meets_target".into(),
                    Json::Bool(wall_speedup >= 1.3 || peak_drop_pct >= 20.0),
                ),
            ]);
        }
    }

    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("partition_kernel".into())),
        ("family".into(), Json::Str("token-ring".into())),
        (
            "unit".into(),
            Json::Str(format!("ns/iter (mean of {iters})")),
        ),
        ("quick".into(), Json::Bool(quick)),
        ("available_parallelism".into(), Json::int(avail as u64)),
        (
            "obligation".into(),
            Json::Str("EF t[n/2] over the n-station ring".into()),
        ),
        (
            "modes".into(),
            Json::Obj(vec![
                (
                    "scheduled".into(),
                    Json::Str(
                        "per-component disjunctive partition, early quantification \
                         (and_exists per cluster), the product relation never built; \
                         cost-driven schedule: overlap/size-triggered cluster merging \
                         plus greedy cost-model ordering, planned once per model \
                         (bit-identical to the unmerged plan)"
                            .into(),
                    ),
                ),
                (
                    "monolithic".into(),
                    Json::Str("root-memoised full transition relation (the seed strategy)".into()),
                ),
            ]),
        ),
        ("symbolic".into(), Json::Arr(sym_series)),
        ("symbolic_acceptance".into(), sym_acceptance),
        ("scheduled_acceptance".into(), sched_acceptance),
        ("merge_sweep".into(), Json::Arr(merge_sweep)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_partition.json");
    std::fs::write(path, doc.to_pretty() + "\n").expect("write BENCH_partition.json");
}
