//! Output: the one-line result every run prints last, and the
//! `results.json` file with the host fingerprint.

use crate::harness::workloads::Outcome;
use crate::harness::{end_to_end_metrics, per_layer_metrics, Workload};
use cmc_store::json::Json;
use std::path::Path;

/// Version of the `results.json` layout.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// The metric values of `outcome` as `{"name": {"value", "unit"}}`, in
/// definition order: end-to-end metrics untraced, per-layer traced.
fn metrics_json(outcome: &Outcome, trace: bool) -> Json {
    let defs = if trace {
        per_layer_metrics()
    } else {
        end_to_end_metrics()
    };
    Json::Obj(
        defs.into_iter()
            .map(|d| {
                let value = outcome.metrics.get(&d.name).copied().unwrap_or(f64::NAN);
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(d.unit.into())),
                ]);
                (d.name, entry)
            })
            .collect(),
    )
}

/// `{"correct", "attempted", "failed", "metrics"}` on one line.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::int(outcome.attempted)),
        ("failed".into(), Json::int(outcome.failed)),
        ("metrics".into(), metrics_json(outcome, trace)),
    ])
    .to_compact()
}

/// One workload run as a `results.json` record.
pub fn record(workload: Workload, trace: bool, outcome: &Outcome) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("trace".into(), Json::Bool(trace)),
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::int(outcome.attempted)),
        ("failed".into(), Json::int(outcome.failed)),
        (
            "failed_frac".into(),
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("requests".into(), Json::int(outcome.requests)),
        ("setup_s".into(), Json::Num(outcome.setup_s)),
        ("window_s".into(), Json::Num(outcome.window_s)),
        ("slowdown".into(), Json::Num(outcome.slowdown)),
        ("metrics".into(), metrics_json(outcome, trace)),
    ])
}

/// A whole `results.json` document.
pub fn document(seed: u64, seconds: f64, records: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::int(SCHEMA_VERSION)),
        ("seed".into(), Json::int(seed)),
        ("seconds".into(), Json::Num(seconds)),
        ("host".into(), host()),
        ("records".into(), Json::Arr(records)),
    ])
}

/// Hardware threads, CPU model, compiler and git revision.
fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::int(nproc as u64)),
        ("cpu".into(), Json::Str(cpu)),
        (
            "rustc".into(),
            Json::Str(env!("CMC_BENCH_RUSTC_VERSION").into()),
        ),
        ("git_rev".into(), Json::Str(git_rev(Path::new(".git")))),
    ])
}

/// The commit checked out in the repository at `git_dir`, read from its
/// files; `unknown` outside a git checkout.
fn git_rev(git_dir: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git_dir.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git_dir.join(reference))
        .or_else(|| {
            read(&git_dir.join("packed-refs"))?
                .lines()
                .find_map(|l| Some(l.strip_suffix(reference)?.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
