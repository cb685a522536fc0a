//! Runs every workload for about a second, untraced and traced, through
//! `cmc-bench run --quick`, and checks what the run left behind; checks
//! that `BENCHMARK.json` describes the metrics the harness prints.
//!
//! Run with `cargo test --release --manifest-path cmcbench/Cargo.toml`.

use cmc_perfbench::harness::{end_to_end_metrics, per_layer_metrics, Workload, RUN_SECONDS};
use cmc_store::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_json() -> Json {
    read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("no number {key}"))
}

/// One parsed line of `trace.jsonl`.
struct Span {
    parent: Option<usize>,
    start: u64,
    end: u64,
}

#[test]
fn quick_run_measures_every_workload_and_traces_nest() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("benchmark-smoke");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_cmc-bench"))
        .args(["run", "--seed", "1", "--quick"])
        .current_dir(&dir)
        .status()
        .unwrap();
    assert!(status.success(), "cmc-bench run failed: {status}");

    let runs: Vec<PathBuf> = std::fs::read_dir(dir.join("target/cmc-bench"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("run-seed1-")
        })
        .collect();
    assert_eq!(runs.len(), 1, "{runs:?}");
    let results = read_json(&runs[0].join("results.json"));
    assert_eq!(num(&results, "schema"), 1.0);
    let host = results.get("host").unwrap();
    for key in ["nproc", "cpu", "rustc", "git_rev"] {
        assert!(host.get(key).is_some(), "host fingerprint lacks {key}");
    }
    let records = results.get("records").and_then(Json::as_arr).unwrap();
    assert_eq!(records.len(), 2 * Workload::ALL.len());

    for record in records {
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let trace = record.get("trace").and_then(Json::as_bool).unwrap();
        assert_eq!(
            record.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(num(record, "failed_frac"), 0.0, "{workload}");
        assert!(num(record, "attempted") >= 1.0, "{workload}");
        let metrics = record.get("metrics").unwrap();
        let defs = if trace {
            per_layer_metrics()
        } else {
            end_to_end_metrics()
        };
        for def in defs {
            let value = metrics
                .get(&def.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num)
                .unwrap_or_else(|| panic!("{workload}: no {}", def.name));
            assert!(value.is_finite(), "{workload}: {} = {value}", def.name);
            if !trace {
                assert!(value > 0.0, "{workload}: {} = {value}", def.name);
            }
        }
        if trace {
            // `job` self time is what no layer span covers: harness glue.
            let glue = num(metrics.get("job.share").unwrap(), "value");
            assert!(
                glue < 0.05,
                "{workload}: spans leave {glue} of the time unexplained"
            );
        }
    }

    let mut spans: BTreeMap<String, Vec<Span>> = BTreeMap::new();
    let text = std::fs::read_to_string(runs[0].join("trace.jsonl")).unwrap();
    for line in text.lines() {
        let span = Json::parse(line).unwrap();
        let workload = span
            .get("workload")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let list = spans.entry(workload).or_default();
        assert_eq!(num(&span, "id") as usize, list.len(), "ids count up from 0");
        list.push(Span {
            parent: span
                .get("parent")
                .and_then(Json::as_num)
                .map(|p| p as usize),
            start: num(&span, "start_ns") as u64,
            end: num(&span, "end_ns") as u64,
        });
    }
    assert_eq!(spans.len(), Workload::ALL.len());
    for (workload, list) in &spans {
        let mut child_ns = vec![0u64; list.len()];
        for span in list {
            assert!(
                span.start <= span.end,
                "{workload}: span ends before it starts"
            );
            if let Some(p) = span.parent {
                let parent = &list[p];
                assert!(
                    parent.start <= span.start && span.end <= parent.end,
                    "{workload}: child outside its parent"
                );
                child_ns[p] += span.end - span.start;
            }
        }
        for (span, children) in list.iter().zip(&child_ns) {
            assert!(
                *children <= span.end - span.start,
                "{workload}: children overlap"
            );
        }
    }
}

#[test]
fn benchmark_json_describes_the_harness() {
    let bench = benchmark_json();
    assert_eq!(num(&bench, "run_seconds"), RUN_SECONDS as f64);
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    for (key, defs) in [
        ("end_to_end", end_to_end_metrics()),
        ("per_layer", per_layer_metrics()),
    ] {
        let listed = bench.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (metric, def) in listed.iter().zip(&defs) {
            assert_eq!(
                metric.get("name").and_then(Json::as_str),
                Some(def.name.as_str())
            );
            assert_eq!(
                metric.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                metric.get("better").and_then(Json::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
        }
    }

    let bounds: Vec<(&str, f64)> = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap(),
                num(m, "bound"),
            )
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(name, _)| *name == "setup_s")
        .unwrap()
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0, "{name}: bound {bound}");
        assert!(
            *bound <= setup,
            "setup_s must have the largest bound, {name} has {bound}"
        );
    }
}
