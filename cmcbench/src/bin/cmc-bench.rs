//! `cmc-bench`: the repository's benchmark.
//!
//! ```text
//! cmc-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! cmc-bench run --seed <n> [--quick]
//! cmc-bench compare <A> <B>
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics traced. It writes
//! `results.json` (and `trace.jsonl` when traced) to `--out`, by default
//! `target/cmc-bench/<workload>-trace<0|1>`.
//!
//! `run` runs every workload twice, untraced then traced, each in a child
//! process of its own, and collects them under `target/cmc-bench/<run>/`.
//! `compare` applies the bounds of `BENCHMARK.json` to two sets of runs.
//! Every form exits non-zero when any verdict is wrong.

use cmc_perfbench::harness::results::{document, record, result_line};
use cmc_perfbench::harness::{compare, workloads, Workload, RUN_SECONDS};
use cmc_store::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  cmc-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  cmc-bench run --seed <n> [--quick]
  cmc-bench compare <A> <B>
workloads: cli-symbolic, serve-cold, serve-hot, proof-compositional";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        Some(_) => run_one(&args),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cmc-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs (and the bare `--quick`), rejecting anything not
/// in `allowed`.
fn flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unexpected argument {flag:?}\n{USAGE}"));
        }
        let value = if flag == "--quick" {
            String::new()
        } else {
            it.next().ok_or(format!("{flag} needs a value"))?.clone()
        };
        out.insert(flag.clone(), value);
    }
    Ok(out)
}

fn required<'a>(flags: &'a BTreeMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or(format!("missing {name}\n{USAGE}"))
}

fn parse_seed(flags: &BTreeMap<String, String>) -> Result<u64, String> {
    required(flags, "--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".into())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process.
fn run_one(args: &[String]) -> Result<bool, String> {
    let flags = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
    )?;
    let name = required(&flags, "--workload")?;
    let workload =
        Workload::from_name(name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
    let seed = parse_seed(&flags)?;
    let seconds = match required(&flags, "--seconds")?.parse::<f64>() {
        Ok(s) if s > 0.0 && s.is_finite() => s,
        _ => return Err("--seconds takes a positive number".into()),
    };
    let trace = match required(&flags, "--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let out = flags.get("--out").map(PathBuf::from).unwrap_or_else(|| {
        Path::new("target/cmc-bench").join(format!("{name}-trace{}", u8::from(trace)))
    });

    let outcome = workloads::run(workload, seed, seconds, trace)?;

    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let doc = document(seed, seconds, vec![record(workload, trace, &outcome)]);
    write(&out.join("results.json"), &doc.to_pretty())?;
    if let Some(tracer) = &outcome.tracer {
        write(&out.join("trace.jsonl"), &tracer.to_jsonl(name))?;
    }
    println!(
        "{name}: {} jobs checked, {} failed, {} requests, set-up {:.4} s, window {:.2} s",
        outcome.attempted, outcome.failed, outcome.requests, outcome.setup_s, outcome.window_s
    );
    println!("{}", result_line(&outcome, trace));
    Ok(outcome.failed == 0)
}

/// Every workload, untraced then traced, each in its own child process.
fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = flags(args, &["--seed", "--quick"])?;
    let seed = parse_seed(&flags)?;
    let seconds = if flags.contains_key("--quick") {
        1.0
    } else {
        RUN_SECONDS as f64
    };
    let started = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let run_dir = Path::new("target/cmc-bench").join(format!("run-seed{seed}-{started}"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut ok = true;
    let mut records = Vec::new();
    let mut spans = String::new();
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let part = run_dir
                .join("parts")
                .join(format!("{}-trace{trace}", workload.name()));
            eprintln!(
                "cmc-bench: {} (trace {trace}) for {seconds} s",
                workload.name()
            );
            let status = Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--out")
                .arg(&part)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            ok &= status.success();
            let results = std::fs::read_to_string(part.join("results.json")).ok();
            match results.and_then(|text| Json::parse(&text).ok()) {
                Some(doc) => records.extend(
                    doc.get("records")
                        .and_then(Json::as_arr)
                        .unwrap_or_default()
                        .iter()
                        .cloned(),
                ),
                None => {
                    eprintln!(
                        "cmc-bench: {} (trace {trace}) left no results",
                        workload.name()
                    );
                    ok = false;
                }
            }
            if trace == "1" {
                spans.push_str(
                    &std::fs::read_to_string(part.join("trace.jsonl")).unwrap_or_default(),
                );
            }
        }
    }
    write(
        &run_dir.join("results.json"),
        &document(seed, seconds, records.clone()).to_pretty(),
    )?;
    write(&run_dir.join("trace.jsonl"), &spans)?;
    std::fs::remove_dir_all(run_dir.join("parts")).ok();

    print_summary(&records);
    println!("results: {}", run_dir.join("results.json").display());
    Ok(ok)
}

fn metric(record: &Json, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_num()
}

/// The end-to-end table (with `failed_frac`), then the per-layer table:
/// one row per metric, one column per workload.
fn print_summary(records: &[Json]) {
    for trace in [false, true] {
        let runs: Vec<&Json> = records
            .iter()
            .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(trace))
            .collect();
        let Some(Json::Obj(metrics)) = runs.first().and_then(|r| r.get("metrics")) else {
            continue;
        };
        let mut rows: Vec<(String, Vec<Option<f64>>)> = metrics
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let cells = runs.iter().map(|r| metric(r, name)).collect();
                (format!("{name} ({unit})"), cells)
            })
            .collect();
        if !trace {
            let cells = runs
                .iter()
                .map(|r| r.get("failed_frac")?.as_num())
                .collect();
            rows.push(("failed_frac (frac)".into(), cells));
        }
        println!(
            "\n{} metrics",
            if trace { "per-layer" } else { "end-to-end" }
        );
        let mut line = format!("{:<36}", "");
        for run in &runs {
            line += &format!(
                "{:>21}",
                run.get("workload").and_then(Json::as_str).unwrap_or("?")
            );
        }
        println!("{line}");
        for (label, cells) in rows {
            let mut line = format!("{label:<36}");
            for cell in cells {
                line += &format!("{:>21}", cell.map_or("-".into(), |v| format!("{v:.4}")));
            }
            println!("{line}");
        }
    }
}

/// `compare A B` against the bounds in `./BENCHMARK.json`.
fn compare_sets(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let (table, ok) = compare::compare(Path::new(a), Path::new(b), Path::new("BENCHMARK.json"))?;
    print!("{table}");
    Ok(ok)
}
