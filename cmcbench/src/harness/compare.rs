//! `cmc-bench compare A B`: apply the bounds of `BENCHMARK.json` to every
//! (end-to-end metric, workload) pair of two result sets.

use crate::harness::stats::{median, relative_spread};
use crate::harness::{Better, Workload};
use cmc_store::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// How set B compares with set A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// B's median is better by more than the bound.
    Better,
    /// The medians differ by at most the bound.
    Same,
    /// B's median is worse by more than the bound.
    Worse,
    /// The spread within a set is wider than the bound, and B does not
    /// beat A on every run.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare runs `a` with runs `b` of a metric that improves in direction
/// `better` and may worsen by the share `bound` of A's median.
pub(crate) fn classify(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (mb - ma) / scale,
        Better::Higher => (ma - mb) / scale,
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let b_wins_every_run = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if worse_by < -bound && b_wins_every_run {
        Verdict::Better
    } else if relative_spread(a).max(relative_spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// An end-to-end metric's name, direction and bound from `BENCHMARK.json`.
struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(benchmark: &Path) -> Result<Vec<Bound>, String> {
    let doc = read_json(benchmark)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or(format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Values per (workload, metric) over every untraced record of every
/// `results.json` at or below `path`.
fn collect(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut files = Vec::new();
    find_results(path, &mut files)?;
    if files.is_empty() {
        return Err(format!("no results.json at or below {}", path.display()));
    }
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for file in files {
        let doc = read_json(&file)?;
        for record in doc
            .get("records")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            if record.get("trace").and_then(Json::as_bool) != Some(false) {
                continue;
            }
            let Some(workload) = record.get("workload").and_then(Json::as_str) else {
                continue;
            };
            let Some(Json::Obj(metrics)) = record.get("metrics") else {
                continue;
            };
            for (name, metric) in metrics {
                if let Some(v) = metric.get("value").and_then(Json::as_num) {
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(values)
}

fn find_results(path: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    if path.is_file() {
        out.push(path.to_path_buf());
        return Ok(());
    }
    let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            find_results(&entry, out)?;
        } else if entry.file_name().is_some_and(|n| n == "results.json") {
            out.push(entry);
        }
    }
    Ok(())
}

/// The comparison table, and whether every pair is `better` or `same`.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark)?;
    let (va, vb) = (collect(a)?, collect(b)?);
    let mut table = format!(
        "{:<20} {:<15} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut ok = true;
    let mut pairs = 0;
    for workload in Workload::ALL.map(Workload::name) {
        for bound in &bounds {
            let key = (workload.to_string(), bound.name.clone());
            let (Some(a), Some(b)) = (va.get(&key), vb.get(&key)) else {
                continue;
            };
            pairs += 1;
            let verdict = classify(a, b, bound.better, bound.bound);
            ok &= matches!(verdict, Verdict::Better | Verdict::Same);
            let (ma, mb) = (median(a), median(b));
            let _ = writeln!(
                table,
                "{workload:<20} {:<15} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%  {} (runs: {} vs {})",
                bound.name,
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                100.0 * relative_spread(a).max(relative_spread(b)),
                100.0 * bound.bound,
                verdict.as_str(),
                a.len(),
                b.len(),
            );
        }
    }
    if pairs == 0 {
        return Err("the two result sets share no (workload, metric) pair".into());
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_applies_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            classify(&a, &[100.2, 99.8, 100.1], Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            classify(&a, &[120.0, 121.0, 119.0], Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            classify(&a, &[120.0, 121.0, 119.0], Better::Higher, 0.1),
            Verdict::Better
        );
        let noisy = [50.0, 100.0, 150.0, 100.0];
        assert_eq!(
            classify(&noisy, &[105.0, 95.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(&noisy, &[10.0, 11.0], Better::Lower, 0.1),
            Verdict::Better
        );
    }
}
