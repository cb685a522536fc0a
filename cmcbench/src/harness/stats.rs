//! Order statistics and process counters.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` when `values` is empty.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; `None` for fewer than two values.
pub(crate) fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (0 for fewer than two
/// values).
pub(crate) fn relative_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, fixed at 100
/// on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used, all threads
/// included.
pub(crate) fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are the 12th and 13th.
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric CPU ticks") as f64 };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so that [`peak_rss_mib`] reads the peak since now.
pub(crate) fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// This process's resident set (`VmRSS`) in MiB.
pub(crate) fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"));
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[5.0]), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn process_counters_are_positive() {
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0 && rss_mib() > 0.0);
    }

    #[test]
    fn peak_rss_resets_to_the_current_resident_set() {
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let with_big = peak_rss_mib();
        drop(big);
        reset_peak_rss().unwrap();
        assert!(
            peak_rss_mib() < with_big - 32.0,
            "{} MiB after the reset, {with_big} MiB before",
            peak_rss_mib()
        );
    }
}
