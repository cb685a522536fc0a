//! The host's speed, measured by a reference kernel timed between
//! requests.
//!
//! The host the bounds were set on is a shared 2-vCPU VM whose speed
//! drifts from minute to minute as neighbours contend for its caches and
//! memory: identical work ran up to a third slower, CPU time included,
//! and ten 30 s runs of one workload spread by 0.07 to 0.36 (interquartile
//! range over median). A pure arithmetic loop hardly moved. Memory-bound
//! kernels moved with the workloads: over ten runs the mean kernel time
//! of a run predicted its throughput with correlation 0.75 to 0.99.
//!
//! The kernel is two parts, timed separately: inserting and looking up
//! keys in a hash map of about 2.5 MB, larger than L2 (the traffic of BDD
//! unique tables and state hash sets), and chasing a pseudo-random chain
//! through a 32 MB array (the traffic of walks over large node arenas).
//! A sample is the geometric mean of the two times; it varies less than
//! either. The measured loops take a sample off the clock every
//! [`SAMPLE_EVERY`] and scale each round's times by [`REFERENCE_MS`]
//! over the mean sample of that round, so the end-to-end metrics read as
//! on a host where a sample takes [`REFERENCE_MS`]. The kernel is the
//! benchmark's own code: a change to the program cannot change it.

use crate::harness::stats::rss_mib;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median sample on the host the bounds were set on (2-vCPU Intel Xeon
/// VM) while it was quiet, in ms.
pub(crate) const REFERENCE_MS: f64 = 3.0;

/// Keys the hash-map part inserts and then looks up.
const KEYS: u64 = 100_000;
/// Entries of the chain the chasing part walks: 32 MB of `u32`.
const CHAIN: usize = 1 << 23;
/// Links the chasing part follows per sample.
const STEPS: usize = 25_000;

/// Least time between two samples of a measured loop.
const SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// The kernel's buffers, allocated once, and the samples since the last
/// [`SpeedProbe::take_slowdown`].
pub(crate) struct SpeedProbe {
    table: HashMap<u64, u64>,
    chain: Vec<u32>,
    at: u32,
    last: Instant,
    samples: Vec<f64>,
    /// What the buffers added to the resident set, in MiB.
    pub(crate) resident_mib: f64,
}

impl SpeedProbe {
    /// Allocate and fill the kernel's buffers. They stay resident for the
    /// whole run, so the measured loops subtract
    /// [`SpeedProbe::resident_mib`] from the peak resident set.
    pub(crate) fn new() -> SpeedProbe {
        let before = rss_mib();
        // `i → (a·i + c) mod 2^23` with `a ≡ 1 (mod 4)` and `c` odd is a
        // full-period LCG: one cycle through every entry, in an order the
        // prefetchers cannot follow.
        let chain = (0..CHAIN as u64)
            .map(|i| (i.wrapping_mul(0x5851_f42d).wrapping_add(0x1405_7b7f) % CHAIN as u64) as u32)
            .collect();
        let mut probe = SpeedProbe {
            table: HashMap::with_capacity(KEYS as usize),
            chain,
            at: 0,
            last: Instant::now(),
            samples: Vec::new(),
            resident_mib: 0.0,
        };
        probe.sample();
        probe.samples.clear();
        probe.resident_mib = rss_mib() - before;
        probe
    }

    /// Time one run of the kernel and keep it as a sample, in ms.
    pub(crate) fn sample(&mut self) -> f64 {
        let start = Instant::now();
        self.table.clear();
        let mut key = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..KEYS {
            key = xorshift(key);
            self.table.insert(key, i);
        }
        let mut sum = 0u64;
        key = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..KEYS {
            key = xorshift(key);
            sum = sum.wrapping_add(self.table.get(&key).copied().unwrap_or(0));
        }
        black_box(sum);
        let hash_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.chain[at as usize];
        }
        self.at = black_box(at);
        let chase_ms = start.elapsed().as_secs_f64() * 1e3;

        self.last = Instant::now();
        let ms = (hash_ms * chase_ms).sqrt();
        self.samples.push(ms);
        ms
    }

    /// Take a sample if [`SAMPLE_EVERY`] has passed since the last one;
    /// the seconds it took, 0 if none was due.
    pub(crate) fn sample_if_due(&mut self) -> f64 {
        if self.last.elapsed() < SAMPLE_EVERY {
            return 0.0;
        }
        let start = Instant::now();
        self.sample();
        start.elapsed().as_secs_f64()
    }

    /// How much slower than the reference host the host ran, by the mean
    /// of the samples since the last call (taking one if there are none):
    /// divide a time by it, multiply a rate by it.
    pub(crate) fn take_slowdown(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.sample();
        }
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        self.samples.clear();
        mean / REFERENCE_MS
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_one_cycle_through_every_entry() {
        let probe = SpeedProbe::new();
        let mut seen = vec![false; CHAIN];
        let mut at = 0u32;
        for _ in 0..CHAIN {
            assert!(!seen[at as usize], "entry {at} visited twice");
            seen[at as usize] = true;
            at = probe.chain[at as usize];
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn slowdown_is_the_mean_sample_over_the_reference() {
        let mut probe = SpeedProbe::new();
        let samples: Vec<f64> = (0..3).map(|_| probe.sample()).collect();
        assert!(samples.iter().all(|&ms| ms > 0.0));
        let mean = samples.iter().sum::<f64>() / 3.0;
        assert!((probe.take_slowdown() - mean / REFERENCE_MS).abs() < 1e-12);
        assert_eq!(probe.sample_if_due(), 0.0, "sampled again at once");
    }
}
