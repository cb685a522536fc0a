//! Resource statistics in the format of SMV's `resources used:` trailer.
//!
//! The paper's Figures 7, 10, 15 and 17 report, for each component checked:
//! user/system time, `BDD nodes allocated`, `Bytes allocated`, and
//! `BDD nodes representing transition relation: X + Y`. This module carries
//! the same measurements so the benchmark harness can print directly
//! comparable rows, extended with the memory-kernel counters (live/peak
//! nodes, GC activity, cache evictions) the garbage collector introduces.

use std::fmt;
use std::time::Duration;

/// Point-in-time resource counters for a [`crate::BddManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddStats {
    /// Total decision nodes ever allocated (including the two terminals),
    /// matching SMV's monotone "BDD nodes allocated". Survives garbage
    /// collection.
    pub nodes_allocated: usize,
    /// Nodes currently resident in the arena (terminals included).
    pub live_nodes: usize,
    /// High-water mark of [`BddStats::live_nodes`] over the manager's life.
    pub peak_live_nodes: usize,
    /// Heap bytes held by the arena, unique table, computed table and root
    /// registry — *capacity*, not element counts, so retained memory that
    /// has not yet been returned is visible.
    pub bytes_allocated: usize,
    /// Computed-table hits since manager creation.
    pub cache_hits: u64,
    /// Computed-table misses since manager creation.
    pub cache_misses: u64,
    /// Entries dropped by generational computed-table rotation.
    pub cache_evictions: u64,
    /// Computed-table hits attributed to `and_exists` relational-product
    /// keys alone — the memo the quantification scheduler optimises for.
    pub and_exists_hits: u64,
    /// Computed-table misses attributed to `and_exists` keys alone.
    pub and_exists_misses: u64,
    /// Mark-and-sweep collections run.
    pub gc_runs: u64,
    /// Total nodes reclaimed across all collections.
    pub gc_reclaimed: u64,
    /// Declared BDD variables.
    pub variables: usize,
}

impl BddStats {
    /// Cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// `and_exists` computed-table hit rate in `[0, 1]` (0 when the
    /// relational product never ran).
    pub fn and_exists_hit_rate(&self) -> f64 {
        let total = self.and_exists_hits + self.and_exists_misses;
        if total == 0 {
            0.0
        } else {
            self.and_exists_hits as f64 / total as f64
        }
    }
}

/// A full "resources used" report for one verification run, shaped like the
/// output blocks in the paper's figures.
#[derive(Debug, Clone)]
pub struct ResourceReport {
    /// Wall-clock time of the run.
    pub user_time: Duration,
    /// Manager counters at the end of the run.
    pub stats: BddStats,
    /// Nodes in the transition-relation BDD(s), shared count.
    pub trans_nodes: usize,
    /// Nodes in the auxiliary cubes/initial-state BDDs kept alongside the
    /// transition relation (SMV prints these after the `+`).
    pub aux_nodes: usize,
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "resources used:")?;
        writeln!(f, "user time: {:.7} s", self.user_time.as_secs_f64())?;
        writeln!(f, "BDD nodes allocated: {}", self.stats.nodes_allocated)?;
        writeln!(f, "Bytes allocated: {}", self.stats.bytes_allocated)?;
        writeln!(
            f,
            "BDD nodes live: {} (peak {})",
            self.stats.live_nodes, self.stats.peak_live_nodes
        )?;
        writeln!(
            f,
            "garbage collections: {} (reclaimed {} nodes)",
            self.stats.gc_runs, self.stats.gc_reclaimed
        )?;
        writeln!(f, "cache evictions: {}", self.stats.cache_evictions)?;
        writeln!(
            f,
            "and-exists cache: {} hits / {} misses",
            self.stats.and_exists_hits, self.stats.and_exists_misses
        )?;
        write!(
            f,
            "BDD nodes representing transition relation: {} + {}",
            self.trans_nodes, self.aux_nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeroed() -> BddStats {
        BddStats {
            nodes_allocated: 0,
            live_nodes: 0,
            peak_live_nodes: 0,
            bytes_allocated: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            and_exists_hits: 0,
            and_exists_misses: 0,
            gc_runs: 0,
            gc_reclaimed: 0,
            variables: 0,
        }
    }

    #[test]
    fn hit_rate_bounds() {
        let mut s = BddStats {
            nodes_allocated: 2,
            bytes_allocated: 24,
            ..zeroed()
        };
        assert_eq!(s.hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn report_format_matches_smv_shape() {
        let r = ResourceReport {
            user_time: Duration::from_millis(33),
            stats: BddStats {
                nodes_allocated: 403,
                live_nodes: 280,
                peak_live_nodes: 390,
                bytes_allocated: 1_245_134,
                gc_runs: 2,
                gc_reclaimed: 123,
                variables: 7,
                ..zeroed()
            },
            trans_nodes: 43,
            aux_nodes: 7,
        };
        let text = r.to_string();
        assert!(text.contains("BDD nodes allocated: 403"));
        assert!(text.contains("Bytes allocated: 1245134"));
        assert!(text.contains("BDD nodes live: 280 (peak 390)"));
        assert!(text.contains("garbage collections: 2 (reclaimed 123 nodes)"));
        assert!(text.contains("and-exists cache: 0 hits / 0 misses"));
        assert!(text.contains("transition relation: 43 + 7"));
    }
}
