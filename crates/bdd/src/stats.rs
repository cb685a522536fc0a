//! Resource counters behind SMV's `resources used:` trailer.
//!
//! The paper's Figures 7, 10, 15 and 17 report, for each component checked:
//! user/system time, `BDD nodes allocated`, `Bytes allocated`, and
//! `BDD nodes representing transition relation: X + Y`. This module carries
//! the manager-side measurements, extended with the memory-kernel counters
//! (live/peak nodes, GC activity, cache evictions) the garbage collector
//! introduces; the SMV driver prints the trailer from them.

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
    /// Heap bytes held by the arena, the unique table's slot array, the
    /// computed table's slot array and the root registry — *capacity*,
    /// not element counts, so retained memory that has not yet been
    /// returned is visible.
    pub bytes_allocated: usize,
    /// Computed-table hits since manager creation.
    pub cache_hits: u64,
    /// Computed-table misses since manager creation.
    pub cache_misses: u64,
    /// Computed-table inserts that overwrote an occupied slot (the table
    /// is direct-mapped, so a colliding insert replaces the old entry).
    /// Entries a collection drops because their nodes died are not
    /// counted.
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
}
