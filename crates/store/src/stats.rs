//! Store counters, shaped like `cmc-bdd`'s [`BddStats`] so benchmark and
//! driver reports can print directly comparable rows.
//!
//! [`BddStats`]: https://docs.rs/cmc-bdd

use std::fmt;

/// Point-in-time counters for a [`crate::CertStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that fell through to a fresh check.
    pub misses: u64,
    /// Entries written (fresh results memoized).
    pub insertions: u64,
    /// Entries discarded to respect the capacity bound.
    pub evictions: u64,
    /// Entries installed from the on-disk layer (a new key arriving at
    /// capacity is dropped and not counted).
    pub disk_loads: u64,
    /// On-disk entries rejected (stale format, checksum mismatch, parse
    /// error) — rejected entries are ignored, never trusted.
    pub disk_rejects: u64,
    /// Whole on-disk segments skipped because they were torn, truncated
    /// or otherwise unreadable (each skip is a counted warning, never an
    /// error — a damaged segment degrades to a cold slice of the cache).
    pub segments_skipped: u64,
    /// Compaction passes run over the segmented disk tier.
    pub compactions: u64,
    /// Entries dropped by compaction to respect the on-disk byte budget
    /// (distinct from in-memory LRU `evictions`).
    pub budget_evictions: u64,
    /// Bytes resident in the segmented disk tier after the most recent
    /// append/compaction (0 when no disk tier is attached).
    pub disk_bytes: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl StoreStats {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "certificate store:")?;
        writeln!(f, "entries resident: {}", self.entries)?;
        writeln!(
            f,
            "obligation lookups: {} ({} hits, {} misses, {:.1}% hit rate)",
            self.hits + self.misses,
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "insertions: {} (evictions: {})",
            self.insertions, self.evictions
        )?;
        writeln!(
            f,
            "disk entries loaded: {} (rejected: {})",
            self.disk_loads, self.disk_rejects
        )?;
        write!(
            f,
            "disk tier: {} bytes in segments ({} segments skipped, \
             {} compactions, {} budget evictions)",
            self.disk_bytes, self.segments_skipped, self.compactions, self.budget_evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_bounds() {
        let mut s = StoreStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = StoreStats {
            hits: 5,
            misses: 5,
            insertions: 5,
            evictions: 1,
            disk_loads: 2,
            disk_rejects: 1,
            segments_skipped: 1,
            compactions: 2,
            budget_evictions: 3,
            disk_bytes: 4096,
            entries: 4,
        };
        let text = s.to_string();
        assert!(text.contains("5 hits"));
        assert!(text.contains("50.0% hit rate"));
        assert!(text.contains("evictions: 1"));
        assert!(text.contains("rejected: 1"));
        assert!(text.contains("1 segments skipped"));
        assert!(text.contains("2 compactions"));
        assert!(text.contains("3 budget evictions"));
        assert!(text.contains("4096 bytes"));
    }
}
