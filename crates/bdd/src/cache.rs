//! The bounded, generational computed table.
//!
//! The manager's recursive operations memoise through this table instead of
//! a grow-forever map. It keeps two hash-map *generations*: lookups probe
//! the current generation first and then the previous one (promoting hits
//! back into the current generation); inserts always land in the current
//! generation. When the current generation reaches the configured segment
//! capacity, the generations rotate: the previous generation is dropped
//! (its entries counted as evictions) and the full current one takes its
//! place. Any entry untouched for a full generation is therefore evicted,
//! while hot entries survive indefinitely via promotion — an LRU
//! approximation with O(1) bookkeeping and no per-entry metadata.

use crate::hash::FxHashMap;

/// Opcode tags for computed-table keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    Ite,
    Exists,
    Forall,
    AndExists,
}

/// A computed-table key: opcode plus up to three operand node ids.
pub(crate) type CacheKey = (Op, u32, u32, u32);

/// Default per-generation entry bound (two generations may be resident).
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

#[derive(Debug)]
pub(crate) struct ComputedTable {
    cur: FxHashMap<CacheKey, u32>,
    prev: FxHashMap<CacheKey, u32>,
    segment_capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    and_exists_hits: u64,
    and_exists_misses: u64,
}

impl ComputedTable {
    pub(crate) fn new(segment_capacity: usize) -> Self {
        ComputedTable {
            cur: FxHashMap::default(),
            prev: FxHashMap::default(),
            segment_capacity: segment_capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
            and_exists_hits: 0,
            and_exists_misses: 0,
        }
    }

    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<u32> {
        if let Some(&r) = self.cur.get(key) {
            self.hits += 1;
            if key.0 == Op::AndExists {
                self.and_exists_hits += 1;
            }
            return Some(r);
        }
        if let Some(&r) = self.prev.get(key) {
            self.hits += 1;
            if key.0 == Op::AndExists {
                self.and_exists_hits += 1;
            }
            // Promote so hot entries survive the next rotation.
            self.put(*key, r);
            return Some(r);
        }
        self.misses += 1;
        if key.0 == Op::AndExists {
            self.and_exists_misses += 1;
        }
        None
    }

    pub(crate) fn put(&mut self, key: CacheKey, value: u32) {
        if self.cur.len() >= self.segment_capacity {
            self.evictions += self.prev.len() as u64;
            self.prev = std::mem::take(&mut self.cur);
        }
        self.cur.insert(key, value);
    }

    /// Rewrite both generations through a GC compaction map (`u32::MAX`
    /// marks a dead node). An entry survives only if its operands *and*
    /// its result were all marked live; everything else is dropped —
    /// without counting as evictions, since the nodes are gone rather
    /// than cold. Keeping the live fraction is what makes collection
    /// cheap mid-fixpoint: the next iteration re-hits the memoised
    /// subproblems instead of recomputing the whole operation tree.
    pub(crate) fn remap(&mut self, map: &[u32]) {
        let live = |id: u32| map.get(id as usize).copied().unwrap_or(u32::MAX);
        let rebuild = |m: &FxHashMap<CacheKey, u32>| {
            let mut out = FxHashMap::with_capacity_and_hasher(m.len(), Default::default());
            for (&(op, a, b, c), &v) in m {
                let (a, b, c, v) = (live(a), live(b), live(c), live(v));
                if a != u32::MAX && b != u32::MAX && c != u32::MAX && v != u32::MAX {
                    out.insert((op, a, b, c), v);
                }
            }
            out
        };
        self.cur = rebuild(&self.cur);
        self.prev = rebuild(&self.prev);
    }

    pub(crate) fn set_segment_capacity(&mut self, entries: usize) {
        self.segment_capacity = entries.max(1);
    }

    pub(crate) fn segment_capacity(&self) -> usize {
        self.segment_capacity
    }

    /// Heap bytes held by both generations' backing storage.
    pub(crate) fn capacity_bytes(&self) -> usize {
        (self.cur.capacity() + self.prev.capacity())
            * (std::mem::size_of::<CacheKey>() + std::mem::size_of::<u32>())
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hits attributed to [`Op::AndExists`] keys alone — the relational-product
    /// memo whose locality the quantification scheduler is trying to improve.
    pub(crate) fn and_exists_hits(&self) -> u64 {
        self.and_exists_hits
    }

    /// Misses attributed to [`Op::AndExists`] keys alone.
    pub(crate) fn and_exists_misses(&self) -> u64 {
        self.and_exists_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_evicts_cold_entries() {
        let mut t = ComputedTable::new(2);
        t.put((Op::Ite, 1, 2, 3), 10);
        t.put((Op::Ite, 4, 5, 6), 11);
        // cur is full: the next insert rotates (prev was empty, 0 evictions).
        t.put((Op::Ite, 7, 8, 9), 12);
        assert_eq!(t.evictions(), 0);
        // The rotated-out generation is still readable.
        assert_eq!(t.get(&(Op::Ite, 1, 2, 3)), Some(10));
        // That read promoted the entry; fill cur and rotate again: the
        // unpromoted (4,5,6) generation gets dropped and counted.
        t.put((Op::Ite, 10, 11, 12), 13);
        t.put((Op::Ite, 13, 14, 15), 14);
        assert!(t.evictions() > 0);
        assert_eq!(t.get(&(Op::Ite, 4, 5, 6)), None);
    }

    #[test]
    fn remap_rewrites_survivors_and_drops_the_rest() {
        let mut t = ComputedTable::new(16);
        t.put((Op::Ite, 4, 3, 0), 5);
        t.put((Op::Ite, 6, 3, 0), 5);
        // Compaction: terminals stay put, 3→2, 4→3, 5→4; node 6 dies.
        let map = [0, 1, u32::MAX, 2, 3, 4, u32::MAX];
        t.remap(&map);
        assert_eq!(t.get(&(Op::Ite, 3, 2, 0)), Some(4));
        assert_eq!(t.get(&(Op::Ite, 6, 3, 0)), None);
        assert_eq!(
            t.get(&(Op::Ite, 4, 3, 0)),
            None,
            "stale key must not linger"
        );
    }

    #[test]
    fn counters_track_lookups() {
        let mut t = ComputedTable::new(16);
        assert_eq!(t.get(&(Op::Exists, 1, 2, 0)), None);
        t.put((Op::Exists, 1, 2, 0), 5);
        assert_eq!(t.get(&(Op::Exists, 1, 2, 0)), Some(5));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn and_exists_counters_only_count_and_exists_keys() {
        let mut t = ComputedTable::new(16);
        assert_eq!(t.get(&(Op::Ite, 1, 2, 3)), None);
        assert_eq!(t.get(&(Op::AndExists, 1, 2, 3)), None);
        t.put((Op::AndExists, 1, 2, 3), 7);
        assert_eq!(t.get(&(Op::AndExists, 1, 2, 3)), Some(7));
        assert_eq!(t.and_exists_hits(), 1);
        assert_eq!(t.and_exists_misses(), 1);
        // The generic counters see every lookup.
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }
}
