//! The bounded, direct-mapped computed table.
//!
//! The manager's recursive operations memoise through this table. It is a
//! power-of-two array of `(op, a, b, c) → result` slots, and a key lives
//! only in the one slot its hash selects: a lookup is one probe and one
//! comparison of the opcode and all three operands, and an insert is one
//! write that overwrites whatever the slot held — the lossy computed table
//! of CUDD, whose BDD package SMV uses. A colliding insert counts as an
//! eviction.
//!
//! The table starts at 2¹⁰ slots and doubles whenever the
//! inserts since its last resize exceed its slot count, up to the
//! configured bound ([`DEFAULT_CACHE_CAPACITY`] unless
//! [`crate::BddManager::set_cache_capacity`] set another). Doubling keeps
//! every entry: each old slot maps to one of two new slots that no other
//! old slot maps to.
//!
//! Losing an entry never changes an answer or a node id. A miss recomputes
//! the operation, and every node that recomputation builds already exists
//! in the arena, which is append-only between collections.

use crate::hash::FxHasher;
use std::hash::Hasher;

/// Opcode tags for computed-table keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Ite,
    Exists,
    Forall,
    AndExists,
}

/// A computed-table key: opcode plus up to three operand node ids.
pub(crate) type CacheKey = (Op, u32, u32, u32);

/// Default bound of the computed table, in slots; the table grows towards
/// it from 2¹⁰ slots as inserts arrive. `BddManager::set_cache_capacity`
/// sets another.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

/// Slots a fresh table starts with (fewer if the bound is smaller).
const INITIAL_SLOTS: usize = 1 << 10;

/// Result field of a slot that holds no entry. Node ids are arena indices,
/// so no result equals it, and no key matches an empty slot because no
/// operand equals it either.
const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    op: Op,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

const EMPTY_SLOT: Slot = Slot {
    op: Op::Ite,
    a: EMPTY,
    b: EMPTY,
    c: EMPTY,
    result: EMPTY,
};

/// Fx hash of a key, two words. The table indexes with the high half,
/// which the final multiply mixes best.
#[inline]
fn hash(&(op, a, b, c): &CacheKey) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(u64::from(a) | u64::from(b) << 32);
    h.write_u64(u64::from(c) | (op as u64) << 32);
    h.finish()
}

#[derive(Debug)]
pub(crate) struct ComputedTable {
    slots: Vec<Slot>,
    /// Slot bound: a power of two.
    capacity: usize,
    /// Inserts since the table last changed size.
    inserts_since_resize: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    and_exists_hits: u64,
    and_exists_misses: u64,
}

impl ComputedTable {
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = floor_pow2(capacity);
        ComputedTable {
            slots: vec![EMPTY_SLOT; INITIAL_SLOTS.min(capacity)],
            capacity,
            inserts_since_resize: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            and_exists_hits: 0,
            and_exists_misses: 0,
        }
    }

    #[inline]
    fn index(&self, key: &CacheKey) -> usize {
        (hash(key) >> 32) as usize & (self.slots.len() - 1)
    }

    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<u32> {
        let s = self.slots[self.index(key)];
        let hit = (s.op, s.a, s.b, s.c) == *key;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        if key.0 == Op::AndExists {
            if hit {
                self.and_exists_hits += 1;
            } else {
                self.and_exists_misses += 1;
            }
        }
        hit.then_some(s.result)
    }

    pub(crate) fn put(&mut self, key: CacheKey, value: u32) {
        self.inserts_since_resize += 1;
        if self.inserts_since_resize > self.slots.len() && self.slots.len() < self.capacity {
            self.resize(2 * self.slots.len());
        }
        self.write(key, value);
    }

    /// Store an entry in its slot, counting an overwrite as an eviction.
    #[inline]
    fn write(&mut self, (op, a, b, c): CacheKey, result: u32) {
        let i = self.index(&(op, a, b, c));
        if self.slots[i].result != EMPTY {
            self.evictions += 1;
        }
        self.slots[i] = Slot {
            op,
            a,
            b,
            c,
            result,
        };
    }

    /// Rehash every entry into a table of `slots` slots. Growing keeps
    /// them all; shrinking keeps one entry per colliding group.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; slots]);
        for s in old.into_iter().filter(|s| s.result != EMPTY) {
            self.write((s.op, s.a, s.b, s.c), s.result);
        }
        self.inserts_since_resize = 0;
    }

    /// Rewrite the table through a GC compaction map (`u32::MAX` marks a
    /// dead node), keeping its size. An entry survives only if its
    /// operands *and* its result were all marked live, and moves to the
    /// slot its new ids select (where two survivors meet, the later
    /// overwrites the earlier, as any insert does); everything else is
    /// dropped — without counting as evictions, since the nodes are gone
    /// rather than overwritten. Keeping the live fraction is what makes
    /// collection cheap mid-fixpoint: the next iteration re-hits the
    /// memoised subproblems instead of recomputing the whole operation
    /// tree.
    pub(crate) fn remap(&mut self, map: &[u32]) {
        let live = |id: u32| map.get(id as usize).copied().unwrap_or(u32::MAX);
        let survivors: Vec<Slot> = self
            .slots
            .iter()
            .filter(|s| s.result != EMPTY)
            .map(|s| Slot {
                a: live(s.a),
                b: live(s.b),
                c: live(s.c),
                result: live(s.result),
                ..*s
            })
            .filter(|s| [s.a, s.b, s.c, s.result].iter().all(|&id| id != u32::MAX))
            .collect();
        self.slots.fill(EMPTY_SLOT);
        for s in survivors {
            self.write((s.op, s.a, s.b, s.c), s.result);
        }
    }

    /// Bound the table at `slots` slots, rounded down to a power of two;
    /// a table already larger shrinks now.
    pub(crate) fn set_capacity(&mut self, slots: usize) {
        self.capacity = floor_pow2(slots);
        if self.slots.len() > self.capacity {
            self.resize(self.capacity);
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes held by the slot array.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
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

/// The largest power of two not above `n` (1 for `n = 0`).
fn floor_pow2(n: usize) -> usize {
    1 << n.max(1).ilog2()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first two keys `(Ite, i, 0, 0)`, `i = 2, 3, …`, that land in
    /// the same slot of a `slots`-slot table.
    fn colliding_pair(slots: usize) -> (CacheKey, CacheKey) {
        let t = ComputedTable::new(slots);
        let mut seen = std::collections::HashMap::new();
        for i in 2u32.. {
            let key = (Op::Ite, i, 0, 0);
            if let Some(prev) = seen.insert(t.index(&key), key) {
                return (prev, key);
            }
        }
        unreachable!()
    }

    #[test]
    fn colliding_insert_overwrites_and_counts_one_eviction() {
        let mut t = ComputedTable::new(16);
        let (first, second) = colliding_pair(16);
        t.put(first, 10);
        assert_eq!(t.evictions(), 0);
        t.put(second, 11);
        assert_eq!(t.evictions(), 1);
        assert_eq!(t.get(&second), Some(11));
        assert_eq!(t.get(&first), None, "the overwritten key must miss");
    }

    #[test]
    fn a_hit_matches_opcode_and_all_three_operands() {
        let mut t = ComputedTable::new(1);
        t.put((Op::Ite, 4, 5, 6), 9);
        assert_eq!(t.get(&(Op::Ite, 4, 5, 6)), Some(9));
        assert_eq!(t.get(&(Op::Exists, 4, 5, 6)), None);
        assert_eq!(t.get(&(Op::Ite, 7, 5, 6)), None);
        assert_eq!(t.get(&(Op::Ite, 4, 7, 6)), None);
        assert_eq!(t.get(&(Op::Ite, 4, 5, 7)), None);
        // An empty slot matches no key.
        let mut empty = ComputedTable::new(1);
        assert_eq!(empty.get(&(Op::Ite, 0, 0, 0)), None);
    }

    #[test]
    fn the_table_never_exceeds_its_bound() {
        for bound in [1, 16, 100, 1 << 12] {
            let mut t = ComputedTable::new(bound);
            for i in 0..20_000u32 {
                t.put((Op::Exists, i, i + 1, 0), i);
                assert!(
                    t.slots.len() <= bound,
                    "{} slots over {bound}",
                    t.slots.len()
                );
            }
            assert_eq!(t.slots.len(), floor_pow2(bound));
            assert_eq!(t.capacity(), floor_pow2(bound));
        }
        // Lowering the bound shrinks a grown table at once.
        let mut t = ComputedTable::new(1 << 12);
        for i in 0..5_000u32 {
            t.put((Op::Ite, i, 1, 0), i);
        }
        t.set_capacity(100);
        assert_eq!(t.slots.len(), 64);
    }

    #[test]
    fn the_table_doubles_once_inserts_exceed_its_slots() {
        let mut t = ComputedTable::new(1 << 16);
        assert_eq!(t.slots.len(), INITIAL_SLOTS);
        for i in 0..INITIAL_SLOTS as u32 {
            t.put((Op::Ite, i + 2, 0, 0), i);
        }
        assert_eq!(t.slots.len(), INITIAL_SLOTS);
        t.put((Op::Ite, 1, 1, 1), 1);
        assert_eq!(t.slots.len(), 2 * INITIAL_SLOTS);
    }

    #[test]
    fn growth_keeps_every_entry() {
        let mut t = ComputedTable::new(1 << 16);
        // Fill half the initial table, one key per slot, so no insert
        // evicts.
        let mut kept = Vec::new();
        let mut used = std::collections::HashSet::new();
        for i in 2u32.. {
            let key = (Op::AndExists, i, i + 3, 1);
            if used.insert(t.index(&key)) {
                t.put(key, i);
                kept.push((key, i));
            }
            if kept.len() == INITIAL_SLOTS / 2 {
                break;
            }
        }
        t.resize(2 * INITIAL_SLOTS);
        assert_eq!(t.evictions(), 0, "growth must not evict");
        for (key, v) in kept {
            assert_eq!(t.get(&key), Some(v), "growth lost {key:?}");
        }
    }

    #[test]
    fn remap_rewrites_survivors_and_drops_the_rest() {
        let mut t = ComputedTable::new(16);
        t.put((Op::Ite, 4, 3, 0), 5);
        t.put((Op::Ite, 6, 3, 0), 5);
        t.put((Op::Exists, 5, 3, 0), 2);
        let evictions = t.evictions();
        // Compaction: terminals stay put, 3→2, 4→3, 5→4; nodes 2 and 6 die.
        let map = [0, 1, u32::MAX, 2, 3, 4, u32::MAX];
        t.remap(&map);
        assert_eq!(t.get(&(Op::Ite, 3, 2, 0)), Some(4));
        assert_eq!(t.get(&(Op::Ite, 6, 3, 0)), None, "a dead operand drops it");
        assert_eq!(
            t.get(&(Op::Exists, 4, 2, 0)),
            None,
            "a dead result drops it"
        );
        assert_eq!(
            t.get(&(Op::Ite, 4, 3, 0)),
            None,
            "stale key must not linger"
        );
        assert_eq!(t.slots.len(), 16, "remap keeps the table's size");
        assert_eq!(t.evictions(), evictions, "dropping is not evicting");
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

    #[test]
    fn bounds_round_down_to_powers_of_two() {
        assert_eq!(floor_pow2(0), 1);
        assert_eq!(floor_pow2(1), 1);
        assert_eq!(floor_pow2(100), 64);
        assert_eq!(floor_pow2(1 << 20), 1 << 20);
        assert_eq!(ComputedTable::new(5).capacity(), 4);
    }
}
