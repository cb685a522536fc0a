//! The unique table: an open-addressed index over the node arena.
//!
//! Hash consing needs one question answered per node construction: does
//! the arena already hold `(var, low, high)`? The table answers it with a
//! power-of-two array of arena ids probed linearly from the node's hash.
//! It stores ids only — a probe compares against the arena itself — so no
//! node exists twice in memory, and one probe sequence both finds a node
//! and, when it is absent, names the slot its new id goes in.
//!
//! Every decision node of the arena (ids 2 and up) is in the table, and
//! the table keeps at least two slots per node. It grows by rehashing
//! from the arena, and [`crate::BddManager::gc`] rebuilds it the same way
//! from the compacted arena, sized to the live set.

use crate::hash::FxHasher;
use crate::node::Node;
use std::hash::Hasher;

/// Marks a free slot. Every arena id is below the arena's length, and the
/// manager never lets the arena reach `u32::MAX` nodes.
const EMPTY: u32 = u32::MAX;

/// Slots of the smallest table.
const MIN_SLOTS: usize = 1 << 10;

/// Fx hash of a node, two words; probing starts from the high half.
#[inline]
fn hash(n: &Node) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(u64::from(n.low) | u64::from(n.high) << 32);
    h.write_u64(u64::from(n.var));
    h.finish()
}

#[derive(Debug)]
pub(crate) struct UniqueTable {
    slots: Vec<u32>,
}

impl UniqueTable {
    /// A table holding every decision node of `nodes`, with at least two
    /// slots per node.
    pub(crate) fn from_arena(nodes: &[Node]) -> Self {
        let decision = nodes.len().saturating_sub(2);
        let mut table = UniqueTable {
            slots: vec![EMPTY; (2 * decision).next_power_of_two().max(MIN_SLOTS)],
        };
        for (id, n) in nodes.iter().enumerate().skip(2) {
            let slot = table.find(nodes, n).expect_err("arena holds a node twice");
            table.slots[slot] = id as u32;
        }
        table
    }

    /// The id of `node` in `nodes`, or the free slot where its id belongs.
    #[inline]
    pub(crate) fn find(&self, nodes: &[Node], node: &Node) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash(node) >> 32) as usize & mask;
        loop {
            let id = self.slots[i];
            if id == EMPTY {
                return Err(i);
            }
            if nodes[id as usize] == *node {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record `nodes`' last node, whose id [`UniqueTable::find`] placed at
    /// `slot`, and grow once the table is more than half full.
    #[inline]
    pub(crate) fn insert(&mut self, nodes: &[Node], slot: usize) {
        debug_assert_eq!(self.slots[slot], EMPTY);
        self.slots[slot] = (nodes.len() - 1) as u32;
        if 2 * (nodes.len() - 2) > self.slots.len() {
            *self = Self::from_arena(nodes);
        }
    }

    /// Heap bytes held by the slot array.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TERMINAL_VAR;

    fn terminals() -> Vec<Node> {
        vec![
            Node {
                var: TERMINAL_VAR,
                low: 0,
                high: 0,
            },
            Node {
                var: TERMINAL_VAR,
                low: 1,
                high: 1,
            },
        ]
    }

    #[test]
    fn finds_what_it_inserted_and_grows_at_half_load() {
        let mut nodes = terminals();
        let mut table = UniqueTable::from_arena(&nodes);
        assert_eq!(table.slots.len(), MIN_SLOTS);
        let make = |i: u32| Node {
            var: i % 7,
            low: i / 7,
            high: 1,
        };
        for i in 0..3 * MIN_SLOTS as u32 {
            let n = make(i);
            let slot = table.find(&nodes, &n).expect_err("fresh node");
            nodes.push(n);
            table.insert(&nodes, slot);
            assert!(2 * (nodes.len() - 2) <= table.slots.len());
        }
        assert!(table.slots.len() > MIN_SLOTS, "the table must have grown");
        for i in 0..3 * MIN_SLOTS as u32 {
            assert_eq!(table.find(&nodes, &make(i)), Ok(i + 2));
        }
        assert!(table.find(&nodes, &make(1 << 20)).is_err());
    }

    #[test]
    fn rebuilt_tables_are_sized_to_the_arena() {
        let mut nodes = terminals();
        for i in 0..5000 {
            nodes.push(Node {
                var: 0,
                low: i,
                high: i + 1,
            });
        }
        let big = UniqueTable::from_arena(&nodes);
        assert_eq!(big.slots.len(), 16_384);
        nodes.truncate(100);
        let small = UniqueTable::from_arena(&nodes);
        assert_eq!(small.slots.len(), MIN_SLOTS);
        assert!(small.capacity_bytes() < big.capacity_bytes());
    }
}
