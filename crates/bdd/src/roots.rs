//! Explicit garbage-collection roots.
//!
//! The manager's mark-and-sweep collector ([`crate::BddManager::gc`]) can
//! only keep what it can see: every diagram that must survive a collection
//! has to be registered here. Clients hold a [`RootId`] — a stable slot
//! handle that stays valid across collections even though the underlying
//! node id it stores is remapped by each one.
//!
//! The protocol mirrors CUDD's `Cudd_Ref`/`Cudd_Deref` discipline, except
//! that slots are explicit handles rather than per-node reference counts:
//! protect returns a slot, the slot is re-read after any potential
//! collection point, and unprotect frees it for reuse.

use crate::node::Bdd;

/// A stable handle into the root registry.
///
/// The handle survives garbage collection; the [`Bdd`] read
/// back through [`crate::BddManager::root`] reflects any id remapping that
/// happened since it was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RootId(pub(crate) u32);

/// The root registry: a slab of protected node ids with slot reuse.
#[derive(Debug, Default)]
pub(crate) struct Roots {
    /// `Some(node id)` for live roots, `None` for vacated slots.
    slots: Vec<Option<u32>>,
    /// Indices of vacated slots, reused before the slab grows.
    free: Vec<u32>,
}

impl Roots {
    /// Register `f` and return its slot handle.
    pub(crate) fn protect(&mut self, f: Bdd) -> RootId {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(f.raw());
                RootId(slot)
            }
            None => {
                self.slots.push(Some(f.raw()));
                RootId(self.slots.len() as u32 - 1)
            }
        }
    }

    /// Release a slot. Panics on double-unprotect.
    pub(crate) fn unprotect(&mut self, r: RootId) {
        let slot = r.0 as usize;
        assert!(self.slots[slot].is_some(), "double unprotect of {r:?}");
        self.slots[slot] = None;
        self.free.push(r.0);
    }

    /// Current value of a slot. Panics on a vacated slot.
    pub(crate) fn get(&self, r: RootId) -> Bdd {
        Bdd(self.slots[r.0 as usize].expect("read of unprotected root"))
    }

    /// Overwrite a slot in place (the handle keeps protecting the new
    /// diagram). Panics on a vacated slot.
    pub(crate) fn set(&mut self, r: RootId, f: Bdd) {
        let slot = &mut self.slots[r.0 as usize];
        assert!(slot.is_some(), "write to unprotected root {r:?}");
        *slot = Some(f.raw());
    }

    /// All live root node ids (the collector's mark seeds).
    pub(crate) fn iter_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().filter_map(|s| *s)
    }

    /// Rewrite every live slot through a compaction remap table.
    pub(crate) fn remap(&mut self, remap: &[u32]) {
        for s in self.slots.iter_mut().flatten() {
            let new = remap[*s as usize];
            debug_assert_ne!(new, u32::MAX, "registered root was not marked live");
            *s = new;
        }
    }

    /// Number of live (protected) slots.
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Heap bytes held by the registry's backing storage.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<u32>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protect_get_unprotect_roundtrip() {
        let mut r = Roots::default();
        let a = r.protect(Bdd(7));
        let b = r.protect(Bdd(9));
        assert_eq!(r.get(a), Bdd(7));
        assert_eq!(r.get(b), Bdd(9));
        assert_eq!(r.live(), 2);
        r.unprotect(a);
        assert_eq!(r.live(), 1);
        // Freed slots are reused before the slab grows.
        let c = r.protect(Bdd(11));
        assert_eq!(c, a);
        assert_eq!(r.get(c), Bdd(11));
        assert_eq!(r.slots.len(), 2);
    }

    #[test]
    #[should_panic(expected = "double unprotect")]
    fn double_unprotect_panics() {
        let mut r = Roots::default();
        let a = r.protect(Bdd(3));
        r.unprotect(a);
        r.unprotect(a);
    }

    #[test]
    fn set_and_remap_rewrite_slots() {
        let mut r = Roots::default();
        let a = r.protect(Bdd(4));
        r.set(a, Bdd(5));
        assert_eq!(r.get(a), Bdd(5));
        let mut remap = vec![u32::MAX; 6];
        remap[5] = 2;
        r.remap(&remap);
        assert_eq!(r.get(a), Bdd(2));
    }
}
