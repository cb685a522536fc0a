//! Hash-cons interner mapping discovered states to dense `u32` ids.
//!
//! The reachable-only kernel never enumerates the `2^n` universe: states
//! are discovered by BFS from the initial set, and every kernel below the
//! construction layer (StateSet words, the CSR index, frontier fixpoints)
//! indexes by the dense id handed out here. Ids are assigned in discovery
//! order, so id `0..len` is exactly the reachable fragment and `len` is
//! the checker's universe.

use std::collections::HashMap;

use crate::statevec::StateVec;

/// Maps each distinct [`StateVec`] to a dense `u32` id (hash-consing).
#[derive(Debug, Default)]
pub struct StateInterner {
    ids: HashMap<StateVec, u32>,
    states: Vec<StateVec>,
}

impl StateInterner {
    /// An empty interner.
    pub fn new() -> Self {
        StateInterner::default()
    }

    /// Number of distinct states interned so far.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Has nothing been interned yet?
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Intern `sv`, returning `(id, freshly_inserted)`.
    pub fn intern(&mut self, sv: StateVec) -> (u32, bool) {
        if let Some(&id) = self.ids.get(&sv) {
            return (id, false);
        }
        let id = u32::try_from(self.states.len()).expect("state ids exhausted u32 range");
        self.ids.insert(sv.clone(), id);
        self.states.push(sv);
        (id, true)
    }

    /// The state with dense id `id` (panics if out of range).
    pub fn get(&self, id: usize) -> &StateVec {
        &self.states[id]
    }

    /// The dense id of `sv`, if it has been discovered.
    pub fn lookup(&self, sv: &StateVec) -> Option<u32> {
        self.ids.get(sv).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut interner = StateInterner::new();
        let mut a = StateVec::zero(140);
        a.set(139, true);
        let b = StateVec::zero(140);
        let (ia, fresh_a) = interner.intern(a.clone());
        let (ib, fresh_b) = interner.intern(b.clone());
        let (ia2, fresh_a2) = interner.intern(a.clone());
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!((ia, ib, ia2), (0, 1, 0));
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.get(0), &a);
        assert_eq!(interner.lookup(&b), Some(1));
        assert_eq!(interner.lookup(&StateVec::zero(141)), None);
    }
}
