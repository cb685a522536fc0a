//! Dense sets of states for the explicit-state checker's fixpoints.
//!
//! A state of a system over `n` propositions is a subset of the alphabet,
//! i.e. an `n`-bit pattern; a *set of states* is therefore a subset of
//! `2^n` and is stored as a dense bitset indexed by the pattern. All the
//! fixpoint computations of the labelling algorithm are bulk bitwise
//! operations over these words.

use cmc_kripke::State;

/// A dense set of states over a fixed-size state space `2^n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSet {
    words: Vec<u64>,
    universe: usize,
}

impl StateSet {
    /// The empty set over a state space of `universe` states.
    pub fn empty(universe: usize) -> Self {
        StateSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// The full set over a state space of `universe` states: whole words
    /// are filled in one store each and the tail word is masked, instead
    /// of inserting `universe` bits one at a time.
    pub fn full(universe: usize) -> Self {
        let mut s = StateSet::empty(universe);
        for w in s.words.iter_mut() {
            *w = !0;
        }
        let tail = universe % 64;
        if tail != 0 {
            if let Some(last) = s.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        s
    }

    /// Number of states in the universe (not the set).
    pub fn universe(&self) -> usize {
        self.universe
    }

    #[inline]
    fn index_of(s: State) -> usize {
        s.0 as usize
    }

    /// Insert a state.
    #[inline]
    pub fn insert(&mut self, s: State) {
        self.insert_index(Self::index_of(s));
    }

    /// Insert a state by its dense index (the `2^n` pattern).
    #[inline]
    pub fn insert_index(&mut self, i: usize) {
        debug_assert!(i < self.universe);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove a state.
    #[inline]
    pub fn remove(&mut self, s: State) {
        let i = Self::index_of(s);
        debug_assert!(i < self.universe);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, s: State) -> bool {
        self.contains_index(Self::index_of(s))
    }

    /// Membership test by dense index.
    #[inline]
    pub fn contains_index(&self, i: usize) -> bool {
        debug_assert!(i < self.universe);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of states in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self − other`).
    pub fn difference_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Complement within the universe.
    pub fn complement(&self) -> StateSet {
        let mut out = StateSet::empty(self.universe);
        for (o, w) in out.words.iter_mut().zip(&self.words) {
            *o = !w;
        }
        // Mask off bits beyond the universe.
        let tail = self.universe % 64;
        if tail != 0 {
            if let Some(last) = out.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        out
    }

    /// `self ⊆ other`.
    pub fn is_subset_of(&self, other: &StateSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate the member states in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = State> + '_ {
        self.iter_indices().map(|i| State(i as u128))
    }

    /// Word-scan iterator over member *indices* in increasing order:
    /// `trailing_zeros` over each 64-bit word, so sparse sets cost one
    /// branch per word plus one step per member. This is the hot
    /// iteration primitive of the frontier kernel.
    pub fn iter_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = StateSet::empty(10);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = StateSet::full(10);
        assert_eq!(f.len(), 10);
        assert!(e.is_subset_of(&f));
        assert!(!f.is_subset_of(&e));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = StateSet::empty(100);
        s.insert(State(7));
        s.insert(State(64));
        assert!(s.contains(State(7)));
        assert!(s.contains(State(64)));
        assert!(!s.contains(State(8)));
        assert_eq!(s.len(), 2);
        s.remove(State(7));
        assert!(!s.contains(State(7)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let mut a = StateSet::empty(8);
        a.insert(State(1));
        a.insert(State(2));
        let mut b = StateSet::empty(8);
        b.insert(State(2));
        b.insert(State(3));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 3);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.len(), 1);
        assert!(i.contains(State(2)));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.len(), 1);
        assert!(d.contains(State(1)));
    }

    #[test]
    fn complement_masks_tail() {
        let mut s = StateSet::empty(10);
        s.insert(State(0));
        let c = s.complement();
        assert_eq!(c.len(), 9);
        assert!(!c.contains(State(0)));
        assert!(c.contains(State(9)));
        // Double complement is identity.
        assert_eq!(c.complement(), s);
        // Exactly-64 universe exercises the no-tail path.
        let f = StateSet::full(64);
        assert!(f.complement().is_empty());
    }

    #[test]
    fn full_fills_words_and_masks_tail() {
        // Cross word boundaries and exact multiples of 64.
        for universe in [0, 1, 63, 64, 65, 128, 130, 1 << 10] {
            let f = StateSet::full(universe);
            assert_eq!(f.len(), universe, "universe {universe}");
            assert_eq!(f, f.complement().complement());
            assert!(f.complement().is_empty());
            if universe > 0 {
                assert!(f.contains_index(universe - 1));
            }
        }
    }

    #[test]
    fn index_operations_match_state_operations() {
        let mut s = StateSet::empty(200);
        s.insert_index(5);
        s.insert_index(77);
        assert!(s.contains(State(5)) && s.contains_index(77));
        assert!(!s.contains_index(6));
        let idx: Vec<usize> = s.iter_indices().collect();
        assert_eq!(idx, vec![5, 77]);
    }

    #[test]
    fn iteration_order_and_coverage() {
        let mut s = StateSet::empty(130);
        for i in [0u128, 63, 64, 65, 129] {
            s.insert(State(i));
        }
        let got: Vec<u128> = s.iter().map(|st| st.0).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 129]);
    }
}
