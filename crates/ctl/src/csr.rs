//! Compressed-sparse-row adjacency indices over the `2^n` state space.
//!
//! The frontier kernel in [`crate::checker`] needs constant-time access to
//! the predecessors (for `pre`-style fixpoints) and successors (for
//! witness extraction) of a state. This module builds both directions once
//! — either from a materialised [`System`] or *directly from component
//! systems*, enumerating each component's transitions padded over the
//! frame propositions it does not own (§3.1's composition), so the
//! exponential interleaving product is never constructed as a `System` at
//! all.
//!
//! Layout: the standard CSR pair `(offsets, edges)` per direction, with
//! `u32` entries (the explicit-state limit caps indices far below `2^32`).
//! A system with no proper transitions keeps both arrays empty and every
//! adjacency query returns the empty slice, so constructing a checker for
//! a wide but edge-free system stays O(1) in the universe size.

use cmc_kripke::{Alphabet, State, System};

/// Immutable predecessor/successor adjacency over a fixed `2^n` universe.
///
/// Only *proper* (non-reflexive) transitions are stored; the paper's
/// implicit stutter transitions are handled algebraically by the kernel
/// (`S ⊆ EX S` always holds).
#[derive(Debug, Clone, Default)]
pub struct CsrIndex {
    universe: usize,
    /// `pred_off[v]..pred_off[v+1]` indexes `pred` with the sources of
    /// edges into `v`. Empty when the relation has no proper transitions.
    pred_off: Vec<u32>,
    pred: Vec<u32>,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
}

impl CsrIndex {
    /// Index the proper transitions of one system over its own alphabet.
    pub fn from_system(system: &System) -> Self {
        let universe = 1usize << system.alphabet().len();
        let edges = || {
            system
                .proper_transitions()
                .map(|(s, t)| (s.0 as u32, t.0 as u32))
        };
        Self::build(universe, system.proper_transition_count(), edges)
    }

    /// Build from an explicit edge list over an arbitrary dense-id space.
    ///
    /// This is the entry point for the reachable-only kernel: the on-the-fly
    /// BFS interns states to dense ids (`0..universe`) and hands the edges it
    /// discovered here — the universe is the *interned* state count, not a
    /// power of two, and no frame padding is ever enumerated.
    pub fn from_edges(universe: usize, edges: &[(u32, u32)]) -> Self {
        Self::build(universe, edges.len(), || edges.iter().copied())
    }

    /// Index the interleaving composition `M₁ ∘ … ∘ Mₙ ∘ (extra, I)`
    /// directly from its components: each component transition is embedded
    /// into the union alphabet and replicated over every valuation of the
    /// propositions the component does not own. Equivalent to
    /// `from_system` of the materialised product, without ever building
    /// the product's `BTreeMap`s.
    pub fn from_components(systems: &[&System], union: &Alphabet) -> Self {
        let n = union.len();
        let universe = 1usize << n;
        let full_mask = if n == 0 { 0u128 } else { (1u128 << n) - 1 };
        // Per-component embedded edges plus frame masks, computed once.
        let mut padded: Vec<(u128, Vec<(u32, u32)>)> = Vec::with_capacity(systems.len());
        let mut total = 0usize;
        for sys in systems {
            let own = sys.alphabet();
            let mut owned_mask = 0u128;
            for name in own.names() {
                owned_mask |= 1u128
                    << union
                        .position(name)
                        .expect("component alphabet outside the union");
            }
            let frame = full_mask & !owned_mask;
            let base: Vec<(u32, u32)> = sys
                .proper_transitions()
                .map(|(s, t)| (s.embed(own, union).0 as u32, t.embed(own, union).0 as u32))
                .collect();
            total += base.len() << frame.count_ones();
            padded.push((frame, base));
        }
        let edges = || {
            padded.iter().flat_map(|(frame, base)| {
                base.iter().flat_map(move |&(s, t)| {
                    subsets(*frame).map(move |r| (s | r as u32, t | r as u32))
                })
            })
        };
        Self::build(universe, total, edges)
    }

    /// Two counting-sort passes over the edge enumeration: count
    /// in-degrees/out-degrees, prefix-sum into offsets, scatter.
    fn build<I, F>(universe: usize, total: usize, edges: F) -> Self
    where
        I: Iterator<Item = (u32, u32)>,
        F: Fn() -> I,
    {
        if total == 0 {
            return CsrIndex {
                universe,
                ..CsrIndex::default()
            };
        }
        let mut pred_off = vec![0u32; universe + 1];
        let mut succ_off = vec![0u32; universe + 1];
        for (s, t) in edges() {
            pred_off[t as usize + 1] += 1;
            succ_off[s as usize + 1] += 1;
        }
        for v in 0..universe {
            pred_off[v + 1] += pred_off[v];
            succ_off[v + 1] += succ_off[v];
        }
        let mut pred = vec![0u32; total];
        let mut succ = vec![0u32; total];
        let mut pred_fill = pred_off.clone();
        let mut succ_fill = succ_off.clone();
        for (s, t) in edges() {
            pred[pred_fill[t as usize] as usize] = s;
            pred_fill[t as usize] += 1;
            succ[succ_fill[s as usize] as usize] = t;
            succ_fill[s as usize] += 1;
        }
        CsrIndex {
            universe,
            pred_off,
            pred,
            succ_off,
            succ,
        }
    }

    /// Number of states in the universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of proper edges indexed (duplicates across components are
    /// kept — they are harmless to the fixpoints).
    pub fn edge_count(&self) -> usize {
        self.pred.len()
    }

    /// Sources of proper transitions into state `v`.
    #[inline]
    pub fn predecessors(&self, v: usize) -> &[u32] {
        if self.pred_off.is_empty() {
            return &[];
        }
        &self.pred[self.pred_off[v] as usize..self.pred_off[v + 1] as usize]
    }

    /// Targets of proper transitions out of state `u`.
    #[inline]
    pub fn successors(&self, u: usize) -> &[u32] {
        if self.succ_off.is_empty() {
            return &[];
        }
        &self.succ[self.succ_off[u] as usize..self.succ_off[u + 1] as usize]
    }

    /// Successors as [`State`]s (witness extraction convenience).
    pub fn successor_states(&self, u: State) -> impl Iterator<Item = State> + '_ {
        self.successors(u.0 as usize)
            .iter()
            .map(|&t| State(t as u128))
    }
}

/// Iterate all subsets of the set bits of `mask` (including `0` and
/// `mask`) — the frame valuations of §3.1.
fn subsets(mask: u128) -> impl Iterator<Item = u128> {
    let mut cur = 0u128;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let out = cur;
        if cur == mask {
            done = true;
        } else {
            cur = cur.wrapping_sub(mask) & mask;
        }
        Some(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggler(name: &str) -> System {
        let mut m = System::new(Alphabet::new([name]));
        m.add_transition_named(&[], &[name]);
        m.add_transition_named(&[name], &[]);
        m
    }

    #[test]
    fn from_system_indexes_both_directions() {
        let mut m = System::new(Alphabet::new(["a", "b"]));
        m.add_transition_named(&[], &["a"]);
        m.add_transition_named(&["a"], &["a", "b"]);
        m.add_transition_named(&["b"], &["a", "b"]);
        let csr = CsrIndex::from_system(&m);
        assert_eq!(csr.universe(), 4);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.successors(0b00), &[0b01]);
        assert_eq!(csr.predecessors(0b11), &[0b01, 0b10]);
        assert_eq!(csr.predecessors(0b00), &[] as &[u32]);
    }

    #[test]
    fn empty_relation_stays_lazy() {
        let m = System::new(Alphabet::new(["a", "b", "c"]));
        let csr = CsrIndex::from_system(&m);
        assert_eq!(csr.edge_count(), 0);
        for v in 0..8 {
            assert!(csr.predecessors(v).is_empty());
            assert!(csr.successors(v).is_empty());
        }
    }

    /// The component-built index must cover exactly the edge *set* of the
    /// materialised product (the product dedups shared edges; the CSR may
    /// keep duplicates, so compare as sets).
    #[test]
    fn from_components_matches_materialised_product() {
        use std::collections::BTreeSet;
        let m = toggler("x");
        let mp = toggler("y");
        let union = m.alphabet().union(mp.alphabet());
        let csr = CsrIndex::from_components(&[&m, &mp], &union);
        let product = m.compose(&mp);
        let want: BTreeSet<(u32, u32)> = product
            .proper_transitions()
            .map(|(s, t)| (s.0 as u32, t.0 as u32))
            .collect();
        let mut got = BTreeSet::new();
        for u in 0..csr.universe() {
            for &t in csr.successors(u) {
                got.insert((u as u32, t));
            }
        }
        assert_eq!(got, want);
        // Predecessor direction agrees with successor direction.
        let mut via_pred = BTreeSet::new();
        for v in 0..csr.universe() {
            for &s in csr.predecessors(v) {
                via_pred.insert((s, v as u32));
            }
        }
        assert_eq!(via_pred, got);
    }

    #[test]
    fn from_components_respects_extra_identity_frame() {
        // One toggler expanded over an extra proposition: the frame bit
        // never changes across any edge.
        let m = toggler("x");
        let union = m.alphabet().union(&Alphabet::new(["z"]));
        let csr = CsrIndex::from_components(&[&m], &union);
        assert_eq!(csr.edge_count(), 4); // 2 edges × 2 frame valuations
        for u in 0..csr.universe() {
            for &t in csr.successors(u) {
                assert_eq!(u as u32 & 0b10, t & 0b10, "frame bit moved");
            }
        }
    }
}
