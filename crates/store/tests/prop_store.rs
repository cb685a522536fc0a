//! Property-based tests of [`ObligationKey`] canonicalisation: the key of
//! an obligation must not depend on the order the alphabet was declared in,
//! nor on the order transitions were inserted, because neither changes the
//! system `(Σ, R)` the paper reasons about.

use cmc_ctl::{parse, Restriction};
use cmc_kripke::{Alphabet, System};
use cmc_store::ObligationKey;
use proptest::prelude::*;

const POOL: [&str; 4] = ["a", "b", "c", "d"];

/// Build a system whose alphabet is declared in `declared` order, adding
/// `pairs` in the given order. States are specified *by name* relative to
/// the full pool, so the same `pairs` describe the same relation no matter
/// how the alphabet happens to be ordered.
fn build(declared: &[&str], n: usize, pairs: &[(u8, u8)]) -> System {
    let mut m = System::new(Alphabet::new(declared.to_vec()));
    let set = |bits: u8| -> Vec<&str> {
        (0..n)
            .filter(|&i| bits & (1 << i) != 0)
            .map(|i| POOL[i])
            .collect()
    };
    for &(s, t) in pairs {
        m.add_transition_named(&set(s), &set(t));
    }
    m
}

/// Apply a swap sequence as a permutation (every sequence of transpositions
/// is a permutation, and random sequences cover the group).
fn shuffled<T: Clone>(items: &[T], swaps: &[usize]) -> Vec<T> {
    let mut out = items.to_vec();
    if out.is_empty() {
        return out;
    }
    for (i, &j) in swaps.iter().enumerate() {
        let a = i % out.len();
        let b = j % out.len();
        out.swap(a, b);
    }
    out
}

const FORMULAS: [&str; 4] = ["AG a", "EF (a & b)", "a -> AX b", "AG EF (a | !b)"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Alphabet declaration order and transition insertion order are both
    /// canonicalised away by the key, for every obligation shape.
    #[test]
    fn key_ignores_alphabet_and_transition_order(
        n in 2usize..=4,
        raw in proptest::collection::vec((0u8..16, 0u8..16), 0..12),
        name_swaps in proptest::collection::vec(0usize..4, 4),
        pair_swaps in proptest::collection::vec(0usize..12, 12),
        which in 0usize..4,
    ) {
        let mask = (1u8 << n) - 1;
        let pairs: Vec<(u8, u8)> = raw.iter().map(|&(s, t)| (s & mask, t & mask)).collect();
        let names: Vec<&str> = POOL[..n].to_vec();

        let canonical = build(&names, n, &pairs);
        let scrambled = build(&shuffled(&names, &name_swaps), n, &shuffled(&pairs, &pair_swaps));

        let f = parse(FORMULAS[which]).unwrap();
        let trivial = Restriction::trivial();
        prop_assert_eq!(
            ObligationKey::composed("prove", "explicit", &[&canonical], &trivial, &f),
            ObligationKey::composed("prove", "explicit", &[&scrambled], &trivial, &f)
        );

        let r = Restriction::new(parse("a").unwrap(), [parse("b").unwrap(), parse("a").unwrap()]);
        prop_assert_eq!(
            ObligationKey::composed("prove", "explicit", &[&canonical], &r, &f),
            ObligationKey::composed("prove", "explicit", &[&scrambled], &r, &f)
        );

        // A composed obligation over the scrambled copy and a disjoint
        // partner matches the canonical one, in either component order.
        let partner = build(&["d"], 0, &[]);
        prop_assert_eq!(
            ObligationKey::composed("prove", "explicit", &[&canonical, &partner], &r, &f),
            ObligationKey::composed("prove", "explicit", &[&partner, &scrambled], &r, &f)
        );
    }

    /// Adding a transition that was not already present changes the key:
    /// canonicalisation must not collapse genuinely different relations.
    #[test]
    fn key_distinguishes_different_relations(
        n in 2usize..=4,
        raw in proptest::collection::vec((0u8..16, 0u8..16), 0..12),
        extra in (0u8..16, 0u8..16),
    ) {
        let mask = (1u8 << n) - 1;
        let pairs: Vec<(u8, u8)> = raw.iter().map(|&(s, t)| (s & mask, t & mask)).collect();
        let extra = (extra.0 & mask, extra.1 & mask);
        // Implicit reflexive transitions are not part of `R`'s proper part,
        // and re-adding a present pair changes nothing: skip those draws.
        prop_assume!(extra.0 != extra.1 && !pairs.contains(&extra));

        let names: Vec<&str> = POOL[..n].to_vec();
        let base = build(&names, n, &pairs);
        let mut grown_pairs = pairs.clone();
        grown_pairs.push(extra);
        let grown = build(&names, n, &grown_pairs);

        let f = parse("AG a").unwrap();
        let r = Restriction::trivial();
        prop_assert_ne!(
            ObligationKey::composed("prove", "explicit", &[&base], &r, &f),
            ObligationKey::composed("prove", "explicit", &[&grown], &r, &f)
        );
    }
}
