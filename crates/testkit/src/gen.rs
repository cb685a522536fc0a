//! Seeded, deterministic generators for the differential corpus.
//!
//! Everything is driven by one `u64` seed through the workspace's
//! deterministic `StdRng` (splitmix64), so any failure is replayable with
//! `cargo run -p cmc-testkit -- --seed N`. The generators cover the
//! paper's ingredient list:
//!
//! * structures `M = (Σ, R)` — reflexive by construction (`System` ignores
//!   self-pairs and stutters implicitly), with controllable alphabet width
//!   and transition density,
//! * CTL formulas stratified by the paper's property classes: universal
//!   (§3.3 Rule 2 shapes), existential (Rules 1/3), guarantees-style
//!   `p ⇒ A[p U q]` and the `p ⇒ AX q` shapes of Lemmas 6–7, plus
//!   unconstrained formulas for the fallback paths,
//! * restrictions `r = (I, F)` with 0–2 propositional fairness
//!   constraints,
//! * interleaving compositions `M ∘ M'` over overlapping alphabets.

use cmc_ctl::{Formula, Restriction};
use cmc_kripke::{Alphabet, State, System};
use rand::rngs::StdRng;
use rand::Rng;

/// Widest union alphabet the narrow generators draw ([`gen_obligation`],
/// [`gen_partitioned_obligation`], [`gen_sim_pair`]).
const MAX_PROPS: usize = 4;
/// Most proper transitions the generators have [`gen_system`] sample for
/// one system.
const MAX_TRANSITIONS: usize = 12;
/// Deepest formula nesting the generators draw.
const MAX_DEPTH: usize = 3;

/// The property-class strata the formula generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stratum {
    /// Universal properties (¬, ∧, ∨ over atoms; AX, AG, AU) — Rule 2.
    Universal,
    /// Existential properties (EX, EF, EG, EU) — Rules 1/3.
    Existential,
    /// Guarantee shapes: `p ⇒ A[p U q]` / `p ⇒ AF q` (Rules 4/5).
    Guarantee,
    /// The `p ⇒ AX q` progress shape of Lemmas 6–7.
    AxStep,
    /// Unconstrained CTL (exercises the monolithic fallback).
    Free,
}

/// A generated checking obligation: component systems (interleaved on
/// check), a restriction, and a formula.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// The seed that produced this obligation (for replay reports).
    pub seed: u64,
    /// One or more component systems; the check target is their
    /// interleaving composition.
    pub systems: Vec<System>,
    /// The restriction `r = (I, F)`.
    pub restriction: Restriction,
    /// The formula to check.
    pub formula: Formula,
    /// Which stratum the formula was drawn from.
    pub stratum: Stratum,
}

fn prop_names(offset: usize, n: usize) -> Vec<String> {
    (offset..offset + n).map(|i| format!("v{i}")).collect()
}

/// A random reflexive structure over `names`: `max_transitions` sampled
/// proper pairs (duplicates and self-pairs harmlessly collapse).
pub fn gen_system(rng: &mut StdRng, names: &[String], max_transitions: usize) -> System {
    let mut m = System::new(Alphabet::new(names.to_vec()));
    let space = 1u128 << names.len();
    let count = rng.gen_range(0..=max_transitions);
    for _ in 0..count {
        let s = State(rng.gen_range(0..space));
        let t = State(rng.gen_range(0..space));
        m.add_transition(s, t);
    }
    m
}

/// A random propositional formula over `names`.
pub fn gen_propositional(rng: &mut StdRng, names: &[String], depth: usize) -> Formula {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0..6) {
            0 => Formula::True,
            1 => Formula::ap(&names[rng.gen_range(0..names.len())]).not(),
            _ => Formula::ap(&names[rng.gen_range(0..names.len())]),
        };
    }
    let a = gen_propositional(rng, names, depth - 1);
    let b = gen_propositional(rng, names, depth - 1);
    match rng.gen_range(0..4) {
        0 => a.and(b),
        1 => a.or(b),
        2 => a.not(),
        _ => a.implies(b),
    }
}

/// A universal-class formula (closed under ∧/∨; temporal operators AX, AG,
/// AU only), per Rule 2's grammar.
pub fn gen_universal(rng: &mut StdRng, names: &[String], depth: usize) -> Formula {
    if depth == 0 {
        return gen_propositional(rng, names, 1);
    }
    match rng.gen_range(0..6) {
        0 => gen_universal(rng, names, depth - 1).and(gen_universal(rng, names, depth - 1)),
        1 => gen_universal(rng, names, depth - 1).or(gen_universal(rng, names, depth - 1)),
        2 => gen_universal(rng, names, depth - 1).ax(),
        3 => gen_universal(rng, names, depth - 1).ag(),
        4 => gen_universal(rng, names, depth - 1).au(gen_universal(rng, names, depth - 1)),
        _ => gen_propositional(rng, names, depth),
    }
}

/// An existential-class formula (EX, EF, EG, EU), per Rules 1/3.
pub fn gen_existential(rng: &mut StdRng, names: &[String], depth: usize) -> Formula {
    if depth == 0 {
        return gen_propositional(rng, names, 1);
    }
    match rng.gen_range(0..6) {
        0 => gen_existential(rng, names, depth - 1).and(gen_existential(rng, names, depth - 1)),
        1 => gen_existential(rng, names, depth - 1).or(gen_existential(rng, names, depth - 1)),
        2 => gen_existential(rng, names, depth - 1).ex(),
        3 => gen_existential(rng, names, depth - 1).ef(),
        4 => gen_existential(rng, names, depth - 1).eg(),
        _ => gen_existential(rng, names, depth - 1).eu(gen_existential(rng, names, depth - 1)),
    }
}

/// An unconstrained CTL formula.
pub fn gen_free(rng: &mut StdRng, names: &[String], depth: usize) -> Formula {
    if depth == 0 {
        return gen_propositional(rng, names, 1);
    }
    let a = gen_free(rng, names, depth - 1);
    match rng.gen_range(0..11) {
        0 => a.not(),
        1 => a.and(gen_free(rng, names, depth - 1)),
        2 => a.or(gen_free(rng, names, depth - 1)),
        3 => a.ex(),
        4 => a.ax(),
        5 => a.ef(),
        6 => a.af(),
        7 => a.eg(),
        8 => a.ag(),
        9 => a.eu(gen_free(rng, names, depth - 1)),
        _ => a.au(gen_free(rng, names, depth - 1)),
    }
}

/// Draw a formula from `stratum`.
pub fn gen_formula(rng: &mut StdRng, names: &[String], depth: usize, stratum: Stratum) -> Formula {
    match stratum {
        Stratum::Universal => gen_universal(rng, names, depth),
        Stratum::Existential => gen_existential(rng, names, depth),
        Stratum::Guarantee => {
            // p ⇒ A[p U q] (Rule 4's conclusion) or p ⇒ AF q (Rule 5's).
            let p = gen_propositional(rng, names, 1);
            let q = gen_propositional(rng, names, 1);
            if rng.gen_bool(0.5) {
                p.clone().implies(p.au(q))
            } else {
                p.implies(q.af())
            }
        }
        Stratum::AxStep => {
            // The Lemma 6/7 progress shape p ⇒ AX q.
            let p = gen_propositional(rng, names, 1);
            let q = gen_propositional(rng, names, 1);
            p.implies(q.ax())
        }
        Stratum::Free => gen_free(rng, names, depth),
    }
}

/// A restriction with a random propositional init and 0–2 propositional
/// fairness constraints (a non-trivial fairness *set*, exercising the
/// Emerson–Lei conjunction over multiple `Fᵢ`).
pub fn gen_restriction(rng: &mut StdRng, names: &[String]) -> Restriction {
    let init = if rng.gen_bool(0.4) {
        Formula::True
    } else {
        gen_propositional(rng, names, 2)
    };
    let n_fair = rng.gen_range(0..=2);
    let fairness: Vec<Formula> = (0..n_fair)
        .map(|_| gen_propositional(rng, names, 1))
        .collect();
    Restriction::new(init, fairness)
}

/// Generate one full obligation from `seed`: either a single system over
/// the whole alphabet, or an interleaving composition `M ∘ M'` of two
/// components whose alphabets overlap in the middle.
pub fn gen_obligation(seed: u64) -> Obligation {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=MAX_PROPS);
    let names = prop_names(0, n);

    let systems = if n >= 3 && rng.gen_bool(0.5) {
        // Split into two overlapping components: [0..k+1) and [k..n).
        let k = rng.gen_range(1..n - 1);
        let left: Vec<String> = names[..=k].to_vec();
        let right: Vec<String> = names[k..].to_vec();
        vec![
            gen_system(&mut rng, &left, MAX_TRANSITIONS),
            gen_system(&mut rng, &right, MAX_TRANSITIONS),
        ]
    } else {
        vec![gen_system(&mut rng, &names, MAX_TRANSITIONS)]
    };

    let stratum = match rng.gen_range(0..8) {
        0 | 1 => Stratum::Universal,
        2 | 3 => Stratum::Existential,
        4 => Stratum::Guarantee,
        5 => Stratum::AxStep,
        _ => Stratum::Free,
    };
    let formula = gen_formula(&mut rng, &names, MAX_DEPTH, stratum);
    let restriction = gen_restriction(&mut rng, &names);

    Obligation {
        seed,
        systems,
        restriction,
        formula,
        stratum,
    }
}

/// Generate one **wide** obligation from `seed`: a ring of `props`
/// two-proposition stations (station `i` owns `{v_i, v_{i+1 mod props}}`,
/// always carrying the token-pass arc `{v_i} → {v_{i+1}}` plus a couple of
/// random local arcs) under an initial condition that pins every
/// proposition, placing at most two tokens. These obligations exercise the
/// arbitrary-width explicit kernel against the symbolic engine, past where
/// the reference evaluator (and any dense enumeration) can follow.
///
/// The random arcs come from one of three **families**, rotated by seed:
///
/// * *shrinking* (`seed % 3 == 0`) — the legacy dense ring with
///   popcount-non-increasing arcs only (token moves, drops, merges —
///   never mints), so the reachable fragment stays combinatorially small
///   (assignments with ≤ 2 set bits);
/// * *minting* (`seed % 3 == 1`) — a **sparse** ring where only a few
///   stations are active, one of them carrying a popcount-*increasing*
///   arc, making reachability non-monotone in token count;
/// * *mixed* (`seed % 3 == 2`) — the sparse ring with every active
///   station drawing from the combined pool, biased 3:1 toward
///   shrinking arcs.
///
/// The non-monotone families *must* be sparse: a mint anywhere on a dense
/// ring cascades through the token-pass arcs until the reachable fragment
/// approaches `C(props, k)` for climbing `k`, past any oracle budget. With
/// only a few active stations the mutable bits form short islands and the
/// fragment stays a product of small local state spaces — wide,
/// non-monotone, and still enumerable.
pub fn gen_wide_obligation(seed: u64, props: usize) -> Obligation {
    use rand::SeedableRng;
    assert!(props >= 3, "a ring needs at least 3 stations");
    // Decorrelate from the other obligation streams.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x91de_0b11_6a71_0a5e);
    let names = prop_names(0, props);
    // Local states over [v_i, v_j] with popcount(target) ≤ popcount(source)
    // and source ≠ target: token moves, drops, and merges — never mints.
    const SHRINKING_ARCS: [(u128, u128); 7] =
        [(1, 0), (2, 0), (1, 2), (2, 1), (3, 1), (3, 2), (3, 0)];
    // Popcount-increasing arcs: token mints and duplications.
    const GROWING_ARCS: [(u128, u128); 5] = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)];
    let family = seed % 3;
    let active: Vec<bool> = if family == 0 {
        vec![true; props]
    } else {
        let mut v = vec![false; props];
        let mut chosen = 0;
        while chosen < 5.min(props) {
            let i = rng.gen_range(0..props);
            if !v[i] {
                v[i] = true;
                chosen += 1;
            }
        }
        v
    };
    let minting_station = (0..props).find(|&i| active[i]).unwrap_or(0);
    let systems: Vec<System> = (0..props)
        .map(|i| {
            let local = vec![names[i].clone(), names[(i + 1) % props].clone()];
            let mut m = System::new(Alphabet::new(local.clone()));
            if !active[i] {
                return m; // frozen station: stutter only
            }
            m.add_transition_named(&[local[0].as_str()], &[local[1].as_str()]);
            for _ in 0..rng.gen_range(0..=3) {
                let (s, t) = if family == 2 && rng.gen_range(0..4) == 0 {
                    GROWING_ARCS[rng.gen_range(0..GROWING_ARCS.len())]
                } else {
                    SHRINKING_ARCS[rng.gen_range(0..SHRINKING_ARCS.len())]
                };
                m.add_transition(State(s), State(t));
            }
            if family == 1 && i == minting_station {
                let (s, t) = GROWING_ARCS[rng.gen_range(0..GROWING_ARCS.len())];
                m.add_transition(State(s), State(t));
            }
            m
        })
        .collect();

    // Pin every proposition: one token at v0, possibly a second elsewhere.
    let second = rng.gen_range(0..props);
    let init = Formula::and_many(names.iter().enumerate().map(|(i, n)| {
        let p = Formula::ap(n.clone());
        if i == 0 || i == second {
            p
        } else {
            p.not()
        }
    }));
    let stratum = match rng.gen_range(0..8) {
        0 | 1 => Stratum::Universal,
        2 | 3 => Stratum::Existential,
        4 => Stratum::Guarantee,
        5 => Stratum::AxStep,
        _ => Stratum::Free,
    };
    let formula = gen_formula(&mut rng, &names, MAX_DEPTH, stratum);
    let n_fair = rng.gen_range(0..=1);
    let fairness: Vec<Formula> = (0..n_fair)
        .map(|_| gen_propositional(&mut rng, &names, 1))
        .collect();

    Obligation {
        seed,
        systems,
        restriction: Restriction::new(init, fairness),
        formula,
        stratum,
    }
}

/// Generate one **partitioned** obligation from `seed`: always a
/// composition of 2–4 components whose alphabets form an overlapping
/// chain over the union (component `i` shares at least one proposition
/// with component `i+1`), so the symbolic engine gets a genuinely
/// disjunctive multi-partition relation and the explicit engine gets
/// real frame padding. This is the disagreement-seeking corpus for the
/// unmerged, scheduled and monolithic symbolic plans against the explicit
/// backend and the reference.
pub fn gen_partitioned_obligation(seed: u64) -> Obligation {
    use rand::SeedableRng;
    // Decorrelate from the plain obligation stream.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5_5a5a_c3c3_3c3c);
    let n = rng.gen_range(3..=MAX_PROPS);
    let names = prop_names(0, n);
    let k = rng.gen_range(2..=n.min(4));

    // Split [0, n) into k contiguous non-empty segments, then widen each
    // by one proposition into its neighbours so consecutive alphabets
    // overlap.
    let mut cuts: Vec<usize> = (1..n).collect();
    for i in (1..cuts.len()).rev() {
        let j = rng.gen_range(0..=i);
        cuts.swap(i, j);
    }
    let mut cuts: Vec<usize> = cuts[..k - 1].to_vec();
    cuts.sort_unstable();
    cuts.insert(0, 0);
    cuts.push(n);

    let systems: Vec<System> = (0..k)
        .map(|i| {
            let lo = cuts[i].saturating_sub(1);
            let hi = (cuts[i + 1] + 1).min(n);
            gen_system(&mut rng, &names[lo..hi], MAX_TRANSITIONS)
        })
        .collect();

    let stratum = match rng.gen_range(0..8) {
        0 | 1 => Stratum::Universal,
        2 | 3 => Stratum::Existential,
        4 => Stratum::Guarantee,
        5 => Stratum::AxStep,
        _ => Stratum::Free,
    };
    let formula = gen_formula(&mut rng, &names, MAX_DEPTH, stratum);
    let restriction = gen_restriction(&mut rng, &names);

    Obligation {
        seed,
        systems,
        restriction,
        formula,
        stratum,
    }
}

/// How a generated simulation pair was constructed (and hence what, if
/// anything, is known about its verdict a priori).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPairKind {
    /// `A = C`: reflexivity, holds by construction.
    Identity,
    /// `A = C|Σ'`: projection, holds by construction (the substitution
    /// rule's canonical shape).
    Projection,
    /// Projection plus extra abstract moves: still holds (adding abstract
    /// behaviour only makes matching easier).
    WeakenedProjection,
    /// Projection minus one abstract move: verdict unknown — usually
    /// fails, occasionally the dropped move was redundant.
    MutatedProjection,
    /// An independent random abstraction over an overlapping (sometimes
    /// abstract-private-extended) alphabet: verdict unknown.
    Random,
}

/// A generated `(concrete, abstraction)` simulation pair.
#[derive(Debug, Clone)]
pub struct SimPair {
    /// Seed that produced the pair (for replay reports).
    pub seed: u64,
    /// The concrete system.
    pub concrete: System,
    /// The candidate abstraction.
    pub abstraction: System,
    /// The verdict known by construction, when there is one.
    pub expected: Option<bool>,
    /// Construction recipe.
    pub kind: SimPairKind,
}

/// Generate one `(concrete, abstraction)` pair from `seed`. Roughly
/// two-thirds of pairs carry a known verdict (identity, projection,
/// weakened projection — all `holds` by construction); the rest exercise
/// the failure paths and the relational fixpoint with abstract-private
/// propositions.
pub fn gen_sim_pair(seed: u64) -> SimPair {
    use rand::SeedableRng;
    // Decorrelate from the obligation stream so the two corpora differ.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1f7_5e0d_beef_cafe);
    let n = rng.gen_range(2..=MAX_PROPS);
    let names = prop_names(0, n);
    let concrete = gen_system(&mut rng, &names, MAX_TRANSITIONS);

    // A random non-empty kept subset, in alphabet order.
    let k = rng.gen_range(1..=n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let mut kept = idx[..k].to_vec();
    kept.sort_unstable();
    let keep: Vec<String> = kept.iter().map(|&i| names[i].clone()).collect();
    let keep_alpha = Alphabet::new(keep.clone());

    let (kind, abstraction, expected) = match rng.gen_range(0..6) {
        0 => (SimPairKind::Identity, concrete.clone(), Some(true)),
        1 | 2 => (
            SimPairKind::Projection,
            concrete.project(&keep_alpha),
            Some(true),
        ),
        3 => {
            let mut a = concrete.project(&keep_alpha);
            let space = 1u128 << keep.len();
            for _ in 0..rng.gen_range(1..=3) {
                a.add_transition(
                    State(rng.gen_range(0..space)),
                    State(rng.gen_range(0..space)),
                );
            }
            (SimPairKind::WeakenedProjection, a, Some(true))
        }
        4 => {
            let a = concrete.project(&keep_alpha);
            let count = a.proper_transitions().count();
            if count == 0 {
                (SimPairKind::Projection, a, Some(true))
            } else {
                let skip = rng.gen_range(0..count);
                let mut out = System::new(a.alphabet().clone());
                for (i, (s, t)) in a.proper_transitions().enumerate() {
                    if i != skip {
                        out.add_transition(s, t);
                    }
                }
                (SimPairKind::MutatedProjection, out, None)
            }
        }
        _ => {
            let mut anames = keep.clone();
            if rng.gen_bool(0.5) {
                // An abstract-private proposition keeps the greatest
                // fixpoint genuinely relational.
                anames.push("hidden".to_string());
            }
            let a = gen_system(&mut rng, &anames, MAX_TRANSITIONS);
            (SimPairKind::Random, a, None)
        }
    };

    SimPair {
        seed,
        concrete,
        abstraction,
        expected,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            let a = gen_obligation(seed);
            let b = gen_obligation(seed);
            assert_eq!(a.formula, b.formula);
            assert_eq!(a.restriction.init, b.restriction.init);
            assert_eq!(a.restriction.fairness, b.restriction.fairness);
            assert_eq!(a.systems.len(), b.systems.len());
            for (x, y) in a.systems.iter().zip(&b.systems) {
                assert!(x.equivalent(y));
            }
        }
    }

    #[test]
    fn strata_respect_their_grammars() {
        let mut rng = StdRng::seed_from_u64(7);
        let names = prop_names(0, 3);
        for _ in 0..100 {
            let u = gen_universal(&mut rng, &names, 3);
            assert!(
                no_existential(&u),
                "universal stratum produced an E-operator: {u}"
            );
            let p = gen_propositional(&mut rng, &names, 3);
            assert!(p.is_propositional(), "not propositional: {p}");
        }
    }

    fn no_existential(f: &Formula) -> bool {
        use Formula::*;
        match f {
            True | False | Ap(_) => true,
            Not(g) | Ax(g) | Ag(g) | Af(g) => no_existential(g),
            And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) | Au(a, b) => {
                no_existential(a) && no_existential(b)
            }
            Ex(_) | Ef(_) | Eg(_) | Eu(_, _) => false,
        }
    }

    #[test]
    fn sim_pairs_are_deterministic_and_overlapping() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..120 {
            let a = gen_sim_pair(seed);
            let b = gen_sim_pair(seed);
            assert!(a.concrete.equivalent(&b.concrete));
            assert!(a.abstraction.equivalent(&b.abstraction));
            assert_eq!(a.kind, b.kind);
            kinds.insert(format!("{:?}", a.kind));
            // Every pair shares at least one observable: the kept subset
            // is non-empty by construction.
            let shared = a
                .concrete
                .alphabet()
                .names()
                .iter()
                .any(|n| a.abstraction.alphabet().contains(n));
            assert!(shared, "seed {seed}: no shared observable");
        }
        assert!(
            kinds.len() >= 4,
            "120 seeds should exercise most pair kinds, got {kinds:?}"
        );
    }

    #[test]
    fn partitioned_obligations_form_overlapping_chains() {
        let mut sizes = std::collections::BTreeSet::new();
        for seed in 0..150 {
            let a = gen_partitioned_obligation(seed);
            let b = gen_partitioned_obligation(seed);
            assert_eq!(a.formula, b.formula, "seed {seed} not deterministic");
            assert_eq!(a.systems.len(), b.systems.len());
            assert!(
                (2..=4).contains(&a.systems.len()),
                "seed {seed}: {} components",
                a.systems.len()
            );
            sizes.insert(a.systems.len());
            for w in a.systems.windows(2) {
                let l = w[0].alphabet();
                let r = w[1].alphabet();
                assert!(
                    l.names().iter().any(|n| r.contains(n)),
                    "seed {seed}: consecutive components do not overlap"
                );
            }
        }
        assert!(
            sizes.len() >= 2,
            "150 seeds should vary the component count, got {sizes:?}"
        );
    }

    #[test]
    fn wide_families_cover_non_monotone_reachability() {
        let grows = |o: &Obligation| {
            o.systems.iter().any(|m| {
                m.proper_transitions()
                    .any(|(s, t)| t.0.count_ones() > s.0.count_ones())
            })
        };
        let mut shrinking_only = true;
        let mut minting = 0usize;
        let mut mixed_minting = 0usize;
        for seed in 0..30u64 {
            let o = gen_wide_obligation(seed, 9);
            match seed % 3 {
                0 => shrinking_only &= !grows(&o),
                1 => minting += usize::from(grows(&o)),
                _ => mixed_minting += usize::from(grows(&o)),
            }
        }
        assert!(shrinking_only, "family 0 must never mint tokens");
        assert_eq!(minting, 10, "family 1 always carries a minting arc");
        assert!(
            mixed_minting >= 3,
            "mixed family minted in only {mixed_minting}/10 seeds"
        );
    }

    #[test]
    fn compositions_share_a_proposition() {
        let mut found_composed = false;
        for seed in 0..200 {
            let o = gen_obligation(seed);
            if o.systems.len() == 2 {
                found_composed = true;
                let a = o.systems[0].alphabet();
                let b = o.systems[1].alphabet();
                assert!(
                    a.names().iter().any(|n| b.contains(n)),
                    "components must overlap"
                );
            }
        }
        assert!(found_composed, "no composed obligation in 200 seeds");
    }
}
