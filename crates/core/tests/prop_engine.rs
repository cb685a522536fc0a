//! Engine-level soundness: whatever the proof engine *establishes*
//! compositionally must be true of the monolithic composition. (The
//! converse — completeness — is not expected: compositional methods are
//! deliberately incomplete.)

use cmc_core::engine::{Component, Engine};
use cmc_ctl::{Formula, Restriction};
use cmc_kripke::{Alphabet, State, System};
use proptest::prelude::*;

fn arb_system(names: &'static [&'static str]) -> impl Strategy<Value = System> {
    let n = names.len();
    let max = 1u32 << n;
    proptest::collection::vec((0..max, 0..max), 0..10).prop_map(move |pairs| {
        let mut m = System::new(Alphabet::new(names.iter().copied()));
        for (s, t) in pairs {
            m.add_transition(State(s as u128), State(t as u128));
        }
        m
    })
}

fn arb_prop(names: &'static [&'static str]) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        proptest::sample::select(names.to_vec()).prop_map(Formula::ap),
    ];
    leaf.prop_recursive(2, 10, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

fn engine2(a: System, b: System) -> Engine {
    Engine::new(vec![Component::new("a", a), Component::new("b", b)])
}

/// [`engine2`] plus a component over the private proposition `s`: every
/// obligation that does not mention `s` is decided on it by frame, and one
/// over `r` and `s` alone is decided by frame on `a`.
fn engine3(a: System, b: System, c: System) -> Engine {
    Engine::new(vec![
        Component::new("a", a),
        Component::new("b", b),
        Component::new("c", c),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// prove() soundness for Rule-2 shapes over the union alphabet
    /// (propositions may be private to any component, so some pairs are
    /// decided by frame).
    #[test]
    fn prove_universal_sound(
        a in arb_system(&["p", "q"]),
        b in arb_system(&["q", "r"]),
        c in arb_system(&["s"]),
        p in arb_prop(&["p", "q", "r", "s"]),
        qf in arb_prop(&["p", "q", "r", "s"]),
    ) {
        let f = p.clone().implies(qf.clone().ax());
        let e = engine3(a, b, c);
        let r = Restriction::trivial();
        let cert = e.prove(&r, &f).unwrap();
        if cert.valid && cert.fully_compositional() {
            prop_assert!(
                e.monolithic_check(&r, &f).unwrap(),
                "engine established {f} but the monolith refutes it\n{cert}"
            );
        }
    }

    /// prove() soundness for existential shapes.
    #[test]
    fn prove_existential_sound(
        a in arb_system(&["p", "q"]),
        b in arb_system(&["q", "r"]),
        p in arb_prop(&["p", "q", "r"]),
        qf in arb_prop(&["p", "q", "r"]),
        shape in 0..3,
    ) {
        let f = match shape {
            0 => p.clone().implies(qf.clone().ex()),
            1 => p.clone().and(qf.clone()).ef(),
            _ => p.clone().eu(qf.clone()),
        };
        let e = engine2(a, b);
        let r = Restriction::trivial();
        let cert = e.prove(&r, &f).unwrap();
        if cert.valid {
            prop_assert!(
                e.monolithic_check(&r, &f).unwrap(),
                "engine established {f} but the monolith refutes it\n{cert}"
            );
        }
    }

    /// prove_invariant() soundness: an established AG Inv must hold
    /// monolithically under the same restriction — across all three
    /// hypothesis-escalation levels and the frame rule.
    #[test]
    fn prove_invariant_sound(
        a in arb_system(&["p", "q"]),
        b in arb_system(&["q", "r"]),
        c in arb_system(&["s"]),
        inv in arb_prop(&["p", "q", "r", "s"]),
        init in arb_prop(&["p", "q", "r", "s"]),
    ) {
        let e = engine3(a, b, c);
        let cert = e.prove_invariant(&inv, &init, &[]).unwrap();
        if cert.valid {
            let r = Restriction::with_init(init.clone());
            prop_assert!(
                e.monolithic_check(&r, &inv.clone().ag()).unwrap(),
                "engine established AG {inv} from {init} but the monolith refutes it\n{cert}"
            );
        }
    }
}
