//! Engine-level soundness: whatever the proof engine *establishes*
//! compositionally must be true of the monolithic composition. (The
//! converse — completeness — is not expected: compositional methods are
//! deliberately incomplete.)

use cmc_core::engine::{Component, Engine};
use cmc_core::lemmas::lemma6_ax_holds;
use cmc_core::{ExplicitBackend, SymbolicBackend, Target};
use cmc_ctl::{parse, ExplicitLimits, Formula, Restriction};
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

/// The proposition pool the union-order test draws alphabets from. Four
/// names keep every union at most 16 states, so no verdict's witness list
/// reaches its cap and both engines must list every violating state.
const POOL: [&str; 4] = ["a", "b", "c", "d"];

/// Pool names drawn `len` times in random order, repeats dropped (the
/// first occurrence stays), so alphabets overlap and disagree on order.
fn arb_names(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<&'static str>> {
    proptest::collection::vec(proptest::sample::select(POOL.to_vec()), len).prop_map(|drawn| {
        let mut names: Vec<&'static str> = Vec::new();
        for n in drawn {
            if !names.contains(&n) {
                names.push(n);
            }
        }
        names
    })
}

/// A component over 1–3 pool names with a few random moves.
fn arb_component() -> impl Strategy<Value = System> {
    (
        arb_names(1..4),
        proptest::collection::vec((0u32..8, 0u32..8), 0..6),
    )
        .prop_map(|(names, pairs)| {
            let mask = (1u32 << names.len()) - 1;
            let mut m = System::new(Alphabet::new(names));
            for (s, t) in pairs {
                m.add_transition(State((s & mask) as u128), State((t & mask) as u128));
            }
            m
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

    /// A target's union alphabet is the one first-seen order: the order
    /// of the materialised `System::compose` fold, of `Engine::new` over
    /// the same components (extra names append after it), and the state
    /// layout on which the dense and reachable explicit kernels and the
    /// symbolic engine all name the same violating states.
    #[test]
    fn target_union_is_the_one_first_seen_order(
        systems in proptest::collection::vec(arb_component(), 1..5),
        extra in arb_names(0..4),
        shape in 0usize..7,
        i in 0usize..8,
        j in 0usize..8,
    ) {
        let refs: Vec<&System> = systems.iter().collect();
        let target = Target::expansion(refs.clone(), Alphabet::new(extra));
        let union = target.union_alphabet();
        prop_assert_eq!(union.names(), target.materialize().alphabet().names());
        let engine = Engine::new(
            systems
                .iter()
                .enumerate()
                .map(|(k, s)| Component::new(format!("m{k}"), s.clone()))
                .collect(),
        );
        let components = Target::composition(refs);
        prop_assert_eq!(engine.union_alphabet(), components.union_alphabet());
        prop_assert!(union.names().starts_with(engine.union_alphabet().names()));

        let (x, y) = (union.name(i % union.len()), union.name(j % union.len()));
        let text = match shape {
            0 => format!("AG !{x}"),
            1 => format!("{x} -> AX {y}"),
            2 => format!("EF ({x} & !{y})"),
            3 => format!("AF {x}"),
            4 => format!("E [{x} U {y}]"),
            5 => format!("AG ({x} -> EX {y})"),
            _ => format!("{x} -> EX {y}"),
        };
        let f = parse(&text).unwrap();
        let r = Restriction::trivial();
        let reachable = ExplicitBackend::with_limits(ExplicitLimits {
            dense_bits: 0,
            ..ExplicitLimits::default()
        });
        let mut verdicts = [
            ExplicitBackend::default().check(&target, &r, &f).unwrap(),
            reachable.check(&target, &r, &f).unwrap(),
            SymbolicBackend::default().check(&target, &r, &f).unwrap(),
        ];
        for v in &mut verdicts {
            v.violating.sort();
        }
        let [dense, reach, symbolic] = verdicts;
        prop_assert_eq!(dense.stats.reachable_states, None);
        prop_assert!(reach.stats.reachable_states.is_some());
        for other in [&reach, &symbolic] {
            prop_assert_eq!(dense.holds, other.holds, "verdicts split on {}", text);
            prop_assert_eq!(&dense.violating, &other.violating, "witnesses split on {}", text);
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

/// The frozen propositions an expansion adds, and every name a Lemma-6
/// formula is drawn over: the component's pool plus these.
static FROZEN: [&str; 3] = ["x", "y", "z"];
static LEMMA6_NAMES: [&str; 7] = ["a", "b", "c", "d", "x", "y", "z"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Lemma 6 decides `p ⇒ AX q` on an expansion exactly as the explicit
    /// checker does on the expansion built: a random component over 1–3
    /// pool names, 0–3 frozen propositions, and `p`, `q` over `Σ ∪ extra`
    /// (every other name folded to the constant `fill`).
    #[test]
    fn lemma6_decides_like_the_explicit_checker(
        m in arb_component(),
        frozen in 0usize..4,
        p in arb_prop(&LEMMA6_NAMES),
        q in arb_prop(&LEMMA6_NAMES),
        fill in any::<bool>(),
    ) {
        let extra = Alphabet::new(FROZEN[..frozen].iter().copied());
        let within = |f: Formula| {
            LEMMA6_NAMES
                .iter()
                .filter(|n| !m.alphabet().contains(n) && !extra.contains(n))
                .fold(f, |f, n| f.assign(n, fill))
        };
        let (p, q) = (within(p), within(q));
        let f = p.clone().implies(q.clone().ax());
        let target = Target::expansion(vec![&m], extra.clone());
        let oracle = ExplicitBackend::default()
            .check(&target, &Restriction::trivial(), &f)
            .unwrap();
        prop_assert_eq!(
            lemma6_ax_holds(&m, &extra, &p, &q),
            oracle.holds,
            "{} on {:?} expanded over {}",
            f,
            m,
            extra
        );
    }
}
