//! Cross-engine validation: the explicit-state checker (`cmc-ctl`), the
//! symbolic checker (`cmc-symbolic`), and the two SMV compilation paths
//! must agree on randomly generated models and formulas.

use compositional_mc::core::{BackendChoice, Component, Engine};
use compositional_mc::ctl::{Checker, Formula, Restriction};
use compositional_mc::kripke::{Alphabet, State, System};
use compositional_mc::smv::{compile, compile_explicit, parse_module};
use compositional_mc::symbolic::SymbolicModel;
use proptest::prelude::*;

fn arb_system(n_props: usize) -> impl Strategy<Value = System> {
    let max = 1u32 << n_props;
    proptest::collection::vec((0..max, 0..max), 0..16).prop_map(move |pairs| {
        let names: Vec<String> = (0..n_props).map(|i| format!("v{i}")).collect();
        let mut m = System::new(Alphabet::new(names));
        for (s, t) in pairs {
            m.add_transition(State(s as u128), State(t as u128));
        }
        m
    })
}

fn arb_formula(n_props: usize) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        (0..n_props).prop_map(|i| Formula::ap(format!("v{i}"))),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|f| f.ex()),
            inner.clone().prop_map(|f| f.ax()),
            inner.clone().prop_map(|f| f.ef()),
            inner.clone().prop_map(|f| f.af()),
            inner.clone().prop_map(|f| f.eg()),
            inner.clone().prop_map(|f| f.ag()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.eu(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.au(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Explicit and symbolic checkers agree on arbitrary systems and
    /// arbitrary CTL formulas, without fairness.
    #[test]
    fn engines_agree_unfair(m in arb_system(3), f in arb_formula(3)) {
        let explicit = Checker::new(&m).unwrap().holds_everywhere(&f).unwrap();
        let mut sym = SymbolicModel::from_explicit(&m);
        let symbolic = sym.holds_everywhere(&f).unwrap();
        prop_assert_eq!(explicit, symbolic, "engines disagree on {}", f);
    }

    /// ... and under a random fairness constraint.
    #[test]
    fn engines_agree_fair(
        m in arb_system(3),
        f in arb_formula(3),
        fair in arb_formula(3).prop_filter("propositional fairness", |g| g.is_propositional()),
    ) {
        let r = Restriction::new(Formula::True, [fair]);
        let explicit = Checker::new(&m).unwrap().check(&r, &f).unwrap().holds;
        let mut sym = SymbolicModel::from_explicit(&m);
        let symbolic = sym.check(&r, &f).unwrap().holds;
        prop_assert_eq!(explicit, symbolic, "engines disagree on {} under fairness", f);
    }

    /// ... and under a non-trivial fairness *set*: 1–3 independent
    /// constraints, so the Emerson–Lei conjunction over several `Fᵢ` (not
    /// just the single-constraint special case) is exercised on both
    /// engines.
    #[test]
    fn engines_agree_fair_sets(
        m in arb_system(3),
        f in arb_formula(3),
        fairness in proptest::collection::vec(
            arb_formula(3).prop_filter("propositional fairness", |g| g.is_propositional()),
            1..4,
        ),
        init in arb_formula(3).prop_filter("propositional init", |g| g.is_propositional()),
    ) {
        let r = Restriction::new(init, fairness.clone());
        let explicit = Checker::new(&m).unwrap().check(&r, &f).unwrap();
        let mut sym = SymbolicModel::from_explicit(&m);
        let symbolic = sym.check(&r, &f).unwrap();
        prop_assert_eq!(
            explicit.holds, symbolic.holds,
            "engines disagree on {} under fairness set {:?}",
            f, fairness
        );
        // The symbolic check runs inside Reach(I); its violating I-states
        // must still be exactly the explicit checker's (all 8 states fit
        // under the explicit witness cap, so its list is complete).
        let mut violating: Vec<State> = sym
            .enumerate_states(symbolic.violating, 1 << 3)
            .iter()
            .map(|ns| ns.to_state(m.alphabet()).unwrap())
            .collect();
        violating.sort();
        let mut want = explicit.violating.clone();
        want.sort();
        prop_assert_eq!(
            want, violating,
            "violating I-states differ on {} under fairness set {:?}",
            f, fairness
        );
    }

    /// A random explicit system round-trips through the symbolic encoding.
    #[test]
    fn symbolic_roundtrip(m in arb_system(3)) {
        let mut sym = SymbolicModel::from_explicit(&m);
        let back = sym.to_explicit();
        prop_assert!(m.equivalent(&back));
    }
}

/// A random component over a fixed alphabet (so that two components can
/// share a proposition through overlapping name sets).
fn arb_component(names: &'static [&'static str]) -> impl Strategy<Value = System> {
    let n = names.len();
    let max = 1u32 << n;
    proptest::collection::vec((0..max, 0..max), 0..12).prop_map(move |pairs| {
        let mut m = System::new(Alphabet::new(names.iter().map(|s| s.to_string())));
        for (s, t) in pairs {
            m.add_transition(State(s as u128), State(t as u128));
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The Engine facade reaches the same verdict — and, when valid, a
    /// monolithically confirmed one — whichever backend policy is forced.
    /// The two components share `v1`, so the deduction exercises genuine
    /// composition, not two independent proofs.
    #[test]
    fn engine_backends_agree(
        a in arb_component(&["v0", "v1"]),
        b in arb_component(&["v1", "v2"]),
        f in arb_formula(3),
    ) {
        let r = Restriction::trivial();
        let mk = |choice| {
            Engine::new(vec![
                Component::new("a", a.clone()),
                Component::new("b", b.clone()),
            ])
            .with_backend(choice)
        };
        let auto = mk(BackendChoice::Auto).prove(&r, &f).unwrap();
        let explicit = mk(BackendChoice::Explicit).prove(&r, &f).unwrap();
        let symbolic = mk(BackendChoice::Symbolic).prove(&r, &f).unwrap();
        prop_assert_eq!(auto.valid, explicit.valid, "auto vs explicit on {}", f);
        prop_assert_eq!(auto.valid, symbolic.valid, "auto vs symbolic on {}", f);
        // Soundness cross-check through each backend's monolith.
        if auto.valid {
            prop_assert!(mk(BackendChoice::Explicit).monolithic_check(&r, &f).unwrap());
            prop_assert!(mk(BackendChoice::Symbolic).monolithic_check(&r, &f).unwrap());
        }
    }

    /// ... and under a random fairness constraint.
    #[test]
    fn engine_backends_agree_fair(
        a in arb_component(&["v0", "v1"]),
        b in arb_component(&["v1", "v2"]),
        f in arb_formula(3),
        fair in arb_formula(3).prop_filter("propositional fairness", |g| g.is_propositional()),
    ) {
        let r = Restriction::new(Formula::True, [fair]);
        let mk = |choice| {
            Engine::new(vec![
                Component::new("a", a.clone()),
                Component::new("b", b.clone()),
            ])
            .with_backend(choice)
        };
        let explicit = mk(BackendChoice::Explicit).prove(&r, &f).unwrap();
        let symbolic = mk(BackendChoice::Symbolic).prove(&r, &f).unwrap();
        prop_assert_eq!(explicit.valid, symbolic.valid, "backends disagree on {} under fairness", f);
    }
}

/// Random SMV modules: the symbolic and explicit compilers agree on every
/// spec. Models are generated structurally (random case arms over a small
/// vocabulary) rather than as random text.
#[test]
fn smv_compilers_agree_on_generated_modules() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xAF5);
    for round in 0..30 {
        let n_arms = rng.gen_range(1..4);
        let mut arms = String::new();
        for _ in 0..n_arms {
            let cond = match rng.gen_range(0..4) {
                0 => "s = a".to_string(),
                1 => "s = b & x".to_string(),
                2 => "x".to_string(),
                _ => "!x & s = c".to_string(),
            };
            let val = match rng.gen_range(0..4) {
                0 => "a".to_string(),
                1 => "b".to_string(),
                2 => "{a, c}".to_string(),
                _ => "s".to_string(),
            };
            arms.push_str(&format!("      {cond} : {val};\n"));
        }
        let x_rhs = match rng.gen_range(0..3) {
            0 => "!x",
            1 => "{0, 1}",
            _ => "x",
        };
        let src = format!(
            "MODULE main\nVAR\n  s : {{a, b, c}};\n  x : boolean;\nASSIGN\n  \
             next(s) :=\n    case\n{arms}      1 : s;\n    esac;\n  next(x) := {x_rhs};\n\
             SPEC AG (s = a -> EX (s = a | s = b | s = c))\n\
             SPEC EF (s = c)\n\
             SPEC AG (s = b -> AX (s = b | s = a | s = c))\n\
             SPEC A [!(s = c) U s = c]\n\
             SPEC AG EX x | AG EX !x\n"
        );
        let module = parse_module(&src).unwrap();
        let mut sym = compile(&module).unwrap();
        let exp = compile_explicit(&module).unwrap();
        for (i, (text, f)) in sym.specs.clone().iter().enumerate() {
            let s = sym.model.check(&Restriction::trivial(), f).unwrap().holds;
            let e = exp.check_spec(i).unwrap();
            assert_eq!(s, e, "round {round}: compilers disagree on {text}\n{src}");
        }
    }
}
