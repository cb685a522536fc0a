//! Property-based tests for the CTL layer: print/parse round-trips,
//! existential-normal-form preservation and quantifier dualities.

use cmc_ctl::{parse, Checker, Formula, Restriction};
use cmc_kripke::{Alphabet, State, System};
use proptest::prelude::*;

fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        Just(Formula::ap("p")),
        Just(Formula::ap("q")),
        Just(Formula::ap("r")),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.iff(b)),
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

fn arb_system() -> impl Strategy<Value = System> {
    proptest::collection::vec((0u32..8, 0u32..8), 0..14).prop_map(|pairs| {
        let mut m = System::new(Alphabet::new(["p", "q", "r"]));
        for (s, t) in pairs {
            m.add_transition(State(s as u128), State(t as u128));
        }
        m
    })
}

fn arb_prop() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::ap("p")),
        Just(Formula::ap("q")),
        Just(Formula::True),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pretty-printing then reparsing is the identity.
    #[test]
    fn print_parse_roundtrip(f in arb_formula()) {
        let printed = f.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("{e} while reparsing {printed:?}"));
        prop_assert_eq!(f, reparsed);
    }

    /// The existential normal form has the same satisfaction set.
    #[test]
    fn enf_preserves_semantics(m in arb_system(), f in arb_formula()) {
        let checker = Checker::new(&m).unwrap();
        let orig = checker.sat(&f).unwrap();
        let enf = checker.sat(&f.to_existential_normal_form()).unwrap();
        prop_assert_eq!(orig, enf, "ENF changed semantics of {}", f);
    }

    /// Quantifier dualities hold semantically on random systems.
    #[test]
    fn dualities(m in arb_system(), f in arb_formula()) {
        let checker = Checker::new(&m).unwrap();
        let ax = checker.sat(&f.clone().ax()).unwrap();
        let dual_ax = checker.sat(&f.clone().not().ex().not()).unwrap();
        prop_assert_eq!(ax, dual_ax);
        let ag = checker.sat(&f.clone().ag()).unwrap();
        let dual_ag = checker.sat(&f.clone().not().ef().not()).unwrap();
        prop_assert_eq!(ag, dual_ag);
        let af = checker.sat(&f.clone().af()).unwrap();
        let dual_af = checker.sat(&f.clone().not().eg().not()).unwrap();
        prop_assert_eq!(af, dual_af);
    }

    /// Reflexivity consequences: f ⇒ EX f and AX f ⇒ f hold everywhere.
    #[test]
    fn reflexivity_consequences(m in arb_system(), f in arb_formula()) {
        let checker = Checker::new(&m).unwrap();
        let sat_f = checker.sat(&f).unwrap();
        let sat_exf = checker.sat(&f.clone().ex()).unwrap();
        prop_assert!(sat_f.is_subset_of(&sat_exf));
        let sat_axf = checker.sat(&f.clone().ax()).unwrap();
        prop_assert!(sat_axf.is_subset_of(&sat_f));
    }

    /// Restriction checking is monotone in the initial condition: if
    /// `M ⊨_(I,F) f` then `M ⊨_(I∧J,F) f`.
    #[test]
    fn init_strengthening_monotone(
        m in arb_system(),
        f in arb_formula(),
        i in arb_prop(),
        j in arb_prop(),
    ) {
        let checker = Checker::new(&m).unwrap();
        let weak = Restriction::with_init(i.clone());
        let strong = Restriction::with_init(i.and(j));
        if checker.check(&weak, &f).unwrap().holds {
            prop_assert!(checker.check(&strong, &f).unwrap().holds);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The CTL parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(src in ".{0,40}") {
        let _ = parse(&src);
    }

    /// ... including SMV-flavoured fragments.
    #[test]
    fn parser_never_panics_on_fragments(
        parts in proptest::collection::vec(
            proptest::strategy::Union::new([
                proptest::strategy::Strategy::boxed(proptest::prelude::Just("AG".to_string())),
                proptest::strategy::Strategy::boxed(proptest::prelude::Just("E [".to_string())),
                proptest::strategy::Strategy::boxed(proptest::prelude::Just("U".to_string())),
                proptest::strategy::Strategy::boxed(proptest::prelude::Just("]".to_string())),
                proptest::strategy::Strategy::boxed(proptest::prelude::Just("->".to_string())),
                proptest::strategy::Strategy::boxed(proptest::prelude::Just("p = q".to_string())),
                proptest::strategy::Strategy::boxed(proptest::prelude::Just("!=".to_string())),
                proptest::strategy::Strategy::boxed(proptest::prelude::Just("(".to_string())),
                proptest::strategy::Strategy::boxed(proptest::prelude::Just("TRUE".to_string())),
            ]),
            0..12,
        )
    ) {
        let _ = parse(&parts.join(" "));
    }
}
