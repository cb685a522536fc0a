//! Conformance of the symbolic engine's memory kernel: garbage
//! collection and the bounded computed table must be *invisible* to
//! verdicts.
//!
//! * the differential oracle runs each seed once with maintenance
//!   disabled and forced at every `k`-th safe point as four symbolic legs
//!   beside the explicit backend and the reference — the four must report
//!   bit-identical witnesses and counts,
//! * proptests drive random systems/formulas through a model with
//!   `gc_now` injected mid-run and pin the sat-state counts
//!   to the untouched engine,
//! * a bounded computed table (with evictions observed) must leave sat
//!   sets untouched.

use cmc_testkit::{gen_obligation, run_obligation, sweep, Leg};
use compositional_mc::core::{ExplicitBackend, SymbolicBackend};
use compositional_mc::ctl::{parse, Formula, Restriction};
use compositional_mc::kripke::{Alphabet, State, System};
use compositional_mc::symbolic::{MaintenanceConfig, SymbolicModel};
use proptest::prelude::*;

/// The oracle over a fresh seed range with one symbolic leg per
/// maintenance schedule: disabled, and forced at every 1st/2nd/5th safe
/// point under a 512-entry cache. The oracle holds every symbolic leg to
/// the first one bit for bit (`holds`, violating states, exact counts) —
/// GC schedules are semantics-free.
#[test]
fn oracle_verdicts_invariant_under_forced_maintenance() {
    let disabled = SymbolicBackend::with_maintenance(MaintenanceConfig::disabled());
    let mut legs = vec![
        Leg::explicit(ExplicitBackend::default()),
        Leg::symbolic("disabled", disabled),
    ];
    legs.extend([1u32, 2, 5].map(|k| {
        let forced = SymbolicBackend::with_maintenance(MaintenanceConfig::forced_every(k));
        Leg::symbolic(format!("forced-every-{k}"), forced.cache_capacity(512))
    }));
    let seeds: Vec<u64> = (20_000..20_060u64).collect();
    let check = |seed| run_obligation(&gen_obligation(seed), &legs);
    let report = sweep(&seeds, "obligations", check, |line| println!("{line}"));
    if let Some(d) = report.failure {
        panic!("{d}");
    }
    assert!(
        report.skipped <= seeds.len() / 10,
        "too many skipped obligations ({})",
        report.skipped
    );
}

/// A random system over a fixed small alphabet.
fn arb_system(names: &'static [&'static str]) -> impl Strategy<Value = System> {
    let max = 1u32 << names.len();
    proptest::collection::vec((0..max, 0..max), 0..14).prop_map(move |pairs| {
        let mut m = System::new(Alphabet::new(names.iter().copied()));
        for (s, t) in pairs {
            m.add_transition(State(s as u128), State(t as u128));
        }
        m
    })
}

/// A random CTL formula (temporal operators included) over given names.
fn arb_formula(names: &'static [&'static str]) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        proptest::sample::select(names.to_vec()).prop_map(Formula::ap),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            inner.clone().prop_map(|f| f.ex()),
            inner.clone().prop_map(|f| f.ef()),
            inner.clone().prop_map(|f| f.af()),
            inner.clone().prop_map(|f| f.eg()),
            inner.clone().prop_map(|f| f.ag()),
            (inner.clone(), inner).prop_map(|(a, b)| a.eu(b)),
        ]
    })
}

/// Satisfying-state count of `f` over the model's `2^n` state space.
fn sat_states(model: &mut SymbolicModel, f: &Formula, fairness: &[Formula]) -> f64 {
    let n = model.num_state_vars();
    let sat = model.sat_under(f, fairness).unwrap();
    model.mgr_ref().sat_count(sat, 2 * n) / (1u64 << n) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forced GC at every safe point gives the same sat-state
    /// count as the untouched engine, on arbitrary systems and formulas.
    #[test]
    fn forced_maintenance_preserves_sat_counts(
        m in arb_system(&["p", "q", "r"]),
        f in arb_formula(&["p", "q", "r"]),
    ) {
        let mut plain = SymbolicModel::from_explicit(&m);
        plain.set_maintenance(MaintenanceConfig::disabled());
        let mut forced = SymbolicModel::from_explicit(&m);
        forced.set_maintenance(MaintenanceConfig::forced_every(1));
        let want = sat_states(&mut plain, &f, &[]);
        let got = sat_states(&mut forced, &f, &[]);
        prop_assert_eq!(want, got, "maintenance changed sat set of {}", f);
    }

    /// Same invariance under a fairness constraint (the Emerson–Lei loop
    /// nests fixpoints, so it crosses many more maintenance points).
    #[test]
    fn forced_maintenance_preserves_fair_sat_counts(
        m in arb_system(&["p", "q"]),
        f in arb_formula(&["p", "q"]),
        c in arb_formula(&["p", "q"]),
    ) {
        let fairness = vec![c];
        let mut plain = SymbolicModel::from_explicit(&m);
        plain.set_maintenance(MaintenanceConfig::disabled());
        let mut forced = SymbolicModel::from_explicit(&m);
        forced.set_maintenance(MaintenanceConfig::forced_every(2));
        let want = sat_states(&mut plain, &f, &fairness);
        let got = sat_states(&mut forced, &f, &fairness);
        prop_assert_eq!(want, got, "fair maintenance changed sat set of {}", f);
    }

    /// Explicit `gc_now` *between* queries: results computed after the
    /// kernel has collected must match results computed before.
    #[test]
    fn explicit_gc_between_queries(
        m in arb_system(&["p", "q", "r"]),
        f in arb_formula(&["p", "q", "r"]),
    ) {
        let mut model = SymbolicModel::from_explicit(&m);
        let before = sat_states(&mut model, &f, &[]);
        model.gc_now();
        let after_gc = sat_states(&mut model, &f, &[]);
        prop_assert_eq!(before, after_gc, "gc_now changed sat set of {}", f);
    }
}

/// A severely bounded computed table (capacity 16, evicting constantly)
/// must not change any verdict on a model big enough to overflow it.
#[test]
fn tiny_cache_preserves_verdicts() {
    let mut sys = System::new(Alphabet::new(["a", "b", "c", "d"]));
    // A 4-bit Gray-code-ish walk with some chords.
    let states: Vec<u128> = vec![
        0b0000, 0b0001, 0b0011, 0b0010, 0b0110, 0b0111, 0b0101, 0b0100,
    ];
    for w in states.windows(2) {
        sys.add_transition(State(w[0]), State(w[1]));
    }
    sys.add_transition(State(0b0100), State(0b0000));
    sys.add_transition(State(0b0011), State(0b1011));
    sys.add_transition(State(0b1011), State(0b0000));
    let corpus = [
        "EF (a & b)",
        "AG (a -> EX (a | b))",
        "AF !d",
        "E [!c U (c & a)]",
        "A [!d U (a | d)]",
    ];
    let r = Restriction::trivial();
    for text in corpus {
        let f = parse(text).unwrap();
        let mut plain = SymbolicModel::from_explicit(&sys);
        let mut bounded = SymbolicModel::from_explicit(&sys);
        bounded.mgr().set_cache_capacity(16);
        let want = plain.check(&r, &f).unwrap().holds;
        let got = bounded.check(&r, &f).unwrap().holds;
        assert_eq!(want, got, "bounded cache changed the verdict on {text}");
        assert!(
            bounded.mgr_ref().stats().cache_evictions > 0,
            "capacity-16 cache never evicted on {text}"
        );
    }
}

/// `check` memoises the fair-state set *within* `Reach(I)`; a later
/// full-space `sat_under` with the same fairness on the same model must
/// not be served that restricted set. From `I = ¬p ∧ ¬q` only `q` can
/// rise, so no reachable state is fair under `F = {p}`, while the
/// unreachable `p`-states stutter fairly forever.
#[test]
fn restricted_fair_states_never_leak_into_sat_under() {
    let mut sys = System::new(Alphabet::new(["p", "q"]));
    sys.add_transition_named(&[], &["q"]);
    sys.add_transition_named(&["p"], &["p", "q"]);
    let fairness = [parse("p").unwrap()];
    let f = Formula::True.ex();
    let mut fresh = SymbolicModel::from_explicit(&sys);
    let want = sat_states(&mut fresh, &f, &fairness);
    assert_eq!(want, 2.0, "the two p-states are the fair ones");
    let mut model = SymbolicModel::from_explicit(&sys);
    let r = Restriction::new(parse("!p & !q").unwrap(), fairness.clone());
    let v = model.check(&r, &parse("EF q").unwrap()).unwrap();
    assert!(!v.holds, "no fair path from I, so EF q fails under F");
    let got = sat_states(&mut model, &f, &fairness);
    assert_eq!(want, got, "sat_under was served the restricted fair set");
}
