//! Conformance of the frontier-driven explicit kernel (CSR index +
//! worklist fixpoints) introduced for the perf rebuild:
//!
//! * a seeded differential-oracle run (explicit vs symbolic vs reference)
//!   over ≥ 200 obligations on a seed range disjoint from
//!   `tests/conformance.rs`,
//! * proptests pinning the frontier `E[· U ·]` and fair-`EG` fixpoints to
//!   the naïve reference evaluator on random small systems,
//! * a determinism check that the bounded scheduler returns identical
//!   results for every worker count.

use cmc_testkit::{gen_obligation, run_obligation, Leg, Outcome, RefEvaluator};
use compositional_mc::core::{
    check_routed, scheduler, BackendChoice, ExplicitBackend, SymbolicBackend, Target,
};
use compositional_mc::ctl::{Checker, Formula, Restriction, StateSet};
use compositional_mc::kripke::{Alphabet, State, System};
use proptest::prelude::*;

/// ≥ 200 fresh seeded obligations through the explicit backend, the
/// symbolic backend and the reference — the new kernel sits behind the
/// explicit backend, so every agreement is a differential check of the
/// CSR worklist fixpoints against both the BDD engine and the
/// cycle-analysis reference.
#[test]
fn two_hundred_fresh_obligations_agree_three_ways() {
    let legs = [
        Leg::explicit(ExplicitBackend::default()),
        Leg::symbolic("symbolic", SymbolicBackend::default()),
    ];
    let seeds: Vec<u64> = (10_000..10_250u64).collect();
    let mut agreed = 0usize;
    let mut skipped = 0usize;
    for &seed in &seeds {
        match run_obligation(&gen_obligation(seed), &legs) {
            Outcome::Agree(_) => agreed += 1,
            Outcome::Skipped(why) => {
                skipped += 1;
                assert!(
                    skipped <= seeds.len() / 50,
                    "too many skipped obligations (last: seed {seed}: {why})"
                );
            }
            Outcome::Disagree(d) => panic!("{d}"),
        }
    }
    assert!(
        agreed >= 200,
        "only {agreed} obligations ran to agreement ({skipped} skipped)"
    );
}

/// The member mask of a `StateSet` (universes here are ≤ 2^7 = 128).
fn mask_of(s: &StateSet) -> u128 {
    s.iter().fold(0u128, |m, st| m | (1u128 << st.0))
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

/// A random propositional formula over given names.
fn arb_prop(names: &'static [&'static str]) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        proptest::sample::select(names.to_vec()).prop_map(Formula::ap),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Frontier `E[a U b]` equals the reference evaluator's sat set.
    #[test]
    fn frontier_eu_matches_reference(
        m in arb_system(&["p", "q", "r"]),
        a in arb_prop(&["p", "q", "r"]),
        b in arb_prop(&["p", "q", "r"]),
    ) {
        let f = a.eu(b);
        let checker = Checker::new(&m).unwrap();
        let reference = RefEvaluator::new(&m).unwrap();
        let got = mask_of(&checker.sat(&f).unwrap());
        let want = reference.sat_fair(&f, &[]).unwrap();
        prop_assert_eq!(got, want, "E U mismatch on {}", f);
    }

    /// Fair-`EG` (the Emerson–Lei frontier loop with per-constraint reach
    /// caching) equals the reference evaluator's cycle analysis.
    #[test]
    fn frontier_fair_eg_matches_reference(
        m in arb_system(&["p", "q", "r"]),
        body in arb_prop(&["p", "q", "r"]),
        c1 in arb_prop(&["p", "q", "r"]),
        c2 in arb_prop(&["p", "q", "r"]),
    ) {
        let f = body.eg();
        let fairness = vec![c1, c2];
        let checker = Checker::new(&m).unwrap();
        let reference = RefEvaluator::new(&m).unwrap();
        let got = mask_of(&checker.sat_fair(&f, &fairness).unwrap());
        let want = reference.sat_fair(&f, &fairness).unwrap();
        prop_assert_eq!(
            got, want,
            "fair EG mismatch on {} under {:?}", f,
            fairness.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        );
    }

    /// Mixed EU-under-fairness: `E[a U b]` where quantification ranges
    /// over fair paths only.
    #[test]
    fn frontier_fair_eu_matches_reference(
        m in arb_system(&["p", "q"]),
        a in arb_prop(&["p", "q"]),
        b in arb_prop(&["p", "q"]),
        c in arb_prop(&["p", "q"]),
    ) {
        let f = a.eu(b);
        let fairness = vec![c];
        let checker = Checker::new(&m).unwrap();
        let reference = RefEvaluator::new(&m).unwrap();
        let got = mask_of(&checker.sat_fair(&f, &fairness).unwrap());
        let want = reference.sat_fair(&f, &fairness).unwrap();
        prop_assert_eq!(got, want, "fair EU mismatch on {}", f);
    }
}

/// Scheduler determinism end-to-end: a heterogeneous batch of targets
/// produces identical verdicts (holds, witnesses, sat counts) for every
/// worker count.
#[test]
fn scheduler_results_stable_across_worker_counts() {
    let systems: Vec<System> = (0..12)
        .map(|i| {
            let name = format!("v{i}");
            let mut m = System::new(Alphabet::new([name.as_str()]));
            m.add_transition_named(&[], &[&name]);
            m
        })
        .collect();
    let tasks: Vec<(Target, Formula)> = systems
        .iter()
        .map(|m| {
            let name = m.alphabet().name(0);
            let f = Formula::ap(name).implies(Formula::ap(name).ax());
            (Target::system(m), f)
        })
        .collect();
    // Strip the timing field before comparing: everything else must be
    // byte-identical regardless of scheduling.
    let trivial = Restriction::trivial();
    let digest = |workers: usize| {
        scheduler::run_bounded(tasks.len(), workers, |i| {
            let (target, f) = &tasks[i];
            check_routed(BackendChoice::Auto, target, &trivial, f)
                .map(|v| (v.holds, v.violating, v.sat_states))
                .map_err(|e| e.to_string())
        })
    };
    let baseline = digest(1);
    for workers in [2, 4, 8] {
        assert_eq!(digest(workers), baseline, "worker count {workers}");
    }
}
