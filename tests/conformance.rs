//! Differential conformance: the explicit backend, the symbolic backend,
//! and `cmc-testkit`'s reference evaluator must agree on a deterministic
//! corpus of ≥ 500 seeded obligations, and every witness either engine
//! produces must replay against the paper's semantics.
//!
//! Any failure here prints a shrunk minimal structure/formula pair and
//! its seed `N`; `cargo run -p cmc-testkit -- --seed N` replays it
//! standalone.

use cmc_testkit::{
    corpus_seeds, gen_obligation, run_obligation, validate_witness, Leg, Outcome, WitnessClaim,
    SEED_CORPUS,
};
use compositional_mc::core::{ExplicitBackend, SymbolicBackend};
use compositional_mc::ctl::{Checker, Formula, Restriction};
use compositional_mc::symbolic::SymbolicModel;

/// The tentpole acceptance gate: ≥ 500 deterministic obligations through
/// the explicit backend, the symbolic backend and the reference, in full
/// agreement, with every backend witness replayed (witness replay happens
/// inside the oracle — a bogus violating state is reported as a
/// disagreement note).
#[test]
fn five_hundred_obligations_agree_three_ways() {
    let legs = [
        Leg::explicit(ExplicitBackend::default()),
        Leg::symbolic("symbolic", SymbolicBackend::default()),
    ];
    let mut seeds: Vec<u64> = corpus_seeds(SEED_CORPUS);
    seeds.extend(1_000..1_450u64);
    assert!(seeds.len() >= 500, "corpus too small: {}", seeds.len());

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
        agreed >= 500,
        "only {agreed} obligations ran to agreement ({skipped} skipped)"
    );
}

/// Every fair-EG lasso the explicit checker extracts must replay: a real
/// `R*`-path, cycle closing, body holding throughout, every fairness
/// constraint hit inside the loop.
#[test]
fn explicit_fair_lassos_all_replay() {
    let mut replayed = 0usize;
    for seed in 2_000..2_200u64 {
        let o = gen_obligation(seed);
        // Fair-EG witnesses only make sense per-system; use the first
        // component and the obligation's fairness set.
        let m = &o.systems[0];
        let checker = Checker::new(m).unwrap();
        let fairness = o.restriction.fairness.clone();
        let body = Formula::True;
        let from = match checker.sat(&Formula::True) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let Ok(Some(path)) = checker.witness_eg_fair(&from, &body, &fairness) else {
            continue;
        };
        let r = Restriction::new(Formula::True, fairness.clone());
        validate_witness(
            m,
            &r,
            &path,
            &WitnessClaim::FairGlobally { f: body, fairness },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: fair lasso failed replay: {e}"));
        replayed += 1;
    }
    assert!(replayed >= 100, "only {replayed} fair lassos replayed");
}

/// Until-witnesses from the explicit checker replay through the
/// validator's `Until` claim.
#[test]
fn explicit_until_witnesses_all_replay() {
    let mut replayed = 0usize;
    for seed in 3_000..3_150u64 {
        let o = gen_obligation(seed);
        let m = &o.systems[0];
        let checker = Checker::new(m).unwrap();
        let name = m.alphabet().names()[0].clone();
        let f = Formula::True;
        let g = Formula::ap(&name);
        let Ok(from) = checker.sat(&Formula::True) else {
            continue;
        };
        let Ok(Some(path)) = checker.witness_eu(&from, &f, &g) else {
            continue;
        };
        validate_witness(
            m,
            &Restriction::trivial(),
            &path,
            &WitnessClaim::Until { f, g },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: until witness failed replay: {e}"));
        replayed += 1;
    }
    assert!(replayed >= 50, "only {replayed} until witnesses replayed");
}

/// Symbolic EG lassos lower to `WitnessPath` (via `Trace::loop_start`)
/// and replay on the originating explicit system.
#[test]
fn symbolic_lassos_lower_and_replay() {
    let mut replayed = 0usize;
    for seed in 4_000..4_150u64 {
        let o = gen_obligation(seed);
        let m = &o.systems[0];
        let mut sym = SymbolicModel::from_explicit(m);
        let truth = compositional_mc::bdd::Bdd::TRUE;
        let Some(trace) = sym.witness_eg(truth, truth) else {
            continue;
        };
        let path = trace
            .to_witness_path(m.alphabet())
            .expect("trace variables come from the same alphabet");
        validate_witness(
            m,
            &Restriction::trivial(),
            &path,
            &WitnessClaim::FairGlobally {
                f: Formula::True,
                fairness: vec![],
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: symbolic lasso failed replay: {e}"));
        replayed += 1;
    }
    assert!(replayed >= 100, "only {replayed} symbolic lassos replayed");
}
