//! Parallel component verification.
//!
//! The compositional method's practical selling point (Discussion §5) is
//! that verification cost is *linear* in the number of components — and the
//! per-component checks are independent, so they parallelise perfectly.
//! This module fans component checks out over the bounded work-claiming
//! scheduler in [`crate::scheduler`]: at most `available_parallelism`
//! workers drain a shared task queue, so a 30-component proof keeps every
//! core busy without spawning 30 threads. A panic inside one component's
//! check degrades to an `Err` for that component only; the sibling checks
//! still report normally, and result order is the input order regardless
//! of worker count.

use crate::backend::{check_routed, BackendChoice, Target, Verdict};
use crate::scheduler;
use cmc_ctl::{Formula, Restriction};
use cmc_symbolic::SymbolicModel;

/// Run heterogeneous check tasks concurrently on at most `workers`
/// threads: each task is a labelled `⊨ f` (all states) check of one
/// formula on one [`Target`], routed through the backend `choice` resolves
/// for that target. Returns full [`Verdict`]s (or error messages) in task
/// order.
pub fn check_targets_with_workers(
    tasks: &[(String, Target, Formula)],
    choice: BackendChoice,
    workers: usize,
) -> Vec<(String, Result<Verdict, String>)> {
    let trivial = Restriction::trivial();
    let outcomes = scheduler::run_bounded(tasks.len(), workers, |i| {
        let (_, target, f) = &tasks[i];
        check_routed(choice, target, &trivial, f).map_err(|e| e.to_string())
    });
    tasks
        .iter()
        .map(|(name, _, _)| name.clone())
        .zip(outcomes.into_iter().map(|r| r.and_then(|inner| inner)))
        .collect()
}

/// Decide propositional validity of `f` (the `I ⇒ Inv` obligation of the
/// invariant rule): `f` is valid iff its BDD over the propositions it
/// mentions is the constant TRUE. Cost follows the diagram's size, not
/// the `2^|props|` states a truth table would enumerate.
pub fn propositional_validity(f: &Formula) -> bool {
    debug_assert!(f.is_propositional());
    let mut vocab = SymbolicModel::new(f.atomic_props());
    vocab
        .prop_to_bdd(f)
        .expect("every proposition of f is a variable of its own vocabulary")
        .is_true()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_ctl::parse;
    use cmc_kripke::{Alphabet, System};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rising(name: &str) -> System {
        let mut m = System::new(Alphabet::new([name]));
        m.add_transition_named(&[], &[name]);
        m
    }

    /// One task `c{i}` per system, all checking `f`.
    fn tasks(systems: impl IntoIterator<Item = System>, f: &str) -> Vec<(String, Target, Formula)> {
        let f = parse(f).unwrap();
        systems
            .into_iter()
            .enumerate()
            .map(|(i, s)| (format!("c{i}"), Target::system(s), f.clone()))
            .collect()
    }

    /// `(name, holds-or-error)` per task, in task order.
    fn holds(
        tasks: &[(String, Target, Formula)],
        workers: usize,
    ) -> Vec<(String, Result<bool, String>)> {
        check_targets_with_workers(tasks, BackendChoice::Auto, workers)
            .into_iter()
            .map(|(name, r)| (name, r.map(|v| v.holds)))
            .collect()
    }

    #[test]
    fn parallel_checks_match_sequential() {
        // v0 ⇒ AX v0 — true for c0 (it owns v0 and never clears it) and
        // errors for others (unknown proposition), proving per-component
        // isolation of errors.
        let tasks = tasks((0..8).map(|i| rising(&format!("v{i}"))), "v0 -> AX v0");
        let results = holds(&tasks, scheduler::default_workers());
        assert_eq!(results.len(), 8);
        assert_eq!(results[0].1, Ok(true));
        for (_, r) in &results[1..] {
            assert!(r.is_err());
        }
    }

    #[test]
    fn parallel_order_is_stable() {
        let tasks = tasks((0..4).map(|_| rising("x")), "x -> AX x");
        let results = holds(&tasks, scheduler::default_workers());
        let got: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(got, vec!["c0", "c1", "c2", "c3"]);
        assert!(results.iter().all(|(_, r)| *r == Ok(true)));
    }

    #[test]
    fn panicking_job_degrades_to_err_for_that_slot_only() {
        let results = scheduler::run(4, |i| {
            if i == 2 {
                panic!("injected fault in job {i}");
            }
            i * 10
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1], Ok(10));
        assert_eq!(results[3], Ok(30));
        let err = results[2].as_ref().unwrap_err();
        assert!(err.contains("panicked"), "unexpected message: {err}");
        assert!(err.contains("injected fault"), "payload lost: {err}");
    }

    /// Scheduler determinism through the real checking path: every worker
    /// count yields byte-identical results in input order.
    #[test]
    fn results_identical_across_worker_counts() {
        let tasks = tasks((0..10).map(|i| rising(&format!("w{i}"))), "w3 -> AX w3");
        let baseline = holds(&tasks, 1);
        for workers in [2, 4, 8] {
            assert_eq!(holds(&tasks, workers), baseline, "worker count {workers}");
        }
    }

    /// The reference oracle: evaluate `f` in every state over `alphabet`.
    fn truth_table_validity(alphabet: &Alphabet, f: &Formula) -> bool {
        cmc_kripke::state::all_states(alphabet).all(|s| f.eval_in_state(alphabet, s))
    }

    /// A random propositional formula over `props` of depth at most
    /// `depth`, drawing every connective and both constants.
    fn random_formula(rng: &mut StdRng, props: &[&str], depth: u32) -> Formula {
        if depth == 0 || rng.gen_bool(0.2) {
            return match rng.gen_range(0..props.len() + 2) {
                0 => Formula::True,
                1 => Formula::False,
                k => Formula::ap(props[k - 2]),
            };
        }
        let a = random_formula(rng, props, depth - 1);
        if rng.gen_bool(0.2) {
            return a.not();
        }
        let b = random_formula(rng, props, depth - 1);
        match rng.gen_range(0..4) {
            0 => a.and(b),
            1 => a.or(b),
            2 => a.implies(b),
            _ => a.iff(b),
        }
    }

    #[test]
    fn propositional_validity_decides_tautologies() {
        assert!(propositional_validity(&parse("a | !a").unwrap()));
        assert!(propositional_validity(&parse("a & b -> a").unwrap()));
        assert!(!propositional_validity(&parse("a -> b").unwrap()));
        // Constant formulas mention no proposition at all.
        assert!(propositional_validity(&Formula::True));
        assert!(!propositional_validity(&Formula::False));
        assert!(propositional_validity(
            &Formula::False.implies(Formula::False)
        ));
    }

    /// The BDD verdict equals the truth table on a generated family over
    /// up to six propositions: random formulas (mostly non-tautologies)
    /// and tautologies built from them (`g <-> g`, `g & h -> g`).
    #[test]
    fn propositional_validity_matches_truth_table() {
        let all = ["a", "b", "c", "d", "e", "f"];
        let alphabet = Alphabet::new(all);
        let mut rng = StdRng::seed_from_u64(0x1a7e);
        let (mut valid, mut invalid) = (0, 0);
        for width in 1..=all.len() {
            for _ in 0..200 {
                let g = random_formula(&mut rng, &all[..width], 5);
                let h = random_formula(&mut rng, &all[..width], 3);
                for f in [
                    g.clone(),
                    g.clone().or(h.clone()),
                    g.clone().iff(g.clone()),
                    g.clone().and(h).implies(g),
                ] {
                    let expected = truth_table_validity(&alphabet, &f);
                    assert_eq!(propositional_validity(&f), expected, "{f}");
                    if expected {
                        valid += 1;
                    } else {
                        invalid += 1;
                    }
                }
            }
        }
        // Both verdicts are exercised in bulk.
        assert!(
            valid > 1000 && invalid > 1000,
            "{valid} valid, {invalid} invalid"
        );
    }
}
