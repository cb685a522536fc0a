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

use crate::backend::{check_planned, check_routed, BackendChoice, BackendKind, Target, Verdict};
use crate::scheduler;
use cmc_ctl::{Formula, Restriction};
use cmc_kripke::System;
use cmc_store::{CertStore, Entry, ObligationKey};
use cmc_symbolic::SymbolicModel;
use std::sync::Arc;

/// Check `⊨ f` (all states) on each system concurrently, routing each
/// check through the backend `choice` resolves for it. Returns
/// `(name, verdict-or-error)` in input order.
pub fn check_holds_everywhere_parallel(
    names: &[String],
    systems: &[System],
    f: &Formula,
    choice: BackendChoice,
) -> Vec<(String, Result<bool, String>)> {
    check_holds_everywhere_with_workers(names, systems, f, choice, scheduler::default_workers())
}

/// [`check_holds_everywhere_parallel`] with an explicit worker cap
/// (benchmarks sweep this; `1` gives the sequential baseline through the
/// identical code path).
pub fn check_holds_everywhere_with_workers(
    names: &[String],
    systems: &[System],
    f: &Formula,
    choice: BackendChoice,
    workers: usize,
) -> Vec<(String, Result<bool, String>)> {
    assert_eq!(names.len(), systems.len());
    let trivial = Restriction::trivial();
    let outcomes = scheduler::run_bounded(systems.len(), workers, |i| {
        let target = Target::system(systems[i].clone());
        check_routed(choice, &target, &trivial, f)
            .map(|v| v.holds)
            .map_err(|e| e.to_string())
    });
    names
        .iter()
        .cloned()
        .zip(outcomes.into_iter().map(|r| r.and_then(|inner| inner)))
        .collect()
}

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

/// Outcome of one obligation in a store-aware fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutOutcome {
    /// Does the obligation hold (over all states, trivial restriction)?
    pub holds: bool,
    /// Was the verdict served from the shared [`CertStore`] instead of
    /// being recomputed?
    pub store_hit: bool,
    /// The engine the cost model *planned* for this target (store keys
    /// are keyed by the plan, which is deterministic; a fallback at check
    /// time does not change the obligation's identity).
    pub backend: BackendKind,
}

/// [`check_targets_with_workers`], but exchanging verdicts through a
/// shared [`CertStore`]: each worker keys its obligation structurally
/// ([`ObligationKey::composed`], so duplicate obligations collide across
/// workers and across runs) and consults the store before checking.
///
/// This is the fixpoint-obligation fan-out of the partitioned engine:
/// every job that routes symbolic builds its **own** `SymbolicModel` — and
/// with it a private `BddManager` — inside the worker, so no BDD state is
/// shared between threads; the only cross-worker exchange is the verdict
/// entry in the store.
pub fn check_targets_with_store(
    tasks: &[(String, Target, Formula)],
    choice: BackendChoice,
    workers: usize,
    store: &Arc<CertStore>,
) -> Vec<(String, Result<FanoutOutcome, String>)> {
    let trivial = Restriction::trivial();
    let outcomes = scheduler::run_bounded(tasks.len(), workers, |i| {
        let (_, target, f) = &tasks[i];
        let plan = choice.route(target, &trivial);
        let refs: Vec<&System> = target.systems().iter().collect();
        // The expansion alphabet is part of the obligation's identity (the
        // same components over a wider Σ* is a different target), so it
        // rides in the mode tag.
        let mode = format!("fanout/{}", target.extra().names().join(","));
        let key = ObligationKey::composed(&mode, plan.planned.name(), &refs, &trivial, f);
        let (entry, store_hit) = store.get_or_check(key, || {
            check_planned(choice, plan, target, &trivial, f, 1)
                .map(|v| Entry::verdict(v.holds))
                .map_err(|e| e.to_string())
        })?;
        Ok(FanoutOutcome {
            holds: entry.verdict,
            store_hit,
            backend: plan.planned,
        })
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
    use cmc_kripke::Alphabet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rising(name: &str) -> System {
        let mut m = System::new(Alphabet::new([name]));
        m.add_transition_named(&[], &[name]);
        m
    }

    #[test]
    fn parallel_checks_match_sequential() {
        let systems: Vec<System> = (0..8).map(|i| rising(&format!("v{i}"))).collect();
        let names: Vec<String> = (0..8).map(|i| format!("c{i}")).collect();
        // v0 ⇒ AX v0 — true for c0 (it owns v0 and never clears it) and
        // errors for others (unknown proposition), proving per-component
        // isolation of errors.
        let f = parse("v0 -> AX v0").unwrap();
        let results = check_holds_everywhere_parallel(&names, &systems, &f, BackendChoice::Auto);
        assert_eq!(results.len(), 8);
        assert_eq!(results[0].1, Ok(true));
        for (_, r) in &results[1..] {
            assert!(r.is_err());
        }
    }

    #[test]
    fn parallel_order_is_stable() {
        let systems: Vec<System> = (0..4).map(|_| rising("x")).collect();
        let names: Vec<String> = (0..4).map(|i| format!("c{i}")).collect();
        let f = parse("x -> AX x").unwrap();
        let results = check_holds_everywhere_parallel(&names, &systems, &f, BackendChoice::Auto);
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
        let systems: Vec<System> = (0..10).map(|i| rising(&format!("w{i}"))).collect();
        let names: Vec<String> = (0..10).map(|i| format!("c{i}")).collect();
        let f = parse("w3 -> AX w3").unwrap();
        let baseline =
            check_holds_everywhere_with_workers(&names, &systems, &f, BackendChoice::Auto, 1);
        for workers in [2, 4, 8] {
            let got = check_holds_everywhere_with_workers(
                &names,
                &systems,
                &f,
                BackendChoice::Auto,
                workers,
            );
            assert_eq!(got, baseline, "worker count {workers}");
        }
    }

    #[test]
    fn store_fanout_memoizes_duplicate_obligations() {
        let store = Arc::new(cmc_store::CertStore::new());
        // Four tasks, but only two distinct obligations: duplicates must
        // be served from the store while fresh ones compute.
        let tasks: Vec<(String, Target, Formula)> = (0..4)
            .map(|i| {
                let v = if i % 2 == 0 { "x" } else { "y" };
                let f = parse(&format!("{v} -> AX {v}")).unwrap();
                (format!("t{i}"), Target::system(rising(v)), f)
            })
            .collect();
        let results = check_targets_with_store(&tasks, BackendChoice::Auto, 1, &store);
        assert_eq!(results.len(), 4);
        let o0 = results[0].1.as_ref().unwrap();
        assert!(o0.holds && !o0.store_hit);
        let o2 = results[2].1.as_ref().unwrap();
        assert!(o2.holds && o2.store_hit, "duplicate obligation recomputed");
        assert_eq!(store.len(), 2);
        // A second sweep over the same tasks is all hits, on any worker
        // count, with identical outcomes.
        for workers in [1, 2, 4] {
            let again = check_targets_with_store(&tasks, BackendChoice::Auto, workers, &store);
            for (name, r) in &again {
                let o = r.as_ref().unwrap();
                assert!(o.store_hit, "{name} missed a warm store");
                assert!(o.holds);
            }
        }
    }

    #[test]
    fn store_fanout_distinguishes_expansion_alphabets() {
        let store = Arc::new(cmc_store::CertStore::new());
        let sys = rising("x");
        let f = parse("x -> AX x").unwrap();
        let tasks = vec![
            ("plain".to_string(), Target::system(sys.clone()), f.clone()),
            (
                "expanded".to_string(),
                Target::expansion(sys, Alphabet::new(["z"])),
                f.clone(),
            ),
        ];
        let results = check_targets_with_store(&tasks, BackendChoice::Auto, 2, &store);
        assert!(results.iter().all(|(_, r)| r.is_ok()));
        // Same components, same formula, different Σ* — two store entries.
        assert_eq!(store.len(), 2);
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
