//! Partition-conformance suite — the test layer locking in the
//! partitioned transition representation.
//!
//! Three pillars:
//!
//! 1. a 250-seed sweep of multi-component obligations through the
//!    **five-way** oracle (unmerged symbolic / scheduled symbolic /
//!    monolithic symbolic / explicit / naïve reference), with sat counts
//!    and witnesses cross-validated and partition-coarsening shrinking on
//!    failure;
//! 2. property tests that the two quantification plans over the
//!    disjunctive partition — the unmerged control plan
//!    (`set_merging(false)`) and the default merged plan, built once per
//!    model under fixed merge thresholds — compute the same pre-image as
//!    the monolithic relation;
//! 3. scheduler determinism: verdicts, sat-state counts and certificate
//!    steps are identical for 1/2/4/8 workers, including runs where every
//!    worker drives its own BDD manager under `ForcedEvery(1)`
//!    maintenance.

use cmc_testkit::{
    gen_partitioned_obligation, partition_corpus_seeds, run_obligation_with, run_quad_obligation,
    GenConfig, OracleOutcome, QuadOutcome,
};
use compositional_mc::core::parallel::check_targets_with_workers;
use compositional_mc::core::{
    Backend, BackendChoice, Component, Engine, ExplicitBackend, SymbolicBackend, Target,
};
use compositional_mc::ctl::{Formula, Restriction};
use compositional_mc::kripke::{Alphabet, State, System};
use compositional_mc::symbolic::{ImageMode, MaintenanceConfig, SymbolicModel};
use proptest::prelude::*;

/// The tentpole acceptance gate: ≥ 250 deterministic multi-component
/// obligations through the five-way oracle, in full agreement, every
/// backend witness replayed and every exact sat count checked against
/// the reference (both happen inside the oracle — a bogus witness or
/// count is reported as a disagreement note).
#[test]
fn two_hundred_fifty_partitioned_obligations_agree_four_ways() {
    let cfg = GenConfig::default();
    let mut seeds: Vec<u64> = partition_corpus_seeds();
    let fresh = 250usize.saturating_sub(seeds.len());
    seeds.extend(2_000..2_000 + fresh as u64);
    assert!(seeds.len() >= 250, "corpus too small: {}", seeds.len());

    let mut agreed = 0usize;
    let mut skipped = 0usize;
    for &seed in &seeds {
        let o = gen_partitioned_obligation(seed, &cfg);
        match run_quad_obligation(&o) {
            QuadOutcome::Agree(_) => agreed += 1,
            QuadOutcome::Skipped(why) => {
                skipped += 1;
                assert!(
                    skipped <= seeds.len() / 50,
                    "too many skipped obligations (last: seed {seed}: {why})"
                );
            }
            QuadOutcome::Disagree(d) => panic!("{d}"),
        }
    }
    assert!(
        agreed >= 245,
        "only {agreed} obligations ran to agreement ({skipped} skipped)"
    );
}

/// A random reflexive system over `names` from a list of transition
/// pairs.
fn system_from_pairs(names: &[&str], pairs: &[(u32, u32)]) -> System {
    let mut m = System::new(Alphabet::new(names.iter().copied()));
    let mask = (1u128 << names.len()) - 1;
    for &(s, t) in pairs {
        m.add_transition(State(s as u128 & mask), State(t as u128 & mask));
    }
    m
}

fn arb_pairs(max: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..max, 0..max), 0..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The unmerged plan (one cluster per partition) and the default
    /// merged plan compute the same `pre_exists` as the monolithic
    /// relation — on random three-component chains and random state sets.
    #[test]
    fn quantification_schedules_match_monolithic_pre_image(
        pa in arb_pairs(8),
        pb in arb_pairs(8),
        pc in arb_pairs(8),
        set_bits in 0u32..256,
    ) {
        let a = system_from_pairs(&["p", "q", "r"], &pa);
        let b = system_from_pairs(&["q", "r", "s"], &pb);
        let c = system_from_pairs(&["r", "s", "t"], &pc);
        let refs = [&a, &b, &c];
        let mut m = SymbolicModel::from_components(&refs, &Alphabet::empty());
        // One partition per component with at least one proper move
        // (transition-free components contribute only the implicit
        // stutter and get no partition).
        prop_assert!(m.num_trans_parts() <= 3);

        // A pseudo-random state set: the union of minterms selected by
        // `set_bits` over the low three variables.
        let props: Vec<_> = ["p", "q", "r", "s", "t"]
            .iter()
            .map(|n| m.prop(n).unwrap())
            .collect();
        let mut s = {
            let mgr = m.mgr();
            let mut acc = compositional_mc::bdd::Bdd::FALSE;
            for k in 0..8 {
                if set_bits & (1 << k) != 0 {
                    let mut term = compositional_mc::bdd::Bdd::TRUE;
                    for (j, &p) in props.iter().take(3).enumerate() {
                        let lit = if k & (1 << j) != 0 { p } else { mgr.not(p) };
                        term = mgr.and(term, lit);
                    }
                    acc = mgr.or(acc, term);
                }
            }
            acc
        };
        if set_bits % 3 == 0 {
            let extra = m.mgr().and(props[3], props[4]);
            s = m.mgr().or(s, extra);
        }

        // Unmerged vs monolithic vs merged (default plan) pre-image of
        // the same set.
        m.set_merging(false);
        let unmerged = m.pre_exists(s);
        m.set_image_mode(ImageMode::Monolithic);
        let mono = m.pre_exists(s);
        prop_assert_eq!(unmerged, mono, "unmerged plan disagrees on pre_exists");
        m.set_image_mode(ImageMode::Scheduled);
        m.set_merging(true);
        let sched = m.pre_exists(s);
        prop_assert_eq!(sched, mono, "scheduled pre_exists diverged");
        if let Some(st) = m.schedule_stats() {
            let mut order = st.order.clone();
            order.sort_unstable();
            prop_assert_eq!(
                order,
                (0..st.clusters_after).collect::<Vec<_>>(),
                "schedule order is not a permutation"
            );
        }
    }
}

/// A small fleet of mixed-width targets used by the determinism tests:
/// some route explicit, the 22-prop chain routes symbolic under `Auto`.
fn determinism_tasks() -> Vec<(String, Target, Formula)> {
    let mut tasks = Vec::new();
    for w in [3usize, 4, 22] {
        let names: Vec<String> = (0..w).map(|i| format!("x{i}")).collect();
        let systems: Vec<System> = (0..w - 1)
            .map(|i| {
                let a = names[i].as_str();
                let b = names[i + 1].as_str();
                let mut m = System::new(Alphabet::new([a, b]));
                m.add_transition_named(&[], &[a]);
                m.add_transition_named(&[a], &[a, b]);
                m
            })
            .collect();
        let f = Formula::ap("x0").implies(Formula::ap(format!("x{}", w - 1)).ef());
        tasks.push((format!("chain{w}"), Target::composition(systems), f));
    }
    tasks
}

/// Verdicts and sat-state counts are identical across 1/2/4/8 workers for
/// a mixed explicit/symbolic fleet of fixpoint obligations.
#[test]
fn fanout_verdicts_identical_across_worker_counts() {
    type Fingerprint = Vec<(String, Result<(bool, Vec<State>, Option<u128>), String>)>;
    let tasks = determinism_tasks();
    let fingerprint = |workers: usize| -> Fingerprint {
        check_targets_with_workers(&tasks, BackendChoice::Auto, workers)
            .into_iter()
            .map(|(n, r)| (n, r.map(|v| (v.holds, v.violating, v.sat_states))))
            .collect()
    };
    let baseline = fingerprint(1);
    assert!(
        baseline.iter().all(|(_, r)| r.is_ok()),
        "baseline fleet failed: {baseline:?}"
    );
    for workers in [2, 4, 8] {
        assert_eq!(fingerprint(workers), baseline, "worker count {workers}");
    }
}

/// Per-worker BDD managers under the most aggressive maintenance policy
/// (`ForcedEvery(1)`: GC at every safe point) still produce
/// verdicts identical to the default policy, for every worker count —
/// each scheduler job builds its own `SymbolicModel`, so managers are
/// never shared across threads.
#[test]
fn forced_maintenance_per_worker_managers_are_verdict_invariant() {
    let cfg = GenConfig::default();
    let obligations: Vec<_> = (400..412u64)
        .map(|seed| gen_partitioned_obligation(seed, &cfg))
        .collect();
    let run = |workers: usize, backend: SymbolicBackend| -> Vec<String> {
        compositional_mc::core::scheduler::run_bounded(obligations.len(), workers, |i| {
            match run_obligation_with(&obligations[i], backend) {
                OracleOutcome::Agree(v) => format!("agree:{}", v.symbolic),
                OracleOutcome::Skipped(why) => format!("skip:{why}"),
                OracleOutcome::Disagree(d) => format!("disagree:{d}"),
            }
        })
        .into_iter()
        .map(|r| r.expect("oracle job panicked"))
        .collect()
    };
    let baseline = run(1, SymbolicBackend::default());
    assert!(
        baseline.iter().all(|s| s.starts_with("agree:")),
        "baseline corpus must agree: {baseline:?}"
    );
    let forced = SymbolicBackend::with_maintenance(MaintenanceConfig::forced_every(1));
    for workers in [1usize, 2, 4, 8] {
        assert_eq!(
            run(workers, forced),
            baseline,
            "ForcedEvery(1) with {workers} workers changed a verdict"
        );
    }
}

/// Proof-engine certificates — every step description, outcome and
/// compositionality flag — are identical however wide the fan-out that
/// produced them.
#[test]
fn certificate_steps_identical_across_worker_counts() {
    let mk_components = || -> Vec<Component> {
        (0..4usize)
            .map(|i| {
                let a = format!("v{i}");
                let b = format!("v{}", i + 1);
                let mut m = System::new(Alphabet::new([a.as_str(), b.as_str()]));
                m.add_transition_named(&[], &[&a]);
                m.add_transition_named(&[&a], &[&a, &b]);
                Component::new(format!("c{i}"), m)
            })
            .collect()
    };
    let goals: Vec<Formula> = (0..5usize)
        .map(|i| Formula::ap(format!("v{i}")).implies(Formula::ap("v4").ef()))
        .collect();
    let run = |workers: usize| -> Vec<Vec<(String, bool, bool)>> {
        compositional_mc::core::scheduler::run_bounded(goals.len(), workers, |i| {
            let engine = Engine::new(mk_components());
            let cert = engine
                .prove(&Restriction::trivial(), &goals[i])
                .expect("prove failed");
            cert.steps
                .iter()
                .map(|s| (s.description.clone(), s.ok, s.compositional))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .map(|r| r.expect("prove job panicked"))
        .collect()
    };
    let baseline = run(1);
    assert!(!baseline.is_empty() && baseline.iter().all(|c| !c.is_empty()));
    for workers in [2, 4, 8] {
        assert_eq!(run(workers), baseline, "worker count {workers}");
    }
}

/// The unmerged and merged symbolic plans, the monolithic relation and
/// the explicit backend agree on a deterministic spot-check fleet, as full verdicts (holds, witnesses, counts) — the direct
/// assertion without the oracle plumbing. The default (merged) plan must
/// be **bit-identical** to the unmerged one: same witness list, same
/// exact sat count.
#[test]
fn image_modes_and_blocked_explicit_agree_on_fleet() {
    let cfg = GenConfig::default();
    for seed in 300..320u64 {
        let o = gen_partitioned_obligation(seed, &cfg);
        let target = Target::composition(o.systems.clone());
        let unmerged =
            SymbolicBackend::default()
                .unmerged()
                .check(&target, &o.restriction, &o.formula);
        let sched = SymbolicBackend::default().check(&target, &o.restriction, &o.formula);
        let mono = SymbolicBackend::default()
            .with_image_mode(ImageMode::Monolithic)
            .check(&target, &o.restriction, &o.formula);
        let explicit = ExplicitBackend::default().check(&target, &o.restriction, &o.formula);
        let (unmerged, sched, mono, explicit) = match (unmerged, sched, mono, explicit) {
            (Ok(a), Ok(s), Ok(b), Ok(c)) => (a, s, b, c),
            other => panic!("seed {seed}: a backend failed: {other:?}"),
        };
        assert_eq!(unmerged.holds, mono.holds, "seed {seed}: image modes split");
        assert_eq!(
            unmerged.holds, explicit.holds,
            "seed {seed}: explicit split"
        );
        assert_eq!(unmerged.sat_states, mono.sat_states, "seed {seed}");
        assert_eq!(unmerged.sat_states, explicit.sat_states, "seed {seed}");
        assert_eq!(unmerged.violating, mono.violating, "seed {seed}");
        // The merged plan is bit-identical to the unmerged one, and its
        // schedule bookkeeping flows into CheckStats.
        assert_eq!(sched.holds, unmerged.holds, "seed {seed}: scheduled split");
        assert_eq!(
            sched.sat_states, unmerged.sat_states,
            "seed {seed}: scheduled count"
        );
        assert_eq!(
            sched.violating, unmerged.violating,
            "seed {seed}: scheduled witnesses"
        );
        // The default backend runs the scheduled executor, so every
        // partitioned target reports the plan it used.
        if sched.stats.partitions > 0 {
            assert_eq!(
                sched.stats.schedule.as_ref().map(|st| st.clusters_before),
                Some(sched.stats.partitions),
                "seed {seed}: default backend ran no schedule over its partitions"
            );
        }
        if let Some(st) = &sched.stats.schedule {
            assert!(
                st.clusters_after <= st.clusters_before,
                "seed {seed}: merging grew the cluster count"
            );
            let mut order = st.order.clone();
            order.sort_unstable();
            assert_eq!(
                order,
                (0..st.clusters_after).collect::<Vec<_>>(),
                "seed {seed}: schedule order is not a permutation"
            );
        }
        // Partition bookkeeping flows into the stats: one partition per
        // component that has proper transitions, and one CSR index for
        // the explicit engine.
        assert!(unmerged.stats.partitions <= o.systems.len(), "seed {seed}");
        assert_eq!(explicit.stats.partitions, 1, "seed {seed}");
    }
}

/// The scheduled executor is verdict-invariant across worker counts and
/// plans: the oracle corpus agrees at 1/2/4/8 workers whether clusters
/// are merged (the default plan) or not at all, and under the most
/// aggressive maintenance policy (a collection at every safe point, which
/// the plan's registry-rooted clusters survive unchanged).
#[test]
fn scheduled_mode_is_verdict_invariant_across_workers() {
    let cfg = GenConfig::default();
    let obligations: Vec<_> = (500..512u64)
        .map(|seed| gen_partitioned_obligation(seed, &cfg))
        .collect();
    let run = |workers: usize, backend: SymbolicBackend| -> Vec<String> {
        compositional_mc::core::scheduler::run_bounded(obligations.len(), workers, |i| {
            match run_obligation_with(&obligations[i], backend) {
                OracleOutcome::Agree(v) => format!("agree:{}", v.symbolic),
                OracleOutcome::Skipped(why) => format!("skip:{why}"),
                OracleOutcome::Disagree(d) => format!("disagree:{d}"),
            }
        })
        .into_iter()
        .map(|r| r.expect("oracle job panicked"))
        .collect()
    };
    let scheduled = SymbolicBackend::default();
    let unmerged = scheduled.unmerged();
    let forced = SymbolicBackend::with_maintenance(MaintenanceConfig::forced_every(1));
    let baseline = run(1, unmerged);
    assert!(
        baseline.iter().all(|s| s.starts_with("agree:")),
        "baseline corpus must agree: {baseline:?}"
    );
    for workers in [1usize, 2, 4, 8] {
        for (label, backend) in [
            ("scheduled", scheduled),
            ("scheduled+no-merging", unmerged),
            ("scheduled+forced-maintenance", forced),
        ] {
            assert_eq!(
                run(workers, backend),
                baseline,
                "{label} with {workers} workers changed a verdict"
            );
        }
    }
}
