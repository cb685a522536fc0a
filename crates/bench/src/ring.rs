//! Token-ring workload: `n` stations passing a token, verified
//! compositionally (per-station Rule 4 + pairwise exclusion invariant)
//! versus monolithically (explicit product system). `cmcbench` replays
//! the compositional proof; the calibration sweeps time checks on
//! [`stations`].

use cmc_core::engine::{Component, Engine};
use cmc_core::rules::rule4;
use cmc_ctl::{parse, Formula, Restriction};
use cmc_kripke::System;
use cmc_smv::{compile_explicit, parse_module, Module};

/// The SMV module of station `i` in an `n`-ring.
pub fn station_module(i: usize, n: usize) -> Module {
    let j = (i + 1) % n;
    parse_module(&format!(
        "MODULE main\nVAR t{i} : boolean; t{j} : boolean;\nASSIGN\n  \
         next(t{i}) := case t{i} : 0; 1 : t{i}; esac;\n  \
         next(t{j}) := case t{i} : 1; 1 : t{j}; esac;\n"
    ))
    .expect("station module parses")
}

/// The `n` station systems (2-proposition alphabets `{tᵢ, tᵢ₊₁}`).
pub fn stations(n: usize) -> Vec<System> {
    (0..n)
        .map(|i| {
            compile_explicit(&station_module(i, n))
                .expect("station module compiles")
                .system
        })
        .collect()
}

/// The proof engine over all `n` stations (explicit components).
pub fn ring_engine(n: usize) -> Engine {
    let comps = (0..n)
        .map(|i| {
            Component::new(
                format!("station{i}"),
                compile_explicit(&station_module(i, n)).unwrap().system,
            )
        })
        .collect();
    Engine::new(comps)
}

/// Pairwise mutual exclusion `⋀_{i<j} ¬(tᵢ ∧ tⱼ)` — the decomposable
/// safety invariant.
pub fn at_most_one(n: usize) -> Formula {
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            pairs.push(
                Formula::ap(format!("t{i}"))
                    .and(Formula::ap(format!("t{j}")))
                    .not(),
            );
        }
    }
    Formula::and_many(pairs)
}

/// Exactly-one-token (global) — the initial condition for liveness.
pub fn exactly_one(n: usize) -> Formula {
    Formula::or_many((0..n).map(|i| {
        Formula::and_many((0..n).map(|k| {
            if k == i {
                Formula::ap(format!("t{k}"))
            } else {
                Formula::ap(format!("t{k}")).not()
            }
        }))
    }))
}

/// Token starts at station 0.
pub fn token_at_zero(n: usize) -> Formula {
    Formula::and_many((0..n).map(|k| {
        if k == 0 {
            Formula::ap("t0")
        } else {
            Formula::ap(format!("t{k}")).not()
        }
    }))
}

/// The compositional verification of the whole ring: safety invariant plus
/// one Rule-4 progress guarantee per station. Panics if anything fails.
pub fn verify_ring_compositionally(n: usize, engine: &Engine) {
    let cert = engine
        .prove_invariant(&at_most_one(n), &token_at_zero(n), &[])
        .unwrap();
    assert!(cert.valid, "{cert}");
    for i in 0..n {
        let j = (i + 1) % n;
        let comp = compile_explicit(&station_module(i, n)).unwrap();
        let p = comp.parse_formula(&format!("t{i}")).unwrap();
        let q = comp.parse_formula(&format!("t{j}")).unwrap();
        let g = rule4(&comp.system, &p, &q).unwrap();
        let cert = engine.discharge(&g).unwrap();
        assert!(cert.valid, "station {i}: {cert}");
    }
}

/// The monolithic check: `AF t0` on the full product under ring fairness.
pub fn verify_ring_monolithically(n: usize, engine: &Engine) {
    let fairness: Vec<Formula> = (0..n)
        .map(|i| parse(&format!("!t{i} | t{}", (i + 1) % n)).unwrap())
        .collect();
    let r = Restriction::new(exactly_one(n), fairness);
    let ok = engine
        .monolithic_check(&r, &parse("AF t0").unwrap())
        .unwrap();
    assert!(ok);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_core::{MaintenanceConfig, SymbolicBackend, Target};

    #[test]
    fn ring_verifies_both_ways() {
        let n = 5;
        let engine = ring_engine(n);
        verify_ring_compositionally(n, &engine);
        verify_ring_monolithically(n, &engine);
    }

    #[test]
    fn formulas_shape() {
        // Three ¬(a∧b) conjuncts, one per pair of stations.
        assert_eq!(
            at_most_one(3).to_string(),
            "!(t0 & t1) & !(t0 & t2) & !(t1 & t2)"
        );
        let e1 = exactly_one(2);
        // Sanity: exactly_one(2) = (t0 ∧ ¬t1) ∨ (¬t0 ∧ t1).
        assert_eq!(e1.to_string(), "t0 & !t1 | !t0 & t1");
    }

    /// A bounded GC policy bounds memory without changing the answer. The
    /// least fixpoint `EF t[n/2]` runs once with maintenance off and a
    /// computed table too large to rotate, and once with automatic GC at
    /// a quarter of that run's peak and a small table: the bounded run
    /// must collect, and stay strictly below the unbounded run in peak
    /// live nodes and in bytes allocated.
    #[test]
    fn bounded_gc_policy_bounds_memory() {
        let r = Restriction::trivial();
        for n in [8, 12] {
            let stations = stations(n);
            let target = Target::composition(stations.iter().collect());
            let f = parse(&format!("EF t{}", n / 2)).unwrap();
            let unbounded = SymbolicBackend::with_maintenance(MaintenanceConfig::disabled())
                .cache_capacity(1 << 22)
                .check(&target, &r, &f)
                .unwrap();
            let u = unbounded
                .stats
                .bdd
                .expect("symbolic checks report BDD stats");
            let bounded = SymbolicBackend::with_maintenance(MaintenanceConfig {
                gc_threshold: u.peak_live_nodes / 4,
                ..MaintenanceConfig::default()
            })
            .cache_capacity(1 << 15)
            .check(&target, &r, &f)
            .unwrap();
            let b = bounded.stats.bdd.expect("symbolic checks report BDD stats");
            assert_eq!(bounded.sat_states, unbounded.sat_states, "{n} stations");
            assert!(
                b.gc_runs > 0,
                "{n} stations: the bounded policy never collected"
            );
            assert!(
                b.peak_live_nodes < u.peak_live_nodes,
                "{n} stations: bounded peak {} not below unbounded {}",
                b.peak_live_nodes,
                u.peak_live_nodes
            );
            assert!(
                b.bytes_allocated < u.bytes_allocated,
                "{n} stations: bounded footprint {}B not below unbounded {}B",
                b.bytes_allocated,
                u.bytes_allocated
            );
        }
    }
}
