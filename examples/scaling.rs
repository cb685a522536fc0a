//! The Discussion's complexity claim (§5): compositional verification is
//! **linear** in the number of components, monolithic verification is not
//! ("we have a linear behavior (as opposed to exponential) in terms of the
//! number of components").
//!
//! Two instances:
//!
//! 1. the AFS-2 invariant with n clients, verified symbolically: the
//!    compositional proof (one `Inv ⇒ AX Inv` check per component plus
//!    `I ⇒ Inv`) up to 8 clients, the monolithic `AG Inv` check on the
//!    whole composition up to 4,
//! 2. a token ring with n stations, verified with the explicit engine up
//!    to 24 stations: the pairwise-exclusion invariant plus n Rule-4
//!    proofs, against `AF t0` on the product from the one-hot states.
//!
//! Every proof is asserted valid. Run with
//! `cargo run --release --example scaling`.

use compositional_mc::afs::afs2;
use compositional_mc::core::engine::{Component, Engine};
use compositional_mc::core::rules::rule4;
use compositional_mc::ctl::{parse, Formula, Restriction};
use compositional_mc::smv::{compile_explicit, parse_module};
use std::time::Instant;

fn main() {
    println!("== AFS-2 invariant, symbolic engine ==");
    println!(
        "{:>3} | {:>13} | {:>12} | {:>8}",
        "n", "compositional", "monolithic", "bits"
    );
    println!("{}", "-".repeat(48));
    for n in 1..=8 {
        let t0 = Instant::now();
        let proof = afs2::prove_invariant_compositional(n).unwrap();
        let comp = t0.elapsed();
        assert!(proof.valid());
        // The monolithic leg's `Reach(I)` fixpoint dominates and grows
        // with the product state space; it stops at 4 clients.
        let mono = if n <= 4 {
            let t1 = Instant::now();
            assert!(afs2::prove_invariant_monolithic(n).unwrap());
            format!("{:.1}ms", t1.elapsed().as_secs_f64() * 1e3)
        } else {
            "-".to_string()
        };
        println!(
            "{:>3} | {:>11.1}ms | {:>12} | {:>8}",
            n,
            comp.as_secs_f64() * 1e3,
            mono,
            1 + 9 * n
        );
    }

    println!("\n== token ring, explicit engine ==");
    println!(
        "{:>3} | {:>13} | {:>12} | {:>10}",
        "n", "compositional", "monolithic", "states"
    );
    println!("{}", "-".repeat(50));
    for n in (4usize..=24).step_by(2) {
        let station = |i: usize| {
            let j = (i + 1) % n;
            parse_module(&format!(
                "MODULE main\nVAR t{i} : boolean; t{j} : boolean;\nASSIGN\n  \
                 next(t{i}) := case t{i} : 0; 1 : t{i}; esac;\n  \
                 next(t{j}) := case t{i} : 1; 1 : t{j}; esac;\n"
            ))
            .unwrap()
        };
        let comps: Vec<Component> = (0..n)
            .map(|i| {
                Component::new(
                    format!("s{i}"),
                    compile_explicit(&station(i)).unwrap().system,
                )
            })
            .collect();
        let engine = Engine::new(comps);

        // Compositional: pairwise-exclusion invariant + n Rule-4 proofs.
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
        let at_most_one = Formula::and_many(pairs);
        let init = Formula::and_many((0..n).map(|k| {
            if k == 0 {
                Formula::ap("t0")
            } else {
                Formula::ap(format!("t{k}")).not()
            }
        }));
        let t0 = Instant::now();
        let cert = engine.prove_invariant(&at_most_one, &init, &[]).unwrap();
        assert!(cert.valid);
        for i in 0..n {
            let j = (i + 1) % n;
            let comp = compile_explicit(&station(i)).unwrap();
            let p = comp.parse_formula(&format!("t{i}")).unwrap();
            let q = comp.parse_formula(&format!("t{j}")).unwrap();
            let g = rule4(&comp.system, &p, &q).unwrap();
            assert!(engine.discharge(&g).unwrap().valid);
        }
        let comp_time = t0.elapsed();

        // Monolithic: AF t0 on the full product under ring fairness.
        let exactly_one = Formula::or_many((0..n).map(|i| {
            Formula::and_many((0..n).map(|k| {
                if k == i {
                    Formula::ap(format!("t{k}"))
                } else {
                    Formula::ap(format!("t{k}")).not()
                }
            }))
        }));
        let fairness: Vec<Formula> = (0..n)
            .map(|i| parse(&format!("!t{i} | t{}", (i + 1) % n)).unwrap())
            .collect();
        let r = Restriction::new(exactly_one, fairness);
        let t1 = Instant::now();
        assert!(engine
            .monolithic_check(&r, &parse("AF t0").unwrap())
            .unwrap());
        let mono_time = t1.elapsed();

        println!(
            "{:>3} | {:>11.1}ms | {:>10.1}ms | {:>10}",
            n,
            comp_time.as_secs_f64() * 1e3,
            mono_time.as_secs_f64() * 1e3,
            format!("2^{n}")
        );
    }
}
