//! `SymbolicModel::check` runs every fixpoint inside `Reach(I)`. The
//! restriction must be exact: on the daemon's ring and AFS families and
//! the paper's four AFS component sources, each spec's violating set and
//! witness equal `I ∧ ¬sat(f)` from a full-space evaluation of the same
//! model, and GC/rehost schedules leave the restricted verdicts alone.

use cmc_serve::workload::{afs_source, ring_source};
use compositional_mc::afs::{afs1, afs2};
use compositional_mc::bdd::Bdd;
use compositional_mc::ctl::{Formula, Restriction};
use compositional_mc::smv::{compile, parse_module, CompiledModel};
use compositional_mc::symbolic::{MaintenanceConfig, SymbolicModel};

fn compiled(src: &str) -> CompiledModel {
    compile(&parse_module(src).unwrap()).unwrap()
}

/// `I ∧ ¬sat(f)` over the whole `2^n` space, under the same fairness
/// `check` uses: the model's own constraints, passed to `sat_under` as
/// named propositions.
fn full_space_violating(model: &mut SymbolicModel, f: &Formula) -> Bdd {
    let fairness: Vec<Formula> = model
        .fairness()
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let name = format!("__fair{i}");
            model.define_prop(name.clone(), c);
            Formula::ap(name)
        })
        .collect();
    let sat = model.sat_under(f, &fairness).unwrap();
    let init = model.init();
    let nsat = model.mgr().not(sat);
    model.mgr().and(init, nsat)
}

/// Every spec of `src`: the restricted check's violating set is the
/// full-space one (the same BDD node), and so is its witness.
fn assert_restriction_exact(label: &str, src: &str) {
    let mut c = compiled(src);
    assert!(!c.specs.is_empty(), "{label}: no specs");
    for (text, f) in c.specs.clone() {
        let v = c.model.check(&Restriction::trivial(), &f).unwrap();
        let held = c.model.mgr().protect(v.violating);
        let full = full_space_violating(&mut c.model, &f);
        let restricted = c.model.mgr_ref().root(held);
        c.model.mgr().unprotect(held);
        assert_eq!(restricted, full, "{label}: `{text}` violating sets differ");
        assert_eq!(v.holds, full.is_false(), "{label}: `{text}` verdict");
        let full_witness = c.model.enumerate_states(full, 1).pop();
        assert_eq!(v.witness, full_witness, "{label}: `{text}` witness");
    }
}

#[test]
fn rings_match_full_space() {
    for n in [20, 33, 48] {
        assert_restriction_exact(&format!("ring {n}"), &ring_source(n));
    }
}

#[test]
fn afs_components_match_full_space() {
    for (label, src) in [
        ("afs1 server", afs1::SERVER_SOURCE),
        ("afs1 client", afs1::CLIENT_SOURCE),
        ("afs2 server", afs2::SERVER1_SOURCE),
        ("afs2 client", afs2::CLIENT1_SOURCE),
    ] {
        assert_restriction_exact(label, src);
    }
}

#[test]
fn afs_family_matches_full_space() {
    for clients in 1..=6 {
        assert_restriction_exact(&format!("afs {clients}"), &afs_source(clients));
    }
}

/// Verdicts and violating counts under a GC (and every third time a
/// rehost) at every safe point — the reach fixpoint's included — equal
/// those of a model that never collects.
#[test]
fn ring_verdicts_invariant_under_forced_maintenance() {
    let src = ring_source(12);
    let mut plain = compiled(&src);
    plain.model.set_maintenance(MaintenanceConfig::disabled());
    let mut forced = compiled(&src);
    forced
        .model
        .set_maintenance(MaintenanceConfig::forced_every(1));
    let bits = plain.model.num_state_vars();
    let r = Restriction::trivial();
    for (text, f) in plain.specs.clone() {
        let a = plain.model.check(&r, &f).unwrap();
        let b = forced.model.check(&r, &f).unwrap();
        assert_eq!(
            a.holds, b.holds,
            "maintenance changed the verdict on `{text}`"
        );
        assert_eq!(
            plain.model.mgr_ref().sat_count(a.violating, 2 * bits),
            forced.model.mgr_ref().sat_count(b.violating, 2 * bits),
            "maintenance changed the violating set of `{text}`"
        );
    }
    assert!(forced.model.mgr_ref().stats().gc_runs > 0);
    assert_eq!(
        plain
            .model
            .reachable_memo()
            .map(|r| plain.model.mgr_ref().sat_count(r, 2 * bits)),
        forced
            .model
            .reachable_memo()
            .map(|r| forced.model.mgr_ref().sat_count(r, 2 * bits)),
        "maintenance changed the reachable set"
    );
}
