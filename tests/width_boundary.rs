//! Width-boundary suite for the arbitrary-width explicit kernel.
//!
//! Token-ring compositions at the interesting widths — 24 (last dense), 25
//! (first reachable-only), 33 (past one machine word of universe
//! indexing), 65 (past a `u64` of packed bits), 130 (past the inline
//! `u128`, onto the heap `StateVec` representation) — checked through the
//! `ExplicitBackend`, the measured `Auto` route, and cross-validated
//! against the symbolic engine where the BDD stays tractable. The 30-wide
//! case is the PR's acceptance scenario.

use compositional_mc::core::{
    check_routed, BackendChoice, BackendKind, ExplicitBackend, SymbolicBackend, Target,
};
use compositional_mc::ctl::{parse, ExplicitLimits, Formula, Restriction};
use compositional_mc::kripke::{Alphabet, System};
use compositional_mc::smv::run_source_with_backend;

/// An `n`-station token ring: station `i` owns `{t_i, t_{i+1 mod n}}` and
/// passes the token forward. With a one-hot start the reachable fragment
/// is exactly the `n` token positions.
fn stations(n: usize) -> Vec<System> {
    (0..n)
        .map(|i| {
            let here = format!("t{i}");
            let next = format!("t{}", (i + 1) % n);
            let mut m = System::new(Alphabet::new([here.clone(), next.clone()]));
            m.add_transition_named(&[&here], &[&next]);
            m
        })
        .collect()
}

/// The composition of `stations` as a lazy target.
fn ring(stations: &[System]) -> Target<'_> {
    Target::composition(stations.iter().collect())
}

/// One-hot initial condition: the token at `t0`, all other props pinned
/// false.
fn one_hot(n: usize) -> Restriction {
    Restriction::with_init(Formula::and_many((0..n).map(|i| {
        let p = Formula::ap(format!("t{i}"));
        if i == 0 {
            p
        } else {
            p.not()
        }
    })))
}

/// The widths this suite pins: last-dense, first-reachable, past a word
/// of universe indexing, past a packed word, past the inline u128.
const WIDTHS: [usize; 5] = [24, 25, 33, 65, 130];

/// A backend whose dense threshold is lowered so every width in [`WIDTHS`]
/// exercises the reachable kernel without enumerating a `2^24` dense
/// universe in a debug test run. The dense/reachable *boundary* itself is
/// pinned separately below at `dense_bits = 12`, where the dense side is
/// cheap; `ExplicitLimits::DEFAULT_DENSE_BITS` stays covered by the
/// `limits_boundary` suite's constructor checks.
fn reachable_backend() -> ExplicitBackend {
    ExplicitBackend::with_limits(ExplicitLimits {
        dense_bits: 12,
        ..ExplicitLimits::default()
    })
}

#[test]
fn explicit_backend_checks_every_width_boundary() {
    for n in WIDTHS {
        let stations = stations(n);
        let target = ring(&stations);
        let r = one_hot(n);
        let f = parse("AG EF t0").unwrap();
        let v = reachable_backend()
            .check(&target, &r, &f)
            .unwrap_or_else(|e| panic!("width {n}: {e}"));
        assert!(v.holds, "the token always returns at width {n}");
        assert_eq!(v.stats.backend, BackendKind::Explicit);
        assert_eq!(
            v.stats.reachable_states,
            Some(n as u64),
            "width {n}: the reachable fragment is exactly the token positions"
        );
        assert_eq!(v.sat_states, None, "width {n} has no universe count");
        // And a falsifiable property stays falsifiable at every width.
        let g = parse("AG t0").unwrap();
        let v = reachable_backend().check(&target, &r, &g).unwrap();
        assert!(!v.holds, "the token leaves t0 at width {n}");
    }
}

#[test]
fn dense_reachable_boundary_flips_at_dense_bits() {
    // One bit either side of a configurable dense threshold: at the
    // threshold the engine labels the full universe (and can count it);
    // one past, it interns only the reachable fragment.
    let f = parse("AG EF t0").unwrap();
    let at = reachable_backend()
        .check(&ring(&stations(12)), &one_hot(12), &f)
        .unwrap();
    assert!(at.holds);
    assert!(at.sat_states.is_some(), "width 12 should run dense");
    assert_eq!(at.stats.reachable_states, None);

    let past = reachable_backend()
        .check(&ring(&stations(13)), &one_hot(13), &f)
        .unwrap();
    assert!(past.holds);
    assert_eq!(past.sat_states, None);
    assert_eq!(past.stats.reachable_states, Some(13));
}

#[test]
fn auto_routes_every_width_boundary_explicit_when_pinned() {
    for n in WIDTHS {
        let stations = stations(n);
        let target = ring(&stations);
        let r = one_hot(n);
        let f = parse("EF t1").unwrap();
        let v = check_routed(BackendChoice::Auto, &target, &r, &f)
            .unwrap_or_else(|e| panic!("width {n}: {e}"));
        assert!(v.holds, "width {n}");
        let route = v.stats.route.expect("routed checks must stamp the route");
        assert_eq!(
            route.planned,
            BackendKind::Explicit,
            "width {n}: a pinned ring estimates ~{} states, under the crossover",
            route.estimated_states
        );
        assert!(!route.fell_back, "width {n} must not need the fallback");
        assert_eq!(v.stats.backend, BackendKind::Explicit);
    }
}

#[test]
fn explicit_agrees_with_symbolic_across_widths() {
    // The BDD engine is cross-checked where its variable count stays
    // cheap to order; 130 vars is exercised explicit-only above.
    for n in [24, 25, 33] {
        let stations = stations(n);
        let target = ring(&stations);
        let r = one_hot(n);
        for spec in ["AG EF t0", "AG t0", "EF t2", &format!("EF t{}", n - 1)] {
            let f = parse(spec).unwrap();
            let e = reachable_backend().check(&target, &r, &f).unwrap();
            let s = SymbolicBackend::default().check(&target, &r, &f).unwrap();
            assert_eq!(e.holds, s.holds, "engines disagree on {spec} at width {n}");
        }
    }
}

/// The PR's acceptance scenario: a 30-station ring (30 propositions, past
/// the old 24-prop ceiling) completes through the `ExplicitBackend` with a
/// verdict matching the symbolic engine's.
#[test]
fn thirty_station_ring_completes_explicit_and_matches_symbolic() {
    let stations = stations(30);
    let target = ring(&stations);
    let r = one_hot(30);
    let f = parse("AG (t0 -> EF t15)").unwrap();
    let e = ExplicitBackend::default().check(&target, &r, &f).unwrap();
    let s = SymbolicBackend::default().check(&target, &r, &f).unwrap();
    assert!(e.holds);
    assert_eq!(e.holds, s.holds);
    assert_eq!(e.stats.backend, BackendKind::Explicit);
    assert_eq!(e.stats.reachable_states, Some(30));
}

/// The SMV driver's side of the widths: boolean models past the dense
/// width have `2^bits` valid states, so the explicit compilation refuses
/// on the state budget and `Auto` routes them symbolic — every width
/// still *completes*.
#[test]
fn smv_driver_completes_wide_models_symbolically() {
    for n in [25, 33] {
        let vars: String = (0..n).map(|i| format!("  x{i} : boolean;\n")).collect();
        let assigns: String = (0..n).map(|i| format!("  next(x{i}) := x{i};\n")).collect();
        let src = format!("MODULE main\nVAR\n{vars}ASSIGN\n{assigns}SPEC AG (x0 -> AX x0)\n");
        let out = run_source_with_backend(&src, BackendChoice::Auto)
            .unwrap_or_else(|e| panic!("width {n}: {e}"));
        assert!(out.all_true(), "width {n}");
        assert!(
            out.report.contains("symbolic"),
            "width {n} should route symbolic:\n{}",
            out.report
        );
        let err = run_source_with_backend(&src, BackendChoice::Explicit).unwrap_err();
        assert!(
            err.to_string().contains("budgeted"),
            "width {n}: forced explicit should refuse on the state budget, got {err}"
        );
    }
}
