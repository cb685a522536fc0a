//! Boundary tests for the explicit engine's size limits, now unified
//! behind [`ExplicitLimits`]: the dense-universe width (`dense_bits`) is a
//! *mode switch* — past it the engine goes reachable-only rather than
//! refusing — and the only hard guard left is the opt-in state budget
//! (`max_states`), measured in materialised states, not encoded bits.
//! Guards against off-by-one regressions in `Checker::from_components`,
//! the `ExplicitBackend`, the SMV driver's explicit compilation and its
//! `Auto` routing.

use compositional_mc::core::{
    BackendChoice, BackendError, ExplicitBackend, Target, AUTO_DENSE_BITS,
};
use compositional_mc::ctl::{CheckError, Checker, ExplicitLimits, Formula, Restriction};
use compositional_mc::kripke::{Alphabet, System};
use compositional_mc::smv::{
    compile_explicit, compile_explicit_with, parse_module, run_source_with_backend,
};

fn wide_system(n: usize) -> System {
    let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    System::new(Alphabet::new(names))
}

#[test]
fn dense_checker_accepts_exactly_max_explicit_props() {
    let max = ExplicitLimits::DEFAULT_DENSE_BITS;
    let at = wide_system(max);
    assert!(
        Checker::new(&at).is_ok(),
        "width == DEFAULT_DENSE_BITS must be accepted"
    );
    assert!(Checker::from_components(&[&at], at.alphabet(), max).is_ok());

    let past = wide_system(max + 1);
    let err = Checker::new(&past).unwrap_err();
    assert!(matches!(
        err,
        CheckError::TooLarge { props, limit } if props == max + 1 && limit == max
    ));
}

#[test]
fn checker_custom_limit_boundary_still_checks() {
    // At a small limit the accepted checker must actually run, not just
    // construct.
    let m = wide_system(3);
    let c = Checker::from_components(&[&m], m.alphabet(), 3).unwrap();
    let v = c
        .check(
            &Restriction::trivial(),
            &Formula::ap("v0").ag().or(Formula::True),
        )
        .unwrap();
    assert!(v.holds);
    assert!(Checker::from_components(&[&m], m.alphabet(), 2).is_err());
}

#[test]
fn explicit_backend_widths_past_dense_bits_go_reachable_not_rejected() {
    let backend = ExplicitBackend::with_limits(ExplicitLimits {
        dense_bits: 3,
        max_states: None,
    });
    let (three, four) = (wide_system(3), wide_system(4));
    let at = Target::system(&three);
    let v = backend
        .check(&at, &Restriction::trivial(), &Formula::True)
        .unwrap();
    assert!(v.holds);
    assert!(v.sat_states.is_some(), "dense mode counts the universe");

    // One bit past dense_bits: the old engine refused with TooLarge; now
    // the reachable kernel enumerates the 16 initial states and checks.
    let past = Target::system(&four);
    let v = backend
        .check(&past, &Restriction::trivial(), &Formula::True)
        .unwrap();
    assert!(v.holds);
    assert_eq!(v.stats.reachable_states, Some(16));
    assert_eq!(v.sat_states, None, "reachable mode has no universe count");
}

#[test]
fn explicit_backend_state_budget_is_the_only_hard_guard() {
    let tight = ExplicitBackend::with_limits(ExplicitLimits {
        dense_bits: 3,
        max_states: Some(8),
    });
    // 2^4 = 16 initial states exceed an 8-state budget: honest refusal
    // before materialising anything.
    let (three, four) = (wide_system(3), wide_system(4));
    let past = Target::system(&four);
    let err = tight
        .check(&past, &Restriction::trivial(), &Formula::True)
        .unwrap_err();
    assert!(
        matches!(err, BackendError::StateBudget { budget: 8, .. }),
        "{err}"
    );
    // Exactly at the budget is accepted.
    let at = Target::system(&three);
    let v = ExplicitBackend::with_limits(ExplicitLimits {
        dense_bits: 2,
        max_states: Some(8),
    })
    .check(&at, &Restriction::trivial(), &Formula::True)
    .unwrap();
    assert_eq!(v.stats.reachable_states, Some(8));
}

/// An SMV module with `enums` three-valued variables (2 encoded bits
/// each) plus `bools` booleans, all stuttering.
fn smv_module(enums: usize, bools: usize) -> String {
    let mut src = String::from("MODULE main\nVAR\n");
    for i in 0..enums {
        src.push_str(&format!("  e{i} : {{a, b, c}};\n"));
    }
    for i in 0..bools {
        src.push_str(&format!("  x{i} : boolean;\n"));
    }
    src.push_str("ASSIGN\n");
    for i in 0..enums {
        src.push_str(&format!("  next(e{i}) := e{i};\n"));
    }
    for i in 0..bools {
        src.push_str(&format!("  next(x{i}) := x{i};\n"));
    }
    src.push_str("SPEC AG 1\n");
    src
}

#[test]
fn smv_explicit_budget_counts_states_not_bits() {
    // 10 three-valued enums: 20 encoded bits, 3^10 = 59049 valid states.
    // The old 20-bit cliff sat exactly here; the state budget sails past
    // it and the boundary is now the exact state count.
    let at = parse_module(&smv_module(10, 0)).unwrap();
    assert!(compile_explicit(&at).is_ok());
    assert!(compile_explicit_with(&at, &ExplicitLimits::budgeted(59049)).is_ok());
    let err = compile_explicit_with(&at, &ExplicitLimits::budgeted(59048)).unwrap_err();
    assert!(
        err.to_string().contains("59049"),
        "error should name the offending state count: {err}"
    );

    // 21 bits (the old hard rejection) now compiles fine by default:
    // 118098 states is well under the default budget.
    let past_old_cliff = parse_module(&smv_module(10, 1)).unwrap();
    let compiled = compile_explicit(&past_old_cliff).expect("21 bits must compile now");
    assert_eq!(compiled.system.alphabet().len(), 21);
}

#[test]
fn smv_driver_auto_routes_by_encoded_width() {
    // The driver's explicit path labels the dense 2^bits universe, so
    // Auto crosses at cmc_core's AUTO_DENSE_BITS = 8 encoded bits:
    // 4 enums = 8 bits stay explicit, one more boolean goes symbolic.
    assert_eq!(AUTO_DENSE_BITS, 8);
    for (src, bits, engine) in [
        (smv_module(4, 0), 8, "engine: explicit-state"),
        (smv_module(4, 1), 9, "engine: symbolic (BDD)"),
        // 3^10 = 59049 valid states, 20 encoded bits: symbolic, however
        // few states the domains admit.
        (smv_module(10, 0), 20, "engine: symbolic (BDD)"),
    ] {
        let auto = run_source_with_backend(&src, BackendChoice::Auto).unwrap();
        assert!(
            auto.report.contains(engine),
            "{bits} bits should route to `{engine}`:\n{}",
            auto.report
        );
        assert!(
            auto.report.contains(&format!("Auto: {bits} encoded bits")),
            "{}",
            auto.report
        );
        let explicit = run_source_with_backend(&src, BackendChoice::Explicit)
            .expect("the explicit driver accepts every module here");
        assert_eq!(auto.results, explicit.results, "{bits} bits");
        assert!(auto.all_true());
    }
}
