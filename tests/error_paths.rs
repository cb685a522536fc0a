//! Coverage of the error surfaces: every layer must reject bad input with
//! a structured, human-readable error (never a panic), and the Display
//! impls must carry the information a user needs.

use compositional_mc::core::engine::{Component, Engine, EngineError};
use compositional_mc::core::rules::{rule4, RuleError};
use compositional_mc::ctl::{parse, CheckError, Checker, Restriction};
use compositional_mc::kripke::{Alphabet, System};
use compositional_mc::smv::{parse_module, run_source, DriverError};

#[test]
fn ctl_parse_errors_display() {
    let e = parse("p &").unwrap_err();
    let text = e.to_string();
    assert!(text.contains("parse error"));
    assert!(text.contains("byte"));
}

#[test]
fn checker_unknown_proposition_display() {
    let m = System::new(Alphabet::new(["x"]));
    let c = Checker::new(&m).unwrap();
    let e = c.sat(&parse("zz").unwrap()).unwrap_err();
    assert!(matches!(e, CheckError::UnknownProposition(_)));
    assert!(e.to_string().contains("zz"));
}

#[test]
fn checker_too_large_display() {
    let names: Vec<String> = (0..30).map(|i| format!("p{i}")).collect();
    let m = System::new(Alphabet::new(names));
    let e = Checker::new(&m).unwrap_err();
    assert!(e.to_string().contains("symbolic"));
}

#[test]
fn smv_driver_errors_display() {
    let parse_err = run_source("MODUL main").unwrap_err();
    assert!(matches!(parse_err, DriverError::Parse(_)));
    assert!(parse_err.to_string().contains("parse error"));

    let sem_err = run_source("MODULE main\nVAR x : boolean;\nSPEC unknown_atom").unwrap_err();
    assert!(matches!(sem_err, DriverError::Semantic(_)));
    assert!(sem_err.to_string().contains("unknown"));
}

#[test]
fn smv_line_numbers_in_errors() {
    let e = parse_module("MODULE main\nVAR\n  x : boolean;\n  y : ???;").unwrap_err();
    assert_eq!(e.line, 4);
}

#[test]
fn rule_errors_display() {
    let m = System::new(Alphabet::new(["p", "q"]));
    // Premise failure (no helpful transition).
    let e = rule4(&m, &parse("p").unwrap(), &parse("q").unwrap()).unwrap_err();
    assert!(matches!(e, RuleError::PremiseFailed(_)));
    assert!(e.to_string().contains("premise"));
    // Non-propositional argument.
    let e2 = rule4(&m, &parse("EF p").unwrap(), &parse("q").unwrap()).unwrap_err();
    assert!(e2.to_string().contains("not propositional"));
}

#[test]
fn engine_surfaces_unknown_props() {
    let mut m = System::new(Alphabet::new(["x"]));
    m.add_transition_named(&[], &["x"]);
    let e = Engine::new(vec![Component::new("m", m)]);
    // A proposition no component declares is a typed error that names it,
    // from every entry point. `m` declares none of `ghost -> AX ghost`'s
    // propositions, so this also pins that the frame rule never calls such
    // an obligation valid.
    let names_ghost = |err: EngineError| match err {
        EngineError::Check(msg) => assert!(msg.contains("\"ghost\""), "{msg}"),
        other => panic!("expected a check error naming ghost, got {other:?}"),
    };
    let trivial = Restriction::trivial();
    for f in ["ghost -> AX ghost", "x -> AX (x | ghost)", "ghost -> EX x"] {
        names_ghost(e.prove(&trivial, &parse(f).unwrap()).unwrap_err());
    }
    for inv in ["!ghost", "x | !ghost"] {
        names_ghost(
            e.prove_invariant(&parse(inv).unwrap(), &parse("!x").unwrap(), &[])
                .unwrap_err(),
        );
    }
}

#[test]
fn verdict_witnesses_are_bounded() {
    // A property false in every state: the verdict keeps at most
    // MAX_WITNESSES counterexample seeds.
    let names: Vec<String> = (0..8).map(|i| format!("b{i}")).collect();
    let m = System::new(Alphabet::new(names));
    let c = Checker::new(&m).unwrap();
    let v = c
        .check(&Restriction::trivial(), &parse("FALSE").unwrap())
        .unwrap();
    assert!(!v.holds);
    assert!(v.violating.len() <= compositional_mc::ctl::Verdict::MAX_WITNESSES);
}
