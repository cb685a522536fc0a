//! Integration tests for the paper's worked figures:
//! Figure 1 (composition example), Figure 2 (progress under strong
//! fairness), Figure 3 (boolean encoding of an integer-valued system),
//! and the state-transition graphs of Figure 4.

use compositional_mc::core::rules::rule5;
use compositional_mc::ctl::{parse, Checker, Formula, Restriction};
use compositional_mc::kripke::{Alphabet, State, System};
use compositional_mc::smv::{compile, compile_explicit, parse_module};

/// E1 — Figure 1: `M` toggles `x`, `M'` toggles `y`; their composition has
/// exactly the 12 distinct pairs listed in the figure.
#[test]
fn figure1_composition_is_exact() {
    let mut m = System::new(Alphabet::new(["x"]));
    m.add_transition_named(&[], &["x"]);
    m.add_transition_named(&["x"], &[]);
    let mut mp = System::new(Alphabet::new(["y"]));
    mp.add_transition_named(&[], &["y"]);
    mp.add_transition_named(&["y"], &[]);

    let c = m.compose(&mp);
    let al = c.alphabet().clone();
    let st = |names: &[&str]| State::from_names(&al, names);

    // R* from Figure 1, de-duplicated (the paper lists ({x},{x}) twice and
    // the reflexive pairs explicitly).
    let expected_proper = [
        (st(&[]), st(&["x"])),
        (st(&["y"]), st(&["x", "y"])),
        (st(&["x"]), st(&[])),
        (st(&["x", "y"]), st(&["y"])),
        (st(&[]), st(&["y"])),
        (st(&["x"]), st(&["x", "y"])),
        (st(&["y"]), st(&[])),
        (st(&["x", "y"]), st(&["x"])),
    ];
    assert_eq!(c.proper_transition_count(), expected_proper.len());
    for (s, t) in expected_proper {
        assert!(c.has_transition(s, t));
    }
    // Reflexive pairs for all four states.
    for s in c.states() {
        assert!(c.has_transition(s, s));
    }
    assert_eq!(c.transition_count(), 12);
}

/// E1 — in the composed system of Figure 1, each component's next-step
/// properties survive composition per Rules 2 and 3.
#[test]
fn figure1_rules_transfer() {
    let mut m = System::new(Alphabet::new(["x"]));
    m.add_transition_named(&[], &["x"]);
    m.add_transition_named(&["x"], &[]);
    let mut mp = System::new(Alphabet::new(["y"]));
    mp.add_transition_named(&[], &["y"]);
    mp.add_transition_named(&["y"], &[]);
    let c = m.compose(&mp);
    let checker = Checker::new(&c).unwrap();
    // Existential (Rule 3): M ⊨ !x ⇒ EX x transfers.
    assert!(checker
        .holds_everywhere(&parse("!x -> EX x").unwrap())
        .unwrap());
    // And the dual on y.
    assert!(checker
        .holds_everywhere(&parse("y -> EX !y").unwrap())
        .unwrap());
}

/// E2 — Figure 2: six `p`-states in a cycle over `{a, b, c}`, with the
/// helpful move to `q` enabled only at `p₆`. Rule 5 applies with helpful
/// disjunct `p₆`, and every obligation and conclusion of its guarantee
/// holds on the system.
#[test]
fn figure2_rule5_guarantee_holds() {
    let mut m = System::new(Alphabet::new(["a", "b", "c"]));
    let cycle: [&[&str]; 6] = [&[], &["a"], &["b"], &["a", "b"], &["c"], &["a", "c"]];
    for w in 0..6 {
        m.add_transition_named(cycle[w], cycle[(w + 1) % 6]);
    }
    m.add_transition_named(&["a", "c"], &["b", "c"]);
    let ps: Vec<Formula> = [
        "!a & !b & !c",
        "a & !b & !c",
        "!a & b & !c",
        "a & b & !c",
        "!a & !b & c",
        "a & !b & c",
    ]
    .iter()
    .map(|t| parse(t).unwrap())
    .collect();
    let q = parse("!a & b & c").unwrap();
    let g = rule5(&m, &ps, 5, &q).unwrap();
    let checker = Checker::new(&m).unwrap();
    for (f, r) in g.lhs.iter().chain(&g.rhs) {
        assert!(checker.check(r, f).unwrap().holds, "{f} under {r}");
    }
}

/// E3 — Figure 3: a variable `x : 0..3` is modelled with two booleans
/// `x#0` (low bit) and `x#1` (high bit); the formula `x < 2` maps to
/// `¬x₁` exactly as the paper's mapping prescribes, and the encoded system
/// preserves the original transitions.
#[test]
fn figure3_boolean_encoding() {
    // The counter of Figure 3: x cycles 0 -> 1 -> 2 -> 3 -> 0.
    let src = "MODULE main\nVAR x : 0..3;\n\
               ASSIGN next(x) := case x = 0 : 1; x = 1 : 2; x = 2 : 3; 1 : 0; esac;";
    let module = parse_module(src).unwrap();

    // Symbolic side: x<2 == x=0 ∨ x=1 == ¬(high bit).
    let mut sym = compile(&module).unwrap();
    let x0 = sym.model.prop("x=0").unwrap();
    let x1 = sym.model.prop("x=1").unwrap();
    let lt2 = sym.model.mgr().or(x0, x1);
    let hi = sym.model.state_var("x#1").unwrap().clone();
    let not_hi = sym.model.mgr().nvar(hi.cur);
    assert_eq!(lt2, not_hi, "Figure 3 mapping (x<2) = !x1 must hold");

    // Explicit side: transitions of the encoded system match the original
    // integer system 0->1->2->3->0.
    let exp = compile_explicit(&module).unwrap();
    assert_eq!(exp.system.proper_transition_count(), 4);
    for v in 0u128..4 {
        let next = (v + 1) % 4;
        assert!(exp.system.has_transition(State(v), State(next)));
    }

    // Both engines agree on a sample property: AG (x=3 -> EX x=0).
    let f_text = "AG (x = 3 -> EX x = 0)";
    let module2 = parse_module(&format!("{src}\nSPEC {f_text}")).unwrap();
    let mut sym2 = compile(&module2).unwrap();
    let spec = sym2.specs[0].1.clone();
    let sym_holds = sym2
        .model
        .check(&Restriction::trivial(), &spec)
        .unwrap()
        .holds;
    let exp2 = compile_explicit(&module2).unwrap();
    assert_eq!(sym_holds, exp2.check_spec(0).unwrap());
    assert!(sym_holds);
}

/// E4 — Figure 4: the AFS-1 protocol's run structure. The composed system
/// realises both protocol branches of the figure (fetch and validate).
#[test]
fn figure4_afs1_runs() {
    use compositional_mc::afs::afs1;
    let engine = afs1::engine();
    let composed = engine.composed();
    let vocab = afs1::union_vocabulary();
    let checker = Checker::new(&composed).unwrap();

    // Fetch branch: (nofile, null) -> fetch -> (valid at server, val) ->
    // client valid.
    let fetch_run = vocab
        .parse_formula(
            "sbelief = none & cbelief = nofile & r = null -> \
             EX (r = fetch & EX (sbelief = valid & r = val & EX (cbelief = valid)))",
        )
        .unwrap();
    assert!(checker.holds_everywhere(&fetch_run).unwrap());

    // Validate branch with an invalid copy: the client discards and
    // eventually refetches.
    let validate_run = vocab
        .parse_formula(
            "sbelief = none & cbelief = suspect & r = null & !validFile -> \
             EF (cbelief = nofile & r = null & sbelief = invalid)",
        )
        .unwrap();
    assert!(checker.holds_everywhere(&validate_run).unwrap());
}
