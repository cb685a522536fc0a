//! AFS-1: the Andrew File System cache-coherence protocol 1 (§4.1–§4.2).
//!
//! Contains the paper's SMV sources (Figures 5, 6, 8, 9), drivers
//! reproducing the model-checking outputs (Figures 7 and 10), and the
//! compositional deduction of the system-level properties (Afs1) and
//! (Afs2) from §4.2.3, executed by the `cmc-core` proof engine with the
//! monolithic composition as a cross-check.
//!
//! One notational deviation: where both components use a local variable
//! called `belief`, the composition-facing models rename them `sbelief`
//! (server) and `cbelief` (client) — in the paper this disambiguation is
//! done in prose (`Server.belief` / `Client.belief`). The shared channel
//! `r` keeps its name and its value order, so the two components identify
//! it in composition. A second deviation: the paper's Figure-6 spec Srv3
//! is written without parentheses (`r=null -> AX r=null & …`), which SMV's
//! precedence reads as one nested implication; we write the three
//! conjuncts the surrounding text defines.

use cmc_core::engine::{Certificate, Component, Engine};
use cmc_core::rules::rule4;
use cmc_ctl::{Formula, Restriction};
use cmc_smv::{compile_explicit, parse_module, run_source, ExplicitCompiled, RunOutcome};

/// Figure 5 + Figure 6: the AFS-1 server and its specification.
pub const SERVER_SOURCE: &str = "
-- SMV implementation of the server in the AFS1 (Figure 5)
MODULE main
VAR
  belief : {none, invalid, valid};
  r : {null, fetch, validate, val, inval};
  validFile : boolean;
ASSIGN
  next(validFile) := validFile;
  next(belief) :=
    case
      (belief = none) & (r = fetch) : valid;
      (belief = invalid) & (r = fetch) : valid;
      (belief = none) & (r = validate) & validFile : valid;
      (belief = none) & (r = validate) & !validFile : invalid;
      1 : belief;
    esac;
  next(r) :=
    case
      (belief = none) & (r = fetch) : val;
      (belief = invalid) & (r = fetch) : val;
      (belief = none) & (r = validate) & validFile : val;
      (belief = none) & (r = validate) & !validFile : inval;
      (belief = valid) & (r = fetch) : val;
      1 : r;
    esac;
-- Specification of the server (Figure 6)
-- Srv1
SPEC (belief = valid) -> AX (belief = valid)
-- Srv2
SPEC (r = val -> belief = valid) -> AX (r = val -> belief = valid)
-- Srv3
SPEC (r = null -> AX r = null) & (r = val -> AX r = val) & (r = inval -> AX r = inval)
-- Srv4
SPEC (r = fetch -> AX (r = fetch | r = val)) &
     ((r = validate & belief = none) ->
       AX ((belief = none & r = validate) |
           (belief = valid & r = val) |
           (belief = invalid & r = inval)))
-- Srv5 (left side, model-checked per Rule 4)
SPEC (r = fetch -> EX (r = val)) &
     ((r = validate & belief = none) ->
       EX ((belief = valid & r = val) | (belief = invalid & r = inval)))
";

/// Figure 8 + Figure 9: the AFS-1 client and its specification.
pub const CLIENT_SOURCE: &str = "
-- SMV implementation of the client in the AFS1 (Figure 8)
MODULE main
VAR
  r : {null, fetch, validate, val, inval};
  belief : {valid, suspect, nofile};
ASSIGN
  next(belief) :=
    case
      (belief = nofile) & (r = val) : valid;
      (belief = suspect) & (r = val) : valid;
      (belief = suspect) & (r = inval) : nofile;
      1 : belief;
    esac;
  next(r) :=
    case
      (belief = nofile) & (r = null) : fetch;
      (belief = suspect) & (r = null) : validate;
      (belief = suspect) & (r = inval) : null;
      1 : r;
    esac;
-- Specification of the client (Figure 9)
-- Cli1
SPEC (belief != valid & r != val) -> AX (belief != valid & r != val)
-- Cli2
SPEC r = fetch -> AX r = fetch
SPEC r = validate -> AX r = validate
-- Cli3
SPEC ((belief = nofile & r = null) ->
       AX ((belief = nofile & r = null) | (belief = nofile & r = fetch))) &
     ((belief = nofile & r = fetch) ->
       AX ((belief = nofile & r = fetch) | (belief = nofile & r = val))) &
     ((belief = nofile & r = val) ->
       AX ((belief = nofile & r = val) | (belief = valid & r = val))) &
     ((belief = suspect & r = null) ->
       AX ((belief = suspect & r = null) | (belief = suspect & r = validate))) &
     ((belief = suspect & r = val) ->
       AX ((belief = suspect & r = val) | (belief = valid & r = val))) &
     ((belief = suspect & r = inval) ->
       AX ((belief = suspect & r = inval) | (belief = nofile & r = null)))
-- Cli4 (left side, model-checked per Rule 4)
SPEC ((belief = nofile & r = null) -> EX (belief = nofile & r = fetch)) &
     ((belief = nofile & r = val) -> EX (belief = valid & r = val))
-- Cli5 (left side, model-checked per Rule 4)
SPEC ((belief = suspect & r = null) -> EX (belief = suspect & r = validate)) &
     ((belief = suspect & r = val) -> EX (belief = valid & r = val)) &
     ((belief = suspect & r = inval) -> EX (belief = nofile & r = null))
";

/// The server model with `belief` renamed `sbelief`, for composition.
pub const SERVER_COMPOSED_SOURCE: &str = "
MODULE main
VAR
  sbelief : {none, invalid, valid};
  r : {null, fetch, validate, val, inval};
  validFile : boolean;
ASSIGN
  next(validFile) := validFile;
  next(sbelief) :=
    case
      (sbelief = none) & (r = fetch) : valid;
      (sbelief = invalid) & (r = fetch) : valid;
      (sbelief = none) & (r = validate) & validFile : valid;
      (sbelief = none) & (r = validate) & !validFile : invalid;
      1 : sbelief;
    esac;
  next(r) :=
    case
      (sbelief = none) & (r = fetch) : val;
      (sbelief = invalid) & (r = fetch) : val;
      (sbelief = none) & (r = validate) & validFile : val;
      (sbelief = none) & (r = validate) & !validFile : inval;
      (sbelief = valid) & (r = fetch) : val;
      1 : r;
    esac;
";

/// The client model with `belief` renamed `cbelief`, for composition.
pub const CLIENT_COMPOSED_SOURCE: &str = "
MODULE main
VAR
  r : {null, fetch, validate, val, inval};
  cbelief : {valid, suspect, nofile};
ASSIGN
  next(cbelief) :=
    case
      (cbelief = nofile) & (r = val) : valid;
      (cbelief = suspect) & (r = val) : valid;
      (cbelief = suspect) & (r = inval) : nofile;
      1 : cbelief;
    esac;
  next(r) :=
    case
      (cbelief = nofile) & (r = null) : fetch;
      (cbelief = suspect) & (r = null) : validate;
      (cbelief = suspect) & (r = inval) : null;
      1 : r;
    esac;
";

/// Model-check the AFS-1 server (reproduces Figure 7's output).
pub fn verify_server() -> RunOutcome {
    run_source(SERVER_SOURCE).expect("server source is well-formed")
}

/// Model-check the AFS-1 client (reproduces Figure 10's output).
pub fn verify_client() -> RunOutcome {
    run_source(CLIENT_SOURCE).expect("client source is well-formed")
}

/// A vocabulary over the union alphabet (for building formulas that
/// mention both components' variables).
///
/// Only its atom table is used, so every variable is frozen
/// (`next(v) := v`): the module compiles to its 90 valid states with
/// nothing but their stutter steps. Left unassigned, every variable would
/// be free, and compilation would build a transition between every pair
/// of valid states just to produce the same atom table.
pub fn union_vocabulary() -> ExplicitCompiled {
    let src = "
MODULE main
VAR
  sbelief : {none, invalid, valid};
  r : {null, fetch, validate, val, inval};
  validFile : boolean;
  cbelief : {valid, suspect, nofile};
ASSIGN
  next(sbelief) := sbelief;
  next(r) := r;
  next(validFile) := validFile;
  next(cbelief) := cbelief;
";
    compile_explicit(&parse_module(src).unwrap()).unwrap()
}

/// The explicit server component (renamed variables).
pub fn server_component() -> ExplicitCompiled {
    compile_explicit(&parse_module(SERVER_COMPOSED_SOURCE).unwrap()).unwrap()
}

/// The explicit client component (renamed variables).
pub fn client_component() -> ExplicitCompiled {
    compile_explicit(&parse_module(CLIENT_COMPOSED_SOURCE).unwrap()).unwrap()
}

/// The assume-guarantee engine over `server ∘ client`.
pub fn engine() -> Engine {
    Engine::new(vec![
        Component::new("server", server_component().system),
        Component::new("client", client_component().system),
    ])
}

/// The initial condition `I` of §4.2:
/// `Server.belief = none ∧ (Client.belief = nofile ∨ suspect) ∧ r = null`.
pub fn initial_condition() -> Formula {
    let v = union_vocabulary();
    v.parse_formula("sbelief = none & (cbelief = nofile | cbelief = suspect) & r = null")
        .unwrap()
}

/// The invariant of §4.2.3:
/// `(Client.belief = valid ⇒ Server.belief = valid) ∧
///  (r = val ⇒ Server.belief = valid)`.
pub fn invariant() -> Formula {
    let v = union_vocabulary();
    v.parse_formula("(cbelief = valid -> sbelief = valid) & (r = val -> sbelief = valid)")
        .unwrap()
}

/// The safety property (Afs1):
/// `AG (Client.belief = valid ⇒ Server.belief = valid)` under `(I, {true})`.
pub fn afs1_safety_formula() -> Formula {
    let v = union_vocabulary();
    v.parse_formula("AG (cbelief = valid -> sbelief = valid)")
        .unwrap()
}

/// The liveness property (Afs2): `AF (Client.belief = valid)`.
pub fn afs2_liveness_formula() -> Formula {
    let v = union_vocabulary();
    v.parse_formula("cbelief = valid").unwrap().af()
}

/// §4.2.3, safety: prove (Afs1) compositionally via the invariant rule.
pub fn prove_afs1_safety() -> Certificate {
    let e = engine();
    e.prove_invariant(&invariant(), &initial_condition(), &[])
        .expect("invariant proof runs")
}

/// The progress pairs `(helpful component, p, q)` whose chaining yields
/// (Afs2). Pairs 1, 3, 4, 6, 7 are client steps; 2 and 5 are server steps
/// (the (Srv5) obligations of the paper).
pub fn progress_pairs() -> Vec<(&'static str, String, String)> {
    vec![
        (
            "client",
            "cbelief = nofile & r = null".into(),
            "r = fetch".into(),
        ),
        ("server", "r = fetch".into(), "r = val".into()),
        (
            "client",
            "cbelief = nofile & r = val".into(),
            "cbelief = valid".into(),
        ),
        (
            "client",
            "cbelief = suspect & r = null".into(),
            "r = validate".into(),
        ),
        (
            "server",
            "sbelief = none & r = validate".into(),
            "r = val | r = inval".into(),
        ),
        (
            "client",
            "cbelief = suspect & r = val".into(),
            "cbelief = valid".into(),
        ),
        (
            "client",
            "cbelief = suspect & r = inval".into(),
            "cbelief = nofile & r = null".into(),
        ),
    ]
}

/// The fairness constraints `{¬pᵢ ∨ qᵢ}` that discard infinite stuttering
/// for every progress pair — the `F` of (Afs2)'s restriction.
pub fn liveness_fairness() -> Vec<Formula> {
    let v = union_vocabulary();
    progress_pairs()
        .into_iter()
        .map(|(_, p, q)| v.parse_formula(&format!("!({p}) | ({q})")).unwrap())
        .collect()
}

/// §4.2.3, liveness: apply Rule 4 to each progress pair on its helpful
/// component, discharge the `AX` obligations compositionally, and chain
/// the resulting `A(p U q)` conclusions into (Afs2). The chaining step is
/// cross-checked monolithically (the paper performs it by hand).
pub fn prove_afs2_liveness() -> Certificate {
    let e = engine();
    let server = server_component();
    let client = client_component();
    let mut cert = Certificate::new("system ⊨_(I, F) AF (Client.belief = valid)  [Afs2]");
    for (who, p_text, q_text) in progress_pairs() {
        let comp = if who == "server" { &server } else { &client };
        // Relativise p to the helpful component's domain-validity predicate:
        // §3.4 identifies the state space with the valid boolean encodings.
        let p = comp
            .parse_formula(&p_text)
            .expect("pair formula over component alphabet")
            .and(comp.validity_formula());
        let q = comp
            .parse_formula(&q_text)
            .expect("pair formula over component alphabet");
        match rule4(&comp.system, &p, &q) {
            Ok(g) => {
                let sub = e.discharge(&g).expect("discharge runs");
                cert.steps.push(cmc_core::Step {
                    description: format!(
                        "Rule 4 on {who}: ({p_text}) ⇒ A(({p_text}) U ({q_text})) under fairness"
                    ),
                    ok: sub.valid,
                    compositional: sub.fully_compositional(),
                    backend: None,
                    duration: None,
                });
                cert.valid &= sub.valid;
            }
            Err(err) => {
                cert.steps.push(cmc_core::Step {
                    description: format!("Rule 4 premise failed on {who}: {err}"),
                    ok: false,
                    compositional: true,
                    backend: None,
                    duration: None,
                });
                cert.valid = false;
            }
        }
    }
    // Final chaining (done by hand in the paper): under I and the union of
    // the fairness constraints, the A(p U q) conclusions compose into
    // AF (cbelief = valid). Cross-checked on the monolithic composition.
    let r = Restriction::new(initial_condition(), liveness_fairness());
    let holds = e
        .monolithic_check(&r, &afs2_liveness_formula())
        .expect("monolithic cross-check runs");
    cert.steps.push(cmc_core::Step {
        description: "chained conclusion AF (cbelief = valid) under (I, F)".into(),
        ok: holds,
        compositional: false,
        backend: None,
        duration: None,
    });
    cert.valid &= holds;
    cert
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_ctl::Checker;

    /// E5/E6: every spec of Figures 6 and 9 checks true, as in Figures 7
    /// and 10 of the paper.
    #[test]
    fn figures_7_and_10_all_specs_true() {
        let server = verify_server();
        assert_eq!(server.results.len(), 5, "{:#?}", server.results);
        assert!(server.all_true(), "{}", server.report);
        let client = verify_client();
        assert_eq!(client.results.len(), 6, "{:#?}", client.results);
        assert!(client.all_true(), "{}", client.report);
    }

    /// The reports carry the SMV-style resource trailer.
    #[test]
    fn reports_have_resource_stats() {
        for out in [verify_server(), verify_client()] {
            assert!(out.report.contains("BDD nodes allocated:"));
            assert!(out.report.contains("transition relation:"));
        }
    }

    /// E4 (Figure 4): the server's reachable state graph from the initial
    /// state (none, null) matches the paper's transition diagram.
    #[test]
    fn figure_4_server_state_graph() {
        let server = server_component();
        let v = &server;
        let init = v.parse_formula("sbelief = none & r = null").unwrap();
        let checker = Checker::new(&server.system).unwrap();
        let init_states: Vec<_> = checker.sat(&init).unwrap().iter().collect();
        // validFile free: two initial bit-states.
        assert_eq!(init_states.len(), 2);
        let reachable = server.system.reachable(init_states);
        // Figure 4 server graph: (none,null) -> {(none,fetch) -> (valid,val),
        // (none,validate) -> (valid,val) | (invalid,inval),
        // (invalid,inval) -> (invalid,fetch)?..} — requests appear via the
        // client, which is absent here, so only stutter applies: the server
        // alone never leaves (none, null).
        assert_eq!(reachable.len(), 2);
    }

    /// E4 (Figure 4): in the composed system, the protocol run of Figure 4
    /// exists: (nofile, null) –fetch→ served –val→ client valid.
    #[test]
    fn figure_4_composed_run_exists() {
        let e = engine();
        let composed = e.composed();
        let v = union_vocabulary();
        let checker = Checker::new(&composed).unwrap();
        let start = v
            .parse_formula("sbelief = none & cbelief = nofile & r = null")
            .unwrap();
        let goal = v.parse_formula("cbelief = valid & r = val").unwrap();
        // EF goal from every start state.
        let ef = checker.sat(&goal.ef()).unwrap();
        for s in checker.sat(&start).unwrap().iter() {
            assert!(ef.contains(s), "no run to (valid, val) from a start state");
        }
    }

    /// E7: the compositional safety proof of (Afs1) succeeds and is fully
    /// component-local.
    #[test]
    fn afs1_safety_compositional() {
        let cert = prove_afs1_safety();
        assert!(cert.valid, "{cert}");
        assert!(cert.fully_compositional(), "{cert}");
    }

    /// E7 cross-check: (Afs1) also holds monolithically, and the invariant
    /// indeed implies it.
    #[test]
    fn afs1_safety_monolithic_crosscheck() {
        let e = engine();
        let r = Restriction::with_init(initial_condition());
        assert!(e.monolithic_check(&r, &afs1_safety_formula()).unwrap());
    }

    /// E7: the liveness proof (Afs2) — Rule 4 chain plus monolithic
    /// chaining step.
    #[test]
    fn afs2_liveness_proof() {
        let cert = prove_afs2_liveness();
        assert!(cert.valid, "{cert}");
        // All Rule-4 steps must be compositional; only the final chaining
        // is whole-system.
        let non_comp: Vec<_> = cert.steps.iter().filter(|s| !s.compositional).collect();
        assert_eq!(non_comp.len(), 1, "{cert}");
    }

    /// Liveness genuinely needs the fairness constraints: without them the
    /// composed system can stutter forever.
    #[test]
    fn afs2_liveness_fails_without_fairness() {
        let e = engine();
        let r = Restriction::with_init(initial_condition());
        assert!(!e.monolithic_check(&r, &afs2_liveness_formula()).unwrap());
    }

    /// The safety invariant is genuinely necessary: a *wrong* invariant
    /// (server always valid) is rejected by the engine.
    #[test]
    fn wrong_invariant_rejected() {
        let e = engine();
        let v = union_vocabulary();
        let bad = v.parse_formula("sbelief = valid").unwrap();
        let cert = e.prove_invariant(&bad, &initial_condition(), &[]).unwrap();
        assert!(!cert.valid);
    }

    /// §3.3 applied to the paper's own specs: Srv1–Srv4 and Cli1–Cli3 are
    /// universal (Rule 2 shapes, conjunctions thereof); Srv5, Cli4, Cli5
    /// are existential (Rule 3 shapes).
    #[test]
    fn classification_of_paper_specs() {
        use cmc_core::{classify, PropertyClass};
        use cmc_ctl::Restriction;
        let server = server_component();
        let client = client_component();
        let r = Restriction::trivial();
        let universal_server = [
            "sbelief = valid -> AX sbelief = valid", // Srv1
            "(r = val -> sbelief = valid) -> AX (r = val -> sbelief = valid)", // Srv2
            "(r = null -> AX r = null) & (r = val -> AX r = val) & (r = inval -> AX r = inval)", // Srv3
        ];
        for text in universal_server {
            let f = server.parse_formula(text).unwrap();
            let c = classify(&f, &r).unwrap_or_else(|| panic!("{text} unclassified"));
            assert_eq!(c.class, PropertyClass::Universal, "{text}");
        }
        let existential_client = [
            "((cbelief = nofile & r = null) -> EX (cbelief = nofile & r = fetch)) & \
             ((cbelief = nofile & r = val) -> EX (cbelief = valid & r = val))", // Cli4 lhs
            "(cbelief = suspect & r = null) -> EX (cbelief = suspect & r = validate)", // Cli5 part
        ];
        for text in existential_client {
            let f = client.parse_formula(text).unwrap();
            let c = classify(&f, &r).unwrap_or_else(|| panic!("{text} unclassified"));
            assert_eq!(c.class, PropertyClass::Existential, "{text}");
        }
        // The system-level (Afs1) safety property is NOT directly
        // classifiable — that is exactly why the paper routes it through
        // the invariant rule.
        assert_eq!(classify(&afs1_safety_formula(), &r), None);
    }

    /// Lemma 1 on the case study: server ∘ client ≡ client ∘ server.
    #[test]
    fn composition_commutes_on_afs1() {
        let s = server_component().system;
        let c = client_component().system;
        assert!(cmc_kripke::lemmas::lemma1_commutative(&s, &c));
    }
}
