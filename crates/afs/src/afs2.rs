//! AFS-2: the callback-based Andrew File System protocol 2 (§4.3).
//!
//! AFS-2 extends AFS-1 with updates, failures and transmission delay. The
//! paper models one server with `n` clients communicating through shared
//! `request_i` / `response_i` variables, with a per-client `time_i` flag
//! bounding the transmission delay of invalidation messages.
//!
//! This module provides:
//!
//! * the paper-exact single-client component models and specs (Figures
//!   12–14, 16) with drivers reproducing the check outputs (Figures 15,
//!   17),
//! * a generator for the full `n`-client system as an interleaving
//!   composition of SMV modules (server + `n` clients),
//! * the §4.3.4 invariant proof, both compositionally (per-component
//!   symbolic expansion checks) and monolithically (symbolic composition),
//! * the material for the Discussion's scaling claim: compositional cost
//!   is linear in `n`, monolithic cost grows with the product state space.
//!
//! Two documented deviations from the figures: (a) in each component model
//! the *foreign* shared variables are frozen (`next(x) := x`) rather than
//! left unconstrained — this matches the theory's expansion semantics
//! `M ∘ (Σ', I)` in which a component's moves never change environment
//! variables, and is required for Figure 16's (Cli1) to hold at all; (b)
//! the per-client `update` signal seen by the server is the disjunction of
//! the *other* clients' `request_j = update`, which Figure 12 shows for
//! the 2-client instance as the literal `request2 = update`.

use cmc_ctl::{parse, Formula, Restriction};
use cmc_smv::{
    compile_composition, compile_expansion, parse_module, run_source, union_variables,
    CompiledModel, Module, RunOutcome, SemError,
};

/// Figure 12 + Figure 14: the AFS-2 server (one client shown, a second
/// client's `request2` as the update source), paper-exact component model.
pub const SERVER1_SOURCE: &str = "
-- SMV implementation of the Server of the AFS-2 (Figure 12)
MODULE main
VAR
  validFile1 : boolean;
  belief1 : {nocall, valid};
  response1 : {null, val, inval};
  time1 : boolean;
  failure : boolean;
  request1 : {null, fetch, validate, update};
  request2 : {null, fetch, validate, update};
ASSIGN
  next(validFile1) := validFile1;
  next(belief1) :=
    case
      failure : nocall;
      (belief1 = nocall) & (request1 = fetch) : valid;
      (belief1 = nocall) & (request1 = validate) & validFile1 : valid;
      (belief1 = nocall) & (request1 = validate) & !validFile1 : nocall;
      (belief1 = valid) & (request2 = update) : nocall;
      1 : belief1;
    esac;
  next(response1) :=
    case
      failure : null;
      (belief1 = nocall) & (request1 = fetch) : val;
      (belief1 = nocall) & (request1 = validate) & validFile1 : val;
      (belief1 = nocall) & (request1 = validate) & !validFile1 : inval;
      (belief1 = valid) & (request2 = update) : inval;
      1 : response1;
    esac;
  next(time1) :=
    case
      failure : 0;
      (belief1 = nocall) & (request1 = validate) & !validFile1 : 0;
      (belief1 = valid) & (request2 = update) : 0;
      1 : time1;
    esac;
-- Specification of the Server of the AFS-2 (Figure 14)
-- Srv1
SPEC (belief1 = valid | !time1) -> AX (belief1 = valid | !time1)
-- Srv2
SPEC (response1 = val -> belief1 = valid) -> AX (response1 = val -> belief1 = valid)
";

/// Figure 13 + Figure 16: the AFS-2 client, paper-exact component model
/// (with the foreign `response` frozen — see the module docs).
pub const CLIENT1_SOURCE: &str = "
-- SMV implementation of the Client of the AFS-2 (Figure 13)
MODULE main
VAR
  time : boolean;
  request : {null, fetch, validate, update};
  belief : {valid, suspect, nofile};
  response : {null, val, inval};
  failure : boolean;
ASSIGN
  next(belief) :=
    case
      (belief = nofile) & (response = val) : valid;
      (belief = suspect) & (response = val) : valid;
      (belief = suspect) & (response = inval) : nofile;
      (belief = valid) & failure : suspect;
      (belief = valid) & (response = inval) : nofile;
      1 : belief;
    esac;
  next(request) :=
    case
      (belief = nofile) & (response = null) : {fetch, null};
      (belief = suspect) & (response = null) : {validate, null};
      (belief = valid) & failure : null;
      (belief = valid) & (response = inval) : null;
      (belief = valid) & (response != inval) : update;
      1 : request;
    esac;
  next(time) :=
    case
      (belief = nofile) & (response = val) : 1;
      (belief = suspect) & (response = val) : 1;
      (belief = suspect) & (response = inval) : 1;
      (belief = valid) & failure : 1;
      (belief = valid) & (response = inval) : 1;
      1 : time;
    esac;
  next(response) := response;
-- Specification of the Client of the AFS-2 (Figure 16)
-- Cli1
SPEC ((belief = valid -> !time) & response != val) ->
     AX ((belief = valid -> !time) & response != val)
";

/// Model-check the AFS-2 server component (reproduces Figure 15's output).
pub fn verify_server() -> RunOutcome {
    run_source(SERVER1_SOURCE).expect("server source is well-formed")
}

/// Model-check the AFS-2 client component (reproduces Figure 17's output).
pub fn verify_client() -> RunOutcome {
    run_source(CLIENT1_SOURCE).expect("client source is well-formed")
}

/// Generate the composition-facing server module for `n` clients.
pub fn server_module(n: usize) -> Module {
    assert!(n >= 1);
    let mut vars = String::from("  failure : boolean;\n");
    let mut assigns = String::new();
    let mut defines = String::new();
    for i in 1..=n {
        vars.push_str(&format!(
            "  validFile{i} : boolean;\n  sbelief{i} : {{nocall, valid}};\n  \
             response{i} : {{null, val, inval}};\n  time{i} : boolean;\n  \
             request{i} : {{null, fetch, validate, update}};\n"
        ));
        let update_other: Vec<String> = (1..=n)
            .filter(|&j| j != i)
            .map(|j| format!("request{j} = update"))
            .collect();
        let update_other = if update_other.is_empty() {
            "0".to_string()
        } else {
            update_other.join(" | ")
        };
        defines.push_str(&format!("  updateOther{i} := {update_other};\n"));
        assigns.push_str(&format!(
            "  next(validFile{i}) := validFile{i};\n\
             \x20 next(sbelief{i}) :=\n    case\n      failure : nocall;\n      \
             (sbelief{i} = nocall) & (request{i} = fetch) : valid;\n      \
             (sbelief{i} = nocall) & (request{i} = validate) & validFile{i} : valid;\n      \
             (sbelief{i} = nocall) & (request{i} = validate) & !validFile{i} : nocall;\n      \
             (sbelief{i} = valid) & updateOther{i} : nocall;\n      \
             1 : sbelief{i};\n    esac;\n\
             \x20 next(response{i}) :=\n    case\n      failure : null;\n      \
             (sbelief{i} = nocall) & (request{i} = fetch) : val;\n      \
             (sbelief{i} = nocall) & (request{i} = validate) & validFile{i} : val;\n      \
             (sbelief{i} = nocall) & (request{i} = validate) & !validFile{i} : inval;\n      \
             (sbelief{i} = valid) & updateOther{i} : inval;\n      \
             1 : response{i};\n    esac;\n\
             \x20 next(time{i}) :=\n    case\n      failure : 0;\n      \
             (sbelief{i} = nocall) & (request{i} = validate) & !validFile{i} : 0;\n      \
             (sbelief{i} = valid) & updateOther{i} : 0;\n      \
             1 : time{i};\n    esac;\n\
             \x20 next(request{i}) := request{i};\n"
        ));
    }
    let src = format!("MODULE main\nVAR\n{vars}DEFINE\n{defines}ASSIGN\n{assigns}");
    parse_module(&src).expect("generated server module parses")
}

/// Generate the composition-facing module for client `i`.
pub fn client_module(i: usize) -> Module {
    let src = format!(
        "MODULE main\nVAR\n  failure : boolean;\n  time{i} : boolean;\n  \
         request{i} : {{null, fetch, validate, update}};\n  \
         cbelief{i} : {{valid, suspect, nofile}};\n  \
         response{i} : {{null, val, inval}};\n\
         ASSIGN\n\
         \x20 next(cbelief{i}) :=\n    case\n      \
         (cbelief{i} = nofile) & (response{i} = val) : valid;\n      \
         (cbelief{i} = suspect) & (response{i} = val) : valid;\n      \
         (cbelief{i} = suspect) & (response{i} = inval) : nofile;\n      \
         (cbelief{i} = valid) & failure : suspect;\n      \
         (cbelief{i} = valid) & (response{i} = inval) : nofile;\n      \
         1 : cbelief{i};\n    esac;\n\
         \x20 next(request{i}) :=\n    case\n      \
         (cbelief{i} = nofile) & (response{i} = null) : {{fetch, null}};\n      \
         (cbelief{i} = suspect) & (response{i} = null) : {{validate, null}};\n      \
         (cbelief{i} = valid) & failure : null;\n      \
         (cbelief{i} = valid) & (response{i} = inval) : null;\n      \
         (cbelief{i} = valid) & (response{i} != inval) : update;\n      \
         1 : request{i};\n    esac;\n\
         \x20 next(time{i}) :=\n    case\n      \
         (cbelief{i} = nofile) & (response{i} = val) : 1;\n      \
         (cbelief{i} = suspect) & (response{i} = val) : 1;\n      \
         (cbelief{i} = suspect) & (response{i} = inval) : 1;\n      \
         (cbelief{i} = valid) & failure : 1;\n      \
         (cbelief{i} = valid) & (response{i} = inval) : 1;\n      \
         1 : time{i};\n    esac;\n\
         \x20 next(response{i}) := response{i};\n"
    );
    parse_module(&src).expect("generated client module parses")
}

/// All `n + 1` component modules of the `n`-client system.
pub fn modules(n: usize) -> Vec<Module> {
    let mut out = vec![server_module(n)];
    for i in 1..=n {
        out.push(client_module(i));
    }
    out
}

/// The invariant `Inv` of §4.3.1, for all clients `i`:
///
/// ```text
/// (cbelief_i = valid ⇒ (sbelief_i = valid ∨ ¬time_i)) ∧
/// (response_i = val ⇒ sbelief_i = valid)
/// ```
pub fn invariant_formula(n: usize) -> Formula {
    Formula::and_many((1..=n).map(|i| {
        parse(&format!(
            "(cbelief{i} = valid -> (sbelief{i} = valid | !time{i})) & \
             (response{i} = val -> sbelief{i} = valid)"
        ))
        .unwrap()
    }))
}

/// The per-client safety property (Afs1) of §4.3.1 (implied by `Inv`).
pub fn afs1_formula(i: usize) -> Formula {
    parse(&format!(
        "AG (cbelief{i} = valid -> (sbelief{i} = valid | !time{i}))"
    ))
    .unwrap()
}

/// The initial condition `I` of §4.3.1, for all clients `i`.
pub fn initial_condition(n: usize) -> Formula {
    Formula::and_many((1..=n).map(|i| {
        parse(&format!(
            "(cbelief{i} = nofile | cbelief{i} = suspect) & request{i} = null & \
             sbelief{i} = nocall & response{i} = null"
        ))
        .unwrap()
    }))
}

/// Compile the full `n`-client system symbolically (the monolithic model).
pub fn compile_system(n: usize) -> CompiledModel {
    compile_composition(&modules(n)).expect("generated modules compose")
}

/// Per-step result of the compositional invariant proof.
#[derive(Debug, Clone)]
pub struct InvariantProof {
    /// `(component name, Inv ⇒ AX Inv holds on its expansion)`.
    pub component_checks: Vec<(String, bool)>,
    /// `I ⇒ Inv` validity.
    pub init_implies_inv: bool,
}

impl InvariantProof {
    /// Did the whole proof succeed?
    pub fn valid(&self) -> bool {
        self.init_implies_inv && self.component_checks.iter().all(|(_, ok)| *ok)
    }
}

/// §4.3.4 compositionally: check `Inv ⇒ AX Inv` on every component's
/// symbolic expansion (a universal property by Rule 2) and `I ⇒ Inv`.
/// Cost is linear in `n` — each check touches one component's transition
/// relation only.
pub fn prove_invariant_compositional(n: usize) -> Result<InvariantProof, SemError> {
    let mods = modules(n);
    let union = union_variables(&mods)?;
    let inv = invariant_formula(n);
    let obligation = inv.clone().implies(inv.clone().ax());
    let mut component_checks = Vec::new();
    for (k, m) in mods.iter().enumerate() {
        let mut expansion = compile_expansion(&union, m)?;
        let ok = expansion
            .model
            .holds_everywhere(&obligation)
            .map_err(|e| SemError(e.to_string()))?;
        let name = if k == 0 {
            "server".to_string()
        } else {
            format!("client{k}")
        };
        component_checks.push((name, ok));
    }
    // I ⇒ Inv, decided on any expansion's BDD vocabulary.
    let mut vocab = compile_expansion(&union, &mods[0])?;
    let init_bdd = vocab
        .model
        .prop_to_bdd(&initial_condition(n))
        .map_err(|e| SemError(e.to_string()))?;
    let inv_bdd = vocab
        .model
        .prop_to_bdd(&inv)
        .map_err(|e| SemError(e.to_string()))?;
    let init_implies_inv = vocab.model.mgr().implies_trivially(init_bdd, inv_bdd);
    Ok(InvariantProof {
        component_checks,
        init_implies_inv,
    })
}

/// §4.3.4 monolithically: build the full composition and check
/// `AG Inv` under `(I, {true})` directly. Cost grows with the product
/// state space — the Discussion's exponential baseline.
pub fn prove_invariant_monolithic(n: usize) -> Result<bool, SemError> {
    let mut system = compile_system(n);
    let r = Restriction::with_init(initial_condition(n));
    let inv = invariant_formula(n);
    let v = system
        .model
        .check(&r, &inv.ag())
        .map_err(|e| SemError(e.to_string()))?;
    Ok(v.holds)
}

/// Check the per-client (Afs1) property monolithically.
pub fn check_afs1_monolithic(n: usize, i: usize) -> Result<bool, SemError> {
    let mut system = compile_system(n);
    let r = Restriction::with_init(initial_condition(n));
    let v = system
        .model
        .check(&r, &afs1_formula(i))
        .map_err(|e| SemError(e.to_string()))?;
    Ok(v.holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E9 (Figure 15): both server specs check true.
    #[test]
    fn figure_15_server_specs_true() {
        let out = verify_server();
        assert_eq!(out.results.len(), 2);
        assert!(out.all_true(), "{}", out.report);
        assert!(out.report.contains("BDD nodes allocated:"));
    }

    /// E10 (Figure 17): the client spec checks true.
    #[test]
    fn figure_17_client_spec_true() {
        let out = verify_client();
        assert_eq!(out.results.len(), 1);
        assert!(out.all_true(), "{}", out.report);
    }

    /// E11: the compositional invariant proof succeeds for n = 1..=12.
    #[test]
    fn invariant_compositional_up_to_12_clients() {
        for n in 1..=12 {
            let proof = prove_invariant_compositional(n).unwrap();
            assert!(proof.valid(), "n={n}: {proof:?}");
            assert_eq!(proof.component_checks.len(), n + 1);
        }
    }

    /// E11 cross-check: the monolithic check agrees for small n.
    #[test]
    fn invariant_monolithic_crosscheck() {
        for n in 1..=2 {
            assert!(prove_invariant_monolithic(n).unwrap(), "n={n}");
        }
    }

    /// (Afs1) for each client follows.
    #[test]
    fn afs1_per_client_holds() {
        assert!(check_afs1_monolithic(1, 1).unwrap());
        assert!(check_afs1_monolithic(2, 1).unwrap());
        assert!(check_afs1_monolithic(2, 2).unwrap());
    }

    /// The invariant genuinely depends on the `time_i` bound: the naive
    /// AFS-1 invariant (client valid ⇒ server valid) is FALSE in AFS-2
    /// because of transmission delay — exactly the point of §4.3.
    #[test]
    fn afs1_style_invariant_fails_in_afs2() {
        let n = 2;
        let mut system = compile_system(n);
        let r = Restriction::with_init(initial_condition(n));
        let naive = parse("AG (cbelief1 = valid -> sbelief1 = valid)").unwrap();
        let v = system.model.check(&r, &naive).unwrap();
        assert!(
            !v.holds,
            "transmission delay must break the naive invariant"
        );
    }

    /// The update path is live: with two clients, client 2's update can
    /// invalidate client 1's callback (EF reachable).
    #[test]
    fn update_invalidates_other_client() {
        let n = 2;
        let mut system = compile_system(n);
        let r = Restriction::with_init(initial_condition(n));
        let f = parse("EF (cbelief1 = valid & sbelief1 = nocall & response1 = inval)").unwrap();
        // From every initial state there is a run where client 1 holds a
        // valid copy while the server has already invalidated it (the
        // transmission-delay window).
        let v = system.model.check(&r, &f).unwrap();
        assert!(v.holds);
    }

    /// Component counts and alphabets scale linearly with n.
    #[test]
    fn generated_modules_shape() {
        let mods = modules(3);
        assert_eq!(mods.len(), 4);
        // Server declares 5 variables per client + failure.
        assert_eq!(mods[0].vars.len(), 3 * 5 + 1);
        // Each client declares its 4 variables + failure + shared pair.
        assert_eq!(mods[1].vars.len(), 5);
        let union = union_variables(&mods).unwrap();
        // Union: failure + per client (validFile, sbelief, response, time,
        // request, cbelief) = 1 + 6n.
        assert_eq!(union.len(), 1 + 6 * 3);
    }

    /// Each client's `cbelief_i` joins its shared variables: the union
    /// layout is `failure` then one `[validFile sbelief response time
    /// request cbelief]` block per client.
    #[test]
    fn union_layout_keeps_client_blocks_together() {
        for n in 1..=4 {
            let names: Vec<String> = union_variables(&modules(n))
                .unwrap()
                .into_iter()
                .map(|(name, _)| name)
                .collect();
            let mut expected = vec!["failure".to_string()];
            for i in 1..=n {
                for v in [
                    "validFile",
                    "sbelief",
                    "response",
                    "time",
                    "request",
                    "cbelief",
                ] {
                    expected.push(format!("{v}{i}"));
                }
            }
            assert_eq!(names, expected, "n={n}");
        }
    }

    /// `Inv`'s conjunct `i` only couples client `i`'s block, so with the
    /// blocks kept together its BDD is linear: exactly `6n` nodes on the
    /// server's expansion.
    #[test]
    fn invariant_bdd_is_linear_in_clients() {
        for n in 1..=12 {
            let mods = modules(n);
            let union = union_variables(&mods).unwrap();
            let mut server = compile_expansion(&union, &mods[0]).unwrap();
            let inv = server.model.prop_to_bdd(&invariant_formula(n)).unwrap();
            assert_eq!(server.model.mgr_ref().node_count(inv), 6 * n, "n={n}");
        }
    }

    /// Explicit cross-validation for n = 1: the kripke composition of the
    /// explicitly compiled components satisfies AG Inv too.
    #[test]
    fn explicit_crosscheck_n1() {
        use cmc_smv::compile_explicit;
        let mods = modules(1);
        let server = compile_explicit(&mods[0]).unwrap();
        let client = compile_explicit(&mods[1]).unwrap();
        let composed = server.system.compose(&client.system);
        let checker = cmc_ctl::Checker::new(&composed).unwrap();
        // Build bit-level formulas from the union vocabulary.
        let vocab_src = "MODULE main\nVAR\n  failure : boolean;\n  validFile1 : boolean;\n  \
                         sbelief1 : {nocall, valid};\n  response1 : {null, val, inval};\n  \
                         time1 : boolean;\n  request1 : {null, fetch, validate, update};\n  \
                         cbelief1 : {valid, suspect, nofile};\n";
        let vocab = compile_explicit(&parse_module(vocab_src).unwrap()).unwrap();
        let inv = vocab
            .parse_formula(
                "(cbelief1 = valid -> (sbelief1 = valid | !time1)) & \
                 (response1 = val -> sbelief1 = valid)",
            )
            .unwrap();
        let init = vocab
            .parse_formula(
                "(cbelief1 = nofile | cbelief1 = suspect) & request1 = null & \
                 sbelief1 = nocall & response1 = null",
            )
            .unwrap();
        // Embed the union-vocabulary formulas: the composed alphabet may
        // order bits differently, so re-map by name.
        let composed_al = composed.alphabet();
        let remap = |f: &Formula| -> Formula { remap_formula(f, composed_al) };
        let r = Restriction::with_init(remap(&init));
        let sat = checker.sat_fair(&remap(&inv).ag(), &r.fairness).unwrap();
        let init_set = checker.sat(&r.init).unwrap();
        for s in init_set.iter() {
            assert!(sat.contains(s), "explicit composition violates AG Inv");
        }
    }

    /// Identity remap: bit names are shared strings, so formulas transfer
    /// unchanged as long as every atom exists in the target alphabet.
    fn remap_formula(f: &Formula, target: &cmc_kripke::Alphabet) -> Formula {
        for ap in f.atomic_props() {
            assert!(
                target.contains(&ap),
                "missing bit {ap} in composed alphabet"
            );
        }
        f.clone()
    }
}
