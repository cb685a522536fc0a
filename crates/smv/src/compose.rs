//! Symbolic compilation of an **interleaving composition** of modules.
//!
//! The paper composes its SMV components with the interleaving operator `∘`
//! of §3.1: at any time at most one component moves, and a moving component
//! leaves every foreign variable unchanged. [`compile_composition`] builds
//! one [`cmc_symbolic::SymbolicModel`] for the whole system with **one
//! disjunctive transition partition per component** — each partition is the
//! component's own synchronous step conjoined with the frame condition over
//! all variables the component does not declare. The implicit stutter
//! partition supplies the reflexivity the paper's theory assumes.
//!
//! Shared variables (declared in several modules with the same type, like
//! the `r` channel between the AFS-1 server and client) are identified by
//! name; conflicting types are an error.

use crate::ast::{Module, Type};
use crate::check::{check_module, SemError};
use crate::compile::{compile_parts, CompiledModel};

/// Compile modules into one symbolic model of their interleaving
/// composition `M₁ ∘ M₂ ∘ …`. Specs, fairness and initial conditions of
/// all modules are collected.
pub fn compile_composition(modules: &[Module]) -> Result<CompiledModel, SemError> {
    if modules.is_empty() {
        return Err(SemError("composition of zero modules".into()));
    }
    for m in modules {
        check_module(m)?;
    }
    let union = union_variables(modules)?;
    compile_parts(&union, modules)
}

/// The union variable layout `Σ*` of a set of modules, which is also the
/// BDD variable order. Each module's variables stay together: a variable
/// not yet in the layout goes right after the variable its module
/// declared just before it, and is appended when it is the module's
/// first. Modules that share nothing are therefore laid out one after
/// another, while a module that adds a variable to shared ones (an AFS-2
/// client's `cbelief_i` next to the server's `request_i`) places it
/// beside them. A shared name must have the same type everywhere.
pub fn union_variables(modules: &[Module]) -> Result<Vec<(String, Type)>, SemError> {
    let mut union: Vec<(String, Type)> = Vec::new();
    for m in modules {
        // Layout position of the module's previously declared variable.
        let mut prev_at: Option<usize> = None;
        for (name, ty) in &m.vars {
            let at = match union.iter().position(|(n, _)| n == name) {
                None => {
                    let at = prev_at.map_or(union.len(), |p| p + 1);
                    union.insert(at, (name.clone(), ty.clone()));
                    at
                }
                Some(at) if union[at].1 == *ty => at,
                Some(at) => {
                    return Err(SemError(format!(
                        "shared variable {name:?} declared with type {ty} in one \
                         module and {} in another",
                        union[at].1
                    )))
                }
            };
            prev_at = Some(at);
        }
    }
    Ok(union)
}

/// Compile the symbolic **expansion** `M ∘ (Σ* − Σ, I)` of one module over
/// a union variable layout: the module's own step with frame conditions
/// over all variables it does not declare. This is the object on which the
/// compositional engine checks component obligations (Lemma 5 justifies
/// checking `C(Σ*)` formulas here).
pub fn compile_expansion(
    union_vars: &[(String, Type)],
    module: &Module,
) -> Result<CompiledModel, SemError> {
    check_module(module)?;
    for (name, ty) in &module.vars {
        match union_vars.iter().find(|(n, _)| n == name) {
            Some((_, t)) if t == ty => {}
            Some(_) => {
                return Err(SemError(format!(
                    "variable {name:?} has a different type in the union layout"
                )))
            }
            None => {
                return Err(SemError(format!(
                    "module variable {name:?} missing from the union layout"
                )))
            }
        }
    }
    compile_parts(union_vars, std::slice::from_ref(module))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;
    use cmc_ctl::{parse, Restriction};

    fn module(src: &str) -> Module {
        parse_module(src).unwrap()
    }

    #[test]
    fn disjoint_composition_interleaves() {
        let mx = module("MODULE main\nVAR x : boolean;\nASSIGN init(x) := 0; next(x) := 1;");
        let my = module("MODULE main\nVAR y : boolean;\nASSIGN init(y) := 0; next(y) := 1;");
        let mut c = compile_composition(&[mx, my]).unwrap();
        assert_eq!(c.model.num_state_vars(), 2);
        assert_eq!(c.model.trans_parts().len(), 2);
        // Interleaving: from 00, one step reaches 10 or 01 but NOT 11.
        let x = c.model.prop("x").unwrap();
        let y = c.model.prop("y").unwrap();
        let init = c.model.init();
        let post = c.model.post_exists(init);
        let xy = c.model.mgr().and(x, y);
        let both_reachable_in_one = c.model.mgr().and(post, xy);
        assert!(both_reachable_in_one.is_false());
        // But 11 is reachable in two steps.
        let post2 = c.model.post_exists(post);
        let both2 = c.model.mgr().and(post2, xy);
        assert!(!both2.is_false());
    }

    #[test]
    fn frame_conditions_freeze_foreign_vars() {
        let mx = module("MODULE main\nVAR x : boolean;\nASSIGN next(x) := !x;");
        let my = module("MODULE main\nVAR y : boolean;\nASSIGN next(y) := y;");
        let mut c = compile_composition(&[mx, my]).unwrap();
        // The x-component's partition must keep y fixed. The frame is
        // implicit now: y is not owned by partition 0, the stored
        // relation never mentions y's next-state bit, and with the
        // y-module frozen no image of the composition can move y.
        let y_idx = c.model.vars().iter().position(|v| v.name == "y").unwrap();
        assert!(
            !c.model.part_owned_vars(0).contains(&y_idx),
            "x-partition must not own y"
        );
        let x = c.model.prop("x").unwrap();
        let y = c.model.prop("y").unwrap();
        let start = {
            let m = c.model.mgr();
            let nx = m.not(x);
            let ny = m.not(y);
            m.and(nx, ny)
        };
        let post = c.model.post_exists(start);
        let ny = {
            let m = c.model.mgr();
            m.not(y)
        };
        assert!(
            c.model.mgr().implies_trivially(post, ny),
            "foreign y moved during x's partition"
        );
        let x_moved = c.model.mgr().and(post, x);
        assert!(!x_moved.is_false(), "x's own move is lost");
    }

    #[test]
    fn shared_variables_identified() {
        // Two modules handing a token back and forth through shared `t`.
        let producer = module(
            "MODULE main\nVAR t : {none, full};\n\
             ASSIGN init(t) := none; next(t) := case t = none : full; 1 : t; esac;",
        );
        let consumer = module(
            "MODULE main\nVAR t : {none, full}; got : boolean;\n\
             ASSIGN init(got) := 0;\n\
             next(t) := case t = full : none; 1 : t; esac;\n\
             next(got) := case t = full : 1; 1 : got; esac;",
        );
        let mut c = compile_composition(&[producer, consumer]).unwrap();
        assert_eq!(c.model.num_state_vars(), 2); // t (1 bit) + got
        let spec = parse("AF got").unwrap();
        // With fairness pushing both components, the token eventually
        // arrives.
        let r = Restriction::with_fairness([
            parse("!(t=none) | t=full").unwrap(), // vacuous-but-harmless
            parse("t=full | got").unwrap(),
            parse("!(t=full) | got").unwrap(),
        ]);
        let v = c.model.check(&r, &spec).unwrap();
        assert!(v.holds);
    }

    #[test]
    fn conflicting_shared_types_rejected() {
        let a = module("MODULE main\nVAR s : {p, q};\n");
        let b = module("MODULE main\nVAR s : boolean;\n");
        let err = match compile_composition(&[a, b]) {
            Err(e) => e,
            Ok(_) => panic!("conflicting types must be rejected"),
        };
        assert!(err.0.contains("shared variable"));
    }

    fn layout(modules: &[Module]) -> Vec<String> {
        union_variables(modules)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }

    #[test]
    fn union_layout_keeps_module_variables_together() {
        let a = module("MODULE main\nVAR x : boolean; y : boolean;\n");
        let b = module("MODULE main\nVAR x : boolean; z : boolean; y : boolean; w : boolean;\n");
        // z follows b's x and w follows b's y, not the end of a's layout.
        assert_eq!(layout(&[a.clone(), b.clone()]), ["x", "z", "y", "w"]);
        // A module's first variable, when new, is appended.
        let c = module("MODULE main\nVAR v : boolean; y : boolean;\n");
        assert_eq!(layout(&[a.clone(), c]), ["x", "y", "v"]);
        // Modules that share nothing keep declaration order.
        let d = module("MODULE main\nVAR p : boolean; q : boolean;\n");
        assert_eq!(layout(&[a, d]), ["x", "y", "p", "q"]);
    }

    #[test]
    fn specs_and_fairness_collected_from_all_modules() {
        let a = module("MODULE main\nVAR x : boolean;\nFAIRNESS x\nSPEC EF x");
        let b = module("MODULE main\nVAR y : boolean;\nFAIRNESS y\nSPEC EF y");
        let c = compile_composition(&[a, b]).unwrap();
        assert_eq!(c.specs.len(), 2);
        assert_eq!(c.model.fairness().len(), 2);
    }

    #[test]
    fn single_module_composition_matches_plain_compile() {
        let src = "MODULE main\nVAR s : {a, b, c};\n\
                   ASSIGN init(s) := a; next(s) := case s = a : b; s = b : c; 1 : s; esac;\n\
                   SPEC AF (s = c)\nSPEC E [!(s = c) U s = c]";
        let m = module(src);
        let mut plain = crate::compile::compile(&m).unwrap();
        let mut comp = compile_composition(&[m]).unwrap();
        for i in 0..plain.specs.len() {
            let fp = plain.specs[i].1.clone();
            let fc = comp.specs[i].1.clone();
            let r = Restriction::with_fairness([parse("s = c").unwrap()]);
            assert_eq!(
                plain.model.check(&r, &fp).unwrap().holds,
                comp.model.check(&r, &fc).unwrap().holds,
                "spec {i} disagrees"
            );
        }
    }

    /// Decisive cross-validation: symbolic composition of two modules must
    /// agree with the explicit kripke composition of their explicit
    /// compilations, on a corpus of formulas.
    #[test]
    fn symbolic_composition_matches_explicit_kripke_composition() {
        let a_src = "MODULE main\nVAR x : boolean; s : {p, q};\n\
                     ASSIGN next(s) := case x : q; 1 : s; esac;";
        let b_src = "MODULE main\nVAR x : boolean;\nASSIGN next(x) := {0, 1};";
        let a = module(a_src);
        let b = module(b_src);
        let mut sym = compile_composition(&[a.clone(), b.clone()]).unwrap();
        let ea = crate::explicit::compile_explicit(&a).unwrap();
        let eb = crate::explicit::compile_explicit(&b).unwrap();
        let composed = ea.system.compose(&eb.system);
        let checker = cmc_ctl::Checker::new(&composed).unwrap();
        for text in [
            "AG (s=q -> AX s=q)",
            "EF (s=q)",
            "x -> EX (s=q)",
            "AG (x -> EX s=q)",
            "A [!(s=q) U s=q]",
        ] {
            let f_sym = {
                // Resolve atoms against the symbolic model's props.
                let module_all = Module {
                    name: "main".into(),
                    vars: vec![
                        ("x".into(), Type::Boolean),
                        ("s".into(), Type::Enum(vec!["p".into(), "q".into()])),
                    ],
                    specs: vec![(
                        text.into(),
                        crate::parse::parse_module(&format!(
                            "MODULE main\nVAR x : boolean; s : {{p, q}};\nSPEC {text}"
                        ))
                        .unwrap()
                        .specs[0]
                            .1
                            .clone(),
                    )],
                    ..Module::default()
                };
                let compiled = crate::compile::compile(&module_all).unwrap();
                compiled.specs[0].1.clone()
            };
            let sym_holds = sym
                .model
                .check(&Restriction::trivial(), &f_sym)
                .unwrap()
                .holds;
            // Explicit: same formula over bit props, quantified over the
            // composed init (both components' inits, here just validity).
            let f_exp = ea.parse_formula(text).unwrap();
            let sat = checker.sat(&f_exp).unwrap();
            let exp_holds = ea.init_states.iter().all(|s0| {
                // Embed component-a init into the composed alphabet and
                // pad with all b-private valuations — b has none beyond
                // shared x, so embedding suffices per shared layout.
                let embedded = s0.embed(ea.system.alphabet(), composed.alphabet());
                sat.contains(embedded)
            });
            assert_eq!(sym_holds, exp_holds, "disagreement on {text}");
        }
    }
}
