//! Semantic checking of SMV modules before compilation.
//!
//! Validates name resolution (variables, `DEFINE`s, enum literals), type
//! agreement of equalities and `case` arms, placement restrictions
//! (`next(..)` only in `TRANS`, set literals only on assignment right-hand
//! sides, temporal operators only in `SPEC`), and assignment well-formedness
//! (assignments target declared variables, at most one `init`/`next` per
//! variable).

use crate::ast::{Expr, Module, Type};
use crate::parse::MAX_EXPR_DEPTH;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A semantic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemError(pub String);

impl fmt::Display for SemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "semantic error: {}", self.0)
    }
}

impl std::error::Error for SemError {}

/// The type of an expression, as inferred by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Boolean-valued.
    Bool,
    /// A value from some set of literals (enum values / range numerals).
    Values(BTreeSet<String>),
    /// The literals `0`/`1`, which are polymorphic: booleans in boolean
    /// contexts, numerals in range contexts (SMV's classic pun).
    Num01(BTreeSet<String>),
}

/// Symbol information shared by the checker and the compilers.
pub struct Symbols<'m> {
    module: &'m Module,
    /// Enum/range literal → the variables whose domains contain it.
    pub literal_owners: BTreeMap<String, Vec<String>>,
    /// Define name → body.
    pub defines: BTreeMap<String, &'m Expr>,
}

impl<'m> Symbols<'m> {
    /// Build the symbol table, failing on name clashes.
    pub fn new(module: &'m Module) -> Result<Self, SemError> {
        let mut literal_owners: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (name, ty) in &module.vars {
            if let Type::Enum(values) = ty {
                for v in values {
                    literal_owners
                        .entry(v.clone())
                        .or_default()
                        .push(name.clone());
                }
            }
        }
        let mut defines = BTreeMap::new();
        for (name, body) in &module.defines {
            if module.var_type(name).is_some() {
                return Err(SemError(format!("DEFINE {name:?} shadows a variable")));
            }
            if literal_owners.contains_key(name) {
                return Err(SemError(format!("DEFINE {name:?} shadows an enum literal")));
            }
            if defines.insert(name.clone(), body).is_some() {
                return Err(SemError(format!("duplicate DEFINE {name:?}")));
            }
        }
        for (name, _) in &module.vars {
            if literal_owners.contains_key(name) {
                return Err(SemError(format!(
                    "identifier {name:?} is both a variable and an enum literal"
                )));
            }
        }
        Ok(Symbols {
            module,
            literal_owners,
            defines,
        })
    }

    /// The module this table was built from.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Height of `DEFINE name` with every reference expanded, one level
    /// per reference plus its body, `above` levels below a root. `heights`
    /// memoises finished defines and marks the ones being expanded with
    /// `None`, so a cycle fails on its first repeat. Every later pass
    /// expands a reference by recursing into its body, so `d := d` would
    /// never return and a long `dᵢ := dᵢ₋₁` chain would overflow the stack:
    /// both are refused here, as is any define taller than
    /// [`MAX_EXPR_DEPTH`].
    fn define_height(
        &self,
        name: &'m str,
        above: usize,
        heights: &mut BTreeMap<&'m str, Option<usize>>,
    ) -> Result<usize, SemError> {
        match heights.get(name) {
            Some(Some(h)) => return Ok(*h),
            Some(None) => {
                return Err(SemError(format!(
                    "DEFINE {name:?} is defined in terms of itself"
                )))
            }
            None => {}
        }
        heights.insert(name, None);
        let h = 1 + self.expanded_height(self.defines[name], above + 1, heights)?;
        if h > MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        heights.insert(name, Some(h));
        Ok(h)
    }

    /// Height of `e`, `above` levels below a root, with `DEFINE`
    /// references expanded as in [`Symbols::define_height`].
    fn expanded_height(
        &self,
        e: &'m Expr,
        above: usize,
        heights: &mut BTreeMap<&'m str, Option<usize>>,
    ) -> Result<usize, SemError> {
        use Expr::*;
        if above >= MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        let children: Vec<&'m Expr> = match e {
            Ident(name) if self.defines.contains_key(name) => {
                return self.define_height(name, above, heights)
            }
            Ident(_) | Num(_) => return Ok(1),
            Next(a) | Not(a) | Ex(a) | Ax(a) | Ef(a) | Af(a) | Eg(a) | Ag(a) => vec![a],
            And(a, b)
            | Or(a, b)
            | Implies(a, b)
            | Iff(a, b)
            | Eq(a, b)
            | Neq(a, b)
            | Eu(a, b)
            | Au(a, b) => vec![a, b],
            Case(arms) => arms.iter().flat_map(|(c, v)| [c, v]).collect(),
            Set(items) => items.iter().collect(),
        };
        let mut height = 0;
        for c in children {
            height = height.max(self.expanded_height(c, above + 1, heights)?);
        }
        Ok(height + 1)
    }

    fn kind_of_var(&self, ty: &Type) -> ExprKind {
        match ty {
            Type::Boolean => ExprKind::Bool,
            other => ExprKind::Values(other.values().into_iter().collect()),
        }
    }

    /// Infer the kind of an expression (`in_spec` allows temporal
    /// operators; `in_trans` allows `next(..)`; `allow_set` allows `{..}`).
    pub fn infer(
        &self,
        e: &Expr,
        in_spec: bool,
        in_trans: bool,
        allow_set: bool,
    ) -> Result<ExprKind, SemError> {
        use Expr::*;
        match e {
            Num(n @ (0 | 1)) => Ok(ExprKind::Num01([n.to_string()].into())),
            Num(n) => Ok(ExprKind::Values([n.to_string()].into())),
            Ident(name) => {
                if let Some(ty) = self.module.var_type(name) {
                    Ok(self.kind_of_var(ty))
                } else if let Some(body) = self.defines.get(name) {
                    self.infer(body, false, false, false)
                } else if self.literal_owners.contains_key(name) {
                    Ok(ExprKind::Values([name.clone()].into()))
                } else {
                    Err(SemError(format!("unknown identifier {name:?}")))
                }
            }
            Next(inner) => {
                if !in_trans {
                    return Err(SemError("next(..) outside TRANS".into()));
                }
                match inner.as_ref() {
                    Ident(name) if self.module.var_type(name).is_some() => {
                        Ok(self.kind_of_var(self.module.var_type(name).unwrap()))
                    }
                    other => Err(SemError(format!(
                        "next(..) must wrap a variable, found {other}"
                    ))),
                }
            }
            Not(a) => {
                self.expect_bool(a, in_spec, in_trans)?;
                Ok(ExprKind::Bool)
            }
            And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => {
                self.expect_bool(a, in_spec, in_trans)?;
                self.expect_bool(b, in_spec, in_trans)?;
                Ok(ExprKind::Bool)
            }
            Eq(a, b) | Neq(a, b) => {
                let ka = self.infer(a, false, in_trans, false)?;
                let kb = self.infer(b, false, in_trans, false)?;
                match (&ka, &kb) {
                    (ExprKind::Bool, ExprKind::Bool) => {}
                    (ExprKind::Bool, ExprKind::Num01(_)) | (ExprKind::Num01(_), ExprKind::Bool) => {
                    }
                    (ExprKind::Num01(_), ExprKind::Num01(_)) => {}
                    (ExprKind::Values(va), ExprKind::Values(vb)) => {
                        if va.is_disjoint(vb) {
                            return Err(SemError(format!(
                                "equality {e} compares disjoint domains"
                            )));
                        }
                    }
                    (ExprKind::Values(va), ExprKind::Num01(vb))
                    | (ExprKind::Num01(vb), ExprKind::Values(va)) => {
                        if va.is_disjoint(vb) {
                            return Err(SemError(format!(
                                "equality {e} compares disjoint domains"
                            )));
                        }
                    }
                    _ => {
                        return Err(SemError(format!(
                            "equality {e} mixes boolean and enumerated operands"
                        )))
                    }
                }
                Ok(ExprKind::Bool)
            }
            Case(arms) => {
                let mut kind: Option<ExprKind> = None;
                for (cond, val) in arms {
                    self.expect_bool(cond, false, in_trans)?;
                    let kv = self.infer(val, false, in_trans, allow_set)?;
                    kind = Some(match kind {
                        None => kv,
                        Some(prev) => join_kinds(prev, kv).ok_or_else(|| {
                            SemError(format!("case arms of {e} disagree on type"))
                        })?,
                    });
                }
                Ok(kind.expect("parser rejects empty case"))
            }
            Set(items) => {
                if !allow_set {
                    return Err(SemError(format!(
                        "set literal {e} outside an assignment right-hand side"
                    )));
                }
                let mut kind: Option<ExprKind> = None;
                for item in items {
                    let ki = self.infer(item, false, in_trans, false)?;
                    kind = Some(match kind {
                        None => ki,
                        Some(prev) => join_kinds(prev, ki).ok_or_else(|| {
                            SemError(format!("set members of {e} disagree on type"))
                        })?,
                    });
                }
                Ok(kind.expect("parser rejects empty sets"))
            }
            Ex(a) | Ax(a) | Ef(a) | Af(a) | Eg(a) | Ag(a) => {
                if !in_spec {
                    return Err(SemError(format!("temporal operator outside SPEC: {e}")));
                }
                self.expect_bool_spec(a)?;
                Ok(ExprKind::Bool)
            }
            Eu(a, b) | Au(a, b) => {
                if !in_spec {
                    return Err(SemError(format!("temporal operator outside SPEC: {e}")));
                }
                self.expect_bool_spec(a)?;
                self.expect_bool_spec(b)?;
                Ok(ExprKind::Bool)
            }
        }
    }

    fn expect_bool(&self, e: &Expr, in_spec: bool, in_trans: bool) -> Result<(), SemError> {
        match self.infer(e, in_spec, in_trans, false)? {
            ExprKind::Bool | ExprKind::Num01(_) => Ok(()),
            ExprKind::Values(_) => Err(SemError(format!("expected boolean expression, found {e}"))),
        }
    }

    fn expect_bool_spec(&self, e: &Expr) -> Result<(), SemError> {
        match self.infer(e, true, false, false)? {
            ExprKind::Bool | ExprKind::Num01(_) => Ok(()),
            ExprKind::Values(_) => Err(SemError(format!(
                "expected boolean spec sub-formula, found {e}"
            ))),
        }
    }
}

fn join_kinds(a: ExprKind, b: ExprKind) -> Option<ExprKind> {
    match (a, b) {
        (ExprKind::Bool, ExprKind::Bool) => Some(ExprKind::Bool),
        (ExprKind::Bool, ExprKind::Num01(_)) | (ExprKind::Num01(_), ExprKind::Bool) => {
            Some(ExprKind::Bool)
        }
        (ExprKind::Num01(mut a), ExprKind::Num01(b)) => {
            a.extend(b);
            Some(ExprKind::Num01(a))
        }
        (ExprKind::Values(mut va), ExprKind::Values(vb)) => {
            va.extend(vb);
            Some(ExprKind::Values(va))
        }
        (ExprKind::Values(mut va), ExprKind::Num01(vb)) => {
            va.extend(vb);
            Some(ExprKind::Values(va))
        }
        (ExprKind::Num01(vb), ExprKind::Values(mut va)) => {
            va.extend(vb);
            Some(ExprKind::Values(va))
        }
        (ExprKind::Bool, ExprKind::Values(_)) | (ExprKind::Values(_), ExprKind::Bool) => None,
    }
}

fn too_deep() -> SemError {
    SemError(format!(
        "DEFINEs expand deeper than {MAX_EXPR_DEPTH} levels"
    ))
}

/// Run all semantic checks over a module.
pub fn check_module(module: &Module) -> Result<(), SemError> {
    let syms = Symbols::new(module)?;
    let mut heights = BTreeMap::new();
    for (name, _) in &module.defines {
        syms.define_height(name, 0, &mut heights)?;
    }

    // Assignments: target must be declared; at most one init/next each;
    // the right-hand side must fit the target's type.
    for (kind, assigns) in [
        ("init", &module.init_assigns),
        ("next", &module.next_assigns),
    ] {
        let mut seen = BTreeSet::new();
        for (var, rhs) in assigns {
            let ty = module
                .var_type(var)
                .ok_or_else(|| SemError(format!("{kind}({var}) targets undeclared variable")))?;
            if !seen.insert(var.clone()) {
                return Err(SemError(format!("duplicate {kind}({var}) assignment")));
            }
            let rhs_kind = syms.infer(rhs, false, false, true)?;
            let target_kind = match ty {
                Type::Boolean => ExprKind::Bool,
                other => ExprKind::Values(other.values().into_iter().collect()),
            };
            match (&target_kind, &rhs_kind) {
                (ExprKind::Bool, ExprKind::Bool | ExprKind::Num01(_)) => {}
                (ExprKind::Values(dom), ExprKind::Values(vals))
                | (ExprKind::Values(dom), ExprKind::Num01(vals)) => {
                    if let Some(bad) = vals.iter().find(|v| !dom.contains(*v)) {
                        return Err(SemError(format!(
                            "{kind}({var}) may produce {bad:?}, outside the domain of {var}"
                        )));
                    }
                }
                _ => {
                    return Err(SemError(format!(
                        "{kind}({var}) assigns a value of the wrong type"
                    )))
                }
            }
        }
    }

    for e in &module.init_constraints {
        syms.expect_bool(e, false, false)?;
    }
    for e in &module.invar_constraints {
        syms.expect_bool(e, false, false)?;
    }
    for e in &module.trans_constraints {
        syms.expect_bool(e, false, true)?;
    }
    for e in &module.fairness {
        syms.expect_bool(e, false, false)?;
    }
    for (_, spec) in &module.specs {
        syms.expect_bool_spec(spec)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    fn check(src: &str) -> Result<(), SemError> {
        check_module(&parse_module(src).unwrap())
    }

    #[test]
    fn valid_module_passes() {
        check(
            "MODULE main\nVAR x : boolean; s : {a, b};\n\
             ASSIGN next(x) := case s = a : 1; 1 : x; esac; next(s) := {a, b};\n\
             FAIRNESS x\nSPEC AG (x -> AX x)",
        )
        .unwrap();
    }

    #[test]
    fn unknown_identifier() {
        let e = check("MODULE main\nVAR x : boolean;\nSPEC AG zz").unwrap_err();
        assert!(e.0.contains("unknown identifier"));
    }

    #[test]
    fn disjoint_domain_equality() {
        let e = check("MODULE main\nVAR s : {a, b}; t : {c, d};\nSPEC AG (s = t)").unwrap_err();
        assert!(e.0.contains("disjoint"));
    }

    #[test]
    fn bool_vs_enum_equality() {
        let e = check("MODULE main\nVAR x : boolean; s : {a, b};\nSPEC AG (x = s)").unwrap_err();
        assert!(e.0.contains("mixes"));
    }

    #[test]
    fn assignment_to_undeclared() {
        let e = check("MODULE main\nVAR x : boolean;\nASSIGN next(y) := 1;").unwrap_err();
        assert!(e.0.contains("undeclared"));
    }

    #[test]
    fn duplicate_next_assignment() {
        let e =
            check("MODULE main\nVAR x : boolean;\nASSIGN next(x) := 1; next(x) := 0;").unwrap_err();
        assert!(e.0.contains("duplicate"));
    }

    #[test]
    fn out_of_domain_value() {
        let e = check("MODULE main\nVAR s : {a, b};\nASSIGN next(s) := c;").unwrap_err();
        // `c` is simply unknown here (never declared as a literal).
        assert!(e.0.contains("unknown identifier"));
        // A literal from another variable's domain is rejected by the
        // domain check.
        let e2 = check("MODULE main\nVAR s : {a, b}; t : {c};\nASSIGN next(s) := c;").unwrap_err();
        assert!(e2.0.contains("outside the domain"));
    }

    #[test]
    fn set_outside_assignment() {
        let e = check("MODULE main\nVAR s : {a, b};\nINIT s = {a, b}").unwrap_err();
        assert!(e.0.contains("set literal"));
    }

    #[test]
    fn temporal_outside_spec() {
        // The parser never produces temporal operators outside SPEC, so
        // exercise the checker on a programmatically built module.
        use crate::ast::{Expr, Module, Type};
        let m = Module {
            name: "main".into(),
            vars: vec![("x".into(), Type::Boolean)],
            init_constraints: vec![Expr::Ag(Box::new(Expr::Ident("x".into())))],
            ..Module::default()
        };
        let e = check_module(&m).unwrap_err();
        assert!(e.0.contains("temporal"));
    }

    #[test]
    fn case_arm_type_mismatch() {
        let e = check(
            "MODULE main\nVAR x : boolean; s : {a, b};\n\
             ASSIGN next(x) := case x : 1; 1 : a; esac;",
        )
        .unwrap_err();
        assert!(e.0.contains("disagree") || e.0.contains("wrong type"));
    }

    #[test]
    fn define_shadowing_rejected() {
        let e = check("MODULE main\nVAR x : boolean;\nDEFINE x := 1;").unwrap_err();
        assert!(e.0.contains("shadows"));
    }

    /// A cyclic define is refused instead of expanding forever, and a
    /// define chain is accepted at [`MAX_EXPR_DEPTH`] levels and refused
    /// one level past it, and far past it, where unbounded recursion
    /// would overflow the stack.
    #[test]
    fn cyclic_and_deep_defines_rejected() {
        for defines in ["d := d;", "a := b; b := !a;"] {
            let e = check(&format!(
                "MODULE main\nVAR x : boolean;\nDEFINE {defines}\nSPEC x"
            ))
            .unwrap_err();
            assert!(e.0.contains("in terms of itself"), "{e}");
        }
        let chain = |levels: usize| {
            let mut src = String::from("MODULE main\nVAR x : boolean;\nDEFINE d1 := x;\n");
            for i in 2..levels {
                src.push_str(&format!("d{i} := d{};\n", i - 1));
            }
            src + &format!("SPEC d{}", levels - 1)
        };
        check(&chain(MAX_EXPR_DEPTH)).unwrap();
        for levels in [MAX_EXPR_DEPTH + 1, 100_000] {
            let e = check(&chain(levels)).unwrap_err();
            assert!(e.0.contains("deeper than"), "{e}");
        }
    }

    #[test]
    fn defines_resolve_in_specs() {
        check(
            "MODULE main\nVAR x : boolean; s : {a, b};\n\
             DEFINE ready := x & s = a;\nSPEC AG (ready -> AX ready)",
        )
        .unwrap();
    }

    #[test]
    fn trans_constraints_allow_next() {
        check("MODULE main\nVAR x : boolean;\nTRANS next(x) = x").unwrap();
        let e = check("MODULE main\nVAR x : boolean;\nTRANS next(x = x) = x").unwrap_err();
        assert!(e.0.contains("must wrap a variable"));
    }

    #[test]
    fn range_values_type_as_numerals() {
        check("MODULE main\nVAR n : 0..3;\nASSIGN next(n) := case n = 3 : 0; 1 : n; esac;")
            .unwrap();
        let e = check("MODULE main\nVAR n : 0..3;\nASSIGN next(n) := 7;").unwrap_err();
        assert!(e.0.contains("outside the domain"));
    }

    #[test]
    fn shared_literals_across_domains_ok() {
        // `val` in both domains: equality between the variables is allowed.
        check("MODULE main\nVAR a : {val, x}; b : {val, y};\nSPEC AG (a = b -> a = val)").unwrap();
    }
}
