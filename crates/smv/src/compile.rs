//! Compilation of checked SMV modules into symbolic models.
//!
//! Enumerated and range variables are boolean-encoded exactly as in
//! Figure 3 of the paper: a variable with `k` values gets `⌈log₂ k⌉`
//! boolean variables holding the binary index of the value (LSB first).
//! Every propositional atom `x = value` becomes a registered proposition of
//! the resulting [`SymbolicModel`], so CTL specs can be checked directly.

use crate::ast::{Expr, Module, Type};
use crate::check::{check_module, SemError, Symbols};
use cmc_bdd::{Bdd, Var};
use cmc_ctl::Formula;
use cmc_symbolic::SymbolicModel;
use std::collections::BTreeMap;

/// Which variable frame an expression is evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Current,
    NextState,
}

/// Metadata for one source-level variable in the compiled model.
#[derive(Debug, Clone)]
pub struct CompiledVar {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Names of the boolean bit variables in the model (LSB first). A
    /// boolean variable has a single bit named after itself.
    pub bit_names: Vec<String>,
}

/// A compiled SMV module: the symbolic model plus variable metadata and the
/// specs translated to CTL formulas over registered propositions.
pub struct CompiledModel {
    /// The underlying symbolic model (transition relation, init, fairness,
    /// registered propositions).
    pub model: SymbolicModel,
    /// Per-variable encoding metadata.
    pub vars: Vec<CompiledVar>,
    /// `SPEC`s: (source text, formula over registered propositions).
    pub specs: Vec<(String, Formula)>,
}

impl CompiledModel {
    /// Decode a bit assignment (over the model's bit variables, in
    /// declaration order) into `var = value` pairs.
    pub fn decode_state(&self, bits: &[bool]) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut offset = 0usize;
        for v in &self.vars {
            let width = v.bit_names.len();
            let mut idx = 0usize;
            for (j, &b) in bits[offset..offset + width].iter().enumerate() {
                if b {
                    idx |= 1 << j;
                }
            }
            let values = v.ty.values();
            let value = values
                .get(idx)
                .cloned()
                .unwrap_or_else(|| format!("<invalid:{idx}>"));
            let rendered = match v.ty {
                Type::Boolean => (if idx == 1 { "1" } else { "0" }).to_string(),
                _ => value,
            };
            out.push((v.name.clone(), rendered));
            offset += width;
        }
        out
    }
}

/// A symbolic value: for each possible value name, the condition (BDD) under
/// which the expression takes that value. Deterministic expressions have
/// pairwise-disjoint conditions; nondeterministic `{..}` sets may overlap.
#[derive(Debug, Clone)]
struct SValue {
    cases: Vec<(String, Bdd)>,
}

impl SValue {
    fn boolean(mgr: &mut cmc_bdd::BddManager, b: Bdd) -> SValue {
        let nb = mgr.not(b);
        SValue {
            cases: vec![("1".into(), b), ("0".into(), nb)],
        }
    }

    fn constant(name: String) -> SValue {
        SValue {
            cases: vec![(name, Bdd::TRUE)],
        }
    }

    /// Condition under which the value is boolean-true.
    fn to_bool(&self) -> Result<Bdd, SemError> {
        let mut t = None;
        for (v, c) in &self.cases {
            match v.as_str() {
                "1" => t = Some(*c),
                "0" => {}
                other => return Err(SemError(format!("value {other:?} used in boolean context"))),
            }
        }
        Ok(t.unwrap_or(Bdd::FALSE))
    }
}

/// The compiler state.
struct Compiler<'m> {
    syms: Symbols<'m>,
    model: SymbolicModel,
    vars: Vec<CompiledVar>,
    /// var name → index into vars
    var_index: BTreeMap<String, usize>,
    /// Index into the model's flat state-variable layout of each source
    /// variable's first bit.
    bit_offsets: Vec<usize>,
    /// Values of the DEFINEs of the module in `syms` evaluated so far, by
    /// frame (`Frame as usize`) and name: a body is evaluated once per
    /// frame however often it is used.
    define_memo: [BTreeMap<String, SValue>; 2],
}

/// Compile a module to a symbolic model. Runs the semantic checker first.
pub fn compile(module: &Module) -> Result<CompiledModel, SemError> {
    check_module(module)?;
    compile_parts(&module.vars, std::slice::from_ref(module))
}

/// Compile `modules` into one symbolic model over the variable layout
/// `union_vars`, with **one disjunctive transition partition per module**
/// (each padded with frame conditions over the variables it does not
/// declare). With a single module this is plain compilation; with several
/// it is the paper's interleaving composition `∘` (see
/// [`crate::compose::compile_composition`]). Callers must have run
/// [`check_module`] on every module.
pub(crate) fn compile_parts(
    union_vars: &[(String, Type)],
    modules: &[Module],
) -> Result<CompiledModel, SemError> {
    // Layout: one or more boolean bits per source variable, in declaration
    // order, named `x` for booleans and `x#j` for multi-bit encodings.
    let mut vars = Vec::new();
    let mut bit_names_flat = Vec::new();
    let mut var_index = BTreeMap::new();
    for (name, ty) in union_vars {
        let width = ty.bits();
        let bit_names: Vec<String> = if matches!(ty, Type::Boolean) {
            vec![name.clone()]
        } else {
            (0..width).map(|j| format!("{name}#{j}")).collect()
        };
        bit_names_flat.extend(bit_names.iter().cloned());
        var_index.insert(name.clone(), vars.len());
        vars.push(CompiledVar {
            name: name.clone(),
            ty: ty.clone(),
            bit_names,
        });
    }

    // Bit offset of each source variable in the flat StateVar layout.
    let bit_offsets: Vec<usize> = {
        let mut off = 0usize;
        vars.iter()
            .map(|v| {
                let o = off;
                off += v.bit_names.len();
                o
            })
            .collect()
    };

    let model = SymbolicModel::new(bit_names_flat);
    let mut c = Compiler {
        syms: Symbols::new(&modules[0])?,
        model,
        vars,
        var_index,
        bit_offsets,
        define_memo: Default::default(),
    };
    c.register_value_props()?;

    // Every relation below is one `and_many` over its constraints in
    // source order: a balanced conjunction, where a left fold would
    // re-walk the accumulated relation once per constraint.
    let valid_cur = c.validity(Frame::Current);
    let mut init = vec![valid_cur];
    let to_next: Vec<(Var, Var)> = c.model.vars().iter().map(|v| (v.cur, v.next)).collect();

    for module in modules {
        c.enter(module)?;

        // This module's synchronous step over its own variables.
        let mut part = Vec::new();
        for (var, rhs) in module.next_assigns.clone() {
            part.push(c.next_constraint(&var, &rhs)?);
        }
        for t in module.trans_constraints.clone() {
            part.push(c.eval(&t, Frame::Current)?.to_bool()?);
        }

        // Variables this module declares; everything else keeps an
        // *implicit* frame condition in the partition (the `r ⊆ Σ* − Σ`
        // padding of §3.1, carried as owned-variable metadata instead of
        // a materialised `⋀ v' = v` BDD).
        let own_vars: Vec<usize> = union_vars
            .iter()
            .enumerate()
            .filter(|(_, (n, _))| module.var_type(n).is_some())
            .map(|(vi, _)| vi)
            .collect();
        let owned_bits: Vec<usize> = own_vars
            .iter()
            .flat_map(|&vi| {
                let o = c.bit_offsets[vi];
                o..o + c.vars[vi].bit_names.len()
            })
            .collect();

        // Domain validity: current frame over every variable (foreign
        // reads are frame-free), next frame over owned variables only.
        let valid_next_own = c.validity_for(Frame::NextState, &own_vars);
        part.extend([valid_cur, valid_next_own]);

        // INVAR: constrain both frames of this part and the initial states.
        let mut invars = Vec::new();
        for e in module.invar_constraints.clone() {
            let inv = c.eval(&e, Frame::Current)?.to_bool()?;
            let inv_next = c.model.mgr().rename(inv, &to_next);
            part.extend([inv, inv_next]);
            invars.push(inv);
        }
        let part = c.model.mgr().and_many(&part);
        c.model.add_trans_part_owned(part, owned_bits);

        // Initial states.
        for (var, rhs) in module.init_assigns.clone() {
            init.push(c.init_constraint(&var, &rhs)?);
        }
        for e in module.init_constraints.clone() {
            init.push(c.eval(&e, Frame::Current)?.to_bool()?);
        }
        init.extend(invars);

        // Fairness.
        for e in module.fairness.clone() {
            let constraint = c.eval(&e, Frame::Current)?.to_bool()?;
            c.model.add_fairness(constraint);
        }
    }
    let init = c.model.mgr().and_many(&init);
    c.model.set_init(init);

    // Translate specs (per module, so DEFINEs resolve in the right scope).
    let mut specs = Vec::new();
    for module in modules {
        c.enter(module)?;
        for (text, e) in &module.specs {
            let f = c.spec_to_formula(e)?;
            specs.push((text.clone(), f));
        }
    }

    Ok(CompiledModel {
        model: c.model,
        vars: c.vars,
        specs,
    })
}

impl<'m> Compiler<'m> {
    /// Compile `module`'s constructs from here on: its symbols, and a
    /// fresh DEFINE memo.
    fn enter(&mut self, module: &'m Module) -> Result<(), SemError> {
        self.syms = Symbols::new(module)?;
        self.define_memo = Default::default();
        Ok(())
    }

    /// The BDD variable of bit `j` of source variable `vi` in `frame`.
    fn bit_var(&self, vi: usize, j: usize, frame: Frame) -> Var {
        let sv = &self.model.vars()[self.bit_offsets[vi] + j];
        match frame {
            Frame::Current => sv.cur,
            Frame::NextState => sv.next,
        }
    }

    /// BDD of "variable (in `frame`) encodes value index `idx`".
    fn var_equals_index(&mut self, vi: usize, idx: usize, frame: Frame) -> Bdd {
        let mut lits = Vec::new();
        for j in 0..self.vars[vi].bit_names.len() {
            let var = self.bit_var(vi, j, frame);
            lits.push(if idx >> j & 1 == 1 {
                self.model.mgr().var(var)
            } else {
                self.model.mgr().nvar(var)
            });
        }
        self.model.mgr().and_many(&lits)
    }

    /// Symbolic value of a source variable in a frame.
    fn var_value(&mut self, name: &str, frame: Frame) -> SValue {
        let vi = self.var_index[name];
        let ty = self.vars[vi].ty.clone();
        match ty {
            Type::Boolean => {
                let var = self.bit_var(vi, 0, frame);
                let b = self.model.mgr().var(var);
                SValue::boolean(self.model.mgr(), b)
            }
            other => {
                let values = other.values();
                let cases = values
                    .iter()
                    .enumerate()
                    .map(|(idx, v)| (v.clone(), self.var_equals_index(vi, idx, frame)))
                    .collect();
                SValue { cases }
            }
        }
    }

    /// Register the `x=value` propositions (and keep the plain `x` literal
    /// already registered for boolean bit variables).
    fn register_value_props(&mut self) -> Result<(), SemError> {
        for vi in 0..self.vars.len() {
            let name = self.vars[vi].name.clone();
            let ty = self.vars[vi].ty.clone();
            match ty {
                Type::Boolean => {
                    let var = self.bit_var(vi, 0, Frame::Current);
                    let b = self.model.mgr().var(var);
                    let nb = self.model.mgr().not(b);
                    self.model.define_prop(format!("{name}=1"), b);
                    self.model.define_prop(format!("{name}=0"), nb);
                }
                other => {
                    for (idx, v) in other.values().iter().enumerate() {
                        let bdd = self.var_equals_index(vi, idx, Frame::Current);
                        self.model.define_prop(format!("{name}={v}"), bdd);
                    }
                }
            }
        }
        Ok(())
    }

    /// Domain-validity predicate for all variables in a frame: every
    /// multi-bit encoding must denote a real value (`idx < k`).
    fn validity(&mut self, frame: Frame) -> Bdd {
        let all: Vec<usize> = (0..self.vars.len()).collect();
        self.validity_for(frame, &all)
    }

    /// Domain validity of the variables at `vis` only — the next-frame
    /// validity each transition partition carries is restricted to the
    /// variables the module owns, so partitions never mention foreign
    /// next-state bits (their frames stay implicit; foreign next-validity
    /// follows from current-frame validity through the frame condition).
    fn validity_for(&mut self, frame: Frame, vis: &[usize]) -> Bdd {
        let mut valid = Vec::new();
        for &vi in vis {
            let k = self.vars[vi].ty.cardinality();
            let width = self.vars[vi].ty.bits();
            if k == 1usize << width {
                continue; // every pattern valid
            }
            let values: Vec<Bdd> = (0..k)
                .map(|idx| self.var_equals_index(vi, idx, frame))
                .collect();
            valid.push(self.model.mgr().or_many(&values));
        }
        self.model.mgr().and_many(&valid)
    }

    /// Evaluate an expression to a symbolic value.
    fn eval(&mut self, e: &Expr, frame: Frame) -> Result<SValue, SemError> {
        use Expr::*;
        Ok(match e {
            Num(n) => SValue::constant(n.to_string()),
            Ident(name) => {
                if self.var_index.contains_key(name) {
                    self.var_value(name, frame)
                } else if let Some(v) = self.define_value(name, frame)? {
                    v
                } else {
                    // Enum literal.
                    SValue::constant(name.clone())
                }
            }
            Next(inner) => match inner.as_ref() {
                Ident(name) => self.var_value(name, Frame::NextState),
                other => return Err(SemError(format!("next({other}) must wrap a variable"))),
            },
            Not(a) => {
                let b = self.eval(a, frame)?.to_bool()?;
                let nb = self.model.mgr().not(b);
                SValue::boolean(self.model.mgr(), nb)
            }
            And(a, b) => self.boolean_op(a, b, frame, |m, x, y| m.and(x, y))?,
            Or(a, b) => self.boolean_op(a, b, frame, |m, x, y| m.or(x, y))?,
            Implies(a, b) => self.boolean_op(a, b, frame, |m, x, y| m.implies(x, y))?,
            Iff(a, b) => self.boolean_op(a, b, frame, |m, x, y| m.iff(x, y))?,
            Eq(a, b) => {
                let va = self.eval(a, frame)?;
                let vb = self.eval(b, frame)?;
                let eq = self.values_equal(&va, &vb);
                SValue::boolean(self.model.mgr(), eq)
            }
            Neq(a, b) => {
                let va = self.eval(a, frame)?;
                let vb = self.eval(b, frame)?;
                let eq = self.values_equal(&va, &vb);
                let neq = self.model.mgr().not(eq);
                SValue::boolean(self.model.mgr(), neq)
            }
            Case(arms) => {
                // First-match semantics: arm i active iff cᵢ ∧ ¬c₁ ∧ … ∧ ¬cᵢ₋₁.
                let mut cases: BTreeMap<String, Bdd> = BTreeMap::new();
                let mut none_before = Bdd::TRUE;
                for (cond, val) in arms {
                    let c = self.eval(cond, frame)?.to_bool()?;
                    let active = self.model.mgr().and(none_before, c);
                    let v = self.eval(val, frame)?;
                    for (name, vc) in v.cases {
                        let both = self.model.mgr().and(active, vc);
                        let entry = cases.entry(name).or_insert(Bdd::FALSE);
                        *entry = self.model.mgr().or(*entry, both);
                    }
                    let nc = self.model.mgr().not(c);
                    none_before = self.model.mgr().and(none_before, nc);
                }
                SValue {
                    cases: cases.into_iter().collect(),
                }
            }
            Set(items) => {
                // Nondeterministic choice: overlapping cases.
                let mut cases: BTreeMap<String, Bdd> = BTreeMap::new();
                for item in items {
                    let v = self.eval(item, frame)?;
                    for (name, vc) in v.cases {
                        let entry = cases.entry(name).or_insert(Bdd::FALSE);
                        *entry = self.model.mgr().or(*entry, vc);
                    }
                }
                SValue {
                    cases: cases.into_iter().collect(),
                }
            }
            Ex(_) | Ax(_) | Ef(_) | Af(_) | Eg(_) | Ag(_) | Eu(..) | Au(..) => {
                return Err(SemError(format!("temporal operator in expression: {e}")))
            }
        })
    }

    /// The value of DEFINE `name` in `frame`, evaluating its body on the
    /// first use only; `None` if the module defines no `name`.
    fn define_value(&mut self, name: &str, frame: Frame) -> Result<Option<SValue>, SemError> {
        if let Some(v) = self.define_memo[frame as usize].get(name) {
            return Ok(Some(v.clone()));
        }
        let Some(&body) = self.syms.defines.get(name) else {
            return Ok(None);
        };
        let v = self.eval(body, frame)?;
        self.define_memo[frame as usize].insert(name.to_owned(), v.clone());
        Ok(Some(v))
    }

    fn boolean_op(
        &mut self,
        a: &Expr,
        b: &Expr,
        frame: Frame,
        op: fn(&mut cmc_bdd::BddManager, Bdd, Bdd) -> Bdd,
    ) -> Result<SValue, SemError> {
        let x = self.eval(a, frame)?.to_bool()?;
        let y = self.eval(b, frame)?.to_bool()?;
        let r = op(self.model.mgr(), x, y);
        Ok(SValue::boolean(self.model.mgr(), r))
    }

    /// Equality of symbolic values: OR over shared value names of the
    /// conjunction of conditions.
    fn values_equal(&mut self, a: &SValue, b: &SValue) -> Bdd {
        let mut acc = Bdd::FALSE;
        for (va, ca) in &a.cases {
            for (vb, cb) in &b.cases {
                if va == vb {
                    let both = self.model.mgr().and(*ca, *cb);
                    acc = self.model.mgr().or(acc, both);
                }
            }
        }
        acc
    }

    /// Constraint "the next-state encoding of `var` equals the value of
    /// `rhs` (over the current state)".
    fn next_constraint(&mut self, var: &str, rhs: &Expr) -> Result<Bdd, SemError> {
        let sv = self.eval(rhs, Frame::Current)?;
        let target = self.var_value(var, Frame::NextState);
        self.assignment_relation(&sv, &target, var)
    }

    /// Constraint "the current-state encoding of `var` equals `rhs`".
    fn init_constraint(&mut self, var: &str, rhs: &Expr) -> Result<Bdd, SemError> {
        let sv = self.eval(rhs, Frame::Current)?;
        let target = self.var_value(var, Frame::Current);
        self.assignment_relation(&sv, &target, var)
    }

    fn assignment_relation(
        &mut self,
        value: &SValue,
        target: &SValue,
        var: &str,
    ) -> Result<Bdd, SemError> {
        let target_map: BTreeMap<&str, Bdd> =
            target.cases.iter().map(|(n, b)| (n.as_str(), *b)).collect();
        let mut acc = Bdd::FALSE;
        for (name, cond) in &value.cases {
            let enc = target_map
                .get(name.as_str())
                .copied()
                .ok_or_else(|| SemError(format!("value {name:?} outside the domain of {var}")))?;
            let both = self.model.mgr().and(*cond, enc);
            acc = self.model.mgr().or(acc, both);
        }
        Ok(acc)
    }

    /// Translate a SPEC expression into a CTL formula over registered
    /// propositions, registering equality atoms on the fly.
    fn spec_to_formula(&mut self, e: &Expr) -> Result<Formula, SemError> {
        use Expr::*;
        Ok(match e {
            Num(1) => Formula::True,
            Num(0) => Formula::False,
            Num(n) => return Err(SemError(format!("numeral {n} in spec position"))),
            Ident(name) => {
                if self.model.prop(name).is_some() {
                    Formula::ap(name.clone())
                } else if let Some(v) = self.define_value(name, Frame::Current)? {
                    // Register the define's BDD as a proposition.
                    let b = v.to_bool()?;
                    self.model.define_prop(name.clone(), b);
                    Formula::ap(name.clone())
                } else {
                    return Err(SemError(format!("unknown spec atom {name:?}")));
                }
            }
            Eq(..) | Neq(..) => {
                let negated = matches!(e, Neq(..));
                let canon = match e {
                    Eq(a, b) | Neq(a, b) => Expr::Eq(a.clone(), b.clone()),
                    _ => unreachable!(),
                };
                let atom_name = canon.to_string().replace(' ', "");
                if self.model.prop(&atom_name).is_none() {
                    let b = self.eval(&canon, Frame::Current)?.to_bool()?;
                    self.model.define_prop(atom_name.clone(), b);
                }
                let ap = Formula::ap(atom_name);
                if negated {
                    ap.not()
                } else {
                    ap
                }
            }
            Not(a) => self.spec_to_formula(a)?.not(),
            And(a, b) => self.spec_to_formula(a)?.and(self.spec_to_formula(b)?),
            Or(a, b) => self.spec_to_formula(a)?.or(self.spec_to_formula(b)?),
            Implies(a, b) => self.spec_to_formula(a)?.implies(self.spec_to_formula(b)?),
            Iff(a, b) => self.spec_to_formula(a)?.iff(self.spec_to_formula(b)?),
            Ex(a) => self.spec_to_formula(a)?.ex(),
            Ax(a) => self.spec_to_formula(a)?.ax(),
            Ef(a) => self.spec_to_formula(a)?.ef(),
            Af(a) => self.spec_to_formula(a)?.af(),
            Eg(a) => self.spec_to_formula(a)?.eg(),
            Ag(a) => self.spec_to_formula(a)?.ag(),
            Eu(a, b) => self.spec_to_formula(a)?.eu(self.spec_to_formula(b)?),
            Au(a, b) => self.spec_to_formula(a)?.au(self.spec_to_formula(b)?),
            Next(_) | Case(_) | Set(_) => {
                return Err(SemError(format!("illegal spec construct: {e}")))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;
    use cmc_ctl::Restriction;

    fn compiled(src: &str) -> CompiledModel {
        compile(&parse_module(src).unwrap()).unwrap()
    }

    #[test]
    fn boolean_variable_encoding() {
        let c = compiled("MODULE main\nVAR x : boolean;\nASSIGN next(x) := !x;");
        assert_eq!(c.vars[0].bit_names, vec!["x"]);
        assert_eq!(c.model.num_state_vars(), 1);
    }

    #[test]
    fn enum_encoding_uses_log2_bits() {
        let c = compiled("MODULE main\nVAR s : {a, b, c};\nASSIGN next(s) := s;");
        // Figure 3: 3 values -> 2 bits.
        assert_eq!(c.vars[0].bit_names.len(), 2);
        assert!(c.model.prop("s=a").is_some());
        assert!(c.model.prop("s=b").is_some());
        assert!(c.model.prop("s=c").is_some());
    }

    #[test]
    fn figure3_range_encoding() {
        // Figure 3 of the paper: x : 0..3 modelled with two booleans.
        let mut c =
            compiled("MODULE main\nVAR x : 0..3;\nASSIGN next(x) := case x = 3 : 0; 1 : x; esac;");
        assert_eq!(c.vars[0].bit_names, vec!["x#0", "x#1"]);
        // (x < 2) == (x=0 | x=1) == ¬x₁ in the paper's mapping (x#1 is the
        // high bit with LSB-first encoding).
        let x0 = c.model.prop("x=0").unwrap();
        let x1 = c.model.prop("x=1").unwrap();
        let lt2 = c.model.mgr().or(x0, x1);
        let hi = c.model.state_var("x#1").unwrap().clone();
        let not_hi = c.model.mgr().nvar(hi.cur);
        assert_eq!(lt2, not_hi);
    }

    #[test]
    fn deterministic_toggle_spec() {
        let mut c = compiled(
            "MODULE main\nVAR x : boolean;\nASSIGN init(x) := 0; next(x) := !x;\n\
             SPEC AG (x -> EX !x)\nSPEC EF x",
        );
        for (text, f) in c.specs.clone() {
            let v = c.model.check(&Restriction::trivial(), &f).unwrap();
            assert!(v.holds, "{text} failed");
        }
    }

    #[test]
    fn stutter_makes_ax_of_change_fail() {
        // next(x) := !x is deterministic in SMV, but our semantics keeps
        // the paper's reflexive stutter transition, so AX !x fails at x=0.
        let mut c =
            compiled("MODULE main\nVAR x : boolean;\nASSIGN next(x) := !x;\nSPEC !x -> AX x");
        let f = c.specs[0].1.clone();
        let v = c.model.check(&Restriction::trivial(), &f).unwrap();
        assert!(!v.holds);
    }

    #[test]
    fn nondeterministic_set_assignment() {
        let mut c = compiled(
            "MODULE main\nVAR s : {a, b, c};\nASSIGN next(s) := {a, b};\n\
             SPEC AG EX (s = a)\nSPEC AG EX (s = b)\nSPEC AG AX !(s = c)",
        );
        // From any state, both a and b are possible; c never again...
        // except by stuttering in c! So AX !(s=c) must fail in state c.
        let (s0, f0) = c.specs[0].clone();
        let v0 = c.model.check(&Restriction::trivial(), &f0).unwrap();
        assert!(v0.holds, "{s0}");
        let (_, f1) = c.specs[1].clone();
        assert!(c.model.check(&Restriction::trivial(), &f1).unwrap().holds);
        let (_, f2) = c.specs[2].clone();
        assert!(!c.model.check(&Restriction::trivial(), &f2).unwrap().holds);
    }

    #[test]
    fn case_first_match_wins() {
        let mut c = compiled(
            "MODULE main\nVAR s : {a, b};\n\
             ASSIGN next(s) := case s = a : b; s = a : a; 1 : s; esac;\n\
             SPEC s = a -> AX (s = b | s = a)",
        );
        // The second arm (s=a : a) is dead; from a the proper move goes to
        // b only (stutter keeps a).
        let f = c.specs[0].1.clone();
        assert!(c.model.check(&Restriction::trivial(), &f).unwrap().holds);
        // EX with the dead arm: from a, a proper transition to a would only
        // exist via stutter — check the relation directly: a -> b exists.
        let sa = c.model.prop("s=a").unwrap();
        let sb = c.model.prop("s=b").unwrap();
        let pre = c.model.pre_exists(sb);
        let mgr = c.model.mgr();
        assert!(mgr.implies_trivially(sa, pre));
    }

    #[test]
    fn init_assignments_restrict_initial_states() {
        let mut c = compiled(
            "MODULE main\nVAR x : boolean; y : boolean;\n\
             ASSIGN init(x) := 1;\nSPEC x",
        );
        let init = c.model.init();
        let x = c.model.prop("x").unwrap();
        let mgr = c.model.mgr();
        assert!(mgr.implies_trivially(init, x));
        // y is unconstrained initially: both values possible.
        assert_eq!(mgr.sat_count(init, 4) / 4.0, 2.0);
    }

    #[test]
    fn validity_excludes_junk_encodings() {
        let mut c = compiled("MODULE main\nVAR s : {a, b, c};\nASSIGN next(s) := s;");
        // 2 bits encode 4 patterns, only 3 valid. init = validity.
        let init = c.model.init();
        assert_eq!(c.model.mgr_ref().sat_count(init, 4) / 4.0, 3.0);
        let sa = c.model.prop("s=a").unwrap();
        let sb = c.model.prop("s=b").unwrap();
        let sc = c.model.prop("s=c").unwrap();
        let any = {
            let m = c.model.mgr();
            let ab = m.or(sa, sb);
            m.or(ab, sc)
        };
        assert_eq!(any, init);
    }

    #[test]
    fn trans_constraints_compile() {
        let mut c = compiled(
            "MODULE main\nVAR x : boolean;\nTRANS next(x) = x | next(x) != x\nSPEC AG EX x",
        );
        let f = c.specs[0].1.clone();
        assert!(c.model.check(&Restriction::trivial(), &f).unwrap().holds);
    }

    #[test]
    fn invar_restricts_states() {
        let mut c = compiled(
            "MODULE main\nVAR x : boolean; y : boolean;\nINVAR x | y\n\
             ASSIGN next(x) := {0, 1}; next(y) := {0, 1};\nSPEC AG (x | y)",
        );
        // INVAR folded into init and trans: the check passes on init states
        // (AG over transitions that respect the invariant).
        let f = c.specs[0].1.clone();
        let v = c.model.check(&Restriction::trivial(), &f).unwrap();
        assert!(v.holds);
    }

    #[test]
    fn fairness_constraints_registered() {
        let c = compiled("MODULE main\nVAR x : boolean;\nASSIGN next(x) := {0, 1};\nFAIRNESS x");
        assert_eq!(c.model.fairness().len(), 1);
    }

    #[test]
    fn defines_in_specs_become_props() {
        let mut c = compiled(
            "MODULE main\nVAR x : boolean; y : boolean;\n\
             DEFINE both := x & y;\nASSIGN next(x) := x; next(y) := y;\n\
             SPEC AG (both -> AX both)",
        );
        assert!(c.model.prop("both").is_some());
        let f = c.specs[0].1.clone();
        assert!(c.model.check(&Restriction::trivial(), &f).unwrap().holds);
    }

    #[test]
    fn decode_state_renders_values() {
        let c = compiled("MODULE main\nVAR x : boolean; s : {a, b, c};\nASSIGN next(s) := s;");
        let decoded = c.decode_state(&[true, false, true]);
        assert_eq!(decoded[0], ("x".to_string(), "1".to_string()));
        assert_eq!(decoded[1], ("s".to_string(), "c".to_string()));
        let junk = c.decode_state(&[false, true, true]);
        assert!(junk[1].1.contains("invalid"));
    }

    /// Conjoining a ring's `next` constraints as a balanced tree keeps the
    /// canonical relation and makes compile allocation grow about 2.2x
    /// per doubling of stations; a left fold grew it 4x.
    #[test]
    fn ring_compile_allocation_is_near_linear() {
        use cmc_serve::workload::ring_source;
        let [(rel24, alloc24), (rel48, alloc48)] = [24, 48].map(|n| {
            let c = compiled(&ring_source(n));
            let mgr = c.model.mgr_ref();
            let rel = mgr.node_count_many(&c.model.trans_parts());
            (rel, mgr.stats().nodes_allocated)
        });
        assert_eq!((rel24, rel48), (273, 561));
        assert!(
            alloc48 < 3 * alloc24,
            "{alloc24} -> {alloc48} nodes allocated"
        );
    }

    #[test]
    fn unassigned_next_is_unconstrained() {
        let mut c = compiled("MODULE main\nVAR x : boolean;\nSPEC AG (EX x & EX !x)");
        let f = c.specs[0].1.clone();
        assert!(c.model.check(&Restriction::trivial(), &f).unwrap().holds);
    }
}
