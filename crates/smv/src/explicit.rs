//! Compilation of SMV modules to explicit-state systems.
//!
//! A second, independent implementation of the language semantics: states
//! are enumerated concretely (one value per variable), transitions are
//! computed by direct evaluation of the `ASSIGN`/`TRANS` sections, and the
//! result is a `cmc_kripke::System` over the *bit* propositions of the
//! Figure-3 boolean encoding — bit-compatible with [`crate::compile::compile()`]'s
//! symbolic output. The two compilers are cross-validated in the test
//! suite; disagreement between them would expose a bug in either encoding.

use crate::ast::{Expr, Module, Type};
use crate::check::{check_module, SemError, Symbols};
use crate::compile::CompiledVar;
use cmc_ctl::{Checker, ExplicitLimits, Formula, StateSet};
use cmc_kripke::{Alphabet, State, System};
use std::sync::OnceLock;

/// An SMV module compiled to an explicit system.
#[derive(Debug)]
pub struct ExplicitCompiled {
    /// The system over bit propositions (reflexive stutter implicit).
    pub system: System,
    /// The initial states (validity ∧ `init(..)` assigns ∧ `INIT` ∧ `INVAR`).
    pub init_states: Vec<State>,
    /// Fairness constraints as bit-level propositional formulas.
    pub fairness: Vec<Formula>,
    /// `SPEC`s translated to bit-level CTL formulas.
    pub specs: Vec<(String, Formula)>,
    /// Per-variable encoding metadata (same layout as the symbolic side).
    pub vars: Vec<CompiledVar>,
    /// Atom table: canonical atom spelling (`x`, `x=1`, `s=val`, define
    /// names) → bit-level propositional formula. Used by
    /// [`ExplicitCompiled::parse_formula`].
    pub atoms: std::collections::BTreeMap<String, Formula>,
    /// The limits this module was compiled under; checking consults
    /// `dense_bits` to pick the dense or reachable-only kernel.
    pub limits: ExplicitLimits,
    /// The checker (and its CSR index), built from `system`,
    /// `init_states` and `limits` on the first check and shared by every
    /// later one — so change those fields only before checking.
    checker: OnceLock<Checker>,
}

/// A concrete value during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CValue {
    Bool(bool),
    Val(String),
}

impl CValue {
    fn as_bool(&self) -> Result<bool, SemError> {
        match self {
            CValue::Bool(b) => Ok(*b),
            CValue::Val(v) if v == "1" => Ok(true),
            CValue::Val(v) if v == "0" => Ok(false),
            CValue::Val(v) => Err(SemError(format!("value {v:?} in boolean context"))),
        }
    }

    fn name(&self) -> String {
        match self {
            CValue::Bool(true) => "1".into(),
            CValue::Bool(false) => "0".into(),
            CValue::Val(v) => v.clone(),
        }
    }
}

struct Env<'a> {
    cur: &'a [usize],
    next: Option<&'a [usize]>,
}

struct Ctx<'m> {
    syms: Symbols<'m>,
    vars: Vec<CompiledVar>,
    domains: Vec<Vec<String>>,
}

/// Compile a module to an explicit system under the default
/// [`ExplicitLimits`]. Runs the semantic checker.
pub fn compile_explicit(module: &Module) -> Result<ExplicitCompiled, SemError> {
    compile_explicit_with(module, &ExplicitLimits::default())
}

/// Compile a module to an explicit system. Runs the semantic checker.
///
/// Compilation enumerates the *valid* states — the product of the variable
/// domains, not the `2^bits` bit universe — because the composition layer
/// takes the component `.system`s and composes them itself; dropping
/// unreachable valid states here would change what the product means. The
/// budget guard is therefore in **states** (`Π|domᵢ|` against
/// `limits.max_states`), with a hard 128-bit cap from the `State` encoding.
/// Models whose bit width exceeds `limits.dense_bits` are still *checked*
/// reachable-only (see [`ExplicitCompiled::check_spec`]).
pub fn compile_explicit_with(
    module: &Module,
    limits: &ExplicitLimits,
) -> Result<ExplicitCompiled, SemError> {
    check_module(module)?;
    let syms = Symbols::new(module)?;

    let mut vars = Vec::new();
    let mut domains = Vec::new();
    let mut bit_names = Vec::new();
    for (name, ty) in &module.vars {
        let width = ty.bits();
        let names: Vec<String> = if matches!(ty, Type::Boolean) {
            vec![name.clone()]
        } else {
            (0..width).map(|j| format!("{name}#{j}")).collect()
        };
        bit_names.extend(names.iter().cloned());
        domains.push(ty.values());
        vars.push(CompiledVar {
            name: name.clone(),
            ty: ty.clone(),
            bit_names: names,
        });
    }
    let total_bits: usize = vars.iter().map(|v| v.bit_names.len()).sum();
    if total_bits > 128 {
        return Err(SemError(format!(
            "explicit compilation limited to 128 encoded bits, model needs {total_bits}"
        )));
    }
    let valid_count = domains
        .iter()
        .try_fold(1u128, |acc, d| acc.checked_mul(d.len() as u128));
    let budget = limits.state_budget() as u128;
    match valid_count {
        Some(n) if n <= budget => {}
        _ => {
            return Err(SemError(format!(
                "explicit compilation budgeted to {budget} states, model has {} valid states",
                valid_count.map_or_else(|| "over 2^128".to_string(), |n| n.to_string())
            )))
        }
    }
    let alphabet = Alphabet::new(bit_names);
    let ctx = Ctx {
        syms,
        vars,
        domains,
    };

    // Enumerate concrete states (vectors of value indices).
    let all_states = enumerate(&ctx.domains);

    // INVAR filter.
    let mut valid = Vec::new();
    for st in &all_states {
        let env = Env {
            cur: st,
            next: None,
        };
        let mut ok = true;
        for inv in &module.invar_constraints {
            if !eval_single(&ctx, inv, &env)?.as_bool()? {
                ok = false;
                break;
            }
        }
        if ok {
            valid.push(st.clone());
        }
    }

    // Transitions.
    let mut system = System::new(alphabet);
    for s in &valid {
        // Per-variable candidate next indices.
        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(ctx.vars.len());
        for (vi, v) in ctx.vars.iter().enumerate() {
            if let Some((_, rhs)) = module.next_assigns.iter().find(|(n, _)| *n == v.name) {
                let env = Env { cur: s, next: None };
                let values = eval_multi(&ctx, rhs, &env)?;
                let mut idxs = Vec::new();
                for val in values {
                    let name = val.name();
                    let idx = ctx.domains[vi]
                        .iter()
                        .position(|d| *d == name)
                        .ok_or_else(|| {
                            SemError(format!("value {name:?} outside domain of {}", v.name))
                        })?;
                    if !idxs.contains(&idx) {
                        idxs.push(idx);
                    }
                }
                candidates.push(idxs);
            } else {
                candidates.push((0..ctx.domains[vi].len()).collect());
            }
        }
        for t in product(&candidates) {
            // TRANS and INVAR-on-next filters.
            let env = Env {
                cur: s,
                next: Some(&t),
            };
            let mut ok = true;
            for tr in &module.trans_constraints {
                if !eval_single(&ctx, tr, &env)?.as_bool()? {
                    ok = false;
                    break;
                }
            }
            if ok {
                let envn = Env {
                    cur: &t,
                    next: None,
                };
                for inv in &module.invar_constraints {
                    if !eval_single(&ctx, inv, &envn)?.as_bool()? {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                system.add_transition(encode(&ctx, s), encode(&ctx, &t));
            }
        }
    }

    // Initial states.
    let mut init_states = Vec::new();
    'states: for s in &valid {
        let env = Env { cur: s, next: None };
        for (var, rhs) in &module.init_assigns {
            let vi = ctx.vars.iter().position(|v| v.name == *var).unwrap();
            let allowed = eval_multi(&ctx, rhs, &env)?;
            let actual = &ctx.domains[vi][s[vi]];
            if !allowed.iter().any(|v| v.name() == *actual) {
                continue 'states;
            }
        }
        for c in &module.init_constraints {
            if !eval_single(&ctx, c, &env)?.as_bool()? {
                continue 'states;
            }
        }
        init_states.push(encode(&ctx, s));
    }

    // Fairness and specs to bit-level formulas.
    let fairness = module
        .fairness
        .iter()
        .map(|e| expr_to_bit_formula(&ctx, e))
        .collect::<Result<Vec<_>, _>>()?;
    let specs = module
        .specs
        .iter()
        .map(|(text, e)| Ok((text.clone(), expr_to_bit_formula(&ctx, e)?)))
        .collect::<Result<Vec<_>, SemError>>()?;

    // Atom table for parse_formula: every `var=value` spelling, plain
    // boolean variables, and expanded DEFINEs.
    let mut atoms = std::collections::BTreeMap::new();
    for (vi, v) in ctx.vars.iter().enumerate() {
        match &v.ty {
            Type::Boolean => {
                atoms.insert(v.name.clone(), Formula::ap(v.name.clone()));
                atoms.insert(format!("{}=1", v.name), Formula::ap(v.name.clone()));
                atoms.insert(format!("{}=0", v.name), Formula::ap(v.name.clone()).not());
            }
            _ => {
                for (idx, value) in ctx.domains[vi].iter().enumerate() {
                    atoms.insert(
                        format!("{}={}", v.name, value),
                        var_equals_formula(&ctx, vi, idx),
                    );
                }
            }
        }
    }
    for (name, body) in &module.defines {
        atoms.insert(name.clone(), expr_to_bit_formula(&ctx, body)?);
    }

    Ok(ExplicitCompiled {
        system,
        init_states,
        fairness,
        specs,
        vars: ctx.vars,
        atoms,
        limits: *limits,
        checker: OnceLock::new(),
    })
}

impl ExplicitCompiled {
    /// The checker this module's width calls for, built once: dense
    /// labelling up to `limits.dense_bits`, the hash-compacted
    /// reachable-only kernel (seeded from the initial states) beyond. Spec
    /// verdicts agree between the two modes because the reachable fragment
    /// is successor-closed and specs are quantified over initial states
    /// only. A failed build is not cached, so it fails again on retry.
    fn checker(&self) -> Result<&Checker, cmc_ctl::CheckError> {
        if let Some(checker) = self.checker.get() {
            return Ok(checker);
        }
        let bits = self.system.alphabet().len();
        let checker = if bits <= self.limits.dense_bits {
            Checker::from_components(
                &[&self.system],
                self.system.alphabet(),
                self.limits.dense_bits,
            )?
        } else {
            Checker::reachable_from_system(&self.system, &self.init_states, &self.limits)?
        };
        Ok(self.checker.get_or_init(|| checker))
    }

    /// Is `s` in `sat`, whichever index space the checker labels in?
    fn sat_at(checker: &Checker, sat: &StateSet, s: State) -> bool {
        checker
            .index_of_state(s)
            .is_some_and(|i| sat.contains_index(i))
    }

    /// Check one spec: true iff every initial state satisfies it under the
    /// module's fairness constraints.
    pub fn check_spec(&self, idx: usize) -> Result<bool, cmc_ctl::CheckError> {
        Ok(self.violating_init(idx)?.is_empty())
    }

    /// The initial states violating spec `idx` under the module's fairness
    /// constraints (empty when it holds). One satisfaction set answers
    /// both the verdict and its witnesses.
    pub fn violating_init(&self, idx: usize) -> Result<Vec<State>, cmc_ctl::CheckError> {
        let checker = self.checker()?;
        let f = &self.specs[idx].1;
        let sat = checker.sat_fair(f, &self.fairness)?;
        Ok(self
            .init_states
            .iter()
            .copied()
            .filter(|s| !Self::sat_at(checker, &sat, *s))
            .collect())
    }

    /// Decode a bit-level state into `(variable, value)` pairs in
    /// declaration order (the inverse of the Figure-3 encoding).
    pub fn decode_state(&self, s: State) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut offset = 0usize;
        for v in &self.vars {
            let width = v.bit_names.len();
            let idx = ((s.0 >> offset) & ((1u128 << width) - 1)) as usize;
            let value = match v.ty {
                Type::Boolean => if idx == 1 { "1" } else { "0" }.to_string(),
                _ => {
                    v.ty.values()
                        .get(idx)
                        .cloned()
                        .unwrap_or_else(|| format!("<invalid encoding {idx}>"))
                }
            };
            out.push((v.name.clone(), value));
            offset += width;
        }
        out
    }

    /// The domain-validity predicate of the Figure-3 encoding: every
    /// multi-bit variable's pattern denotes a real value. States outside
    /// this predicate exist in `2^Σ` but are not images of any source
    /// state; §3.4 of the paper treats the state space as the valid
    /// encodings, so quantified component obligations should be relativised
    /// to this formula.
    pub fn validity_formula(&self) -> Formula {
        let mut conjuncts = Vec::new();
        for v in &self.vars {
            let k = v.ty.cardinality();
            let width = v.bit_names.len();
            if k == 1usize << width {
                continue;
            }
            let any_value = Formula::or_many((0..k).map(|idx| {
                Formula::and_many(v.bit_names.iter().enumerate().map(|(j, name)| {
                    if idx >> j & 1 == 1 {
                        Formula::ap(name.clone())
                    } else {
                        Formula::ap(name.clone()).not()
                    }
                }))
            }));
            conjuncts.push(any_value);
        }
        Formula::and_many(conjuncts)
    }

    /// Parse a CTL formula in SMV `SPEC` syntax (e.g.
    /// `"AG (belief = valid -> AX belief = valid)"`) and translate its
    /// atoms to bit-level propositions via the atom table.
    pub fn parse_formula(&self, text: &str) -> Result<Formula, SemError> {
        let parsed = cmc_ctl::parse(text).map_err(|e| SemError(e.to_string()))?;
        self.substitute_atoms(&parsed)
    }

    fn substitute_atoms(&self, f: &Formula) -> Result<Formula, SemError> {
        use Formula::*;
        Ok(match f {
            True => True,
            False => False,
            Ap(name) => self
                .atoms
                .get(name)
                .cloned()
                .ok_or_else(|| SemError(format!("unknown atom {name:?}")))?,
            Not(a) => self.substitute_atoms(a)?.not(),
            And(a, b) => self.substitute_atoms(a)?.and(self.substitute_atoms(b)?),
            Or(a, b) => self.substitute_atoms(a)?.or(self.substitute_atoms(b)?),
            Implies(a, b) => self.substitute_atoms(a)?.implies(self.substitute_atoms(b)?),
            Iff(a, b) => self.substitute_atoms(a)?.iff(self.substitute_atoms(b)?),
            Ex(a) => self.substitute_atoms(a)?.ex(),
            Ax(a) => self.substitute_atoms(a)?.ax(),
            Ef(a) => self.substitute_atoms(a)?.ef(),
            Af(a) => self.substitute_atoms(a)?.af(),
            Eg(a) => self.substitute_atoms(a)?.eg(),
            Ag(a) => self.substitute_atoms(a)?.ag(),
            Eu(a, b) => self.substitute_atoms(a)?.eu(self.substitute_atoms(b)?),
            Au(a, b) => self.substitute_atoms(a)?.au(self.substitute_atoms(b)?),
        })
    }
}

fn enumerate(domains: &[Vec<String>]) -> Vec<Vec<usize>> {
    let sizes: Vec<usize> = domains.iter().map(|d| d.len()).collect();
    let ranges: Vec<Vec<usize>> = sizes.iter().map(|&k| (0..k).collect()).collect();
    product(&ranges)
}

fn product(choices: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for c in choices {
        let mut next = Vec::with_capacity(out.len() * c.len());
        for prefix in &out {
            for &v in c {
                let mut p = prefix.clone();
                p.push(v);
                next.push(p);
            }
        }
        out = next;
    }
    out
}

/// Bit-encode a concrete state (value indices) into a `State`.
fn encode(ctx: &Ctx<'_>, s: &[usize]) -> State {
    let mut bits = 0u128;
    let mut offset = 0usize;
    for (vi, v) in ctx.vars.iter().enumerate() {
        let width = v.bit_names.len();
        bits |= (s[vi] as u128) << offset;
        offset += width;
    }
    State(bits)
}

/// Evaluate an expression expecting a single (deterministic) value.
fn eval_single(ctx: &Ctx<'_>, e: &Expr, env: &Env<'_>) -> Result<CValue, SemError> {
    let mut vals = eval_multi(ctx, e, env)?;
    if vals.len() != 1 {
        return Err(SemError(format!(
            "nondeterministic value where one expected: {e}"
        )));
    }
    Ok(vals.pop().unwrap())
}

/// Evaluate to the set of possible values (sets arise from `{..}` only).
fn eval_multi(ctx: &Ctx<'_>, e: &Expr, env: &Env<'_>) -> Result<Vec<CValue>, SemError> {
    use Expr::*;
    Ok(match e {
        Num(n) => vec![CValue::Val(n.to_string())],
        Ident(name) => {
            if let Some(vi) = ctx.vars.iter().position(|v| v.name == *name) {
                let idx = env.cur[vi];
                value_of(ctx, vi, idx)
            } else if let Some(body) = ctx.syms.defines.get(name.as_str()) {
                eval_multi(ctx, &(*body).clone(), env)?
            } else {
                vec![CValue::Val(name.clone())]
            }
        }
        Next(inner) => match inner.as_ref() {
            Ident(name) => {
                let vi = ctx
                    .vars
                    .iter()
                    .position(|v| v.name == *name)
                    .ok_or_else(|| SemError(format!("unknown variable {name:?}")))?;
                let next = env
                    .next
                    .ok_or_else(|| SemError("next(..) outside transition context".into()))?;
                value_of(ctx, vi, next[vi])
            }
            other => return Err(SemError(format!("next({other}) must wrap a variable"))),
        },
        Not(a) => vec![CValue::Bool(!eval_single(ctx, a, env)?.as_bool()?)],
        And(a, b) => vec![CValue::Bool(
            eval_single(ctx, a, env)?.as_bool()? && eval_single(ctx, b, env)?.as_bool()?,
        )],
        Or(a, b) => vec![CValue::Bool(
            eval_single(ctx, a, env)?.as_bool()? || eval_single(ctx, b, env)?.as_bool()?,
        )],
        Implies(a, b) => vec![CValue::Bool(
            !eval_single(ctx, a, env)?.as_bool()? || eval_single(ctx, b, env)?.as_bool()?,
        )],
        Iff(a, b) => vec![CValue::Bool(
            eval_single(ctx, a, env)?.as_bool()? == eval_single(ctx, b, env)?.as_bool()?,
        )],
        Eq(a, b) => {
            let va = eval_single(ctx, a, env)?;
            let vb = eval_single(ctx, b, env)?;
            vec![CValue::Bool(va.name() == vb.name())]
        }
        Neq(a, b) => {
            let va = eval_single(ctx, a, env)?;
            let vb = eval_single(ctx, b, env)?;
            vec![CValue::Bool(va.name() != vb.name())]
        }
        Case(arms) => {
            for (cond, val) in arms {
                if eval_single(ctx, cond, env)?.as_bool()? {
                    return eval_multi(ctx, val, env);
                }
            }
            return Err(SemError(format!("no case arm matched in {e}")));
        }
        Set(items) => {
            let mut out = Vec::new();
            for item in items {
                out.extend(eval_multi(ctx, item, env)?);
            }
            out
        }
        Ex(_) | Ax(_) | Ef(_) | Af(_) | Eg(_) | Ag(_) | Eu(..) | Au(..) => {
            return Err(SemError(format!("temporal operator in expression: {e}")))
        }
    })
}

fn value_of(ctx: &Ctx<'_>, vi: usize, idx: usize) -> Vec<CValue> {
    match &ctx.vars[vi].ty {
        Type::Boolean => vec![CValue::Bool(idx == 1)],
        other => vec![CValue::Val(other.values()[idx].clone())],
    }
}

/// Bit-level propositional formula "variable vi has value index idx".
fn var_equals_formula(ctx: &Ctx<'_>, vi: usize, idx: usize) -> Formula {
    let bits = &ctx.vars[vi].bit_names;
    Formula::and_many(bits.iter().enumerate().map(|(j, name)| {
        if idx >> j & 1 == 1 {
            Formula::ap(name.clone())
        } else {
            Formula::ap(name.clone()).not()
        }
    }))
}

/// Translate an SMV expression into a CTL formula over bit propositions.
/// Leaf patterns: bare boolean variables/defines and `=`/`!=` atoms.
fn expr_to_bit_formula(ctx: &Ctx<'_>, e: &Expr) -> Result<Formula, SemError> {
    use Expr::*;
    Ok(match e {
        Num(1) => Formula::True,
        Num(0) => Formula::False,
        Num(n) => return Err(SemError(format!("numeral {n} in formula position"))),
        Ident(name) => {
            if let Some(vi) = ctx.vars.iter().position(|v| v.name == *name) {
                match ctx.vars[vi].ty {
                    Type::Boolean => Formula::ap(name.clone()),
                    _ => {
                        return Err(SemError(format!(
                            "enumerated variable {name:?} used as a formula"
                        )))
                    }
                }
            } else if let Some(body) = ctx.syms.defines.get(name.as_str()) {
                expr_to_bit_formula(ctx, &(*body).clone())?
            } else {
                return Err(SemError(format!("unknown formula atom {name:?}")));
            }
        }
        Eq(a, b) | Neq(a, b) => {
            let base = equality_formula(ctx, a, b)?;
            if matches!(e, Neq(..)) {
                base.not()
            } else {
                base
            }
        }
        Not(a) => expr_to_bit_formula(ctx, a)?.not(),
        And(a, b) => expr_to_bit_formula(ctx, a)?.and(expr_to_bit_formula(ctx, b)?),
        Or(a, b) => expr_to_bit_formula(ctx, a)?.or(expr_to_bit_formula(ctx, b)?),
        Implies(a, b) => expr_to_bit_formula(ctx, a)?.implies(expr_to_bit_formula(ctx, b)?),
        Iff(a, b) => expr_to_bit_formula(ctx, a)?.iff(expr_to_bit_formula(ctx, b)?),
        Ex(a) => expr_to_bit_formula(ctx, a)?.ex(),
        Ax(a) => expr_to_bit_formula(ctx, a)?.ax(),
        Ef(a) => expr_to_bit_formula(ctx, a)?.ef(),
        Af(a) => expr_to_bit_formula(ctx, a)?.af(),
        Eg(a) => expr_to_bit_formula(ctx, a)?.eg(),
        Ag(a) => expr_to_bit_formula(ctx, a)?.ag(),
        Eu(a, b) => expr_to_bit_formula(ctx, a)?.eu(expr_to_bit_formula(ctx, b)?),
        Au(a, b) => expr_to_bit_formula(ctx, a)?.au(expr_to_bit_formula(ctx, b)?),
        Next(_) | Case(_) | Set(_) => {
            return Err(SemError(format!("illegal formula construct: {e}")))
        }
    })
}

/// `a = b` over bits: enumerate the shared domain values.
fn equality_formula(ctx: &Ctx<'_>, a: &Expr, b: &Expr) -> Result<Formula, SemError> {
    // Each side is a variable, a literal/numeral, or a define (booleans).
    let side = |e: &Expr| -> Result<Side, SemError> {
        match e {
            Expr::Ident(name) => {
                if let Some(vi) = ctx.vars.iter().position(|v| v.name == *name) {
                    Ok(Side::Var(vi))
                } else if ctx.syms.defines.contains_key(name.as_str()) {
                    Ok(Side::Formula(expr_to_bit_formula(ctx, e)?))
                } else {
                    Ok(Side::Const(name.clone()))
                }
            }
            Expr::Num(n) => Ok(Side::Const(n.to_string())),
            other => Ok(Side::Formula(expr_to_bit_formula(ctx, other)?)),
        }
    };
    let (sa, sb) = (side(a)?, side(b)?);
    Ok(match (sa, sb) {
        (Side::Var(vi), Side::Const(c)) | (Side::Const(c), Side::Var(vi)) => {
            let dom = ctx.domains[vi].clone();
            let boolish = matches!(ctx.vars[vi].ty, Type::Boolean);
            let idx = if boolish {
                match c.as_str() {
                    "1" => 1,
                    "0" => 0,
                    other => return Err(SemError(format!("bad boolean literal {other:?}"))),
                }
            } else {
                dom.iter()
                    .position(|d| *d == c)
                    .ok_or_else(|| SemError(format!("value {c:?} outside domain")))?
            };
            var_equals_formula(ctx, vi, idx)
        }
        (Side::Var(va), Side::Var(vb)) => {
            let shared: Vec<(usize, usize)> = ctx.domains[va]
                .iter()
                .enumerate()
                .filter_map(|(i, v)| ctx.domains[vb].iter().position(|w| w == v).map(|j| (i, j)))
                .collect();
            Formula::or_many(
                shared.into_iter().map(|(i, j)| {
                    var_equals_formula(ctx, va, i).and(var_equals_formula(ctx, vb, j))
                }),
            )
        }
        (Side::Const(x), Side::Const(y)) => {
            if x == y {
                Formula::True
            } else {
                Formula::False
            }
        }
        (Side::Formula(f), Side::Formula(g)) => f.iff(g),
        (Side::Formula(f), Side::Const(c)) | (Side::Const(c), Side::Formula(f)) => {
            match c.as_str() {
                "1" => f,
                "0" => f.not(),
                other => return Err(SemError(format!("bad boolean literal {other:?}"))),
            }
        }
        (Side::Formula(f), Side::Var(vi)) | (Side::Var(vi), Side::Formula(f)) => {
            if !matches!(ctx.vars[vi].ty, Type::Boolean) {
                return Err(SemError("boolean/enum equality mismatch".into()));
            }
            f.iff(Formula::ap(ctx.vars[vi].name.clone()))
        }
    })
}

enum Side {
    Var(usize),
    Const(String),
    Formula(Formula),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;
    use cmc_ctl::Restriction;

    fn build(src: &str) -> ExplicitCompiled {
        compile_explicit(&parse_module(src).unwrap()).unwrap()
    }

    #[test]
    fn toggle_system_shape() {
        let c = build("MODULE main\nVAR x : boolean;\nASSIGN init(x) := 0; next(x) := !x;");
        assert_eq!(c.system.alphabet().len(), 1);
        assert_eq!(c.system.proper_transition_count(), 2); // 0->1, 1->0
        assert_eq!(c.init_states, vec![State(0)]);
    }

    #[test]
    fn enum_domain_enumeration() {
        let c = build("MODULE main\nVAR s : {a, b, c};\nASSIGN next(s) := {a, b};");
        // 3 valid states; each has proper transitions to a and b (minus
        // stutters): from a: ->b; from b: ->a; from c: ->a, ->b. Total 4.
        assert_eq!(c.system.proper_transition_count(), 4);
        // Junk encoding (index 3) has no outgoing/incoming proper arcs.
        assert_eq!(c.init_states.len(), 3);
    }

    #[test]
    fn trans_constraint_filters() {
        let c = build("MODULE main\nVAR x : boolean; y : boolean;\nTRANS next(y) = y | x");
        // y may change only when x holds.
        for (s, t) in c.system.proper_transitions() {
            let al = c.system.alphabet();
            let y_changed = s.contains_named(al, "y") != t.contains_named(al, "y");
            if y_changed {
                assert!(s.contains_named(al, "x"));
            }
        }
    }

    #[test]
    fn specs_check_explicitly() {
        let c = build(
            "MODULE main\nVAR x : boolean;\nASSIGN init(x) := 0; next(x) := !x;\n\
             SPEC EF x\nSPEC AG (x -> EX !x)",
        );
        assert!(c.check_spec(0).unwrap());
        assert!(c.check_spec(1).unwrap());
    }

    #[test]
    fn fairness_in_explicit_checks() {
        let c = build(
            "MODULE main\nVAR x : boolean;\nASSIGN init(x) := 0; next(x) := 1;\n\
             FAIRNESS x\nSPEC AF x",
        );
        // Without fairness AF x would fail by stuttering at 0.
        assert!(c.check_spec(0).unwrap());
    }

    #[test]
    fn invar_removes_states() {
        let c = build(
            "MODULE main\nVAR x : boolean; y : boolean;\nINVAR x | y\n\
             ASSIGN next(x) := {0,1}; next(y) := {0,1};",
        );
        // State 00 excluded: no transition touches it.
        assert_eq!(c.init_states.len(), 3);
        for (s, t) in c.system.proper_transitions() {
            assert_ne!(s, State(0));
            assert_ne!(t, State(0));
        }
    }

    #[test]
    fn equality_between_variables() {
        let c = build(
            "MODULE main\nVAR s : {a, b}; t : {b, c};\nASSIGN next(s) := s; next(t) := t;\n\
             SPEC AG (s = t -> s = b)",
        );
        assert!(c.check_spec(0).unwrap());
    }

    #[test]
    fn state_budget_enforced_in_states_not_bits() {
        // 25 booleans = 2^25 ≈ 33.5M valid states: past the default
        // 2^21-state budget, refused before any enumeration happens.
        let vars: String = (0..25).map(|i| format!("v{i} : boolean;\n")).collect();
        let module = parse_module(&format!("MODULE main\nVAR {vars}")).unwrap();
        let err = compile_explicit(&module).unwrap_err();
        assert!(err.0.contains("budgeted to"), "{}", err.0);
        // The same width clears a raised budget (the guard counts valid
        // states, not encoded bits) — use a tiny module to keep it fast.
        let small = parse_module("MODULE main\nVAR x : boolean;").unwrap();
        let tight = ExplicitLimits::budgeted(1);
        let err = compile_explicit_with(&small, &tight).unwrap_err();
        assert!(err.0.contains("model has 2 valid states"), "{}", err.0);
        assert!(compile_explicit_with(&small, &ExplicitLimits::budgeted(2)).is_ok());
    }

    /// Past `dense_bits`, spec checking runs the reachable-only kernel
    /// seeded from the initial states — verdicts must match the dense
    /// kernel's on the same module.
    #[test]
    fn wide_specs_check_reachable_only() {
        let vars: String = (0..3).map(|i| format!("s{i} : {{a, b, c}};\n")).collect();
        let assigns: String = (0..3)
            .map(|i| format!("init(s{i}) := a; next(s{i}) := case s{i} = a : b; 1 : s{i}; esac;\n"))
            .collect();
        let src = format!(
            "MODULE main\nVAR {vars}ASSIGN {assigns}SPEC AG (s0 = c -> AX s0 = c)\nSPEC EF s1 = b"
        );
        let module = parse_module(&src).unwrap();
        let dense = compile_explicit(&module).unwrap(); // 6 bits ≤ 24: dense
        let narrow = ExplicitLimits {
            dense_bits: 4,
            ..ExplicitLimits::default()
        };
        let reachable = compile_explicit_with(&module, &narrow).unwrap();
        for idx in 0..2 {
            assert_eq!(
                dense.check_spec(idx).unwrap(),
                reachable.check_spec(idx).unwrap(),
                "kernels disagree on spec {idx}"
            );
            assert_eq!(
                dense.violating_init(idx).unwrap(),
                reachable.violating_init(idx).unwrap()
            );
        }
        assert!(dense.check_spec(0).unwrap() && dense.check_spec(1).unwrap());
    }

    /// The decisive test: symbolic and explicit compilation of the same
    /// module must agree on every spec.
    #[test]
    fn cross_validation_with_symbolic_compiler() {
        let src = "
MODULE main
VAR
  s : {idle, busy, done};
  flag : boolean;
ASSIGN
  init(s) := idle;
  next(s) := case
    s = idle : {idle, busy};
    s = busy & flag : done;
    s = busy : busy;
    1 : s;
  esac;
  next(flag) := {0, 1};
SPEC AG (s = done -> AX s = done)
SPEC E [s = idle U s = busy]
SPEC AG (s = idle -> EX s = busy)
SPEC AF (s = done)
SPEC EF (s = done)
SPEC AG (s = busy & flag -> EX s = done)
";
        let module = parse_module(src).unwrap();
        let explicit = compile_explicit(&module).unwrap();
        let mut symbolic = crate::compile::compile(&module).unwrap();
        for (i, (text, f)) in symbolic.specs.clone().iter().enumerate() {
            let sym = symbolic
                .model
                .check(&Restriction::trivial(), f)
                .unwrap()
                .holds;
            let exp = explicit.check_spec(i).unwrap();
            assert_eq!(sym, exp, "engines disagree on {text}");
        }
    }
}
