//! Symbolic fair-CTL model checking over [`SymbolicModel`]s.
//!
//! The same semantics as `cmc_ctl::Checker` (quantification over all states,
//! reflexive relation, Emerson–Lei fair `EG`), computed with BDD fixpoints —
//! this is the engine playing the role of SMV in the paper's case study.

use crate::model::SymbolicModel;
use crate::witness::NamedState;
use cmc_bdd::{Bdd, RootId};
use cmc_ctl::{Formula, Restriction};
use std::fmt;

/// Errors from the symbolic checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolicError {
    /// Formula mentions a proposition the model does not define.
    UnknownProposition(String),
}

impl fmt::Display for SymbolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicError::UnknownProposition(p) => {
                write!(f, "formula mentions undefined proposition {p:?}")
            }
        }
    }
}

impl std::error::Error for SymbolicError {}

/// Result of a symbolic `M ⊨_r f` check.
#[derive(Debug, Clone)]
pub struct SymbolicVerdict {
    /// Does the property hold?
    pub holds: bool,
    /// BDD of the `I`-states violating `f` (FALSE when `holds`).
    pub violating: Bdd,
    /// One violating state with proposition names attached, if any — the
    /// same diagnostic shape as the explicit checker's `Vec<State>`.
    pub witness: Option<NamedState>,
}

impl SymbolicModel {
    /// Translate a *propositional* formula to a BDD over current variables.
    pub fn prop_to_bdd(&mut self, f: &Formula) -> Result<Bdd, SymbolicError> {
        use Formula::*;
        Ok(match f {
            True => Bdd::TRUE,
            False => Bdd::FALSE,
            Ap(p) => self
                .prop(p)
                .ok_or_else(|| SymbolicError::UnknownProposition(p.clone()))?,
            Not(g) => {
                let b = self.prop_to_bdd(g)?;
                self.mgr().not(b)
            }
            And(..) | Or(..) => {
                // `Formula::and_many`/`or_many` fold left, so a long
                // conjunction nests down its left operand. Walk that spine
                // iteratively and recurse only into the right operands:
                // the recursion depth stays that of the operands, not the
                // chain's length (2016 for a 64-station exclusion
                // invariant). Operands are combined in the same order as
                // the plain recursion would.
                let is_and = matches!(f, And(..));
                let mut rights = Vec::new();
                let mut left = f;
                while let (And(a, b), true) | (Or(a, b), false) = (left, is_and) {
                    rights.push(b.as_ref());
                    left = a;
                }
                let mut acc = self.prop_to_bdd(left)?;
                for g in rights.into_iter().rev() {
                    let y = self.prop_to_bdd(g)?;
                    acc = if is_and {
                        self.mgr().and(acc, y)
                    } else {
                        self.mgr().or(acc, y)
                    };
                }
                acc
            }
            Implies(a, b) => {
                let (x, y) = (self.prop_to_bdd(a)?, self.prop_to_bdd(b)?);
                self.mgr().implies(x, y)
            }
            Iff(a, b) => {
                let (x, y) = (self.prop_to_bdd(a)?, self.prop_to_bdd(b)?);
                self.mgr().iff(x, y)
            }
            _ => panic!("prop_to_bdd on temporal formula {f}"),
        })
    }

    /// Least fixpoint `E[S1 U S2]`, computed frontier-seeded: each round
    /// only takes predecessors of the states added in the previous round
    /// (`pre` distributes over union, so accumulating `S1 ∧ EX frontier`
    /// reaches the same fixpoint as re-imaging the whole set). Every
    /// operand lives in the root registry, so the maintenance run between
    /// iterations can collect freely.
    pub fn until_exists(&mut self, s1: Bdd, s2: Bdd) -> Bdd {
        let rs1 = self.mgr().protect(s1);
        let total = self.mgr().protect(s2);
        let front = self.mgr().protect(s2);
        loop {
            self.maybe_maintain();
            let frontier = self.mgr().root(front);
            if frontier.is_false() {
                break;
            }
            let pre = self.pre_exists(frontier);
            let s1b = self.mgr().root(rs1);
            let step = self.mgr().and(s1b, pre);
            let z = self.mgr().root(total);
            let fresh = self.mgr().diff(step, z);
            let z = self.mgr().or(z, fresh);
            self.mgr().set_root(total, z);
            self.mgr().set_root(front, fresh);
        }
        let out = self.mgr().root(total);
        self.mgr().unprotect(rs1);
        self.mgr().unprotect(total);
        self.mgr().unprotect(front);
        out
    }

    /// Greatest fixpoint `EG S` (unfair). Greatest fixpoints shrink, so
    /// there is no frontier to seed — but the iterate is rooted and
    /// maintenance still runs between rounds.
    pub fn global_exists(&mut self, s: Bdd) -> Bdd {
        let rs = self.mgr().protect(s);
        let rz = self.mgr().protect(s);
        loop {
            self.maybe_maintain();
            let z = self.mgr().root(rz);
            let pre = self.pre_exists(z);
            let sb = self.mgr().root(rs);
            let step = self.mgr().and(sb, pre);
            if step == z {
                break;
            }
            self.mgr().set_root(rz, step);
        }
        let out = self.mgr().root(rz);
        self.mgr().unprotect(rs);
        self.mgr().unprotect(rz);
        out
    }

    /// Emerson–Lei fair `EG`: `νZ. S ∧ ⋀ᵢ EX (E[S U (Z ∧ Fᵢ)])`.
    ///
    /// The inner [`SymbolicModel::until_exists`] calls hit maintenance
    /// points, so every value carried around the loop (`S`, `Z`, the
    /// fairness sets, the partial conjunction) is re-read from its root
    /// after each one.
    pub fn global_exists_fair(&mut self, s: Bdd, fair_sets: &[Bdd]) -> Bdd {
        if fair_sets.is_empty() {
            return self.global_exists(s);
        }
        let rs = self.mgr().protect(s);
        let rfairs: Vec<RootId> = fair_sets.iter().map(|&f| self.mgr().protect(f)).collect();
        let rz = self.mgr().protect(s);
        loop {
            self.maybe_maintain();
            let rstep = self.mgr().protect(Bdd::TRUE);
            for &rfi in &rfairs {
                let z = self.mgr().root(rz);
                let fi = self.mgr().root(rfi);
                let target = self.mgr().and(z, fi);
                let sb = self.mgr().root(rs);
                let reach = self.until_exists(sb, target);
                let pre = self.pre_exists(reach);
                let acc = self.mgr().root(rstep);
                let acc = self.mgr().and(acc, pre);
                self.mgr().set_root(rstep, acc);
            }
            let sb = self.mgr().root(rs);
            let acc = self.mgr().root(rstep);
            let step = self.mgr().and(acc, sb);
            self.mgr().unprotect(rstep);
            let z = self.mgr().root(rz);
            if step == z {
                break;
            }
            self.mgr().set_root(rz, step);
        }
        let out = self.mgr().root(rz);
        self.mgr().unprotect(rs);
        for r in rfairs {
            self.mgr().unprotect(r);
        }
        self.mgr().unprotect(rz);
        out
    }

    /// States of `care` with at least one fair path, memoised per
    /// `(care, fairness-set list)`.
    ///
    /// `sat_under` recomputes the fairness sets for every nested call, but
    /// hash-consing makes the recomputed BDDs hit identical node ids while
    /// no GC has intervened — so a raw-id memo is exact. The key includes
    /// `care`, so a set restricted by [`SymbolicModel::check`] is never
    /// served to a full-space `sat_under` (`care` = TRUE). The memo is
    /// cleared on every GC, so it can never serve a stale id.
    pub fn fair_states(&mut self, care: Bdd, fair_sets: &[Bdd]) -> Bdd {
        let key: Vec<u32> = std::iter::once(care)
            .chain(fair_sets.iter().copied())
            .map(|b| b.raw())
            .collect();
        if let Some(hit) = self.fair_memo_get(&key) {
            return hit;
        }
        let epoch = self.maintenance_epoch();
        let result = self.global_exists_fair(care, fair_sets);
        // Only memoise if no maintenance ran mid-computation (the key's
        // ids would otherwise be stale).
        self.fair_memo_put(key, result, epoch);
        result
    }

    /// Satisfaction set of `f` with path quantifiers over all paths.
    pub fn sat(&mut self, f: &Formula) -> Result<Bdd, SymbolicError> {
        self.sat_under(f, &[])
    }

    /// Satisfaction set of `f` with path quantifiers over fair paths
    /// (fairness given as CTL formulas, as in a restriction `r = (I, F)`),
    /// over the whole `2^n` state space.
    pub fn sat_under(&mut self, f: &Formula, fairness: &[Formula]) -> Result<Bdd, SymbolicError> {
        let care = self.mgr().protect(Bdd::TRUE);
        let result = self.sat_within(f, fairness, Vec::new(), care);
        self.mgr().unprotect(care);
        result
    }

    /// Satisfaction set of `f` within `care`, under the borrowed fairness
    /// roots `fair_roots` plus the full-space sets of the non-trivial
    /// `fairness` formulas (rooted here for the duration of the call).
    fn sat_within(
        &mut self,
        f: &Formula,
        fairness: &[Formula],
        mut fair_roots: Vec<RootId>,
        care: RootId,
    ) -> Result<Bdd, SymbolicError> {
        let borrowed = fair_roots.len();
        let mut rooted = Ok(());
        for c in fairness.iter().filter(|c| **c != Formula::True) {
            match self.sat_under(c, &[]) {
                Ok(s) => fair_roots.push(self.mgr().protect(s)),
                Err(e) => {
                    rooted = Err(e);
                    break;
                }
            }
        }
        let result = rooted.and_then(|()| self.sat_with_fair_roots(f, &fair_roots, care));
        for &r in &fair_roots[borrowed..] {
            self.mgr().unprotect(r);
        }
        result
    }

    /// `sat_rec` entry point once the fairness sets and the care set are
    /// protected: computes (or memo-reads) the fair-state set within
    /// `care`, roots it, and recurses. With no fairness every state of
    /// `care` is fair (the stutter loop is a path), so the fair set is
    /// `care` itself.
    fn sat_with_fair_roots(
        &mut self,
        f: &Formula,
        fair_roots: &[RootId],
        care: RootId,
    ) -> Result<Bdd, SymbolicError> {
        let care_b = self.mgr().root(care);
        let fair = if fair_roots.is_empty() {
            care_b
        } else {
            let fs = self.resolve_fair(fair_roots);
            self.fair_states(care_b, &fs)
        };
        let rfair = self.mgr().protect(fair);
        let result = self.sat_rec(f, fair_roots, rfair, care);
        self.mgr().unprotect(rfair);
        result
    }

    fn resolve_fair(&self, roots: &[RootId]) -> Vec<Bdd> {
        roots.iter().map(|&r| self.mgr_ref().root(r)).collect()
    }

    /// `s ∧ care`, reading `care` from its root.
    fn within(&mut self, s: Bdd, care: RootId) -> Bdd {
        let care = self.mgr().root(care);
        self.mgr().and(s, care)
    }

    /// Recurse into both operands of a binary connective, keeping the
    /// first result protected while the second (which may run fixpoints,
    /// and therefore maintenance) computes.
    fn sat_pair(
        &mut self,
        a: &Formula,
        b: &Formula,
        fair_sets: &[RootId],
        fair: RootId,
        care: RootId,
    ) -> Result<(Bdd, Bdd), SymbolicError> {
        let sa = self.sat_rec(a, fair_sets, fair, care)?;
        let ra = self.mgr().protect(sa);
        let sb = match self.sat_rec(b, fair_sets, fair, care) {
            Ok(sb) => sb,
            Err(e) => {
                self.mgr().unprotect(ra);
                return Err(e);
            }
        };
        let sa = self.mgr().root(ra);
        self.mgr().unprotect(ra);
        Ok((sa, sb))
    }

    /// The recursion works over [`RootId`]s for the fairness sets, the
    /// fair-state set and the care set: subformula evaluation runs
    /// fixpoints, fixpoints run maintenance, and maintenance invalidates
    /// plain [`Bdd`] handles. Values produced *between* maintenance points
    /// (the `and`/`not` plumbing below) are safe to hold as plain handles.
    ///
    /// `care` is a successor-closed set (TRUE, or `Reach(I)` from
    /// [`SymbolicModel::check`]). Every fixpoint stays inside it: `until`
    /// operands and greatest-fixpoint seeds are conjoined with `care`, and
    /// image targets with `fair ⊆ care`. The result agrees with the
    /// full-space satisfaction set on every state of `care`, because
    /// every path from a `care` state stays in `care`; outside `care` it
    /// is unspecified.
    fn sat_rec(
        &mut self,
        f: &Formula,
        fair_sets: &[RootId],
        fair: RootId,
        care: RootId,
    ) -> Result<Bdd, SymbolicError> {
        use Formula::*;
        Ok(match f {
            True => Bdd::TRUE,
            False => Bdd::FALSE,
            Ap(_) => self.prop_to_bdd(f)?,
            Not(g) => {
                let b = self.sat_rec(g, fair_sets, fair, care)?;
                self.mgr().not(b)
            }
            And(a, b) => {
                let (x, y) = self.sat_pair(a, b, fair_sets, fair, care)?;
                self.mgr().and(x, y)
            }
            Or(a, b) => {
                let (x, y) = self.sat_pair(a, b, fair_sets, fair, care)?;
                self.mgr().or(x, y)
            }
            Implies(a, b) => {
                let (x, y) = self.sat_pair(a, b, fair_sets, fair, care)?;
                self.mgr().implies(x, y)
            }
            Iff(a, b) => {
                let (x, y) = self.sat_pair(a, b, fair_sets, fair, care)?;
                self.mgr().iff(x, y)
            }
            Ex(g) => {
                let sg = self.sat_rec(g, fair_sets, fair, care)?;
                let target = self.within(sg, fair);
                self.pre_exists(target)
            }
            Ax(g) => {
                let sg = self.sat_rec(g, fair_sets, fair, care)?;
                let ng = self.mgr().not(sg);
                let target = self.within(ng, fair);
                let pre = self.pre_exists(target);
                self.mgr().not(pre)
            }
            Ef(g) => {
                let sg = self.sat_rec(g, fair_sets, fair, care)?;
                let target = self.within(sg, fair);
                let care_b = self.mgr().root(care);
                self.until_exists(care_b, target)
            }
            Af(g) => {
                let sg = self.sat_rec(g, fair_sets, fair, care)?;
                let ng = self.mgr().not(sg);
                let seed = self.within(ng, care);
                let fairs = self.resolve_fair(fair_sets);
                let eg = self.global_exists_fair(seed, &fairs);
                self.mgr().not(eg)
            }
            Eg(g) => {
                let sg = self.sat_rec(g, fair_sets, fair, care)?;
                let seed = self.within(sg, care);
                let fairs = self.resolve_fair(fair_sets);
                self.global_exists_fair(seed, &fairs)
            }
            Ag(g) => {
                let sg = self.sat_rec(g, fair_sets, fair, care)?;
                let ng = self.mgr().not(sg);
                let target = self.within(ng, fair);
                let care_b = self.mgr().root(care);
                let ef = self.until_exists(care_b, target);
                self.mgr().not(ef)
            }
            Eu(a, b) => {
                let (sa, sb) = self.sat_pair(a, b, fair_sets, fair, care)?;
                let target = self.within(sb, fair);
                let s1 = self.within(sa, care);
                self.until_exists(s1, target)
            }
            Au(a, b) => {
                // ¬( E[¬b U (¬a ∧ ¬b)] ∨ EG ¬b ); ¬b is needed on both
                // sides of the disjunction, and `left` must survive the
                // second fixpoint, so both ride in the registry.
                let (sa, sb) = self.sat_pair(a, b, fair_sets, fair, care)?;
                let na = self.mgr().not(sa);
                let nb = self.mgr().not(sb);
                let nb = self.within(nb, care);
                let nanb = self.mgr().and(na, nb);
                let target = self.within(nanb, fair);
                let rnb = self.mgr().protect(nb);
                let left = self.until_exists(nb, target);
                let rleft = self.mgr().protect(left);
                let nb = self.mgr().root(rnb);
                self.mgr().unprotect(rnb);
                let fairs = self.resolve_fair(fair_sets);
                let right = self.global_exists_fair(nb, &fairs);
                let left = self.mgr().root(rleft);
                self.mgr().unprotect(rleft);
                let bad = self.mgr().or(left, right);
                self.mgr().not(bad)
            }
        })
    }

    /// `M ⊨_r f`: every state satisfying `r.init` (conjoined with the
    /// model's own initial predicate if set) satisfies `f` under
    /// `r.fairness` ∪ the model's own fairness formulas.
    ///
    /// Only the `I`-states are asked about, so every fixpoint runs inside
    /// `care = Reach(I)`, memoised per model (see
    /// [`SymbolicModel::reachable_memo`]). That is exact: `Reach(I)`
    /// contains `I` and is successor-closed, so the restricted
    /// satisfaction set agrees with the full-space one on every state
    /// of `I`, and `violating = I ∧ ¬sat(f)` is the same BDD — with the
    /// same witness — as a full-space evaluation would give.
    pub fn check(
        &mut self,
        r: &Restriction,
        f: &Formula,
    ) -> Result<SymbolicVerdict, SymbolicError> {
        let init = self.restricted_init(r)?;
        let care = self.reachable_from(init);
        let care = self.mgr().protect(care);
        // Model-level fairness constraints participate too. Their roots
        // are owned by the model — borrowed here, never unprotected.
        let model_fair = self.fairness_root_ids();
        let sat = self.sat_within(f, &r.fairness, model_fair, care);
        self.mgr().unprotect(care);
        let sat = sat?;
        // Everything below is maintenance-free (propositional ops and
        // witness extraction only), so plain handles are safe to hold.
        let init = self.restricted_init(r)?;
        let nsat = self.mgr().not(sat);
        let violating = self.mgr().and(init, nsat);
        let nvars = self.num_state_vars();
        let witness = self.mgr_ref().any_sat(violating).map(|partial| {
            let values = decode_cur_assignment(self, &partial, nvars);
            self.named_state(&values)
        });
        Ok(SymbolicVerdict {
            holds: violating.is_false(),
            violating,
            witness,
        })
    }

    /// `I = r.init ∧ init()`: the states `M ⊨_r f` asks about.
    pub fn restricted_init(&mut self, r: &Restriction) -> Result<Bdd, SymbolicError> {
        let init_r = self.prop_to_bdd(&r.init)?;
        let model_init = self.init();
        Ok(self.mgr().and(init_r, model_init))
    }

    /// `M ⊨ f` — true in every state (trivial restriction).
    pub fn holds_everywhere(&mut self, f: &Formula) -> Result<bool, SymbolicError> {
        Ok(self.sat(f)?.is_true())
    }
}

/// Decode a partial satisfying assignment into current-variable values.
fn decode_cur_assignment(
    model: &SymbolicModel,
    partial: &[(cmc_bdd::Var, bool)],
    nvars: usize,
) -> Vec<bool> {
    let mut out = vec![false; nvars];
    for (i, sv) in model.vars().iter().enumerate() {
        if let Some(&(_, b)) = partial.iter().find(|(v, _)| *v == sv.cur) {
            out[i] = b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_ctl::parse;
    use cmc_kripke::{Alphabet, System};

    fn counter() -> SymbolicModel {
        // 2-bit counter 00 -> 01 -> 10 -> 11 -> 00.
        let mut sys = System::new(Alphabet::new(["b0", "b1"]));
        sys.add_transition_named(&[], &["b0"]);
        sys.add_transition_named(&["b0"], &["b1"]);
        sys.add_transition_named(&["b1"], &["b0", "b1"]);
        sys.add_transition_named(&["b0", "b1"], &[]);
        SymbolicModel::from_explicit(&sys)
    }

    #[test]
    fn ef_holds_everywhere_on_cycle() {
        let mut m = counter();
        assert!(m.holds_everywhere(&parse("EF (b0 & b1)").unwrap()).unwrap());
        // `check` agrees, and the counter steps from 01 to 10.
        for spec in ["EF (b0 & b1)", "b0 & !b1 -> EX (!b0 & b1)"] {
            let v = m.check(&Restriction::trivial(), &parse(spec).unwrap());
            assert!(v.unwrap().holds, "{spec}");
        }
    }

    #[test]
    fn af_blocked_by_stuttering() {
        let mut m = counter();
        let sat = m.sat(&parse("AF (b0 & b1)").unwrap()).unwrap();
        // Only state 11 itself.
        assert_eq!(m.mgr_ref().sat_count(sat, 4) / 4.0, 1.0);
    }

    #[test]
    fn fairness_enables_progress() {
        let mut m = counter();
        let r = Restriction::new(Formula::True, [parse("b0 & b1").unwrap()]);
        let v = m.check(&r, &parse("AF (b0 & b1)").unwrap()).unwrap();
        assert!(v.holds);
        assert!(v.witness.is_none());
    }

    #[test]
    fn failing_check_produces_witness() {
        let mut m = counter();
        let v = m
            .check(&Restriction::trivial(), &parse("AF (b0 & b1)").unwrap())
            .unwrap();
        assert!(!v.holds);
        let w = v.witness.unwrap();
        // The witness must not be the goal state 11, and it carries
        // proposition names rather than positional booleans.
        assert!(!(w.get("b0").unwrap() && w.get("b1").unwrap()));
        assert_eq!(w.values().len(), 2);
    }

    #[test]
    fn unknown_prop_is_error() {
        let mut m = counter();
        assert_eq!(
            m.sat(&parse("nonexistent").unwrap()),
            Err(SymbolicError::UnknownProposition("nonexistent".into()))
        );
    }

    /// Cross-validation: symbolic and explicit checkers agree on every
    /// formula in a small corpus over the counter system.
    #[test]
    fn agrees_with_explicit_checker() {
        let mut sys = System::new(Alphabet::new(["b0", "b1"]));
        sys.add_transition_named(&[], &["b0"]);
        sys.add_transition_named(&["b0"], &["b1"]);
        sys.add_transition_named(&["b1"], &["b0", "b1"]);
        sys.add_transition_named(&["b0", "b1"], &[]);
        let explicit = cmc_ctl::Checker::new(&sys).unwrap();
        let mut symbolic = SymbolicModel::from_explicit(&sys);
        let corpus = [
            "b0",
            "EX b1",
            "AX (b0 | b1)",
            "EF (b0 & b1)",
            "AF b0",
            "EG !b1",
            "AG (b0 -> EX b1)",
            "E [!b1 U b1]",
            "A [!b1 U b1]",
            "AG (b0 & b1 -> AX (b0 | !b1))",
        ];
        for text in corpus {
            let f = parse(text).unwrap();
            let e = explicit.holds_everywhere(&f).unwrap();
            let s = symbolic.holds_everywhere(&f).unwrap();
            assert_eq!(e, s, "engines disagree on {text}");
        }
    }

    /// The adversarial maintenance schedule — collect at *every* safe
    /// point — must not change a single verdict, and must actually run
    /// collections.
    #[test]
    fn forced_maintenance_preserves_verdicts() {
        use crate::model::MaintenanceConfig;
        let corpus = [
            "EF (b0 & b1)",
            "AF b0",
            "EG !b1",
            "AG (b0 -> EX b1)",
            "A [!b1 U b1]",
            "E [!b1 U b1]",
            "AG (b0 & b1 -> AX (b0 | !b1))",
        ];
        let fair = [parse("b0 & b1").unwrap()];
        for text in corpus {
            let f = parse(text).unwrap();
            for fairness in [&[][..], &fair[..]] {
                let r = Restriction::new(Formula::True, fairness.to_vec());
                let mut plain = counter();
                plain.set_maintenance(MaintenanceConfig::disabled());
                let mut forced = counter();
                forced.set_maintenance(MaintenanceConfig::forced_every(1));
                let a = plain.check(&r, &f).unwrap().holds;
                let b = forced.check(&r, &f).unwrap().holds;
                assert_eq!(a, b, "maintenance changed the verdict on {text}");
                assert!(
                    forced.mgr_ref().stats().gc_runs > 0,
                    "forced schedule never collected on {text}"
                );
            }
        }
    }

    /// The `fair_states` memo returns the identical diagram on a repeat
    /// query, is invalidated by collection (its keys are raw node ids),
    /// and the recomputed answer after a GC is semantically unchanged.
    #[test]
    fn fair_states_memo_is_exact_and_gc_safe() {
        let mut m = counter();
        let goal = m.prop_to_bdd(&parse("b0 & b1").unwrap()).unwrap();
        let f1 = m.fair_states(Bdd::TRUE, &[goal]);
        let count = m.mgr_ref().sat_count(f1, 4);
        let f2 = m.fair_states(Bdd::TRUE, &[goal]);
        assert_eq!(f1, f2, "memo hit must return the identical node");
        m.gc_now(); // clears the memo; node ids are remapped
        let goal = m.prop_to_bdd(&parse("b0 & b1").unwrap()).unwrap();
        let f3 = m.fair_states(Bdd::TRUE, &[goal]);
        assert_eq!(
            m.mgr_ref().sat_count(f3, 4),
            count,
            "fair-state set changed across a collection"
        );
    }

    /// `check` reads the memoised `Reach(I)`; adding a partition that
    /// makes a new state reachable must drop the memo, or the `AG`
    /// verdict below would be answered inside the stale set.
    #[test]
    fn new_partition_drops_the_reach_memo() {
        let mut m = SymbolicModel::new(vec!["a".into(), "b".into()]);
        let (a, b) = (
            m.state_var("a").unwrap().clone(),
            m.state_var("b").unwrap().clone(),
        );
        let g = m.mgr();
        let (ac, an, bc, bn) = (g.var(a.cur), g.var(a.next), g.var(b.cur), g.var(b.next));
        let (nac, nbc) = (g.not(ac), g.not(bc));
        let rise_a = g.and(nac, an);
        let set_b = g.and(ac, nbc);
        let set_b = g.and(set_b, bn);
        let init = g.and(nac, nbc);
        m.set_init(init);
        m.add_trans_part_owned(rise_a, vec![0]);
        let r = Restriction::trivial();
        let f = parse("AG !b").unwrap();
        assert!(m.check(&r, &f).unwrap().holds);
        let reach = m.reachable_memo().expect("check memoises Reach(I)");
        assert_eq!(m.mgr_ref().sat_count(reach, 4) / 4.0, 2.0);
        m.add_trans_part_owned(set_b, vec![1]);
        assert!(m.reachable_memo().is_none());
        assert!(!m.check(&r, &f).unwrap().holds, "stale reach memo");
    }

    /// Cross-validation under fairness.
    #[test]
    fn agrees_with_explicit_checker_under_fairness() {
        let mut sys = System::new(Alphabet::new(["p", "q"]));
        sys.add_transition_named(&["p"], &["p", "q"]); // helpful move p -> q
        sys.add_transition_named(&["p", "q"], &["q"]);
        let explicit = cmc_ctl::Checker::new(&sys).unwrap();
        let mut symbolic = SymbolicModel::from_explicit(&sys);
        let fair = [parse("!p | q").unwrap()];
        for text in ["A [p U q]", "E [p U q]", "AF q", "EG p"] {
            let f = parse(text).unwrap();
            let r = Restriction::new(Formula::ap("p"), fair.clone());
            let e = explicit.check(&r, &f).unwrap().holds;
            let s = symbolic.check(&r, &f).unwrap().holds;
            assert_eq!(e, s, "engines disagree on {text} under fairness");
        }
    }
}
