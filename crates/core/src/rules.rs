//! Progress rules (Rules 4 and 5), the safety/invariant rule, and the
//! refinement layer's side conditions — the machinery that produces
//! *guarantees properties* from component-level model checking (§3.3,
//! §4.2.3, §5 of the paper) and keeps abstraction substitution sound.

use crate::backend::{check_refines, BackendChoice, BackendKind};
use cmc_ctl::{Checker, Formula, Restriction};
use cmc_kripke::{Alphabet, SimulationOutcome, State, System};
use std::fmt;

/// Errors from rule application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// A rule side condition requires a propositional formula.
    NotPropositional(String),
    /// The rule's model-checking premise failed on the component.
    PremiseFailed(String),
    /// Explicit checking failed (alphabet/size).
    Check(String),
    /// Malformed cover for Rule 5.
    BadCover(String),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::NotPropositional(m) => write!(f, "not propositional: {m}"),
            RuleError::PremiseFailed(m) => write!(f, "rule premise failed: {m}"),
            RuleError::Check(m) => write!(f, "model checking error: {m}"),
            RuleError::BadCover(m) => write!(f, "bad cover: {m}"),
        }
    }
}

impl std::error::Error for RuleError {}

/// A *guarantees* property of a component: if the **composed system**
/// satisfies every left-hand obligation, it satisfies every right-hand
/// conclusion. Guarantees properties are themselves existential, so they
/// are inherited by any system containing the component (§3.3).
#[derive(Debug, Clone)]
pub struct Guarantee {
    /// Obligations on the composed system: `(formula, restriction)`.
    pub lhs: Vec<(Formula, Restriction)>,
    /// Conclusions that then hold of the composed system.
    pub rhs: Vec<(Formula, Restriction)>,
    /// Human-readable provenance (which rule, which component, which
    /// parameters).
    pub provenance: String,
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "guarantee [{}]:", self.provenance)?;
        for (g, r) in &self.lhs {
            writeln!(f, "  requires ⊨_{r} {g}")?;
        }
        for (g, r) in &self.rhs {
            writeln!(f, "  ensures  ⊨_{r} {g}")?;
        }
        Ok(())
    }
}

/// **Rule 4** (weak fairness). Let `M` be a component with
/// `M ⊨ p ⇒ EX q` (the helpful transition is always enabled), and let
/// `r = (true, {¬p ∨ q})`. Then `M` satisfies
///
/// ```text
/// (p ⇒ AX (p ∨ q))  guarantees_r  ((p ⇒ A(p U q)) ∧ (p ⇒ E(p U q)))
/// ```
///
/// The premise is model-checked on `M` here; the returned [`Guarantee`]
/// carries the obligation and conclusions for the composed system.
pub fn rule4(m: &System, p: &Formula, q: &Formula) -> Result<Guarantee, RuleError> {
    require_propositional(p, "p")?;
    require_propositional(q, "q")?;
    let checker = Checker::new(m).map_err(|e| RuleError::Check(e.to_string()))?;
    let premise = p.clone().implies(q.clone().ex());
    let ok = checker
        .holds_everywhere(&premise)
        .map_err(|e| RuleError::Check(e.to_string()))?;
    if !ok {
        return Err(RuleError::PremiseFailed(format!("M ⊭ {premise}")));
    }
    let r = Restriction::with_fairness([p.clone().not().or(q.clone())]);
    let p_or_q = p.clone().or(q.clone());
    Ok(Guarantee {
        lhs: vec![(
            p.clone().implies(p_or_q.clone().ax()),
            Restriction::trivial(),
        )],
        rhs: vec![
            (p.clone().implies(p.clone().au(q.clone())), r.clone()),
            (p.clone().implies(p.clone().eu(q.clone())), r),
        ],
        provenance: format!("Rule 4 with p = {p}, q = {q}"),
    })
}

/// **Rule 5** (strong fairness). Let `p = p₁ ∨ … ∨ pₙ` be a cover, and let
/// `M ⊨ p_helpful ⇒ EX q` for a helpful disjunct. With
/// `r = (true, {¬p ∨ q})`, `M` satisfies
///
/// ```text
/// (p ⇒ AX (p ∨ q)) ∧ (∀j :: pⱼ ⇒ EF p_helpful)
///   guarantees_r  ((p ⇒ A(p U q)) ∧ (p ⇒ E(p U q)))
/// ```
///
/// Unlike Rule 4, the environment may disable the helpful transition as
/// long as the system can always re-enable it (the `EF` obligations).
pub fn rule5(
    m: &System,
    cover: &[Formula],
    helpful: usize,
    q: &Formula,
) -> Result<Guarantee, RuleError> {
    if cover.is_empty() {
        return Err(RuleError::BadCover("empty cover".into()));
    }
    if helpful >= cover.len() {
        return Err(RuleError::BadCover(format!(
            "helpful index {helpful} out of range (cover has {} disjuncts)",
            cover.len()
        )));
    }
    for (j, pj) in cover.iter().enumerate() {
        require_propositional(pj, &format!("p{}", j + 1))?;
    }
    require_propositional(q, "q")?;
    let p = Formula::or_many(cover.iter().cloned());
    let pi = cover[helpful].clone();
    let checker = Checker::new(m).map_err(|e| RuleError::Check(e.to_string()))?;
    let premise = pi.clone().implies(q.clone().ex());
    let ok = checker
        .holds_everywhere(&premise)
        .map_err(|e| RuleError::Check(e.to_string()))?;
    if !ok {
        return Err(RuleError::PremiseFailed(format!("M ⊭ {premise}")));
    }
    let r = Restriction::with_fairness([p.clone().not().or(q.clone())]);
    let p_or_q = p.clone().or(q.clone());
    let mut lhs = vec![(p.clone().implies(p_or_q.ax()), Restriction::trivial())];
    for pj in cover {
        lhs.push((pj.clone().implies(pi.clone().ef()), Restriction::trivial()));
    }
    Ok(Guarantee {
        lhs,
        rhs: vec![
            (p.clone().implies(p.clone().au(q.clone())), r.clone()),
            (p.clone().implies(p.clone().eu(q.clone())), r),
        ],
        provenance: format!(
            "Rule 5 with cover of {} disjuncts, helpful p{} = {pi}, q = {q}",
            cover.len(),
            helpful + 1
        ),
    })
}

/// The **invariant rule** used throughout §4.2.3/§4.3.4 and motivated in
/// the Discussion: if `Inv` is propositional, `I ⇒ Inv` is valid, and
/// `Inv ⇒ AX Inv` holds in every component (a *universal* property by
/// Rule 2), then the composed system satisfies `AG Inv` under `r = (I, F)`.
///
/// This function only packages the obligations; discharging them is the
/// engine's job ([`crate::engine`]).
pub fn invariant_obligations(
    inv: &Formula,
    init: &Formula,
) -> Result<(Formula, Formula), RuleError> {
    require_propositional(inv, "Inv")?;
    require_propositional(init, "I")?;
    // (universal obligation, validity obligation I ⇒ Inv)
    Ok((
        inv.clone().implies(inv.clone().ax()),
        init.clone().implies(inv.clone()),
    ))
}

fn require_propositional(f: &Formula, what: &str) -> Result<(), RuleError> {
    if f.is_propositional() {
        Ok(())
    } else {
        Err(RuleError::NotPropositional(format!("{what} = {f}")))
    }
}

// ---------------------------------------------------------------------------
// Refinement layer: abstraction substitution and circular assume-guarantee.
// ---------------------------------------------------------------------------

/// Typed rejection reasons for the refinement layer. Every way a
/// substitution or circular discharge can be *unsound* is refused loudly
/// with one of these, never silently answered with a wrong verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefinementError {
    /// The abstraction's alphabet is not a subset of the concrete
    /// component's — projection-based simulation semantics need Σ_A ⊆ Σ_C.
    AlphabetNotSubset {
        /// Which component was being abstracted.
        component: String,
        /// The abstract propositions absent from the concrete alphabet.
        missing: Vec<String>,
    },
    /// The abstraction drops a proposition the concrete component shares
    /// with the context. Unsound: a concrete move changing that shared
    /// proposition would be invisible on the abstract side, so the
    /// substituted composition could satisfy properties the real one
    /// violates.
    SharedPropositionDropped {
        /// Which component was being abstracted.
        component: String,
        /// The shared propositions the abstraction dropped.
        props: Vec<String>,
    },
    /// The property (or restriction) reads propositions that survive in
    /// neither the abstraction nor the context, so its truth value is not
    /// preserved across the substitution.
    PropertyOutsideAbstraction {
        /// The out-of-scope propositions.
        props: Vec<String>,
    },
    /// The property is not in the universal fragment (ACTL). Existential
    /// properties do not transfer from the abstraction down to the
    /// concrete system — the abstraction has *more* behaviours.
    NotUniversal {
        /// The offending (sub)formula.
        formula: String,
    },
    /// The restriction's init or fairness constraints are not
    /// propositional; the projection argument needs state-local
    /// restrictions.
    RestrictionNotPropositional {
        /// Which part of the restriction, rendered.
        what: String,
    },
    /// A simulation premise failed. Carries the premise name and the
    /// concrete counterexample so the caller can repair the abstraction.
    SimulationFailed {
        /// Human-readable premise, e.g. `"C1 ∘ A2 ⊑ A1 ∘ A2"`.
        premise: String,
        /// Rendered counterexample from the simulation checker.
        counterexample: String,
    },
    /// The circular rule's base case is malformed (non-propositional,
    /// out of scope, too wide to decide, or unsatisfiable — a vacuous
    /// discharge proves nothing and is rejected, not silently accepted).
    CircularBaseCaseFailed {
        /// Why the base case was rejected.
        reason: String,
    },
    /// The underlying simulation backend failed (e.g. a forced explicit
    /// policy on an over-wide pair universe).
    Check(String),
}

impl fmt::Display for RefinementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefinementError::AlphabetNotSubset { component, missing } => write!(
                f,
                "abstraction of {component} introduces propositions absent from the \
                 concrete component: {missing:?}"
            ),
            RefinementError::SharedPropositionDropped { component, props } => write!(
                f,
                "abstraction of {component} drops propositions shared with the \
                 context: {props:?} (unsound — context-visible moves would vanish)"
            ),
            RefinementError::PropertyOutsideAbstraction { props } => write!(
                f,
                "property reads propositions surviving in neither the abstraction \
                 nor the context: {props:?}"
            ),
            RefinementError::NotUniversal { formula } => write!(
                f,
                "property is not in the universal fragment (ACTL): {formula}"
            ),
            RefinementError::RestrictionNotPropositional { what } => {
                write!(f, "restriction is not propositional: {what}")
            }
            RefinementError::SimulationFailed {
                premise,
                counterexample,
            } => write!(f, "simulation premise {premise} failed: {counterexample}"),
            RefinementError::CircularBaseCaseFailed { reason } => {
                write!(f, "circular discharge rejected: {reason}")
            }
            RefinementError::Check(m) => write!(f, "refinement check error: {m}"),
        }
    }
}

impl std::error::Error for RefinementError {}

fn is_universal(f: &Formula) -> bool {
    use Formula::*;
    match f {
        True | False | Ap(_) => true,
        // Negation (and the connectives that hide one) is only allowed
        // on propositional subformulas — ¬ under a path quantifier would
        // flip it to the existential fragment.
        Not(g) => g.is_propositional(),
        Iff(a, b) => a.is_propositional() && b.is_propositional(),
        Implies(a, b) => a.is_propositional() && is_universal(b),
        And(a, b) | Or(a, b) => is_universal(a) && is_universal(b),
        Ax(g) | Ag(g) | Af(g) => is_universal(g),
        Au(a, b) => is_universal(a) && is_universal(b),
        Ex(_) | Ef(_) | Eg(_) | Eu(..) => false,
    }
}

/// Require `f` to lie in the universal fragment (ACTL): `AX/AG/AF/AU`
/// over `∧/∨`, with negation confined to propositional subformulas.
/// Universal properties are exactly the ones preserved downwards through
/// a simulation — the abstraction over-approximates behaviour, so
/// whatever holds on *all* its paths holds on the concrete paths they
/// cover; an existential witness on the abstract side need not exist
/// concretely.
pub fn require_universal(f: &Formula) -> Result<(), RefinementError> {
    if is_universal(f) {
        Ok(())
    } else {
        Err(RefinementError::NotUniversal {
            formula: f.to_string(),
        })
    }
}

/// The soundness side conditions of the **abstraction substitution rule**:
/// to conclude `C ∘ rest ⊨_r f` from `C ⊑ A` and `A ∘ rest ⊨_r f`, all of
/// the following must hold:
///
/// 1. `Σ_A ⊆ Σ_C` — the abstraction only *forgets* state, never invents
///    propositions the component does not have.
/// 2. `Σ_C ∩ Σ_rest ⊆ Σ_A` — every proposition the component shares with
///    its context survives abstraction. Dropping a shared proposition is
///    unsound: a concrete move toggling it would be invisible abstractly,
///    so the substituted composition would miss real interactions.
/// 3. `props(f) ∪ props(r) ⊆ Σ_A ∪ Σ_rest` — the property and restriction
///    only read surviving state.
/// 4. `f` is universal ([`require_universal`]) and `r` is propositional —
///    the preservation theorem transfers exactly ACTL over state-local
///    restrictions.
pub fn substitution_side_conditions(
    component: &str,
    concrete: &System,
    abstraction: &System,
    rest: &[&System],
    r: &Restriction,
    f: &Formula,
) -> Result<(), RefinementError> {
    let sigma_c = concrete.alphabet();
    let sigma_a = abstraction.alphabet();
    if !sigma_a.is_subset_of(sigma_c) {
        return Err(RefinementError::AlphabetNotSubset {
            component: component.to_string(),
            missing: sigma_a.difference(sigma_c),
        });
    }
    let mut dropped: Vec<String> = sigma_c
        .names()
        .iter()
        .filter(|p| !sigma_a.contains(p))
        .filter(|p| rest.iter().any(|m| m.alphabet().contains(p)))
        .cloned()
        .collect();
    dropped.sort();
    if !dropped.is_empty() {
        return Err(RefinementError::SharedPropositionDropped {
            component: component.to_string(),
            props: dropped,
        });
    }
    let surviving = Alphabet::union_of(
        [sigma_a]
            .into_iter()
            .chain(rest.iter().map(|m| m.alphabet())),
    );
    let mut out_of_scope: Vec<String> = f
        .atomic_props()
        .into_iter()
        .chain(r.init.atomic_props())
        .chain(r.fairness.iter().flat_map(|g| g.atomic_props()))
        .filter(|p| !surviving.contains(p))
        .collect();
    out_of_scope.sort();
    out_of_scope.dedup();
    if !out_of_scope.is_empty() {
        return Err(RefinementError::PropertyOutsideAbstraction {
            props: out_of_scope,
        });
    }
    require_universal(f)?;
    if !r.init.is_propositional() {
        return Err(RefinementError::RestrictionNotPropositional {
            what: format!("I = {}", r.init),
        });
    }
    for g in &r.fairness {
        if !g.is_propositional() {
            return Err(RefinementError::RestrictionNotPropositional {
                what: format!("fairness constraint {g}"),
            });
        }
    }
    Ok(())
}

/// Evidence of a successful **circular assume-guarantee** discharge: both
/// cross premises held, and the base case is genuinely inhabited.
#[derive(Debug, Clone)]
pub struct CircularDischarge {
    /// Premise `C₁ ∘ A₂ ⊑ A₁ ∘ A₂`, with the engine that decided it.
    pub h1: (SimulationOutcome, BackendKind),
    /// Premise `A₁ ∘ C₂ ⊑ A₁ ∘ A₂`, with the engine that decided it.
    pub h2: (SimulationOutcome, BackendKind),
    /// Number of assignments over the base case's own propositions that
    /// satisfy it (> 0 by construction — a vacuous base is rejected).
    pub base_states: u128,
}

/// Widest base-case support the satisfiability sweep will enumerate.
const MAX_BASE_PROPS: usize = 24;

/// The **circular assume-guarantee rule**: conclude
/// `C₁ ∘ C₂ ⊑ A₁ ∘ A₂` from the two cross premises
///
/// ```text
/// H1:  C₁ ∘ A₂ ⊑ A₁ ∘ A₂        H2:  A₁ ∘ C₂ ⊑ A₁ ∘ A₂
/// ```
///
/// Each premise lets one concrete component lean on the *other's
/// abstraction* — that mutual dependency is what makes the rule circular,
/// and in general such circles are unsound. Here the conclusion is
/// grounded twice over:
///
/// * **Projection factoring.** In the paper's stutter-closed all-states
///   semantics with `Σ_Aᵢ ⊆ Σ_Cᵢ`, a `C₁`-move inside the full
///   composition changes only `Σ_C₁` bits, so its projection onto
///   `Σ_A₁ ∪ Σ_A₂` factors through the projection onto `Σ_C₁ ∪ Σ_A₂` —
///   an instance H1 quantifies over (H1 ranges over *all* states,
///   i.e. every padding of the context bits). Symmetrically for `C₂`
///   via H2. Induction over moves is therefore well-founded.
/// * **Base case.** `base` (the restriction's `I` in engine use) must be
///   propositional, read only surviving propositions, and be
///   *satisfiable* — a vacuous discharge (no state satisfies the base)
///   proves nothing and is rejected with
///   [`RefinementError::CircularBaseCaseFailed`], never reported as a
///   success.
///
/// Any violated side condition or failed premise returns a typed
/// [`RefinementError`]; a wrong verdict is never produced.
pub fn circular_refines(
    choice: BackendChoice,
    c1: &System,
    a1: &System,
    c2: &System,
    a2: &System,
    base: &Formula,
) -> Result<CircularDischarge, RefinementError> {
    for (name, c, a) in [("C1", c1, a1), ("C2", c2, a2)] {
        if !a.alphabet().is_subset_of(c.alphabet()) {
            return Err(RefinementError::AlphabetNotSubset {
                component: name.to_string(),
                missing: a.alphabet().difference(c.alphabet()),
            });
        }
    }
    // Base case: propositional, in scope, and inhabited.
    if !base.is_propositional() {
        return Err(RefinementError::CircularBaseCaseFailed {
            reason: format!("base case {base} is not propositional"),
        });
    }
    let abstract_union = a1.alphabet().union(a2.alphabet());
    let base_props: Vec<String> = base.atomic_props().into_iter().collect();
    if let Some(p) = base_props.iter().find(|p| !abstract_union.contains(p)) {
        return Err(RefinementError::CircularBaseCaseFailed {
            reason: format!("base case reads proposition {p:?} outside the abstract alphabet"),
        });
    }
    if base_props.len() > MAX_BASE_PROPS {
        return Err(RefinementError::CircularBaseCaseFailed {
            reason: format!(
                "base case reads {} propositions (limit {MAX_BASE_PROPS})",
                base_props.len()
            ),
        });
    }
    let base_alpha = Alphabet::new(base_props);
    let base_states = (0u128..1 << base_alpha.len())
        .filter(|&s| base.eval_in_state(&base_alpha, State(s)))
        .count() as u128;
    if base_states == 0 {
        return Err(RefinementError::CircularBaseCaseFailed {
            reason: format!("base case {base} is unsatisfiable — the discharge would be vacuous"),
        });
    }
    // The two cross premises, each against the joint abstraction.
    let spec = a1.compose(a2);
    let h1 = check_refines(choice, &c1.compose(a2), &spec)
        .map_err(|e| RefinementError::Check(e.to_string()))?;
    if let Some(cx) = h1.0.counterexample() {
        return Err(RefinementError::SimulationFailed {
            premise: "C1 ∘ A2 ⊑ A1 ∘ A2".to_string(),
            counterexample: cx.display(c1.compose(a2).alphabet()),
        });
    }
    let h2 = check_refines(choice, &a1.compose(c2), &spec)
        .map_err(|e| RefinementError::Check(e.to_string()))?;
    if let Some(cx) = h2.0.counterexample() {
        return Err(RefinementError::SimulationFailed {
            premise: "A1 ∘ C2 ⊑ A1 ∘ A2".to_string(),
            counterexample: cx.display(a1.compose(c2).alphabet()),
        });
    }
    Ok(CircularDischarge {
        h1,
        h2,
        base_states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_ctl::parse;
    use cmc_kripke::Alphabet;

    /// Helpful component: in p-states, a transition to q is always enabled.
    fn helpful() -> System {
        let mut m = System::new(Alphabet::new(["p", "q"]));
        // p ∧ ¬q -> q (helpful move); also p∧q etc. handled by stutter.
        m.add_transition_named(&["p"], &["q"]);
        m.add_transition_named(&["p", "q"], &["q"]);
        m
    }

    #[test]
    fn rule4_constructs_guarantee() {
        let m = helpful();
        let g = rule4(&m, &parse("p").unwrap(), &parse("q").unwrap()).unwrap();
        assert_eq!(g.lhs.len(), 1);
        assert_eq!(g.rhs.len(), 2);
        assert!(g.lhs[0].1.is_trivial());
        assert_eq!(g.rhs[0].1.fairness, vec![parse("!p | q").unwrap()]);
        assert!(g.provenance.contains("Rule 4"));
        let shown = g.to_string();
        assert!(shown.contains("requires"));
        assert!(shown.contains("ensures"));
    }

    #[test]
    fn rule4_premise_checked() {
        // A system with NO p -> q move: premise p ⇒ EX q fails (state
        // {p} has only the stutter successor).
        let m = System::new(Alphabet::new(["p", "q"]));
        let err = rule4(&m, &parse("p").unwrap(), &parse("q").unwrap()).unwrap_err();
        assert!(matches!(err, RuleError::PremiseFailed(_)));
    }

    #[test]
    fn rule4_requires_propositional() {
        let m = helpful();
        let err = rule4(&m, &parse("EF p").unwrap(), &parse("q").unwrap()).unwrap_err();
        assert!(matches!(err, RuleError::NotPropositional(_)));
    }

    #[test]
    fn rule5_constructs_guarantee_with_ef_obligations() {
        let m = helpful();
        let cover = vec![parse("p & !q").unwrap(), parse("p & q").unwrap()];
        let g = rule5(&m, &cover, 1, &parse("q").unwrap()).unwrap();
        // 1 AX obligation + 2 EF obligations.
        assert_eq!(g.lhs.len(), 3);
        assert!(g.lhs[1].0.to_string().contains("EF"));
        assert_eq!(g.rhs.len(), 2);
    }

    #[test]
    fn rule5_validates_cover() {
        let m = helpful();
        assert!(matches!(
            rule5(&m, &[], 0, &parse("q").unwrap()),
            Err(RuleError::BadCover(_))
        ));
        let cover = vec![parse("p").unwrap()];
        assert!(matches!(
            rule5(&m, &cover, 5, &parse("q").unwrap()),
            Err(RuleError::BadCover(_))
        ));
    }

    #[test]
    fn rule5_premise_on_helpful_disjunct() {
        let m = helpful();
        // Helpful disjunct p∧¬q does have an EX q move in `helpful`.
        let cover = vec![parse("p & !q").unwrap()];
        assert!(rule5(&m, &cover, 0, &parse("q").unwrap()).is_ok());
        // But a disjunct without the move fails.
        let mut no_move = System::new(Alphabet::new(["p", "q"]));
        no_move.add_transition_named(&["q"], &["p"]);
        let err = rule5(&no_move, &cover, 0, &parse("q").unwrap()).unwrap_err();
        assert!(matches!(err, RuleError::PremiseFailed(_)));
    }

    /// Toggler on `name` with a private scratch bit `scratch`.
    fn scratch_toggler(name: &str, scratch: &str) -> System {
        let mut m = System::new(Alphabet::new([name, scratch]));
        m.add_transition_named(&[], &[scratch]);
        m.add_transition_named(&[scratch], &[scratch, name]);
        m.add_transition_named(&[scratch, name], &[name]);
        m.add_transition_named(&[name], &[]);
        m
    }

    #[test]
    fn universal_fragment_is_classified_correctly() {
        for text in [
            "AG (p -> AX q)",
            "AF q",
            "A [p U q]",
            "!p | AG q",
            "p -> AG (q | !p)",
        ] {
            assert!(require_universal(&parse(text).unwrap()).is_ok(), "{text}");
        }
        for text in ["EF p", "AG EF p", "!AG p", "!(p & AX q)", "p <-> AG q"] {
            assert!(
                matches!(
                    require_universal(&parse(text).unwrap()),
                    Err(RefinementError::NotUniversal { .. })
                ),
                "{text} should be rejected"
            );
        }
    }

    #[test]
    fn substitution_side_conditions_reject_each_unsoundness() {
        let c = scratch_toggler("x", "s");
        let a = c.project(&Alphabet::new(["x"]));
        let ctx = System::new(Alphabet::new(["y"]));
        let r = Restriction::trivial();
        let f = parse("AG (x -> x)").unwrap();
        assert!(substitution_side_conditions("C", &c, &a, &[&ctx], &r, &f).is_ok());
        // 1. Abstraction inventing propositions.
        let alien = System::new(Alphabet::new(["x", "alien"]));
        assert!(matches!(
            substitution_side_conditions("C", &c, &alien, &[&ctx], &r, &f),
            Err(RefinementError::AlphabetNotSubset { missing, .. }) if missing == vec!["alien"]
        ));
        // 2. Dropping a proposition shared with the context.
        let shares_s = System::new(Alphabet::new(["s"]));
        assert!(matches!(
            substitution_side_conditions("C", &c, &a, &[&shares_s], &r, &f),
            Err(RefinementError::SharedPropositionDropped { props, .. }) if props == vec!["s"]
        ));
        // 3. Property reading dropped state.
        let reads_s = parse("AG (s -> s)").unwrap();
        assert!(matches!(
            substitution_side_conditions("C", &c, &a, &[&ctx], &r, &reads_s),
            Err(RefinementError::PropertyOutsideAbstraction { props }) if props == vec!["s"]
        ));
        // 4. Existential property.
        assert!(matches!(
            substitution_side_conditions("C", &c, &a, &[&ctx], &r, &parse("EF x").unwrap()),
            Err(RefinementError::NotUniversal { .. })
        ));
        // 5. Temporal restriction.
        let bad_r = Restriction::with_init(parse("AG x").unwrap());
        assert!(matches!(
            substitution_side_conditions("C", &c, &a, &[&ctx], &bad_r, &f),
            Err(RefinementError::RestrictionNotPropositional { .. })
        ));
    }

    #[test]
    fn circular_discharge_closes_on_cross_projections() {
        let c1 = scratch_toggler("x", "s1");
        let a1 = c1.project(&Alphabet::new(["x"]));
        let c2 = scratch_toggler("y", "s2");
        let a2 = c2.project(&Alphabet::new(["y"]));
        let out = circular_refines(
            BackendChoice::Auto,
            &c1,
            &a1,
            &c2,
            &a2,
            &parse("!x & !y").unwrap(),
        )
        .unwrap();
        assert!(out.h1.0.holds() && out.h2.0.holds());
        assert_eq!(out.base_states, 1);
    }

    #[test]
    fn unsound_circular_discharges_are_rejected_with_typed_errors() {
        let c1 = scratch_toggler("x", "s1");
        let a1 = c1.project(&Alphabet::new(["x"]));
        let c2 = scratch_toggler("y", "s2");
        let a2 = c2.project(&Alphabet::new(["y"]));
        // Vacuous base case: no state satisfies it, so the "discharge"
        // would prove nothing — typed rejection, not a green verdict.
        let err = circular_refines(
            BackendChoice::Auto,
            &c1,
            &a1,
            &c2,
            &a2,
            &parse("x & !x").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RefinementError::CircularBaseCaseFailed { .. }
        ));
        // Base case reading dropped (non-abstract) state.
        let err = circular_refines(
            BackendChoice::Auto,
            &c1,
            &a1,
            &c2,
            &a2,
            &parse("s1").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RefinementError::CircularBaseCaseFailed { .. }
        ));
        // A failed premise names itself and carries the counterexample:
        // a one-way riser cannot track the toggler's descent.
        let mut riser = System::new(Alphabet::new(["x"]));
        riser.add_transition_named(&[], &["x"]);
        let err = circular_refines(BackendChoice::Auto, &c1, &riser, &c2, &a2, &Formula::True)
            .unwrap_err();
        match err {
            RefinementError::SimulationFailed {
                premise,
                counterexample,
            } => {
                assert_eq!(premise, "C1 ∘ A2 ⊑ A1 ∘ A2");
                assert!(!counterexample.is_empty());
            }
            other => panic!("expected SimulationFailed, got {other:?}"),
        }
        // An abstraction inventing state is refused before any checking.
        let alien = System::new(Alphabet::new(["y", "alien"]));
        let err = circular_refines(BackendChoice::Auto, &c1, &a1, &c2, &alien, &Formula::True)
            .unwrap_err();
        assert!(matches!(err, RefinementError::AlphabetNotSubset { .. }));
    }

    #[test]
    fn invariant_obligations_shapes() {
        let (uni, validity) =
            invariant_obligations(&parse("a -> b").unwrap(), &parse("!a").unwrap()).unwrap();
        assert_eq!(uni.to_string(), "(a -> b) -> AX (a -> b)");
        // `->` is right-associative, so the nested implication needs no
        // parentheses when printed.
        assert_eq!(validity.to_string(), "!a -> a -> b");
        assert!(matches!(
            invariant_obligations(&parse("AG a").unwrap(), &Formula::True),
            Err(RuleError::NotPropositional(_))
        ));
    }
}
