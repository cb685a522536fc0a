//! Witness replay and certificate validation.
//!
//! A model checker's answer is only as trustworthy as its evidence. This
//! module re-executes that evidence against the *paper's* semantics,
//! independently of either engine:
//!
//! * [`validate_witness`] — a claimed path must be a real `R*`-path
//!   (every consecutive pair a transition, lassos closing), start in an
//!   `I`-state, satisfy/refute the subformula it claims, and (for lasso
//!   witnesses under fairness) hit every fairness constraint inside the
//!   loop;
//! * [`validate_verdict`] — every violating state a backend reports must
//!   genuinely be an `I`-state refuting the formula, and the boolean
//!   verdict must match the reference evaluator where the structure is
//!   small enough to re-evaluate;
//! * [`validate_certificate`] / [`validate_stored`] / [`replay_store`] —
//!   proof certificates (live or cached) must be internally consistent:
//!   `valid` agrees with the step outcomes, cached entries agree with
//!   their certificates;
//! * [`replay_substitution`] — an abstraction recorded by the refinement
//!   layer must re-verify from the certificate alone: its
//!   content-addressed key re-derives, the substitution side-conditions
//!   still hold, the simulation premise re-checks, and the abstract
//!   obligation re-evaluates to the certified verdict.

use crate::reference::{RefEvaluator, REFERENCE_MAX_PROPS};
use cmc_core::{check_refines, BackendChoice, Certificate, Target, Verdict};
use cmc_ctl::{parse, Formula, Restriction, WitnessPath};
use cmc_kripke::{State, System};
use cmc_store::{CertStore, ObligationKey, StoredCertificate, StoredSubstitution};
use std::fmt;

/// What a witness path claims to demonstrate.
#[derive(Debug, Clone)]
pub enum WitnessClaim {
    /// A lasso on which `f` holds globally, fair w.r.t. `fairness`
    /// (evidence for `EG f` / against `AF ¬f`).
    FairGlobally {
        /// The invariant body.
        f: Formula,
        /// The fairness constraints whose loop must be hit.
        fairness: Vec<Formula>,
    },
    /// A finite path whose last state satisfies `g` with `f` holding
    /// before it (evidence for `E[f U g]` / against `AG ¬g`).
    Until {
        /// Holds at every state strictly before the last.
        f: Formula,
        /// Holds at the final state.
        g: Formula,
    },
    /// The path's first state refutes `f` (a bare counterexample state).
    Violates {
        /// The formula the start state fails.
        f: Formula,
    },
}

/// Why a witness, verdict, or certificate failed replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The witness has no states at all.
    EmptyWitness,
    /// Two consecutive path states are not related by `R*`.
    BrokenStep {
        /// Index of the source state in stem ++ cycle.
        index: usize,
        /// Rendered source and target states.
        step: String,
    },
    /// The lasso's last cycle state has no transition back to its first.
    OpenCycle(String),
    /// The path does not start in an `I`-state.
    BadStart(String),
    /// A fairness constraint is never satisfied inside the loop.
    UnfairCycle(String),
    /// A path state fails the subformula the witness claims for it.
    ClaimFailed(String),
    /// A reported violating state is not a genuine counterexample.
    BogusViolation(String),
    /// The boolean verdict contradicts the reference evaluator.
    VerdictMismatch {
        /// What the backend said.
        backend: bool,
        /// What the reference evaluator says.
        reference: bool,
    },
    /// A certificate's `valid` flag disagrees with its step outcomes.
    InconsistentCertificate(String),
    /// A recorded abstraction substitution failed to replay: bad
    /// content-addressed key, unparseable recorded obligation, violated
    /// side-condition, or a simulation premise that no longer holds.
    BadSubstitution(String),
    /// The reference evaluator could not run (width, unknown atom).
    Reference(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::EmptyWitness => write!(f, "witness path has no states"),
            ValidationError::BrokenStep { index, step } => {
                write!(f, "witness step {index} is not an R*-transition: {step}")
            }
            ValidationError::OpenCycle(s) => write!(f, "lasso cycle does not close: {s}"),
            ValidationError::BadStart(s) => write!(f, "witness does not start in an I-state: {s}"),
            ValidationError::UnfairCycle(c) => {
                write!(f, "fairness constraint {c} never holds inside the loop")
            }
            ValidationError::ClaimFailed(s) => write!(f, "claimed subformula fails: {s}"),
            ValidationError::BogusViolation(s) => {
                write!(f, "reported violating state is not a counterexample: {s}")
            }
            ValidationError::VerdictMismatch { backend, reference } => write!(
                f,
                "verdict mismatch: backend says {backend}, reference semantics say {reference}"
            ),
            ValidationError::InconsistentCertificate(s) => {
                write!(f, "inconsistent certificate: {s}")
            }
            ValidationError::BadSubstitution(s) => {
                write!(f, "substitution record failed replay: {s}")
            }
            ValidationError::Reference(s) => write!(f, "reference evaluator: {s}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Evaluate a *propositional* formula directly on a state (no evaluator,
/// works at any alphabet width). `None` if `f` has temporal operators.
fn eval_prop(state: State, f: &Formula, system: &System) -> Option<bool> {
    use Formula::*;
    Some(match f {
        True => true,
        False => false,
        Ap(p) => state.contains_named(system.alphabet(), p),
        Not(g) => !eval_prop(state, g, system)?,
        And(a, b) => eval_prop(state, a, system)? && eval_prop(state, b, system)?,
        Or(a, b) => eval_prop(state, a, system)? || eval_prop(state, b, system)?,
        Implies(a, b) => !eval_prop(state, a, system)? || eval_prop(state, b, system)?,
        Iff(a, b) => eval_prop(state, a, system)? == eval_prop(state, b, system)?,
        _ => return None,
    })
}

/// Check `state ⊨ f` (under `fairness` for temporal `f`), preferring the
/// direct propositional evaluation and falling back to the reference
/// evaluator. `Ok(None)` when the structure is too wide to re-evaluate a
/// temporal formula.
fn holds_at(
    system: &System,
    state: State,
    f: &Formula,
    fairness: &[Formula],
) -> Result<Option<bool>, ValidationError> {
    if let Some(b) = eval_prop(state, f, system) {
        return Ok(Some(b));
    }
    if system.alphabet().len() > REFERENCE_MAX_PROPS {
        return Ok(None);
    }
    let r = RefEvaluator::new(system).map_err(|e| ValidationError::Reference(e.to_string()))?;
    r.satisfies(state, f, fairness)
        .map(Some)
        .map_err(|e| ValidationError::Reference(e.to_string()))
}

/// Replay one witness path against `system` under restriction `r`.
///
/// Structural checks (always): non-empty, every consecutive pair an
/// `R*`-transition, lassos close. Semantic checks (exact at any width for
/// propositional subformulas, via the reference evaluator up to
/// [`REFERENCE_MAX_PROPS`] otherwise): the start state satisfies `r.init`,
/// the claim holds along the path, and for [`WitnessClaim::FairGlobally`]
/// every non-trivial fairness constraint is hit inside the cycle.
pub fn validate_witness(
    system: &System,
    r: &Restriction,
    path: &WitnessPath,
    claim: &WitnessClaim,
) -> Result<(), ValidationError> {
    let all: Vec<State> = path.stem.iter().chain(path.cycle.iter()).copied().collect();
    if all.is_empty() {
        return Err(ValidationError::EmptyWitness);
    }
    let alpha = system.alphabet();
    for (i, w) in all.windows(2).enumerate() {
        if !system.has_transition(w[0], w[1]) {
            return Err(ValidationError::BrokenStep {
                index: i,
                step: format!("{} -> {}", w[0].display(alpha), w[1].display(alpha)),
            });
        }
    }
    if let (Some(&last), Some(&first)) = (path.cycle.last(), path.cycle.first()) {
        if !system.has_transition(last, first) {
            return Err(ValidationError::OpenCycle(format!(
                "{} -> {}",
                last.display(alpha),
                first.display(alpha)
            )));
        }
    }

    let start = all[0];
    if holds_at(system, start, &r.init, &[])? == Some(false) {
        return Err(ValidationError::BadStart(format!(
            "{} does not satisfy {}",
            start.display(alpha),
            r.init
        )));
    }

    match claim {
        WitnessClaim::FairGlobally { f, fairness } => {
            for &s in &all {
                if holds_at(system, s, f, fairness)? == Some(false) {
                    return Err(ValidationError::ClaimFailed(format!(
                        "{} does not satisfy {} on an EG-path",
                        s.display(alpha),
                        f
                    )));
                }
            }
            // Reflexive structures make the empty-cycle degenerate lasso
            // possible only as a stutter loop; fairness must still be met
            // inside the loop proper.
            let cycle: &[State] = if path.cycle.is_empty() {
                std::slice::from_ref(all.last().expect("non-empty"))
            } else {
                &path.cycle
            };
            for c in fairness {
                if matches!(c, Formula::True) {
                    continue;
                }
                let mut hit = false;
                for &s in cycle {
                    if holds_at(system, s, c, &[])? != Some(false) {
                        hit = true;
                        break;
                    }
                }
                if !hit {
                    return Err(ValidationError::UnfairCycle(c.to_string()));
                }
            }
        }
        WitnessClaim::Until { f, g } => {
            let last = *all.last().expect("non-empty");
            if holds_at(system, last, g, &[])? == Some(false) {
                return Err(ValidationError::ClaimFailed(format!(
                    "until-witness ends in {} which fails {}",
                    last.display(alpha),
                    g
                )));
            }
            for &s in &all[..all.len() - 1] {
                if holds_at(system, s, f, &[])? == Some(false) {
                    return Err(ValidationError::ClaimFailed(format!(
                        "until-witness passes through {} which fails {}",
                        s.display(alpha),
                        f
                    )));
                }
            }
        }
        WitnessClaim::Violates { f } => {
            if holds_at(system, start, f, &r.fairness)? == Some(true) {
                return Err(ValidationError::ClaimFailed(format!(
                    "{} satisfies {} but was claimed as a violation",
                    start.display(alpha),
                    f
                )));
            }
        }
    }
    Ok(())
}

/// Replay a backend [`Verdict`] for `system ⊨_r f`: the boolean answer
/// must match the reference evaluator (when the structure fits), and
/// every reported violating state must genuinely be an `I`-state that
/// refutes `f` under the restriction's fairness.
pub fn validate_verdict(
    system: &System,
    r: &Restriction,
    f: &Formula,
    v: &Verdict,
) -> Result<(), ValidationError> {
    let narrow = system.alphabet().len() <= REFERENCE_MAX_PROPS;
    if narrow {
        let reference =
            RefEvaluator::new(system).map_err(|e| ValidationError::Reference(e.to_string()))?;
        let (ref_holds, _) = reference
            .check(r, f)
            .map_err(|e| ValidationError::Reference(e.to_string()))?;
        if ref_holds != v.holds {
            return Err(ValidationError::VerdictMismatch {
                backend: v.holds,
                reference: ref_holds,
            });
        }
    }
    if v.holds && !v.violating.is_empty() {
        return Err(ValidationError::BogusViolation(
            "verdict holds but lists violating states".to_string(),
        ));
    }
    for &s in &v.violating {
        let path = WitnessPath {
            stem: vec![s],
            cycle: vec![],
        };
        validate_witness(system, r, &path, &WitnessClaim::Violates { f: f.clone() }).map_err(
            |e| ValidationError::BogusViolation(format!("{}: {}", s.display(system.alphabet()), e)),
        )?;
    }
    Ok(())
}

/// Structural validation of a live [`Certificate`]: `valid` must agree
/// with the conjunction of its step outcomes, and no step may be blank.
pub fn validate_certificate(cert: &Certificate) -> Result<(), ValidationError> {
    if cert.goal.is_empty() {
        return Err(ValidationError::InconsistentCertificate(
            "certificate has an empty goal".to_string(),
        ));
    }
    if !cert.is_consistent() {
        return Err(ValidationError::InconsistentCertificate(format!(
            "goal `{}`: valid={} but steps say {}",
            cert.goal,
            cert.valid,
            cert.steps.iter().all(|s| s.ok)
        )));
    }
    for (i, s) in cert.steps.iter().enumerate() {
        if s.description.is_empty() {
            return Err(ValidationError::InconsistentCertificate(format!(
                "goal `{}`: step {i} has an empty description",
                cert.goal
            )));
        }
    }
    Ok(())
}

/// Replay one recorded abstraction substitution **from the certificate
/// alone** — no engine state, no store:
///
/// 1. the content-addressed `abstraction_key` must re-derive from the
///    recorded abstraction system;
/// 2. the recorded obligation (`init`, `fairness`, `formula`) must parse
///    back from its rendered form;
/// 3. the substitution side-conditions must still hold for the recorded
///    `(concrete, abstraction, rest)` triple;
/// 4. the simulation premise `concrete ⊑ abstraction` must re-check
///    (routed by pair width exactly like the engine);
/// 5. the property is re-checked on `abstraction ∘ rest` and its verdict
///    returned, so callers can compare against the certificate's `valid`.
pub fn replay_substitution(record: &StoredSubstitution) -> Result<bool, ValidationError> {
    let derived = ObligationKey::system(&record.abstraction).to_hex();
    if derived != record.abstraction_key {
        return Err(ValidationError::BadSubstitution(format!(
            "component {}: abstraction key {} does not re-derive (expected {derived})",
            record.component, record.abstraction_key
        )));
    }

    let bad_parse = |what: &str, text: &str, e: &dyn fmt::Display| {
        ValidationError::BadSubstitution(format!(
            "component {}: recorded {what} `{text}` does not parse: {e}",
            record.component
        ))
    };
    let init = parse(&record.init).map_err(|e| bad_parse("init", &record.init, &e))?;
    let fairness: Vec<Formula> = record
        .fairness
        .iter()
        .map(|g| parse(g).map_err(|e| bad_parse("fairness constraint", g, &e)))
        .collect::<Result<_, _>>()?;
    let f = parse(&record.formula).map_err(|e| bad_parse("formula", &record.formula, &e))?;
    let r = Restriction::new(init, fairness);

    let rest: Vec<&System> = record.rest.iter().collect();
    cmc_core::substitution_side_conditions(
        &record.component,
        &record.concrete,
        &record.abstraction,
        &rest,
        &r,
        &f,
    )
    .map_err(|e| {
        ValidationError::BadSubstitution(format!(
            "component {}: side-condition violated on replay: {e}",
            record.component
        ))
    })?;

    let (sim, _) = check_refines(BackendChoice::Auto, &record.concrete, &record.abstraction)
        .map_err(|e| {
            ValidationError::BadSubstitution(format!(
                "component {}: simulation premise could not re-run: {e}",
                record.component
            ))
        })?;
    if let Some(cx) = sim.counterexample() {
        return Err(ValidationError::BadSubstitution(format!(
            "component {}: simulation premise fails on replay: {}",
            record.component,
            cx.display(record.concrete.alphabet())
        )));
    }

    let mut systems = vec![&record.abstraction];
    systems.extend(&record.rest);
    let target = Target::composition(systems);
    let verdict = cmc_core::ExplicitBackend::default()
        .check(&target, &r, &f)
        .or_else(|_| cmc_core::SymbolicBackend::default().check(&target, &r, &f))
        .map_err(|e| {
            ValidationError::BadSubstitution(format!(
                "component {}: abstract obligation could not re-check: {e}",
                record.component
            ))
        })?;
    Ok(verdict.holds)
}

/// [`validate_certificate`] for the serialised store form, additionally
/// replaying every recorded abstraction substitution: a *valid*
/// certificate's substitutions must all re-verify — key, side-conditions,
/// simulation premise, and the abstract property itself.
pub fn validate_stored(cert: &StoredCertificate) -> Result<(), ValidationError> {
    validate_certificate(&Certificate::from(cert.clone()))?;
    for record in &cert.abstractions {
        let holds = replay_substitution(record)?;
        if cert.valid && !holds {
            return Err(ValidationError::InconsistentCertificate(format!(
                "goal `{}`: certificate is valid but the substituted obligation for {} \
                 re-checks false",
                cert.goal, record.component
            )));
        }
    }
    Ok(())
}

/// Replay every cached entry of a [`CertStore`] through the certificate
/// validator; a stored certificate must also agree with its entry's bare
/// verdict. Returns the number of entries replayed.
pub fn replay_store(store: &CertStore) -> Result<usize, ValidationError> {
    let snapshot = store.snapshot();
    let n = snapshot.len();
    for (key, entry) in snapshot {
        if let Some(cert) = entry.certificate {
            if cert.valid != entry.verdict {
                return Err(ValidationError::InconsistentCertificate(format!(
                    "store entry {key}: verdict={} but certificate.valid={}",
                    entry.verdict, cert.valid
                )));
            }
            validate_stored(&cert)?;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_kripke::Alphabet;

    fn two_bit() -> System {
        // 2-bit counter: 00 -> 01 -> 10 -> 00.
        let a = Alphabet::new(["b0", "b1"]);
        let mut m = System::new(a);
        m.add_transition(State(0b00), State(0b01));
        m.add_transition(State(0b01), State(0b10));
        m.add_transition(State(0b10), State(0b00));
        m
    }

    #[test]
    fn valid_lasso_replays() {
        let m = two_bit();
        let r = Restriction::new(Formula::True, vec![Formula::ap("b0")]);
        let path = WitnessPath {
            stem: vec![State(0b00)],
            cycle: vec![State(0b01), State(0b10), State(0b00)],
        };
        validate_witness(
            &m,
            &r,
            &path,
            &WitnessClaim::FairGlobally {
                f: Formula::True,
                fairness: r.fairness.clone(),
            },
        )
        .expect("genuine lasso must replay");
    }

    #[test]
    fn broken_step_is_caught() {
        let m = two_bit();
        let r = Restriction::trivial();
        let path = WitnessPath {
            stem: vec![State(0b00), State(0b10)],
            cycle: vec![],
        };
        let err = validate_witness(
            &m,
            &r,
            &path,
            &WitnessClaim::Until {
                f: Formula::True,
                g: Formula::True,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ValidationError::BrokenStep { .. }));
    }

    #[test]
    fn unfair_cycle_is_caught() {
        let m = two_bit();
        let fairness = vec![Formula::ap("b1")];
        let r = Restriction::new(Formula::True, fairness.clone());
        // Stutter lasso on 00 never satisfies b1.
        let path = WitnessPath {
            stem: vec![],
            cycle: vec![State(0b00)],
        };
        let err = validate_witness(
            &m,
            &r,
            &path,
            &WitnessClaim::FairGlobally {
                f: Formula::True,
                fairness,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ValidationError::UnfairCycle(_)));
    }

    #[test]
    fn substitution_certificates_replay_from_the_certificate_alone() {
        use cmc_core::{Component, Engine, Substitution};
        use std::sync::Arc;

        // Concrete worker with a private scratch bit; abstraction drops it.
        let mut c = System::new(Alphabet::new(["x", "s1"]));
        c.add_transition_named(&[], &["s1"]);
        c.add_transition_named(&["s1"], &["s1", "x"]);
        c.add_transition_named(&["s1", "x"], &["x"]);
        c.add_transition_named(&["x"], &[]);
        let a = c.project(&Alphabet::new(["x"]));
        let mut ctx = System::new(Alphabet::new(["y"]));
        ctx.add_transition_named(&[], &["y"]);
        ctx.add_transition_named(&["y"], &[]);

        let store = Arc::new(CertStore::new());
        let e = Engine::new(vec![
            Component::new("worker", c),
            Component::new("ctx", ctx),
        ])
        .with_store(Arc::clone(&store));
        let cert = e
            .prove_substituted(
                &Substitution::new(0, a),
                &Restriction::trivial(),
                &cmc_ctl::parse("AG (x | !x)").unwrap(),
            )
            .unwrap();
        assert!(cert.valid);
        assert_eq!(cert.abstractions.len(), 1);

        // The live record replays green and re-derives the verdict.
        assert_eq!(replay_substitution(&cert.abstractions[0]), Ok(true));

        // The cached copy replays through the store path too.
        assert!(replay_store(&store).unwrap() >= 1);

        // Tampering with the recorded abstraction breaks the key check.
        let mut forged = cert.abstractions[0].clone();
        let mut weaker = System::new(forged.abstraction.alphabet().clone());
        weaker.add_transition_named(&[], &["x"]);
        forged.abstraction = weaker;
        assert!(matches!(
            replay_substitution(&forged),
            Err(ValidationError::BadSubstitution(_))
        ));
    }

    #[test]
    fn bad_start_is_caught() {
        let m = two_bit();
        let r = Restriction::new(Formula::ap("b1"), vec![]);
        let path = WitnessPath {
            stem: vec![State(0b00)],
            cycle: vec![],
        };
        let err = validate_witness(&m, &r, &path, &WitnessClaim::Violates { f: Formula::False })
            .unwrap_err();
        assert!(matches!(err, ValidationError::BadStart(_)));
    }
}
