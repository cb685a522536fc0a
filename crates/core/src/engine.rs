//! The assume-guarantee proof engine.
//!
//! Reproduces, as an executable procedure, the deduction style of §4.2.3
//! and §4.3.4 of the paper: component properties are established by model
//! checking (on the component's *expansion* over the composed alphabet,
//! justified by Lemmas 5, 8, 9), classified as universal or existential
//! (Rules 1–3), and transferred to the composed system; guarantees
//! properties (Rules 4, 5) are discharged by proving their left-hand
//! obligations on the system, compositionally where possible. A Rule-2
//! obligation on a component that declares none of its propositions needs
//! no checker at all: the expansion freezes them, so the frame argument of
//! Lemma 8 decides it propositionally. Every other Rule-2 obligation small
//! enough for the dense explicit kernel is decided by Lemma 6, in one pass
//! over the component's own moves. Each obligation is decided on the
//! calling thread at the moment it is posed, in certificate order: with
//! almost every one decided in microseconds, the engine starts no thread.
//!
//! Every deduction produces a [`Certificate`] recording each step, so a
//! component consumer can audit the proof — the paper's stated goal is
//! exactly this workflow: "the developer of a component take\[s\] a greater
//! part in proving correctness" and ships the proof with the component.

use crate::backend::{
    check_planned, check_refines, check_routed, BackendChoice, BackendKind, RouteDecision, Target,
};
use crate::lemmas::{Lemma6, TruthTable};
use crate::property::{classify, PropertyClass};
use crate::rules::{
    circular_refines, invariant_obligations, substitution_side_conditions, Guarantee,
    RefinementError, RuleError,
};
use cmc_ctl::{Formula, Restriction};
use cmc_kripke::{Alphabet, System};
use cmc_store::{
    CertStore, Entry, ObligationKey, StoredCertificate, StoredStep, StoredSubstitution,
};
use cmc_symbolic::SymbolicModel;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A named component in a composition.
#[derive(Debug, Clone)]
pub struct Component {
    /// Display name (e.g. `"server"`).
    pub name: String,
    /// The component system.
    pub system: System,
}

impl Component {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, system: System) -> Self {
        Component {
            name: name.into(),
            system,
        }
    }
}

/// One step in a proof certificate.
#[derive(Debug, Clone)]
pub struct Step {
    /// What was established (or attempted).
    pub description: String,
    /// Did the step succeed?
    pub ok: bool,
    /// Was this step compositional (component-local) or a whole-system
    /// fallback check?
    pub compositional: bool,
    /// The backend that discharged this step's obligation (`None` for
    /// pure deduction steps that ran no checker).
    pub backend: Option<BackendKind>,
    /// Wall-clock time of the check behind this step (`None` for
    /// deduction steps and store-replayed results).
    pub duration: Option<Duration>,
}

/// Equality deliberately ignores `duration`: re-running a deduction must
/// produce a certificate *equal* to the stored one even though timings
/// differ run to run.
impl PartialEq for Step {
    fn eq(&self, other: &Self) -> bool {
        self.description == other.description
            && self.ok == other.ok
            && self.compositional == other.compositional
            && self.backend == other.backend
    }
}

impl Eq for Step {}

impl Step {
    /// Was this step replayed from a certificate store rather than
    /// checked fresh? Cached steps carry the engine's `"(cached)"` marker
    /// and no timing.
    pub fn cached(&self) -> bool {
        self.duration.is_none() && self.description.ends_with("(cached)")
    }
}

/// An auditable record of a deduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The property being established, rendered.
    pub goal: String,
    /// The steps, in order.
    pub steps: Vec<Step>,
    /// Overall verdict.
    pub valid: bool,
    /// Abstraction substitutions this deduction leaned on — everything a
    /// replay validator needs to re-establish each substitution from the
    /// certificate alone (empty for ordinary deductions).
    pub abstractions: Vec<StoredSubstitution>,
}

impl Certificate {
    /// An empty valid certificate for `goal` — steps fold into the
    /// verdict as they are appended.
    pub fn new(goal: impl Into<String>) -> Self {
        Certificate {
            goal: goal.into(),
            steps: vec![],
            valid: true,
            abstractions: vec![],
        }
    }

    /// Append a step and fold its outcome into the verdict. Public so
    /// that case studies can assemble composite certificates (e.g. a
    /// Rule-4 chain plus a hand-chained conclusion).
    pub fn step(&mut self, description: impl Into<String>, ok: bool, compositional: bool) {
        self.steps.push(Step {
            description: description.into(),
            ok,
            compositional,
            backend: None,
            duration: None,
        });
        self.valid &= ok;
    }

    /// Append a step discharged by a checking backend, recording which
    /// engine answered it and (for fresh checks) its wall-clock time.
    pub fn step_checked(
        &mut self,
        description: impl Into<String>,
        ok: bool,
        compositional: bool,
        backend: BackendKind,
        duration: Option<Duration>,
    ) {
        self.steps.push(Step {
            description: description.into(),
            ok,
            compositional,
            backend: Some(backend),
            duration,
        });
        self.valid &= ok;
    }

    /// Were all steps component-local (no whole-system model checking)?
    pub fn fully_compositional(&self) -> bool {
        self.steps.iter().all(|s| s.compositional)
    }

    /// The steps that were discharged by a checking backend (as opposed
    /// to pure deduction), for replay validators and audits.
    pub fn checked_steps(&self) -> impl Iterator<Item = &Step> {
        self.steps.iter().filter(|s| s.backend.is_some())
    }

    /// The distinct engines that contributed to this certificate, in
    /// first-use order.
    pub fn backends_used(&self) -> Vec<BackendKind> {
        let mut out = Vec::new();
        for s in &self.steps {
            if let Some(b) = s.backend {
                if !out.contains(&b) {
                    out.push(b);
                }
            }
        }
        out
    }

    /// Does the `valid` flag agree with the conjunction of step outcomes?
    /// The engine maintains this invariant; replay validators re-check it
    /// on certificates that crossed a serialisation boundary.
    pub fn is_consistent(&self) -> bool {
        self.valid == self.steps.iter().all(|s| s.ok)
    }
}

impl From<&Certificate> for StoredCertificate {
    fn from(cert: &Certificate) -> Self {
        StoredCertificate {
            goal: cert.goal.clone(),
            steps: cert
                .steps
                .iter()
                .map(|s| StoredStep {
                    description: s.description.clone(),
                    ok: s.ok,
                    compositional: s.compositional,
                    backend: s.backend.map(|b| b.name().to_string()),
                })
                .collect(),
            valid: cert.valid,
            abstractions: cert.abstractions.clone(),
        }
    }
}

impl From<StoredCertificate> for Certificate {
    fn from(cert: StoredCertificate) -> Self {
        Certificate {
            goal: cert.goal,
            steps: cert
                .steps
                .into_iter()
                .map(|s| Step {
                    description: s.description,
                    ok: s.ok,
                    compositional: s.compositional,
                    backend: s.backend.as_deref().and_then(BackendKind::from_name),
                    duration: None,
                })
                .collect(),
            valid: cert.valid,
            abstractions: cert.abstractions,
        }
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "goal: {}", self.goal)?;
        for s in &self.steps {
            write!(
                f,
                "  [{}] {}",
                if s.ok { "ok" } else { "FAIL" },
                s.description
            )?;
            if !s.compositional {
                write!(f, " (whole-system check)")?;
            }
            if let Some(backend) = s.backend {
                write!(f, " [{backend}")?;
                if let Some(d) = s.duration {
                    write!(f, " {d:.1?}")?;
                }
                write!(f, "]")?;
            }
            writeln!(f)?;
        }
        for sub in &self.abstractions {
            writeln!(
                f,
                "  [abstraction] {} ⊑ {} ({} → {} propositions)",
                sub.component,
                &sub.abstraction_key[..8],
                sub.concrete.alphabet().len(),
                sub.abstraction.alphabet().len(),
            )?;
        }
        writeln!(
            f,
            "verdict: {}",
            if self.valid {
                "established"
            } else {
                "NOT established"
            }
        )
    }
}

/// Engine errors.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// Explicit model checking failed.
    Check(String),
    /// A rule application failed.
    Rule(RuleError),
    /// A refinement side condition was violated — the requested
    /// substitution or circular discharge would be unsound, so the engine
    /// refuses it outright rather than produce a wrong verdict.
    Refinement(RefinementError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Check(m) => write!(f, "{m}"),
            EngineError::Rule(e) => write!(f, "{e}"),
            EngineError::Refinement(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RuleError> for EngineError {
    fn from(e: RuleError) -> Self {
        EngineError::Rule(e)
    }
}

impl From<RefinementError> for EngineError {
    fn from(e: RefinementError) -> Self {
        EngineError::Refinement(e)
    }
}

/// A request to stand an abstraction in for one component of the
/// engine's composition.
#[derive(Debug, Clone)]
pub struct Substitution {
    /// Index of the component being abstracted.
    pub component: usize,
    /// The abstract system to substitute (its alphabet must be a subset
    /// of the concrete component's).
    pub abstraction: System,
}

impl Substitution {
    /// Convenience constructor.
    pub fn new(component: usize, abstraction: System) -> Self {
        Substitution {
            component,
            abstraction,
        }
    }
}

/// A set of positions in an engine's union alphabet, one bit each, so
/// that "does component `i` declare any of these propositions?" and "does
/// this conjunct fit inside that footprint?" are word operations rather
/// than string-set work.
#[derive(Debug, Clone, Default)]
struct PropMask(Vec<u64>);

impl PropMask {
    /// The positions of `names` in `union`; the first name `union` lacks
    /// is the error.
    fn of<'a>(
        union: &Alphabet,
        names: impl IntoIterator<Item = &'a String>,
    ) -> Result<Self, &'a String> {
        let mut mask = PropMask::default();
        for name in names {
            mask.insert(union.position(name).ok_or(name)?);
        }
        Ok(mask)
    }

    fn insert(&mut self, pos: usize) {
        if self.0.len() <= pos / 64 {
            self.0.resize(pos / 64 + 1, 0);
        }
        self.0[pos / 64] |= 1 << (pos % 64);
    }

    fn contains(&self, pos: usize) -> bool {
        self.word(pos / 64) >> (pos % 64) & 1 == 1
    }

    fn word(&self, w: usize) -> u64 {
        self.0.get(w).copied().unwrap_or(0)
    }

    /// `self ∪ other`.
    fn or(mut self, other: &PropMask) -> PropMask {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
        self
    }

    /// The lowest position in `self`.
    fn first(&self) -> Option<usize> {
        positions(self.0.iter().copied()).next()
    }

    /// The positions in `self ∖ other`, ascending.
    fn difference<'s>(&'s self, other: &'s PropMask) -> impl Iterator<Item = usize> + 's {
        positions(self.0.iter().enumerate().map(|(w, m)| m & !other.word(w)))
    }

    /// `|self ∖ other|`.
    fn count_difference(&self, other: &PropMask) -> usize {
        self.0
            .iter()
            .enumerate()
            .map(|(w, m)| (m & !other.word(w)).count_ones() as usize)
            .sum()
    }

    /// The positions in `self ∪ other`, ascending.
    fn union<'s>(&'s self, other: &'s PropMask) -> impl Iterator<Item = usize> + 's {
        let words = self.0.len().max(other.0.len());
        positions((0..words).map(|w| self.word(w) | other.word(w)))
    }

    fn is_disjoint(&self, other: &PropMask) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & b == 0)
    }

    /// `self ⊆ a ∪ b`.
    fn is_within(&self, a: &PropMask, b: &PropMask) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(w, m)| m & !(a.word(w) | b.word(w)) == 0)
    }
}

/// The positions set in `words`, word `w` holding positions `64w..64w+63`,
/// ascending.
fn positions(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits.wrapping_sub(1);
            (bit < 64).then_some(w * 64 + bit)
        })
    })
}

/// The `(p, q)` of a Rule-2 obligation `p ⇒ AX q`, `p` and `q`
/// propositional.
fn rule2_parts(f: &Formula) -> Option<(&Formula, &Formula)> {
    match f {
        Formula::Implies(p, next) => match next.as_ref() {
            Formula::Ax(q) if p.is_propositional() && q.is_propositional() => Some((p, q)),
            _ => None,
        },
        _ => None,
    }
}

/// A fresh check's outcome, as its certificate step records it.
#[derive(Debug, Clone, Copy)]
struct Checked {
    holds: bool,
    /// The engine that answered.
    backend: BackendKind,
    /// Wall-clock time of the check.
    duration: Duration,
}

/// The invariant rule's per-proof bookkeeping, built once per proof
/// rather than per (conjunct, component) pair: every conjunct with its
/// union mask and truth table, and the index level 2 finds its
/// hypothesis through.
struct InvariantGrid<'a> {
    inv: &'a Formula,
    inv_mask: PropMask,
    conjuncts: Vec<&'a Formula>,
    masks: Vec<PropMask>,
    /// Each conjunct's truth table over union positions.
    tables: Vec<TruthTable>,
    /// `by_first[pos]`: the conjuncts whose lowest union position is
    /// `pos`, ascending. A conjunct fits a footprint only if that position
    /// is in it, so level 2 looks no further than the footprint's lists.
    by_first: Vec<Vec<usize>>,
    /// The conjuncts that read no proposition (`TRUE`, `FALSE`): they fit
    /// every footprint.
    constant: Vec<usize>,
}

impl<'a> InvariantGrid<'a> {
    fn new(engine: &Engine, inv: &'a Formula) -> Result<Self, EngineError> {
        let conjuncts = Engine::conjuncts(inv);
        let mut masks = Vec::with_capacity(conjuncts.len());
        let mut tables = Vec::with_capacity(conjuncts.len());
        let mut by_first = vec![Vec::new(); engine.union.len()];
        let mut constant = Vec::new();
        for (c, &k) in conjuncts.iter().enumerate() {
            let (table, mask) = engine.compile(k).ok_or_else(|| engine.unknown(k))?;
            match mask.first() {
                Some(pos) => by_first[pos].push(c),
                None => constant.push(c),
            }
            masks.push(mask);
            tables.push(table);
        }
        Ok(InvariantGrid {
            inv,
            inv_mask: masks.iter().fold(PropMask::default(), PropMask::or),
            conjuncts,
            masks,
            tables,
            by_first,
            constant,
        })
    }

    /// Level 2's hypothesis for conjunct `ki` on a component declaring
    /// `owned`: the conjuncts that fit entirely inside the footprint
    /// `owned ∪ props(K)`, ascending. `K` itself is among them.
    fn neighbourhood(&self, owned: &PropMask, ki: usize) -> Vec<usize> {
        let mut fit = self.constant.clone();
        for pos in owned.union(&self.masks[ki]) {
            let within = |&c: &usize| self.masks[c].is_within(owned, &self.masks[ki]);
            fit.extend(self.by_first[pos].iter().copied().filter(within));
        }
        fit.sort_unstable();
        fit
    }
}

/// A component as Lemma 6 reads it, listed once per engine on first use:
/// its proper moves over its own state bits, and the union position of
/// each of those bits.
struct Moves {
    /// `at[bit]`: the union position of the component's proposition `bit`.
    at: Vec<usize>,
    moves: Vec<(u128, u128)>,
}

/// The assume-guarantee engine for a fixed set of components.
pub struct Engine {
    components: Vec<Component>,
    union: Alphabet,
    /// Each component's alphabet as a mask over `union`.
    owned: Vec<PropMask>,
    /// Each component's [`Moves`], listed when Lemma 6 first reads it.
    moves: Vec<OnceLock<Moves>>,
    store: Option<Arc<CertStore>>,
    backend: BackendChoice,
}

impl Engine {
    /// Build an engine over the given components. The backend policy
    /// defaults to [`BackendChoice::Auto`]: explicit-state while a check's
    /// target fits under the explicit limit, symbolic beyond it.
    pub fn new(components: Vec<Component>) -> Self {
        let union = Alphabet::union_of(components.iter().map(|c| c.system.alphabet()));
        let owned = components
            .iter()
            .map(|c| {
                PropMask::of(&union, c.system.alphabet().names())
                    .expect("a component's propositions are in the union")
            })
            .collect();
        Engine {
            moves: components.iter().map(|_| OnceLock::new()).collect(),
            components,
            union,
            owned,
            store: None,
            backend: BackendChoice::Auto,
        }
    }

    /// Select the backend policy for every check this engine runs.
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// The engine's backend policy.
    pub fn backend(&self) -> BackendChoice {
        self.backend
    }

    /// Attach a certificate store: every obligation is looked up before
    /// being checked and memoized after, so components shared between
    /// compositions (or repeated proofs over the same engine) are verified
    /// once. The store is keyed structurally — see
    /// [`cmc_store::ObligationKey`] — so it can safely be shared across
    /// engines via `Arc`.
    pub fn with_store(mut self, store: Arc<CertStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attach or replace the certificate store (see [`Engine::with_store`]).
    pub fn set_store(&mut self, store: Arc<CertStore>) {
        self.store = Some(store);
    }

    /// The attached certificate store, if any.
    pub fn store(&self) -> Option<&Arc<CertStore>> {
        self.store.as_ref()
    }

    /// The union alphabet `Σ*` of all components.
    pub fn union_alphabet(&self) -> &Alphabet {
        &self.union
    }

    /// The components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The monolithic composition `M₁ ∘ M₂ ∘ …` (exponential; used for
    /// cross-validation and as a fallback for unclassifiable properties).
    pub fn composed(&self) -> System {
        self.composition_target().materialize()
    }

    /// The *minimal expansion* of component `i` for checking a formula
    /// over the propositions in `props`: the component expanded over only
    /// the propositions it is missing, in name order (Lemma 5 makes this
    /// equivalent to the full-union expansion for formulas in
    /// `C(Σᵢ ∪ props)` — and it is exponentially cheaper when obligations
    /// are local, which is what makes the Discussion's
    /// linear-in-components claim real).
    ///
    /// Returned as a lazy [`Target`] so the backend decides how to realise
    /// the expansion: the explicit engine pads frames, the symbolic engine
    /// just declares frozen variables.
    fn minimal_target(&self, i: usize, props: &PropMask) -> Target<'_> {
        let mut extra: Vec<&str> = props
            .difference(&self.owned[i])
            .map(|p| self.union.name(p))
            .collect();
        extra.sort_unstable();
        Target::expansion(vec![&self.components[i].system], Alphabet::new(extra))
    }

    /// `props` as a mask over the union alphabet, or the
    /// [`EngineError::Check`] naming the first proposition no component
    /// declares.
    fn prop_mask(&self, props: &BTreeSet<String>) -> Result<PropMask, EngineError> {
        PropMask::of(&self.union, props).map_err(|p| {
            EngineError::Check(format!(
                "formula proposition {p:?} unknown to every component"
            ))
        })
    }

    /// Does component `i` declare none of the propositions in `mask`? Its
    /// minimal expansion then freezes all of them — on its own moves and
    /// on the stutter step alike — so by Lemmas 6 and 8 an obligation
    /// `p ⇒ AX q` over them holds there iff `p ⇒ q` is valid.
    fn frame_local(&self, i: usize, mask: &PropMask) -> bool {
        self.owned[i].is_disjoint(mask)
    }

    /// The whole composition as a lazy [`Target`].
    fn composition_target(&self) -> Target<'_> {
        Target::composition(self.components.iter().map(|c| &c.system).collect())
    }

    /// Store key for `target ⊨_r f` under proof `mode` and a resolved
    /// backend, built from the component systems (never a materialised
    /// product). An expansion's extra alphabet is keyed as the identity
    /// system over it — which is exactly what the expansion *is* (§3.2).
    fn target_key(
        &self,
        mode: &str,
        target: &Target,
        r: &Restriction,
        f: &Formula,
        kind: BackendKind,
    ) -> ObligationKey {
        if target.extra().is_empty() {
            return ObligationKey::composed(mode, kind.name(), target.systems(), r, f);
        }
        let identity = System::identity(target.extra().clone());
        let systems = [target.systems(), &[&identity]].concat();
        ObligationKey::composed(mode, kind.name(), &systems, r, f)
    }

    /// The top-level conjuncts of `f`, left to right.
    fn conjuncts(f: &Formula) -> Vec<&Formula> {
        fn collect<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
            match f {
                Formula::And(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        collect(f, &mut out);
        out
    }

    /// The propositional `f`'s truth table over union positions, with the
    /// mask of the positions it reads; `None` if it reads a proposition no
    /// component declares.
    fn compile(&self, f: &Formula) -> Option<(TruthTable, PropMask)> {
        let mut mask = PropMask::default();
        let table = TruthTable::new(f, &mut |name| {
            let pos = self.union.position(name)?;
            mask.insert(pos);
            Some(pos)
        })?;
        Some((table, mask))
    }

    /// The error for `f`, which reads a proposition no component declares:
    /// the one [`Engine::prop_mask`] reports.
    fn unknown(&self, f: &Formula) -> EngineError {
        self.prop_mask(&f.atomic_props())
            .expect_err("f reads a proposition outside the union")
    }

    /// The plan for an obligation on component `i`'s minimal expansion
    /// over `props` under the trivial restriction: what
    /// [`BackendChoice::route`] plans on [`Engine::minimal_target`], from
    /// counts alone.
    fn plan_pair(&self, i: usize, props: &PropMask) -> RouteDecision {
        let frozen = props.count_difference(&self.owned[i]);
        self.backend
            .route_expansion(&self.components[i].system, frozen)
    }

    /// Component `i`'s [`Moves`], listed on first use.
    fn moves(&self, i: usize) -> &Moves {
        self.moves[i].get_or_init(|| {
            let system = &self.components[i].system;
            let at = system.alphabet().names().iter();
            Moves {
                at: at
                    .map(|name| self.union.position(name).expect("in the union"))
                    .collect(),
                moves: system
                    .proper_transitions()
                    .map(|(s, t)| (s.0, t.0))
                    .collect(),
            }
        })
    }

    /// Lemma 6 on component `i`'s minimal expansion over `read`: does
    /// `p ⇒ AX q` hold there, `p` conjoining the tables `p`? Every table
    /// is over union positions and reads only `read`.
    fn lemma6_on_masks<'t>(
        &self,
        lemma6: &mut Lemma6,
        i: usize,
        read: &PropMask,
        p: impl Iterator<Item = &'t TruthTable> + Clone,
        q: &TruthTable,
    ) -> bool {
        let moves = self.moves(i);
        let owned = moves.at.iter().enumerate();
        let owned = owned.filter_map(|(bit, &pos)| read.contains(pos).then_some((pos, bit)));
        let frozen = read.difference(&self.owned[i]);
        lemma6.decide(owned, frozen, &moves.moves, p, q)
    }

    /// Decide a (conjunct, component) pair fresh: by Lemma 6 where `plan`
    /// is the dense explicit kernel and `lemma6` answers (it returns `None`
    /// for an obligation that is not of Rule 2's form), through the
    /// backend otherwise. The verdict is the kernel's either way.
    fn run_pair(
        &self,
        plan: RouteDecision,
        lemma6: impl FnOnce() -> Option<bool>,
        backend: impl FnOnce() -> Result<Checked, EngineError>,
    ) -> Result<Checked, EngineError> {
        let start = Instant::now();
        match self.backend.plans_dense(&plan).then(lemma6).flatten() {
            Some(holds) => Ok(Checked {
                holds,
                backend: BackendKind::Explicit,
                duration: start.elapsed(),
            }),
            None => backend(),
        }
    }

    /// Check a universal obligation on every component, conjunct-wise with
    /// minimal expansions. Appends one step per (conjunct, component) pair,
    /// in grid order, deciding each pair as it is posed. A pair whose
    /// component declares none of the conjunct's propositions is decided by
    /// frame (Lemma 8) without a checker; with a store attached,
    /// obligations answered from the store never reach the checker either.
    /// A pair is planned on masks, and a [`Target`] is built for it only
    /// for a store key or a backend check.
    ///
    /// Fresh verdicts are memoized only after the last lookup, so every
    /// lookup sees the store as the call found it: a second identical
    /// component is checked, not answered by the first one's entry, and a
    /// cold proof with a store certifies exactly what one without a store
    /// does (DESIGN §6a).
    fn check_universal(&self, f: &Formula, cert: &mut Certificate) -> Result<(), EngineError> {
        // Each conjunct with its mask and, for a Rule-2 obligation
        // `p ⇒ AX q`, the truth tables of `p` and `q`.
        let conjuncts = Self::conjuncts(f)
            .into_iter()
            .map(|k| {
                let Some((p, q)) = rule2_parts(k) else {
                    return Ok((k, self.prop_mask(&k.atomic_props())?, None));
                };
                match (self.compile(p), self.compile(q)) {
                    (Some((p, p_mask)), Some((q, q_mask))) => {
                        Ok((k, p_mask.or(&q_mask), Some((p, q))))
                    }
                    _ => Err(self.unknown(k)),
                }
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        let trivial = Restriction::trivial();
        let mut scratch = Lemma6::new(self.union.len());
        let mut fresh = Vec::new();
        let mut failed = None;
        'grid: for (conjunct, mask, tables) in &conjuncts {
            let text = conjunct.to_string();
            // `p ⇒ q` decides every frame-local pair of this conjunct.
            let mut frame = None;
            for (i, comp) in self.components.iter().enumerate() {
                let name = |how: &str| format!("minimal expansion of {} ⊨ {text}{how}", comp.name);
                if let Some((p, q)) = rule2_parts(conjunct).filter(|_| self.frame_local(i, mask)) {
                    let holds = *frame.get_or_insert_with(|| {
                        propositional_validity(&p.clone().implies(q.clone()))
                    });
                    cert.step(name(" by frame (Lemma 8)"), holds, true);
                    continue;
                }
                let plan = self.plan_pair(i, mask);
                let keyed = match &self.store {
                    Some(store) => {
                        let target = self.minimal_target(i, mask);
                        let key =
                            self.target_key("check", &target, &trivial, conjunct, plan.planned);
                        if let Some(entry) = store.lookup(&key) {
                            let name = name(" (cached)");
                            cert.step_checked(name, entry.verdict, true, plan.planned, None);
                            continue;
                        }
                        Some((key, target))
                    }
                    None => None,
                };
                let lemma6 = || {
                    let (p, q) = tables.as_ref()?;
                    Some(self.lemma6_on_masks(&mut scratch, i, mask, std::iter::once(p), q))
                };
                let backend = || match &keyed {
                    Some((_, target)) => self.run_check(target, &trivial, conjunct, plan),
                    None => {
                        let target = self.minimal_target(i, mask);
                        self.run_check(&target, &trivial, conjunct, plan)
                    }
                };
                let checked = match self.run_pair(plan, lemma6, backend) {
                    Ok(checked) => checked,
                    Err(e) => {
                        failed = Some(e);
                        break 'grid;
                    }
                };
                fresh.extend(keyed.map(|(key, _)| (key, checked.holds)));
                cert.step_checked(
                    name(""),
                    checked.holds,
                    true,
                    checked.backend,
                    Some(checked.duration),
                );
            }
        }
        if let Some(store) = &self.store {
            for (key, holds) in fresh {
                store.insert(key, Entry::verdict(holds));
            }
        }
        failed.map_or(Ok(()), Err)
    }

    /// `target ⊨_r f` through the selected backend on `plan`, the route the
    /// caller made (a store key names the planned engine, so the cost
    /// model runs once per check).
    fn run_check(
        &self,
        target: &Target,
        r: &Restriction,
        f: &Formula,
        plan: RouteDecision,
    ) -> Result<Checked, EngineError> {
        let v = check_planned(self.backend, plan, target, r, f)
            .map_err(|e| EngineError::Check(e.to_string()))?;
        Ok(Checked {
            holds: v.holds,
            backend: v.stats.backend,
            duration: v.stats.duration,
        })
    }

    /// `target ⊨_r f` through the selected backend, answered from the
    /// store when possible. Returns `(verdict, was_hit, backend,
    /// duration-of-fresh-check)`.
    fn cached_target_check(
        &self,
        target: &Target,
        r: &Restriction,
        f: &Formula,
    ) -> Result<(bool, bool, BackendKind, Option<Duration>), EngineError> {
        let plan = self.backend.route(target, r);
        let Some(store) = &self.store else {
            let c = self.run_check(target, r, f, plan)?;
            return Ok((c.holds, false, c.backend, Some(c.duration)));
        };
        // The store key carries the *planned* engine (deterministic across
        // runs); the recorded backend is whatever actually answered, which
        // differs only when Auto's explicit attempt fell back. Key and
        // check share one plan.
        let key = self.target_key("check", target, r, f, plan.planned);
        let mut ran = None;
        let (entry, hit) = store.get_or_check(key, || {
            let c = self.run_check(target, r, f, plan)?;
            ran = Some((c.backend, c.duration));
            Ok::<_, EngineError>(Entry::verdict(c.holds))
        })?;
        let (kind, duration) = match ran {
            Some((kind, duration)) => (kind, Some(duration)),
            None => (plan.planned, None),
        };
        Ok((entry.verdict, hit, kind, duration))
    }

    /// Suffix a step description with the cache marker when `hit`.
    fn mark(description: String, hit: bool) -> String {
        if hit {
            format!("{description} (cached)")
        } else {
            description
        }
    }

    /// The store key for a whole-composition obligation under proof
    /// `mode`, built from the component systems (never the exponential
    /// composition itself).
    fn composition_key(&self, mode: &str, r: &Restriction, f: &Formula) -> ObligationKey {
        let systems: Vec<&System> = self.components.iter().map(|c| &c.system).collect();
        ObligationKey::composed(mode, self.backend.tag(), &systems, r, f)
    }

    /// Memoize a whole deduction: return the stored certificate for
    /// `key()` if present, otherwise run `deduce` and store its
    /// certificate. A stored certificate is returned verbatim —
    /// byte-for-byte the certificate the original deduction produced.
    /// Without a store the key is never built.
    fn cached_deduction(
        &self,
        key: impl FnOnce() -> ObligationKey,
        deduce: impl FnOnce() -> Result<Certificate, EngineError>,
    ) -> Result<Certificate, EngineError> {
        let Some(store) = &self.store else {
            return deduce();
        };
        let key = key();
        if let Some(entry) = store.lookup(&key) {
            if let Some(cert) = entry.certificate {
                return Ok(cert.into());
            }
        }
        let cert = deduce()?;
        store.insert(key, Entry::with_certificate(cert.valid, (&cert).into()));
        Ok(cert)
    }

    /// Prove `⊨_r f` of the composition, compositionally where the rules
    /// allow, with a whole-system fallback otherwise.
    ///
    /// With a store attached the memoization is two-level: the whole
    /// deduction is keyed on (components, r, f) and replayed verbatim on a
    /// repeat proof, and each component-level obligation inside a fresh
    /// deduction is keyed individually — so a *different* composition
    /// sharing a component still reuses that component's checks (its
    /// steps are marked `(cached)`).
    pub fn prove(&self, r: &Restriction, f: &Formula) -> Result<Certificate, EngineError> {
        self.cached_deduction(
            || self.composition_key("prove", r, f),
            || self.prove_uncached(r, f),
        )
    }

    fn prove_uncached(&self, r: &Restriction, f: &Formula) -> Result<Certificate, EngineError> {
        let mut cert = Certificate::new(format!("system ⊨_{r} {f}"));
        match classify(f, r) {
            Some(c) if c.class == PropertyClass::Universal => {
                cert.step(
                    format!("{f} classified universal by {:?}", c.rule),
                    true,
                    true,
                );
                self.check_universal(f, &mut cert)?;
                if cert.valid {
                    cert.step(
                        "universal property transfers to the composition (Rule 2)",
                        true,
                        true,
                    );
                }
            }
            Some(c) => {
                cert.step(
                    format!("{f} classified existential by {:?}", c.rule),
                    true,
                    true,
                );
                // The expansion must also cover the restriction's
                // propositions, or the component checker cannot evaluate
                // `I` and `F`.
                let mut props = f.atomic_props();
                props.extend(r.init.atomic_props());
                for c in &r.fairness {
                    props.extend(c.atomic_props());
                }
                let mask = self.prop_mask(&props)?;
                let mut found = false;
                for (i, comp) in self.components.iter().enumerate() {
                    let target = self.minimal_target(i, &mask);
                    let (holds, hit, kind, duration) = self.cached_target_check(&target, r, f)?;
                    if holds {
                        cert.step_checked(
                            Self::mark(
                                format!("minimal expansion of {} ⊨_{r} {f}", comp.name),
                                hit,
                            ),
                            true,
                            true,
                            kind,
                            duration,
                        );
                        cert.step(
                            "existential property transfers to the composition (Rules 1/3)",
                            true,
                            true,
                        );
                        found = true;
                        break;
                    }
                }
                if !found {
                    // Transfer-from-one-component is sufficient, not
                    // necessary: the property may still hold through the
                    // components' interaction. Fall back to the monolith.
                    cert.step(
                        "no single component establishes the existential property; \
                         falling back to whole-system check",
                        true,
                        false,
                    );
                    let target = self.composition_target();
                    let (holds, hit, kind, duration) = self.cached_target_check(&target, r, f)?;
                    cert.step_checked(
                        Self::mark(format!("composition ⊨_{r} {f}"), hit),
                        holds,
                        false,
                        kind,
                        duration,
                    );
                }
            }
            None => {
                cert.step(
                    format!(
                        "{f} not classifiable by Rules 1-3; falling back to whole-system check"
                    ),
                    true,
                    false,
                );
                let target = self.composition_target();
                let (holds, hit, kind, duration) = self.cached_target_check(&target, r, f)?;
                cert.step_checked(
                    Self::mark(format!("composition ⊨_{r} {f}"), hit),
                    holds,
                    false,
                    kind,
                    duration,
                );
            }
        }
        Ok(cert)
    }

    /// Prove `⊨_(I,F) AG Inv` via the invariant rule of §4.2.3: `Inv` must
    /// be propositional, `I ⇒ Inv` valid, and `Inv ⇒ AX Inv` universal.
    ///
    /// Each conjunct `K` of the invariant is an obligation unit. On a
    /// component that declares none of `K`'s propositions, `K ⇒ AX K`
    /// holds by frame (Lemma 8) with no check. On every other component it
    /// is checked with an escalating hypothesis:
    ///
    /// 1. `K ⇒ AX K` over the component's minimal expansion (local
    ///    induction — cost proportional to the cluster footprint),
    /// 2. `H ⇒ AX K` where `H` conjoins the invariant conjuncts whose
    ///    propositions fit inside the component's alphabet plus `K`'s
    ///    (bounded mutual induction — still local),
    /// 3. `Inv ⇒ AX K` (full mutual induction, the §4.2.3 form).
    ///
    /// Each level is a Rule-2 obligation, decided by Lemma 6 from the
    /// component's own moves ([`crate::lemmas::lemma6_ax_holds`]) wherever
    /// the dense explicit kernel would answer it.
    ///
    /// Every level implies the universal property `Inv ⇒ AX K` on that
    /// component (`Inv ⇒ K` and `Inv ⇒ H` propositionally), so Rule 2
    /// transfers `Inv ⇒ AX Inv` to the composition whenever each
    /// (conjunct, component) pair passes at *some* level. The certificate
    /// records the level used — linear verification cost in the number of
    /// components is achieved exactly when level 3 is never needed.
    pub fn prove_invariant(
        &self,
        inv: &Formula,
        init: &Formula,
        fairness: &[Formula],
    ) -> Result<Certificate, EngineError> {
        let r = Restriction::new(init.clone(), fairness.iter().cloned());
        self.cached_deduction(
            || self.composition_key("invariant", &r, inv),
            || self.prove_invariant_uncached(inv, init, fairness),
        )
    }

    fn prove_invariant_uncached(
        &self,
        inv: &Formula,
        init: &Formula,
        fairness: &[Formula],
    ) -> Result<Certificate, EngineError> {
        let (_universal, validity) = invariant_obligations(inv, init)?;
        // Each conjunct is its own obligation unit `K`; the hypothesis
        // escalation below supplies whatever neighbouring conjuncts the
        // induction needs. (Grouping conjuncts into prop-connected
        // clusters first would be sound too, but transitive sharing can
        // chain every conjunct into one global cluster — e.g. the pairwise
        // mutual-exclusion invariant of a token ring — destroying the
        // locality this method exists to exploit.)
        let grid = InvariantGrid::new(self, inv)?;
        let r = Restriction::new(init.clone(), fairness.iter().cloned());
        let mut cert = Certificate::new(format!("system ⊨_{r} AG ({inv})"));
        // I ⇒ Inv: a propositional validity over the mentioned props.
        let valid_init = propositional_validity(&validity);
        cert.step(format!("validity of {validity}"), valid_init, true);

        // One step per pair in grid order; frame-local pairs need no check.
        let mut scratch = Lemma6::new(self.union.len());
        for (ki, k) in grid.conjuncts.iter().enumerate() {
            let k = k.to_string();
            for (i, comp) in self.components.iter().enumerate() {
                if self.frame_local(i, &grid.masks[ki]) {
                    cert.step(
                        format!("{}: Inv ⇒ AX ({k}) by frame (Lemma 8)", comp.name),
                        true,
                        true,
                    );
                    continue;
                }
                match self.check_cluster_on_component(&grid, &mut scratch, ki, i)? {
                    Some((level, kind)) => cert.step_checked(
                        format!(
                            "{}: Inv ⇒ AX ({k}) via {}",
                            comp.name,
                            match level {
                                1 => "local induction (K ⇒ AX K)",
                                2 => "neighbourhood mutual induction",
                                _ => "full mutual induction (Inv ⇒ AX K)",
                            }
                        ),
                        true,
                        true,
                        kind,
                        None,
                    ),
                    None => cert.step(
                        format!(
                            "{}: Inv ⇒ AX ({k}) FAILS at every hypothesis level",
                            comp.name
                        ),
                        false,
                        true,
                    ),
                }
            }
        }
        if cert.valid {
            cert.step(
                "invariant rule: I ⇒ Inv and Inv ⇒ AX Inv (universal) give AG Inv under r",
                true,
                true,
            );
        }
        Ok(cert)
    }

    /// Try the three hypothesis levels for conjunct `ki` on component `i`;
    /// returns the first level that passes.
    fn check_cluster_on_component(
        &self,
        grid: &InvariantGrid,
        scratch: &mut Lemma6,
        ki: usize,
        i: usize,
    ) -> Result<Option<(u8, BackendKind)>, EngineError> {
        let (k, goal) = (grid.conjuncts[ki], &grid.tables[ki]);
        let ax_k = || k.clone().ax();
        // Level 1: local induction.
        let hyp = std::iter::once(goal);
        let local = || k.clone().implies(ax_k());
        if let (true, kind) = self.ladder_step(scratch, i, &grid.masks[ki], hyp, goal, local)? {
            return Ok(Some((1, kind)));
        }
        // Level 2: neighbourhood hypothesis — the conjuncts that fit
        // entirely inside the footprint Σᵢ ∪ props(K). Conjuncts merely
        // *touching* the footprint would drag their remaining propositions
        // in and blow the expansion back up to the union width.
        let relevant = grid.neighbourhood(&self.owned[i], ki);
        let footprint = relevant
            .iter()
            .fold(PropMask::default(), |acc, &c| acc.or(&grid.masks[c]));
        let hyp = relevant.iter().map(|&c| &grid.tables[c]);
        let neighbourhood = || {
            let hyp = Formula::and_many(relevant.iter().map(|&c| grid.conjuncts[c].clone()));
            hyp.implies(ax_k())
        };
        if let (true, kind) = self.ladder_step(scratch, i, &footprint, hyp, goal, neighbourhood)? {
            return Ok(Some((2, kind)));
        }
        // Level 3: full mutual induction.
        let hyp = grid.tables.iter();
        let full = || grid.inv.clone().implies(ax_k());
        if let (true, kind) = self.ladder_step(scratch, i, &grid.inv_mask, hyp, goal, full)? {
            return Ok(Some((3, kind)));
        }
        Ok(None)
    }

    /// One level of the invariant ladder: `p ⇒ AX q` on component `i`'s
    /// minimal expansion over `read` under the trivial restriction, `p`
    /// conjoining the tables `p`, decided on masks. `formula` builds the
    /// obligation, with its [`Target`], only for a store key or a backend
    /// check. Returns the verdict and the engine that answered (the
    /// planned one on a store hit).
    fn ladder_step<'t>(
        &self,
        scratch: &mut Lemma6,
        i: usize,
        read: &PropMask,
        p: impl Iterator<Item = &'t TruthTable> + Clone,
        q: &TruthTable,
        formula: impl FnOnce() -> Formula,
    ) -> Result<(bool, BackendKind), EngineError> {
        let trivial = Restriction::trivial();
        let plan = self.plan_pair(i, read);
        let lemma6 = || Some(self.lemma6_on_masks(scratch, i, read, p, q));
        let Some(store) = &self.store else {
            let backend =
                || self.run_check(&self.minimal_target(i, read), &trivial, &formula(), plan);
            let c = self.run_pair(plan, lemma6, backend)?;
            return Ok((c.holds, c.backend));
        };
        let (target, f) = (self.minimal_target(i, read), formula());
        let key = self.target_key("check", &target, &trivial, &f, plan.planned);
        let mut ran = None;
        let (entry, _) = store.get_or_check(key, || {
            let c = self.run_pair(plan, lemma6, || self.run_check(&target, &trivial, &f, plan))?;
            ran = Some(c.backend);
            Ok::<_, EngineError>(Entry::verdict(c.holds))
        })?;
        Ok((entry.verdict, ran.unwrap_or(plan.planned)))
    }

    /// Discharge a guarantees property: prove each left-hand obligation of
    /// `g` on the composition (compositionally where classifiable), then
    /// conclude the right-hand sides.
    pub fn discharge(&self, g: &Guarantee) -> Result<Certificate, EngineError> {
        let mut cert = Certificate::new(format!("discharge {}", g.provenance));
        for (f, r) in &g.lhs {
            let sub = self.prove(r, f)?;
            let compositional = sub.fully_compositional();
            cert.step(format!("obligation ⊨_{r} {f}"), sub.valid, compositional);
        }
        if cert.valid {
            for (f, r) in &g.rhs {
                cert.step(format!("concluded: system ⊨_{r} {f}"), true, true);
            }
        }
        Ok(cert)
    }

    /// Prove `⊨_r f` of the composition by **abstraction substitution**:
    /// discharge `Cᵢ ⊑ A` once, then check the property on the (usually
    /// far smaller) composition with `A` standing in for `Cᵢ`.
    ///
    /// Soundness is enforced *before* anything is checked
    /// ([`substitution_side_conditions`]): a violated side condition is a
    /// typed [`EngineError::Refinement`], never a verdict. A *failed*
    /// simulation premise, by contrast, is an honest negative outcome: the
    /// returned certificate records the counterexample and is invalid.
    ///
    /// With a store attached, the whole deduction is memoized under a
    /// substitution-shaped key, and the simulation premise is memoized on
    /// its own so other substitutions reusing the same `(C, A)` pair skip
    /// the fixpoint. The certificate carries a [`StoredSubstitution`]
    /// record with the content-addressed key of the abstraction, so
    /// `cmc-testkit` can replay the deduction from the certificate alone.
    pub fn prove_substituted(
        &self,
        sub: &Substitution,
        r: &Restriction,
        f: &Formula,
    ) -> Result<Certificate, EngineError> {
        let i = sub.component;
        if i >= self.components.len() {
            return Err(EngineError::Check(format!(
                "substitution component index {i} out of range ({} components)",
                self.components.len()
            )));
        }
        let comp = &self.components[i];
        let concrete = &comp.system;
        let abstraction = &sub.abstraction;
        let rest: Vec<&System> = self
            .components
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, c)| &c.system)
            .collect();
        substitution_side_conditions(&comp.name, concrete, abstraction, &rest, r, f)?;
        let key =
            || ObligationKey::substituted(self.backend.tag(), concrete, abstraction, &rest, r, f);
        self.cached_deduction(key, || {
            let mut cert =
                Certificate::new(format!("system ⊨_{r} {f} via abstraction of {}", comp.name));
            cert.step(
                format!(
                    "substitution side conditions hold for {} (Σ_A ⊆ Σ_C, shared \
                     propositions retained, {f} universal)",
                    comp.name
                ),
                true,
                true,
            );
            // Premise: C ⊑ A, memoized on its own key so any deduction
            // reusing this (concrete, abstraction) pair skips the fixpoint.
            let fresh = std::cell::RefCell::new(None);
            let run_sim = || -> Result<Entry, EngineError> {
                let (out, kind) = check_refines(self.backend, concrete, abstraction)
                    .map_err(|e| EngineError::Check(e.to_string()))?;
                let holds = out.holds();
                *fresh.borrow_mut() = Some((out, kind));
                Ok(Entry::verdict(holds))
            };
            let (sim_holds, sim_hit) = match &self.store {
                Some(store) => {
                    let sim_key = ObligationKey::refines(concrete, abstraction, self.backend.tag());
                    let (entry, hit) = store.get_or_check(sim_key, run_sim)?;
                    (entry.verdict, hit)
                }
                None => (run_sim()?.verdict, false),
            };
            let premise = format!("{} ⊑ abstraction", comp.name);
            match fresh.into_inner() {
                Some((out, kind)) => {
                    let detail = match out.counterexample() {
                        Some(cx) => format!("{premise} FAILS: {}", cx.display(concrete.alphabet())),
                        None => format!("{premise} ({out})"),
                    };
                    cert.step_checked(detail, sim_holds, true, kind, None);
                }
                None => cert.step(Self::mark(premise, sim_hit), sim_holds, true),
            }
            if !sim_holds {
                return Ok(cert);
            }
            // Conclusion side: the property on the substituted composition,
            // proved by the ordinary compositional machinery.
            let mut comps = self.components.clone();
            comps[i] = Component::new(format!("A[{}]", comp.name), abstraction.clone());
            let mut inner = Engine::new(comps).with_backend(self.backend);
            if let Some(store) = &self.store {
                inner.set_store(Arc::clone(store));
            }
            let inner_cert = inner.prove(r, f)?;
            let inner_valid = inner_cert.valid;
            cert.steps.extend(inner_cert.steps);
            cert.abstractions.extend(inner_cert.abstractions);
            cert.valid &= inner_valid;
            if cert.valid {
                cert.step(
                    format!(
                        "{} ⊑ A and A ∘ rest ⊨_r {f} (universal) give the conclusion \
                         on the concrete composition",
                        comp.name
                    ),
                    true,
                    true,
                );
            }
            cert.abstractions.push(StoredSubstitution {
                component: comp.name.clone(),
                abstraction_key: ObligationKey::system(abstraction).to_hex(),
                concrete: concrete.clone(),
                abstraction: abstraction.clone(),
                rest: rest.iter().map(|s| (*s).clone()).collect(),
                init: r.init.to_string(),
                fairness: r.fairness.iter().map(|g| g.to_string()).collect(),
                formula: f.to_string(),
            });
            Ok(cert)
        })
    }

    /// Prove `⊨_r f` of a **two-component** composition by the circular
    /// assume-guarantee rule: discharge the cross premises
    /// `C₁ ∘ A₂ ⊑ A₁ ∘ A₂` and `A₁ ∘ C₂ ⊑ A₁ ∘ A₂`
    /// ([`circular_refines`], with the base case taken from `r`'s initial
    /// condition), then check the property once on the joint abstraction
    /// `A₁ ∘ A₂`. Every way the circle could be unsound — a vacuous or
    /// out-of-scope base case, a non-universal property, an abstraction
    /// inventing state — is a typed [`EngineError::Refinement`].
    pub fn prove_circular(
        &self,
        a1: &System,
        a2: &System,
        r: &Restriction,
        f: &Formula,
    ) -> Result<Certificate, EngineError> {
        if self.components.len() != 2 {
            return Err(EngineError::Check(format!(
                "circular discharge needs exactly two components (engine has {})",
                self.components.len()
            )));
        }
        let (comp1, comp2) = (&self.components[0], &self.components[1]);
        let (c1, c2) = (&comp1.system, &comp2.system);
        // Scope and fragment side conditions; the alphabet-subset and
        // base-case conditions are enforced inside `circular_refines`.
        let surviving = a1.alphabet().union(a2.alphabet());
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
            }
            .into());
        }
        crate::rules::require_universal(f)?;
        for (what, g) in
            std::iter::once(("I", &r.init)).chain(r.fairness.iter().map(|g| ("fairness", g)))
        {
            if !g.is_propositional() {
                return Err(RefinementError::RestrictionNotPropositional {
                    what: format!("{what} = {g}"),
                }
                .into());
            }
        }
        // Memo key: both oriented premises, combined asymmetrically.
        let key = || {
            let k1 = ObligationKey::substituted(self.backend.tag(), c1, a1, &[a2], r, f);
            let k2 = ObligationKey::substituted(self.backend.tag(), c2, a2, &[a1], r, f);
            ObligationKey(k1.0 ^ k2.0.rotate_left(1))
        };
        self.cached_deduction(key, || {
            let discharge = circular_refines(self.backend, c1, a1, c2, a2, &r.init)?;
            let mut cert = Certificate::new(format!(
                "system ⊨_{r} {f} via circular abstraction of {} and {}",
                comp1.name, comp2.name
            ));
            cert.step(
                format!(
                    "circular base case {} is propositional, in scope, and inhabited \
                     ({} assignments)",
                    r.init, discharge.base_states
                ),
                true,
                true,
            );
            cert.step_checked(
                format!("premise C1 ∘ A2 ⊑ A1 ∘ A2 ({})", discharge.h1.0),
                true,
                true,
                discharge.h1.1,
                None,
            );
            cert.step_checked(
                format!("premise A1 ∘ C2 ⊑ A1 ∘ A2 ({})", discharge.h2.0),
                true,
                true,
                discharge.h2.1,
                None,
            );
            let mut inner = Engine::new(vec![
                Component::new(format!("A[{}]", comp1.name), a1.clone()),
                Component::new(format!("A[{}]", comp2.name), a2.clone()),
            ])
            .with_backend(self.backend);
            if let Some(store) = &self.store {
                inner.set_store(Arc::clone(store));
            }
            let inner_cert = inner.prove(r, f)?;
            let inner_valid = inner_cert.valid;
            cert.steps.extend(inner_cert.steps);
            cert.valid &= inner_valid;
            if cert.valid {
                cert.step(
                    "circular rule: both cross premises and the abstract property \
                     give the conclusion on the concrete composition",
                    true,
                    true,
                );
            }
            let spec = a1.compose(a2);
            let spec_key = ObligationKey::system(&spec).to_hex();
            for (name, concrete) in [
                (
                    format!("{} (circular premise C1 ∘ A2)", comp1.name),
                    c1.compose(a2),
                ),
                (
                    format!("{} (circular premise A1 ∘ C2)", comp2.name),
                    a1.compose(c2),
                ),
            ] {
                cert.abstractions.push(StoredSubstitution {
                    component: name,
                    abstraction_key: spec_key.clone(),
                    concrete,
                    abstraction: spec.clone(),
                    rest: vec![],
                    init: r.init.to_string(),
                    fairness: r.fairness.iter().map(|g| g.to_string()).collect(),
                    formula: f.to_string(),
                });
            }
            Ok(cert)
        })
    }

    /// Cross-check a claim against the monolithic composition (used by the
    /// test-suite to validate the engine's conclusions).
    pub fn monolithic_check(&self, r: &Restriction, f: &Formula) -> Result<bool, EngineError> {
        let target = self.composition_target();
        check_routed(self.backend, &target, r, f)
            .map(|v| v.holds)
            .map_err(|e| EngineError::Check(e.to_string()))
    }
}

/// Decide propositional validity of `f` (the `I ⇒ Inv` obligation of the
/// invariant rule): `f` is valid iff its BDD over the propositions it
/// mentions is the constant TRUE. Cost follows the diagram's size, not
/// the `2^|props|` states a truth table would enumerate.
fn propositional_validity(f: &Formula) -> bool {
    debug_assert!(f.is_propositional());
    let mut vocab = SymbolicModel::new(f.atomic_props());
    vocab
        .prop_to_bdd(f)
        .expect("every proposition of f is a variable of its own vocabulary")
        .is_true()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExplicitBackend;
    use crate::lemmas::DECISIONS;
    use cmc_ctl::parse;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two components over {x} and {y}: x only rises; y only rises.
    fn rising_pair() -> Engine {
        let mut mx = System::new(Alphabet::new(["x"]));
        mx.add_transition_named(&[], &["x"]);
        let mut my = System::new(Alphabet::new(["y"]));
        my.add_transition_named(&[], &["y"]);
        Engine::new(vec![Component::new("mx", mx), Component::new("my", my)])
    }

    #[test]
    fn universal_property_proved_compositionally() {
        let e = rising_pair();
        // x ⇒ AX x holds in mx, and in my's expansion x is frame-preserved.
        let cert = e
            .prove(&Restriction::trivial(), &parse("x -> AX x").unwrap())
            .unwrap();
        assert!(cert.valid, "{cert}");
        assert!(cert.fully_compositional());
        // Cross-check against the monolith.
        assert!(e
            .monolithic_check(&Restriction::trivial(), &parse("x -> AX x").unwrap())
            .unwrap());
    }

    #[test]
    fn universal_property_fails_when_a_component_breaks_it() {
        // my2 can clear x! (shares the variable)
        let mut mx = System::new(Alphabet::new(["x"]));
        mx.add_transition_named(&[], &["x"]);
        let mut my2 = System::new(Alphabet::new(["x", "y"]));
        my2.add_transition_named(&["x"], &["y"]);
        let e = Engine::new(vec![
            Component::new("mx", mx),
            Component::new("saboteur", my2),
        ]);
        let cert = e
            .prove(&Restriction::trivial(), &parse("x -> AX x").unwrap())
            .unwrap();
        assert!(!cert.valid);
        // The certificate pinpoints the failing component.
        assert!(cert
            .steps
            .iter()
            .any(|s| !s.ok && s.description.contains("saboteur")));
        assert!(!e
            .monolithic_check(&Restriction::trivial(), &parse("x -> AX x").unwrap())
            .unwrap());
    }

    #[test]
    fn existential_property_from_one_component() {
        let e = rising_pair();
        // ¬x ⇒ EX x holds in mx; transfers existentially.
        let cert = e
            .prove(&Restriction::trivial(), &parse("!x -> EX x").unwrap())
            .unwrap();
        assert!(cert.valid, "{cert}");
        assert!(cert.fully_compositional());
        assert!(e
            .monolithic_check(&Restriction::trivial(), &parse("!x -> EX x").unwrap())
            .unwrap());
    }

    #[test]
    fn unclassifiable_falls_back_to_monolith() {
        let e = rising_pair();
        let cert = e
            .prove(&Restriction::trivial(), &parse("EF (x & y)").unwrap())
            .unwrap();
        assert!(cert.valid, "{cert}");
        assert!(!cert.fully_compositional());
    }

    #[test]
    fn invariant_rule_end_to_end() {
        // Components: x rises; a monitor that sets y when x (y over both).
        let mut mx = System::new(Alphabet::new(["x"]));
        mx.add_transition_named(&[], &["x"]);
        let mut mon = System::new(Alphabet::new(["x", "y"]));
        mon.add_transition_named(&["x"], &["x", "y"]);
        let e = Engine::new(vec![Component::new("mx", mx), Component::new("mon", mon)]);
        // Invariant: y ⇒ x. Initially ¬x ∧ ¬y.
        let inv = parse("y -> x").unwrap();
        let init = parse("!x & !y").unwrap();
        let cert = e.prove_invariant(&inv, &init, &[]).unwrap();
        assert!(cert.valid, "{cert}");
        assert!(cert.fully_compositional());
        // Cross-check AG(inv) monolithically under the same restriction.
        let r = Restriction::with_init(init);
        assert!(e.monolithic_check(&r, &inv.ag()).unwrap());
    }

    #[test]
    fn invariant_rule_rejects_bad_invariant() {
        let e = rising_pair();
        // "x" is not inductive from ¬x init (init fails validity I ⇒ Inv).
        let cert = e
            .prove_invariant(&parse("x").unwrap(), &parse("!x").unwrap(), &[])
            .unwrap();
        assert!(!cert.valid);
    }

    #[test]
    fn discharge_rule4_guarantee() {
        // Component with an always-enabled helpful move p -> q (shared p,q
        // alphabet); environment only stutters on these.
        let mut helper = System::new(Alphabet::new(["p", "q"]));
        helper.add_transition_named(&["p"], &["q"]);
        helper.add_transition_named(&["p", "q"], &["q"]);
        let idle = System::new(Alphabet::new(["p", "q"]));
        let p = parse("p").unwrap();
        let q = parse("q").unwrap();
        let g = crate::rules::rule4(&helper, &p, &q).unwrap();
        let e = Engine::new(vec![
            Component::new("helper", helper),
            Component::new("idle", idle),
        ]);
        let cert = e.discharge(&g).unwrap();
        assert!(cert.valid, "{cert}");
        // The conclusion is checkable monolithically too: under the
        // fairness (¬p ∨ q), p ⇒ A(p U q).
        let r = &g.rhs[0].1;
        assert!(e.monolithic_check(r, &g.rhs[0].0).unwrap());
        assert!(e.monolithic_check(&g.rhs[1].1, &g.rhs[1].0).unwrap());
    }

    #[test]
    fn discharge_fails_with_disabling_environment() {
        // Environment that can clear p∧... — wait, the obligation is
        // p ⇒ AX(p∨q) on the system; a saboteur moving p-states to ¬p∧¬q
        // states breaks it.
        let mut helper = System::new(Alphabet::new(["p", "q"]));
        helper.add_transition_named(&["p"], &["q"]);
        helper.add_transition_named(&["p", "q"], &["q"]);
        let mut saboteur = System::new(Alphabet::new(["p", "q"]));
        saboteur.add_transition_named(&["p"], &[]);
        let p = parse("p").unwrap();
        let q = parse("q").unwrap();
        let g = crate::rules::rule4(&helper, &p, &q).unwrap();
        let e = Engine::new(vec![
            Component::new("helper", helper),
            Component::new("saboteur", saboteur),
        ]);
        let cert = e.discharge(&g).unwrap();
        assert!(!cert.valid);
        // And indeed the liveness conclusion fails monolithically.
        assert!(!e.monolithic_check(&g.rhs[0].1, &g.rhs[0].0).unwrap());
    }

    /// A ring of `n` stations passing a token (t0 -> t1 -> ... -> t0):
    /// station `i` hands off `(t_i, *) -> (!t_i, t_j)`.
    fn ring(n: usize) -> Engine {
        let station = |i: usize| {
            let j = (i + 1) % n;
            let names = [format!("t{i}"), format!("t{j}")];
            let mut m = System::new(Alphabet::new(names));
            let st = |b: bool, c: bool| {
                let s = cmc_kripke::State::EMPTY;
                s.with(0, b).with(1, c)
            };
            m.add_transition(st(true, false), st(false, true));
            m.add_transition(st(true, true), st(false, true));
            m
        };
        Engine::new(
            (0..n)
                .map(|i| Component::new(format!("s{i}"), station(i)))
                .collect(),
        )
    }

    /// Pairwise mutual exclusion `⋀_{i<j} ¬(tᵢ ∧ tⱼ)` over `n` stations.
    fn at_most_one(n: usize) -> Formula {
        Formula::and_many((0..n).flat_map(|i| {
            (i + 1..n).map(move |j| {
                Formula::ap(format!("t{i}"))
                    .and(Formula::ap(format!("t{j}")))
                    .not()
            })
        }))
    }

    /// The one-hot initial condition: the token starts at station 0.
    fn token_at_zero(n: usize) -> Formula {
        Formula::and_many((0..n).map(|k| {
            let t = Formula::ap(format!("t{k}"));
            if k == 0 {
                t
            } else {
                t.not()
            }
        }))
    }

    /// `I ⇒ Inv` is decided on a BDD, so 64 propositions cost a diagram
    /// of a few hundred nodes, not `2^64` truth-table rows.
    #[test]
    fn validity_scales_past_truth_tables() {
        let n = 64;
        let valid = token_at_zero(n).implies(at_most_one(n));
        assert!(propositional_validity(&valid));
        // The all-clear state satisfies at-most-one but not t0.
        let invalid = at_most_one(n).implies(token_at_zero(n));
        assert!(!propositional_validity(&invalid));
    }

    /// An initial condition outside the invariant fails exactly the
    /// `validity of …` step; the inductive steps still pass.
    #[test]
    fn invariant_rule_reports_invalid_initial_condition() {
        let n = 4;
        let cert = ring(n)
            .prove_invariant(&at_most_one(n), &parse("t0 & t1").unwrap(), &[])
            .unwrap();
        assert!(!cert.valid, "{cert}");
        let validity = cert
            .steps
            .iter()
            .find(|s| s.description.starts_with("validity of "))
            .expect("a validity step");
        assert!(!validity.ok, "{cert}");
        assert!(
            cert.steps
                .iter()
                .filter(|s| !s.ok)
                .all(|s| s.description.starts_with("validity of ")),
            "{cert}"
        );
    }

    /// The hypothesis-escalation ladder: a mutual-induction invariant
    /// whose conjuncts are not inductive alone must pass at level >= 2 and
    /// the certificate must say so.
    #[test]
    fn invariant_escalation_levels() {
        let e = ring(3);
        // Pairwise mutual exclusion: each conjunct alone is NOT inductive
        // (a handoff into t_j needs to know the source t_k was exclusive),
        // so the engine must escalate.
        let inv = parse("!(t0 & t1) & !(t0 & t2) & !(t1 & t2)").unwrap();
        let init = parse("t0 & !t1 & !t2").unwrap();
        let cert = e.prove_invariant(&inv, &init, &[]).unwrap();
        assert!(cert.valid, "{cert}");
        assert!(cert.fully_compositional());
        assert!(
            cert.steps
                .iter()
                .any(|s| s.description.contains("mutual induction")),
            "escalation expected: {cert}"
        );
        // Cross-check monolithically.
        let r = Restriction::with_init(init);
        assert!(e.monolithic_check(&r, &inv.ag()).unwrap());
    }

    /// The frame rule on the ring's invariant grid: of the `n²(n−1)/2`
    /// (conjunct, station) pairs, only the `n(2n−3)` whose station owns
    /// one of the conjunct's tokens are checked. Every other pair is
    /// decided by frame: ok, compositional, and run on no backend.
    #[test]
    fn invariant_grid_checks_only_pairs_sharing_a_proposition() {
        for (n, checked) in [(3, 9), (4, 20), (8, 104), (20, 740)] {
            assert_eq!(checked, n * (2 * n - 3));
            let cert = ring(n)
                .prove_invariant(&at_most_one(n), &token_at_zero(n), &[])
                .unwrap();
            assert!(cert.valid, "{cert}");
            // Grid order follows the validity step: conjunct-major.
            let grid = &cert.steps[1..cert.steps.len() - 1];
            assert_eq!(grid.len(), n * n * (n - 1) / 2);
            assert!(grid.iter().all(|s| s.description.contains(": Inv ⇒ AX (")));
            assert_eq!(grid.iter().filter(|s| s.backend.is_some()).count(), checked);
            for s in grid.iter().filter(|s| s.backend.is_none()) {
                assert!(s.ok && s.compositional, "{}", s.description);
                assert!(
                    s.description.ends_with(") by frame (Lemma 8)"),
                    "{}",
                    s.description
                );
            }
        }
        // The first conjunct is ¬(t0 ∧ t1); station 2 owns t2 and t3.
        let cert = ring(4)
            .prove_invariant(&at_most_one(4), &token_at_zero(4), &[])
            .unwrap();
        assert_eq!(
            cert.steps[1 + 2].description,
            "s2: Inv ⇒ AX (!(t0 & t1)) by frame (Lemma 8)"
        );
    }

    /// `tᵢ ⇒ AX (tᵢ ∨ tᵢ₊₁)` is checked on the three stations that own
    /// `tᵢ` or `tᵢ₊₁` and decided by frame on the other `n − 3`.
    #[test]
    fn universal_obligation_checks_only_owning_stations() {
        for n in [4, 7] {
            for i in 0..n {
                let (prev, next) = ((i + n - 1) % n, (i + 1) % n);
                let f = parse(&format!("t{i} -> AX (t{i} | t{next})")).unwrap();
                let cert = ring(n).prove(&Restriction::trivial(), &f).unwrap();
                assert!(cert.valid, "{cert}");
                let per_station = &cert.steps[1..=n];
                let checked: BTreeSet<&str> = per_station
                    .iter()
                    .filter(|s| s.backend.is_some())
                    .map(|s| s.description.as_str())
                    .collect();
                let owners: Vec<String> = [prev, i, next]
                    .iter()
                    .map(|k| format!("minimal expansion of s{k} ⊨ {f}"))
                    .collect();
                assert_eq!(
                    checked,
                    owners.iter().map(String::as_str).collect(),
                    "{cert}"
                );
                for s in per_station.iter().filter(|s| s.backend.is_none()) {
                    assert!(
                        s.ok && s.description.ends_with(" by frame (Lemma 8)"),
                        "{cert}"
                    );
                }
            }
        }
    }

    /// The frame rule is exact in both directions: on a bystander that
    /// declares neither `a` nor `b`, the frame-decided verdict equals the
    /// checker's on the bystander's expansion over `{a, b}`.
    #[test]
    fn frame_decisions_match_the_checker_on_the_expansion() {
        let mut owner = System::new(Alphabet::new(["a", "b"]));
        owner.add_transition_named(&["a"], &["a", "b"]);
        owner.add_transition_named(&["b"], &[]);
        let mut bystander = System::new(Alphabet::new(["c"]));
        bystander.add_transition_named(&[], &["c"]);
        bystander.add_transition_named(&["c"], &[]);
        let e = Engine::new(vec![
            Component::new("owner", owner),
            Component::new("bystander", bystander.clone()),
        ]);
        let expansion = Target::expansion(vec![&bystander], Alphabet::new(["a", "b"]));
        for (text, holds) in [
            ("a -> AX (a | b)", true),
            ("a -> AX b", false),
            ("TRUE -> AX TRUE", true),
        ] {
            let f = parse(text).unwrap();
            let oracle = check_routed(
                BackendChoice::Explicit,
                &expansion,
                &Restriction::trivial(),
                &f,
            )
            .unwrap();
            assert_eq!(oracle.holds, holds, "{text}");
            let cert = e.prove(&Restriction::trivial(), &f).unwrap();
            let step = cert
                .steps
                .iter()
                .find(|s| s.description.starts_with("minimal expansion of bystander "))
                .expect("a bystander step");
            assert!(step.description.ends_with("by frame (Lemma 8)"), "{cert}");
            assert_eq!(step.backend, None, "{cert}");
            assert_eq!(step.ok, holds, "{cert}");
            assert_eq!(cert.valid, cert.steps.iter().all(|s| s.ok), "{cert}");
            if !holds {
                assert!(!cert.valid, "{cert}");
            }
        }
    }

    /// Lemma 6 answers exactly where the dense explicit kernel would: a
    /// Rule-2 pair under the trivial restriction on one component's
    /// minimal expansion, planned `Explicit`, no wider than the planned
    /// check's dense width (8 under `Auto`, 24 under `Explicit`). The
    /// decisions are counted on this thread.
    #[test]
    fn lemma6_decides_only_where_the_dense_kernel_would() {
        let wide = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
            let mut m = System::new(Alphabet::new(names));
            m.add_transition_named(&[], &["w0"]);
            m
        };
        let (m8, m9, other) = (wide(8), wide(9), wide(1));
        let engine = |choice: BackendChoice, systems: &[&System]| {
            let named = systems.iter().enumerate();
            let comps = named.map(|(i, m)| Component::new(format!("m{i}"), (*m).clone()));
            Engine::new(comps.collect()).with_backend(choice)
        };
        // Lemma-6 decisions while `run` runs, and the verdict it returns.
        let decides = |run: &dyn Fn() -> bool| {
            let before = DECISIONS.with(|d| d.get());
            let holds = run();
            (DECISIONS.with(|d| d.get()) - before, holds)
        };
        let step = parse("w0 -> AX w0").unwrap();
        let trivial = Restriction::trivial();
        let prove = |e: &Engine, r: &Restriction, f: &Formula| e.prove(r, f).unwrap().valid;
        for (choice, m, expected) in [
            (BackendChoice::Auto, &m8, 1),
            (BackendChoice::Auto, &m9, 0),
            (BackendChoice::Explicit, &m9, 1),
            (BackendChoice::Symbolic, &m8, 0),
        ] {
            let e = engine(choice, &[m]);
            let run = || prove(&e, &trivial, &step);
            assert_eq!(decides(&run), (expected, true), "{choice:?}");
        }
        // One frozen proposition past the width is past it too: only the
        // owner of `z` decides its pair by Lemma 6.
        let z = System::new(Alphabet::new(["z"]));
        let e = engine(BackendChoice::Auto, &[&m8, &z]);
        let props = |names: &[&str]| e.prop_mask(&names.iter().map(|n| n.to_string()).collect());
        let (own, frozen) = (props(&["w0"]).unwrap(), props(&["w0", "z"]).unwrap());
        assert!(e.backend.plans_dense(&e.plan_pair(0, &own)));
        assert!(!e.backend.plans_dense(&e.plan_pair(0, &frozen)));
        let read_z = parse("w0 & z -> AX w0").unwrap();
        assert_eq!(decides(&|| prove(&e, &trivial, &read_z)), (1, true));
        // Not a trivially restricted Rule-2 obligation on one component: a
        // pinned existential, an `EX`, and the whole composition.
        let e = engine(BackendChoice::Auto, &[&m8]);
        let pinned = Restriction::with_init(parse("w0").unwrap());
        let ef = parse("EF w0").unwrap();
        assert_eq!(decides(&|| prove(&e, &pinned, &ef)), (0, true));
        let ex = parse("w0 -> EX w0").unwrap();
        assert_eq!(decides(&|| prove(&e, &trivial, &ex)), (0, true));
        let both = engine(BackendChoice::Auto, &[&other, &m8]);
        let whole = || both.monolithic_check(&trivial, &step).unwrap();
        assert_eq!(decides(&whole), (0, true));
    }

    /// A conjunct that reads no proposition fits every footprint, so level
    /// 2's hypothesis keeps it: here `FALSE & k ⇒ AX k` holds vacuously at
    /// level 2, although the move `{k} → ∅` breaks `k ⇒ AX k`. A
    /// hypothesis without the `FALSE` would fall through to level 3.
    #[test]
    fn neighbourhood_keeps_conjuncts_that_read_no_proposition() {
        let mut m = System::new(Alphabet::new(["k"]));
        m.add_transition_named(&["k"], &[]);
        let e = Engine::new(vec![Component::new("m", m)]);
        let inv = parse("FALSE & k").unwrap();
        let cert = e.prove_invariant(&inv, &Formula::False, &[]).unwrap();
        assert_eq!(
            cert.to_string(),
            "goal: system ⊨_(FALSE, {TRUE}) AG (FALSE & k)\n\
             \x20 [ok] validity of FALSE -> FALSE & k\n\
             \x20 [ok] m: Inv ⇒ AX (FALSE) by frame (Lemma 8)\n\
             \x20 [ok] m: Inv ⇒ AX (k) via neighbourhood mutual induction [explicit]\n\
             \x20 [ok] invariant rule: I ⇒ Inv and Inv ⇒ AX Inv (universal) give AG Inv \
             under r\n\
             verdict: established\n"
        );
    }

    /// The pool a random component declares a prefix of, and the frozen
    /// propositions a second component owns.
    const POOL: [&str; 4] = ["a", "b", "c", "d"];
    const FROZEN: [&str; 3] = ["x", "y", "z"];

    /// A propositional formula over `POOL` and `FROZEN`, both constants among its
    /// leaves and a frozen name as likely as a pool name.
    fn arb_prop() -> impl Strategy<Value = Formula> {
        let leaf = prop_oneof![
            Just(Formula::True),
            Just(Formula::False),
            proptest::sample::select(POOL.to_vec()).prop_map(Formula::ap),
            proptest::sample::select(FROZEN.to_vec()).prop_map(Formula::ap),
        ];
        leaf.prop_recursive(2, 8, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|f| f.not()),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                (inner.clone(), inner).prop_map(|(a, b)| a.iff(b)),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Lemma 6 on masks, as the ladder poses it, gives the explicit
        /// checker's verdict on `H ⇒ AX K` over the engine's own minimal
        /// expansion: a random component over 1–4 pool names, 0–3 frozen
        /// propositions read, and a hypothesis of 1–4 conjuncts, half the
        /// time led by `K` as on levels 2 and 3 (names neither declared
        /// nor frozen folded to the constant `fill`).
        #[test]
        fn lemma6_on_masks_decides_like_the_explicit_checker(
            width in 1usize..5,
            moves in proptest::collection::vec((0u32..16, 0u32..16), 0..10),
            frozen in 0usize..4,
            hyp in proptest::collection::vec(arb_prop(), 1..5),
            goal in arb_prop(),
            goal_first in any::<bool>(),
            fill in any::<bool>(),
        ) {
            let mut m = System::new(Alphabet::new(POOL[..width].iter().copied()));
            let states = (1u32 << width) - 1;
            for (s, t) in moves {
                let state = |bits: u32| cmc_kripke::State((bits & states) as u128);
                m.add_transition(state(s), state(t));
            }
            let e = Engine::new(vec![
                Component::new("m", m.clone()),
                Component::new("env", System::new(Alphabet::new(FROZEN))),
            ]);
            let within = |f: Formula| {
                POOL[width..]
                    .iter()
                    .chain(&FROZEN[frozen..])
                    .fold(f, |f, n| f.assign(n, fill))
            };
            let goal = within(goal);
            let first = goal_first.then(|| goal.clone());
            let rest = hyp.into_iter().skip(usize::from(goal_first)).map(within);
            let hyp: Vec<Formula> = first.into_iter().chain(rest).collect();
            let compiled: Vec<_> = hyp.iter().map(|h| e.compile(h).unwrap()).collect();
            let (q, q_mask) = e.compile(&goal).unwrap();
            let read = compiled.iter().fold(q_mask, |acc, (_, mask)| acc.or(mask));
            let mut scratch = Lemma6::new(e.union.len());
            let p = compiled.iter().map(|(table, _)| table);
            let decided = e.lemma6_on_masks(&mut scratch, 0, &read, p, &q);
            let f = Formula::and_many(hyp).implies(goal.ax());
            let oracle = ExplicitBackend::default()
                .check(&e.minimal_target(0, &read), &Restriction::trivial(), &f)
                .unwrap();
            prop_assert_eq!(decided, oracle.holds, "{} on {:?}", f, m);
        }
    }

    /// Minimal expansions: obligations whose propositions live inside one
    /// component never construct wide systems (observable through a large
    /// union alphabet that would exceed the explicit checker's limit if
    /// fully expanded).
    #[test]
    fn minimal_expansion_keeps_wide_unions_tractable() {
        // 30 independent 1-bit components: union alphabet of 30 props is
        // beyond the default dense width, so full-union expansion would
        // fail.
        let comps: Vec<Component> = (0..30)
            .map(|i| {
                let name = format!("x{i}");
                let mut m = System::new(Alphabet::new([name.clone()]));
                m.add_transition_named(&[], &[name.as_str()]);
                Component::new(format!("c{i}"), m)
            })
            .collect();
        let e = Engine::new(comps);
        assert_eq!(e.union_alphabet().len(), 30);
        let cert = e
            .prove(&Restriction::trivial(), &parse("x3 -> AX x3").unwrap())
            .unwrap();
        assert!(cert.valid, "{cert}");
        assert!(cert.fully_compositional());
    }

    /// Masks past one 64-bit word: a minimal expansion names exactly the
    /// propositions its component lacks, in name order (as the proof's
    /// targets always have), not in union order.
    #[test]
    fn minimal_targets_past_one_mask_word() {
        let comps: Vec<Component> = (0..70)
            .map(|i| {
                let name = format!("x{i}");
                let mut m = System::new(Alphabet::new([name.clone()]));
                m.add_transition_named(&[], &[name.as_str()]);
                Component::new(format!("c{i}"), m)
            })
            .collect();
        let e = Engine::new(comps);
        let f = parse("x0 -> AX (x0 | x7 | x69)").unwrap();
        let mask = e.prop_mask(&f.atomic_props()).unwrap();
        let extra = |i: usize| e.minimal_target(i, &mask).extra().names().to_vec();
        assert_eq!(extra(0), ["x69", "x7"]);
        assert_eq!(extra(69), ["x0", "x7"]);
        assert_eq!(extra(3), ["x0", "x69", "x7"]);
        let cert = e.prove(&Restriction::trivial(), &f).unwrap();
        assert!(cert.valid, "{cert}");
        assert_eq!(cert.checked_steps().count(), 3, "{cert}");
    }

    /// The acceptance scenario for pluggable backends: an unclassifiable
    /// property over a composition whose union alphabet exceeds
    /// `ExplicitLimits::DEFAULT_DENSE_BITS` forces a whole-system check, which the old
    /// explicit-only engine could never run (`TooLarge`). With the `Auto`
    /// policy the fallback routes to the symbolic backend and succeeds.
    #[test]
    fn auto_backend_proves_wide_composition_monolithically() {
        let width = cmc_ctl::ExplicitLimits::DEFAULT_DENSE_BITS + 2; // 26 > 24
        let comps: Vec<Component> = (0..width)
            .map(|i| {
                let name = format!("x{i}");
                let mut m = System::new(Alphabet::new([name.clone()]));
                m.add_transition_named(&[], &[name.as_str()]);
                Component::new(format!("c{i}"), m)
            })
            .collect();
        // EF (x0 & x25) is not classifiable by Rules 1-3, so the proof
        // must fall back to the whole 26-proposition composition.
        let f = parse(&format!("EF (x0 & x{})", width - 1)).unwrap();

        let auto = Engine::new(comps.clone());
        let cert = auto.prove(&Restriction::trivial(), &f).unwrap();
        assert!(cert.valid, "{cert}");
        assert!(!cert.fully_compositional());
        assert!(
            cert.steps
                .iter()
                .any(|s| s.backend == Some(BackendKind::Symbolic)),
            "the wide fallback must have run symbolically: {cert}"
        );
        assert!(auto.monolithic_check(&Restriction::trivial(), &f).unwrap());

        // Forcing the explicit backend still refuses: a trivial init over
        // 26 propositions would materialise 2^26 states, past the budget.
        let explicit = Engine::new(comps).with_backend(BackendChoice::Explicit);
        let err = explicit.prove(&Restriction::trivial(), &f).unwrap_err();
        assert!(
            err.to_string()
                .contains("exceeds the explicit-engine budget"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn forced_backends_agree_with_auto() {
        let e = rising_pair();
        let f = parse("x -> AX x").unwrap();
        for (choice, kind) in [
            (BackendChoice::Explicit, BackendKind::Explicit),
            (BackendChoice::Symbolic, BackendKind::Symbolic),
        ] {
            let forced = rising_pair().with_backend(choice);
            let cert = forced.prove(&Restriction::trivial(), &f).unwrap();
            assert!(cert.valid, "{choice:?}: {cert}");
            assert_eq!(
                cert.valid,
                e.prove(&Restriction::trivial(), &f).unwrap().valid
            );
            let expected = Some(kind);
            assert!(
                cert.steps
                    .iter()
                    .filter(|s| s.backend.is_some())
                    .all(|s| s.backend == expected),
                "{choice:?} must pin every checked step: {cert}"
            );
        }
    }

    #[test]
    fn store_replays_identical_certificates() {
        let store = Arc::new(CertStore::new());
        let e = rising_pair().with_store(Arc::clone(&store));
        let f = parse("x -> AX x").unwrap();
        let bare = rising_pair().prove(&Restriction::trivial(), &f).unwrap();
        let cold = e.prove(&Restriction::trivial(), &f).unwrap();
        let warm = e.prove(&Restriction::trivial(), &f).unwrap();
        // The cold run (empty store) proves exactly what a store-less
        // engine proves, and the warm run replays it verbatim.
        assert_eq!(bare, cold);
        assert_eq!(cold, warm);
        assert!(store.stats().hits >= 1, "{}", store.stats());
    }

    #[test]
    fn shared_component_hits_across_compositions() {
        let store = Arc::new(CertStore::new());
        let mut mx = System::new(Alphabet::new(["x"]));
        mx.add_transition_named(&[], &["x"]);
        let mut my = System::new(Alphabet::new(["y"]));
        my.add_transition_named(&[], &["y"]);
        let mut mz = System::new(Alphabet::new(["z"]));
        mz.add_transition_named(&[], &["z"]);
        let f = parse("x -> AX x").unwrap();

        let e1 = Engine::new(vec![
            Component::new("mx", mx.clone()),
            Component::new("my", my),
        ])
        .with_store(Arc::clone(&store));
        let c1 = e1.prove(&Restriction::trivial(), &f).unwrap();
        assert!(c1.valid);
        assert!(!c1.steps.iter().any(|s| s.description.contains("(cached)")));

        // A different composition sharing mx: mx's obligation is answered
        // from the store; mz's is fresh.
        let e2 = Engine::new(vec![Component::new("mx", mx), Component::new("mz", mz)])
            .with_store(Arc::clone(&store));
        let c2 = e2.prove(&Restriction::trivial(), &f).unwrap();
        assert!(c2.valid);
        assert!(
            c2.steps
                .iter()
                .any(|s| s.description.contains("mx") && s.description.contains("(cached)")),
            "{c2}"
        );
        assert!(
            c2.steps
                .iter()
                .any(|s| s.description.contains("mz") && !s.description.contains("(cached)")),
            "{c2}"
        );
        assert!(store.stats().hits >= 1);
    }

    /// DESIGN §6a's transparency rule where deciding pairs in place could
    /// break it: two components with the same system pose identical
    /// obligations under identical store keys, and a cold proof with a
    /// fresh store must not answer the second from the first one's entry.
    #[test]
    fn identical_components_keep_cold_proofs_transparent() {
        let mut twin = System::new(Alphabet::new(["a", "b"]));
        twin.add_transition_named(&[], &["a"]);
        twin.add_transition_named(&["a"], &["a", "b"]);
        let engine = || {
            Engine::new(vec![
                Component::new("left", twin.clone()),
                Component::new("right", twin.clone()),
            ])
        };
        let store = Arc::new(CertStore::new());
        let stored = engine().with_store(Arc::clone(&store));
        let no_cached = |cert: &Certificate| {
            assert!(cert.valid, "{cert}");
            assert!(!cert.steps.iter().any(Step::cached), "{cert}");
        };
        let r = Restriction::trivial();
        let f = parse("(a -> AX a) & (b -> AX b)").unwrap();
        let bare = engine().prove(&r, &f).unwrap();
        let cold = stored.prove(&r, &f).unwrap();
        no_cached(&cold);
        assert_eq!(cold, bare);
        assert_eq!(stored.prove(&r, &f).unwrap(), cold);

        let (inv, init) = (parse("b -> a").unwrap(), parse("!a & !b").unwrap());
        let bare = engine().prove_invariant(&inv, &init, &[]).unwrap();
        let cold = stored.prove_invariant(&inv, &init, &[]).unwrap();
        no_cached(&cold);
        assert_eq!(cold, bare);
        assert_eq!(stored.prove_invariant(&inv, &init, &[]).unwrap(), cold);
        assert!(store.stats().hits >= 2, "{}", store.stats());
    }

    /// When no single component establishes an existential property, the
    /// certificate says so in one sentence before the whole-system check.
    #[test]
    fn existential_fallback_step_text() {
        // Each component's expansion freezes the other's proposition, so
        // neither reaches `x & y` alone; the composition does.
        let cert = rising_pair()
            .prove(&Restriction::trivial(), &parse("EF (x & y)").unwrap())
            .unwrap();
        assert!(cert.valid, "{cert}");
        let steps: Vec<&str> = cert.steps.iter().map(|s| s.description.as_str()).collect();
        assert_eq!(
            steps[1],
            "no single component establishes the existential property; \
             falling back to whole-system check",
            "{cert}"
        );
        assert_eq!(steps.len(), 3, "{cert}");
    }

    /// Toggler on `name` with `k` private scratch bits cycled before the
    /// observable flips.
    fn scratch_toggler(name: &str, scratch: &[&str]) -> System {
        let mut names = vec![name.to_string()];
        names.extend(scratch.iter().map(|s| s.to_string()));
        let mut m = System::new(Alphabet::new(names.clone()));
        // Walk up through the scratch bits, flip the observable, walk down.
        let mut cur: Vec<&str> = vec![];
        for s in scratch {
            let mut next = cur.clone();
            next.push(s);
            m.add_transition_named(&cur, &next);
            cur = next;
        }
        let mut with_obs = cur.clone();
        with_obs.insert(0, name);
        m.add_transition_named(&cur, &with_obs);
        m.add_transition_named(&with_obs, &[name]);
        m.add_transition_named(&[name], &[]);
        m
    }

    #[test]
    fn substituted_proof_is_sound_and_recorded() {
        let c = scratch_toggler("x", &["s1", "s2"]);
        let a = c.project(&Alphabet::new(["x"]));
        let ctx = scratch_toggler("y", &[]);
        let e = Engine::new(vec![
            Component::new("worker", c.clone()),
            Component::new("ctx", ctx),
        ]);
        let f = parse("AG (x | !x)").unwrap();
        let r = Restriction::trivial();
        let sub = Substitution::new(0, a.clone());
        let cert = e.prove_substituted(&sub, &r, &f).unwrap();
        assert!(cert.valid, "{cert}");
        assert_eq!(cert.abstractions.len(), 1);
        let rec = &cert.abstractions[0];
        assert_eq!(rec.component, "worker");
        assert_eq!(rec.concrete, c);
        assert_eq!(rec.abstraction, a);
        assert_eq!(rec.abstraction_key, ObligationKey::system(&a).to_hex());
        assert_eq!(rec.formula, f.to_string());
        // Verdict agrees with the monolith.
        assert!(e.monolithic_check(&r, &f).unwrap());
    }

    #[test]
    fn substituted_proof_replays_verbatim_from_the_store() {
        let c = scratch_toggler("x", &["s1"]);
        let a = c.project(&Alphabet::new(["x"]));
        let ctx = scratch_toggler("y", &[]);
        let store = Arc::new(CertStore::new());
        let mk = |store: &Arc<CertStore>| {
            Engine::new(vec![
                Component::new("worker", c.clone()),
                Component::new("ctx", ctx.clone()),
            ])
            .with_store(Arc::clone(store))
        };
        let f = parse("AG (y -> AX (y | x))").unwrap();
        let r = Restriction::trivial();
        let sub = Substitution::new(0, a);
        let cold = mk(&store).prove_substituted(&sub, &r, &f).unwrap();
        let warm = mk(&store).prove_substituted(&sub, &r, &f).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold.abstractions, warm.abstractions);
        assert!(store.stats().hits >= 1);
    }

    #[test]
    fn unsound_substitutions_are_typed_errors_not_verdicts() {
        let c = scratch_toggler("x", &["s1"]);
        let a = c.project(&Alphabet::new(["x"]));
        // Context sharing the scratch bit the abstraction drops.
        let mut ctx = System::new(Alphabet::new(["s1"]));
        ctx.add_transition_named(&[], &["s1"]);
        let e = Engine::new(vec![
            Component::new("worker", c),
            Component::new("peeker", ctx),
        ]);
        let err = e
            .prove_substituted(
                &Substitution::new(0, a.clone()),
                &Restriction::trivial(),
                &parse("AG (x | !x)").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Refinement(RefinementError::SharedPropositionDropped { .. })
        ));
        // An existential property is likewise refused up front (clean
        // context, so the dropped-proposition check cannot mask it).
        let e = Engine::new(vec![
            Component::new("worker", scratch_toggler("x", &["s1"])),
            Component::new("ctx", scratch_toggler("y", &[])),
        ]);
        let err = e
            .prove_substituted(
                &Substitution::new(0, a),
                &Restriction::trivial(),
                &parse("EF x").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Refinement(RefinementError::NotUniversal { .. })
        ));
    }

    #[test]
    fn failed_simulation_premise_yields_an_invalid_certificate() {
        // The "abstraction" forgets the toggler's descent, so C ⋢ A.
        let c = scratch_toggler("x", &[]);
        let mut a = System::new(Alphabet::new(["x"]));
        a.add_transition_named(&[], &["x"]);
        let ctx = scratch_toggler("y", &[]);
        let e = Engine::new(vec![
            Component::new("worker", c),
            Component::new("ctx", ctx),
        ]);
        let cert = e
            .prove_substituted(
                &Substitution::new(0, a),
                &Restriction::trivial(),
                &parse("AG (x | !x)").unwrap(),
            )
            .unwrap();
        assert!(!cert.valid);
        assert!(
            cert.steps
                .iter()
                .any(|s| !s.ok && s.description.contains("FAILS")),
            "{cert}"
        );
        // Nothing was substituted, so nothing is recorded for replay.
        assert!(cert.abstractions.is_empty());
    }

    #[test]
    fn circular_discharge_proves_a_cross_property() {
        let c1 = scratch_toggler("x", &["s1"]);
        let a1 = c1.project(&Alphabet::new(["x"]));
        let c2 = scratch_toggler("y", &["s2"]);
        let a2 = c2.project(&Alphabet::new(["y"]));
        let e = Engine::new(vec![
            Component::new("left", c1),
            Component::new("right", c2),
        ]);
        let r = Restriction::trivial();
        let f = parse("AG ((x & y) -> (x | y))").unwrap();
        let cert = e.prove_circular(&a1, &a2, &r, &f).unwrap();
        assert!(cert.valid, "{cert}");
        assert_eq!(cert.abstractions.len(), 2);
        assert!(cert
            .steps
            .iter()
            .any(|s| s.description.contains("premise C1 ∘ A2")));
        assert!(e.monolithic_check(&r, &f).unwrap());
    }

    #[test]
    fn unsound_circular_discharges_are_rejected() {
        let c1 = scratch_toggler("x", &["s1"]);
        let a1 = c1.project(&Alphabet::new(["x"]));
        let c2 = scratch_toggler("y", &["s2"]);
        let a2 = c2.project(&Alphabet::new(["y"]));
        let e = Engine::new(vec![
            Component::new("left", c1.clone()),
            Component::new("right", c2.clone()),
        ]);
        let f = parse("AG (x | !x)").unwrap();
        // Vacuous base case.
        let err = e
            .prove_circular(
                &a1,
                &a2,
                &Restriction::with_init(parse("x & !x").unwrap()),
                &f,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Refinement(RefinementError::CircularBaseCaseFailed { .. })
        ));
        // A premise that does not hold names itself.
        let mut riser = System::new(Alphabet::new(["x"]));
        riser.add_transition_named(&[], &["x"]);
        let err = e
            .prove_circular(&riser, &a2, &Restriction::trivial(), &f)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Refinement(RefinementError::SimulationFailed { .. })
        ));
        // Wrong arity engine.
        let three = Engine::new(vec![
            Component::new("a", c1.clone()),
            Component::new("b", c2.clone()),
            Component::new("c", scratch_toggler("z", &[])),
        ]);
        assert!(three
            .prove_circular(&a1, &a2, &Restriction::trivial(), &f)
            .is_err());
    }

    #[test]
    fn certificate_display() {
        let e = rising_pair();
        let cert = e
            .prove(&Restriction::trivial(), &parse("x -> AX x").unwrap())
            .unwrap();
        let text = cert.to_string();
        assert!(text.contains("goal:"));
        assert!(text.contains("[ok]"));
        assert!(text.contains("established"));
    }

    #[test]
    fn certificate_introspection_hooks() {
        let mut cert = Certificate::new("demo");
        cert.step("pure deduction", true, true);
        cert.step_checked(
            "fresh check",
            true,
            true,
            BackendKind::Explicit,
            Some(Duration::from_millis(1)),
        );
        cert.step_checked(
            "shared obligation (cached)",
            true,
            true,
            BackendKind::Symbolic,
            None,
        );

        assert!(cert.is_consistent());
        assert_eq!(cert.checked_steps().count(), 2);
        assert_eq!(
            cert.backends_used(),
            vec![BackendKind::Explicit, BackendKind::Symbolic]
        );
        assert!(!cert.steps[0].cached());
        assert!(!cert.steps[1].cached());
        assert!(cert.steps[2].cached());

        // A certificate whose flag contradicts its steps is inconsistent.
        cert.valid = true;
        cert.steps[1].ok = false;
        assert!(!cert.is_consistent());
    }

    /// The reference oracle: evaluate `f` in every state over `alphabet`.
    fn truth_table_validity(alphabet: &Alphabet, f: &Formula) -> bool {
        cmc_kripke::state::all_states(alphabet).all(|s| f.eval_in_state(alphabet, s))
    }

    /// A random propositional formula over `props` of depth at most
    /// `depth`, drawing every connective and both constants.
    fn random_formula(rng: &mut StdRng, props: &[&str], depth: u32) -> Formula {
        if depth == 0 || rng.gen_bool(0.2) {
            return match rng.gen_range(0..props.len() + 2) {
                0 => Formula::True,
                1 => Formula::False,
                k => Formula::ap(props[k - 2]),
            };
        }
        let a = random_formula(rng, props, depth - 1);
        if rng.gen_bool(0.2) {
            return a.not();
        }
        let b = random_formula(rng, props, depth - 1);
        match rng.gen_range(0..4) {
            0 => a.and(b),
            1 => a.or(b),
            2 => a.implies(b),
            _ => a.iff(b),
        }
    }

    #[test]
    fn propositional_validity_decides_tautologies() {
        assert!(propositional_validity(&parse("a | !a").unwrap()));
        assert!(propositional_validity(&parse("a & b -> a").unwrap()));
        assert!(!propositional_validity(&parse("a -> b").unwrap()));
        // Constant formulas mention no proposition at all.
        assert!(propositional_validity(&Formula::True));
        assert!(!propositional_validity(&Formula::False));
        assert!(propositional_validity(
            &Formula::False.implies(Formula::False)
        ));
    }

    /// The BDD verdict equals the truth table on a generated family over
    /// up to six propositions: random formulas (mostly non-tautologies)
    /// and tautologies built from them (`g <-> g`, `g & h -> g`).
    #[test]
    fn propositional_validity_matches_truth_table() {
        let all = ["a", "b", "c", "d", "e", "f"];
        let alphabet = Alphabet::new(all);
        let mut rng = StdRng::seed_from_u64(0x1a7e);
        let (mut valid, mut invalid) = (0, 0);
        for width in 1..=all.len() {
            for _ in 0..200 {
                let g = random_formula(&mut rng, &all[..width], 5);
                let h = random_formula(&mut rng, &all[..width], 3);
                for f in [
                    g.clone(),
                    g.clone().or(h.clone()),
                    g.clone().iff(g.clone()),
                    g.clone().and(h).implies(g),
                ] {
                    let expected = truth_table_validity(&alphabet, &f);
                    assert_eq!(propositional_validity(&f), expected, "{f}");
                    if expected {
                        valid += 1;
                    } else {
                        invalid += 1;
                    }
                }
            }
        }
        // Both verdicts are exercised in bulk.
        assert!(
            valid > 1000 && invalid > 1000,
            "{valid} valid, {invalid} invalid"
        );
    }
}
