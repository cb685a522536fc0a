//! The explicit and symbolic checker backends.
//!
//! The paper keeps its deduction layer engine-agnostic — the case study
//! discharges obligations with SMV while the compositional rules never
//! care *how* a `⊨_r` query is answered. This module is that seam: two
//! backends, [`ExplicitBackend`] over the explicit-state checker
//! (`cmc_ctl::Checker`) and [`SymbolicBackend`] over the symbolic BDD
//! checker (`cmc_symbolic`), whose `check` methods return one [`Verdict`]
//! shape, plus a [`BackendChoice`] selector whose `Auto` policy is a
//! measured **cost model**: it estimates the reachable
//! state count from component sizes, alphabet overlap and the pinned
//! initial condition ([`estimate_reachable_states`]), routes
//! explicit-vs-symbolic on that estimate against the bench-calibrated
//! [`AUTO_CROSSOVER_STATES`], and records the decision (and any fallback)
//! in [`CheckStats::route`]. There is no width cliff any more — the
//! explicit engine runs reachable-only past
//! [`ExplicitLimits::dense_bits`], so a pinned 30-station ring stays
//! explicit while a trivially-restricted one routes symbolic.
//!
//! Checks are posed against a [`Target`] — borrowed component systems
//! plus an expansion alphabet, composed *lazily*, with the union alphabet
//! `Σ*` computed once when the target is built. This matters: neither
//! backend materialises the interleaving product, and neither copies a
//! component or recomputes the union. The explicit backend
//! frame-pads each component's transitions straight into its CSR index
//! ([`Checker::from_components`]); the symbolic backend builds one
//! disjunctive transition partition per component
//! ([`SymbolicModel::from_components`]). That is what removes the
//! `TooLarge` ceiling from compositional proofs and keeps the explicit
//! path linear in Σ|Rᵢ| rather than the product's `BTreeMap` explosion.

use cmc_bdd::BddStats;
use cmc_ctl::{
    simulates_explicit, CheckError, Checker, ExplicitLimits, Formula, Restriction, SimError,
    MAX_SIM_PAIR_PROPS,
};
use cmc_kripke::{Alphabet, SimulationOutcome, State, System};
use cmc_symbolic::{
    simulates_symbolic, ImageMode, MaintenanceConfig, ScheduleStats, SymbolicError, SymbolicModel,
};
use std::fmt;
use std::time::{Duration, Instant};

/// Maximum number of violating-state witnesses retained in a [`Verdict`]
/// (matches the explicit checker's cap).
pub const MAX_WITNESSES: usize = cmc_ctl::Verdict::MAX_WITNESSES;

/// A concrete checking engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Explicit-state enumeration over `2^Σ` ([`cmc_ctl::Checker`]).
    Explicit,
    /// BDD fixpoints over partitioned relations ([`cmc_symbolic`]).
    Symbolic,
}

impl BackendKind {
    /// Stable identity string — used in store keys and certificates, so
    /// it must never change for an existing kind.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Explicit => "explicit",
            BackendKind::Symbolic => "symbolic",
        }
    }

    /// Inverse of [`BackendKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "explicit" => Some(BackendKind::Explicit),
            "symbolic" => Some(BackendKind::Symbolic),
            _ => None,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The caller's backend policy for an engine or a driver run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// Always the explicit-state checker (errors past its budgets).
    Explicit,
    /// Always the symbolic checker.
    Symbolic,
    /// Route on the measured cost model: explicit when the estimated
    /// reachable state count is at most [`AUTO_CROSSOVER_STATES`],
    /// symbolic beyond — with a budgeted explicit attempt that falls back
    /// to symbolic if the estimate proves optimistic (see
    /// [`check_routed`]).
    #[default]
    Auto,
}

impl BackendChoice {
    /// Plan a backend for `target ⊨_r …` using the measured cost model.
    /// Deterministic in its inputs (the planned kind is what store keys
    /// hash), and recorded verbatim in [`CheckStats::route`]; the actual
    /// engine may differ only when an `Auto` explicit attempt falls back
    /// (flagged by [`RouteDecision::fell_back`]).
    pub fn route(self, target: &Target, r: &Restriction) -> RouteDecision {
        self.decide(target.width(), estimate_reachable_states(target, r))
    }

    /// [`BackendChoice::route`] for one component expanded over `frozen`
    /// propositions it does not declare, under the trivial restriction,
    /// from counts alone: the expansion is `|Σ| + frozen` wide, nothing is
    /// shared and nothing is pinned, so the estimate is
    /// `⌈2^(min(|Σ|, log2(touched + 1)) + frozen)⌉`. No [`Target`] is
    /// built.
    pub(crate) fn route_expansion(self, system: &System, frozen: usize) -> RouteDecision {
        let width = system.alphabet().len() + frozen;
        self.decide(width, estimate_from_counts([system], 0, frozen, 0))
    }

    /// The plan for a target `width` propositions wide whose reachable
    /// state count is estimated at `estimated_states`.
    fn decide(self, width: usize, estimated_states: u128) -> RouteDecision {
        let planned = match self {
            BackendChoice::Explicit => BackendKind::Explicit,
            BackendChoice::Symbolic => BackendKind::Symbolic,
            BackendChoice::Auto => {
                if estimated_states <= AUTO_CROSSOVER_STATES as u128 {
                    BackendKind::Explicit
                } else {
                    BackendKind::Symbolic
                }
            }
        };
        RouteDecision {
            width,
            estimated_states,
            crossover: AUTO_CROSSOVER_STATES,
            planned,
            fell_back: false,
        }
    }

    /// Does `plan` run the dense explicit kernel under this policy:
    /// planned `Explicit` and no wider than
    /// [`ExplicitLimits::dense_bits`]? Lemma 6 decides exactly the Rule-2
    /// pairs planned so.
    pub(crate) fn plans_dense(self, plan: &RouteDecision) -> bool {
        plan.planned == BackendKind::Explicit && plan.width <= self.explicit_limits().dense_bits
    }

    /// The limits a check planned `Explicit` under this policy runs at:
    /// `Auto`'s attempt is budgeted by the cost model (cheap to be wrong)
    /// and labels the dense universe only up to [`AUTO_DENSE_BITS`]; a
    /// forced `Explicit` check runs at the defaults.
    pub(crate) fn explicit_limits(self) -> ExplicitLimits {
        match self {
            BackendChoice::Auto => ExplicitLimits {
                dense_bits: AUTO_DENSE_BITS,
                max_states: Some(AUTO_CROSSOVER_STATES.saturating_mul(AUTO_BUDGET_SLACK)),
            },
            _ => ExplicitLimits::default(),
        }
    }

    /// Stable identity string for deduction-level store keys and the
    /// daemon's wire protocol (the *policy*, as opposed to the resolved
    /// [`BackendKind::name`] used for per-obligation keys).
    pub fn tag(self) -> &'static str {
        match self {
            BackendChoice::Explicit => "explicit",
            BackendChoice::Symbolic => "symbolic",
            BackendChoice::Auto => "auto",
        }
    }

    /// Inverse of [`BackendChoice::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "explicit" => Some(BackendChoice::Explicit),
            "symbolic" => Some(BackendChoice::Symbolic),
            "auto" => Some(BackendChoice::Auto),
            _ => None,
        }
    }
}

/// `Auto`'s measured crossover, in estimated reachable states: at or
/// below this the explicit engine wins, above it the symbolic engine
/// does. Calibrated from the `backend_crossover` sweep (BENCH_backend.json,
/// token-ring family, 4..34 stations): the explicit engine wins every
/// measured row at ≤64 labelled states (17–31 µs vs the symbolic engine's
/// 22–103 µs BDD-construction floor), the engines tie near 256 states
/// (43 µs vs 38 µs), and symbolic wins decisively from 1024 states up
/// (46 µs vs 105 µs, widening to ~70× by 2^16 states). The crossover sits
/// in the 128–256 band; 128 takes the conservative edge so marginal rows
/// route to the engine whose cost grows sub-linearly past the boundary.
pub const AUTO_CROSSOVER_STATES: usize = 128;

/// Under `Auto`, dense-universe explicit checking is only used up to this
/// width. Calibrated alongside [`AUTO_CROSSOVER_STATES`]: dense labelling
/// costs `2^width` regardless of how small the reachable fragment is, and
/// the sweep's pinned rings show dense explicit beating symbolic at width
/// 8 (87 µs vs 141 µs) but losing from width 10 up (342 µs vs 167 µs) —
/// so past width 8 an explicit-routed target runs the hash-compacted
/// reachable kernel, whose cost tracks the *estimated* state count
/// instead of `2^width`. The SMV driver's `Auto` routes on this constant
/// alone: its explicit path always labels the dense universe, so a module
/// runs explicit iff its encoded width is at most `AUTO_DENSE_BITS`.
pub const AUTO_DENSE_BITS: usize = 8;

/// How `Auto`'s explicit attempt bounds wasted work when the estimate is
/// optimistic: the reachable construction runs under a state budget of
/// this many × [`AUTO_CROSSOVER_STATES`], and blowing it triggers the
/// symbolic fallback. The attempt *is* the probe — nothing is built twice
/// on the success path.
pub const AUTO_BUDGET_SLACK: usize = 4;

/// One routing decision of the `Auto` cost model, recorded in
/// [`CheckStats::route`] so callers (and the crossover bench) can audit
/// what the policy predicted against what actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Union-alphabet width of the target.
    pub width: usize,
    /// Estimated reachable state count ([`estimate_reachable_states`]).
    pub estimated_states: u128,
    /// The crossover the estimate was compared against.
    pub crossover: usize,
    /// The engine the policy planned (deterministic; store keys use this).
    pub planned: BackendKind,
    /// Did an `Auto` explicit attempt exhaust its budget and fall back to
    /// the symbolic engine? (`stats.backend` then names the engine that
    /// actually produced the verdict.)
    pub fell_back: bool,
}

/// Estimate the reachable state count of `target` under `r`'s initial
/// condition — the `Auto` cost model's input, computed without building
/// anything.
///
/// In log2 terms:
///
/// ```text
/// est = Σ_i min(|Σᵢ|, log2(touchedᵢ + 1))   per-component state variety
///     − (Σ_i |Σᵢ| − |covered|)              shared propositions correlate
///     + (|Σ*| − |covered|)                  free expansion props double
///     − |atoms(I) ∩ Σ*|                     pinned initial propositions
/// ```
///
/// clamped to `[0, 127]`, where `touchedᵢ` is the number of distinct
/// states on component `i`'s proper transitions
/// ([`System::touched_states`], counted once per system however many
/// checks route on it) and `covered` the union of component-owned
/// positions. Components that wander their whole local
/// space contribute `2^|Σᵢ|`; a token-ring station that only ever touches
/// a handful of patterns contributes those. A conjunctive initial
/// condition pins each mentioned proposition, collapsing a factor of two
/// per atom — exactly why a one-hot-seeded 30-ring estimates ~1 state
/// while its trivially-restricted twin estimates ~2^30.
pub fn estimate_reachable_states(target: &Target, r: &Restriction) -> u128 {
    let union = target.union_alphabet();
    let mut covered: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    let mut own_sum = 0usize;
    for sys in target.systems() {
        own_sum += sys.alphabet().len();
        for name in sys.alphabet().names() {
            if let Some(p) = union.position(name) {
                covered.insert(p);
            }
        }
    }
    let pinned = r
        .init
        .atomic_props()
        .iter()
        .filter(|p| union.contains(p))
        .count();
    estimate_from_counts(
        target.systems().iter().copied(),
        own_sum - covered.len(),
        union.len() - covered.len(),
        pinned,
    )
}

/// The arithmetic of [`estimate_reachable_states`], on counts: each
/// system's state variety, less `dup` shared propositions, plus `free`
/// expansion propositions, less `pinned` initial ones, in log2 terms.
fn estimate_from_counts<'s>(
    systems: impl IntoIterator<Item = &'s System>,
    dup: usize,
    free: usize,
    pinned: usize,
) -> u128 {
    let mut log2 = 0.0f64;
    for sys in systems {
        let a = sys.alphabet().len() as f64;
        log2 += a.min(((sys.touched_states() + 1) as f64).log2());
    }
    let est = (log2 - dup as f64 + free as f64 - pinned as f64).clamp(0.0, 127.0);
    est.exp2().ceil() as u128
}

/// Decide `target ⊨_r f` under `choice` through the cost-model router:
/// plan with [`BackendChoice::route`], run the planned engine, and — for
/// `Auto` only — fall back to the symbolic engine when a budgeted
/// explicit attempt refuses (state budget blown, or an initial condition
/// it cannot enumerate). The returned verdict's
/// [`CheckStats::route`] carries the decision, including the fallback
/// flag; [`CheckStats::backend`] names the engine that actually ran.
pub fn check_routed(
    choice: BackendChoice,
    target: &Target,
    r: &Restriction,
    f: &Formula,
) -> Result<Verdict, BackendError> {
    check_planned(choice, choice.route(target, r), target, r, f)
}

/// [`check_routed`] on a plan the caller already made with
/// `choice.route(target, r)` — for callers that need the plan before the
/// check (a store key names the planned engine), so the cost model runs
/// once per check.
pub fn check_planned(
    choice: BackendChoice,
    mut decision: RouteDecision,
    target: &Target,
    r: &Restriction,
    f: &Formula,
) -> Result<Verdict, BackendError> {
    if decision.planned == BackendKind::Explicit {
        match ExplicitBackend::with_limits(choice.explicit_limits()).check(target, r, f) {
            Ok(mut v) => {
                v.stats.route = Some(decision);
                return Ok(v);
            }
            Err(
                BackendError::StateBudget { .. }
                | BackendError::TooLarge { .. }
                | BackendError::Unsupported(_),
            ) if choice == BackendChoice::Auto => {
                decision.fell_back = true;
            }
            Err(e) => return Err(e),
        }
    }
    let mut v = SymbolicBackend::default().check(target, r, f)?;
    v.stats.route = Some(decision);
    Ok(v)
}

/// A checking target: the interleaving composition of `systems`, expanded
/// over the `extra` propositions (`M₁ ∘ … ∘ Mₙ ∘ (extra, I)`), represented
/// lazily so each backend can realise it in its own way. It borrows its
/// systems and computes the union alphabet once, when it is built; every
/// kernel is laid out on that one union.
#[derive(Debug, Clone)]
pub struct Target<'a> {
    systems: Vec<&'a System>,
    extra: Alphabet,
    union: Alphabet,
}

impl<'a> Target<'a> {
    /// A single system, as-is.
    pub fn system(system: &'a System) -> Self {
        Target::expansion(vec![system], Alphabet::empty())
    }

    /// The composition of `systems` expanded over `extra` (the paper's
    /// `M ∘ (Σ', I)`; `extra` may be empty). Panics on an empty list.
    pub fn expansion(systems: Vec<&'a System>, extra: Alphabet) -> Self {
        assert!(!systems.is_empty(), "a Target needs at least one system");
        let union = Alphabet::union_of(systems.iter().map(|s| s.alphabet()).chain([&extra]));
        Target {
            systems,
            extra,
            union,
        }
    }

    /// The composition of several systems. Panics on an empty list.
    pub fn composition(systems: Vec<&'a System>) -> Self {
        Target::expansion(systems, Alphabet::empty())
    }

    /// The component systems.
    pub fn systems(&self) -> &[&'a System] {
        &self.systems
    }

    /// The expansion alphabet (possibly empty).
    pub fn extra(&self) -> &Alphabet {
        &self.extra
    }

    /// The union alphabet `Σ*` of the composed-and-expanded target, in
    /// first-seen order ([`Alphabet::union_of`], the order
    /// `System::compose` uses too).
    pub fn union_alphabet(&self) -> &Alphabet {
        &self.union
    }

    /// Number of propositions in the union alphabet — the quantity the
    /// `Auto` policy selects on.
    pub fn width(&self) -> usize {
        self.union.len()
    }

    /// Materialise the explicit product (exponential frame padding; the
    /// explicit backend checks the width *first* so this is only reached
    /// when it is affordable).
    pub fn materialize(&self) -> System {
        let (first, rest) = self.systems.split_first().expect("a Target is never empty");
        let composed = rest.iter().fold((*first).clone(), |acc, s| acc.compose(s));
        let missing: Vec<String> = self
            .extra
            .names()
            .iter()
            .filter(|n| !composed.alphabet().contains(n))
            .cloned()
            .collect();
        if missing.is_empty() {
            composed
        } else {
            composed.expand(&Alphabet::new(missing))
        }
    }
}

/// Per-check resource and timing statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckStats {
    /// The engine that ran the check.
    pub backend: BackendKind,
    /// Wall-clock time of the check (model construction included).
    pub duration: Duration,
    /// Full BDD-manager counters for the check — allocation, live/peak
    /// nodes, bytes, cache and GC activity (symbolic only).
    pub bdd: Option<BddStats>,
    /// How the transition structure was partitioned: disjunctive
    /// transition parts for the symbolic engine, 1 for the explicit
    /// engine's single CSR index.
    pub partitions: usize,
    /// States the reachable-only explicit kernel actually materialised
    /// (`None` for dense-universe and symbolic checks) — the cost model's
    /// "actual" against [`RouteDecision::estimated_states`].
    pub reachable_states: Option<u64>,
    /// The `Auto` cost-model decision that led here ([`None`] when the
    /// check was not routed, e.g. a backend invoked directly).
    pub route: Option<RouteDecision>,
    /// The quantification plan a symbolic check used — cluster counts
    /// before/after merging, each cluster's members and the processing
    /// permutation, built once per model ([`None`] for explicit checks,
    /// [`ImageMode::Monolithic`] ones, and checks that computed no image).
    pub schedule: Option<ScheduleStats>,
}

/// Unified result of a backend check — the shape shared by both engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Does `target ⊨_r f` hold?
    pub holds: bool,
    /// Violating states over the target's union alphabet, capped at
    /// [`MAX_WITNESSES`] (the symbolic backend lowers BDD witnesses to
    /// the same named [`State`] representation the explicit checker
    /// reports).
    pub violating: Vec<State>,
    /// Exact number of states satisfying `f` over the whole `2^Σ*`, where
    /// the backend can count them ([`None`] when the count would not be
    /// exact).
    pub sat_states: Option<u128>,
    /// Resource and timing statistics for this check.
    pub stats: CheckStats,
}

/// Errors from a backend check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The target exceeds the backend's state-space limit.
    TooLarge {
        /// Width of the target's union alphabet.
        props: usize,
        /// The backend's limit.
        limit: usize,
    },
    /// The formula (or restriction) mentions an unknown proposition.
    UnknownProposition(String),
    /// Reachable explicit construction blew its opt-in state budget
    /// ([`ExplicitLimits::max_states`]); under `Auto` this triggers the
    /// symbolic fallback.
    StateBudget {
        /// States materialised before refusing.
        explored: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The backend cannot pose this obligation (e.g. a temporal initial
    /// condition, which reachable explicit construction cannot enumerate
    /// but the symbolic engine handles).
    Unsupported(String),
    /// Any other checker failure.
    Other(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::TooLarge { props, limit } => write!(
                f,
                "target alphabet of {props} propositions exceeds the backend limit of {limit}"
            ),
            BackendError::UnknownProposition(p) => {
                write!(f, "formula mentions undefined proposition {p:?}")
            }
            BackendError::StateBudget { explored, budget } => write!(
                f,
                "reachable state space exceeds the explicit-engine budget of {budget} \
                 states ({explored} already materialised)"
            ),
            BackendError::Unsupported(m) => write!(f, "unsupported obligation: {m}"),
            BackendError::Other(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<CheckError> for BackendError {
    fn from(e: CheckError) -> Self {
        match e {
            CheckError::TooLarge { props, limit } => BackendError::TooLarge { props, limit },
            CheckError::UnknownProposition(p) => BackendError::UnknownProposition(p),
            CheckError::StateBudget { explored, budget } => {
                BackendError::StateBudget { explored, budget }
            }
            CheckError::InitNotEnumerable(m) => BackendError::Unsupported(m),
        }
    }
}

impl From<SymbolicError> for BackendError {
    fn from(e: SymbolicError) -> Self {
        match e {
            SymbolicError::UnknownProposition(p) => BackendError::UnknownProposition(p),
        }
    }
}

/// The explicit-state backend. Up to [`ExplicitLimits::dense_bits`]
/// propositions it builds the dense frontier kernel over `2^Σ*` (exact
/// whole-universe sat counts); wider targets run the **reachable-only**
/// hash-compacted kernel — arbitrary-width state vectors interned to
/// dense ids, the CSR built on the fly from SAT(`I`) outward, bounded
/// only by the opt-in state budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExplicitBackend {
    /// Width/memory budgets (dense-universe cutover + reachable state
    /// budget).
    pub limits: ExplicitLimits,
}

impl ExplicitBackend {
    /// Backend with the given limits.
    pub fn with_limits(limits: ExplicitLimits) -> Self {
        ExplicitBackend { limits }
    }

    /// Decide `target ⊨_r f`.
    pub fn check(
        &self,
        target: &Target,
        r: &Restriction,
        f: &Formula,
    ) -> Result<Verdict, BackendError> {
        let start = Instant::now();
        // Build the kernel straight from the components — neither mode
        // runs the exponential `materialize()` fold. Dense universe up to
        // the width limit (index i IS the state pattern; exact counts);
        // past it, the reachable-only kernel built on the fly from SAT(I)
        // outward, whose verdicts agree with dense mode exactly.
        let (systems, union) = (target.systems(), target.union_alphabet());
        let checker = if union.len() <= self.limits.dense_bits {
            Checker::from_components(systems, union, self.limits.dense_bits)?
        } else {
            Checker::reachable_from_components(systems, union, &r.init, &self.limits)?
        };
        let v = checker.check(r, f)?;
        // Whole-universe counts exist only over the dense universe; the
        // reachable kernel reports the size of the fragment it built.
        let reachable = checker.is_reachable();
        Ok(Verdict {
            holds: v.holds,
            violating: v.violating,
            sat_states: (!reachable).then_some(v.sat_states as u128),
            stats: CheckStats {
                backend: BackendKind::Explicit,
                duration: start.elapsed(),
                bdd: None,
                partitions: 1,
                reachable_states: reachable.then_some(checker.universe() as u64),
                route: None,
                schedule: None,
            },
        })
    }
}

/// Widths up to this many propositions admit an exact `f64` satisfying
/// count (integers are exact below `2^53`).
const EXACT_COUNT_PROPS: usize = 52;

/// The symbolic backend: one disjunctive transition partition per
/// component, never materialising the product.
///
/// The memory kernel is configurable per backend instance: a maintenance
/// policy (GC triggers) and a computed-table bound. `None` leaves
/// the engine defaults in place.
#[derive(Debug, Clone, Copy, Default)]
pub struct SymbolicBackend {
    /// Maintenance policy installed on the model before checking.
    pub maintenance: Option<MaintenanceConfig>,
    /// Computed-table bound, in slots (rounded down to a power of two; see
    /// `BddManager::set_cache_capacity`).
    pub cache_capacity: Option<usize>,
    /// Image strategy: the scheduled partitions (the default) or the
    /// memoised monolithic relation. `None` keeps the model default.
    pub image_mode: Option<ImageMode>,
    /// Keep one [`ImageMode::Scheduled`] cluster per partition instead of
    /// merging them — the conformance oracle's unmerged control plan.
    pub unmerged: bool,
}

impl SymbolicBackend {
    /// Backend with a maintenance policy.
    pub fn with_maintenance(cfg: MaintenanceConfig) -> Self {
        SymbolicBackend {
            maintenance: Some(cfg),
            ..Self::default()
        }
    }

    /// Override the computed-table bound, in slots (builder style).
    pub fn cache_capacity(mut self, slots: usize) -> Self {
        self.cache_capacity = Some(slots);
        self
    }

    /// Pick the image strategy (builder style). Both modes compute the
    /// same sets; `Monolithic` exists as the reference relation the
    /// scheduled partitions are tested and benchmarked against.
    pub fn with_image_mode(mut self, mode: ImageMode) -> Self {
        self.image_mode = Some(mode);
        self
    }

    /// Run the unmerged control plan, one cluster per partition (builder
    /// style). It computes the same images as the default merged plan;
    /// only [`ImageMode::Scheduled`] reads it.
    pub fn unmerged(mut self) -> Self {
        self.unmerged = true;
        self
    }

    /// Decide `target ⊨_r f`.
    pub fn check(
        &self,
        target: &Target,
        r: &Restriction,
        f: &Formula,
    ) -> Result<Verdict, BackendError> {
        let start = Instant::now();
        let alphabet = target.union_alphabet();
        let mut model = SymbolicModel::from_components(target.systems(), alphabet);
        if let Some(slots) = self.cache_capacity {
            model.mgr().set_cache_capacity(slots);
        }
        if let Some(cfg) = self.maintenance {
            model.set_maintenance(cfg);
        }
        if let Some(mode) = self.image_mode {
            model.set_image_mode(mode);
        }
        if self.unmerged {
            model.set_merging(false);
        }
        // One full-space evaluation answers both questions: the exact
        // satisfying count (which the testkit oracle compares against the
        // explicit engine, so it must range over the whole universe) and
        // the violating `I`-states. Components built by `from_components`
        // carry no model-level fairness, so `sat_under(f, r.fairness)` is
        // the set `SymbolicModel::check` would decide on — without its
        // reach fixpoint, which a whole-universe count cannot use.
        let sat = model.sat_under(f, &r.fairness)?;
        let n = model.num_state_vars();
        let sat_states = (n <= EXACT_COUNT_PROPS).then(|| {
            let count = model.mgr_ref().sat_count(sat, 2 * n) / (1u64 << n) as f64;
            count as u128
        });
        let init = model.restricted_init(r)?;
        let nsat = model.mgr().not(sat);
        let violating_bdd = model.mgr().and(init, nsat);
        let violating = model
            .enumerate_states(violating_bdd, MAX_WITNESSES)
            .iter()
            .filter_map(|ns| ns.to_state(alphabet))
            .collect();
        Ok(Verdict {
            holds: violating_bdd.is_false(),
            violating,
            sat_states,
            stats: CheckStats {
                backend: BackendKind::Symbolic,
                duration: start.elapsed(),
                bdd: Some(model.mgr_ref().stats()),
                partitions: model.num_trans_parts(),
                reachable_states: None,
                route: None,
                schedule: model.schedule_stats(),
            },
        })
    }
}

/// Decide `concrete ⊑ abstraction` under the backend policy.
///
/// The simulation fixpoint has its own routing width — the *pair*
/// universe is `2^(|Σ_C|+|Σ_A|)`, so `Auto` crosses to the BDD checker at
/// [`MAX_SIM_PAIR_PROPS`] combined propositions rather than at the
/// property-checking limit. A forced `Explicit` policy past the limit
/// fails fast with [`BackendError::TooLarge`] before any per-pair work.
/// Returns the outcome together with the engine that produced it (the
/// resolved kind goes into store keys, so equal obligations routed the
/// same way collide).
pub fn check_refines(
    choice: BackendChoice,
    concrete: &System,
    abstraction: &System,
) -> Result<(SimulationOutcome, BackendKind), BackendError> {
    let props = concrete.alphabet().len() + abstraction.alphabet().len();
    let kind = match choice {
        BackendChoice::Explicit => BackendKind::Explicit,
        BackendChoice::Symbolic => BackendKind::Symbolic,
        BackendChoice::Auto => {
            if props > MAX_SIM_PAIR_PROPS {
                BackendKind::Symbolic
            } else {
                BackendKind::Explicit
            }
        }
    };
    match kind {
        BackendKind::Explicit => match simulates_explicit(concrete, abstraction) {
            Ok(out) => Ok((out, kind)),
            Err(SimError::TooLarge { props, limit }) => {
                Err(BackendError::TooLarge { props, limit })
            }
        },
        BackendKind::Symbolic => Ok((simulates_symbolic(concrete, abstraction), kind)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_ctl::parse;

    fn riser(name: &str) -> System {
        let mut m = System::new(Alphabet::new([name]));
        m.add_transition_named(&[], &[name]);
        m
    }

    #[test]
    fn auto_route_crosses_at_the_calibrated_crossover() {
        // Each unpinned riser doubles the estimate: 7 of them estimate
        // exactly AUTO_CROSSOVER_STATES = 128 states, 8 estimate 256.
        let systems: Vec<System> = (0..30).map(|i| riser(&format!("p{i}"))).collect();
        let risers = |n: usize| Target::composition(systems[..n].iter().collect());
        let r = Restriction::trivial();
        let (at, past) = (risers(7), risers(8));
        let d = BackendChoice::Auto.route(&at, &r);
        assert_eq!(d.estimated_states, AUTO_CROSSOVER_STATES as u128);
        assert_eq!(d.planned, BackendKind::Explicit);
        let d = BackendChoice::Auto.route(&past, &r);
        assert_eq!(d.estimated_states, 2 * AUTO_CROSSOVER_STATES as u128);
        assert_eq!(d.planned, BackendKind::Symbolic);
        // Forced choices plan their own engine whatever the estimate.
        for target in [&at, &past, &risers(30)] {
            assert_eq!(
                BackendChoice::Explicit.route(target, &r).planned,
                BackendKind::Explicit
            );
            assert_eq!(
                BackendChoice::Symbolic.route(target, &r).planned,
                BackendKind::Symbolic
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The plan from counts is the plan on the target built: a random
        /// component over 1–9 propositions expanded over 0–4 frozen ones,
        /// under each policy, routes alike in width, estimate and kind.
        #[test]
        fn expansion_plans_from_counts_as_on_the_target(
            width in 1usize..10,
            moves in proptest::collection::vec((0u32..512, 0u32..512), 0..40),
            frozen in 0usize..5,
            choice in 0usize..3,
        ) {
            let mut m = System::new(Alphabet::new((0..width).map(|i| format!("p{i}"))));
            let states = (1u32 << width) - 1;
            for (s, t) in moves {
                m.add_transition(State((s & states) as u128), State((t & states) as u128));
            }
            let extra = Alphabet::new((0..frozen).map(|i| format!("f{i}")));
            let target = Target::expansion(vec![&m], extra);
            let choice = [BackendChoice::Auto, BackendChoice::Explicit, BackendChoice::Symbolic][choice];
            proptest::prop_assert_eq!(
                choice.route_expansion(&m, frozen),
                choice.route(&target, &Restriction::trivial())
            );
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [BackendKind::Explicit, BackendKind::Symbolic] {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::from_name("bogus"), None);
    }

    #[test]
    fn choice_tags_round_trip() {
        for choice in [
            BackendChoice::Explicit,
            BackendChoice::Symbolic,
            BackendChoice::Auto,
        ] {
            assert_eq!(BackendChoice::from_tag(choice.tag()), Some(choice));
        }
        assert_eq!(BackendChoice::from_tag("bogus"), None);
    }

    #[test]
    fn backends_agree_on_a_small_composition() {
        let (a, b) = (riser("a"), riser("b"));
        let target = Target::composition(vec![&a, &b]);
        let r = Restriction::trivial();
        for text in ["a -> AX a", "EF (a & b)", "AF a", "AG (a -> EX a)"] {
            let f = parse(text).unwrap();
            let e = ExplicitBackend::default().check(&target, &r, &f).unwrap();
            let s = SymbolicBackend::default().check(&target, &r, &f).unwrap();
            assert_eq!(e.holds, s.holds, "backends disagree on {text}");
            assert_eq!(e.sat_states, s.sat_states, "sat counts disagree on {text}");
        }
    }

    #[test]
    fn witnesses_agree_as_states() {
        // AG !b fails exactly in the b-states; both backends must name the
        // same violating set over the same alphabet.
        let (a, b) = (riser("a"), riser("b"));
        let target = Target::composition(vec![&a, &b]);
        let f = parse("AG !b").unwrap();
        let r = Restriction::trivial();
        let mut e = ExplicitBackend::default().check(&target, &r, &f).unwrap();
        let mut s = SymbolicBackend::default().check(&target, &r, &f).unwrap();
        assert!(!e.holds && !s.holds);
        e.violating.sort();
        s.violating.sort();
        assert_eq!(e.violating, s.violating);
    }

    #[test]
    fn explicit_refuses_wide_unpinned_targets_on_the_state_budget() {
        // 30 unpinned risers reach all 2^30 valuations; the reachable
        // kernel must refuse on the opt-in state budget *before*
        // materialising anything (the trivial init alone proves the
        // budget is blown), not hang enumerating.
        let systems: Vec<System> = (0..30).map(|i| riser(&format!("p{i}"))).collect();
        let target = Target::composition(systems.iter().collect());
        let f = parse("p0 -> AX p0").unwrap();
        let err = ExplicitBackend::default()
            .check(&target, &Restriction::trivial(), &f)
            .unwrap_err();
        assert_eq!(
            err,
            BackendError::StateBudget {
                explored: 0,
                budget: ExplicitLimits::DEFAULT_MAX_STATES
            }
        );
    }

    #[test]
    fn explicit_checks_wide_pinned_targets_reachable_only() {
        // The same 30 propositions, but pinned: a 30-station token ring
        // with a one-hot initial state has exactly 30 reachable states.
        // Pre-PR-9 this was a hard TooLarge; now the reachable kernel
        // answers it and agrees with the symbolic engine.
        let stations: Vec<System> = (0..30)
            .map(|i| {
                let j = (i + 1) % 30;
                let here = format!("t{i}");
                let next = format!("t{j}");
                let mut m = System::new(Alphabet::new([here.clone(), next.clone()]));
                m.add_transition_named(&[&here], &[&next]);
                m
            })
            .collect();
        let target = Target::composition(stations.iter().collect());
        assert_eq!(target.width(), 30);
        let init = Formula::and_many((0..30).map(|i| {
            let p = Formula::ap(format!("t{i}"));
            if i == 0 {
                p
            } else {
                p.not()
            }
        }));
        let r = Restriction::with_init(init);
        let f = parse("AG EF t0").unwrap();
        let e = ExplicitBackend::default().check(&target, &r, &f).unwrap();
        let s = SymbolicBackend::default().check(&target, &r, &f).unwrap();
        assert_eq!(e.holds, s.holds);
        assert!(e.holds);
        assert_eq!(e.stats.backend, BackendKind::Explicit);
        assert_eq!(e.stats.reachable_states, Some(30));
        assert_eq!(e.sat_states, None, "no whole-universe count past dense");
    }

    #[test]
    fn route_is_a_cost_model_not_a_width_cliff() {
        // Same 30-prop ring, two restrictions: pinned routes explicit
        // (est ≈ 1 state), trivial routes symbolic (est ≈ 2^30).
        let stations: Vec<System> = (0..30)
            .map(|i| {
                let j = (i + 1) % 30;
                let here = format!("t{i}");
                let next = format!("t{j}");
                let mut m = System::new(Alphabet::new([here.clone(), next.clone()]));
                m.add_transition_named(&[&here], &[&next]);
                m
            })
            .collect();
        let target = Target::composition(stations.iter().collect());
        let pinned = Restriction::with_init(Formula::and_many((0..30).map(|i| {
            let p = Formula::ap(format!("t{i}"));
            if i == 0 {
                p
            } else {
                p.not()
            }
        })));
        let trivial = Restriction::trivial();
        let d_pinned = BackendChoice::Auto.route(&target, &pinned);
        let d_trivial = BackendChoice::Auto.route(&target, &trivial);
        assert_eq!(d_pinned.planned, BackendKind::Explicit);
        assert_eq!(d_trivial.planned, BackendKind::Symbolic);
        assert!(d_pinned.estimated_states <= AUTO_CROSSOVER_STATES as u128);
        assert!(d_trivial.estimated_states > AUTO_CROSSOVER_STATES as u128);
        // And the routed check actually runs the planned engines.
        let f = parse("AG EF t0").unwrap();
        let ve = check_routed(BackendChoice::Auto, &target, &pinned, &f).unwrap();
        assert_eq!(ve.stats.backend, BackendKind::Explicit);
        assert_eq!(ve.stats.route, Some(d_pinned));
        let vs = check_routed(BackendChoice::Auto, &target, &trivial, &f).unwrap();
        assert_eq!(vs.stats.backend, BackendKind::Symbolic);
        assert_eq!(vs.stats.route, Some(d_trivial));
    }

    #[test]
    fn optimistic_estimates_fall_back_to_symbolic() {
        // Toggle components fool the estimate: the init pins every
        // proposition, so the cost model predicts ~1 reachable state and
        // plans explicit — but toggles fan back out to the full 2^26
        // product. The explicit attempt burns through its state budget,
        // refuses, and Auto recovers symbolically, recording the fallback.
        let systems: Vec<System> = (0..26)
            .map(|i| {
                let name = format!("p{i}");
                let mut m = System::new(Alphabet::new([name.clone()]));
                m.add_transition_named(&[], &[name.as_str()]);
                m.add_transition_named(&[name.as_str()], &[]);
                m
            })
            .collect();
        let target = Target::composition(systems.iter().collect());
        let init = Formula::and_many((0..26).map(|i| Formula::ap(format!("p{i}"))));
        let r = Restriction::with_init(init);
        let d = BackendChoice::Auto.route(&target, &r);
        assert_eq!(d.planned, BackendKind::Explicit, "estimate fooled low");
        assert!(d.estimated_states <= AUTO_CROSSOVER_STATES as u128);
        let f = parse("EF !p0").unwrap();
        let v = check_routed(BackendChoice::Auto, &target, &r, &f).unwrap();
        assert!(v.holds, "a toggle can always clear p0");
        assert_eq!(v.stats.backend, BackendKind::Symbolic);
        let route = v.stats.route.unwrap();
        assert!(route.fell_back, "fallback must be recorded");
        assert_eq!(route.planned, BackendKind::Explicit);
        // Forced explicit backends get no safety net: a tight budget is an
        // honest refusal, with the exploration cost it sank reported back.
        let tight = ExplicitBackend::with_limits(ExplicitLimits {
            dense_bits: 16,
            max_states: Some(500),
        });
        let err = tight.check(&target, &r, &f).unwrap_err();
        assert!(
            matches!(
                err,
                BackendError::StateBudget {
                    explored: 500,
                    budget: 500
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn symbolic_handles_wide_targets() {
        let systems: Vec<System> = (0..30).map(|i| riser(&format!("p{i}"))).collect();
        let target = Target::composition(systems.iter().collect());
        let f = parse("p7 -> AX p7").unwrap();
        let v = SymbolicBackend::default()
            .check(&target, &Restriction::trivial(), &f)
            .unwrap();
        assert!(v.holds);
        assert_eq!(v.stats.backend, BackendKind::Symbolic);
        let bdd = v.stats.bdd.unwrap();
        assert!(bdd.nodes_allocated > 0);
        assert!(bdd.live_nodes > 0 && bdd.peak_live_nodes >= bdd.live_nodes);
    }

    /// A GC-bounded backend (tight cache, low collection threshold)
    /// reaches the same verdicts as the unbounded default,
    /// actually collects, and never holds more live nodes than the
    /// unbounded run's peak.
    #[test]
    fn bounded_backend_agrees_and_collects() {
        use cmc_symbolic::MaintenanceConfig;
        let systems: Vec<System> = (0..12).map(|i| riser(&format!("p{i}"))).collect();
        let target = Target::composition(systems.iter().collect());
        let r = Restriction::trivial();
        // GC never changes the variable order, so every node count is
        // directly comparable against the unbounded baseline. (The
        // threshold sits this low because implicit-frame partitions keep
        // a 12-riser model to a few hundred nodes total.)
        let bounded = SymbolicBackend::with_maintenance(MaintenanceConfig {
            gc_threshold: 64,
            ..MaintenanceConfig::default()
        })
        .cache_capacity(256);
        for text in ["EF (p0 & p11)", "AG (p3 -> EX p3)", "AF p5"] {
            let f = parse(text).unwrap();
            let d = SymbolicBackend::default().check(&target, &r, &f).unwrap();
            let b = bounded.check(&target, &r, &f).unwrap();
            assert_eq!(d.holds, b.holds, "bounding changed the verdict on {text}");
            assert_eq!(d.sat_states, b.sat_states, "sat counts differ on {text}");
            let db = d.stats.bdd.unwrap();
            let bb = b.stats.bdd.unwrap();
            assert!(bb.gc_runs > 0, "low-threshold policy never collected");
            assert!(
                bb.peak_live_nodes <= db.peak_live_nodes,
                "bounded run peaked above the unbounded baseline on {text}"
            );
        }
    }

    /// The adversarial forced schedule (collect at every safe point) must
    /// keep every verdict and sat count identical to the default engine.
    #[test]
    fn forced_maintenance_backend_agrees() {
        use cmc_symbolic::MaintenanceConfig;
        let systems: Vec<System> = (0..10).map(|i| riser(&format!("p{i}"))).collect();
        let target = Target::composition(systems.iter().collect());
        let r = Restriction::trivial();
        let forced = SymbolicBackend::with_maintenance(MaintenanceConfig::forced_every(1))
            .cache_capacity(128);
        for text in ["EF (p0 & p9)", "AG (p3 -> EX p3)", "AF p5", "E [p0 U p9]"] {
            let f = parse(text).unwrap();
            let d = SymbolicBackend::default().check(&target, &r, &f).unwrap();
            let b = forced.check(&target, &r, &f).unwrap();
            assert_eq!(d.holds, b.holds, "forced maintenance changed {text}");
            assert_eq!(d.sat_states, b.sat_states, "sat counts differ on {text}");
            assert!(b.stats.bdd.unwrap().gc_runs > 0);
        }
    }

    #[test]
    fn expansion_target_matches_materialised_expansion() {
        let base = riser("x");
        let extra = Alphabet::new(["y"]);
        let target = Target::expansion(vec![&base], extra.clone());
        assert_eq!(target.width(), 2);
        let direct = base.expand(&extra);
        assert!(target.materialize().equivalent(&direct));
        // And both backends see the frozen `y` the same way.
        let f = parse("y -> AX y").unwrap();
        let r = Restriction::trivial();
        let e = ExplicitBackend::default().check(&target, &r, &f).unwrap();
        let s = SymbolicBackend::default().check(&target, &r, &f).unwrap();
        assert!(e.holds && s.holds);
    }

    #[test]
    fn refines_routes_by_pair_width_and_agrees_across_engines() {
        // Narrow pair: Auto stays explicit.
        let c = riser("x");
        let mut a = System::new(Alphabet::new(["x"]));
        a.add_transition_named(&[], &["x"]);
        a.add_transition_named(&["x"], &[]);
        let (out, kind) = check_refines(BackendChoice::Auto, &c, &a).unwrap();
        assert!(out.holds());
        assert_eq!(kind, BackendKind::Explicit);
        let (sym, kind) = check_refines(BackendChoice::Symbolic, &c, &a).unwrap();
        assert_eq!(sym, out);
        assert_eq!(kind, BackendKind::Symbolic);
        // Wide pair: Auto crosses to symbolic; forced explicit fails fast.
        let names: Vec<String> = (0..MAX_SIM_PAIR_PROPS).map(|i| format!("p{i}")).collect();
        let wide = System::new(Alphabet::new(names));
        let (_, kind) = check_refines(BackendChoice::Auto, &wide, &wide).unwrap();
        assert_eq!(kind, BackendKind::Symbolic);
        let err = check_refines(BackendChoice::Explicit, &wide, &wide).unwrap_err();
        assert!(matches!(err, BackendError::TooLarge { .. }));
    }

    #[test]
    fn unknown_proposition_is_uniform() {
        let x = riser("x");
        let target = Target::system(&x);
        let f = parse("zz").unwrap();
        let r = Restriction::trivial();
        let e = ExplicitBackend::default()
            .check(&target, &r, &f)
            .unwrap_err();
        let s = SymbolicBackend::default()
            .check(&target, &r, &f)
            .unwrap_err();
        assert_eq!(e, BackendError::UnknownProposition("zz".into()));
        assert_eq!(e, s);
    }
}
