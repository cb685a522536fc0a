//! Explicit-state fair-CTL model checker.
//!
//! Implements the classic labelling algorithm of Clarke–Emerson–Sistla over
//! the paper's systems (`cmc_kripke::System`), extended with the fairness
//! semantics of §2.2: path quantifiers range over *fair* paths only, where a
//! path is fair iff every constraint in `F` holds infinitely often along it.
//! Fair `EG` uses the Emerson–Lei fixpoint
//! `EG_fair S = νZ. S ∧ ⋀_i EX (E[S U (Z ∧ Fᵢ)])`.
//!
//! In **dense** mode the checker quantifies satisfaction over **all** states
//! of `2^Σ`, exactly as the paper defines `M ⊨ f` (`∀s ∈ 2^Σ : s ⊨ f`) and
//! `M ⊨_r f` (`∀s : s ⊨ I ⇒ s ⊨ f`). Past [`ExplicitLimits::dense_bits`]
//! the **reachable** mode takes over: states are arbitrary-width
//! [`StateVec`]s hash-consed to dense `u32` ids
//! ([`crate::interner::StateInterner`]), and the CSR index is built on the
//! fly from the initial states outward — the `2^n` universe is never
//! enumerated. Because the reachable fragment is successor-closed and
//! contains every state satisfying `I`, `M ⊨_r f` verdicts agree exactly
//! with dense mode; only whole-universe satisfaction *counts* (and
//! `M ⊨ f`, which quantifies over unreachable states too) are not available
//! there.
//!
//! ## The frontier kernel
//!
//! Construction builds one-time CSR predecessor/successor indices
//! ([`crate::csr::CsrIndex`]) over the `2^n` state space; the fixpoints are
//! then *frontier-driven*: `E[S₁ U S₂]` is a single backwards worklist pass
//! that only ever examines the predecessors of states newly added to the
//! result, and the Emerson–Lei rounds of fair `EG` reuse each constraint's
//! reach set while its target `Z ∧ Fᵢ` is unchanged. Total cost is
//! `O(|R| + 2^n)` per least fixpoint instead of the seed checker's
//! `O(iterations × |R|)` edge-list rescans.
//!
//! [`Checker::from_components`] builds the kernel straight from component
//! systems (padding frames into the CSR index), so the explicit backend
//! never materialises the interleaving product.

use crate::ast::Formula;
use crate::csr::CsrIndex;
use crate::interner::StateInterner;
use crate::limits::ExplicitLimits;
use crate::restriction::Restriction;
use crate::stateset::StateSet;
use crate::statevec::StateVec;
use cmc_kripke::{Alphabet, State, System};
use std::collections::HashMap;
use std::fmt;

/// Errors from the explicit checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Formula mentions a proposition outside the system's alphabet. The
    /// paper's `C(Σ)` notation makes this a specification error, not
    /// falsehood.
    UnknownProposition(String),
    /// State space too large for explicit enumeration (use `cmc-symbolic`).
    TooLarge {
        /// Alphabet size of the offending system.
        props: usize,
        /// The limit the checker was configured with.
        limit: usize,
    },
    /// Reachable construction hit the opt-in state budget
    /// ([`ExplicitLimits::max_states`]) before discovery converged.
    StateBudget {
        /// States materialised before refusing.
        explored: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The restriction's initial-state predicate cannot seed reachable
    /// construction (it contains a temporal operator, so SAT enumeration
    /// is not defined on it).
    InitNotEnumerable(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownProposition(p) => {
                write!(
                    f,
                    "formula mentions proposition {p:?} outside the system alphabet"
                )
            }
            CheckError::TooLarge { props, limit } => write!(
                f,
                "alphabet of {props} propositions exceeds the explicit-state limit \
                 of {limit}; use the symbolic engine"
            ),
            CheckError::StateBudget { explored, budget } => write!(
                f,
                "reachable state space exceeds the explicit-engine budget of {budget} \
                 states ({explored} already materialised); raise ExplicitLimits::max_states \
                 or use the symbolic engine"
            ),
            CheckError::InitNotEnumerable(init) => write!(
                f,
                "initial-state predicate {init:?} is not propositional, so reachable \
                 explicit construction cannot enumerate its satisfying states"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// Outcome of checking `M ⊨_r f`.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Does the property hold?
    pub holds: bool,
    /// Initial states (`⊨ I`) that violate `f` — counterexample seeds
    /// (at most [`Verdict::MAX_WITNESSES`] retained).
    pub violating: Vec<State>,
    /// Number of states satisfying the formula (over the whole `2^Σ`).
    pub sat_states: usize,
}

impl Verdict {
    /// Cap on retained counterexample states.
    pub const MAX_WITNESSES: usize = 16;
}

/// An explicit-state fair-CTL checker for one (possibly composed) system.
///
/// Owns its alphabet and CSR transition index, so it can be built either
/// from a materialised [`System`] or directly from components without one.
#[derive(Debug)]
pub struct Checker {
    alphabet: Alphabet,
    universe: usize,
    csr: CsrIndex,
    space: StateSpace,
}

/// How checker indices map to states.
#[derive(Debug)]
enum StateSpace {
    /// Index `i` *is* the state pattern `State(i)`; universe is `2^|Σ|`.
    Dense,
    /// Index `i` is a hash-cons id; universe is the interned (reachable)
    /// state count. Every kernel below this enum is index-pure, so the
    /// fixpoints are byte-identical between the two modes.
    Reachable(StateInterner),
}

impl Checker {
    /// Create a checker with the default
    /// [`ExplicitLimits::DEFAULT_DENSE_BITS`] limit; fails when the state
    /// space is too large.
    pub fn new(system: &System) -> Result<Self, CheckError> {
        Checker::with_limit(system, ExplicitLimits::DEFAULT_DENSE_BITS)
    }

    /// Create a checker that refuses alphabets wider than `limit`
    /// propositions (the state space is `2^|Σ|`, so the limit bounds
    /// memory at `2^limit` bits per state set).
    pub fn with_limit(system: &System, limit: usize) -> Result<Self, CheckError> {
        let n = system.alphabet().len();
        if n > limit {
            return Err(CheckError::TooLarge { props: n, limit });
        }
        Ok(Checker {
            alphabet: system.alphabet().clone(),
            universe: 1usize << n,
            csr: CsrIndex::from_system(system),
            space: StateSpace::Dense,
        })
    }

    /// Build the kernel for the composition `M₁ ∘ … ∘ Mₙ ∘ (extra, I)`
    /// straight from the components: each component's transitions are
    /// frame-padded directly into the CSR index, skipping the exponential
    /// `System::compose` fold entirely. The union alphabet is accumulated
    /// in first-seen order, matching `Target::union_alphabet`.
    pub fn from_components(
        systems: &[&System],
        extra: &Alphabet,
        limit: usize,
    ) -> Result<Self, CheckError> {
        let union = systems
            .iter()
            .fold(Alphabet::empty(), |acc, s| acc.union(s.alphabet()))
            .union(extra);
        let n = union.len();
        if n > limit {
            return Err(CheckError::TooLarge { props: n, limit });
        }
        Ok(Checker {
            universe: 1usize << n,
            csr: CsrIndex::from_components(systems, &union),
            alphabet: union,
            space: StateSpace::Dense,
        })
    }

    /// Build a **reachable-only** kernel for `M₁ ∘ … ∘ Mₙ ∘ (extra, I)`:
    /// enumerate SAT(`init`) by pruned DFS over the union alphabet, then BFS
    /// outward applying each component's transitions through extract/splice
    /// on arbitrary-width [`StateVec`]s, hash-consing every discovered state
    /// to a dense id. Neither the `2^n` universe nor any unreachable frame
    /// padding is ever enumerated, so the width is bounded only by
    /// [`ExplicitLimits::max_states`] (and memory), not by 24 or 128 bits.
    ///
    /// `M ⊨_r f` verdicts from the resulting checker agree exactly with the
    /// dense kernel's (the fragment is successor-closed and contains all of
    /// SAT(`init`)); whole-universe sat counts are intentionally not
    /// reported — [`Checker::universe`] is the reachable state count here.
    pub fn reachable_from_components(
        systems: &[&System],
        extra: &Alphabet,
        init: &Formula,
        limits: &ExplicitLimits,
    ) -> Result<Self, CheckError> {
        let union = systems
            .iter()
            .fold(Alphabet::empty(), |acc, s| acc.union(s.alphabet()))
            .union(extra);
        for p in init.atomic_props() {
            if !union.contains(&p) {
                return Err(CheckError::UnknownProposition(p));
            }
        }
        if !init.is_propositional() {
            return Err(CheckError::InitNotEnumerable(init.to_string()));
        }
        let budget = limits.state_budget();
        let seeds = enumerate_sat(init, &union, budget)?;
        // Per-component stepper: union positions it owns plus a local
        // transition table keyed by the component-projected pattern.
        let comps: Vec<ComponentStep> = systems
            .iter()
            .map(|sys| ComponentStep::new(sys, &union))
            .collect();
        Self::reachable_bfs(union, seeds, &comps, budget)
    }

    /// Reachable-only kernel over one materialised [`System`], seeded from
    /// `seeds` (the SMV front-end's enumerated initial states). Same
    /// semantics as [`Checker::reachable_from_components`] with a single
    /// component and no extra alphabet.
    pub fn reachable_from_system(
        system: &System,
        seeds: &[State],
        limits: &ExplicitLimits,
    ) -> Result<Self, CheckError> {
        let union = system.alphabet().clone();
        let width = union.len();
        let comps = [ComponentStep::new(system, &union)];
        let seeds = seeds
            .iter()
            .map(|s| StateVec::from_state(*s, width))
            .collect();
        Self::reachable_bfs(union, seeds, &comps, limits.state_budget())
    }

    fn reachable_bfs(
        union: Alphabet,
        seeds: Vec<StateVec>,
        comps: &[ComponentStep],
        budget: usize,
    ) -> Result<Self, CheckError> {
        let mut interner = StateInterner::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for sv in seeds {
            if interner.len() >= budget {
                return Err(CheckError::StateBudget {
                    explored: interner.len(),
                    budget,
                });
            }
            interner.intern(sv);
        }
        // Ids are handed out in discovery order, so scanning 0..len *is*
        // the BFS queue; `next` chases the growing tail.
        let mut next = 0usize;
        while next < interner.len() {
            let id = next as u32;
            let sv = interner.get(next).clone();
            next += 1;
            for comp in comps {
                let local = sv.extract(&comp.positions);
                let Some(targets) = comp.table.get(&local) else {
                    continue;
                };
                for &t in targets {
                    let succ = sv.splice(&comp.positions, t);
                    if interner.lookup(&succ).is_none() && interner.len() >= budget {
                        return Err(CheckError::StateBudget {
                            explored: interner.len(),
                            budget,
                        });
                    }
                    let (tid, _) = interner.intern(succ);
                    edges.push((id, tid));
                }
            }
        }
        let universe = interner.len();
        Ok(Checker {
            universe,
            csr: CsrIndex::from_edges(universe, &edges),
            alphabet: union,
            space: StateSpace::Reachable(interner),
        })
    }

    /// The alphabet the checker's states range over.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states the kernel ranges over: `2^|Σ|` in dense mode, the
    /// interned (reachable) state count in reachable mode. This — not
    /// `2^|Σ|` — is what `StateSet::full` and the reflexive-EG collapse
    /// quantify over, so kernels never over-report past the fragment.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Is this a reachable-only (hash-compacted) kernel?
    pub fn is_reachable(&self) -> bool {
        matches!(self.space, StateSpace::Reachable(_))
    }

    /// Truth of propositional `f` at kernel index `i`.
    #[inline]
    fn eval_index(&self, f: &Formula, i: usize) -> bool {
        match &self.space {
            StateSpace::Dense => f.eval_in_state(&self.alphabet, State(i as u128)),
            StateSpace::Reachable(interner) => {
                let sv = interner.get(i);
                f.eval_bits(&self.alphabet, &|pos| sv.bit(pos))
            }
        }
    }

    /// The dense [`State`] pattern at kernel index `i`, when one exists
    /// (`None` only in reachable mode past 128 propositions).
    pub fn state_at(&self, i: usize) -> Option<State> {
        match &self.space {
            StateSpace::Dense => Some(State(i as u128)),
            StateSpace::Reachable(interner) => interner.get(i).to_state(),
        }
    }

    /// Kernel index of a dense state pattern, if it is in the space
    /// (always in dense mode; iff discovered in reachable mode).
    pub fn index_of_state(&self, s: State) -> Option<usize> {
        match &self.space {
            StateSpace::Dense => {
                let i = s.0 as usize;
                (i < self.universe).then_some(i)
            }
            StateSpace::Reachable(interner) => interner
                .lookup(&StateVec::from_state(s, self.alphabet.len().min(128)))
                .map(|id| id as usize),
        }
    }

    /// The CSR transition index (exposed for witness extraction).
    pub(crate) fn csr(&self) -> &CsrIndex {
        &self.csr
    }

    /// States satisfying a *propositional* formula.
    fn sat_propositional(&self, f: &Formula) -> Result<StateSet, CheckError> {
        // Validate alphabet membership up front for a precise error.
        for p in f.atomic_props() {
            if !self.alphabet.contains(&p) {
                return Err(CheckError::UnknownProposition(p));
            }
        }
        let mut out = StateSet::empty(self.universe);
        for i in 0..self.universe {
            if self.eval_index(f, i) {
                out.insert_index(i);
            }
        }
        Ok(out)
    }

    /// `EX S`: states with an `R`-successor in `S`. Because `R` is
    /// reflexive, `S ⊆ EX S` always holds. One word-scan over the members
    /// of `S` plus their CSR predecessor lists — `O(|S| + edges into S)`.
    fn pre_exists(&self, s: &StateSet) -> StateSet {
        let mut out = s.clone(); // reflexive stutter successor
        for v in s.iter_indices() {
            for &u in self.csr.predecessors(v) {
                out.insert_index(u as usize);
            }
        }
        out
    }

    /// Least fixpoint `E[S1 U S2] = μZ. S2 ∨ (S1 ∧ EX Z)` as a backwards
    /// worklist: every state enters the frontier exactly once, so the
    /// whole fixpoint is `O(|S2| + |R| + 2^n/64)` instead of re-scanning
    /// the edge list per iteration. (The implicit stutter edge adds only
    /// `S1 ∧ Z ⊆ Z`, so it never grows the frontier.)
    fn until_exists(&self, s1: &StateSet, s2: &StateSet) -> StateSet {
        let mut z = s2.clone();
        let mut frontier: Vec<u32> = s2.iter_indices().map(|i| i as u32).collect();
        while let Some(v) = frontier.pop() {
            for &u in self.csr.predecessors(v as usize) {
                if s1.contains_index(u as usize) && !z.contains_index(u as usize) {
                    z.insert_index(u as usize);
                    frontier.push(u);
                }
            }
        }
        z
    }

    /// Greatest fixpoint `EG S = νZ. S ∧ EX Z` by backwards removal: a
    /// state leaves `Z` once its last successor in `Z` is gone, and only
    /// the predecessors of freshly removed states are re-examined.
    ///
    /// Because `R` is reflexive, every state's stutter self-loop keeps it
    /// alive, the removal frontier starts (and stays) empty, and
    /// `EG S = S` — the generic kernel is kept so the algorithm remains
    /// correct should the reflexivity assumption ever be relaxed.
    fn global_exists(&self, s: &StateSet) -> StateSet {
        let z = s.clone();
        // Seed the removal frontier with Z-states whose successor count
        // within Z is zero. The stutter successor contributes 1 to every
        // Z-state, so no state qualifies and the fixpoint is immediate.
        debug_assert!(z.iter_indices().all(|v| z.contains_index(v)));
        z
    }

    /// Emerson–Lei fair `EG`: states with a fair path remaining in `S`.
    ///
    /// `νZ. S ∧ ⋀_i EX (E[S U (Z ∧ Fᵢ)])`, with two frontier-era savings
    /// over the seed: each inner `EU` is a single worklist pass, and a
    /// constraint whose target `Z ∧ Fᵢ` did not change between rounds
    /// reuses its cached `EX(E[S U ·])` set outright. When a state leaves
    /// the candidate set `Z`, exactly the constraints whose targets lost
    /// that state recompute their reach sets.
    fn global_exists_fair(&self, s: &StateSet, fair_sets: &[StateSet]) -> StateSet {
        let mut z = s.clone();
        let mut cache: Vec<Option<(StateSet, StateSet)>> = vec![None; fair_sets.len()];
        loop {
            let mut step = s.clone();
            for (fi, slot) in fair_sets.iter().zip(cache.iter_mut()) {
                // EX ( E[S U (Z ∧ Fᵢ)] )
                let mut target = z.clone();
                target.intersect_with(fi);
                match slot {
                    Some((prev, pre)) if *prev == target => step.intersect_with(pre),
                    _ => {
                        let reach = self.until_exists(s, &target);
                        let pre = self.pre_exists(&reach);
                        step.intersect_with(&pre);
                        *slot = Some((target, pre));
                    }
                }
            }
            if step == z {
                return z;
            }
            z = step;
        }
    }

    /// States from which at least one fair path starts.
    fn fair_states(&self, fair_sets: &[StateSet]) -> StateSet {
        self.global_exists_fair(&StateSet::full(self.universe), fair_sets)
    }

    /// Satisfaction set of `f` quantifying over all paths (trivial
    /// fairness).
    pub fn sat(&self, f: &Formula) -> Result<StateSet, CheckError> {
        self.sat_fair(f, &[])
    }

    /// Satisfaction set of `f` quantifying over paths fair w.r.t.
    /// `fairness` (the `F` of the restriction).
    pub fn sat_fair(&self, f: &Formula, fairness: &[Formula]) -> Result<StateSet, CheckError> {
        let fair_sets: Vec<StateSet> = fairness
            .iter()
            .filter(|c| **c != Formula::True) // `true` constrains nothing
            .map(|c| self.sat_fair(c, &[]))
            .collect::<Result<_, _>>()?;
        let fair = if fair_sets.is_empty() {
            StateSet::full(self.universe)
        } else {
            self.fair_states(&fair_sets)
        };
        self.sat_rec(f, &fair_sets, &fair)
    }

    fn sat_rec(
        &self,
        f: &Formula,
        fair_sets: &[StateSet],
        fair: &StateSet,
    ) -> Result<StateSet, CheckError> {
        use Formula::*;
        Ok(match f {
            True => StateSet::full(self.universe),
            False => StateSet::empty(self.universe),
            Ap(_) => self.sat_propositional(f)?,
            Not(g) => self.sat_rec(g, fair_sets, fair)?.complement(),
            And(a, b) => {
                let mut sa = self.sat_rec(a, fair_sets, fair)?;
                sa.intersect_with(&self.sat_rec(b, fair_sets, fair)?);
                sa
            }
            Or(a, b) => {
                let mut sa = self.sat_rec(a, fair_sets, fair)?;
                sa.union_with(&self.sat_rec(b, fair_sets, fair)?);
                sa
            }
            Implies(a, b) => {
                let mut sa = self.sat_rec(a, fair_sets, fair)?.complement();
                sa.union_with(&self.sat_rec(b, fair_sets, fair)?);
                sa
            }
            Iff(a, b) => {
                let sa = self.sat_rec(a, fair_sets, fair)?;
                let sb = self.sat_rec(b, fair_sets, fair)?;
                let mut both = sa.clone();
                both.intersect_with(&sb);
                let mut neither = sa.complement();
                neither.intersect_with(&sb.complement());
                both.union_with(&neither);
                both
            }
            Ex(g) => {
                // EX_fair g = EX (g ∧ fair)
                let mut sg = self.sat_rec(g, fair_sets, fair)?;
                sg.intersect_with(fair);
                self.pre_exists(&sg)
            }
            Ax(g) => {
                // AX g = ¬EX ¬g
                let mut notg = self.sat_rec(g, fair_sets, fair)?.complement();
                notg.intersect_with(fair);
                self.pre_exists(&notg).complement()
            }
            Ef(g) => {
                let mut sg = self.sat_rec(g, fair_sets, fair)?;
                sg.intersect_with(fair);
                self.until_exists(&StateSet::full(self.universe), &sg)
            }
            Af(g) => {
                // AF g = ¬EG ¬g
                let notg = self.sat_rec(g, fair_sets, fair)?.complement();
                self.eg_maybe_fair(&notg, fair_sets).complement()
            }
            Eg(g) => {
                let sg = self.sat_rec(g, fair_sets, fair)?;
                self.eg_maybe_fair(&sg, fair_sets)
            }
            Ag(g) => {
                // AG g = ¬EF ¬g
                let mut notg = self.sat_rec(g, fair_sets, fair)?.complement();
                notg.intersect_with(fair);
                self.until_exists(&StateSet::full(self.universe), &notg)
                    .complement()
            }
            Eu(a, b) => {
                let sa = self.sat_rec(a, fair_sets, fair)?;
                let mut sb = self.sat_rec(b, fair_sets, fair)?;
                sb.intersect_with(fair);
                self.until_exists(&sa, &sb)
            }
            Au(a, b) => {
                // A[a U b] = ¬( E[¬b U (¬a ∧ ¬b)] ∨ EG ¬b )
                let na = self.sat_rec(a, fair_sets, fair)?.complement();
                let nb = self.sat_rec(b, fair_sets, fair)?.complement();
                let mut nanb = na;
                nanb.intersect_with(&nb);
                let mut target = nanb;
                target.intersect_with(fair);
                let mut left = self.until_exists(&nb, &target);
                let right = self.eg_maybe_fair(&nb, fair_sets);
                left.union_with(&right);
                left.complement()
            }
        })
    }

    fn eg_maybe_fair(&self, s: &StateSet, fair_sets: &[StateSet]) -> StateSet {
        if fair_sets.is_empty() {
            self.global_exists(s)
        } else {
            self.global_exists_fair(s, fair_sets)
        }
    }

    /// `M ⊨ f` — `f` true in *every* state, over all paths.
    pub fn holds_everywhere(&self, f: &Formula) -> Result<bool, CheckError> {
        Ok(self.sat(f)?.len() == self.universe)
    }

    /// `M ⊨_r f` — `f` true in every state satisfying `r.init`,
    /// quantifying over `r.fairness`-fair paths.
    ///
    /// In reachable mode `sat_states` counts over the reachable fragment
    /// (the kernel's universe), and violating witnesses past 128
    /// propositions are omitted (no dense [`State`] pattern exists), but
    /// `holds` is exact in both modes.
    pub fn check(&self, r: &Restriction, f: &Formula) -> Result<Verdict, CheckError> {
        let sat = self.sat_fair(f, &r.fairness)?;
        let init = self.sat(&r.init)?;
        let mut violating = Vec::new();
        let mut holds = true;
        for i in init.iter_indices() {
            if !sat.contains_index(i) {
                holds = false;
                match self.state_at(i) {
                    Some(s) if violating.len() < Verdict::MAX_WITNESSES => violating.push(s),
                    Some(_) => break,
                    // Too wide for a State pattern — the verdict stands
                    // without witness seeds.
                    None => break,
                }
            }
        }
        Ok(Verdict {
            holds,
            violating,
            sat_states: sat.len(),
        })
    }
}

/// One component's contribution to the on-the-fly BFS: the union positions
/// it owns and its transition table keyed by the locally-projected pattern.
/// Everything off `positions` is frame (unchanged) — §3.1's interleaving
/// semantics, realised by [`StateVec::extract`]/[`StateVec::splice`]
/// instead of enumerating frame paddings.
struct ComponentStep {
    positions: Vec<usize>,
    table: HashMap<u128, Vec<u128>>,
}

impl ComponentStep {
    fn new(system: &System, union: &Alphabet) -> Self {
        let positions: Vec<usize> = system
            .alphabet()
            .names()
            .iter()
            .map(|name| {
                union
                    .position(name)
                    .expect("component alphabet must embed in the union")
            })
            .collect();
        let mut table: HashMap<u128, Vec<u128>> = HashMap::new();
        for (s, t) in system.proper_transitions() {
            table.entry(s.0).or_default().push(t.0);
        }
        ComponentStep { positions, table }
    }
}

/// Enumerate SAT(`init`) over `alphabet` by DFS with partial evaluation:
/// each proposition is assigned in turn and the formula constant-folded
/// ([`Formula::assign`]), so branches die as soon as the residual hits
/// `False` and fully-true residuals fill their free suffix directly. A
/// one-hot predicate over 30 propositions thus yields its 30 states in
/// ~30² steps, not 2^30. Fails with [`CheckError::StateBudget`] once more
/// than `budget` satisfying states exist.
fn enumerate_sat(
    init: &Formula,
    alphabet: &Alphabet,
    budget: usize,
) -> Result<Vec<StateVec>, CheckError> {
    let n = alphabet.len();
    let mut out = Vec::new();
    let mut cur = StateVec::zero(n);
    sat_dfs(init, alphabet, 0, n, &mut cur, &mut out, budget)?;
    Ok(out)
}

fn sat_dfs(
    f: &Formula,
    alphabet: &Alphabet,
    pos: usize,
    n: usize,
    cur: &mut StateVec,
    out: &mut Vec<StateVec>,
    budget: usize,
) -> Result<(), CheckError> {
    match f {
        Formula::False => return Ok(()),
        Formula::True => {
            // Every completion of the remaining positions satisfies; spill
            // them all (budget-guarded) without further substitution.
            return fill_free(pos, n, cur, out, budget);
        }
        _ => {}
    }
    if pos == n {
        // All propositions assigned: the residual is a constant expression
        // (assign folded every Ap away), so evaluation is trivial.
        if f.eval_bits(alphabet, &|p| cur.bit(p)) {
            push_sat(cur, out, budget)?;
        }
        return Ok(());
    }
    let name = alphabet.name(pos);
    for value in [false, true] {
        let g = f.assign(name, value);
        cur.set(pos, value);
        sat_dfs(&g, alphabet, pos + 1, n, cur, out, budget)?;
    }
    cur.set(pos, false);
    Ok(())
}

fn fill_free(
    pos: usize,
    n: usize,
    cur: &mut StateVec,
    out: &mut Vec<StateVec>,
    budget: usize,
) -> Result<(), CheckError> {
    if pos == n {
        return push_sat(cur, out, budget);
    }
    // All 2^(n-pos) completions will be pushed — refuse up front when that
    // must blow the budget, instead of materialising budget-many states
    // first (a trivial init over a wide alphabet refuses in O(1)).
    let free = n - pos;
    if free >= usize::BITS as usize || out.len().saturating_add(1usize << free) > budget {
        return Err(CheckError::StateBudget {
            explored: out.len(),
            budget,
        });
    }
    for value in [false, true] {
        cur.set(pos, value);
        fill_free(pos + 1, n, cur, out, budget)?;
    }
    cur.set(pos, false);
    Ok(())
}

fn push_sat(cur: &StateVec, out: &mut Vec<StateVec>, budget: usize) -> Result<(), CheckError> {
    if out.len() >= budget {
        return Err(CheckError::StateBudget {
            explored: out.len(),
            budget,
        });
    }
    out.push(cur.clone());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_kripke::Alphabet;

    /// A 2-bit counter: 00 -> 01 -> 10 -> 11 -> 00 (plus stutter loops).
    fn counter() -> System {
        let mut m = System::new(Alphabet::new(["b0", "b1"]));
        m.add_transition_named(&[], &["b0"]);
        m.add_transition_named(&["b0"], &["b1"]);
        m.add_transition_named(&["b1"], &["b0", "b1"]);
        m.add_transition_named(&["b0", "b1"], &[]);
        m
    }

    fn ap(p: &str) -> Formula {
        Formula::ap(p)
    }

    #[test]
    fn propositional_sat_sets() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        assert_eq!(c.sat(&ap("b0")).unwrap().len(), 2);
        assert_eq!(c.sat(&Formula::True).unwrap().len(), 4);
        assert_eq!(c.sat(&ap("b0").and(ap("b1"))).unwrap().len(), 1);
        assert_eq!(c.sat(&ap("b0").not()).unwrap().len(), 2);
    }

    #[test]
    fn unknown_proposition_is_an_error() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        assert_eq!(
            c.sat(&ap("zz")),
            Err(CheckError::UnknownProposition("zz".into()))
        );
    }

    #[test]
    fn ex_includes_stutter() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        // Reflexivity: s ⊨ EX f whenever s ⊨ f.
        let f = ap("b0");
        let sat_f = c.sat(&f).unwrap();
        let sat_exf = c.sat(&f.clone().ex()).unwrap();
        assert!(sat_f.is_subset_of(&sat_exf));
        // 00 ⊨ EX b0 because 00 -> 01. In fact every state of the counter
        // satisfies EX b0 (10 -> 11, and 01/11 stutter).
        let al = m.alphabet().clone();
        assert_eq!(sat_exf.len(), 4);
        // EX (b0 ∧ b1) separates: only 10 (via 11) and 11 (stutter) satisfy.
        let goal = f.and(ap("b1")).ex();
        let sat_goal = c.sat(&goal).unwrap();
        assert_eq!(sat_goal.len(), 2);
        assert!(sat_goal.contains(State::from_names(&al, &["b1"])));
        assert!(!sat_goal.contains(State::from_names(&al, &[])));
    }

    #[test]
    fn ef_reaches_around_the_cycle() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        // Every state eventually reaches b0 ∧ b1 along some path.
        assert!(c.holds_everywhere(&ap("b0").and(ap("b1")).ef()).unwrap());
    }

    #[test]
    fn af_fails_without_fairness_due_to_stuttering() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        // Stuttering forever is a path, so AF (b0 ∧ b1) fails in states
        // other than 11 itself.
        let sat = c.sat(&ap("b0").and(ap("b1")).af()).unwrap();
        assert_eq!(sat.len(), 1);
    }

    #[test]
    fn fairness_discards_infinite_stuttering() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        // Fairness: infinitely often leave each non-goal "phase".
        // Constraint "b0∧b1 ∨ ¬(current)" is clumsy; the standard paper
        // trick (§4): require ¬p ∨ q infinitely often for each step.
        // Here a single constraint suffices: infinitely often b0∧b1
        // — then every fair path must cycle and AF (b0∧b1) holds everywhere.
        let fairness = [ap("b0").and(ap("b1"))];
        let sat = c.sat_fair(&ap("b0").and(ap("b1")).af(), &fairness).unwrap();
        assert_eq!(sat.len(), 4);
    }

    #[test]
    fn eg_detects_self_loops() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        // EG b0: stutter forever in 01 or 11.
        let sat = c.sat(&ap("b0").eg()).unwrap();
        assert_eq!(sat.len(), 2);
        // With fairness "infinitely often ¬b0", no fair path keeps b0.
        let sat_fair = c.sat_fair(&ap("b0").eg(), &[ap("b0").not()]).unwrap();
        assert!(sat_fair.is_empty());
    }

    #[test]
    fn until_operators() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let al = m.alphabet().clone();
        // E[¬b1 U b1]: from 00 and 01 (b1 false, can reach b1) and any
        // state already satisfying b1.
        let f = ap("b1").not().eu(ap("b1"));
        let sat = c.sat(&f).unwrap();
        assert_eq!(sat.len(), 4);
        // A[¬b1 U b1] fails where stuttering avoids b1 forever.
        let g = ap("b1").not().au(ap("b1"));
        let sat_a = c.sat(&g).unwrap();
        assert!(sat_a.contains(State::from_names(&al, &["b1"])));
        assert!(!sat_a.contains(State::from_names(&al, &[])));
    }

    #[test]
    fn au_holds_under_step_fairness() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        // Rule 4 style fairness: infinitely often ¬(¬b1) ∨ b1 = b1.
        let verdict = c
            .check(
                &Restriction::new(Formula::True, [ap("b1")]),
                &ap("b1").not().au(ap("b1")),
            )
            .unwrap();
        assert!(verdict.holds, "violating: {:?}", verdict.violating);
    }

    #[test]
    fn restricted_check_reports_witnesses() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        // Under init b0∧b1, AX(b0∧b1) is false (successor 00 exists).
        let r = Restriction::with_init(ap("b0").and(ap("b1")));
        let v = c.check(&r, &ap("b0").and(ap("b1")).ax()).unwrap();
        assert!(!v.holds);
        assert_eq!(v.violating.len(), 1);
        // Under init FALSE everything holds vacuously.
        let r2 = Restriction::with_init(Formula::False);
        assert!(c.check(&r2, &Formula::False).unwrap().holds);
    }

    #[test]
    fn ax_eu_duality_spotcheck() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        // AX f == ¬EX¬f on every formula we try.
        for f in [ap("b0"), ap("b1").not(), ap("b0").iff(ap("b1"))] {
            let ax = c.sat(&f.clone().ax()).unwrap();
            let dual = c.sat(&f.clone().not().ex().not()).unwrap();
            assert_eq!(ax, dual, "AX duality failed for {f}");
        }
    }

    #[test]
    fn too_large_alphabet_rejected() {
        let names: Vec<String> = (0..25).map(|i| format!("p{i}")).collect();
        let m = System::new(Alphabet::new(names));
        let err = Checker::new(&m).unwrap_err();
        assert_eq!(
            err,
            CheckError::TooLarge {
                props: 25,
                limit: ExplicitLimits::DEFAULT_DENSE_BITS
            }
        );
        // The message names both the width and the configured limit.
        let msg = err.to_string();
        assert!(msg.contains("25"), "{msg}");
        assert!(
            msg.contains(&ExplicitLimits::DEFAULT_DENSE_BITS.to_string()),
            "{msg}"
        );
    }

    #[test]
    fn limit_is_configurable() {
        let m = counter(); // 2 propositions
        assert!(Checker::with_limit(&m, 2).is_ok());
        assert_eq!(
            Checker::with_limit(&m, 1).unwrap_err(),
            CheckError::TooLarge { props: 2, limit: 1 }
        );
    }

    /// An `n`-station token ring as hand-built components: station `i`
    /// owns `{t_i, t_(i+1 mod n)}` and passes the token along. With a
    /// one-hot initial state only the `n` one-hot valuations are
    /// reachable, out of a `2^n` dense universe.
    fn ring_stations(n: usize) -> Vec<System> {
        (0..n)
            .map(|i| {
                let j = (i + 1) % n;
                let here = format!("t{i}");
                let next = format!("t{j}");
                let mut m = System::new(Alphabet::new([here.clone(), next.clone()]));
                m.add_transition_named(&[&here], &[&next]);
                m
            })
            .collect()
    }

    fn one_hot(n: usize) -> Formula {
        Formula::or_many((0..n).map(|i| {
            Formula::and_many((0..n).map(|j| {
                let p = Formula::ap(format!("t{j}"));
                if i == j {
                    p
                } else {
                    p.not()
                }
            }))
        }))
    }

    #[test]
    fn reachable_kernel_matches_dense_verdicts() {
        let stations = ring_stations(6);
        let refs: Vec<&System> = stations.iter().collect();
        let extra = Alphabet::empty();
        let r = Restriction::with_init(one_hot(6));
        let dense =
            Checker::from_components(&refs, &extra, ExplicitLimits::DEFAULT_DENSE_BITS).unwrap();
        let limits = ExplicitLimits::default();
        let reach = Checker::reachable_from_components(&refs, &extra, &r.init, &limits).unwrap();
        assert!(reach.is_reachable() && !dense.is_reachable());
        for spec in [
            ap("t0").implies(ap("t1").ef()),
            one_hot(6).ag(),
            ap("t0").ef(),
            ap("t0").not().eg(),
        ] {
            let vd = dense.check(&r, &spec).unwrap();
            let vr = reach.check(&r, &spec).unwrap();
            assert_eq!(vd.holds, vr.holds, "verdicts disagree on {spec}");
            assert_eq!(
                vd.violating, vr.violating,
                "witness seeds disagree on {spec}"
            );
        }
    }

    /// Regression (PR 9 satellite): kernels that quantify over the
    /// universe (`StateSet::full`, the reflexive-EG collapse,
    /// `holds_everywhere`) must use the *interned* state count in
    /// reachable mode. The dense kernel counts all `2^n` valuations —
    /// including the 2^6 − 6 unreachable ones — so its sat counts
    /// over-report; the reachable kernel's universe is exactly the ring's
    /// 6 one-hot states.
    #[test]
    fn reachable_universe_is_interned_count_not_a_power_of_two() {
        let n = 6;
        let stations = ring_stations(n);
        let refs: Vec<&System> = stations.iter().collect();
        let extra = Alphabet::empty();
        let init = one_hot(n);
        let dense =
            Checker::from_components(&refs, &extra, ExplicitLimits::DEFAULT_DENSE_BITS).unwrap();
        let reach =
            Checker::reachable_from_components(&refs, &extra, &init, &ExplicitLimits::default())
                .unwrap();
        assert_eq!(dense.universe(), 1 << n);
        assert_eq!(reach.universe(), n, "only the one-hot states are reachable");
        // EG true = true collapses to the whole universe in both modes —
        // the dense count includes unreachable paddings, the reachable one
        // does not.
        let eg_true = Formula::True.eg();
        assert_eq!(dense.sat(&eg_true).unwrap().len(), 1 << n);
        assert_eq!(reach.sat(&eg_true).unwrap().len(), n);
        // Over the fragment, one-hot is an invariant: every reachable
        // state satisfies it, so holds_everywhere is true there while the
        // dense universe (rightly, per M ⊨ f) says no.
        assert!(reach.holds_everywhere(&init).unwrap());
        assert!(!dense.holds_everywhere(&init).unwrap());
        // Restricted verdicts still agree exactly.
        let r = Restriction::with_init(init.clone());
        let spec = init.clone().ag();
        assert_eq!(
            dense.check(&r, &spec).unwrap().holds,
            reach.check(&r, &spec).unwrap().holds
        );
    }

    #[test]
    fn reachable_construction_honours_the_state_budget() {
        let stations = ring_stations(8);
        let refs: Vec<&System> = stations.iter().collect();
        let extra = Alphabet::empty();
        // 8 reachable states against a budget of 4: refuse, telling the
        // caller how far discovery got.
        let limits = ExplicitLimits {
            dense_bits: 0,
            max_states: Some(4),
        };
        let err =
            Checker::reachable_from_components(&refs, &extra, &one_hot(8), &limits).unwrap_err();
        assert_eq!(
            err,
            CheckError::StateBudget {
                explored: 4,
                budget: 4
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("budget of 4"), "{msg}");
        // Unbounded limits admit the same construction.
        let ok = Checker::reachable_from_components(
            &refs,
            &extra,
            &one_hot(8),
            &ExplicitLimits::unbounded(),
        )
        .unwrap();
        assert_eq!(ok.universe(), 8);
    }

    #[test]
    fn reachable_rejects_temporal_init() {
        let stations = ring_stations(4);
        let refs: Vec<&System> = stations.iter().collect();
        let err = Checker::reachable_from_components(
            &refs,
            &Alphabet::empty(),
            &ap("t0").ef(),
            &ExplicitLimits::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::InitNotEnumerable(_)));
    }

    #[test]
    fn reachable_witness_extraction_works_by_index() {
        let stations = ring_stations(5);
        let refs: Vec<&System> = stations.iter().collect();
        let reach = Checker::reachable_from_components(
            &refs,
            &Alphabet::empty(),
            &one_hot(5),
            &ExplicitLimits::default(),
        )
        .unwrap();
        // AG t0 fails from the t0 state: the token moves on.
        let r = Restriction::with_init(ap("t0"));
        let v = reach.check(&r, &ap("t0").ag()).unwrap();
        assert!(!v.holds);
        assert_eq!(v.violating.len(), 1);
        let from = reach.sat(&ap("t0")).unwrap();
        let w = reach.counterexample_ag(&from, &ap("t0")).unwrap().unwrap();
        assert!(!w.stem.is_empty());
        let last = *w.stem.last().unwrap();
        // The final state is a one-hot state without the token at 0.
        let al = reach.alphabet().clone();
        assert!(!last.contains_named(&al, "t0"));
    }
}
