//! Symbolic transition systems over interleaved current/next BDD frames.

use cmc_bdd::{Bdd, BddManager, GcStats, RootId, Var};
use cmc_kripke::System;
use std::collections::BTreeMap;

/// One boolean state variable with its current- and next-state BDD
/// variables. Current variables sit at even order positions and their next
/// copies immediately below them (the classic SMV interleaving, which keeps
/// transition-relation BDDs small).
#[derive(Debug, Clone)]
pub struct StateVar {
    /// Source-level name.
    pub name: String,
    /// Current-state BDD variable.
    pub cur: Var,
    /// Next-state BDD variable.
    pub next: Var,
}

/// When the model runs BDD maintenance, i.e. garbage collection.
///
/// Maintenance only ever happens at fixpoint iteration boundaries — the
/// model's *safe points*, where every live diagram is registered in the
/// manager's root registry. Recursive BDD operations are never interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Collect when the manager says it's due (arena crossed the adaptive
    /// threshold). With a threshold no arena reaches
    /// ([`MaintenanceConfig::disabled`]) it never collects.
    Auto,
    /// Collect at every `k`-th safe point regardless of arena size — for
    /// tests that must prove maintenance preserves verdicts.
    ForcedEvery(u32),
}

/// Maintenance policy knobs for a [`SymbolicModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceConfig {
    /// Trigger discipline.
    pub mode: MaintenanceMode,
    /// Arena size (nodes) that makes an [`MaintenanceMode::Auto`] GC due.
    pub gc_threshold: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            mode: MaintenanceMode::Auto,
            gc_threshold: BddManager::DEFAULT_GC_THRESHOLD,
        }
    }
}

impl MaintenanceConfig {
    /// The seed behaviour: never collect (an append-only arena), as
    /// [`MaintenanceMode::Auto`] with a threshold no arena reaches.
    pub fn disabled() -> Self {
        MaintenanceConfig {
            mode: MaintenanceMode::Auto,
            gc_threshold: usize::MAX,
        }
    }

    /// Collect at every `k`-th safe point, however small the arena — the
    /// adversarial schedule for conformance tests.
    pub fn forced_every(k: u32) -> Self {
        MaintenanceConfig {
            mode: MaintenanceMode::ForcedEvery(k),
            ..Self::default()
        }
    }
}

/// Which relational-product strategy the image operators use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImageMode {
    /// Cost-driven quantification scheduling over the disjunctive
    /// partitions: partitions are pre-merged into clusters by a fixed
    /// merge policy, images walk the clusters in a cost-model order,
    /// frame conditions stay implicit and the product relation is never
    /// built. Images distribute over the disjunctive union, so any
    /// clustering and any order — including one cluster per partition,
    /// [`SymbolicModel::set_merging`]`(false)` — computes the same set;
    /// only per-call overhead and peak live nodes differ. The default.
    #[default]
    Scheduled,
    /// One materialised monolithic relation (union of all partitions with
    /// their frames, memoised in a registry root) — the reference relation
    /// the conformance oracle and the benches compare against.
    Monolithic,
}

/// Partitions whose local relation is at most this many nodes merge
/// regardless of overlap, so tiny stutter-step parts stop paying a full
/// relational-product call each.
const MERGE_NODE_LIMIT: usize = 64;

/// Merge a pair when their owned-variable sets overlap by at least this
/// percentage of the smaller set.
const MERGE_OVERLAP_PCT: usize = 50;

/// Never grow a merged cluster beyond this many owned variables (bounds
/// the materialised partial frames).
const MAX_CLUSTER_VARS: usize = 8;

/// The schedule an [`ImageMode::Scheduled`] run actually used — surfaced
/// through `CheckStats` and the SMV `-r` trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Declared partitions before merging.
    pub clusters_before: usize,
    /// Clusters after merging.
    pub clusters_after: usize,
    /// Cluster processing order (a permutation of `0..clusters_after`).
    pub order: Vec<usize>,
    /// For each cluster, the indices of the declared partitions it
    /// absorbed (singleton for unmerged partitions).
    pub members: Vec<Vec<usize>>,
    /// Always 0: a model plans once per partition set, and every input of
    /// the plan is fixed under the model's fixed variable order. Kept so
    /// readers of the field keep their shape.
    pub replans: u64,
}

/// One disjunctive transition partition: a component's **local move
/// relation** plus the indices of the state variables it owns. The frame
/// condition `⋀_{j ∉ owned} vⱼ' = vⱼ` is *implicit* — never conjoined into
/// the stored BDD. The image operators exploit this algebraically: the
/// foreign next-state variables of `∃next.(rel ∧ frame ∧ S[cur→next])`
/// quantify away into a rename of `S`'s owned variables only, so the
/// per-partition relational product touches just the owned frame
/// (`O(component)` instead of `O(union alphabet)` nodes per partition).
struct TransPart {
    /// Local move relation: may read any current variable, but mentions
    /// only owned next-state variables.
    rel: RootId,
    /// Ascending indices into `SymbolicModel::vars` of the owned variables
    /// (those whose next-state value the partition constrains).
    owned: Vec<usize>,
}

/// One merged cluster of the quantification schedule. Merging member
/// partitions `A` and `B` (disjunctive!) materialises each member's frame
/// over the *symmetric difference* of the owned sets only:
/// `rel = (relA ∧ frame(O_B∖O_A)) ∨ (relB ∧ frame(O_A∖O_B))`, owned
/// `O_A ∪ O_B`. The image through the merged cluster is then exactly the
/// union of the member images — images distribute over `∨` — so any merge
/// plan preserves `pre`/`post` bit-for-bit while cutting the number of
/// relational-product calls per image.
struct SchedCluster {
    /// Indices into `SymbolicModel::trans_parts` of the member partitions.
    members: Vec<usize>,
    /// Merged local move relation (partial frames materialised), held in
    /// the root registry so GC keeps it alive.
    rel: RootId,
    /// The owned variables' `(cur, next)` rename pairs.
    cur_to_next: Vec<(Var, Var)>,
    /// The owned variables' `(next, cur)` rename pairs.
    next_to_cur: Vec<(Var, Var)>,
    /// Cube of the owned current-state variables (a registry root).
    cur_cube: RootId,
    /// Cube of the owned next-state variables (a registry root).
    next_cube: RootId,
}

impl SchedCluster {
    /// Backward image through the cluster's relation:
    /// `∃next_owned. (rel ∧ S[cur_owned→next_owned])`, renaming and
    /// quantifying **only the owned variables**. This is the
    /// early-quantification schedule in closed form: in
    /// `∃next.(rel ∧ ⋀_{j foreign} vⱼ'=vⱼ ∧ S[cur→next])` every frame
    /// conjunct `vⱼ'=vⱼ` is the sole constraint on `vⱼ'`, so quantifying
    /// `vⱼ'` first collapses it to the substitution `vⱼ' := vⱼ` in `S` —
    /// i.e. foreign variables of `S` simply stay in the current frame and
    /// never materialise in the product.
    fn pre_image(&self, mgr: &mut BddManager, s: Bdd) -> Bdd {
        let rel = mgr.root(self.rel);
        let s_next = mgr.rename(s, &self.cur_to_next);
        let next_cube = mgr.root(self.next_cube);
        mgr.and_exists(rel, s_next, next_cube)
    }

    /// Forward image through the cluster's relation:
    /// `(∃cur_owned. rel ∧ S)[next_owned→cur_owned]` — again only owned
    /// variables are quantified and renamed; foreign variables of `S` pass
    /// through in the current frame (see [`SchedCluster::pre_image`]).
    fn post_image(&self, mgr: &mut BddManager, s: Bdd) -> Bdd {
        let rel = mgr.root(self.rel);
        let cur_cube = mgr.root(self.cur_cube);
        let img_next = mgr.and_exists(rel, s, cur_cube);
        mgr.rename(img_next, &self.next_to_cur)
    }
}

/// A cached quantification schedule: the merge plan plus the cost-model
/// processing order.
struct QuantSchedule {
    clusters: Vec<SchedCluster>,
    /// Cluster processing order (permutation of `0..clusters.len()`).
    order: Vec<usize>,
}

/// A symbolic finite-state system: initial states, a transition relation in
/// **disjunctive** partitions (interleaving composition is a union of
/// per-component moves), fairness constraints, and a map of named
/// propositions.
///
/// The transition relation always contains the identity (stutter) relation,
/// mirroring the paper's standing assumption that `R` is reflexive.
///
/// Every long-lived BDD (partitions, props, cubes, init, fairness) is held
/// as a [`RootId`] into the manager's registry, so garbage collection at
/// the model's safe points can never invalidate them.
pub struct SymbolicModel {
    mgr: BddManager,
    vars: Vec<StateVar>,
    /// Named propositions over current-state variables. For a boolean
    /// variable this is its literal; front-ends (cmc-smv) also register
    /// encoded atoms like `belief=valid`.
    props: BTreeMap<String, RootId>,
    /// Disjunctive partitions of the transition relation, each a local
    /// move relation with implicit frame conditions (see [`TransPart`]).
    trans_parts: Vec<TransPart>,
    /// Memoised monolithic relation (built on first use by
    /// [`ImageMode::Monolithic`] images; invalidated when a partition is
    /// added).
    full_trans_memo: Option<RootId>,
    /// Image strategy for `pre_exists`/`post_exists`.
    image_mode: ImageMode,
    /// Whether [`ImageMode::Scheduled`] merges partitions into clusters
    /// (the default) or keeps one cluster per partition.
    merging: bool,
    /// Cached quantification schedule (built on first scheduled image;
    /// invalidated when a partition is added or merging is switched).
    schedule: Option<QuantSchedule>,
    /// Initial-state predicate over current variables.
    init: RootId,
    /// Fairness constraints over current variables.
    fairness: Vec<RootId>,
    cur_cube: RootId,
    next_cube: RootId,
    cur_to_next: Vec<(Var, Var)>,
    next_to_cur: Vec<(Var, Var)>,
    maintenance: MaintenanceConfig,
    /// Safe points visited (drives [`MaintenanceMode::ForcedEvery`]).
    maint_ticks: u64,
    /// Memoised `fair_states` results: (care and fair-set node ids,
    /// result). Cleared on every GC, so stored ids are never stale.
    fair_memo: Vec<(Vec<u32>, Bdd)>,
    /// Memoised `(I, Reach(I))` as two registry roots, so GC keeps both;
    /// compared against a fresh `I` by node identity and dropped when a
    /// partition is added.
    reach_memo: Option<(RootId, RootId)>,
}

impl SymbolicModel {
    /// Create a model with the given boolean state variables.
    pub fn new(var_names: impl IntoIterator<Item = String>) -> Self {
        let mut mgr = BddManager::new();
        let mut vars = Vec::new();
        let mut props = BTreeMap::new();
        for name in var_names {
            let cur = mgr.new_var();
            let next = mgr.new_var();
            let lit = mgr.var(cur);
            let root = mgr.protect(lit);
            assert!(
                props.insert(name.clone(), root).is_none(),
                "duplicate state variable {name:?}"
            );
            vars.push(StateVar { name, cur, next });
        }
        let cur_vars: Vec<Var> = vars.iter().map(|v| v.cur).collect();
        let next_vars: Vec<Var> = vars.iter().map(|v| v.next).collect();
        let cur_cube = mgr.cube(&cur_vars);
        let cur_cube = mgr.protect(cur_cube);
        let next_cube = mgr.cube(&next_vars);
        let next_cube = mgr.protect(next_cube);
        let init = mgr.protect(Bdd::TRUE);
        let cur_to_next: Vec<(Var, Var)> = vars.iter().map(|v| (v.cur, v.next)).collect();
        let next_to_cur: Vec<(Var, Var)> = vars.iter().map(|v| (v.next, v.cur)).collect();
        SymbolicModel {
            mgr,
            vars,
            props,
            trans_parts: Vec::new(),
            full_trans_memo: None,
            image_mode: ImageMode::default(),
            merging: true,
            schedule: None,
            init,
            fairness: Vec::new(),
            cur_cube,
            next_cube,
            cur_to_next,
            next_to_cur,
            maintenance: MaintenanceConfig::default(),
            maint_ticks: 0,
            fair_memo: Vec::new(),
            reach_memo: None,
        }
    }

    /// Mutable access to the manager, for building formulas.
    pub fn mgr(&mut self) -> &mut BddManager {
        &mut self.mgr
    }

    /// Read-only access to the manager.
    pub fn mgr_ref(&self) -> &BddManager {
        &self.mgr
    }

    /// Declared state variables.
    pub fn vars(&self) -> &[StateVar] {
        &self.vars
    }

    /// Number of boolean state variables.
    pub fn num_state_vars(&self) -> usize {
        self.vars.len()
    }

    /// Look up a state variable by name.
    pub fn state_var(&self, name: &str) -> Option<&StateVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Register a named proposition (over current-state variables).
    pub fn define_prop(&mut self, name: impl Into<String>, bdd: Bdd) {
        let name = name.into();
        match self.props.get(&name) {
            Some(&root) => self.mgr.set_root(root, bdd),
            None => {
                let root = self.mgr.protect(bdd);
                self.props.insert(name, root);
            }
        }
    }

    /// Look up a named proposition.
    pub fn prop(&self, name: &str) -> Option<Bdd> {
        self.props.get(name).map(|&r| self.mgr.root(r))
    }

    /// All registered proposition names.
    pub fn prop_names(&self) -> impl Iterator<Item = &str> {
        self.props.keys().map(String::as_str)
    }

    /// Add a disjunctive transition partition owning only the state
    /// variables at `owned` (indices into [`SymbolicModel::vars`]). The
    /// frame condition over the remaining variables is implicit: the
    /// stored relation must not mention any foreign next-state variable
    /// (it may freely *read* foreign current-state variables).
    pub fn add_trans_part_owned(&mut self, part: Bdd, mut owned: Vec<usize>) {
        owned.sort_unstable();
        owned.dedup();
        debug_assert!(
            owned.iter().all(|&vi| vi < self.vars.len()),
            "owned index out of range"
        );
        debug_assert!(
            {
                let support = self.mgr.support(part);
                support.iter().all(|&v| {
                    self.vars
                        .iter()
                        .enumerate()
                        .all(|(vi, sv)| sv.next != v || owned.binary_search(&vi).is_ok())
                })
            },
            "partition mentions a foreign next-state variable; its frame \
             must stay implicit"
        );
        let rel = self.mgr.protect(part);
        self.trans_parts.push(TransPart { rel, owned });
        if let Some(root) = self.full_trans_memo.take() {
            self.mgr.unprotect(root);
        }
        self.drop_reach_memo();
        self.drop_schedule();
    }

    /// Number of disjunctive transition partitions.
    pub fn num_trans_parts(&self) -> usize {
        self.trans_parts.len()
    }

    /// Indices (into [`SymbolicModel::vars`]) of the variables partition
    /// `i` owns.
    pub fn part_owned_vars(&self, i: usize) -> &[usize] {
        &self.trans_parts[i].owned
    }

    /// Select the relational-product strategy for subsequent images.
    pub fn set_image_mode(&mut self, mode: ImageMode) {
        self.image_mode = mode;
    }

    /// Merge partitions into clusters under [`ImageMode::Scheduled`] (the
    /// default), or keep one cluster per partition — the unmerged control
    /// plan the conformance oracle compares against. Both plans compute
    /// the same images. Switching drops any cached schedule, so the next
    /// image plans afresh.
    pub fn set_merging(&mut self, merging: bool) {
        self.merging = merging;
        self.drop_schedule();
    }

    /// The schedule the last [`ImageMode::Scheduled`] image used, or `None`
    /// when no scheduled image has run since the last invalidation.
    pub fn schedule_stats(&self) -> Option<ScheduleStats> {
        self.schedule.as_ref().map(|s| ScheduleStats {
            clusters_before: self.trans_parts.len(),
            clusters_after: s.clusters.len(),
            order: s.order.clone(),
            members: s.clusters.iter().map(|c| c.members.clone()).collect(),
            replans: 0,
        })
    }

    /// Drop the cached schedule, releasing its clusters' relation and
    /// cube roots.
    fn drop_schedule(&mut self) {
        if let Some(sched) = self.schedule.take() {
            for c in sched.clusters {
                self.mgr.unprotect(c.rel);
                self.mgr.unprotect(c.cur_cube);
                self.mgr.unprotect(c.next_cube);
            }
        }
    }

    /// Set the initial-state predicate.
    pub fn set_init(&mut self, init: Bdd) {
        self.mgr.set_root(self.init, init);
    }

    /// The initial-state predicate.
    pub fn init(&self) -> Bdd {
        self.mgr.root(self.init)
    }

    /// Add a fairness constraint (predicate over current variables that
    /// must hold infinitely often along fair paths).
    pub fn add_fairness(&mut self, constraint: Bdd) {
        let root = self.mgr.protect(constraint);
        self.fairness.push(root);
    }

    /// The fairness constraints.
    pub fn fairness(&self) -> Vec<Bdd> {
        self.resolve(&self.fairness)
    }

    /// Root handles of the model-level fairness constraints (already
    /// protected; callers must **not** unprotect them).
    pub(crate) fn fairness_root_ids(&self) -> Vec<RootId> {
        self.fairness.clone()
    }

    fn resolve(&self, roots: &[RootId]) -> Vec<Bdd> {
        roots.iter().map(|&r| self.mgr.root(r)).collect()
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Install a maintenance policy (also applies its GC threshold to the
    /// manager).
    pub fn set_maintenance(&mut self, cfg: MaintenanceConfig) {
        self.mgr.set_gc_threshold(cfg.gc_threshold);
        self.maintenance = cfg;
    }

    /// The active maintenance policy.
    pub fn maintenance(&self) -> &MaintenanceConfig {
        &self.maintenance
    }

    /// Epoch counter: the manager's GC count, since collection is the only
    /// event that remaps node ids. Any value derived from raw node ids is
    /// only comparable within one epoch.
    pub fn maintenance_epoch(&self) -> u64 {
        self.mgr.stats().gc_runs
    }

    /// Collect now, regardless of policy. All [`RootId`]-held state
    /// survives; unregistered handles are invalidated.
    pub fn gc_now(&mut self) -> GcStats {
        self.fair_memo.clear();
        self.mgr.gc()
    }

    /// One safe point: collect garbage if the policy calls for it. Called
    /// by every fixpoint loop between iterations, when the live set is
    /// exactly the registered roots. The quantification schedule survives
    /// untouched: its cluster relations are registry roots.
    pub fn maybe_maintain(&mut self) {
        match self.maintenance.mode {
            MaintenanceMode::Auto => {
                if self.mgr.gc_due() {
                    self.gc_now();
                }
            }
            MaintenanceMode::ForcedEvery(k) => {
                if k == 0 {
                    return;
                }
                self.maint_ticks += 1;
                if self.maint_ticks.is_multiple_of(u64::from(k)) {
                    self.gc_now();
                }
            }
        }
    }

    /// Look up a memoised `fair_states` result (valid: the memo is cleared
    /// on every GC, so stored ids are never stale).
    pub(crate) fn fair_memo_get(&self, key: &[u32]) -> Option<Bdd> {
        self.fair_memo
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Store a `fair_states` result computed entirely within `epoch`.
    pub(crate) fn fair_memo_put(&mut self, key: Vec<u32>, value: Bdd, epoch: u64) {
        if self.maintenance_epoch() == epoch {
            self.fair_memo.push((key, value));
        }
    }

    /// Partition `i`'s relation with its frame condition materialised —
    /// `relᵢ ∧ ⋀_{j ∉ ownedᵢ} vⱼ' = vⱼ`. Only the monolithic paths
    /// ([`SymbolicModel::full_trans`], [`SymbolicModel::to_explicit`])
    /// ever build this.
    fn part_with_frame(&mut self, i: usize) -> Bdd {
        let rel = self.mgr.root(self.trans_parts[i].rel);
        let owned = &self.trans_parts[i].owned;
        let foreign = self
            .vars
            .iter()
            .enumerate()
            .filter(|(vi, _)| owned.binary_search(vi).is_err())
            .map(|(_, v)| (v.cur, v.next));
        let frame = frame_condition(&mut self.mgr, foreign);
        self.mgr.and(rel, frame)
    }

    /// The monolithic transition relation: the union of all partitions
    /// (frames materialised), always including the identity relation
    /// (reflexivity).
    pub fn full_trans(&mut self) -> Bdd {
        let id = frame_condition(&mut self.mgr, self.vars.iter().map(|v| (v.cur, v.next)));
        let mut acc = id;
        for i in 0..self.trans_parts.len() {
            let t = self.part_with_frame(i);
            acc = self.mgr.or(acc, t);
        }
        acc
    }

    /// [`SymbolicModel::full_trans`] memoised in a registry root, so
    /// monolithic-mode fixpoints build the product relation once per
    /// model instead of once per image.
    fn full_trans_rooted(&mut self) -> Bdd {
        if let Some(root) = self.full_trans_memo {
            return self.mgr.root(root);
        }
        let t = self.full_trans();
        self.full_trans_memo = Some(self.mgr.protect(t));
        t
    }

    /// Local move relations of the transition partitions (without the
    /// implicit identity, and without the implicit frame conditions —
    /// see [`SymbolicModel::full_trans`] for the materialised relation).
    pub fn trans_parts(&self) -> Vec<Bdd> {
        self.trans_parts
            .iter()
            .map(|p| self.mgr.root(p.rel))
            .collect()
    }

    /// `EX S` — predecessors of `S` under the transition relation
    /// (including the stutter move, so `S ⇒ EX S`).
    ///
    /// In [`ImageMode::Scheduled`] (the default) this is the union of
    /// the early-quantified products over the scheduled clusters (the
    /// closed form in `SchedCluster::pre_image`); the monolithic relation
    /// is never built. [`ImageMode::Monolithic`] computes the same set
    /// against the memoised product relation instead.
    pub fn pre_exists(&mut self, s: Bdd) -> Bdd {
        match self.image_mode {
            ImageMode::Monolithic => self.pre_exists_monolithic(s),
            ImageMode::Scheduled => {
                self.ensure_schedule();
                let sched = self.schedule.as_ref().expect("schedule just built");
                let mut acc = s; // identity partition: S itself
                for &c in &sched.order {
                    let img = sched.clusters[c].pre_image(&mut self.mgr, s);
                    acc = self.mgr.or(acc, img);
                }
                acc
            }
        }
    }

    /// `EX S` computed against the **monolithic** transition relation
    /// (the union of all partitions with frames materialised as one BDD,
    /// memoised across calls) instead of per-partition relational
    /// products. Semantically identical to [`SymbolicModel::pre_exists`];
    /// exists as the monolithic leg of the conformance oracle and of the
    /// `partition_kernel` calibration.
    pub fn pre_exists_monolithic(&mut self, s: Bdd) -> Bdd {
        let trans = self.full_trans_rooted();
        let s_next = self.mgr.rename(s, &self.cur_to_next);
        let next_cube = self.next_cube();
        self.mgr.and_exists(trans, s_next, next_cube)
    }

    /// Forward image: successors of `S` under the transition relation.
    pub fn post_exists(&mut self, s: Bdd) -> Bdd {
        match self.image_mode {
            ImageMode::Monolithic => {
                // The memoised relation contains the identity, so the result
                // already includes the stutter successors `S` itself.
                let trans = self.full_trans_rooted();
                let cur_cube = self.cur_cube();
                let img_next = self.mgr.and_exists(trans, s, cur_cube);
                self.mgr.rename(img_next, &self.next_to_cur)
            }
            ImageMode::Scheduled => {
                self.ensure_schedule();
                let sched = self.schedule.as_ref().expect("schedule just built");
                let mut acc = s; // identity partition
                for &c in &sched.order {
                    let img = sched.clusters[c].post_image(&mut self.mgr, s);
                    acc = self.mgr.or(acc, img);
                }
                acc
            }
        }
    }

    /// Build the schedule on first use.
    fn ensure_schedule(&mut self) {
        if self.schedule.is_none() {
            self.build_schedule();
        }
    }

    /// Compute and cache the quantification schedule: greedy cluster
    /// merging followed by cost-model ordering. Each cluster also keeps
    /// what its images read on every call — its rename pairs and its two
    /// cubes, the cubes as registry roots — so an image only looks them up.
    ///
    /// **Merging** (skipped when [`SymbolicModel::set_merging`] turned it
    /// off) repeatedly picks the admissible pair with the largest
    /// owned-set overlap (ties: smallest combined relation) and merges it.
    /// A pair is admissible when the merged owned set stays within
    /// [`MAX_CLUSTER_VARS`] and either both relations are at most
    /// [`MERGE_NODE_LIMIT`] nodes or the owned overlap reaches
    /// [`MERGE_OVERLAP_PCT`] of the smaller set (see [`SchedCluster`] for
    /// why the merged relation is an exact disjunctive combination).
    ///
    /// **Ordering** sorts clusters by ascending cost
    /// `|support| · |owned| + nodes` — the static cost model over
    /// support-set size, owned-next-var count and estimated node growth —
    /// tie-breaking toward the earliest owned variable in the manager
    /// order. Cheap, low-footprint clusters run first so each next-state
    /// variable is quantified while the accumulated union (and the
    /// computed table's working set) is still small; expensive clusters
    /// run last against a warm cache.
    ///
    /// Every input — the partition relations, their node counts and
    /// supports, the owned sets and the variable order — is fixed once the
    /// partitions are, so the plan is built once and kept until a
    /// partition is added or merging is switched.
    fn build_schedule(&mut self) {
        self.drop_schedule();
        // Working clusters: (members, owned, rel as a plain handle —
        // safe: no maintenance runs during planning).
        let mut work: Vec<(Vec<usize>, Vec<usize>, Bdd)> = (0..self.trans_parts.len())
            .map(|i| {
                (
                    vec![i],
                    self.trans_parts[i].owned.clone(),
                    self.mgr.root(self.trans_parts[i].rel),
                )
            })
            .collect();
        let mut sizes: Vec<usize> = work.iter().map(|c| self.mgr.node_count(c.2)).collect();
        while self.merging {
            let mut best: Option<(usize, usize, usize, usize)> = None; // (i, j, overlap, nodes)
            for i in 0..work.len() {
                for j in i + 1..work.len() {
                    let (oi, oj) = (&work[i].1, &work[j].1);
                    let overlap = oi.iter().filter(|v| oj.binary_search(v).is_ok()).count();
                    if oi.len() + oj.len() - overlap > MAX_CLUSTER_VARS {
                        continue;
                    }
                    let tiny = sizes[i] <= MERGE_NODE_LIMIT && sizes[j] <= MERGE_NODE_LIMIT;
                    let overlapping =
                        overlap > 0 && overlap * 100 >= MERGE_OVERLAP_PCT * oi.len().min(oj.len());
                    if !(tiny || overlapping) {
                        continue;
                    }
                    let nodes = sizes[i] + sizes[j];
                    let better = match best {
                        None => true,
                        Some((_, _, bo, bn)) => overlap > bo || (overlap == bo && nodes < bn),
                    };
                    if better {
                        best = Some((i, j, overlap, nodes));
                    }
                }
            }
            let Some((i, j, _, _)) = best else { break };
            let (mj, oj, rj) = work.remove(j);
            let (mi, oi, ri) = work.remove(i);
            sizes.remove(j);
            sizes.remove(i);
            let only_i: Vec<usize> = oi
                .iter()
                .copied()
                .filter(|v| oj.binary_search(v).is_err())
                .collect();
            let only_j: Vec<usize> = oj
                .iter()
                .copied()
                .filter(|v| oi.binary_search(v).is_err())
                .collect();
            // rel = (relᵢ ∧ frame(O_j∖O_i)) ∨ (relⱼ ∧ frame(O_i∖O_j))
            let var_pair = |&vi: &usize| (self.vars[vi].cur, self.vars[vi].next);
            let frame_j = frame_condition(&mut self.mgr, only_j.iter().map(var_pair));
            let lhs = self.mgr.and(ri, frame_j);
            let frame_i = frame_condition(&mut self.mgr, only_i.iter().map(var_pair));
            let rhs = self.mgr.and(rj, frame_i);
            let rel = self.mgr.or(lhs, rhs);
            let mut members = mi;
            members.extend(mj);
            members.sort_unstable();
            let mut owned = oi;
            owned.extend(only_j);
            owned.sort_unstable();
            sizes.push(self.mgr.node_count(rel));
            work.push((members, owned, rel));
        }
        // Cost-model ordering.
        let mut keyed: Vec<(usize, usize, usize)> = work
            .iter()
            .enumerate()
            .map(|(c, (_, owned, rel))| {
                let support = self.mgr.support(*rel).len();
                let cost = support * owned.len().max(1) + sizes[c];
                let first_owned = owned
                    .iter()
                    .map(|&vi| self.vars[vi].cur.index())
                    .min()
                    .unwrap_or(usize::MAX);
                (cost, first_owned, c)
            })
            .collect();
        keyed.sort_unstable();
        let order: Vec<usize> = keyed.into_iter().map(|(_, _, c)| c).collect();
        let clusters = work
            .into_iter()
            .map(|(members, owned, rel)| {
                let cur_to_next: Vec<(Var, Var)> = owned
                    .iter()
                    .map(|&vi| (self.vars[vi].cur, self.vars[vi].next))
                    .collect();
                let (cur_vars, next_vars): (Vec<Var>, Vec<Var>) =
                    cur_to_next.iter().copied().unzip();
                let cur_cube = self.mgr.cube(&cur_vars);
                let next_cube = self.mgr.cube(&next_vars);
                SchedCluster {
                    members,
                    rel: self.mgr.protect(rel),
                    next_to_cur: cur_to_next.iter().map(|&(c, n)| (n, c)).collect(),
                    cur_to_next,
                    cur_cube: self.mgr.protect(cur_cube),
                    next_cube: self.mgr.protect(next_cube),
                }
            })
            .collect();
        self.schedule = Some(QuantSchedule { clusters, order });
    }

    /// States reachable from `init`, memoised per model like every
    /// reach set [`SymbolicModel::check`] restricts to.
    pub fn reachable(&mut self) -> Bdd {
        let init = self.init();
        self.reachable_from(init)
    }

    /// States reachable from `from` — a frontier-seeded forward fixpoint:
    /// each round images only the states discovered in the previous round,
    /// not the whole accumulated set. Runs maintenance between rounds.
    ///
    /// The answer is memoised per model in two registry roots keyed by
    /// `from`, so every check from the same `I` runs the fixpoint once; a
    /// different `from` recomputes, and adding a partition drops the memo.
    /// `Reach(TRUE)` is TRUE, so that case skips the fixpoint outright.
    pub(crate) fn reachable_from(&mut self, from: Bdd) -> Bdd {
        if let Some((key, reach)) = self.reach_memo {
            if self.mgr.root(key) == from {
                return self.mgr.root(reach);
            }
        }
        self.drop_reach_memo();
        let key = self.mgr.protect(from);
        let total = self.mgr.protect(from);
        if !from.is_true() {
            let front = self.mgr.protect(from);
            loop {
                self.maybe_maintain();
                let frontier = self.mgr.root(front);
                if frontier.is_false() {
                    break;
                }
                let post = self.post_exists(frontier);
                let r = self.mgr.root(total);
                let fresh = self.mgr.diff(post, r);
                let r = self.mgr.or(r, fresh);
                self.mgr.set_root(total, r);
                self.mgr.set_root(front, fresh);
            }
            self.mgr.unprotect(front);
        }
        self.reach_memo = Some((key, total));
        self.mgr.root(total)
    }

    /// The memoised reachable set of the last [`SymbolicModel::reachable`]
    /// or [`SymbolicModel::check`] call, if no partition has been added
    /// since.
    pub fn reachable_memo(&self) -> Option<Bdd> {
        self.reach_memo.map(|(_, reach)| self.mgr.root(reach))
    }

    /// Drop the memoised reachable set, releasing its two roots.
    fn drop_reach_memo(&mut self) {
        if let Some((from, reach)) = self.reach_memo.take() {
            self.mgr.unprotect(from);
            self.mgr.unprotect(reach);
        }
    }

    /// Cube of all current-state variables.
    pub fn cur_cube(&self) -> Bdd {
        self.mgr.root(self.cur_cube)
    }

    /// Cube of all next-state variables.
    pub fn next_cube(&self) -> Bdd {
        self.mgr.root(self.next_cube)
    }

    /// Build a symbolic model from an explicit system: one boolean variable
    /// per atomic proposition, one transition partition containing the
    /// union of the explicit proper transitions (stutter stays implicit).
    /// The one-component case of [`SymbolicModel::from_components`].
    pub fn from_explicit(system: &System) -> SymbolicModel {
        SymbolicModel::from_components(&[system], system.alphabet())
    }

    /// Build the symbolic model of the interleaving composition
    /// `M₁ ∘ M₂ ∘ …` expanded over `union` **without materialising the
    /// product**:
    /// one disjunctive partition per component, each the union of that
    /// component's proper transitions (as current/next cubes over its own
    /// variables) with the frame condition over every foreign variable
    /// left **implicit** in the partition's owned-variable set — the
    /// partition BDDs are `O(component)`, independent of how many foreign
    /// variables the union adds. This is semantically identical to
    /// [`System::compose`]/[`System::expand`] — whose explicit frame
    /// padding enumerates all `2^|Σ*−Σ|` foreign valuations — but stays
    /// polynomial in the component sizes, which is what lets the symbolic
    /// backend take compositions past the explicit-state limit.
    ///
    /// `union` (⊇ every component alphabet, usually
    /// [`cmc_kripke::Alphabet::union_of`] of them) lays out one variable
    /// per proposition in its order; its names no component owns
    /// contribute no moves, only frozen variables, exactly like the
    /// paper's expansion `M ∘ (Σ', I)`.
    pub fn from_components(systems: &[&System], union: &cmc_kripke::Alphabet) -> SymbolicModel {
        let mut m = SymbolicModel::new(union.names().iter().cloned());
        for sys in systems {
            // Union-alphabet variable index of each component proposition.
            // The frame over the complement stays implicit in the
            // partition ([`TransPart`]); only `owned` records it.
            let var_idx = sys.alphabet().embedding(union);
            let cur: Vec<Var> = var_idx.iter().map(|&vi| m.vars[vi].cur).collect();
            let next: Vec<Var> = var_idx.iter().map(|&vi| m.vars[vi].next).collect();
            let part = transition_relation(&mut m.mgr, sys, &cur, &next);
            if !part.is_false() {
                m.add_trans_part_owned(part, var_idx.clone());
            }
        }
        m
    }

    /// Enumerate the model back into an explicit system (for
    /// cross-validation; exponential in the variable count).
    pub fn to_explicit(&mut self) -> System {
        use cmc_kripke::{Alphabet, State};
        let names: Vec<String> = self.vars.iter().map(|v| v.name.clone()).collect();
        let n = names.len();
        assert!(n <= 20, "to_explicit limited to 20 variables");
        let alphabet = Alphabet::new(names);
        let mut out = System::new(alphabet);
        let trans = self.full_trans();
        let vars = self.vars.clone();
        for s_bits in 0u128..(1 << n) {
            for t_bits in 0u128..(1 << n) {
                if s_bits == t_bits {
                    continue; // stutter is implicit in System
                }
                let holds = self.mgr.eval(trans, |v| {
                    // Decode: v is either some cur or next variable.
                    for (i, sv) in vars.iter().enumerate() {
                        if sv.cur == v {
                            return s_bits >> i & 1 == 1;
                        }
                        if sv.next == v {
                            return t_bits >> i & 1 == 1;
                        }
                    }
                    false
                });
                if holds {
                    out.add_transition(State(s_bits), State(t_bits));
                }
            }
        }
        out
    }
}

/// The frame condition `⋀ v' = v` over `(current, next)` variable pairs;
/// over every variable of a model it is the identity (stutter) relation.
pub(crate) fn frame_condition(
    mgr: &mut BddManager,
    pairs: impl IntoIterator<Item = (Var, Var)>,
) -> Bdd {
    let lits: Vec<(Bdd, Bdd)> = pairs
        .into_iter()
        .map(|(c, n)| (mgr.var(c), mgr.var(n)))
        .collect();
    mgr.pairwise_iff(&lits)
}

/// The proper transitions of `system` as a disjunction of minterms, bit
/// `i` of a state encoded by `cur[i]` before the move and `next[i]` after.
pub(crate) fn transition_relation(
    mgr: &mut BddManager,
    system: &System,
    cur: &[Var],
    next: &[Var],
) -> Bdd {
    let mut cubes = Vec::with_capacity(system.proper_transition_count());
    for (s, t) in system.proper_transitions() {
        let lits: Vec<Bdd> = cur
            .iter()
            .zip(next)
            .enumerate()
            .flat_map(|(i, (&c, &n))| [(c, s.contains(i)), (n, t.contains(i))])
            .map(|(v, on)| if on { mgr.var(v) } else { mgr.nvar(v) })
            .collect();
        cubes.push(mgr.and_many(&lits));
    }
    mgr.or_many(&cubes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_kripke::Alphabet;

    fn toggle_system() -> System {
        let mut m = System::new(Alphabet::new(["x"]));
        m.add_transition_named(&[], &["x"]);
        m.add_transition_named(&["x"], &[]);
        m
    }

    #[test]
    fn from_explicit_roundtrips() {
        let sys = toggle_system();
        let mut sm = SymbolicModel::from_explicit(&sys);
        let back = sm.to_explicit();
        assert!(sys.equivalent(&back));
    }

    #[test]
    fn identity_relation_is_stutter() {
        let mut m = SymbolicModel::new(vec!["a".into(), "b".into()]);
        let id = frame_condition(&mut m.mgr, m.vars.iter().map(|v| (v.cur, v.next)));
        // 4 of 16 assignments satisfy a'=a ∧ b'=b.
        assert_eq!(m.mgr_ref().sat_count(id, 4), 4.0);
    }

    #[test]
    fn pre_exists_includes_stutter() {
        let sys = toggle_system();
        let mut sm = SymbolicModel::from_explicit(&sys);
        let x = sm.prop("x").unwrap();
        let pre = sm.pre_exists(x);
        // Both states can reach x (0 -> {x}, and {x} stutters).
        assert!(pre.is_true());
    }

    #[test]
    fn post_exists_follows_transitions() {
        // One-way system: 0 -> {x} only.
        let mut sys = System::new(Alphabet::new(["x"]));
        sys.add_transition_named(&[], &["x"]);
        let mut sm = SymbolicModel::from_explicit(&sys);
        let x = sm.prop("x").unwrap();
        let nx = {
            let m = sm.mgr();
            m.not(x)
        };
        let post = sm.post_exists(nx);
        // From ¬x we can stutter (stay ¬x) or move to x: both states.
        assert!(post.is_true());
        // From x we can only stutter.
        let post_x = sm.post_exists(x);
        assert_eq!(post_x, x);
    }

    #[test]
    fn reachability_fixpoint() {
        let mut sys = System::new(Alphabet::new(["a", "b"]));
        sys.add_transition_named(&[], &["a"]);
        sys.add_transition_named(&["a"], &["a", "b"]);
        let mut sm = SymbolicModel::from_explicit(&sys);
        // init = ∅ state: ¬a ∧ ¬b
        let (a, b) = (sm.prop("a").unwrap(), sm.prop("b").unwrap());
        let init = {
            let m = sm.mgr();
            let na = m.not(a);
            let nb = m.not(b);
            m.and(na, nb)
        };
        sm.set_init(init);
        let reach = sm.reachable();
        // Reachable: ∅, {a}, {a,b} — 3 of 4 states.
        assert_eq!(sm.mgr_ref().sat_count(reach, 4) / 4.0, 3.0);
    }

    #[test]
    fn reachable_agrees_under_forced_maintenance() {
        let mut sys = System::new(Alphabet::new(["a", "b", "c"]));
        sys.add_transition_named(&[], &["a"]);
        sys.add_transition_named(&["a"], &["a", "b"]);
        sys.add_transition_named(&["a", "b"], &["a", "b", "c"]);
        let build = |cfg: MaintenanceConfig| {
            let mut sm = SymbolicModel::from_explicit(&sys);
            let (a, b) = (sm.prop("a").unwrap(), sm.prop("b").unwrap());
            let init = {
                let m = sm.mgr();
                let na = m.not(a);
                let nb = m.not(b);
                m.and(na, nb)
            };
            sm.set_init(init);
            sm.set_maintenance(cfg);
            let r = sm.reachable();
            sm.mgr_ref().sat_count(r, 6)
        };
        let plain = build(MaintenanceConfig::disabled());
        let forced = build(MaintenanceConfig::forced_every(1));
        assert_eq!(plain, forced, "maintenance changed the reachable set");
    }

    #[test]
    fn gc_now_preserves_registered_state() {
        let sys = toggle_system();
        let mut sm = SymbolicModel::from_explicit(&sys);
        let epoch0 = sm.maintenance_epoch();
        let before_parts = sm.trans_parts().len();
        sm.gc_now();
        assert_eq!(sm.maintenance_epoch(), epoch0 + 1);
        assert_eq!(sm.trans_parts().len(), before_parts);
        // Everything registered still works: the model round-trips.
        let back = sm.to_explicit();
        assert!(sys.equivalent(&back));
        assert!(sm.prop("x").is_some());
        assert!(sm.mgr_ref().is_cube(sm.cur_cube()));
    }

    #[test]
    fn frame_condition_selected_vars() {
        let mut m = SymbolicModel::new(vec!["p".into(), "q".into()]);
        let q = m.state_var("q").map(|q| (q.cur, q.next)).unwrap();
        let fr = frame_condition(&mut m.mgr, [q]);
        // q' = q: 8 of 16 assignments.
        assert_eq!(m.mgr_ref().sat_count(fr, 4), 8.0);
    }

    #[test]
    fn props_registry() {
        let mut m = SymbolicModel::new(vec!["p".into()]);
        assert!(m.prop("p").is_some());
        assert!(m.prop("derived").is_none());
        let p = m.prop("p").unwrap();
        let np = {
            let mg = m.mgr();
            mg.not(p)
        };
        m.define_prop("derived", np);
        assert_eq!(m.prop("derived"), Some(np));
        assert_eq!(m.prop_names().count(), 2);
    }
}

#[cfg(test)]
mod from_components_tests {
    use super::*;
    use cmc_kripke::Alphabet;

    fn riser(name: &str) -> System {
        let mut m = System::new(Alphabet::new([name]));
        m.add_transition_named(&[], &[name]);
        m
    }

    /// The partitioned constructor agrees with the explicit product on a
    /// composition small enough to materialise.
    #[test]
    fn matches_explicit_composition() {
        let a = riser("a");
        let mut b = System::new(Alphabet::new(["a", "b"]));
        b.add_transition_named(&["a"], &["a", "b"]); // shares `a` with riser
        b.add_transition_named(&["b"], &[]);
        let composed = a.compose(&b);
        let mut direct = SymbolicModel::from_components(&[&a, &b], composed.alphabet());
        let back = direct.to_explicit();
        assert!(composed.equivalent(&back), "partitioned ≠ explicit product");
    }

    /// Expansion semantics: union propositions no component owns are
    /// frozen, exactly like `System::expand`.
    #[test]
    fn extra_props_match_explicit_expansion() {
        let a = riser("a");
        let extra = Alphabet::new(["p", "q"]);
        let expanded = a.expand(&extra);
        let mut direct = SymbolicModel::from_components(&[&a], &a.alphabet().union(&extra));
        let back = direct.to_explicit();
        assert!(
            expanded.equivalent(&back),
            "partitioned ≠ explicit expansion"
        );
    }

    /// The whole point: a composition whose union alphabet is far past the
    /// explicit limit builds instantly and answers a reachability query.
    #[test]
    fn wide_composition_stays_tractable() {
        let systems: Vec<System> = (0..40).map(|i| riser(&format!("p{i}"))).collect();
        let refs: Vec<&System> = systems.iter().collect();
        let union = Alphabet::union_of(refs.iter().map(|s| s.alphabet()));
        let mut m = SymbolicModel::from_components(&refs, &union);
        assert_eq!(m.num_state_vars(), 40);
        assert_eq!(m.trans_parts().len(), 40);
        // EF-style query: from the all-false state, every variable can rise.
        let p39 = m.prop("p39").unwrap();
        let pre = m.pre_exists(p39);
        // p39's riser move is enabled everywhere p39 is false.
        assert!(pre.is_true());
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use cmc_kripke::{Alphabet, State, System};

    /// The `n`-station token ring as one partition per station: station
    /// `i` owns `{tᵢ, tᵢ₊₁}` and passes the token from `tᵢ` to `tᵢ₊₁`.
    fn ring_model(n: usize) -> SymbolicModel {
        let ring: Vec<System> = (0..n)
            .map(|i| {
                let this = format!("t{i}");
                let next = format!("t{}", (i + 1) % n);
                let mut sys = System::new(Alphabet::new([this.clone(), next.clone()]));
                sys.add_transition_named(&[&this], &[&next]);
                sys
            })
            .collect();
        let refs: Vec<&System> = ring.iter().collect();
        SymbolicModel::from_components(
            &refs,
            &Alphabet::union_of(ring.iter().map(System::alphabet)),
        )
    }

    /// pre_exists (scheduled partitions) and pre_exists_monolithic agree
    /// on random seeded systems — the two images are semantically
    /// identical.
    #[test]
    fn partitioned_and_monolithic_images_agree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let mut sys = System::new(Alphabet::new(["a", "b", "c"]));
            for _ in 0..rng.gen_range(0..12) {
                let s = rng.gen_range(0u128..8);
                let t = rng.gen_range(0u128..8);
                sys.add_transition(State(s), State(t));
            }
            let mut m = SymbolicModel::from_explicit(&sys);
            // A handful of target sets.
            let a = m.prop("a").unwrap();
            let b = m.prop("b").unwrap();
            let sets = [
                a,
                {
                    let g = m.mgr();
                    g.not(b)
                },
                {
                    let g = m.mgr();
                    g.and(a, b)
                },
                cmc_bdd::Bdd::TRUE,
                cmc_bdd::Bdd::FALSE,
            ];
            for s in sets {
                let p = m.pre_exists(s);
                let q = m.pre_exists_monolithic(s);
                assert_eq!(p, q, "images disagree");
            }
        }
    }

    /// With owned-variable partitions (implicit frames), scheduled and
    /// monolithic images agree in both directions, and the Monolithic
    /// image mode routes through the memoised product relation.
    #[test]
    fn owned_partition_images_agree_with_monolithic() {
        let mut m = ring_model(4);
        assert_eq!(m.num_trans_parts(), 4);
        for i in 0..4 {
            assert_eq!(m.part_owned_vars(i).len(), 2, "each station owns 2 vars");
        }
        let t0 = m.prop("t0").unwrap();
        let t2 = m.prop("t2").unwrap();
        let sets = [t0, t2, {
            let g = m.mgr();
            g.or(t0, t2)
        }];
        for s in sets {
            let pre_part = m.pre_exists(s);
            let post_part = m.post_exists(s);
            m.set_image_mode(ImageMode::Monolithic);
            assert_eq!(m.pre_exists(s), pre_part, "pre images disagree");
            assert_eq!(m.post_exists(s), post_part, "post images disagree");
            m.set_image_mode(ImageMode::Scheduled);
        }
    }

    /// The default schedule merges the tiny ring stations into fewer
    /// clusters and still computes images bit-identical to the unmerged
    /// plan in both directions; the schedule is cached and surfaced via
    /// `schedule_stats`. A model plans once: on the 30- and 40-station
    /// rings, neither the safe points of an `EF` fixpoint (under the
    /// default policy, and collecting at every one of them) nor a later
    /// collection changes the plan the first image built.
    #[test]
    fn scheduled_images_agree_and_merge_clusters() {
        let mut m = ring_model(6);
        let t0 = m.prop("t0").unwrap();
        let t3 = m.prop("t3").unwrap();
        let sets = [t0, t3, {
            let g = m.mgr();
            g.or(t0, t3)
        }];
        for s in sets {
            m.set_merging(false);
            let pre_unmerged = m.pre_exists(s);
            let post_unmerged = m.post_exists(s);
            m.set_merging(true);
            assert_eq!(m.pre_exists(s), pre_unmerged, "merged pre disagrees");
            assert_eq!(m.post_exists(s), post_unmerged, "merged post disagrees");
        }
        let stats = m.schedule_stats().expect("schedule was built");
        assert_eq!(stats.clusters_before, 6);
        assert!(
            stats.clusters_after < stats.clusters_before,
            "overlapping 2-var stations must merge ({} -> {})",
            stats.clusters_before,
            stats.clusters_after
        );
        let mut order = stats.order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..stats.clusters_after).collect::<Vec<_>>());
        assert_eq!(stats.replans, 0);

        for n in [30, 40] {
            let mut m = ring_model(n);
            let goal = format!("t{}", n / 2);
            let target = m.prop(&goal).unwrap();
            m.pre_exists(target);
            let first = m.schedule_stats().expect("the first image plans");
            assert!(first.clusters_after < n, "{n} stations: nothing merged");
            let ef = cmc_ctl::parse(&format!("EF {goal}")).unwrap();
            let mut plans = Vec::new();
            m.sat(&ef).unwrap();
            plans.push(m.schedule_stats().unwrap());
            m.set_maintenance(MaintenanceConfig::forced_every(1));
            m.sat(&ef).unwrap();
            assert!(m.mgr_ref().stats().gc_runs > 0, "{n} stations: no GC ran");
            plans.push(m.schedule_stats().unwrap());
            m.gc_now();
            plans.push(m.schedule_stats().unwrap());
            for stats in plans {
                assert_eq!(stats.members, first.members, "{n} stations: re-merged");
                assert_eq!(stats.order, first.order, "{n} stations: re-ordered");
                assert_eq!(stats.replans, 0, "{n} stations: re-planned");
            }
        }
    }

    /// Disabling merging keeps one cluster per partition, and switching
    /// merging or adding a partition invalidates the cached plan.
    #[test]
    fn schedule_config_controls_merging_and_invalidation() {
        let mut m = ring_model(4);
        m.set_merging(false);
        let t0 = m.prop("t0").unwrap();
        let baseline = m.pre_exists_monolithic(t0);
        assert_eq!(m.pre_exists(t0), baseline);
        let stats = m.schedule_stats().unwrap();
        assert_eq!(stats.clusters_after, stats.clusters_before);
        // Merging switched back on → plan dropped until the next image.
        m.set_merging(true);
        assert!(m.schedule_stats().is_none());
        assert_eq!(m.pre_exists(t0), baseline);
        assert!(m.schedule_stats().unwrap().clusters_after < 4);
        // New partition → plan dropped again.
        let stutter = Bdd::TRUE;
        let nothing_owned: Vec<usize> = Vec::new();
        m.add_trans_part_owned(stutter, nothing_owned);
        assert!(m.schedule_stats().is_none());
        assert_eq!(m.pre_exists(t0), baseline, "stutter part adds nothing");
    }

    /// Adding a partition invalidates the memoised monolithic relation.
    #[test]
    fn full_trans_memo_invalidated_by_new_partition() {
        let mut m = SymbolicModel::new(vec!["p".into(), "q".into()]);
        m.set_image_mode(ImageMode::Monolithic);
        let p = m.prop("p").unwrap();
        // No partitions: only the stutter move, pre = S.
        assert_eq!(m.pre_exists(p), p);
        // Add a riser p -> q; its pre-image must show up afterwards.
        let rise = {
            let pv = m.state_var("p").unwrap().clone();
            let qv = m.state_var("q").unwrap().clone();
            let g = m.mgr();
            let pc = g.var(pv.cur);
            let qn = g.var(qv.next);
            let pn = g.nvar(pv.next);
            let both = g.and(qn, pn);
            g.and(pc, both)
        };
        m.add_trans_part_owned(rise, vec![0, 1]);
        let q = m.prop("q").unwrap();
        let pre_q = m.pre_exists(q);
        let covers_p = m.mgr().implies_trivially(p, pre_q);
        assert!(covers_p, "memoised relation went stale");
    }
}
