//! The BDD manager: arena, unique table, computed cache, and core algorithms.

use crate::cache::{ComputedTable, Op, DEFAULT_CACHE_CAPACITY};
use crate::hash::FxHashMap;
use crate::node::{Bdd, Node, Var, TERMINAL_VAR};
use crate::roots::{RootId, Roots};
use crate::stats::BddStats;
use crate::unique::UniqueTable;

/// Entry of [`BddManager::rename`]'s dense variable map for a variable the
/// map leaves alone.
const KEEP: u32 = u32::MAX;

/// Outcome of one [`BddManager::gc`] collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Arena size when the collection started.
    pub nodes_before: usize,
    /// Arena size after compaction (terminals included).
    pub live_nodes: usize,
    /// Nodes reclaimed (`nodes_before - live_nodes`).
    pub reclaimed: usize,
}

/// An ROBDD manager.
///
/// Owns every *live* node in a compact arena. The arena is append-only
/// between collections — handles stay stable and operations stay
/// allocation-free on the hot path — and [`BddManager::gc`] mark-and-sweeps
/// it from the explicit root registry ([`BddManager::protect`]), compacting
/// live nodes and remapping every registered root in place.
///
/// All diagrams produced by one manager share structure via the unique
/// table, so semantic equality of functions is pointer equality of handles.
///
/// # GC safety
///
/// A collection invalidates every unregistered handle. The contract is the
/// one CUDD clients know: any [`Bdd`] that must survive a potential
/// collection point is registered with [`BddManager::protect`] and re-read
/// with [`BddManager::root`] afterwards. The manager itself never collects
/// behind the caller's back — [`BddManager::gc_due`] is advisory and the
/// symbolic layer invokes [`BddManager::gc`] only at fixpoint iteration
/// boundaries where its live set is fully registered.
pub struct BddManager {
    nodes: Vec<Node>,
    unique: UniqueTable,
    cache: ComputedTable,
    roots: Roots,
    num_vars: u32,
    /// Monotone count of nodes ever created (SMV's "BDD nodes allocated").
    total_allocated: usize,
    /// High-water mark of the live arena.
    peak_live: usize,
    gc_runs: u64,
    gc_reclaimed: u64,
    gc_threshold: usize,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Arena size below which [`BddManager::gc_due`] never fires. Small
    /// managers are cheaper to let grow than to collect.
    pub const DEFAULT_GC_THRESHOLD: usize = 1 << 16;

    /// Create an empty manager with the two terminal nodes.
    pub fn new() -> Self {
        let mut nodes = Vec::with_capacity(1 << 12);
        // Slot 0: FALSE terminal, slot 1: TRUE terminal.
        nodes.push(Node {
            var: TERMINAL_VAR,
            low: 0,
            high: 0,
        });
        nodes.push(Node {
            var: TERMINAL_VAR,
            low: 1,
            high: 1,
        });
        BddManager {
            unique: UniqueTable::from_arena(&nodes),
            nodes,
            cache: ComputedTable::new(DEFAULT_CACHE_CAPACITY),
            roots: Roots::default(),
            num_vars: 0,
            total_allocated: 2,
            peak_live: 2,
            gc_runs: 0,
            gc_reclaimed: 0,
            gc_threshold: Self::DEFAULT_GC_THRESHOLD,
        }
    }

    /// Bound the computed table at `slots` slots, rounded down to a power
    /// of two (at least one slot). The table grows towards the bound as
    /// inserts arrive; one already larger shrinks now, keeping one entry
    /// per slot.
    pub fn set_cache_capacity(&mut self, slots: usize) {
        self.cache.set_capacity(slots);
    }

    /// The computed-table bound, in slots (a power of two).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Declare a fresh variable at the bottom of the current order.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Declare `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// The constant TRUE.
    #[inline]
    pub fn tru(&self) -> Bdd {
        Bdd::TRUE
    }

    /// The literal `v`.
    pub fn var(&mut self, v: Var) -> Bdd {
        assert!(v.0 < self.num_vars, "variable {v:?} not declared");
        self.mk(v.0, 0, 1)
    }

    /// The negated literal `¬v`.
    pub fn nvar(&mut self, v: Var) -> Bdd {
        assert!(v.0 < self.num_vars, "variable {v:?} not declared");
        self.mk(v.0, 1, 0)
    }

    /// Hash-consed node constructor applying the ROBDD reduction rules:
    /// one unique-table probe finds the node or the slot for a new one.
    fn mk(&mut self, var: u32, low: u32, high: u32) -> Bdd {
        if low == high {
            return Bdd(low);
        }
        let node = Node { var, low, high };
        let slot = match self.unique.find(&self.nodes, &node) {
            Ok(id) => return Bdd(id),
            Err(slot) => slot,
        };
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("BDD arena full: node ids exhausted");
        self.nodes.push(node);
        self.unique.insert(&self.nodes, slot);
        self.total_allocated += 1;
        if self.nodes.len() > self.peak_live {
            self.peak_live = self.nodes.len();
        }
        Bdd(id)
    }

    #[inline]
    fn node(&self, f: Bdd) -> Node {
        self.nodes[f.0 as usize]
    }

    // ------------------------------------------------------------------
    // Root registry
    // ------------------------------------------------------------------

    /// Register `f` as a GC root; the returned handle survives collections.
    pub fn protect(&mut self, f: Bdd) -> RootId {
        self.roots.protect(f)
    }

    /// Release a root slot (its diagram becomes collectable garbage unless
    /// reachable from another root).
    pub fn unprotect(&mut self, r: RootId) {
        self.roots.unprotect(r);
    }

    /// Current diagram held by a root slot (remapped across collections).
    pub fn root(&self, r: RootId) -> Bdd {
        self.roots.get(r)
    }

    /// Overwrite a root slot in place — the idiom for fixpoint accumulators
    /// that must stay protected while they evolve.
    pub fn set_root(&mut self, r: RootId, f: Bdd) {
        self.roots.set(r, f);
    }

    /// Number of live root slots (leak canary for tests).
    pub fn protected_count(&self) -> usize {
        self.roots.live()
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Should the caller collect at its next safe point? True once the
    /// arena crosses the adaptive threshold (reset to twice the live size
    /// after each collection, i.e. roughly a 50% dead-node ratio).
    pub fn gc_due(&self) -> bool {
        self.nodes.len() >= self.gc_threshold
    }

    /// Override the arena size that makes [`BddManager::gc_due`] fire.
    pub fn set_gc_threshold(&mut self, nodes: usize) {
        self.gc_threshold = nodes.max(2);
    }

    /// Mark-and-sweep the arena from the root registry, compacting live
    /// nodes and remapping every registered root in place.
    ///
    /// Every handle not reachable from the registry is invalidated; the
    /// computed table (whose keys and values are node ids) is remapped in
    /// place so entries over surviving nodes keep memoising across the
    /// collection, and entries touching reclaimed nodes are dropped. The
    /// unique table is rebuilt from the compacted arena, sized to the live
    /// set, so reclaimed memory is actually returned rather than retained
    /// as capacity.
    pub fn gc(&mut self) -> GcStats {
        let before = self.nodes.len();
        let mut mark = vec![false; before];
        mark[0] = true;
        mark[1] = true;
        let mut stack: Vec<u32> = self.roots.iter_ids().collect();
        while let Some(id) = stack.pop() {
            let i = id as usize;
            if mark[i] {
                continue;
            }
            mark[i] = true;
            let n = self.nodes[i];
            stack.push(n.low);
            stack.push(n.high);
        }
        let live = mark.iter().filter(|&&m| m).count();
        // `mk` only ever points a node at already-existing children, so
        // children precede parents in the arena and one ascending pass can
        // both assign new ids and rewrite edges.
        let mut remap = vec![u32::MAX; before];
        let mut new_nodes: Vec<Node> = Vec::with_capacity(live + live / 4);
        for old in 0..before {
            if !mark[old] {
                continue;
            }
            remap[old] = new_nodes.len() as u32;
            let n = self.nodes[old];
            if n.var == TERMINAL_VAR {
                new_nodes.push(n);
            } else {
                new_nodes.push(Node {
                    var: n.var,
                    low: remap[n.low as usize],
                    high: remap[n.high as usize],
                });
            }
        }
        self.unique = UniqueTable::from_arena(&new_nodes);
        self.nodes = new_nodes;
        self.cache.remap(&remap);
        self.roots.remap(&remap);
        let reclaimed = before - self.nodes.len();
        self.gc_runs += 1;
        self.gc_reclaimed += reclaimed as u64;
        // Adapt: don't re-trigger until the arena doubles again (but never
        // drop below whatever floor the caller configured).
        self.gc_threshold = self.gc_threshold.max(2 * self.nodes.len());
        GcStats {
            nodes_before: before,
            live_nodes: self.nodes.len(),
            reclaimed,
        }
    }

    /// Decision variable of the root node (`None` for constants).
    pub fn root_var(&self, f: Bdd) -> Option<Var> {
        if f.is_const() {
            None
        } else {
            Some(Var(self.node(f).var))
        }
    }

    /// Low (else) cofactor of the root. Panics on constants.
    pub fn low(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const());
        Bdd(self.node(f).low)
    }

    /// High (then) cofactor of the root. Panics on constants.
    pub fn high(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const());
        Bdd(self.node(f).high)
    }

    #[inline]
    fn level(&self, f: Bdd) -> u32 {
        self.node(f).var // TERMINAL_VAR for constants sorts below everything
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`. The single primitive every other
    /// binary operation reduces to, following Brace–Rudell–Bryant.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        let key = (Op::Ite, f.0, g.0, h.0);
        if let Some(r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo.0, hi.0);
        self.cache.put(key, r.0);
        r
    }

    /// Shannon cofactors of `f` with respect to the variable at `level`.
    #[inline]
    fn cofactors(&self, f: Bdd, level: u32) -> (Bdd, Bdd) {
        let n = self.node(f);
        if n.var == level {
            (Bdd(n.low), Bdd(n.high))
        } else {
            (f, f)
        }
    }

    /// Negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.ite(f, Bdd::FALSE, Bdd::TRUE)
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Biconditional (XNOR).
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Implication `f ⇒ g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::TRUE)
    }

    /// Set difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// Does `f ⇒ g` hold as a tautology? (No new nodes beyond the ITE.)
    pub fn implies_trivially(&mut self, f: Bdd, g: Bdd) -> bool {
        self.implies(f, g).is_true()
    }

    /// Build the positive cube `v₁ ∧ v₂ ∧ …` for a set of variables.
    ///
    /// Quantifiers take their variable set in this form so that the computed
    /// cache can key on the (hash-consed) cube.
    pub fn cube(&mut self, vars: &[Var]) -> Bdd {
        let mut sorted: Vec<Var> = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // Build bottom-up so every mk call is reduced.
        let mut acc = Bdd::TRUE;
        for v in sorted.into_iter().rev() {
            acc = self.mk(v.0, 0, acc.0);
        }
        acc
    }

    /// Existential quantification `∃ vars. f` (vars given as a positive cube).
    pub fn exists(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        if f.is_const() || cube.is_true() {
            return f;
        }
        debug_assert!(
            self.is_cube(cube),
            "quantifier argument must be a positive cube"
        );
        let key = (Op::Exists, f.0, cube.0, 0);
        if let Some(r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let fv = self.level(f);
        // Skip cube variables above f's top variable.
        let mut c = cube;
        while !c.is_true() && self.level(c) < fv {
            c = Bdd(self.node(c).high);
        }
        let r = if c.is_true() {
            f
        } else {
            let cv = self.level(c);
            let n = self.node(f);
            if n.var == cv {
                // Quantify this level: OR of the cofactors under the rest.
                let rest = Bdd(self.node(c).high);
                let lo = self.exists(Bdd(n.low), rest);
                let hi = self.exists(Bdd(n.high), rest);
                self.or(lo, hi)
            } else {
                let lo = self.exists(Bdd(n.low), c);
                let hi = self.exists(Bdd(n.high), c);
                self.mk(n.var, lo.0, hi.0)
            }
        };
        self.cache.put(key, r.0);
        r
    }

    /// Universal quantification `∀ vars. f`.
    pub fn forall(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        if f.is_const() || cube.is_true() {
            return f;
        }
        let key = (Op::Forall, f.0, cube.0, 0);
        if let Some(r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let nf = self.not(f);
        let ex = self.exists(nf, cube);
        let r = self.not(ex);
        self.cache.put(key, r.0);
        r
    }

    /// Relational product `∃ vars. (f ∧ g)` computed without materialising
    /// the full conjunction — the workhorse of symbolic image computation.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, cube: Bdd) -> Bdd {
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() {
            return self.exists(g, cube);
        }
        if g.is_true() {
            return self.exists(f, cube);
        }
        if cube.is_true() {
            return self.and(f, g);
        }
        // Normalise operand order for the cache (∧ commutes).
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::AndExists, f.0, g.0, cube.0);
        if let Some(r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let top = self.level(f).min(self.level(g));
        let mut c = cube;
        while !c.is_true() && self.level(c) < top {
            c = Bdd(self.node(c).high);
        }
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let r = if !c.is_true() && self.level(c) == top {
            let rest = Bdd(self.node(c).high);
            let lo = self.and_exists(f0, g0, rest);
            if lo.is_true() {
                // Early termination: lo ∨ hi is already TRUE.
                Bdd::TRUE
            } else {
                let hi = self.and_exists(f1, g1, rest);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists(f0, g0, c);
            let hi = self.and_exists(f1, g1, c);
            self.mk(top, lo.0, hi.0)
        };
        self.cache.put(key, r.0);
        r
    }

    /// Is `f` a positive cube (a conjunction of positive literals)?
    pub fn is_cube(&self, mut f: Bdd) -> bool {
        while !f.is_const() {
            let n = self.node(f);
            if n.low != 0 {
                return false;
            }
            f = Bdd(n.high);
        }
        f.is_true()
    }

    /// Rename variables according to `map` (pairs `(from, to)`).
    ///
    /// The mapping must be order-preserving (if `a < b` then `map(a) <
    /// map(b)`) so the diagram can be rebuilt structurally in one pass; the
    /// interleaved current/next frame layout used by the symbolic checker
    /// always satisfies this. Panics otherwise.
    pub fn rename(&mut self, f: Bdd, map: &[(Var, Var)]) -> Bdd {
        // Constants mention no variables, and an empty or identity map
        // renames nothing: return `f` before allocating the variable map
        // and memo table the recursive rebuild needs.
        if f.is_const() || map.iter().all(|&(a, b)| a == b) {
            return f;
        }
        // Dense map, indexed by variable: the new variable, or `KEEP`
        // where `map` leaves a variable alone. Pairs over undeclared
        // variables cannot match a node and are skipped.
        let mut to = vec![KEEP; self.num_vars as usize];
        for &(a, b) in map {
            if let Some(t) = to.get_mut(a.index()) {
                *t = b.0;
            }
        }
        let mut last: Option<(usize, u32)> = None;
        for (a, &b) in to.iter().enumerate().filter(|&(_, &b)| b != KEEP) {
            if let Some(prev) = last {
                assert!(
                    prev.1 < b,
                    "rename map must be order-preserving: {prev:?} then {:?}",
                    (a, b)
                );
            }
            last = Some((a, b));
        }
        let mut memo: FxHashMap<u32, u32> = FxHashMap::default();
        self.rename_rec(f, &to, &mut memo)
    }

    fn rename_rec(&mut self, f: Bdd, to: &[u32], memo: &mut FxHashMap<u32, u32>) -> Bdd {
        if f.is_const() {
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return Bdd(r);
        }
        let n = self.node(f);
        let lo = self.rename_rec(Bdd(n.low), to, memo);
        let hi = self.rename_rec(Bdd(n.high), to, memo);
        let var = match to[n.var as usize] {
            KEEP => n.var,
            renamed => renamed,
        };
        let r = self.mk(var, lo.0, hi.0);
        memo.insert(f.0, r.0);
        r
    }

    /// Restrict (cofactor) `f` by `var := val`.
    pub fn restrict(&mut self, f: Bdd, var: Var, val: bool) -> Bdd {
        let lit = if val { self.var(var) } else { self.nvar(var) };
        let conj = self.and(f, lit);
        let cube = self.cube(&[var]);
        self.exists(conj, cube)
    }

    /// The set of variables `f` depends on, in order.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut seen = crate::hash::FxHashSet::default();
        let mut vars = crate::hash::FxHashSet::default();
        let mut stack = vec![f.0];
        while let Some(id) = stack.pop() {
            if id < 2 || !seen.insert(id) {
                continue;
            }
            let n = self.nodes[id as usize];
            vars.insert(n.var);
            stack.push(n.low);
            stack.push(n.high);
        }
        let mut out: Vec<Var> = vars.into_iter().map(Var).collect();
        out.sort_unstable();
        out
    }

    /// Number of decision nodes reachable from `f` (excluding terminals).
    pub fn node_count(&self, f: Bdd) -> usize {
        let mut seen = crate::hash::FxHashSet::default();
        let mut stack = vec![f.0];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if id < 2 || !seen.insert(id) {
                continue;
            }
            count += 1;
            let n = self.nodes[id as usize];
            stack.push(n.low);
            stack.push(n.high);
        }
        count
    }

    /// Shared node count of a set of diagrams (counted once across all).
    pub fn node_count_many(&self, fs: &[Bdd]) -> usize {
        let mut seen = crate::hash::FxHashSet::default();
        let mut stack: Vec<u32> = fs.iter().map(|f| f.0).collect();
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if id < 2 || !seen.insert(id) {
                continue;
            }
            count += 1;
            let n = self.nodes[id as usize];
            stack.push(n.low);
            stack.push(n.high);
        }
        count
    }

    /// Evaluate `f` under a total assignment given as a closure.
    pub fn eval(&self, f: Bdd, assignment: impl Fn(Var) -> bool) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            cur = if assignment(Var(n.var)) {
                Bdd(n.high)
            } else {
                Bdd(n.low)
            };
        }
        cur.is_true()
    }

    /// Snapshot of resource statistics (mirrors SMV's `resources used:`).
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes_allocated: self.total_allocated,
            live_nodes: self.nodes.len(),
            peak_live_nodes: self.peak_live,
            bytes_allocated: self.nodes.capacity() * std::mem::size_of::<Node>()
                + self.unique.capacity_bytes()
                + self.cache.capacity_bytes()
                + self.roots.capacity_bytes(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            and_exists_hits: self.cache.and_exists_hits(),
            and_exists_misses: self.cache.and_exists_misses(),
            gc_runs: self.gc_runs,
            gc_reclaimed: self.gc_reclaimed,
            variables: self.num_vars as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (BddManager, Vec<Bdd>) {
        let mut m = BddManager::new();
        let vars = m.new_vars(n);
        let lits = vars.iter().map(|&v| m.var(v)).collect();
        (m, lits)
    }

    #[test]
    fn terminal_identities() {
        let (mut m, l) = setup(1);
        let x = l[0];
        assert_eq!(m.and(x, Bdd::TRUE), x);
        assert_eq!(m.and(x, Bdd::FALSE), Bdd::FALSE);
        assert_eq!(m.or(x, Bdd::FALSE), x);
        assert_eq!(m.or(x, Bdd::TRUE), Bdd::TRUE);
        let nx = m.not(x);
        assert_eq!(m.not(nx), x);
        assert_eq!(m.and(x, nx), Bdd::FALSE);
        assert_eq!(m.or(x, nx), Bdd::TRUE);
    }

    #[test]
    fn hash_consing_gives_pointer_equality() {
        let (mut m, l) = setup(2);
        let a1 = m.and(l[0], l[1]);
        let a2 = m.and(l[1], l[0]);
        assert_eq!(a1, a2, "∧ must be canonical regardless of operand order");
        let via_ite = m.ite(l[0], l[1], Bdd::FALSE);
        assert_eq!(a1, via_ite);
    }

    #[test]
    fn de_morgan() {
        let (mut m, l) = setup(2);
        let conj = m.and(l[0], l[1]);
        let lhs = m.not(conj);
        let n0 = m.not(l[0]);
        let n1 = m.not(l[1]);
        let rhs = m.or(n0, n1);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn xor_iff_duality() {
        let (mut m, l) = setup(2);
        let x = m.xor(l[0], l[1]);
        let e = m.iff(l[0], l[1]);
        let ne = m.not(e);
        assert_eq!(x, ne);
    }

    #[test]
    fn cube_structure() {
        let (mut m, _) = setup(3);
        let c = m.cube(&[Var(2), Var(0)]);
        assert!(m.is_cube(c));
        assert_eq!(m.support(c), vec![Var(0), Var(2)]);
        // Duplicates collapse.
        let c2 = m.cube(&[Var(0), Var(2), Var(0)]);
        assert_eq!(c, c2);
        assert!(m.is_cube(Bdd::TRUE));
        assert!(!m.is_cube(Bdd::FALSE));
        let disj = {
            let a = m.var(Var(0));
            let b = m.var(Var(1));
            m.or(a, b)
        };
        assert!(!m.is_cube(disj));
    }

    #[test]
    fn exists_quantifies_away_support() {
        let (mut m, l) = setup(3);
        let f = {
            let t = m.and(l[0], l[1]);
            m.or(t, l[2])
        };
        let cube = m.cube(&[Var(0)]);
        let ex = m.exists(f, cube);
        // ∃x0. (x0∧x1 ∨ x2) = x1 ∨ x2
        let expect = m.or(l[1], l[2]);
        assert_eq!(ex, expect);
        assert!(!m.support(ex).contains(&Var(0)));
    }

    #[test]
    fn forall_is_dual_of_exists() {
        let (mut m, l) = setup(2);
        let f = m.or(l[0], l[1]);
        let cube = m.cube(&[Var(0)]);
        // ∀x0. (x0 ∨ x1) = x1
        assert_eq!(m.forall(f, cube), l[1]);
        // ∃x0. (x0 ∨ x1) = true
        assert_eq!(m.exists(f, cube), Bdd::TRUE);
    }

    #[test]
    fn and_exists_equals_composed() {
        let (mut m, l) = setup(4);
        let f = {
            let t = m.xor(l[0], l[1]);
            m.or(t, l[3])
        };
        let g = {
            let t = m.and(l[1], l[2]);
            m.implies(l[0], t)
        };
        let cube = m.cube(&[Var(1), Var(2)]);
        let direct = m.and_exists(f, g, cube);
        let conj = m.and(f, g);
        let composed = m.exists(conj, cube);
        assert_eq!(direct, composed);
    }

    #[test]
    fn rename_shifts_frames() {
        let mut m = BddManager::new();
        // Interleaved frames: current at even, next at odd.
        let vs = m.new_vars(4);
        let f = {
            let a = m.var(vs[0]);
            let b = m.var(vs[2]);
            m.and(a, b)
        };
        let map = [(vs[0], vs[1]), (vs[2], vs[3])];
        let g = m.rename(f, &map);
        assert_eq!(m.support(g), vec![vs[1], vs[3]]);
        // Renaming back round-trips.
        let back = [(vs[1], vs[0]), (vs[3], vs[2])];
        assert_eq!(m.rename(g, &back), f);
    }

    #[test]
    fn rename_identity_and_empty_maps_are_noops() {
        let mut m = BddManager::new();
        let vs = m.new_vars(3);
        let f = {
            let a = m.var(vs[0]);
            let b = m.nvar(vs[2]);
            m.and(a, b)
        };
        let before = m.stats().nodes_allocated;
        assert_eq!(m.rename(f, &[]), f);
        let identity = [(vs[0], vs[0]), (vs[1], vs[1]), (vs[2], vs[2])];
        assert_eq!(m.rename(f, &identity), f);
        assert_eq!(m.rename(Bdd::TRUE, &[(vs[0], vs[1])]), Bdd::TRUE);
        assert_eq!(m.rename(Bdd::FALSE, &[(vs[0], vs[1])]), Bdd::FALSE);
        // The fast path allocates no nodes (and rebuilds no tables).
        assert_eq!(m.stats().nodes_allocated, before);
    }

    #[test]
    #[should_panic(expected = "order-preserving")]
    fn rename_rejects_non_monotone_map() {
        let mut m = BddManager::new();
        let vs = m.new_vars(2);
        let f = m.var(vs[0]);
        let _ = m.rename(f, &[(vs[0], vs[1]), (vs[1], vs[0])]);
    }

    #[test]
    fn restrict_cofactors() {
        let (mut m, l) = setup(2);
        let f = m.ite(l[0], l[1], Bdd::FALSE); // x0 ∧ x1
        assert_eq!(m.restrict(f, Var(0), true), l[1]);
        assert_eq!(m.restrict(f, Var(0), false), Bdd::FALSE);
    }

    #[test]
    fn eval_follows_paths() {
        let (mut m, l) = setup(3);
        let f = {
            let t = m.and(l[0], l[1]);
            m.or(t, l[2])
        };
        assert!(m.eval(f, |v| v.0 != 2)); // x0=1 x1=1 x2=0
        assert!(!m.eval(f, |_| false));
        assert!(m.eval(f, |v| v.0 == 2));
    }

    #[test]
    fn node_counts() {
        let (mut m, l) = setup(3);
        assert_eq!(m.node_count(Bdd::TRUE), 0);
        assert_eq!(m.node_count(l[0]), 1);
        let f = {
            let t = m.and(l[0], l[1]);
            m.and(t, l[2])
        };
        assert_eq!(m.node_count(f), 3);
        // Shared counting across multiple roots.
        let g = m.and(l[0], l[1]);
        // f has 3 nodes; g shares both of its nodes with f's top layers.
        assert_eq!(m.node_count_many(&[f, g]), 5);
        assert!(m.node_count_many(&[f, g]) <= m.node_count(f) + m.node_count(g));
    }

    #[test]
    fn stats_track_allocation() {
        let (mut m, l) = setup(4);
        let before = m.stats().nodes_allocated;
        let mut acc = Bdd::TRUE;
        for &x in &l {
            acc = m.and(acc, x);
        }
        let after = m.stats().nodes_allocated;
        assert!(after > before);
        assert!(m.stats().bytes_allocated > 0);
    }

    /// Exhaustive 3-variable equivalence against truth tables for a nest of
    /// operations — guards the ITE terminal cases.
    #[test]
    fn exhaustive_truth_tables_3vars() {
        let (mut m, l) = setup(3);
        let f = {
            let a = m.xor(l[0], l[1]);
            let b = m.implies(l[1], l[2]);
            let c = m.and(a, b);
            let d = m.iff(l[0], l[2]);
            m.or(c, d)
        };
        for bits in 0u32..8 {
            let assign = |v: Var| bits >> v.0 & 1 == 1;
            let x0 = assign(Var(0));
            let x1 = assign(Var(1));
            let x2 = assign(Var(2));
            let expect = ((x0 ^ x1) && (!x1 || x2)) || (x0 == x2);
            assert_eq!(m.eval(f, assign), expect, "bits={bits:03b}");
        }
    }

    /// A nest of functions plus a pile of garbage, for GC tests.
    fn build_with_garbage(n: usize) -> (BddManager, Bdd) {
        let (mut m, l) = setup(n);
        let mut keep = Bdd::TRUE;
        for i in 0..n - 1 {
            let e = m.iff(l[i], l[i + 1]);
            keep = m.and(keep, e);
        }
        // Garbage: xor chains that nothing will protect.
        for i in 0..n {
            let mut acc = l[i];
            for &x in &l {
                acc = m.xor(acc, x);
                let _ = m.implies(acc, keep);
            }
        }
        (m, keep)
    }

    #[test]
    fn gc_collects_unrooted_nodes_and_preserves_roots() {
        let (mut m, keep) = build_with_garbage(6);
        let before = m.stats().live_nodes;
        let truth: Vec<bool> = (0u32..64)
            .map(|bits| m.eval(keep, |v| bits >> v.0 & 1 == 1))
            .collect();
        let r = m.protect(keep);
        let gc = m.gc();
        assert_eq!(gc.nodes_before, before);
        assert!(gc.reclaimed > 0, "garbage should be reclaimed");
        assert_eq!(gc.live_nodes, m.stats().live_nodes);
        assert!(m.stats().live_nodes < before);
        assert_eq!(m.stats().gc_runs, 1);
        assert_eq!(m.stats().gc_reclaimed, gc.reclaimed as u64);
        // The protected function survives with its semantics intact (its
        // handle, read back through the registry, was remapped).
        let keep = m.root(r);
        for (bits, &expect) in truth.iter().enumerate() {
            assert_eq!(m.eval(keep, |v| bits as u32 >> v.0 & 1 == 1), expect);
        }
        m.unprotect(r);
    }

    #[test]
    fn gc_rebuilds_a_canonical_unique_table() {
        let (mut m, keep) = build_with_garbage(5);
        let r = m.protect(keep);
        m.gc();
        let keep = m.root(r);
        // Hash consing still canonicalises: recomputing the kept function
        // from scratch lands on the same compacted nodes.
        let l: Vec<Bdd> = (0..5).map(|i| m.var(Var(i))).collect();
        let mut again = Bdd::TRUE;
        for i in 0..4 {
            let e = m.iff(l[i], l[i + 1]);
            again = m.and(again, e);
        }
        assert_eq!(again, keep);
        m.unprotect(r);
    }

    #[test]
    fn gc_with_no_roots_reclaims_everything() {
        let (mut m, _) = build_with_garbage(6);
        m.gc();
        assert_eq!(m.stats().live_nodes, 2, "only terminals survive");
        // The manager remains usable.
        let v = m.var(Var(0));
        let nv = m.nvar(Var(0));
        assert_eq!(m.and(v, nv), Bdd::FALSE);
    }

    #[test]
    fn gc_shrinks_bytes_and_monotone_counters_keep_counting() {
        let (mut m, _) = build_with_garbage(8);
        let s0 = m.stats();
        m.gc();
        let s1 = m.stats();
        assert!(
            s1.bytes_allocated < s0.bytes_allocated,
            "right-sized tables must return memory: {} -> {}",
            s0.bytes_allocated,
            s1.bytes_allocated
        );
        // SMV's "BDD nodes allocated" is cumulative; peak tracks the
        // high-water mark from before the collection.
        assert_eq!(s1.nodes_allocated, s0.nodes_allocated);
        assert_eq!(s1.peak_live_nodes, s0.peak_live_nodes);
        assert!(s1.peak_live_nodes >= s0.live_nodes);
    }

    #[test]
    fn gc_threshold_adapts() {
        let mut m = BddManager::new();
        m.set_gc_threshold(4);
        let vs = m.new_vars(8);
        for &v in &vs {
            m.var(v);
        }
        assert!(m.gc_due());
        let keep = {
            let a = m.var(vs[0]);
            let b = m.var(vs[1]);
            m.and(a, b)
        };
        let r = m.protect(keep);
        m.gc();
        // Threshold ratchets to 2× live — not due immediately after.
        assert!(!m.gc_due());
        m.unprotect(r);
    }

    #[test]
    fn set_root_protects_evolving_accumulator() {
        let (mut m, l) = setup(4);
        let r = m.protect(l[0]);
        for i in 1..4u32 {
            // Unprotected literal nodes may have been collected by the
            // previous round's gc — always re-derive handles after one.
            let acc = m.root(r);
            let x = m.var(Var(i));
            let acc = m.or(acc, x);
            m.set_root(r, acc);
            m.gc();
        }
        let acc = m.root(r);
        assert!(m.eval(acc, |v| v == Var(3)));
        assert!(!m.eval(acc, |_| false));
        m.unprotect(r);
        assert_eq!(m.protected_count(), 0);
    }

    /// Collection remaps the computed table instead of flushing it:
    /// redoing an operation over surviving nodes must be pure hits.
    #[test]
    fn computed_table_survives_collection() {
        let mut m = BddManager::new();
        let vs = m.new_vars(8);
        let mut acc = Bdd::TRUE;
        for w in vs.windows(2) {
            let a = m.var(w[0]);
            let b = m.var(w[1]);
            let e = m.iff(a, b);
            acc = m.and(acc, e);
        }
        let ra = m.protect(acc);
        let cube = m.cube(&[vs[0]]);
        let rc = m.protect(cube);
        let ex = m.exists(acc, cube);
        let re = m.protect(ex);
        // Unrooted garbage so the sweep actually moves node ids.
        for w in vs.windows(3) {
            let a = m.var(w[0]);
            let c = m.var(w[2]);
            let _ = m.xor(a, c);
        }
        let reclaimed = m.gc().reclaimed;
        assert!(reclaimed > 0, "the sweep found nothing to move ids over");
        let acc = m.root(ra);
        let cube = m.root(rc);
        let ex = m.root(re);
        let misses_before = m.stats().cache_misses;
        let again = m.exists(acc, cube);
        assert_eq!(again, ex);
        assert_eq!(
            m.stats().cache_misses,
            misses_before,
            "the remapped top-level entry must answer without recomputation"
        );
        m.unprotect(ra);
        m.unprotect(rc);
        m.unprotect(re);
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let mut m = BddManager::new();
        m.set_cache_capacity(64);
        let vs = m.new_vars(10);
        let mut acc = Bdd::TRUE;
        for w in vs.windows(2) {
            let a = m.var(w[0]);
            let b = m.var(w[1]);
            let e = m.iff(a, b);
            acc = m.and(acc, e);
        }
        let nacc = m.not(acc);
        assert_eq!(m.and(acc, nacc), Bdd::FALSE);
        assert_eq!(m.or(acc, nacc), Bdd::TRUE);
        let s = m.stats();
        assert!(
            s.cache_evictions > 0,
            "a 64-slot cache must evict under this load"
        );
    }

    /// The comparator `⋀ (aᵢ ⇔ bᵢ)` over `k` pairs is linear in `k` under
    /// the interleaved order `a₀ b₀ a₁ b₁ …` and exponential under the
    /// separated order `a₀ … a_{k-1} b₀ … b_{k-1}`.
    #[test]
    fn interleaved_order_is_linear_separated_is_exponential() {
        let comparator = |k: usize, separated: bool| {
            let mut m = BddManager::new();
            let vars = m.new_vars(2 * k);
            let mut acc = Bdd::TRUE;
            for i in 0..k {
                let (a, b) = if separated {
                    (vars[i], vars[k + i])
                } else {
                    (vars[2 * i], vars[2 * i + 1])
                };
                let (la, lb) = (m.var(a), m.var(b));
                let eq = m.iff(la, lb);
                acc = m.and(acc, eq);
            }
            m.node_count(acc)
        };
        let lin = comparator(5, false);
        let exp = comparator(5, true);
        assert!(lin <= 3 * 5 + 2, "interleaved should be linear, got {lin}");
        assert!(
            exp > 2 * lin,
            "separated should blow up, got {exp} vs {lin}"
        );
    }
}
