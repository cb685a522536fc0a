//! Witness and counterexample paths for the explicit-state checker.
//!
//! For a failed universal property the user needs to see *why*: a concrete
//! execution. This module extracts
//!
//! * witness paths for `EF`/`EU` (a finite path reaching the target),
//! * witness lassos for `EG`, plain or fair (a path into a cycle that
//!   stays in the set),
//!
//! so a counterexample to `AG p` is an `E[true U ¬p]` witness and one to
//! `AF p` an `EG ¬p` lasso, mirroring what SMV prints under "as
//! demonstrated by the following execution sequence".

use crate::ast::Formula;
use crate::checker::{CheckError, Checker};
use crate::stateset::StateSet;
use cmc_kripke::{State, System};
use std::collections::BTreeMap;
use std::fmt;

/// A finite witness: either a plain path or a lasso (path + cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessPath {
    /// The stem: consecutive states under the transition relation.
    pub stem: Vec<State>,
    /// For lassos, the cycle states (first cycle state repeats after the
    /// last); empty for plain reachability witnesses.
    pub cycle: Vec<State>,
}

impl WitnessPath {
    /// Total number of distinct states listed.
    pub fn len(&self) -> usize {
        self.stem.len() + self.cycle.len()
    }

    /// Is the witness empty (should not happen for successful extraction)?
    pub fn is_empty(&self) -> bool {
        self.stem.is_empty() && self.cycle.is_empty()
    }

    /// Render with an alphabet, SMV-trace style.
    pub fn display<'a>(&'a self, system: &'a System) -> WitnessDisplay<'a> {
        WitnessDisplay {
            witness: self,
            system,
        }
    }

    /// Validate that every consecutive pair is a transition of `system`
    /// and the cycle closes. Used by tests; cheap enough to debug-assert.
    pub fn is_valid(&self, system: &System) -> bool {
        let all: Vec<State> = self.stem.iter().chain(self.cycle.iter()).copied().collect();
        for w in all.windows(2) {
            if !system.has_transition(w[0], w[1]) {
                return false;
            }
        }
        if let (Some(&last), Some(&first)) = (self.cycle.last(), self.cycle.first()) {
            if !system.has_transition(last, first) {
                return false;
            }
        }
        !self.is_empty()
    }

    /// All listed states, stem then cycle, in path order.
    pub fn states(&self) -> impl Iterator<Item = State> + '_ {
        self.stem.iter().chain(self.cycle.iter()).copied()
    }

    /// The path's first state (the one that must satisfy `I`).
    pub fn start(&self) -> Option<State> {
        self.states().next()
    }

    /// Does every listed state satisfy the propositional formula `f`?
    pub fn all_satisfy(&self, system: &System, f: &Formula) -> bool {
        self.states().all(|s| f.eval_in_state(system.alphabet(), s))
    }

    /// Does some *cycle* state satisfy the propositional constraint `c`?
    /// (On a lasso this is exactly "`c` holds infinitely often".) Plain
    /// paths stutter their last state forever, so they are checked there.
    pub fn cycle_satisfies(&self, system: &System, c: &Formula) -> bool {
        let al = system.alphabet();
        if self.cycle.is_empty() {
            self.stem.last().is_some_and(|s| c.eval_in_state(al, *s))
        } else {
            self.cycle.iter().any(|s| c.eval_in_state(al, *s))
        }
    }
}

/// Pretty-printer for witnesses.
pub struct WitnessDisplay<'a> {
    witness: &'a WitnessPath,
    system: &'a System,
}

impl fmt::Display for WitnessDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let al = self.system.alphabet();
        for (i, s) in self.witness.stem.iter().enumerate() {
            writeln!(f, "  state {}: {}", i + 1, s.display(al))?;
        }
        if !self.witness.cycle.is_empty() {
            writeln!(f, "  -- loop starts here --")?;
            for (i, s) in self.witness.cycle.iter().enumerate() {
                writeln!(
                    f,
                    "  state {}: {}",
                    self.witness.stem.len() + i + 1,
                    s.display(al)
                )?;
            }
        }
        Ok(())
    }
}

impl Checker {
    /// Map a path of kernel indices to dense [`State`]s. `None` when the
    /// space is too wide for `State` patterns (reachable mode past 128
    /// propositions) — verdicts still stand, but traces are unavailable.
    fn states_of_indices(&self, idxs: &[usize]) -> Option<Vec<State>> {
        idxs.iter().map(|&i| self.state_at(i)).collect()
    }

    /// Reconstruct root→`last` from a BFS parent map (roots are their own
    /// parent), then append nothing: `last` must already be in the map.
    fn unwind(parent: &BTreeMap<usize, usize>, last: usize) -> Vec<usize> {
        let mut path = vec![last];
        let mut cur = last;
        loop {
            let p = parent[&cur];
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Witness for `s₀ ⊨ E[f U g]`: a finite `f`-path from a state in
    /// `from` to a `g`-state.
    pub fn witness_eu(
        &self,
        from: &StateSet,
        f: &Formula,
        g: &Formula,
    ) -> Result<Option<WitnessPath>, CheckError> {
        let sat_f = self.sat(f)?;
        let sat_g = self.sat(g)?;
        Ok(self
            .shortest_path(from.iter_indices(), &sat_f, &sat_g)
            .and_then(|path| self.states_of_indices(&path))
            .map(|stem| WitnessPath {
                stem,
                cycle: vec![],
            }))
    }

    /// Witness for `EG f` from `from`: a lasso whose every state satisfies
    /// `f`. Exploits reflexivity: any `f`-state inside `sat(EG f)` can
    /// stutter, so the minimal lasso is a self-loop; we still prefer a
    /// proper cycle when one exists within the EG set.
    pub fn witness_eg(
        &self,
        from: &StateSet,
        f: &Formula,
    ) -> Result<Option<WitnessPath>, CheckError> {
        let eg = self.sat(&f.clone().eg())?;
        let mut sources = from.clone();
        sources.intersect_with(&eg);
        let Some(start) = sources.iter_indices().next() else {
            return Ok(None);
        };
        // Walk within the EG set until a state repeats.
        let mut order: Vec<usize> = vec![start];
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
        seen.insert(start, 0);
        let mut cur = start;
        loop {
            // Prefer a proper successor inside EG; fall back to stutter.
            let next = self
                .csr()
                .successors(cur)
                .iter()
                .map(|&t| t as usize)
                .find(|&t| eg.contains_index(t))
                .unwrap_or(cur);
            if let Some(&idx) = seen.get(&next) {
                let stem = match self.states_of_indices(&order[..idx]) {
                    Some(stem) => stem,
                    None => return Ok(None),
                };
                let cycle = match self.states_of_indices(&order[idx..]) {
                    Some(cycle) => cycle,
                    None => return Ok(None),
                };
                return Ok(Some(WitnessPath { stem, cycle }));
            }
            seen.insert(next, order.len());
            order.push(next);
            cur = next;
        }
    }

    /// Witness for fair `EG f` from `from`: a lasso whose every state
    /// satisfies `f` *and* whose cycle visits every fairness constraint.
    ///
    /// Works entirely inside `W = sat_fair(EG f)`: by the Emerson–Lei
    /// fixpoint, every state of `W` reaches (within `W`) a state of
    /// `W ∩ Fᵢ` for each constraint, so chasing the constraints
    /// round-robin must eventually revisit a `(state, phase)` pair — the
    /// segment between the two visits passes every `Fᵢ` and closes a
    /// genuinely fair cycle.
    pub fn witness_eg_fair(
        &self,
        from: &StateSet,
        f: &Formula,
        fairness: &[Formula],
    ) -> Result<Option<WitnessPath>, CheckError> {
        let cons: Vec<&Formula> = fairness.iter().filter(|c| **c != Formula::True).collect();
        if cons.is_empty() {
            return self.witness_eg(from, f);
        }
        let w = self.sat_fair(&f.clone().eg(), fairness)?;
        let mut sources = from.clone();
        sources.intersect_with(&w);
        let Some(start) = sources.iter_indices().next() else {
            return Ok(None);
        };
        // Targets per phase: fair-EG states satisfying the constraint.
        let targets: Vec<StateSet> = cons
            .iter()
            .map(|c| {
                self.sat(c).map(|mut s| {
                    s.intersect_with(&w);
                    s
                })
            })
            .collect::<Result<_, _>>()?;

        let mut order: Vec<usize> = vec![start];
        let mut visited: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut cur = start;
        let mut phase = 0usize;
        loop {
            if let Some(&idx) = visited.get(&(cur, phase)) {
                // order[idx] == cur == order.last(): drop the duplicate
                // tail state so the cycle lists each state once.
                let stem = match self.states_of_indices(&order[..idx]) {
                    Some(stem) => stem,
                    None => return Ok(None),
                };
                let mut cycle = match self.states_of_indices(&order[idx..order.len() - 1]) {
                    Some(cycle) => cycle,
                    None => return Ok(None),
                };
                if cycle.is_empty() {
                    match self.state_at(cur) {
                        Some(s) => cycle.push(s), // pure stutter lasso
                        None => return Ok(None),
                    }
                }
                return Ok(Some(WitnessPath { stem, cycle }));
            }
            visited.insert((cur, phase), order.len() - 1);
            let segment = self
                .shortest_path([cur], &w, &targets[phase])
                .expect("fair-EG fixpoint guarantees every constraint is reachable in W");
            order.extend_from_slice(&segment[1..]);
            cur = *segment.last().expect("shortest_path returns non-empty");
            phase = (phase + 1) % cons.len();
        }
    }

    /// A shortest index path from some state of `sources` to a state of
    /// `targets`, every state before the last in `through` (stutter-free
    /// BFS; the first source that is already a target is a one-state
    /// path). `None` if unreachable.
    fn shortest_path(
        &self,
        sources: impl IntoIterator<Item = usize>,
        through: &StateSet,
        targets: &StateSet,
    ) -> Option<Vec<usize>> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for i in sources {
            if targets.contains_index(i) {
                return Some(vec![i]);
            }
            if through.contains_index(i) {
                parent.insert(i, i);
                queue.push_back(i);
            }
        }
        while let Some(s) = queue.pop_front() {
            for &t in self.csr().successors(s) {
                let t = t as usize;
                if parent.contains_key(&t) {
                    continue;
                }
                if targets.contains_index(t) {
                    parent.insert(t, s);
                    return Some(Self::unwind(&parent, t));
                }
                if through.contains_index(t) {
                    parent.insert(t, s);
                    queue.push_back(t);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use cmc_kripke::Alphabet;

    fn counter() -> System {
        let mut m = System::new(Alphabet::new(["b0", "b1"]));
        m.add_transition_named(&[], &["b0"]);
        m.add_transition_named(&["b0"], &["b1"]);
        m.add_transition_named(&["b1"], &["b0", "b1"]);
        m.add_transition_named(&["b0", "b1"], &[]);
        m
    }

    fn set_of(checker: &Checker, text: &str) -> StateSet {
        checker.sat(&parse(text).unwrap()).unwrap()
    }

    #[test]
    fn shortest_path_on_cycle() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "!b0 & !b1");
        let to = parse("b0 & b1").unwrap();
        let w = c.witness_eu(&from, &Formula::True, &to).unwrap().unwrap();
        assert_eq!(w.stem.len(), 4); // 00 01 10 11
        assert!(w.cycle.is_empty());
        assert!(w.is_valid(&m));
    }

    #[test]
    fn trivial_path_when_source_in_target() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let s = set_of(&c, "b0");
        let w = c
            .witness_eu(&s, &Formula::True, &parse("b0").unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn unreachable_returns_none() {
        // One-way: x can only be set.
        let mut m = System::new(Alphabet::new(["x"]));
        m.add_transition_named(&[], &["x"]);
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "x");
        let to = parse("!x").unwrap();
        assert!(c.witness_eu(&from, &Formula::True, &to).unwrap().is_none());
    }

    #[test]
    fn eu_witness_stays_in_f() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "!b0 & !b1");
        let f = parse("!(b0 & b1)").unwrap();
        let g = parse("b0 & b1").unwrap();
        let w = c.witness_eu(&from, &f, &g).unwrap().unwrap();
        assert!(w.is_valid(&m));
        // All but the last state satisfy f.
        let al = m.alphabet();
        for s in &w.stem[..w.stem.len() - 1] {
            assert!(f.eval_in_state(al, *s));
        }
        assert!(g.eval_in_state(al, *w.stem.last().unwrap()));
    }

    #[test]
    fn eu_witness_none_when_unreachable_through_f() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "!b0 & !b1");
        // Must reach 11 while avoiding b0 — impossible on this counter.
        let f = parse("!b0").unwrap();
        let g = parse("b0 & b1").unwrap();
        assert!(c.witness_eu(&from, &f, &g).unwrap().is_none());
    }

    #[test]
    fn eg_witness_is_a_lasso() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "b0 & !b1");
        let w = c.witness_eg(&from, &parse("b0").unwrap()).unwrap().unwrap();
        assert!(!w.cycle.is_empty());
        assert!(w.is_valid(&m));
        let al = m.alphabet();
        for s in w.stem.iter().chain(&w.cycle) {
            assert!(s.contains_named(al, "b0"));
        }
    }

    /// A counterexample to `AG p` is an `E[true U ¬p]` witness.
    #[test]
    fn ag_counterexample_reaches_violation() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "!b0 & !b1");
        let p = parse("!b1").unwrap();
        let w = c
            .witness_eu(&from, &Formula::True, &p.not())
            .unwrap()
            .unwrap();
        let last = *w.stem.last().unwrap();
        assert!(last.contains_named(m.alphabet(), "b1"));
        assert!(w.is_valid(&m));
    }

    /// A counterexample to `AF p` is an `EG ¬p` lasso.
    #[test]
    fn af_counterexample_is_avoiding_lasso() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "!b0 & !b1");
        // AF (b0 & b1) fails by stuttering; the lasso must avoid 11.
        let p = parse("b0 & b1").unwrap();
        let w = c.witness_eg(&from, &p.not()).unwrap().unwrap();
        assert!(w.is_valid(&m));
        let al = m.alphabet();
        for s in w.stem.iter().chain(&w.cycle) {
            assert!(!(s.contains_named(al, "b0") && s.contains_named(al, "b1")));
        }
    }

    #[test]
    fn fair_eg_witness_hits_every_constraint() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "!b0 & !b1");
        // EG true under fairness {b0, b1}: the lasso's loop must visit a
        // b0-state and a b1-state.
        let fairness = [parse("b0").unwrap(), parse("b1").unwrap()];
        let w = c
            .witness_eg_fair(&from, &Formula::True, &fairness)
            .unwrap()
            .unwrap();
        assert!(w.is_valid(&m));
        for f in &fairness {
            assert!(
                w.cycle_satisfies(&m, f),
                "cycle {:?} misses fairness constraint {f}",
                w.cycle
            );
        }
    }

    #[test]
    fn fair_eg_witness_none_when_fairness_unsatisfiable() {
        // One-way switch: from x, the only run stutters on x forever, so
        // fairness {!x} admits no fair path from x.
        let mut m = System::new(Alphabet::new(["x"]));
        m.add_transition_named(&[], &["x"]);
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "x");
        let fairness = [parse("!x").unwrap()];
        assert!(c
            .witness_eg_fair(&from, &Formula::True, &fairness)
            .unwrap()
            .is_none());
    }

    #[test]
    fn fair_eg_witness_without_constraints_is_plain_eg() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "b0 & !b1");
        let w = c
            .witness_eg_fair(&from, &parse("b0").unwrap(), &[Formula::True])
            .unwrap()
            .unwrap();
        assert!(w.is_valid(&m));
        assert!(w.all_satisfy(&m, &parse("b0").unwrap()));
    }

    #[test]
    fn display_renders_states() {
        let m = counter();
        let c = Checker::new(&m).unwrap();
        let from = set_of(&c, "!b0 & !b1");
        let to = parse("b1").unwrap();
        let w = c.witness_eu(&from, &Formula::True, &to).unwrap().unwrap();
        let text = w.display(&m).to_string();
        assert!(text.contains("state 1: {}"));
        assert!(text.contains("{b1}"));
    }
}
