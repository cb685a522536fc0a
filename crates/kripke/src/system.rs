//! Systems `M = (Σ, R)` with reflexive, total transition relations, and the
//! interleaving composition operator `∘` of §3.1.

use crate::alphabet::Alphabet;
use crate::state::{all_states, State};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::OnceLock;

/// A finite-state system `M = (Σ, R)`.
///
/// The paper assumes `R` is reflexive (every state can stutter), which also
/// makes it total. We store only the *non-reflexive* transitions explicitly;
/// the reflexive pairs `(s, s)` for every `s ∈ 2^Σ` are implicit. All query
/// methods ([`System::successors`], [`System::has_transition`], …) account
/// for the implicit stutter transitions.
#[derive(Debug, Clone)]
pub struct System {
    alphabet: Alphabet,
    /// Non-reflexive transitions, grouped by source.
    succ: BTreeMap<State, BTreeSet<State>>,
    /// [`System::touched_states`], counted on first use and dropped by
    /// [`System::add_transition`].
    touched: OnceLock<usize>,
}

/// Equality is the alphabet and the relation; the memoised count is not
/// part of the value.
impl PartialEq for System {
    fn eq(&self, other: &Self) -> bool {
        self.alphabet == other.alphabet && self.succ == other.succ
    }
}

impl Eq for System {}

impl System {
    /// A system over `alphabet` with only the implicit stutter transitions —
    /// this is exactly the identity element `(Σ, I)` of Lemma 3.
    ///
    /// Panics past [`crate::state::MAX_PROPS`] propositions: explicit
    /// transitions are `State` (`u128`) pairs, so a single system is
    /// 128-bit-bounded. Wider *union* alphabets are fine — compose narrow
    /// systems and let the reachable kernel pack their product states.
    pub fn new(alphabet: Alphabet) -> Self {
        assert!(
            alphabet.len() <= crate::state::MAX_PROPS,
            "explicit-state systems are limited to {} propositions; \
             compose narrower components or use the symbolic engine",
            crate::state::MAX_PROPS
        );
        System {
            alphabet,
            succ: BTreeMap::new(),
            touched: OnceLock::new(),
        }
    }

    /// Alias for [`System::new`] making Lemma 3 intent explicit at call
    /// sites: the identity system `(Σ, I)`.
    pub fn identity(alphabet: Alphabet) -> Self {
        System::new(alphabet)
    }

    /// The system's alphabet `Σ`.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Add the transition `(s, t)` to `R`. Reflexive pairs are accepted and
    /// ignored (they are implicit).
    pub fn add_transition(&mut self, s: State, t: State) {
        let n = self.alphabet.len();
        let mask = if n == 0 { 0 } else { (1u128 << n) - 1 };
        assert!(
            s.0 & !mask == 0 && t.0 & !mask == 0,
            "state outside alphabet"
        );
        if s == t {
            return;
        }
        self.succ.entry(s).or_default().insert(t);
        self.touched.take();
    }

    /// Add a transition given the proposition names true in each state.
    pub fn add_transition_named(&mut self, s: &[&str], t: &[&str]) {
        let ss = State::from_names(&self.alphabet, s);
        let tt = State::from_names(&self.alphabet, t);
        self.add_transition(ss, tt);
    }

    /// All states of the system (`2^Σ`).
    pub fn states(&self) -> impl Iterator<Item = State> {
        all_states(&self.alphabet)
    }

    /// Number of states, `2^|Σ|`.
    pub fn state_count(&self) -> u128 {
        1u128 << self.alphabet.len()
    }

    /// Successors of `s` under `R`, including the stutter successor `s`.
    pub fn successors(&self, s: State) -> Vec<State> {
        let mut out = vec![s];
        if let Some(ts) = self.succ.get(&s) {
            out.extend(ts.iter().copied());
        }
        out
    }

    /// Non-reflexive successors only.
    pub fn proper_successors(&self, s: State) -> impl Iterator<Item = State> + '_ {
        self.succ.get(&s).into_iter().flatten().copied()
    }

    /// Is `(s, t) ∈ R`?
    pub fn has_transition(&self, s: State, t: State) -> bool {
        s == t || self.succ.get(&s).is_some_and(|ts| ts.contains(&t))
    }

    /// `|R|` counting the implicit reflexive pairs.
    pub fn transition_count(&self) -> u128 {
        self.proper_transition_count() as u128 + self.state_count()
    }

    /// Number of explicit (non-reflexive) transitions.
    pub fn proper_transition_count(&self) -> usize {
        self.succ.values().map(|ts| ts.len()).sum()
    }

    /// The number of distinct states on the proper transitions, sources
    /// and targets alike: how much of `2^Σ` the system actually moves
    /// through. Counted once and kept until the next
    /// [`System::add_transition`].
    pub fn touched_states(&self) -> usize {
        *self.touched.get_or_init(|| {
            let mut touched: BTreeSet<State> = self.succ.keys().copied().collect();
            touched.extend(self.succ.values().flatten());
            touched.len()
        })
    }

    /// Iterate the explicit (non-reflexive) transitions.
    pub fn proper_transitions(&self) -> impl Iterator<Item = (State, State)> + '_ {
        self.succ
            .iter()
            .flat_map(|(&s, ts)| ts.iter().map(move |&t| (s, t)))
    }

    /// The composition `M ∘ M'` of §3.1.
    ///
    /// `R*` over `Σ ∪ Σ'` is the smallest reflexive relation such that
    ///
    /// 1. if `(s, t) ∈ R` and `r ⊆ Σ* − Σ` then `(s ∪ r, t ∪ r) ∈ R*`, and
    /// 2. if `(s', t') ∈ R'` and `r' ⊆ Σ* − Σ'` then `(s' ∪ r', t' ∪ r') ∈ R*`.
    ///
    /// Each component's moves leave the other component's private
    /// propositions untouched — interleaving semantics with frame
    /// conditions, "powerful enough to represent asynchronous concurrent
    /// execution of several processes in a network" (§3.1).
    pub fn compose(&self, other: &System) -> System {
        let sigma_star = self.alphabet.union(&other.alphabet);
        let mut out = System::new(sigma_star.clone());
        out.absorb_padded(self, &sigma_star);
        out.absorb_padded(other, &sigma_star);
        out
    }

    /// Insert every transition of `component`, padded with all valuations of
    /// the propositions of `self.alphabet` that `component` does not own.
    fn absorb_padded(&mut self, component: &System, sigma_star: &Alphabet) {
        let frame_mask = frame_mask(sigma_star, component.alphabet());
        for (s, t) in component.proper_transitions() {
            let es = s.embed(component.alphabet(), sigma_star);
            let et = t.embed(component.alphabet(), sigma_star);
            for r in subsets(frame_mask) {
                self.add_transition(es.union(State(r)), et.union(State(r)));
            }
        }
    }

    /// The expansion `M ∘ (Σ', I)` of §3.2: the same system over the
    /// enlarged alphabet `Σ ∪ Σ'`, never modifying the new propositions.
    pub fn expand(&self, sigma_prime: &Alphabet) -> System {
        self.compose(&System::identity(sigma_prime.clone()))
    }

    /// Semantic equality of systems: the same proposition *set* (order may
    /// differ) and the same relation. Used by the executable lemmas.
    pub fn equivalent(&self, other: &System) -> bool {
        if !self.alphabet.same_set(&other.alphabet) {
            return false;
        }
        if self.proper_transition_count() != other.proper_transition_count() {
            return false;
        }
        self.proper_transitions().all(|(s, t)| {
            let es = s.embed(&self.alphabet, &other.alphabet);
            let et = t.embed(&self.alphabet, &other.alphabet);
            other.has_transition(es, et) && es != et
        })
    }

    /// Project the system onto the propositions of `onto` that it owns:
    /// the alphabet becomes `Σ ∩ onto` (in `Σ`'s order), every transition
    /// `(s, t)` becomes `(s|, t|)`, and pairs that collapse onto the
    /// diagonal fold into the implicit stutter. The result is the
    /// canonical abstraction of `M` that forgets the dropped
    /// propositions — `M` is always simulated by `M.project(onto)`
    /// (the refinement layer checks this rather than assuming it).
    pub fn project(&self, onto: &Alphabet) -> System {
        let keep: Vec<String> = self
            .alphabet
            .names()
            .iter()
            .filter(|n| onto.contains(n))
            .cloned()
            .collect();
        let target = Alphabet::new(keep);
        let mut out = System::new(target.clone());
        for (s, t) in self.proper_transitions() {
            out.add_transition(
                s.project(&self.alphabet, &target),
                t.project(&self.alphabet, &target),
            );
        }
        out
    }

    /// States reachable from `init` (by any number of `R` steps).
    pub fn reachable(&self, init: impl IntoIterator<Item = State>) -> BTreeSet<State> {
        let mut seen: BTreeSet<State> = BTreeSet::new();
        let mut queue: VecDeque<State> = VecDeque::new();
        for s in init {
            if seen.insert(s) {
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            for t in self.proper_successors(s) {
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        seen
    }
}

/// Bitmask (in `sigma_star` positions) of the propositions *not* owned by
/// `component` — the frame the component must leave unchanged.
fn frame_mask(sigma_star: &Alphabet, component: &Alphabet) -> u128 {
    let mut mask = 0u128;
    for (i, name) in sigma_star.names().iter().enumerate() {
        if !component.contains(name) {
            mask |= 1 << i;
        }
    }
    mask
}

/// Iterate all subsets of the set bits of `mask` (including `0` and
/// `mask`) — the frame valuations a component's move is padded with in
/// §3.1's composition.
pub fn subsets(mask: u128) -> impl Iterator<Item = u128> {
    let mut cur = 0u128;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let out = cur;
        if cur == mask {
            done = true;
        } else {
            cur = (cur.wrapping_sub(mask)) & mask; // next subset: (cur - mask) & mask
        }
        Some(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two 1-proposition toggling systems of Figure 1.
    fn figure1_systems() -> (System, System) {
        let mut m = System::new(Alphabet::new(["x"]));
        m.add_transition_named(&[], &["x"]);
        m.add_transition_named(&["x"], &[]);
        let mut mp = System::new(Alphabet::new(["y"]));
        mp.add_transition_named(&[], &["y"]);
        mp.add_transition_named(&["y"], &[]);
        (m, mp)
    }

    #[test]
    fn subsets_enumerates_powerset_of_mask() {
        let subs: Vec<u128> = subsets(0b101).collect();
        assert_eq!(subs.len(), 4);
        assert!(subs.contains(&0b000));
        assert!(subs.contains(&0b001));
        assert!(subs.contains(&0b100));
        assert!(subs.contains(&0b101));
        assert_eq!(subsets(0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn reflexivity_is_implicit() {
        let m = System::new(Alphabet::new(["x"]));
        let s = State::from_names(m.alphabet(), &["x"]);
        assert!(m.has_transition(s, s));
        assert_eq!(m.successors(s), vec![s]);
        assert_eq!(m.transition_count(), 2); // two stutter loops
    }

    #[test]
    fn figure1_composition_exact() {
        let (m, mp) = figure1_systems();
        let c = m.compose(&mp);
        let al = c.alphabet().clone();
        let st = |names: &[&str]| State::from_names(&al, names);
        // The 8 proper moves listed in Figure 1.
        let expected = [
            (st(&[]), st(&["x"])),
            (st(&["y"]), st(&["x", "y"])),
            (st(&["x"]), st(&[])),
            (st(&["x", "y"]), st(&["y"])),
            (st(&[]), st(&["y"])),
            (st(&["x"]), st(&["x", "y"])),
            (st(&["y"]), st(&[])),
            (st(&["x", "y"]), st(&["x"])),
        ];
        assert_eq!(c.proper_transition_count(), 8);
        for (s, t) in expected {
            assert!(c.has_transition(s, t), "missing {s:?} -> {t:?}");
        }
        // Plus the 4 reflexive pairs of Figure 1: 12 in total.
        assert_eq!(c.transition_count(), 12);
    }

    #[test]
    fn composition_is_commutative_fig1() {
        let (m, mp) = figure1_systems();
        assert!(m.compose(&mp).equivalent(&mp.compose(&m)));
    }

    #[test]
    fn shared_alphabet_composition_is_union_lemma2() {
        // Lemma 2: (Σ, R) ∘ (Σ, R') = (Σ, R ∪ R').
        let al = Alphabet::new(["a", "b"]);
        let mut m1 = System::new(al.clone());
        m1.add_transition_named(&[], &["a"]);
        let mut m2 = System::new(al.clone());
        m2.add_transition_named(&["a"], &["a", "b"]);
        let c = m1.compose(&m2);
        let mut expect = System::new(al);
        expect.add_transition_named(&[], &["a"]);
        expect.add_transition_named(&["a"], &["a", "b"]);
        assert!(c.equivalent(&expect));
    }

    #[test]
    fn identity_is_unit_lemma3() {
        let (m, _) = figure1_systems();
        let id = System::identity(m.alphabet().clone());
        assert!(m.compose(&id).equivalent(&m));
        assert!(id.compose(&m).equivalent(&m));
    }

    #[test]
    fn expansion_pads_frames() {
        let (m, _) = figure1_systems();
        let e = m.expand(&Alphabet::new(["y"]));
        assert_eq!(e.alphabet().len(), 2);
        // The x-toggle happens under both y=0 and y=1; y never changes.
        assert_eq!(e.proper_transition_count(), 4);
        let al = e.alphabet().clone();
        let s0 = State::from_names(&al, &["y"]);
        let s1 = State::from_names(&al, &["x", "y"]);
        assert!(e.has_transition(s0, s1));
        // No transition may change y.
        for (s, t) in e.proper_transitions() {
            assert_eq!(s.contains_named(&al, "y"), t.contains_named(&al, "y"));
        }
    }

    #[test]
    fn reachability_walks_proper_transitions() {
        let (m, mp) = figure1_systems();
        let c = m.compose(&mp);
        let al = c.alphabet().clone();
        let from = State::from_names(&al, &[]);
        let reach = c.reachable([from]);
        assert_eq!(reach.len(), 4); // everything reachable in Figure 1
    }

    #[test]
    fn equivalence_is_order_insensitive() {
        let mut a = System::new(Alphabet::new(["p", "q"]));
        a.add_transition_named(&["p"], &["q"]);
        let mut b = System::new(Alphabet::new(["q", "p"]));
        b.add_transition_named(&["p"], &["q"]);
        assert!(a.equivalent(&b));
        let mut c = System::new(Alphabet::new(["q", "p"]));
        c.add_transition_named(&["q"], &["p"]);
        assert!(!a.equivalent(&c));
    }

    /// The count covers sources and targets once each and is recounted
    /// after the relation grows; equality ignores whether it was counted.
    #[test]
    fn touched_states_counts_each_state_once() {
        let (m, _) = figure1_systems();
        assert_eq!(m.touched_states(), 2);
        let mut grown = System::new(Alphabet::new(["x", "y"]));
        let uncounted = grown.clone();
        assert_eq!(grown.touched_states(), 0);
        assert_eq!(grown, uncounted);
        grown.add_transition_named(&[], &["x"]);
        grown.add_transition_named(&["x"], &["x", "y"]);
        assert_eq!(grown.touched_states(), 3);
        grown.add_transition_named(&["y"], &[]);
        assert_eq!(grown.touched_states(), 4);
    }

    #[test]
    #[should_panic(expected = "state outside alphabet")]
    fn transitions_must_fit_alphabet() {
        let mut m = System::new(Alphabet::new(["x"]));
        m.add_transition(State(0b10), State(0));
    }
}
