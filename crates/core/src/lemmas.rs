//! Executable forms of the CTL composition lemmas of §3.2 (Lemmas 5–11).
//!
//! Together with `cmc_kripke::lemmas` (Lemmas 1–4), these let the test
//! suite — including property-based tests over random systems — confirm
//! every algebraic step the paper's theory rests on, and let the proof
//! engine double-check its own rewriting on concrete systems.

use cmc_ctl::{CheckError, Checker, Formula, Restriction};
use cmc_kripke::{Alphabet, State, System};

/// Lemma 5: expansion preserves properties. For `f ∈ C(Σ)`:
/// `M ⊨ f  ⇔  M ∘ (Σ', I) ⊨ f`.
pub fn lemma5_expansion_preserves(
    m: &System,
    sigma_prime: &Alphabet,
    f: &Formula,
) -> Result<bool, CheckError> {
    let lhs = Checker::new(m)?.holds_everywhere(f)?;
    let expanded = m.expand(sigma_prime);
    let rhs = Checker::new(&expanded)?.holds_everywhere(f)?;
    Ok(lhs == rhs)
}

/// Lemma 6: `M ⊨ (f ⇒ AX g)  ⇔  ∀s ⊨ f: ∀t ∈ R(s): t ⊨ g`
/// for propositional `f`, `g` — the checker's verdict against
/// [`lemma6_ax_holds`], the structural decision the proof engine uses.
pub fn lemma6_ax_structural(m: &System, f: &Formula, g: &Formula) -> Result<bool, CheckError> {
    let formula = f.clone().implies(g.clone().ax());
    let semantic = Checker::new(m)?.holds_everywhere(&formula)?;
    Ok(semantic == lemma6_ax_holds(m, &Alphabet::empty(), f, g))
}

/// Lemma 6 as a decision procedure on an expansion: does
/// `M ∘ (Σ', I) ⊨ p ⇒ AX q` hold, for `p` and `q` propositional over
/// `Σ ∪ Σ'`? The successors of a state `s ∪ e` (`e` a valuation of the
/// frozen propositions `Σ' − Σ`) are itself and `s' ∪ e` for each proper
/// move `s → s'` of `M`, so it holds iff
///
/// * `p ⇒ q` is valid (the stutter step), and
/// * every proper move `s → s'`, under every `e`, gives
///   `p(s ∪ e) ⇒ q(s' ∪ e)`.
///
/// Nothing is built: `p` and `q` are evaluated as truth tables, 64
/// valuations to a word, over just the propositions they read. A move
/// that changes none of those is a stutter step as far as `p` and `q`
/// can tell, so only the moves with distinct projections onto them are
/// evaluated, each over the valuations of the frozen propositions read.
/// The frame rule (Lemma 8) is the case where no move remains. Cost is
/// exponential in the number of propositions `p` and `q` read, so the
/// engine poses it only on expansions no wider than the dense explicit
/// kernel, which labels every state of `2^(Σ ∪ Σ')` instead. The engine
/// runs the same procedure on tables it compiles once per proof.
///
/// Panics if `p` or `q` is temporal or reads a proposition outside
/// `Σ ∪ Σ'`.
pub fn lemma6_ax_holds(m: &System, frozen: &Alphabet, p: &Formula, q: &Formula) -> bool {
    // Slots number the propositions read, in order of first appearance.
    let mut names: Vec<&str> = Vec::new();
    let mut slot = |name| {
        Some(names.iter().position(|n| *n == name).unwrap_or_else(|| {
            names.push(name);
            names.len() - 1
        }))
    };
    let (p, q) = (
        TruthTable::new(p, &mut slot).expect("every name has a slot"),
        TruthTable::new(q, &mut slot).expect("every name has a slot"),
    );
    let (mut owned, mut frozen_read) = (Vec::new(), Vec::new());
    for (slot, name) in names.iter().enumerate() {
        match m.alphabet().position(name) {
            Some(bit) => owned.push((slot, bit)),
            None => {
                assert!(frozen.contains(name), "{name:?} is outside Σ ∪ Σ'");
                frozen_read.push(slot);
            }
        }
    }
    let moves: Vec<(u128, u128)> = m.proper_transitions().map(|(s, t)| (s.0, t.0)).collect();
    Lemma6::new(names.len()).decide(owned, frozen_read, &moves, std::iter::once(&p), &q)
}

/// [`lemma6_ax_holds`]'s procedure on truth tables over numbered slots,
/// with the buffers it evaluates in kept across decisions.
pub(crate) struct Lemma6 {
    /// `(slot, bit)`: the slot's value is bit `bit` of the component's
    /// state.
    owned: Vec<(usize, usize)>,
    /// Slots of the frozen propositions read: truth-table variables, the
    /// same on both sides of a move.
    frozen: Vec<usize>,
    /// Each slot's word before and after a move.
    words: Vec<u64>,
    after: Vec<u64>,
    stack: Vec<u64>,
    /// The moves projected onto the owned bits read.
    projected: Vec<(u128, u128)>,
}

#[cfg(test)]
thread_local! {
    /// Lemma-6 decisions made on this thread, so that tests can see
    /// which obligations the engine decides this way.
    pub(crate) static DECISIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Lemma6 {
    /// Buffers for tables over slots `0..slots`.
    pub(crate) fn new(slots: usize) -> Self {
        Lemma6 {
            owned: Vec::new(),
            frozen: Vec::new(),
            words: vec![0; slots],
            after: vec![0; slots],
            stack: Vec::new(),
            projected: Vec::new(),
        }
    }

    /// Does `p ⇒ AX q` hold on the expansion of a component with proper
    /// `moves` (over its own state bits), `p` conjoining the tables `p`?
    /// The tables read only the slots in `owned`, each with the state bit
    /// it stands for, and the frozen slots in `frozen`.
    pub(crate) fn decide<'t>(
        &mut self,
        owned: impl IntoIterator<Item = (usize, usize)>,
        frozen: impl IntoIterator<Item = usize>,
        moves: &[(u128, u128)],
        p: impl Iterator<Item = &'t TruthTable> + Clone,
        q: &TruthTable,
    ) -> bool {
        #[cfg(test)]
        DECISIONS.with(|d| d.set(d.get() + 1));
        let Lemma6 {
            owned: owned_read,
            frozen: frozen_read,
            words,
            after,
            stack,
            projected,
        } = self;
        owned_read.clear();
        owned_read.extend(owned);
        frozen_read.clear();
        frozen_read.extend(frozen);
        let hypothesis = |words: &[u64], stack: &mut Vec<u64>| {
            p.clone().fold(!0, |acc, t| {
                if acc == 0 {
                    0
                } else {
                    acc & t.eval(words, stack)
                }
            })
        };
        // The stutter step: every proposition read is a variable.
        let slots = owned_read.iter().map(|&(slot, _)| slot);
        let vars = owned_read.len() + frozen_read.len();
        for chunk in 0..chunks(vars) {
            for (var, slot) in slots.clone().chain(frozen_read.iter().copied()).enumerate() {
                words[slot] = column(var, chunk);
            }
            if hypothesis(words, stack) & !q.eval(words, stack) != 0 {
                return false;
            }
        }
        // The proper moves, projected onto the owned bits read: the frozen
        // propositions are the variables, the same on both sides.
        let bits = owned_read.iter().fold(0u128, |m, &(_, bit)| m | 1 << bit);
        projected.clear();
        projected.extend(
            moves
                .iter()
                .map(|&(s, t)| (s & bits, t & bits))
                .filter(|(s, t)| s != t),
        );
        projected.sort_unstable();
        projected.dedup();
        for &(s, t) in projected.iter() {
            for &(slot, bit) in owned_read.iter() {
                words[slot] = bit_word(s, bit);
                after[slot] = bit_word(t, bit);
            }
            for chunk in 0..chunks(frozen_read.len()) {
                for (var, &slot) in frozen_read.iter().enumerate() {
                    (words[slot], after[slot]) = (column(var, chunk), column(var, chunk));
                }
                if hypothesis(words, stack) & !q.eval(after, stack) != 0 {
                    return false;
                }
            }
        }
        true
    }
}

/// A propositional formula compiled to postfix over numbered slots, one
/// per distinct proposition, evaluated on 64 valuations at once: slot
/// `i`'s word holds the proposition's value in each valuation.
pub(crate) struct TruthTable(Vec<Op>);

#[derive(Clone, Copy)]
enum Op {
    Const(u64),
    Slot(usize),
    Not,
    And,
    Or,
    Implies,
    Iff,
}

impl TruthTable {
    /// Compile `f`, numbering each proposition by `slot`; `None` if
    /// `slot` has no number for one of them. Panics if `f` is temporal.
    pub(crate) fn new<'f>(
        f: &'f Formula,
        slot: &mut impl FnMut(&'f str) -> Option<usize>,
    ) -> Option<Self> {
        let mut ops = Vec::new();
        Self::compile(f, slot, &mut ops)?;
        Some(TruthTable(ops))
    }

    fn compile<'f>(
        f: &'f Formula,
        slot: &mut impl FnMut(&'f str) -> Option<usize>,
        ops: &mut Vec<Op>,
    ) -> Option<()> {
        match f {
            Formula::True => ops.push(Op::Const(!0)),
            Formula::False => ops.push(Op::Const(0)),
            Formula::Ap(name) => ops.push(Op::Slot(slot(name)?)),
            Formula::Not(g) => {
                Self::compile(g, slot, ops)?;
                ops.push(Op::Not);
            }
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Iff(a, b) => {
                Self::compile(a, slot, ops)?;
                Self::compile(b, slot, ops)?;
                ops.push(match f {
                    Formula::And(..) => Op::And,
                    Formula::Or(..) => Op::Or,
                    Formula::Implies(..) => Op::Implies,
                    _ => Op::Iff,
                });
            }
            _ => panic!("Lemma 6 on temporal formula {f}"),
        }
        Some(())
    }

    /// The formula's value in the 64 valuations `words` describe.
    fn eval(&self, words: &[u64], stack: &mut Vec<u64>) -> u64 {
        stack.clear();
        for op in &self.0 {
            let value = match *op {
                Op::Const(w) => w,
                Op::Slot(i) => words[i],
                Op::Not => !stack.pop().expect("an operand"),
                _ => {
                    let b = stack.pop().expect("a right operand");
                    let a = stack.pop().expect("a left operand");
                    match op {
                        Op::And => a & b,
                        Op::Or => a | b,
                        Op::Implies => !a | b,
                        _ => !(a ^ b),
                    }
                }
            };
            stack.push(value);
        }
        stack.pop().expect("a compiled formula leaves its value")
    }
}

/// Words of 64 valuations needed to cover all `2^vars`. Below six
/// variables one word repeats the table, which changes no verdict.
fn chunks(vars: usize) -> usize {
    1usize
        .checked_shl(vars.saturating_sub(6) as u32)
        .expect("a truth table of at most 2^69 rows")
}

/// Truth-table variable `var`'s column in chunk `chunk`: bit `b` is its
/// value in valuation `64 · chunk + b`.
fn column(var: usize, chunk: usize) -> u64 {
    const COLUMNS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match COLUMNS.get(var) {
        Some(&w) => w,
        None if chunk >> (var - 6) & 1 == 1 => !0,
        None => 0,
    }
}

/// Bit `pos` of `state`, as a constant word.
fn bit_word(state: u128, pos: usize) -> u64 {
    if state >> pos & 1 == 1 {
        !0
    } else {
        0
    }
}

/// Lemma 7: `M ⊨ (f ⇒ EX g)  ⇔  ∀s ⊨ f: ∃t ∈ R(s): t ⊨ g`.
pub fn lemma7_ex_structural(m: &System, f: &Formula, g: &Formula) -> Result<bool, CheckError> {
    let formula = f.clone().implies(g.clone().ex());
    let semantic = Checker::new(m)?.holds_everywhere(&formula)?;
    let structural = m.states().all(|s| {
        !f.eval_in_state(m.alphabet(), s)
            || m.successors(s)
                .into_iter()
                .any(|t| g.eval_in_state(m.alphabet(), t))
    });
    Ok(semantic == structural)
}

/// Lemma 8: frame conjunction. For `p`, `q` over `Σ` and `p'` over
/// `Σ' − Σ`:
///
/// ```text
/// M ⊨ (p ⇒ AX q)  ⇒  M ∘ (Σ', I) ⊨ (p ∧ p' ⇒ AX (q ∧ p'))
/// M ⊨ (p ⇒ EX q)  ⇒  M ∘ (Σ', I) ⊨ (p ∧ p' ⇒ EX (q ∧ p'))
/// ```
pub fn lemma8_frame_conjunction(
    m: &System,
    sigma_prime: &Alphabet,
    p: &Formula,
    q: &Formula,
    p_prime: &Formula,
) -> Result<bool, CheckError> {
    let checker = Checker::new(m)?;
    let expanded = m.expand(sigma_prime);
    let echecker = Checker::new(&expanded)?;
    let mut ok = true;
    if checker.holds_everywhere(&p.clone().implies(q.clone().ax()))? {
        let lifted = p
            .clone()
            .and(p_prime.clone())
            .implies(q.clone().and(p_prime.clone()).ax());
        ok &= echecker.holds_everywhere(&lifted)?;
    }
    if checker.holds_everywhere(&p.clone().implies(q.clone().ex()))? {
        let lifted = p
            .clone()
            .and(p_prime.clone())
            .implies(q.clone().and(p_prime.clone()).ex());
        ok &= echecker.holds_everywhere(&lifted)?;
    }
    Ok(ok)
}

/// Lemma 9: frame disjunction. Under the same conditions:
///
/// ```text
/// M ⊨ (p ⇒ AX q)  ⇒  M ∘ (Σ', I) ⊨ ((p ∨ p') ⇒ AX (q ∨ p'))
/// M ⊨ (p ⇒ EX q)  ⇒  M ∘ (Σ', I) ⊨ ((p ∨ p') ⇒ EX (q ∨ p'))
/// ```
pub fn lemma9_frame_disjunction(
    m: &System,
    sigma_prime: &Alphabet,
    p: &Formula,
    q: &Formula,
    p_prime: &Formula,
) -> Result<bool, CheckError> {
    let checker = Checker::new(m)?;
    let expanded = m.expand(sigma_prime);
    let echecker = Checker::new(&expanded)?;
    let mut ok = true;
    if checker.holds_everywhere(&p.clone().implies(q.clone().ax()))? {
        let lifted = p
            .clone()
            .or(p_prime.clone())
            .implies(q.clone().or(p_prime.clone()).ax());
        ok &= echecker.holds_everywhere(&lifted)?;
    }
    if checker.holds_everywhere(&p.clone().implies(q.clone().ex()))? {
        let lifted = p
            .clone()
            .or(p_prime.clone())
            .implies(q.clone().or(p_prime.clone()).ex());
        ok &= echecker.holds_everywhere(&lifted)?;
    }
    Ok(ok)
}

/// Lemma 10: propositional transfer. For `Σ ⊆ Σ'`, `p ∈ C(Σ)`, and states
/// `s ∈ 2^Σ`, `s' ∈ 2^Σ'` with `s = s' ∩ Σ`: `M, s ⊨ p ⇔ M', s' ⊨ p`.
pub fn lemma10_propositional_transfer(
    sigma: &Alphabet,
    sigma_big: &Alphabet,
    p: &Formula,
    s_big: State,
) -> bool {
    assert!(sigma.is_subset_of(sigma_big));
    let s = s_big.project(sigma_big, sigma);
    p.eval_in_state(sigma, s) == p.eval_in_state(sigma_big, s_big)
}

/// Lemma 11: strengthening fairness preserves `f ⇒ AX g`:
/// `M ⊨ (f ⇒ AX g)  ⇒  M ⊨_{(true, F)} (f ⇒ AX g)`.
pub fn lemma11_fairness_strengthening(
    m: &System,
    f: &Formula,
    g: &Formula,
    fairness: &[Formula],
) -> Result<bool, CheckError> {
    let checker = Checker::new(m)?;
    let formula = f.clone().implies(g.clone().ax());
    if !checker.holds_everywhere(&formula)? {
        return Ok(true); // implication holds vacuously
    }
    let r = Restriction::with_fairness(fairness.iter().cloned());
    Ok(checker.check(&r, &formula)?.holds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_ctl::parse;

    fn chain() -> System {
        // ∅ -> {a} -> {a,b}, over {a, b}.
        let mut m = System::new(Alphabet::new(["a", "b"]));
        m.add_transition_named(&[], &["a"]);
        m.add_transition_named(&["a"], &["a", "b"]);
        m
    }

    #[test]
    fn lemma5_holds_for_corpus() {
        let m = chain();
        let extra = Alphabet::new(["z", "a"]); // overlapping expansion
        for text in ["a -> AX (a | b)", "EF (a & b)", "AG (b -> a)", "E [a U b]"] {
            assert!(
                lemma5_expansion_preserves(&m, &extra, &parse(text).unwrap()).unwrap(),
                "Lemma 5 failed for {text}"
            );
        }
    }

    #[test]
    fn lemma6_lemma7_structural_equivalence() {
        let m = chain();
        for (f, g) in [("a", "a | b"), ("!a", "a"), ("a & b", "b"), ("b", "a")] {
            assert!(lemma6_ax_structural(&m, &parse(f).unwrap(), &parse(g).unwrap()).unwrap());
            assert!(lemma7_ex_structural(&m, &parse(f).unwrap(), &parse(g).unwrap()).unwrap());
        }
    }

    /// The decision on an expansion, case by case, against the checker on
    /// the expansion built: `chain` moves `∅ → {a} → {a, b}` and never
    /// touches the frozen `z`.
    #[test]
    fn lemma6_decides_on_the_expansion() {
        let m = chain();
        let frozen = Alphabet::new(["z"]);
        let expanded = Checker::new(&m.expand(&frozen)).unwrap();
        for (p, q, holds) in [
            ("a", "a", true),           // no move clears a
            ("!a", "!a", false),        // ∅ → {a}
            ("a & !b", "a", true),      // {a} → {a, b} keeps a
            ("a", "b", false),          // {a} stutters without b
            ("z", "z", true),           // frozen: never changes
            ("!a & z", "z", true),      // ... not even across {z} → {a, z}
            ("z & !a", "z & a", false), // stutter from {z}
            ("a | z", "a | z", true),
            ("!b & z", "!b", false), // {a, z} → {a, b, z}
        ] {
            let (p, q) = (parse(p).unwrap(), parse(q).unwrap());
            assert_eq!(lemma6_ax_holds(&m, &frozen, &p, &q), holds, "{p} ⇒ AX {q}");
            let f = p.clone().implies(q.clone().ax());
            assert_eq!(expanded.holds_everywhere(&f).unwrap(), holds, "{f}");
        }
    }

    /// Seven frozen propositions read need two truth-table words per
    /// move; the second word's valuations must be reached too.
    #[test]
    fn lemma6_covers_every_frozen_valuation() {
        let m = chain();
        let names = ["u", "v", "w", "x", "y", "z", "last"];
        let frozen = Alphabet::new(names);
        let all = Formula::and_many(names.iter().map(|n| Formula::ap(*n)));
        // Only the all-true valuation (the last of 128) breaks it.
        let p = parse("!a").unwrap().and(all.clone());
        let q = parse("!a").unwrap();
        assert!(!lemma6_ax_holds(&m, &frozen, &p, &q));
        assert!(lemma6_ax_holds(
            &m,
            &frozen,
            &p.clone().and(Formula::False),
            &q
        ));
    }

    #[test]
    #[should_panic(expected = "outside Σ ∪ Σ'")]
    fn lemma6_refuses_unknown_propositions() {
        let q = parse("c").unwrap();
        lemma6_ax_holds(&chain(), &Alphabet::empty(), &q, &q);
    }

    #[test]
    fn lemma8_and_9_frame_preservation() {
        let m = chain();
        let extra = Alphabet::new(["z"]);
        let p = parse("a").unwrap();
        let q = parse("a").unwrap(); // a ⇒ AX a holds in `chain`
        let p_prime = parse("z").unwrap();
        assert!(lemma8_frame_conjunction(&m, &extra, &p, &q, &p_prime).unwrap());
        assert!(lemma9_frame_disjunction(&m, &extra, &p, &q, &p_prime).unwrap());
        // Negated frame formula too.
        let np = parse("!z").unwrap();
        assert!(lemma8_frame_conjunction(&m, &extra, &p, &q, &np).unwrap());
    }

    #[test]
    fn lemma10_transfer_all_states() {
        let sigma = Alphabet::new(["a", "b"]);
        let big = sigma.union(&Alphabet::new(["c"]));
        let p = parse("a & !b").unwrap();
        for bits in 0u128..8 {
            assert!(lemma10_propositional_transfer(
                &sigma,
                &big,
                &p,
                State(bits)
            ));
        }
    }

    #[test]
    fn lemma11_fairness_strengthening_holds() {
        let m = chain();
        let fairness = vec![parse("b").unwrap(), parse("a | b").unwrap()];
        assert!(lemma11_fairness_strengthening(
            &m,
            &parse("a").unwrap(),
            &parse("a").unwrap(),
            &fairness
        )
        .unwrap());
    }
}
