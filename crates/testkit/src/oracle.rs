//! The differential oracle.
//!
//! An obligation runs through an ordered list of [`Leg`]s, each a name and
//! a check with [`ExplicitBackend::check`]'s signature, so the caller picks
//! the backend configurations (image mode, GC schedule, cache bound, state
//! budget) and a test can plant a faulty one. Where the target is at most
//! [`REFERENCE_MAX_PROPS`] wide, the independent [`RefEvaluator`] also
//! runs, on the materialised product. One obligation gets five checks:
//!
//! * every leg's `holds` equals every other leg's and the reference's;
//! * every exact `sat_states` a leg reports equals the reference's count;
//! * every violating state a leg reports replays through
//!   [`validate_verdict`];
//! * on a trivially restricted `p ⇒ AX q`, Lemma 6 ([`lemma6_ax_holds`],
//!   the decision the proof engine takes on component obligations) agrees
//!   with the reference;
//! * every leg the symbolic engine answered reports the same `violating`
//!   and `sat_states` as the first such leg.
//!
//! The second to fourth read the reference's product, so they run where it
//! does; past its width the legs still cross-check each other. A failed
//! check is a disagreement, which [`shrink`] reduces greedily to a minimal
//! obligation that still disagrees. [`run_sim_pair`] is the same kind of
//! oracle for the simulation checkers, and [`crate::sweep`] runs either
//! over a list of seeds.

use crate::gen::{Obligation, SimPair};
use crate::reference::{naive_simulates, RefEvaluator, REFERENCE_MAX_PROPS};
use crate::validate::validate_verdict;
use cmc_core::lemmas::lemma6_ax_holds;
use cmc_core::{BackendError, BackendKind, ExplicitBackend, SymbolicBackend, Target, Verdict};
use cmc_ctl::{simulates_explicit, Formula, Restriction};
use cmc_kripke::{Alphabet, SimulationOutcome, System};
use cmc_symbolic::simulates_symbolic;
use std::fmt;

/// A leg's check: [`ExplicitBackend::check`]'s signature.
type Check = dyn Fn(&Target, &Restriction, &Formula) -> Result<Verdict, BackendError> + Send + Sync;

/// One evaluator the oracle runs: a name for reports and a check.
pub struct Leg {
    name: String,
    check: Box<Check>,
}

impl Leg {
    /// A leg named `name` that decides with `check`.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&Target, &Restriction, &Formula) -> Result<Verdict, BackendError>
            + Send
            + Sync
            + 'static,
    ) -> Leg {
        Leg {
            name: name.into(),
            check: Box::new(check),
        }
    }

    /// The explicit backend under `backend`'s limits, named `explicit`.
    pub fn explicit(backend: ExplicitBackend) -> Leg {
        Leg::new("explicit", move |t, r, f| backend.check(t, r, f))
    }

    /// The symbolic backend configured as `backend`.
    pub fn symbolic(name: impl Into<String>, backend: SymbolicBackend) -> Leg {
        Leg::new(name, move |t, r, f| backend.check(t, r, f))
    }
}

/// Every leg's `holds` on one obligation, and the reference's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdicts {
    /// Each leg's name and `holds`, in leg order.
    pub legs: Vec<(String, bool)>,
    /// The reference evaluator's `holds`; `None` where the target is wider
    /// than [`REFERENCE_MAX_PROPS`].
    pub reference: Option<bool>,
}

impl Verdicts {
    /// Do all evaluators say the same?
    pub fn agrees(&self) -> bool {
        let mut all = self
            .legs
            .iter()
            .map(|&(_, holds)| holds)
            .chain(self.reference);
        let first = all.next();
        all.all(|holds| Some(holds) == first)
    }
}

impl fmt::Display for Verdicts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for (name, holds) in &self.legs {
            write!(f, "{sep}{name}={holds}")?;
            sep = " ";
        }
        match self.reference {
            Some(holds) => write!(f, "{sep}reference={holds}"),
            None => Ok(()),
        }
    }
}

/// A confirmed, shrunk disagreement.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Seed that produced the original obligation.
    pub seed: u64,
    /// The verdicts on the shrunk obligation.
    pub verdicts: Verdicts,
    /// The smallest obligation the shrinker found that still disagrees.
    pub shrunk: Obligation,
    /// Every other failed check on it: count mismatches, witness
    /// replays, Lemma 6, differences between symbolic legs.
    pub notes: Vec<String>,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== DIFFERENTIAL DISAGREEMENT ===")?;
        writeln!(f, "verdicts: {}", self.verdicts)?;
        writeln!(f, "formula:  {}", self.shrunk.formula)?;
        writeln!(f, "init:     {}", self.shrunk.restriction.init)?;
        for (i, c) in self.shrunk.restriction.fairness.iter().enumerate() {
            writeln!(f, "fair[{i}]:  {c}")?;
        }
        for (i, m) in self.shrunk.systems.iter().enumerate() {
            let alpha = m.alphabet().names().join(",");
            writeln!(f, "component[{i}] over {{{alpha}}}:")?;
            for (s, t) in m.proper_transitions() {
                let (s, t) = (s.display(m.alphabet()), t.display(m.alphabet()));
                writeln!(f, "  {s} -> {t}")?;
            }
        }
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        writeln!(f, "seed:     {}", self.seed)
    }
}

/// What one oracle run came to; `D` is the disagreement report.
#[derive(Debug)]
pub enum Outcome<D> {
    /// Every evaluator agreed on this `holds` (witnesses replayed).
    Agree(bool),
    /// Somebody is wrong; here is the evidence.
    Disagree(D),
    /// The obligation could not be run (e.g. a backend limit).
    Skipped(String),
}

/// Run every leg and, where the target fits it, the reference; return the
/// verdicts and a note for every other check that failed.
fn check_all(o: &Obligation, legs: &[Leg]) -> Result<(Verdicts, Vec<String>), String> {
    let (r, f) = (&o.restriction, &o.formula);
    let target = Target::composition(o.systems.iter().collect());
    let verdicts = legs
        .iter()
        .map(|leg| (leg.check)(&target, r, f).map_err(|e| format!("{}: {e}", leg.name)))
        .collect::<Result<Vec<Verdict>, String>>()?;
    let mut notes = Vec::new();

    let reference = if target.width() <= REFERENCE_MAX_PROPS {
        let product = target.materialize();
        let reference = RefEvaluator::new(&product).map_err(|e| e.to_string())?;
        let (ref_holds, _) = reference.check(r, f).map_err(|e| e.to_string())?;
        let ref_count = reference
            .sat_count(f, &r.fairness)
            .map_err(|e| e.to_string())?;
        for (leg, v) in legs.iter().zip(&verdicts) {
            if let Some(n) = v.sat_states.filter(|&n| n != ref_count) {
                notes.push(format!(
                    "{} reports {n} satisfying states, reference counts {ref_count}",
                    leg.name
                ));
            }
            // A reported witness must be an I-state refuting f.
            if let Err(err) = validate_verdict(&product, r, f, v) {
                notes.push(format!("{}: {err}", leg.name));
            }
        }
        if let Some(decided) = lemma6_verdict(&product, r, f).filter(|&d| d != ref_holds) {
            notes.push(format!(
                "Lemma 6 decides {decided}, the reference {ref_holds}"
            ));
        }
        Some(ref_holds)
    } else {
        None
    };

    // Image mode, merging, GC and cache bounds change how the symbolic
    // engine computes its sets, never the sets: its legs must agree bit
    // for bit, not only on `holds`.
    let mut symbolic = legs
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| v.stats.backend == BackendKind::Symbolic);
    if let Some((first, base)) = symbolic.next() {
        for (leg, v) in symbolic {
            if v.violating != base.violating {
                notes.push(format!(
                    "{} and {} witness sets differ",
                    leg.name, first.name
                ));
            }
            if v.sat_states != base.sat_states {
                notes.push(format!(
                    "{} counts {:?} satisfying states, {} {:?}",
                    leg.name, v.sat_states, first.name, base.sat_states
                ));
            }
        }
    }

    let legs = legs.iter().zip(&verdicts);
    let verdicts = Verdicts {
        legs: legs.map(|(leg, v)| (leg.name.clone(), v.holds)).collect(),
        reference,
    };
    Ok((verdicts, notes))
}

/// Lemma 6's verdict on a trivially restricted `p ⇒ AX q` with
/// propositional `p` and `q`, decided from the moves alone; `None` for
/// any other obligation.
fn lemma6_verdict(product: &System, r: &Restriction, f: &Formula) -> Option<bool> {
    let Formula::Implies(p, next) = f else {
        return None;
    };
    let Formula::Ax(q) = next.as_ref() else {
        return None;
    };
    (r.is_trivial() && p.is_propositional() && q.is_propositional())
        .then(|| lemma6_ax_holds(product, &Alphabet::empty(), p, q))
}

fn disagrees(o: &Obligation, legs: &[Leg]) -> bool {
    check_all(o, legs).is_ok_and(|(v, notes)| !v.agrees() || !notes.is_empty())
}

/// Immediate subformulas of `f` (shrinking candidates).
fn subformulas(f: &Formula) -> Vec<Formula> {
    use Formula::*;
    match f {
        True | False | Ap(_) => vec![],
        Not(g) | Ex(g) | Ax(g) | Ef(g) | Af(g) | Eg(g) | Ag(g) => vec![(**g).clone()],
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) | Eu(a, b) | Au(a, b) => {
            vec![(**a).clone(), (**b).clone()]
        }
    }
}

/// The restrictions one shrinking step can reach by dropping one fairness
/// constraint. `Restriction::new` puts `true` back into an empty set, so
/// dropping the last constraint of `{true}` gives the same restriction;
/// that candidate is left out, or a split under it would count as
/// progress on every pass and the shrinker would never return.
fn fewer_fairness(r: &Restriction) -> Vec<Restriction> {
    (0..r.fairness.len())
        .map(|i| {
            let mut fair = r.fairness.clone();
            fair.remove(i);
            Restriction::new(r.init.clone(), fair)
        })
        .filter(|smaller| smaller != r)
        .collect()
}

fn without_transition(m: &System, skip: usize) -> System {
    let mut out = System::new(m.alphabet().clone());
    for (i, (s, t)) in m.proper_transitions().enumerate() {
        if i != skip {
            out.add_transition(s, t);
        }
    }
    out
}

/// The obligations one shrinking step reaches from `o`, in the order the
/// shrinker tries them: merging two adjacent components, replacing the
/// formula by a subformula, dropping a fairness constraint, widening init
/// to `true`, and deleting one transition.
fn smaller(o: &Obligation) -> impl Iterator<Item = Obligation> + '_ {
    let edit = move |change: &dyn Fn(&mut Obligation)| {
        let mut c = o.clone();
        change(&mut c);
        c
    };
    // `compose` pads every move with each valuation of the other side's
    // private propositions, so merges stop at the reference's width:
    // coarsening a wide obligation to one component would build its
    // exponential product.
    let coarser = (1..o.systems.len())
        .filter(|&i| {
            let (a, b) = (o.systems[i - 1].alphabet(), o.systems[i].alphabet());
            a.union(b).len() <= REFERENCE_MAX_PROPS
        })
        .map(move |i| {
            edit(&|c| {
                c.systems[i - 1] = c.systems[i - 1].compose(&c.systems[i]);
                c.systems.remove(i);
            })
        });
    let formulas = subformulas(&o.formula)
        .into_iter()
        .map(move |g| edit(&|c| c.formula = g.clone()));
    let restrictions = fewer_fairness(&o.restriction)
        .into_iter()
        .chain(
            (o.restriction.init != Formula::True)
                .then(|| Restriction::new(Formula::True, o.restriction.fairness.clone())),
        )
        .map(move |r| edit(&|c| c.restriction = r.clone()));
    let transitions = o.systems.iter().enumerate().flat_map(move |(si, m)| {
        (0..m.proper_transitions().count())
            .map(move |ti| edit(&|c| c.systems[si] = without_transition(&c.systems[si], ti)))
    });
    coarser
        .chain(formulas)
        .chain(restrictions)
        .chain(transitions)
}

/// Greedily shrink `o` while `legs` and the reference still disagree on
/// it: take the first smaller obligation that disagrees, in the order
/// partition coarsening, subformulas, fairness, init, single transitions,
/// until none does. A split that survives coarsening down to one component
/// does not depend on the partition; one that vanishes points at the
/// partition handling.
pub fn shrink(o: &Obligation, legs: &[Leg]) -> Obligation {
    let mut cur = o.clone();
    loop {
        let next = smaller(&cur).find(|c| disagrees(c, legs));
        match next {
            Some(next) => cur = next,
            None => return cur,
        }
    }
}

/// Run `o` through `legs` (at least one) and the reference, shrinking on
/// any disagreement.
pub fn run_obligation(o: &Obligation, legs: &[Leg]) -> Outcome<Box<Disagreement>> {
    match check_all(o, legs) {
        Err(e) => Outcome::Skipped(e),
        Ok((v, notes)) if v.agrees() && notes.is_empty() => Outcome::Agree(v.legs[0].1),
        Ok(_) => {
            let shrunk = shrink(o, legs);
            let (verdicts, notes) =
                check_all(&shrunk, legs).expect("the shrinker keeps only obligations that run");
            Outcome::Disagree(Box::new(Disagreement {
                seed: o.seed,
                verdicts,
                shrunk,
                notes,
            }))
        }
    }
}

/// Run one `(concrete, abstraction)` pair through the explicit worklist
/// checker, the symbolic BDD checker, and the naïve quadratic reference.
///
/// Agreement demands more than matching booleans: on `Holds` all three
/// must report the same greatest-simulation size; on `Fails` each
/// production counterexample state must be genuinely partnerless in the
/// reference relation; and a verdict known by construction
/// ([`SimPair::expected`]) must match.
pub fn run_sim_pair(p: &SimPair) -> Outcome<String> {
    let naive = match naive_simulates(&p.concrete, &p.abstraction) {
        Ok(n) => n,
        Err(e) => return Outcome::Skipped(e.to_string()),
    };
    let explicit = match simulates_explicit(&p.concrete, &p.abstraction) {
        Ok(o) => o,
        Err(e) => return Outcome::Skipped(e.to_string()),
    };
    let symbolic = simulates_symbolic(&p.concrete, &p.abstraction);

    let mut problems = Vec::new();
    if let Some(expected) = p.expected {
        if naive.holds != expected {
            problems.push(format!(
                "pair holds by construction ({:?}) but the reference says {}",
                p.kind, naive.holds
            ));
        }
    }
    for (name, out) in [("explicit", &explicit), ("symbolic", &symbolic)] {
        if out.holds() != naive.holds {
            problems.push(format!(
                "{name} says {}, reference says {}",
                out.holds(),
                naive.holds
            ));
            continue;
        }
        match out {
            SimulationOutcome::Holds { pairs } => {
                if *pairs != naive.pairs {
                    problems.push(format!(
                        "{name} counts {pairs} simulation pairs, reference counts {}",
                        naive.pairs
                    ));
                }
            }
            SimulationOutcome::Fails(cx) => {
                if naive.has_partner(cx.state) {
                    problems.push(format!(
                        "{name} blames {}, but that state has a partner in the reference relation",
                        cx.state.display(p.concrete.alphabet())
                    ));
                }
            }
        }
    }

    if problems.is_empty() {
        return Outcome::Agree(naive.holds);
    }
    let mut report = String::new();
    use std::fmt::Write;
    let _ = writeln!(report, "=== SIMULATION DISAGREEMENT ===");
    let _ = writeln!(report, "kind: {:?}", p.kind);
    for pr in &problems {
        let _ = writeln!(report, "problem: {pr}");
    }
    for (label, m) in [("concrete", &p.concrete), ("abstraction", &p.abstraction)] {
        let alpha = m.alphabet().names().join(",");
        let _ = writeln!(report, "{label} over {{{alpha}}}:");
        for (s, t) in m.proper_transitions() {
            let _ = writeln!(
                report,
                "  {} -> {}",
                s.display(m.alphabet()),
                t.display(m.alphabet())
            );
        }
    }
    let _ = writeln!(report, "replay: cmc-testkit -- --sim 1 --seed {}", p.seed);
    Outcome::Disagree(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_obligation, gen_sim_pair, gen_wide_obligation};
    use crate::{corpus_seeds, SEED_CORPUS};
    use cmc_ctl::ExplicitLimits;

    /// The explicit backend and the default symbolic backend.
    fn engine_legs() -> Vec<Leg> {
        vec![
            Leg::explicit(ExplicitBackend::default()),
            Leg::symbolic("symbolic", SymbolicBackend::default()),
        ]
    }

    fn has_ax(f: &Formula) -> bool {
        matches!(f, Formula::Ax(_)) || subformulas(f).iter().any(has_ax)
    }

    fn is_subformula(g: &Formula, f: &Formula) -> bool {
        g == f || subformulas(f).iter().any(|s| is_subformula(g, s))
    }

    #[test]
    fn three_way_simulation_agreement_on_two_hundred_pairs() {
        let mut agreed = 0usize;
        let mut holds = 0usize;
        let mut fails = 0usize;
        let mut seed = 0u64;
        while agreed < 200 {
            assert!(
                seed < 400,
                "too many skips: only {agreed} agreements in 400 seeds"
            );
            match run_sim_pair(&gen_sim_pair(seed)) {
                Outcome::Agree(h) => {
                    agreed += 1;
                    if h {
                        holds += 1;
                    } else {
                        fails += 1;
                    }
                }
                Outcome::Skipped(_) => {}
                Outcome::Disagree(d) => panic!("seed {seed} disagreed:\n{d}"),
            }
            seed += 1;
        }
        // The corpus must exercise both verdicts, not just the easy one.
        assert!(holds >= 50, "only {holds} holding pairs in {agreed}");
        assert!(fails >= 20, "only {fails} failing pairs in {agreed}");
    }

    #[test]
    fn small_corpus_agrees() {
        let legs = engine_legs();
        for seed in 0..40 {
            match run_obligation(&gen_obligation(seed), &legs) {
                Outcome::Agree(_) | Outcome::Skipped(_) => {}
                Outcome::Disagree(d) => panic!("seed {seed} disagreed:\n{d}"),
            }
        }
    }

    #[test]
    fn wide_corpus_agrees_past_the_dense_width() {
        // A tighter budget than the production default: an oracle corpus
        // wants many small cross-checks, and a seed whose reachable
        // fragment runs away is better skipped in milliseconds than
        // enumerated for minutes.
        let limits = ExplicitLimits {
            max_states: Some(1 << 16),
            ..ExplicitLimits::default()
        };
        // The point is the arbitrary-width path: a dense run would test
        // the wrong kernel.
        let reachable_only = Leg::new("explicit", move |t, r, f| {
            let v = ExplicitBackend::with_limits(limits).check(t, r, f)?;
            assert!(
                v.stats.reachable_states.is_some_and(|n| n >= 1),
                "the explicit leg ran dense on a {}-proposition target",
                t.width()
            );
            Ok(v)
        });
        let legs = [
            reachable_only,
            Leg::symbolic("symbolic", SymbolicBackend::default()),
        ];
        // Agreements per arc family (seed % 3): shrinking, minting, mixed.
        let mut agreed = [0usize; 3];
        let mut skipped = 0usize;
        let mut seed = 0u64;
        // Non-monotone (minting/mixed) seeds may blow the reachable-state
        // budget and skip honestly, so run seeds until every family has
        // real cross-checked coverage.
        while agreed.iter().any(|&a| a < 5) {
            assert!(
                seed < 120,
                "too many skips: {agreed:?} agreements per family in 120 \
                 wide seeds ({skipped} skipped)"
            );
            match run_obligation(&gen_wide_obligation(seed, 26), &legs) {
                Outcome::Agree(_) => agreed[(seed % 3) as usize] += 1,
                Outcome::Skipped(why) => {
                    println!("seed {seed} skipped: {why}");
                    skipped += 1;
                }
                Outcome::Disagree(d) => panic!("seed {seed} disagreed:\n{d}"),
            }
            seed += 1;
        }
        assert!(
            agreed.iter().sum::<usize>() >= 15,
            "only {agreed:?} agreements ({skipped} skipped)"
        );
    }

    #[test]
    fn fairness_shrinking_never_repeats_the_restriction() {
        assert!(fewer_fairness(&Restriction::trivial()).is_empty());
        let (a, b) = (Formula::ap("a"), Formula::ap("b"));
        let r = Restriction::new(Formula::True, [a.clone(), b.clone()]);
        assert_eq!(
            fewer_fairness(&r),
            vec![
                Restriction::new(Formula::True, [b]),
                Restriction::new(Formula::True, [a.clone()]),
            ]
        );
        let init = Formula::ap("i");
        assert_eq!(
            fewer_fairness(&Restriction::new(init.clone(), [a])),
            vec![Restriction::with_init(init)]
        );
    }

    #[test]
    fn shrinking_prefers_subformulas() {
        // On an agreeing obligation no smaller one disagrees, so the
        // shrinker returns it unchanged.
        let o = gen_obligation(3);
        let s = shrink(&o, &engine_legs());
        assert_eq!(s.formula, o.formula);
    }

    /// A leg that negates `holds` on every formula with an `AX` is named
    /// in the report, and the shrinker strips everything the fault does
    /// not depend on: the other operators, the transitions, the
    /// restriction.
    #[test]
    fn a_planted_holds_fault_is_named_and_shrunk_to_its_operator() {
        let mut legs = engine_legs();
        legs.push(Leg::new("negates-ax", |t, r, f| {
            let mut v = SymbolicBackend::default().check(t, r, f)?;
            v.holds ^= has_ax(f);
            Ok(v)
        }));
        let o = corpus_seeds(SEED_CORPUS)
            .into_iter()
            .map(gen_obligation)
            .find(|o| has_ax(&o.formula))
            .expect("a corpus formula with AX");
        let Outcome::Disagree(d) = run_obligation(&o, &legs) else {
            panic!("seed {}: the planted leg went unnoticed", o.seed);
        };
        let reference = d.verdicts.reference.expect("narrow target");
        let odd: Vec<&str> = (d.verdicts.legs.iter())
            .filter(|&&(_, holds)| holds != reference)
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(odd, ["negates-ax"], "{d}");
        assert!(has_ax(&d.shrunk.formula), "{d}");
        assert!(is_subformula(&d.shrunk.formula, &o.formula), "{d}");
        let moves = d.shrunk.systems.iter();
        assert_eq!(
            moves.map(|m| m.proper_transitions().count()).sum::<usize>(),
            0,
            "{d}"
        );
        assert_eq!(d.shrunk.restriction, Restriction::trivial(), "{d}");
        assert!(matches!(
            run_obligation(&d.shrunk, &legs),
            Outcome::Disagree(_)
        ));
    }

    /// A leg that drops the last of two or more violating states keeps
    /// `holds` and every witness it reports valid; only the comparison
    /// between symbolic legs catches it.
    #[test]
    fn a_planted_witness_fault_is_caught_across_legs() {
        let mut legs = engine_legs();
        legs.push(Leg::new("drops-witness", |t, r, f| {
            let mut v = SymbolicBackend::default().check(t, r, f)?;
            if v.violating.len() >= 2 {
                v.violating.pop();
            }
            Ok(v)
        }));
        let o = corpus_seeds(SEED_CORPUS)
            .into_iter()
            .map(gen_obligation)
            .find(|o| {
                let target = Target::composition(o.systems.iter().collect());
                let v = SymbolicBackend::default().check(&target, &o.restriction, &o.formula);
                v.is_ok_and(|v| v.violating.len() >= 2)
            })
            .expect("a corpus obligation with two violating states");
        let Outcome::Disagree(d) = run_obligation(&o, &legs) else {
            panic!("seed {}: the planted leg went unnoticed", o.seed);
        };
        assert!(d.verdicts.agrees(), "{d}");
        assert!(d.notes.iter().any(|n| n.contains("drops-witness")), "{d}");
    }
}
