//! The three-way differential oracle.
//!
//! Every obligation runs through the explicit backend, the symbolic
//! backend, and the independent [`RefEvaluator`] written straight from
//! the paper's restriction semantics. A 2-vs-1 split is a bug in
//! *somebody*; the oracle shrinks the obligation to a minimal disagreeing
//! pair and reports it with a replayable seed. A trivially restricted
//! `p ⇒ AX q` is also decided by Lemma 6 ([`lemma6_ax_holds`], the
//! decision the proof engine takes on component obligations), and a
//! Lemma-6 verdict that splits from the reference is a disagreement too.
//!
//! The three-way oracle stays beside the five-way one
//! ([`run_quad_obligation`]) because its symbolic leg takes a
//! [`SymbolicBackend`] chosen by the caller (GC schedule, cache bound):
//! `tests/gc_conformance.rs` and `partition_conformance`'s
//! forced-maintenance test need that, while the five-way oracle fixes its
//! five legs.

use crate::gen::{Obligation, SimPair};
use crate::reference::{naive_simulates, RefEvaluator};
use crate::validate::{validate_verdict, ValidationError};
use cmc_core::lemmas::lemma6_ax_holds;
use cmc_core::{BackendError, ExplicitBackend, SymbolicBackend, Target};
use cmc_ctl::{simulates_explicit, Formula, Restriction};
use cmc_kripke::{Alphabet, SimulationOutcome, System};
use cmc_symbolic::{simulates_symbolic, ImageMode};
use std::fmt;

/// The three verdicts for one obligation, in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleVerdict {
    /// The explicit backend's `holds`.
    pub explicit: bool,
    /// The symbolic backend's `holds`.
    pub symbolic: bool,
    /// The reference evaluator's `holds`.
    pub reference: bool,
}

impl TripleVerdict {
    /// Do all three evaluators agree?
    pub fn agrees(&self) -> bool {
        self.explicit == self.symbolic && self.symbolic == self.reference
    }
}

/// A confirmed, shrunk disagreement between the evaluators.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Seed that produced the original obligation.
    pub seed: u64,
    /// The verdict split on the *shrunk* obligation.
    pub verdicts: TripleVerdict,
    /// The shrunk minimal obligation still exhibiting the split.
    pub shrunk: Obligation,
    /// Ancillary detail (witness-replay failures, count mismatches).
    pub notes: Vec<String>,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== DIFFERENTIAL DISAGREEMENT ===")?;
        writeln!(
            f,
            "verdicts: explicit={} symbolic={} reference={}",
            self.verdicts.explicit, self.verdicts.symbolic, self.verdicts.reference
        )?;
        writeln!(f, "formula:  {}", self.shrunk.formula)?;
        writeln!(f, "init:     {}", self.shrunk.restriction.init)?;
        for (i, c) in self.shrunk.restriction.fairness.iter().enumerate() {
            writeln!(f, "fair[{i}]:  {c}")?;
        }
        for (i, m) in self.shrunk.systems.iter().enumerate() {
            let alpha = m.alphabet().names().join(",");
            writeln!(f, "system[{i}] over {{{alpha}}}:")?;
            for (s, t) in m.proper_transitions() {
                writeln!(
                    f,
                    "  {} -> {}",
                    s.display(m.alphabet()),
                    t.display(m.alphabet())
                )?;
            }
        }
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        writeln!(
            f,
            "replay:   cargo run -p cmc-testkit -- --seed {}",
            self.seed
        )
    }
}

/// Outcome of running one obligation through the oracle.
#[derive(Debug)]
pub enum OracleOutcome {
    /// All three evaluators agree (and every witness replayed cleanly).
    Agree(TripleVerdict),
    /// Somebody is wrong; here is the shrunk evidence.
    Disagree(Box<Disagreement>),
    /// The obligation could not be run (e.g. backend limit) — skipped.
    Skipped(String),
}

fn check_three(
    systems: &[System],
    r: &Restriction,
    f: &Formula,
    sym: SymbolicBackend,
) -> Result<(TripleVerdict, Vec<String>), String> {
    let target = Target::composition(systems.iter().collect());
    let explicit = ExplicitBackend::default()
        .check(&target, r, f)
        .map_err(|e: BackendError| e.to_string())?;
    let symbolic = sym.check(&target, r, f).map_err(|e| e.to_string())?;

    let product = target.materialize();
    let reference = RefEvaluator::new(&product).map_err(|e| e.to_string())?;
    let (ref_holds, _ref_violating) = reference.check(r, f).map_err(|e| e.to_string())?;

    let mut notes = Vec::new();

    // Exact satisfying-state counts must match the reference wherever a
    // backend offers one.
    let ref_count = reference
        .sat_count(f, &r.fairness)
        .map_err(|e| e.to_string())?;
    for v in [&explicit, &symbolic] {
        if let Some(n) = v.sat_states {
            if n != ref_count {
                notes.push(format!(
                    "{} reports {} satisfying states, reference counts {}",
                    v.stats.backend.name(),
                    n,
                    ref_count
                ));
            }
        }
    }

    // Replay each backend's violating witnesses against the reference
    // semantics: a reported witness must be an I-state refuting f.
    for v in [&explicit, &symbolic] {
        if let Err(err) = validate_verdict(&product, r, f, v) {
            notes.push(format!("{}: {}", v.stats.backend.name(), err));
        }
    }

    // Lemma 6 decides a trivially restricted p ⇒ AX q from the moves alone.
    if let Formula::Implies(p, next) = f {
        if let Formula::Ax(q) = next.as_ref() {
            if r.is_trivial() && p.is_propositional() && q.is_propositional() {
                let decided = lemma6_ax_holds(&product, &Alphabet::empty(), p, q);
                if decided != ref_holds {
                    notes.push(format!(
                        "Lemma 6 decides {decided}, the reference {ref_holds}"
                    ));
                }
            }
        }
    }

    Ok((
        TripleVerdict {
            explicit: explicit.holds,
            symbolic: symbolic.holds,
            reference: ref_holds,
        },
        notes,
    ))
}

fn is_buggy(systems: &[System], r: &Restriction, f: &Formula, sym: SymbolicBackend) -> bool {
    match check_three(systems, r, f, sym) {
        Ok((v, notes)) => !v.agrees() || !notes.is_empty(),
        Err(_) => false,
    }
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

/// Greedily shrink `o` while the three-way split persists. Each pass
/// tries, in order: replacing the formula by a subformula, dropping a
/// fairness constraint, widening init to `True`, and deleting single
/// transitions; passes repeat until a fixpoint.
pub fn shrink(o: &Obligation) -> Obligation {
    shrink_with(o, SymbolicBackend::default())
}

/// [`shrink`] with a specific symbolic-backend configuration — the
/// shrinking predicate re-checks with the same engine setup, so a split
/// that only appears under e.g. forced maintenance keeps reproducing as
/// the obligation shrinks.
pub fn shrink_with(o: &Obligation, sym: SymbolicBackend) -> Obligation {
    let mut cur = o.clone();
    loop {
        let mut progressed = false;

        for sub in subformulas(&cur.formula) {
            if is_buggy(&cur.systems, &cur.restriction, &sub, sym) {
                cur.formula = sub;
                progressed = true;
                break;
            }
        }

        for r in fewer_fairness(&cur.restriction) {
            if is_buggy(&cur.systems, &r, &cur.formula, sym) {
                cur.restriction = r;
                progressed = true;
                break;
            }
        }

        if cur.restriction.init != Formula::True {
            let r = Restriction::new(Formula::True, cur.restriction.fairness.clone());
            if is_buggy(&cur.systems, &r, &cur.formula, sym) {
                cur.restriction = r;
                progressed = true;
            }
        }

        'systems: for si in 0..cur.systems.len() {
            let n_trans = cur.systems[si].proper_transitions().count();
            for ti in 0..n_trans {
                let mut systems = cur.systems.clone();
                systems[si] = without_transition(&systems[si], ti);
                if is_buggy(&systems, &cur.restriction, &cur.formula, sym) {
                    cur.systems = systems;
                    progressed = true;
                    break 'systems;
                }
            }
        }

        if !progressed {
            return cur;
        }
    }
}

/// Run one obligation through all three evaluators, cross-validating
/// witnesses, shrinking on any disagreement.
pub fn run_obligation(o: &Obligation) -> OracleOutcome {
    run_obligation_with(o, SymbolicBackend::default())
}

/// [`run_obligation`] with a specific symbolic-backend configuration
/// (maintenance policy, cache bound) — the lever the memory-kernel
/// conformance suite uses to prove GC schedules are verdict-invariant.
pub fn run_obligation_with(o: &Obligation, sym: SymbolicBackend) -> OracleOutcome {
    match check_three(&o.systems, &o.restriction, &o.formula, sym) {
        Err(e) => OracleOutcome::Skipped(e),
        Ok((v, notes)) if v.agrees() && notes.is_empty() => OracleOutcome::Agree(v),
        Ok(_) => {
            let shrunk = shrink_with(o, sym);
            let (verdicts, notes) =
                check_three(&shrunk.systems, &shrunk.restriction, &shrunk.formula, sym)
                    .unwrap_or_else(|e| {
                        (
                            TripleVerdict {
                                explicit: false,
                                symbolic: false,
                                reference: false,
                            },
                            vec![format!("shrunk obligation failed to re-run: {e}")],
                        )
                    });
            OracleOutcome::Disagree(Box::new(Disagreement {
                seed: o.seed,
                verdicts,
                shrunk,
                notes,
            }))
        }
    }
}

/// The verdicts of the partition-conformance oracle, in a fixed order:
/// unmerged symbolic (the scheduled executor with one cluster per
/// disjunctive part, [`SymbolicBackend::unmerged`]), scheduled symbolic
/// (the default plan: cost-driven cluster merging and ordering),
/// monolithic symbolic (the memoised product relation), explicit (the
/// serial frontier kernel), and the naïve reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadVerdict {
    /// Unmerged-plan symbolic backend's `holds`.
    pub unmerged: bool,
    /// Scheduled-image symbolic backend's `holds`.
    pub scheduled: bool,
    /// Monolithic-image symbolic backend's `holds`.
    pub monolithic: bool,
    /// Explicit backend's `holds`.
    pub explicit: bool,
    /// The reference evaluator's `holds`.
    pub reference: bool,
}

impl QuadVerdict {
    /// Do all evaluators agree?
    pub fn agrees(&self) -> bool {
        self.unmerged == self.scheduled
            && self.scheduled == self.monolithic
            && self.monolithic == self.explicit
            && self.explicit == self.reference
    }
}

/// A confirmed, shrunk five-way disagreement.
#[derive(Debug, Clone)]
pub struct QuadDisagreement {
    /// Seed that produced the original obligation.
    pub seed: u64,
    /// The verdict split on the *shrunk* obligation.
    pub verdicts: QuadVerdict,
    /// The shrunk minimal obligation still exhibiting the split — the
    /// shrinker also *coarsens the partition* (merging adjacent
    /// components), so the report shows the fewest components that still
    /// disagree.
    pub shrunk: Obligation,
    /// Ancillary detail (witness-replay failures, count mismatches).
    pub notes: Vec<String>,
}

impl fmt::Display for QuadDisagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== PARTITION-CONFORMANCE DISAGREEMENT ===")?;
        writeln!(
            f,
            "verdicts: unmerged={} scheduled={} monolithic={} explicit={} reference={}",
            self.verdicts.unmerged,
            self.verdicts.scheduled,
            self.verdicts.monolithic,
            self.verdicts.explicit,
            self.verdicts.reference
        )?;
        writeln!(f, "formula:  {}", self.shrunk.formula)?;
        writeln!(f, "init:     {}", self.shrunk.restriction.init)?;
        for (i, c) in self.shrunk.restriction.fairness.iter().enumerate() {
            writeln!(f, "fair[{i}]:  {c}")?;
        }
        for (i, m) in self.shrunk.systems.iter().enumerate() {
            let alpha = m.alphabet().names().join(",");
            writeln!(f, "component[{i}] over {{{alpha}}}:")?;
            for (s, t) in m.proper_transitions() {
                writeln!(
                    f,
                    "  {} -> {}",
                    s.display(m.alphabet()),
                    t.display(m.alphabet())
                )?;
            }
        }
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        writeln!(
            f,
            "replay:   cargo run -p cmc-testkit -- --partition --seed {}",
            self.seed
        )
    }
}

/// Outcome of running one obligation through the five-way oracle.
#[derive(Debug)]
pub enum QuadOutcome {
    /// All five evaluators agree (counts and witnesses cross-validated).
    Agree(QuadVerdict),
    /// Somebody is wrong; here is the shrunk evidence.
    Disagree(Box<QuadDisagreement>),
    /// The obligation could not be run (e.g. backend limit) — skipped.
    Skipped(String),
}

fn check_four(
    systems: &[System],
    r: &Restriction,
    f: &Formula,
) -> Result<(QuadVerdict, Vec<String>), String> {
    let target = Target::composition(systems.iter().collect());
    let unmerged = SymbolicBackend::default()
        .unmerged()
        .check(&target, r, f)
        .map_err(|e| e.to_string())?;
    let scheduled = SymbolicBackend::default()
        .check(&target, r, f)
        .map_err(|e| e.to_string())?;
    let monolithic = SymbolicBackend::default()
        .with_image_mode(ImageMode::Monolithic)
        .check(&target, r, f)
        .map_err(|e| e.to_string())?;
    let explicit = ExplicitBackend::default()
        .check(&target, r, f)
        .map_err(|e: BackendError| e.to_string())?;

    let product = target.materialize();
    let reference = RefEvaluator::new(&product).map_err(|e| e.to_string())?;
    let (ref_holds, _) = reference.check(r, f).map_err(|e| e.to_string())?;

    let mut notes = Vec::new();
    let ref_count = reference
        .sat_count(f, &r.fairness)
        .map_err(|e| e.to_string())?;
    for (name, v) in [
        ("unmerged", &unmerged),
        ("scheduled", &scheduled),
        ("monolithic", &monolithic),
        ("explicit", &explicit),
    ] {
        if let Some(n) = v.sat_states {
            if n != ref_count {
                notes.push(format!(
                    "{name} reports {n} satisfying states, reference counts {ref_count}"
                ));
            }
        }
        if let Err(err) = validate_verdict(&product, r, f, v) {
            notes.push(format!("{name}: {err}"));
        }
    }

    // The merged plan's verdicts must be *bit-identical* to the unmerged
    // plan's, not merely agree on `holds`.
    if scheduled.violating != unmerged.violating {
        notes.push("scheduled and unmerged witness sets differ".into());
    }
    if scheduled.sat_states != unmerged.sat_states {
        notes.push(format!(
            "scheduled counts {:?} satisfying states, unmerged {:?}",
            scheduled.sat_states, unmerged.sat_states
        ));
    }

    Ok((
        QuadVerdict {
            unmerged: unmerged.holds,
            scheduled: scheduled.holds,
            monolithic: monolithic.holds,
            explicit: explicit.holds,
            reference: ref_holds,
        },
        notes,
    ))
}

fn is_buggy_quad(systems: &[System], r: &Restriction, f: &Formula) -> bool {
    match check_four(systems, r, f) {
        Ok((v, notes)) => !v.agrees() || !notes.is_empty(),
        Err(_) => false,
    }
}

/// Greedily shrink a quad-oracle failure. On top of the passes of
/// [`shrink`] (subformulas, fairness, init, single transitions) this adds
/// **partition coarsening**: merging two adjacent components into their
/// interleaving product. A split that survives coarsening down to one
/// component is an engine bug independent of the partitioning; one that
/// vanishes pinpoints the partition handling itself.
pub fn shrink_quad(o: &Obligation) -> Obligation {
    let mut cur = o.clone();
    loop {
        let mut progressed = false;

        // Coarsen first: fewer components shrink every later pass's
        // search space.
        for i in 0..cur.systems.len().saturating_sub(1) {
            let mut systems = cur.systems.clone();
            let merged = systems[i].compose(&systems[i + 1]);
            systems[i] = merged;
            systems.remove(i + 1);
            if is_buggy_quad(&systems, &cur.restriction, &cur.formula) {
                cur.systems = systems;
                progressed = true;
                break;
            }
        }

        for sub in subformulas(&cur.formula) {
            if is_buggy_quad(&cur.systems, &cur.restriction, &sub) {
                cur.formula = sub;
                progressed = true;
                break;
            }
        }

        for r in fewer_fairness(&cur.restriction) {
            if is_buggy_quad(&cur.systems, &r, &cur.formula) {
                cur.restriction = r;
                progressed = true;
                break;
            }
        }

        if cur.restriction.init != Formula::True {
            let r = Restriction::new(Formula::True, cur.restriction.fairness.clone());
            if is_buggy_quad(&cur.systems, &r, &cur.formula) {
                cur.restriction = r;
                progressed = true;
            }
        }

        'systems: for si in 0..cur.systems.len() {
            let n_trans = cur.systems[si].proper_transitions().count();
            for ti in 0..n_trans {
                let mut systems = cur.systems.clone();
                systems[si] = without_transition(&systems[si], ti);
                if is_buggy_quad(&systems, &cur.restriction, &cur.formula) {
                    cur.systems = systems;
                    progressed = true;
                    break 'systems;
                }
            }
        }

        if !progressed {
            return cur;
        }
    }
}

/// Run one obligation through the five-way partition-conformance oracle,
/// cross-validating counts and witnesses, shrinking (with partition
/// coarsening) on any disagreement.
pub fn run_quad_obligation(o: &Obligation) -> QuadOutcome {
    match check_four(&o.systems, &o.restriction, &o.formula) {
        Err(e) => QuadOutcome::Skipped(e),
        Ok((v, notes)) if v.agrees() && notes.is_empty() => QuadOutcome::Agree(v),
        Ok(_) => {
            let shrunk = shrink_quad(o);
            let (verdicts, notes) =
                check_four(&shrunk.systems, &shrunk.restriction, &shrunk.formula).unwrap_or_else(
                    |e| {
                        (
                            QuadVerdict {
                                unmerged: false,
                                scheduled: false,
                                monolithic: false,
                                explicit: false,
                                reference: false,
                            },
                            vec![format!("shrunk obligation failed to re-run: {e}")],
                        )
                    },
                );
            QuadOutcome::Disagree(Box::new(QuadDisagreement {
                seed: o.seed,
                verdicts,
                shrunk,
                notes,
            }))
        }
    }
}

/// The two verdicts of the wide-composition oracle, in a fixed order.
/// Past the dense-universe width there is no reference evaluator (it
/// materialises `2^Σ`), so the cross-check is the hash-compacted
/// reachable-only explicit kernel against the symbolic engine — two
/// independent implementations of the same restricted semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideVerdict {
    /// The reachable-only explicit kernel's `holds`.
    pub explicit: bool,
    /// The symbolic backend's `holds`.
    pub symbolic: bool,
    /// States the explicit kernel materialised (its interned universe).
    pub reachable_states: u64,
}

impl WideVerdict {
    /// Do the two engines agree?
    pub fn agrees(&self) -> bool {
        self.explicit == self.symbolic
    }
}

/// Outcome of running one wide obligation through the two-way oracle.
#[derive(Debug)]
pub enum WideOutcome {
    /// Both engines agree (and the explicit leg really ran reachable).
    Agree(WideVerdict),
    /// The engines disagree; a rendered report.
    Disagree(String),
    /// The obligation could not be run (e.g. the reachable fragment
    /// exceeded the state budget) — skipped, honestly.
    Skipped(String),
}

/// Run one wide obligation (see
/// [`gen_wide_obligation`](crate::gen::gen_wide_obligation)) through the
/// reachable-only explicit kernel and the symbolic engine. The target must
/// exceed the dense width — the point is to exercise the arbitrary-width
/// path, and a dense run would silently test the wrong kernel.
pub fn run_wide_obligation(o: &Obligation) -> WideOutcome {
    let target = Target::composition(o.systems.iter().collect());
    // A tighter budget than the production default: an oracle corpus wants
    // many small cross-checks, and a seed whose reachable fragment runs
    // away is better skipped in milliseconds than enumerated for minutes.
    let limits = cmc_ctl::ExplicitLimits {
        max_states: Some(1 << 16),
        ..cmc_ctl::ExplicitLimits::default()
    };
    let explicit =
        match ExplicitBackend::with_limits(limits).check(&target, &o.restriction, &o.formula) {
            Ok(v) => v,
            Err(e) => return WideOutcome::Skipped(format!("explicit: {e}")),
        };
    let Some(reachable_states) = explicit.stats.reachable_states else {
        return WideOutcome::Skipped(
            "target fits the dense universe; not a wide obligation".into(),
        );
    };
    let symbolic = match SymbolicBackend::default().check(&target, &o.restriction, &o.formula) {
        Ok(v) => v,
        Err(e) => return WideOutcome::Skipped(format!("symbolic: {e}")),
    };
    let v = WideVerdict {
        explicit: explicit.holds,
        symbolic: symbolic.holds,
        reachable_states,
    };
    if v.agrees() {
        return WideOutcome::Agree(v);
    }
    let mut report = String::new();
    use std::fmt::Write;
    let _ = writeln!(report, "=== WIDE-COMPOSITION DISAGREEMENT ===");
    let _ = writeln!(
        report,
        "verdicts: explicit={} symbolic={} ({} reachable states)",
        v.explicit, v.symbolic, v.reachable_states
    );
    let _ = writeln!(report, "formula:  {}", o.formula);
    let _ = writeln!(report, "init:     {}", o.restriction.init);
    for (i, c) in o.restriction.fairness.iter().enumerate() {
        let _ = writeln!(report, "fair[{i}]:  {c}");
    }
    let _ = writeln!(
        report,
        "stations: {} over {} propositions (seed {})",
        o.systems.len(),
        target.width(),
        o.seed
    );
    WideOutcome::Disagree(report)
}

/// Outcome of running one simulation pair through the three checkers.
#[derive(Debug)]
pub enum SimOracleOutcome {
    /// All three checkers agree (verdict, pair counts, counterexamples
    /// all cross-validated).
    Agree {
        /// The agreed verdict.
        holds: bool,
    },
    /// Somebody is wrong; a rendered report with the replay seed.
    Disagree(String),
    /// The pair was too wide for some checker — skipped.
    Skipped(String),
}

/// Run one `(concrete, abstraction)` pair through the explicit worklist
/// checker, the symbolic BDD checker, and the naïve quadratic reference.
///
/// Agreement demands more than matching booleans: on `Holds` all three
/// must report the same greatest-simulation size; on `Fails` each
/// production counterexample state must be genuinely partnerless in the
/// reference relation; and a verdict known by construction
/// ([`SimPair::expected`]) must match.
pub fn run_sim_pair(p: &SimPair) -> SimOracleOutcome {
    let naive = match naive_simulates(&p.concrete, &p.abstraction) {
        Ok(n) => n,
        Err(e) => return SimOracleOutcome::Skipped(e.to_string()),
    };
    let explicit = match simulates_explicit(&p.concrete, &p.abstraction) {
        Ok(o) => o,
        Err(e) => return SimOracleOutcome::Skipped(e.to_string()),
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
        return SimOracleOutcome::Agree { holds: naive.holds };
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
    SimOracleOutcome::Disagree(report)
}

/// Convenience: re-validate a backend verdict against an independently
/// materialised product (exposed for integration tests).
pub fn revalidate(
    systems: &[System],
    r: &Restriction,
    f: &Formula,
    v: &cmc_core::Verdict,
) -> Result<(), ValidationError> {
    let product = Target::composition(systems.iter().collect()).materialize();
    validate_verdict(&product, r, f, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_obligation, gen_sim_pair, GenConfig};

    #[test]
    fn three_way_simulation_agreement_on_two_hundred_pairs() {
        let cfg = GenConfig::default();
        let mut agreed = 0usize;
        let mut holds = 0usize;
        let mut fails = 0usize;
        let mut seed = 0u64;
        while agreed < 200 {
            assert!(
                seed < 400,
                "too many skips: only {agreed} agreements in 400 seeds"
            );
            let p = gen_sim_pair(seed, &cfg);
            match run_sim_pair(&p) {
                SimOracleOutcome::Agree { holds: h } => {
                    agreed += 1;
                    if h {
                        holds += 1;
                    } else {
                        fails += 1;
                    }
                }
                SimOracleOutcome::Skipped(_) => {}
                SimOracleOutcome::Disagree(d) => panic!("seed {seed} disagreed:\n{d}"),
            }
            seed += 1;
        }
        // The corpus must exercise both verdicts, not just the easy one.
        assert!(holds >= 50, "only {holds} holding pairs in {agreed}");
        assert!(fails >= 20, "only {fails} failing pairs in {agreed}");
    }

    #[test]
    fn small_corpus_agrees() {
        let cfg = GenConfig::default();
        for seed in 0..40 {
            let o = gen_obligation(seed, &cfg);
            match run_obligation(&o) {
                OracleOutcome::Agree(_) | OracleOutcome::Skipped(_) => {}
                OracleOutcome::Disagree(d) => panic!("seed {seed} disagreed:\n{d}"),
            }
        }
    }

    #[test]
    fn wide_corpus_agrees_past_the_dense_width() {
        let cfg = GenConfig::default();
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
            let o = crate::gen::gen_wide_obligation(seed, 26, &cfg);
            match run_wide_obligation(&o) {
                WideOutcome::Agree(v) => {
                    agreed[(seed % 3) as usize] += 1;
                    assert!(v.reachable_states >= 1, "seed {seed}: empty fragment");
                }
                WideOutcome::Skipped(why) => {
                    println!("seed {seed} skipped: {why}");
                    skipped += 1;
                }
                WideOutcome::Disagree(d) => panic!("seed {seed} disagreed:\n{d}"),
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
        // A fabricated "always disagrees" predicate can't be injected
        // without test seams, so just check shrink() is identity on an
        // agreeing obligation.
        let o = gen_obligation(3, &GenConfig::default());
        let s = shrink(&o);
        assert_eq!(s.formula, o.formula);
    }
}
