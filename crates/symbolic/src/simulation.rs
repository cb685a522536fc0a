//! Symbolic simulation checking by BDD relational iteration.
//!
//! Decides `concrete ⊑ abstraction` (the greatest shared-observable
//! simulation of `cmc_kripke::simulation`) without enumerating the pair
//! universe. The pair relation `H(x_C, x_A)` lives over two current-state
//! variable frames — one per system, so shared proposition *names* get
//! distinct BDD variables — and refines by the classic relational step
//!
//! ```text
//! H' = H ∧ ¬∃x_C′ ( R_C(x_C, x_C′) ∧ ¬∃x_A′ ( R*_A(x_A, x_A′) ∧ H(x_C′, x_A′) ) )
//! ```
//!
//! where `R_C` holds only the proper concrete moves (stutters are matched
//! by abstract stutters for free, which `R*_A`'s identity partition
//! provides). The fixpoint is the greatest simulation; `C ⊑ A` iff
//! `∃x_A H` is a tautology over the concrete frame.

use crate::model::{frame_condition, transition_relation};
use cmc_bdd::{Bdd, BddManager, Var};
use cmc_kripke::simulation::{SharedObs, SimulationCx, SimulationOutcome};
use cmc_kripke::{State, System};

/// The four variable frames of a simulation query.
struct Frames {
    c_cur: Vec<Var>,
    c_nxt: Vec<Var>,
    a_cur: Vec<Var>,
    a_nxt: Vec<Var>,
}

impl Frames {
    /// Allocate the frames *interleaved by proposition*: a shared
    /// observable's four variables (and a private bit's two) sit adjacent
    /// in the manager's order. Block-per-frame allocation would put each
    /// `c ↔ a` agreement iff across a `2(n_C)`-variable gap, and a
    /// conjunction of n such long-distance iffs is the textbook
    /// exponential-BDD ordering — H₀ alone would hold `2^n` nodes.
    /// Interleaved, it is linear.
    fn interleaved(mgr: &mut BddManager, obs: &SharedObs, nc: usize, na: usize) -> Frames {
        let mut partner = vec![None; nc];
        for (&ci, &ai) in obs.concrete_pos.iter().zip(&obs.abstract_pos) {
            partner[ci] = Some(ai);
        }
        let mut vars = mgr.new_vars(2 * (nc + na)).into_iter();
        let mut next = || vars.next().expect("allocated exactly 2(nc+na) variables");
        let mut c_cur = vec![None; nc];
        let mut c_nxt = vec![None; nc];
        let mut a_cur = vec![None; na];
        let mut a_nxt = vec![None; na];
        for i in 0..nc {
            c_cur[i] = Some(next());
            c_nxt[i] = Some(next());
            if let Some(j) = partner[i] {
                a_cur[j] = Some(next());
                a_nxt[j] = Some(next());
            }
        }
        for j in 0..na {
            if a_cur[j].is_none() {
                a_cur[j] = Some(next());
                a_nxt[j] = Some(next());
            }
        }
        let strip = |v: Vec<Option<Var>>| v.into_iter().map(|x| x.unwrap()).collect();
        Frames {
            c_cur: strip(c_cur),
            c_nxt: strip(c_nxt),
            a_cur: strip(a_cur),
            a_nxt: strip(a_nxt),
        }
    }
}

/// Decide `concrete ⊑ abstraction` symbolically. Verdict-identical to the
/// definitional and explicit checkers at any width either of them can
/// reach, with no width ceiling of its own.
pub fn simulates_symbolic(concrete: &System, abstraction: &System) -> SimulationOutcome {
    let nc = concrete.alphabet().len();
    let na = abstraction.alphabet().len();
    let mut mgr = BddManager::new();
    let obs = SharedObs::new(concrete.alphabet(), abstraction.alphabet());
    let frames = Frames::interleaved(&mut mgr, &obs, nc, na);

    let rc = transition_relation(&mut mgr, concrete, &frames.c_cur, &frames.c_nxt);
    let ra_proper = transition_relation(&mut mgr, abstraction, &frames.a_cur, &frames.a_nxt);
    let ra_id = frame_condition(
        &mut mgr,
        frames
            .a_cur
            .iter()
            .copied()
            .zip(frames.a_nxt.iter().copied()),
    );
    let ra_star = mgr.or(ra_proper, ra_id);

    // H₀: agreement on the shared observables.
    let mut h = mgr.tru();
    for (&ci, &ai) in obs.concrete_pos.iter().zip(&obs.abstract_pos) {
        let cv = mgr.var(frames.c_cur[ci]);
        let av = mgr.var(frames.a_cur[ai]);
        let agree = mgr.iff(cv, av);
        h = mgr.and(h, agree);
    }

    let rename_map: Vec<(Var, Var)> = frames
        .c_cur
        .iter()
        .zip(&frames.c_nxt)
        .chain(frames.a_cur.iter().zip(&frames.a_nxt))
        .map(|(&c, &n)| (c, n))
        .collect();
    let cube_c_nxt = mgr.cube(&frames.c_nxt);
    let cube_a_nxt = mgr.cube(&frames.a_nxt);
    let cube_a_cur = mgr.cube(&frames.a_cur);

    loop {
        let h_next = mgr.rename(h, &rename_map);
        // matched(x_C′, x_A) = ∃x_A′ (R*_A ∧ H′)
        let matched = mgr.and_exists(ra_star, h_next, cube_a_nxt);
        // bad(x_C, x_A) = ∃x_C′ (R_C ∧ ¬matched)
        let unmatched = mgr.not(matched);
        let bad = mgr.and_exists(rc, unmatched, cube_c_nxt);
        let survives = mgr.not(bad);
        let h_new = mgr.and(h, survives);
        if h_new == h {
            break;
        }
        h = h_new;
    }

    let related = mgr.exists(h, cube_a_cur);
    if related == mgr.tru() {
        let total_vars = 2 * (nc + na);
        let pairs = mgr.sat_count(h, total_vars) / (1u128 << (nc + na)) as f64;
        return SimulationOutcome::Holds {
            pairs: pairs as u64,
        };
    }

    // Counterexample: any concrete state outside ∃x_A H, with the first
    // proper move no surviving pair can track (checked against the final
    // relation, like the explicit worklist's blame).
    let unrelated = mgr.not(related);
    let assignment = mgr
        .any_sat(unrelated)
        .expect("unrelated set is non-empty when the tautology check fails");
    let mut bits = 0u128;
    for (v, b) in &assignment {
        if *b {
            if let Some(i) = frames.c_cur.iter().position(|cv| cv == v) {
                bits |= 1 << i;
            }
        }
    }
    let s = State(bits);
    let in_h = |mgr: &BddManager, h: Bdd, t: State, b: State| -> bool {
        mgr.eval(h, |v| {
            if let Some(i) = frames.c_cur.iter().position(|&cv| cv == v) {
                t.contains(i)
            } else if let Some(j) = frames.a_cur.iter().position(|&av| av == v) {
                b.contains(j)
            } else {
                false
            }
        })
    };
    let transition = concrete.proper_successors(s).find(|&t| {
        // No abstract partner of s can track s → t.
        !abstraction.states().any(|a| {
            obs.agree(s, a)
                && abstraction
                    .successors(a)
                    .iter()
                    .any(|&b| in_h(&mgr, h, t, b))
        })
    });
    SimulationOutcome::Fails(SimulationCx {
        state: s,
        transition: transition.map(|t| (s, t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_kripke::simulation::simulates;
    use cmc_kripke::Alphabet;

    fn toggler(name: &str) -> System {
        let mut m = System::new(Alphabet::new([name]));
        m.add_transition_named(&[], &[name]);
        m.add_transition_named(&[name], &[]);
        m
    }

    #[test]
    fn verdicts_match_the_definitional_checker() {
        let c = toggler("x");
        let mut riser = System::new(Alphabet::new(["x"]));
        riser.add_transition_named(&[], &["x"]);
        for (concrete, abstraction) in [(&c, &c), (&c, &riser), (&riser, &c)] {
            let sym = simulates_symbolic(concrete, abstraction);
            let def = simulates(concrete, abstraction);
            assert_eq!(sym.holds(), def.holds());
            if let (
                SimulationOutcome::Holds { pairs: p1 },
                SimulationOutcome::Holds { pairs: p2 },
            ) = (&sym, &def)
            {
                assert_eq!(p1, p2);
            }
        }
    }

    #[test]
    fn wide_projection_is_simulated() {
        // 30 propositions: far beyond the explicit pair limit.
        let names: Vec<String> = (0..30).map(|i| format!("p{i}")).collect();
        let mut m = System::new(Alphabet::new(names.clone()));
        for i in 0..29 {
            m.add_transition(State(0), State(0).with(i, true));
        }
        let keep = Alphabet::new(names[..3].to_vec());
        let a = m.project(&keep);
        assert!(simulates_symbolic(&m, &a).holds());
    }

    #[test]
    fn failing_counterexample_is_a_real_unrelated_state() {
        let c = toggler("x");
        let mut a = System::new(Alphabet::new(["x"]));
        a.add_transition_named(&[], &["x"]);
        let out = simulates_symbolic(&c, &a);
        let cx = out.counterexample().expect("toggler ⋢ riser");
        // The definitional checker agrees the state is unrelated.
        let def = simulates(&c, &a);
        assert_eq!(def.counterexample().unwrap().state, cx.state);
    }
}
