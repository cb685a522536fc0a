//! Explicit-state simulation checking over the CSR kernel.
//!
//! Decides `concrete ⊑ abstraction` (the greatest shared-observable
//! simulation of `cmc_kripke::simulation`) with the same machinery the
//! frontier CTL kernel uses: concrete proper transitions come from a
//! one-time [`CsrIndex`], the pair relation lives in one flat bitset over
//! the `2^|Σ_C| × 2^|Σ_A|` pair universe, and refinement runs as a
//! backwards worklist — when a pair is struck, only the pairs that could
//! have depended on it are re-examined, so the fixpoint never rescans the
//! whole relation per iteration.

use crate::csr::CsrIndex;
use cmc_kripke::simulation::{SharedObs, SimulationCx, SimulationOutcome};
use cmc_kripke::{State, System};
use std::fmt;

/// Widest combined `|Σ_C| + |Σ_A|` the explicit simulation checker
/// accepts (the pair universe is `2^(|Σ_C|+|Σ_A|)` bits).
pub const MAX_SIM_PAIR_PROPS: usize = crate::limits::ExplicitLimits::DEFAULT_DENSE_BITS;

/// Errors from the explicit simulation checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The pair universe exceeds the explicit limit.
    TooLarge {
        /// `|Σ_C| + |Σ_A|`.
        props: usize,
        /// The checker's limit.
        limit: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooLarge { props, limit } => write!(
                f,
                "combined simulation alphabet of {props} propositions exceeds \
                 the explicit limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// One word-packed bitset over the pair universe.
struct PairSet {
    words: Vec<u64>,
}

impl PairSet {
    fn new(len: usize) -> Self {
        PairSet {
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// Decide `concrete ⊑ abstraction` explicitly. Returns the same
/// [`SimulationOutcome`] the definitional checker produces (verdict,
/// greatest-relation size, counterexample with the offending move).
pub fn simulates_explicit(
    concrete: &System,
    abstraction: &System,
) -> Result<SimulationOutcome, SimError> {
    let nc_bits = concrete.alphabet().len();
    let na_bits = abstraction.alphabet().len();
    let props = nc_bits + na_bits;
    if props > MAX_SIM_PAIR_PROPS {
        return Err(SimError::TooLarge {
            props,
            limit: MAX_SIM_PAIR_PROPS,
        });
    }
    let nc = 1usize << nc_bits;
    let na = 1usize << na_bits;
    let obs = SharedObs::new(concrete.alphabet(), abstraction.alphabet());
    let csr = CsrIndex::from_system(concrete);
    let acsr = CsrIndex::from_system(abstraction);

    // Pair index: p = s * na + a. H₀ = label agreement; bucket the
    // abstract states by observation so initialisation is O(nc + na + |H₀|).
    let mut abs_by_obs: std::collections::HashMap<u128, Vec<u32>> =
        std::collections::HashMap::new();
    for a in 0..na {
        abs_by_obs
            .entry(obs.observe_abstract(State(a as u128)))
            .or_default()
            .push(a as u32);
    }
    let mut rel = PairSet::new(nc * na);
    for s in 0..nc {
        if let Some(partners) = abs_by_obs.get(&obs.observe_concrete(State(s as u128))) {
            for &a in partners {
                rel.insert(s * na + a as usize);
            }
        }
    }

    // A pair (s, a) survives iff every proper concrete move s → t has an
    // abstract R*-move a → b (stutter included) with (t, b) ∈ H.
    let check_pair = |rel: &PairSet, s: usize, a: usize| -> Option<u32> {
        'moves: for &t in csr.successors(s) {
            let t = t as usize;
            if rel.contains(t * na + a) {
                continue; // abstract stutter matches
            }
            for &b in acsr.successors(a) {
                if rel.contains(t * na + b as usize) {
                    continue 'moves;
                }
            }
            return Some(t as u32);
        }
        None
    };

    // Initial sweep, then a backwards worklist: striking (t, b) can only
    // invalidate pairs (s, a) with s a proper predecessor of t and b
    // reachable from a in one abstract R*-step (a = b for the stutter).
    let mut queued = PairSet::new(nc * na);
    let mut work: Vec<u32> = Vec::new();
    let mut blame: Vec<Option<(State, State)>> = vec![None; nc];
    let strike = |rel: &mut PairSet,
                  queued: &mut PairSet,
                  work: &mut Vec<u32>,
                  blame: &mut Vec<Option<(State, State)>>,
                  s: usize,
                  a: usize,
                  t: u32| {
        rel.remove(s * na + a);
        blame[s] = Some((State(s as u128), State(t as u128)));
        for &ps in csr.predecessors(s) {
            let base = ps as usize * na;
            if rel.contains(base + a) && !queued.contains(base + a) {
                queued.insert(base + a);
                work.push((base + a) as u32);
            }
            for &pa in acsr.predecessors(a) {
                let p = base + pa as usize;
                if rel.contains(p) && !queued.contains(p) {
                    queued.insert(p);
                    work.push(p as u32);
                }
            }
        }
    };
    for s in 0..nc {
        for a in 0..na {
            if rel.contains(s * na + a) {
                if let Some(t) = check_pair(&rel, s, a) {
                    strike(&mut rel, &mut queued, &mut work, &mut blame, s, a, t);
                }
            }
        }
    }
    while let Some(p) = work.pop() {
        let p = p as usize;
        queued.remove(p);
        if !rel.contains(p) {
            continue;
        }
        let (s, a) = (p / na, p % na);
        if let Some(t) = check_pair(&rel, s, a) {
            strike(&mut rel, &mut queued, &mut work, &mut blame, s, a, t);
        }
    }

    for (s, &blamed) in blame.iter().enumerate().take(nc) {
        let related = (0..na).any(|a| rel.contains(s * na + a));
        if !related {
            return Ok(SimulationOutcome::Fails(SimulationCx {
                state: State(s as u128),
                transition: blamed,
            }));
        }
    }
    Ok(SimulationOutcome::Holds { pairs: rel.count() })
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
    fn agrees_with_the_definitional_checker_on_small_cases() {
        let c = toggler("x");
        let mut a = System::new(Alphabet::new(["x"]));
        a.add_transition_named(&[], &["x"]);
        assert_eq!(simulates_explicit(&c, &a).unwrap(), simulates(&c, &a));
        assert_eq!(simulates_explicit(&c, &c).unwrap(), simulates(&c, &c));
        let b = System::new(Alphabet::new(["y"]));
        assert_eq!(simulates_explicit(&c, &b).unwrap(), simulates(&c, &b));
    }

    #[test]
    fn projection_of_a_wider_system_is_simulated() {
        let mut m = System::new(Alphabet::new(["t", "s0", "s1"]));
        m.add_transition_named(&[], &["s0"]);
        m.add_transition_named(&["s0"], &["s0", "s1"]);
        m.add_transition_named(&["s0", "s1"], &["t"]);
        m.add_transition_named(&["t"], &[]);
        let a = m.project(&Alphabet::new(["t"]));
        assert!(simulates_explicit(&m, &a).unwrap().holds());
    }

    #[test]
    fn too_wide_is_rejected() {
        let names: Vec<String> = (0..20).map(|i| format!("p{i}")).collect();
        let big = System::new(Alphabet::new(names.clone()));
        let err = simulates_explicit(&big, &big).unwrap_err();
        assert_eq!(
            err,
            SimError::TooLarge {
                props: 40,
                limit: MAX_SIM_PAIR_PROPS
            }
        );
    }
}
