//! `cmc-testkit` — the differential conformance harness.
//!
//! Three independent evaluators exist for the paper's restricted
//! satisfaction relation `M ⊨_r f`: the explicit checker (`cmc-ctl`), the
//! symbolic checker (`cmc-symbolic`), and this crate's deliberately naïve
//! [`RefEvaluator`] written straight from §2.2's path semantics. This
//! crate generates seeded obligations, runs them through a caller-chosen
//! list of backend configurations and the reference, replays every
//! witness and certificate against the transition relation, and shrinks
//! any disagreement to a minimal replayable repro.
//!
//! Entry points:
//!
//! * [`gen_obligation`] — deterministic obligation from a `u64` seed;
//! * [`run_obligation`] — the differential check over a list of [`Leg`]s;
//! * [`validate_witness`] / [`validate_verdict`] /
//!   [`validate_certificate`] / [`replay_store`] — the replay validators;
//! * `cargo run -p cmc-testkit --release -- --seed N --iters K` — the
//!   fuzz binary, a [`sweep`] over fresh seeds; `--corpus` replays
//!   `corpus/seeds.txt`.

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod reference;
pub mod validate;

pub use gen::{
    gen_obligation, gen_partitioned_obligation, gen_sim_pair, gen_wide_obligation, Obligation,
    SimPair, SimPairKind, Stratum,
};
pub use oracle::{run_obligation, run_sim_pair, shrink, Disagreement, Leg, Outcome, Verdicts};
pub use reference::{
    naive_simulates, NaiveSimulation, RefError, RefEvaluator, NAIVE_SIM_MAX_PROPS,
    REFERENCE_MAX_PROPS,
};
pub use validate::{
    replay_store, replay_substitution, validate_certificate, validate_stored, validate_verdict,
    validate_witness, ValidationError, WitnessClaim,
};

/// The checked-in regression seed corpus for [`gen_obligation`], one seed
/// per line (`#` comments allowed). Compiled in so the corpus replays
/// identically from any working directory.
pub const SEED_CORPUS: &str = include_str!("../corpus/seeds.txt");

/// The partitioned-obligation regression corpus, seeds for
/// [`gen_partitioned_obligation`] in [`SEED_CORPUS`]'s format.
pub const PARTITION_SEED_CORPUS: &str = include_str!("../corpus/partition_seeds.txt");

/// Parse a seed corpus ([`SEED_CORPUS`], [`PARTITION_SEED_CORPUS`]) into
/// seeds.
pub fn corpus_seeds(corpus: &str) -> Vec<u64> {
    corpus
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.parse().ok())
        .collect()
}

/// What a [`sweep`] came to.
#[derive(Debug)]
pub struct SweepReport<D> {
    /// Seeds on which every evaluator agreed.
    pub agreed: usize,
    /// Agreed seeds whose verdict was `holds`.
    pub holding: usize,
    /// Seeds skipped (backend limits).
    pub skipped: usize,
    /// The first disagreement, if any; the sweep stops there.
    pub failure: Option<D>,
}

/// Run `check` on each of `seeds` in order, stopping at the first
/// disagreement. Each skip, and every hundredth seed as
/// `"{n}/{total} {noun} checked"`, goes through `progress` (pass a no-op
/// closure for quiet runs).
pub fn sweep<D>(
    seeds: &[u64],
    noun: &str,
    mut check: impl FnMut(u64) -> Outcome<D>,
    mut progress: impl FnMut(&str),
) -> SweepReport<D> {
    let mut report = SweepReport {
        agreed: 0,
        holding: 0,
        skipped: 0,
        failure: None,
    };
    for (i, &seed) in seeds.iter().enumerate() {
        match check(seed) {
            Outcome::Agree(holds) => {
                report.agreed += 1;
                report.holding += usize::from(holds);
            }
            Outcome::Skipped(why) => {
                report.skipped += 1;
                progress(&format!("seed {seed}: skipped ({why})"));
            }
            Outcome::Disagree(d) => {
                report.failure = Some(d);
                return report;
            }
        }
        if (i + 1) % 100 == 0 {
            progress(&format!("{}/{} {noun} checked", i + 1, seeds.len()));
        }
    }
    report
}

/// Report from a `--soak` run: many seeded formulas through **one**
/// shared symbolic session.
#[derive(Debug)]
pub struct SoakReport {
    /// Formulas checked against the shared model.
    pub checked: usize,
    /// High-water mark of live BDD nodes over the whole session.
    pub peak_live_nodes: usize,
    /// Live nodes at session end.
    pub final_live_nodes: usize,
    /// Cumulative node allocations (monotone across collections).
    pub nodes_allocated: usize,
    /// Collections the session ran.
    pub gc_runs: u64,
    /// The live-node ceiling the session was held to.
    pub live_bound: usize,
}

/// Arena ceiling a soak session must stay under. The maintenance policy
/// collects at 1/8 of this, so the bound carries generous headroom for
/// the allocation burst of a single check between safe points; without a
/// working collector the arena grows linearly with seeds and crosses the
/// ceiling within a few dozen checks.
pub const SOAK_LIVE_BOUND: usize = 1 << 15;

/// Run `iters` seeded formulas through one long-lived symbolic session —
/// a fixed 8-variable coupled-pair model with garbage collection and a
/// bounded computed table — and fail if the live-node high-water mark
/// ever crosses [`SOAK_LIVE_BOUND`]. This is the leak check for the
/// memory kernel: the session's live set must plateau, not grow with the
/// number of checks.
pub fn soak(seed0: u64, iters: u64, mut progress: impl FnMut(&str)) -> Result<SoakReport, String> {
    use cmc_kripke::{Alphabet, System};
    use cmc_symbolic::{MaintenanceConfig, SymbolicModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NVARS: usize = 8;
    let names: Vec<String> = (0..NVARS).map(|i| format!("p{i}")).collect();
    // Component i cycles its pair (pᵢ, pᵢ₊₁): a ring of coupled 4-cycles,
    // so formulas over any pair have non-trivial fixpoints.
    let systems: Vec<System> = (0..NVARS)
        .map(|i| {
            let a = names[i].as_str();
            let b = names[(i + 1) % NVARS].as_str();
            let mut m = System::new(Alphabet::new([a, b]));
            m.add_transition_named(&[], &[a]);
            m.add_transition_named(&[a], &[a, b]);
            m.add_transition_named(&[a, b], &[b]);
            m.add_transition_named(&[b], &[]);
            m
        })
        .collect();
    let refs: Vec<&System> = systems.iter().collect();
    let union = Alphabet::union_of(systems.iter().map(System::alphabet));
    let mut model = SymbolicModel::from_components(&refs, &union);
    model.set_maintenance(MaintenanceConfig {
        gc_threshold: SOAK_LIVE_BOUND / 8,
        ..MaintenanceConfig::default()
    });
    model.mgr().set_cache_capacity(1 << 14);

    let mut checked = 0usize;
    for i in 0..iters {
        let seed = seed0.wrapping_add(i);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let f = gen::gen_formula(&mut rng, &names, 3, Stratum::Free);
        let r = gen::gen_restriction(&mut rng, &names);
        model
            .check(&r, &f)
            .map_err(|e| format!("seed {seed}: {e}"))?;
        checked += 1;
        let stats = model.mgr_ref().stats();
        if stats.peak_live_nodes > SOAK_LIVE_BOUND {
            return Err(format!(
                "seed {seed}: peak live nodes {} crossed the soak bound {} \
                 (gc runs: {}) — the session is leaking",
                stats.peak_live_nodes, SOAK_LIVE_BOUND, stats.gc_runs
            ));
        }
        if (i + 1) % 50 == 0 {
            progress(&format!(
                "{}/{iters} formulas; live {} / peak {} nodes, {} collections",
                i + 1,
                stats.live_nodes,
                stats.peak_live_nodes,
                stats.gc_runs
            ));
        }
    }
    let stats = model.mgr_ref().stats();
    Ok(SoakReport {
        checked,
        peak_live_nodes: stats.peak_live_nodes,
        final_live_nodes: stats.live_nodes,
        nodes_allocated: stats.nodes_allocated,
        gc_runs: stats.gc_runs,
        live_bound: SOAK_LIVE_BOUND,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_session_stays_bounded() {
        let report = soak(7, 60, |_| {}).expect("soak session failed");
        assert_eq!(report.checked, 60);
        assert!(report.peak_live_nodes <= report.live_bound);
        assert!(
            report.gc_runs > 0,
            "a 60-formula soak should have collected at least once"
        );
        assert!(
            report.nodes_allocated > report.peak_live_nodes,
            "cumulative allocation should exceed the bounded live peak"
        );
    }

    #[test]
    fn corpus_parses_and_is_nonempty() {
        let seeds = corpus_seeds(SEED_CORPUS);
        assert!(
            seeds.len() >= 50,
            "seed corpus should carry at least 50 regression seeds, got {}",
            seeds.len()
        );
    }
}
