//! Traced replays: each library entry point the workloads call, redone
//! step by step through the public functions it composes, with a span
//! around every call into a layer crate. Each replay returns the same
//! verdicts as the call it mirrors; the workloads check that.

use crate::harness::err;
use crate::harness::gen::Proof;
use crate::harness::trace::Tracer;
use cmc_afs::{afs1, afs2, ideal};
use cmc_core::rules::rule4;
use cmc_core::BackendChoice;
use cmc_ctl::{Formula, Restriction};
use cmc_smv::{
    compile, compile_expansion, compile_explicit, parse_module, run_source_with_store_and_backend,
    union_variables, CompiledModel,
};
use cmc_store::{CertStore, Entry, ObligationKey};
use cmc_symbolic::SymbolicModel;
use paper_bench::ring;
use std::hint::black_box;

/// Counters read from the layers' own statistics during a traced run.
#[derive(Debug, Default, Clone)]
pub(crate) struct LayerCounters {
    /// BDD managers read (one per symbolic model built).
    pub(crate) bdd_models: u64,
    /// Σ nodes allocated over those managers.
    pub(crate) bdd_nodes_allocated: u64,
    /// Largest peak of live nodes seen in any manager.
    pub(crate) bdd_peak_live_nodes: u64,
    /// Σ garbage collections.
    pub(crate) bdd_gc_runs: u64,
    /// Σ and-exists cache hits.
    pub(crate) and_exists_hits: u64,
    /// Σ and-exists cache misses.
    pub(crate) and_exists_misses: u64,
    /// Σ computed-table evictions.
    pub(crate) bdd_cache_evictions: u64,
    /// Models with a quantification schedule.
    pub(crate) scheduled_models: u64,
    /// Σ clusters after merging, over scheduled models.
    pub(crate) clusters: u64,
    /// Σ schedule re-plans.
    pub(crate) replans: u64,
    /// Explicit models compiled.
    pub(crate) explicit_models: u64,
    /// Σ proper transitions over explicit models.
    pub(crate) transitions: u64,
    /// Jobs whose route was read from the driver's report.
    pub(crate) routed: u64,
    /// … of which the report named the explicit engine.
    pub(crate) routed_explicit: u64,
}

impl LayerCounters {
    /// Add the manager and schedule statistics of one symbolic model.
    pub(crate) fn add_symbolic(&mut self, model: &SymbolicModel) {
        let stats = model.mgr_ref().stats();
        self.bdd_models += 1;
        self.bdd_nodes_allocated += stats.nodes_allocated as u64;
        self.bdd_peak_live_nodes = self.bdd_peak_live_nodes.max(stats.peak_live_nodes as u64);
        self.bdd_gc_runs += stats.gc_runs;
        self.and_exists_hits += stats.and_exists_hits;
        self.and_exists_misses += stats.and_exists_misses;
        self.bdd_cache_evictions += stats.cache_evictions;
        if let Some(schedule) = model.schedule_stats() {
            self.scheduled_models += 1;
            self.clusters += schedule.clusters_after as u64;
            self.replans += schedule.replans;
        }
    }
}

/// `cmc_smv::run_source`: parse, compile, check every spec, extract the
/// counterexample of each failing one, read the resource trailer.
pub(crate) fn run_source(
    t: &mut Tracer,
    src: &str,
    counters: &mut LayerCounters,
) -> Result<Vec<bool>, String> {
    let module = t.span("smv.parse", |_| parse_module(src)).map_err(err)?;
    let mut compiled = t.span("smv.compile", |_| compile(&module)).map_err(err)?;
    let mut verdicts = Vec::new();
    for (_, f) in compiled.specs.clone() {
        verdicts.push(check_symbolic(t, &mut compiled, &f)?);
    }
    resource_trailer(t, &compiled, counters);
    Ok(verdicts)
}

/// One spec through the symbolic checker, as the driver's
/// `check_one_spec`: a failing propositional `AG` gets a path from an
/// initial state, any other failing spec its violating state.
fn check_symbolic(
    t: &mut Tracer,
    compiled: &mut CompiledModel,
    f: &Formula,
) -> Result<bool, String> {
    let verdict = t
        .span("symbolic.check", |_| {
            compiled.model.check(&Restriction::trivial(), f)
        })
        .map_err(err)?;
    if !verdict.holds {
        t.span("symbolic.witness", |_| {
            let path = match f {
                Formula::Ag(body) if body.is_propositional() => compiled
                    .model
                    .prop_to_bdd(body)
                    .ok()
                    .and_then(|p| compiled.model.counterexample_ag(p)),
                _ => None,
            };
            match path {
                Some(path) => {
                    for state in &path.states {
                        black_box(compiled.decode_state(state));
                    }
                }
                None => {
                    if let Some(w) = &verdict.witness {
                        black_box(compiled.decode_state(&w.values()));
                    }
                }
            }
        });
    }
    Ok(verdict.holds)
}

/// The BDD lines of the driver's `resources used:` trailer.
fn resource_trailer(t: &mut Tracer, compiled: &CompiledModel, counters: &mut LayerCounters) {
    t.span("smv.report", |_| {
        let parts = compiled.model.trans_parts();
        black_box(compiled.model.mgr_ref().node_count_many(&parts));
    });
    counters.add_symbolic(&compiled.model);
}

/// The engine `run_source_with_store_and_backend(src, _, Auto)` routes a
/// program to, read from the `engine:` line of its report. `warm` must
/// already hold a verdict for every spec, so the call answers from the
/// store without checking.
pub(crate) fn auto_route(src: &str, warm: &CertStore) -> Result<bool, String> {
    let out = run_source_with_store_and_backend(src, warm, BackendChoice::Auto).map_err(err)?;
    if out.cache_misses != 0 {
        return Err("route probe ran a check: the store was not warm".into());
    }
    Ok(out.report.contains("engine: explicit-state"))
}

/// `run_source_with_store_and_backend` for a job the driver routes to the
/// explicit engine (`explicit`) or the symbolic one: answer from the store
/// when every spec is memoized, else compile and check the missing specs,
/// memoizing each fresh verdict.
pub(crate) fn run_store_job(
    t: &mut Tracer,
    src: &str,
    store: &CertStore,
    explicit: bool,
    counters: &mut LayerCounters,
) -> Result<Vec<bool>, String> {
    let module = t.span("smv.parse", |_| parse_module(src)).map_err(err)?;
    let mut warm = Vec::new();
    for (text, _) in &module.specs {
        match lookup(t, store, src, text).1 {
            Some(verdict) => warm.push(verdict),
            None => break,
        }
    }
    if !module.specs.is_empty() && warm.len() == module.specs.len() {
        return Ok(warm);
    }
    let mut verdicts = Vec::new();
    if explicit {
        let model = t
            .span("smv.compile_explicit", |_| compile_explicit(&module))
            .map_err(err)?;
        counters.explicit_models += 1;
        counters.transitions += model.system.proper_transition_count() as u64;
        for (i, (text, _)) in model.specs.iter().enumerate() {
            let holds = match lookup(t, store, src, text) {
                (_, Some(verdict)) => verdict,
                (key, None) => {
                    let holds = t.span("ctl.check", |_| model.check_spec(i)).map_err(err)?;
                    t.span("store.insert", |_| store.insert(key, Entry::verdict(holds)));
                    if !holds {
                        let violating = t
                            .span("ctl.witness", |_| model.violating_init(i))
                            .map_err(err)?;
                        if let Some(s) = violating.first() {
                            black_box(model.decode_state(*s));
                        }
                    }
                    holds
                }
            };
            verdicts.push(holds);
        }
    } else {
        let mut compiled = t.span("smv.compile", |_| compile(&module)).map_err(err)?;
        for (text, f) in compiled.specs.clone() {
            let holds = match lookup(t, store, src, &text) {
                (_, Some(verdict)) => verdict,
                (key, None) => {
                    let holds = check_symbolic(t, &mut compiled, &f)?;
                    t.span("store.insert", |_| store.insert(key, Entry::verdict(holds)));
                    holds
                }
            };
            verdicts.push(holds);
        }
        resource_trailer(t, &compiled, counters);
    }
    Ok(verdicts)
}

/// Key one spec and look up its stored verdict.
fn lookup(
    t: &mut Tracer,
    store: &CertStore,
    src: &str,
    spec: &str,
) -> (ObligationKey, Option<bool>) {
    let key = t.span("store.key", |_| ObligationKey::source_spec(src, spec));
    let hit = t.span("store.lookup", |_| store.lookup(&key));
    (key, hit.map(|entry| entry.verdict))
}

/// Run one proof through its library entry point, untraced. A proof that
/// panics (the ring proof asserts) counts as not holding.
pub(crate) fn run_proof(proof: Proof) -> bool {
    std::panic::catch_unwind(|| match proof {
        Proof::Afs2Invariant(n) => afs2::prove_invariant_compositional(n).is_ok_and(|p| p.valid()),
        Proof::Ring(n) => {
            let engine = ring::ring_engine(n);
            ring::verify_ring_compositionally(n, &engine);
            true
        }
        Proof::Afs1Safety => afs1::prove_afs1_safety().valid,
        Proof::Afs2Liveness => afs1::prove_afs2_liveness().valid,
        Proof::Afs1Substituted => ideal::prove_afs1_substituted().valid,
    })
    .unwrap_or(false)
}

/// [`run_proof`] step by step. The AFS-2 invariant and the ring proof are
/// replayed call by call; the other three are one `core.prove` span each
/// (their engine builds are cheap next to the deduction).
pub(crate) fn replay_proof(
    t: &mut Tracer,
    proof: Proof,
    counters: &mut LayerCounters,
) -> Result<bool, String> {
    match proof {
        Proof::Afs2Invariant(n) => afs2_invariant(t, n, counters),
        Proof::Ring(n) => ring_proof(t, n),
        Proof::Afs1Safety => {
            let (engine, inv, init) = t.span("smv.compile_explicit", |_| {
                (afs1::engine(), afs1::invariant(), afs1::initial_condition())
            });
            let cert = t
                .span("core.prove", |_| engine.prove_invariant(&inv, &init, &[]))
                .map_err(err)?;
            Ok(cert.valid)
        }
        Proof::Afs2Liveness => Ok(t.span("core.prove", |_| afs1::prove_afs2_liveness().valid)),
        Proof::Afs1Substituted => {
            Ok(t.span("core.prove", |_| ideal::prove_afs1_substituted().valid))
        }
    }
}

/// `afs2::prove_invariant_compositional(n)`: `Inv ⇒ AX Inv` on every
/// component's expansion, then `I ⇒ Inv`.
fn afs2_invariant(t: &mut Tracer, n: usize, counters: &mut LayerCounters) -> Result<bool, String> {
    let modules = t.span("smv.parse", |_| afs2::modules(n));
    let union = t
        .span("smv.compile_expansion", |_| union_variables(&modules))
        .map_err(err)?;
    let inv = afs2::invariant_formula(n);
    let obligation = inv.clone().implies(inv.clone().ax());
    let mut valid = true;
    for module in &modules {
        let mut expansion = t
            .span("smv.compile_expansion", |_| {
                compile_expansion(&union, module)
            })
            .map_err(err)?;
        valid &= t
            .span("symbolic.holds_everywhere", |_| {
                expansion.model.holds_everywhere(&obligation)
            })
            .map_err(err)?;
        counters.add_symbolic(&expansion.model);
    }
    let mut vocab = t
        .span("smv.compile_expansion", |_| {
            compile_expansion(&union, &modules[0])
        })
        .map_err(err)?;
    let init = afs2::initial_condition(n);
    let init_implies_inv = t
        .span("symbolic.holds_everywhere", |_| {
            let init = vocab.model.prop_to_bdd(&init)?;
            let inv = vocab.model.prop_to_bdd(&inv)?;
            Ok::<_, cmc_symbolic::SymbolicError>(vocab.model.mgr().implies_trivially(init, inv))
        })
        .map_err(err)?;
    Ok(valid && init_implies_inv)
}

/// `ring::verify_ring_compositionally(n)` with the engine build: the
/// pairwise-exclusion invariant, then one Rule-4 guarantee per station.
fn ring_proof(t: &mut Tracer, n: usize) -> Result<bool, String> {
    let engine = t.span("smv.compile_explicit", |_| ring::ring_engine(n));
    let cert = t
        .span("core.prove", |_| {
            engine.prove_invariant(&ring::at_most_one(n), &ring::token_at_zero(n), &[])
        })
        .map_err(err)?;
    let mut valid = cert.valid;
    for i in 0..n {
        let station = t
            .span("smv.compile_explicit", |_| {
                compile_explicit(&ring::station_module(i, n))
            })
            .map_err(err)?;
        let p = station.parse_formula(&format!("t{i}")).map_err(err)?;
        let q = station
            .parse_formula(&format!("t{}", (i + 1) % n))
            .map_err(err)?;
        let guarantee = t
            .span("core.rule4", |_| rule4(&station.system, &p, &q))
            .map_err(err)?;
        valid &= t
            .span("core.prove", |_| engine.discharge(&guarantee))
            .map_err(err)?
            .valid;
    }
    Ok(valid)
}
