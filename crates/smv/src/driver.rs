//! The check driver: parse → check → compile → verify all `SPEC`s and print
//! an SMV-style report, as in Figures 7, 10, 15 and 17 of the paper.

use crate::ast::Module;
use crate::compile::{compile, CompiledModel};
use crate::explicit::{compile_explicit, ExplicitCompiled};
use crate::parse::parse_module;
use cmc_core::engine::{Component, Engine, EngineError, Substitution};
use cmc_core::{BackendChoice, AUTO_DENSE_BITS};
use cmc_ctl::Restriction;
use cmc_store::{CertStore, Entry, ObligationKey};
use std::fmt;
use std::time::{Duration, Instant};

/// Any error from the driver pipeline.
#[derive(Debug, Clone)]
pub enum DriverError {
    /// Parse-phase error.
    Parse(String),
    /// Semantic / compile-phase error.
    Semantic(String),
    /// Checking-phase error.
    Check(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Parse(m) => write!(f, "{m}"),
            DriverError::Semantic(m) => write!(f, "{m}"),
            DriverError::Check(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Result of verifying one module.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// `(spec text, holds)` per SPEC, in order.
    pub results: Vec<(String, bool)>,
    /// The SMV-style textual report.
    pub report: String,
    /// Specs answered from the certificate store (always 0 for the
    /// store-less entry points).
    pub cache_hits: usize,
    /// Specs verified by actually running the checker.
    pub cache_misses: usize,
}

impl RunOutcome {
    /// Did every spec hold?
    pub fn all_true(&self) -> bool {
        self.results.iter().all(|(_, ok)| *ok)
    }
}

/// Verify every `SPEC` of an SMV program and render the SMV-style report.
pub fn run_source(src: &str) -> Result<RunOutcome, DriverError> {
    let module = parse_module(src).map_err(|e| DriverError::Parse(e.to_string()))?;
    let compiled = compile(&module).map_err(|e| DriverError::Semantic(e.to_string()))?;
    run_compiled(compiled)
}

/// Verify a pre-compiled model (used by programmatic model builders).
pub fn run_compiled(mut compiled: CompiledModel) -> Result<RunOutcome, DriverError> {
    let start = Instant::now();
    let mut results = Vec::new();
    let mut lines = Vec::new();
    for (text, f) in compiled.specs.clone() {
        let (holds, spec_lines) = check_one_spec(&mut compiled, &text, &f)?;
        lines.extend(spec_lines);
        results.push((text.clone(), holds));
    }
    let report = render_report(&compiled, lines, start.elapsed());
    let cache_misses = results.len();
    Ok(RunOutcome {
        results,
        report,
        cache_hits: 0,
        cache_misses,
    })
}

/// Resolve `choice` for a parsed module: whether the explicit engine runs
/// it, and the report's `engine:` line naming the engine (and, under
/// `Auto`, why).
///
/// `Auto` reads `cmc_core`'s published calibration and nothing else. The
/// driver's explicit path labels the dense `2^bits` universe of the
/// module's Figure-3 encoding, and the `backend_crossover` sweep shows
/// dense labelling beating the BDD engine only up to
/// [`AUTO_DENSE_BITS`] encoded bits — so a module at most that wide runs
/// explicit and every wider one runs symbolic.
fn resolve_backend(module: &Module, choice: BackendChoice) -> (bool, String) {
    const EXPLICIT: &str = "engine: explicit-state";
    const SYMBOLIC: &str = "engine: symbolic (BDD)";
    match choice {
        BackendChoice::Explicit => (true, format!("{EXPLICIT}\n")),
        BackendChoice::Symbolic => (false, format!("{SYMBOLIC}\n")),
        BackendChoice::Auto => {
            let bits: usize = module.vars.iter().map(|(_, ty)| ty.bits()).sum();
            let (explicit, engine, cmp) = if bits <= AUTO_DENSE_BITS {
                (true, EXPLICIT, "<=")
            } else {
                (false, SYMBOLIC, ">")
            };
            let line = format!(
                "{engine} \u{2014} Auto: {bits} encoded bits {cmp} AUTO_DENSE_BITS \
                 {AUTO_DENSE_BITS}\n"
            );
            (explicit, line)
        }
    }
}

/// Verify every `SPEC` through the engine selected by `choice`.
///
/// `Symbolic` runs the BDD checker (same pipeline as [`run_source`]);
/// `Explicit` runs the independent explicit-state compilation (and fails
/// with a semantic error past its [`cmc_ctl::ExplicitLimits`] state
/// budget);
/// `Auto` runs the explicit engine on modules of at most
/// [`AUTO_DENSE_BITS`] encoded bits and the symbolic engine on wider ones
/// — so wide models verify instead of erroring. The report's last line
/// names the engine that ran and, under `Auto`, the width that chose it.
pub fn run_source_with_backend(
    src: &str,
    choice: BackendChoice,
) -> Result<RunOutcome, DriverError> {
    let module = parse_module(src).map_err(|e| DriverError::Parse(e.to_string()))?;
    let (explicit, engine) = resolve_backend(&module, choice);
    let mut out = if explicit {
        run_module_explicit(&module)?
    } else {
        let compiled = compile(&module).map_err(|e| DriverError::Semantic(e.to_string()))?;
        run_compiled(compiled)?
    };
    out.report.push_str(&engine);
    Ok(out)
}

/// Verify every `SPEC` of a parsed module with the explicit-state engine.
fn run_module_explicit(module: &Module) -> Result<RunOutcome, DriverError> {
    let start = Instant::now();
    let explicit = compile_explicit(module).map_err(|e| DriverError::Semantic(e.to_string()))?;
    let mut results = Vec::new();
    let mut lines = Vec::new();
    for (i, (text, _)) in explicit.specs.iter().enumerate() {
        let (holds, spec_lines) = check_one_spec_explicit(&explicit, i, text)?;
        lines.extend(spec_lines);
        results.push((text.clone(), holds));
    }
    let report = render_explicit_report(&explicit, lines, start.elapsed());
    let cache_misses = results.len();
    Ok(RunOutcome {
        results,
        report,
        cache_hits: 0,
        cache_misses,
    })
}

/// Verify every `SPEC`, consulting `store` first: a spec whose
/// `(normalised source, spec)` pair was verified before — in this process
/// or loaded from disk — is answered from its stored verdict without
/// running the checker. Fresh verdicts are memoized. Cached *failing*
/// specs report the verdict only (the counterexample trace is not stored),
/// and the report marks them `(verdict from certificate store)`; the
/// `resources used:` trailer gains a hit-rate line.
pub fn run_source_with_store(src: &str, store: &CertStore) -> Result<RunOutcome, DriverError> {
    let module = parse_module(src).map_err(|e| DriverError::Parse(e.to_string()))?;
    run_module_symbolic_with_store(src, &module, store)
}

/// Symbolic store-backed run over a parsed module (shared by
/// [`run_source_with_store`] and [`run_source_with_store_and_backend`]).
fn run_module_symbolic_with_store(
    src: &str,
    module: &Module,
    store: &CertStore,
) -> Result<RunOutcome, DriverError> {
    let warm_start = Instant::now();
    if let Some(out) = fully_warm_outcome(src, module, store, warm_start) {
        return Ok(out);
    }
    let mut compiled = compile(module).map_err(|e| DriverError::Semantic(e.to_string()))?;
    let start = Instant::now();
    let mut results = Vec::new();
    let mut lines = Vec::new();
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    for (text, f) in compiled.specs.clone() {
        let key = ObligationKey::source_spec(src, &text);
        match store.lookup(&key) {
            Some(entry) => {
                cache_hits += 1;
                lines.push(format!(
                    "-- specification {text} is {} (verdict from certificate store)",
                    if entry.verdict { "true" } else { "false" }
                ));
                results.push((text.clone(), entry.verdict));
            }
            None => {
                cache_misses += 1;
                let (holds, spec_lines) = check_one_spec(&mut compiled, &text, &f)?;
                store.insert(key, Entry::verdict(holds));
                lines.extend(spec_lines);
                results.push((text.clone(), holds));
            }
        }
    }
    let mut report = render_report(&compiled, lines, start.elapsed());
    report.push_str(&store_trailer(store, cache_hits, cache_misses));
    Ok(RunOutcome {
        results,
        report,
        cache_hits,
        cache_misses,
    })
}

/// Fully-warm fast path: when **every** spec of the module is already
/// memoized, answer without compiling a model at all — a warm run costs
/// hash lookups, not state-space construction. Spec texts come straight
/// from the parsed module (both compilers carry them verbatim), so the
/// keys match what a cold run stored. Returns `None` — falling back to
/// the compiling path — on the first miss, or when the module has no
/// specs (so semantic errors still surface).
fn fully_warm_outcome(
    src: &str,
    module: &Module,
    store: &CertStore,
    start: Instant,
) -> Option<RunOutcome> {
    if module.specs.is_empty() {
        return None;
    }
    let mut results = Vec::new();
    let mut lines = Vec::new();
    for (text, _) in &module.specs {
        let entry = store.lookup(&ObligationKey::source_spec(src, text))?;
        lines.push(format!(
            "-- specification {text} is {} (verdict from certificate store)",
            if entry.verdict { "true" } else { "false" }
        ));
        results.push((text.clone(), entry.verdict));
    }
    let cache_hits = results.len();
    let mut report = lines.join("\n");
    report.push_str(&format!(
        "\n\nresources used:\nuser time: {:.7} s, system time: 0 s\n\
         model construction skipped: every spec answered from the certificate store\n",
        start.elapsed().as_secs_f64(),
    ));
    report.push_str(&store_trailer(store, cache_hits, 0));
    Some(RunOutcome {
        results,
        report,
        cache_hits,
        cache_misses: 0,
    })
}

/// The store block of the `resources used:` trailer: the per-run hit
/// line plus the shared tier's eviction/budget telemetry, printed
/// alongside the BDD live/peak/GC lines so a `-r` report shows both
/// memory kernels at once.
fn store_trailer(store: &CertStore, cache_hits: usize, cache_misses: usize) -> String {
    let stats = store.stats();
    format!(
        "certificate store: {cache_hits} of {} specs answered from store ({:.1}% hit rate)\n\
         store entries resident: {} (insertions: {}, lru evictions: {})\n\
         store disk tier: {} bytes in segments ({} segments skipped, \
         {} compactions, {} budget evictions)\n",
        cache_hits + cache_misses,
        if cache_hits + cache_misses == 0 {
            0.0
        } else {
            100.0 * cache_hits as f64 / (cache_hits + cache_misses) as f64
        },
        stats.entries,
        stats.insertions,
        stats.evictions,
        stats.disk_bytes,
        stats.segments_skipped,
        stats.compactions,
        stats.budget_evictions,
    )
}

/// Verify every `SPEC`, consulting `store` first (as
/// [`run_source_with_store`]) **and** routing the fresh checks through
/// the engine selected by `choice` (as [`run_source_with_backend`]).
/// This is the daemon's entry point: all `cmc-serve` worker sessions
/// funnel through here against one shared store.
///
/// Store keys are `(normalised source, spec)` pairs with no backend tag:
/// both engines are sound over the same semantics (the testkit oracle
/// enforces it), so a verdict computed by either engine answers both —
/// deliberately unlike engine-level obligation keys, which stay
/// backend-tagged because their certificates differ.
pub fn run_source_with_store_and_backend(
    src: &str,
    store: &CertStore,
    choice: BackendChoice,
) -> Result<RunOutcome, DriverError> {
    let module = parse_module(src).map_err(|e| DriverError::Parse(e.to_string()))?;
    let (explicit, engine) = resolve_backend(&module, choice);
    let mut out = if explicit {
        run_module_explicit_with_store(src, &module, store)?
    } else {
        run_module_symbolic_with_store(src, &module, store)?
    };
    out.report.push_str(&engine);
    Ok(out)
}

/// Explicit-state store-backed run over a parsed module.
fn run_module_explicit_with_store(
    src: &str,
    module: &Module,
    store: &CertStore,
) -> Result<RunOutcome, DriverError> {
    let start = Instant::now();
    if let Some(out) = fully_warm_outcome(src, module, store, start) {
        return Ok(out);
    }
    let explicit = compile_explicit(module).map_err(|e| DriverError::Semantic(e.to_string()))?;
    let mut results = Vec::new();
    let mut lines = Vec::new();
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    for (i, (text, _)) in explicit.specs.iter().enumerate() {
        let key = ObligationKey::source_spec(src, text);
        match store.lookup(&key) {
            Some(entry) => {
                cache_hits += 1;
                lines.push(format!(
                    "-- specification {text} is {} (verdict from certificate store)",
                    if entry.verdict { "true" } else { "false" }
                ));
                results.push((text.clone(), entry.verdict));
            }
            None => {
                cache_misses += 1;
                let (holds, spec_lines) = check_one_spec_explicit(&explicit, i, text)?;
                store.insert(key, Entry::verdict(holds));
                lines.extend(spec_lines);
                results.push((text.clone(), holds));
            }
        }
    }
    let mut report = render_explicit_report(&explicit, lines, start.elapsed());
    report.push_str(&store_trailer(store, cache_hits, cache_misses));
    Ok(RunOutcome {
        results,
        report,
        cache_hits,
        cache_misses,
    })
}

/// Check spec `i` on the explicit engine, returning its verdict and its
/// report lines (including the first violating initial state for
/// failures).
fn check_one_spec_explicit(
    explicit: &ExplicitCompiled,
    i: usize,
    text: &str,
) -> Result<(bool, Vec<String>), DriverError> {
    let violating = explicit
        .violating_init(i)
        .map_err(|e| DriverError::Check(e.to_string()))?;
    let holds = violating.is_empty();
    let mut lines = vec![format!(
        "-- specification {text} is {}",
        if holds { "true" } else { "false" }
    )];
    if let Some(s) = violating.first() {
        lines.push("-- as demonstrated by the initial state".into());
        for (name, value) in explicit.decode_state(*s) {
            lines.push(format!("   {name} = {value}"));
        }
    }
    Ok((holds, lines))
}

/// Assemble explicit spec lines plus their `resources used:` trailer.
fn render_explicit_report(
    explicit: &ExplicitCompiled,
    lines: Vec<String>,
    user_time: Duration,
) -> String {
    let mut report = lines.join("\n");
    report.push_str(&format!(
        "\n\nresources used:\nuser time: {:.7} s, system time: 0 s\n\
         explicit states enumerated over {} propositions; {} proper transitions\n",
        user_time.as_secs_f64(),
        explicit.system.alphabet().len(),
        explicit.system.proper_transition_count(),
    ));
    report
}

/// Check one spec, returning its verdict and its report lines (including
/// the counterexample trace for failures).
fn check_one_spec(
    compiled: &mut CompiledModel,
    text: &str,
    f: &cmc_ctl::Formula,
) -> Result<(bool, Vec<String>), DriverError> {
    let mut lines = Vec::new();
    let verdict = compiled
        .model
        .check(&Restriction::trivial(), f)
        .map_err(|e| DriverError::Check(e.to_string()))?;
    lines.push(format!(
        "-- specification {text} is {}",
        if verdict.holds { "true" } else { "false" }
    ));
    if !verdict.holds {
        lines.push("-- as demonstrated by the following execution sequence".into());
        // For a failed AG over a propositional body, show the full
        // path from an initial state to the violation (SMV style);
        // otherwise show the violating initial state.
        let trace = match f {
            cmc_ctl::Formula::Ag(body) if body.is_propositional() => compiled
                .model
                .prop_to_bdd(body)
                .ok()
                .and_then(|p| compiled.model.counterexample_ag(p)),
            _ => None,
        };
        match trace {
            Some(t) => {
                for (step, state) in t.states.iter().enumerate() {
                    lines.push(format!("-- state {}:", step + 1));
                    for (name, value) in compiled.decode_state(state) {
                        lines.push(format!("   {name} = {value}"));
                    }
                }
            }
            None => {
                if let Some(w) = &verdict.witness {
                    for (name, value) in compiled.decode_state(&w.values()) {
                        lines.push(format!("   {name} = {value}"));
                    }
                }
            }
        }
    }
    Ok((verdict.holds, lines))
}

/// Assemble spec lines plus the SMV-style `resources used:` trailer.
fn render_report(compiled: &CompiledModel, lines: Vec<String>, user_time: Duration) -> String {
    let stats = compiled.model.mgr_ref().stats();
    let parts = compiled.model.trans_parts();
    let trans_nodes = compiled.model.mgr_ref().node_count_many(&parts);
    let aux = compiled.model.num_state_vars();
    let mut report = lines.join("\n");
    report.push_str(&format!(
        "\n\nresources used:\nuser time: {:.7} s, system time: 0 s\n\
         BDD nodes allocated: {}\nBytes allocated: {}\n\
         BDD nodes live: {} (peak {})\n\
         garbage collections: {} (reclaimed {} nodes)\n\
         cache evictions: {}\n\
         and-exists cache: {} hits / {} misses\n\
         transition relation: {} disjunctive partition(s), early quantification\n\
         BDD nodes representing transition relation: {} + {}\n",
        user_time.as_secs_f64(),
        stats.nodes_allocated,
        stats.bytes_allocated,
        stats.live_nodes,
        stats.peak_live_nodes,
        stats.gc_runs,
        stats.gc_reclaimed,
        stats.cache_evictions,
        stats.and_exists_hits,
        stats.and_exists_misses,
        parts.len(),
        trans_nodes,
        aux
    ));
    // The set every check of this run was restricted to: the symbolic
    // counterpart of the explicit engine's reachable-state count.
    if let Some(reach) = compiled.model.reachable_memo() {
        let bits = compiled.model.num_state_vars();
        let count = compiled.model.mgr_ref().sat_count(reach, 2 * bits) / 2f64.powi(bits as i32);
        report.push_str(&format!(
            "reachable states: {count:.0} (2^{:.2}) of 2^{bits}\n",
            count.log2()
        ));
    }
    if let Some(sched) = compiled.model.schedule_stats() {
        report.push_str(&format!(
            "quantification schedule: {} cluster(s) merged from {} partition(s)\n",
            sched.clusters_after, sched.clusters_before
        ));
    }
    report
}

/// Verify every `SPEC` with **both** engines — the symbolic (BDD) checker
/// and the independent explicit-state compilation — and fail loudly if
/// they ever disagree. Slower, but the strongest possible answer; intended
/// for certification runs and for models small enough to enumerate
/// (explicit compilation is budgeted by valid-state count; see
/// [`cmc_ctl::ExplicitLimits`]).
pub fn run_source_validated(src: &str) -> Result<RunOutcome, DriverError> {
    let module = parse_module(src).map_err(|e| DriverError::Parse(e.to_string()))?;
    let compiled =
        crate::compile::compile(&module).map_err(|e| DriverError::Semantic(e.to_string()))?;
    let explicit = crate::explicit::compile_explicit(&module)
        .map_err(|e| DriverError::Semantic(e.to_string()))?;
    let outcome = run_compiled(compiled)?;
    for (i, (text, symbolic_verdict)) in outcome.results.iter().enumerate() {
        let explicit_verdict = explicit
            .check_spec(i)
            .map_err(|e| DriverError::Check(e.to_string()))?;
        if *symbolic_verdict != explicit_verdict {
            return Err(DriverError::Check(format!(
                "ENGINE DISAGREEMENT on spec {text:?}: symbolic says {symbolic_verdict}, \
                 explicit says {explicit_verdict} — this is a checker bug, please report it"
            )));
        }
    }
    Ok(outcome)
}

/// Parse and explicitly compile one refinement role, prefixing errors
/// with the role name so a four-module `-refine` run pinpoints which
/// source failed.
fn compile_role(src: &str, role: &str) -> Result<(Module, ExplicitCompiled), DriverError> {
    let module = parse_module(src).map_err(|e| DriverError::Parse(format!("{role}: {e}")))?;
    let explicit =
        compile_explicit(&module).map_err(|e| DriverError::Semantic(format!("{role}: {e}")))?;
    Ok((module, explicit))
}

/// The `-refine` driver path: verify every `SPEC` of `property_src` on
/// the composition `concrete ∘ contexts` **by abstraction substitution**
/// — never building the concrete composition.
///
/// Four roles, each an ordinary single-module SMV source:
///
/// * `concrete_src` — the component being abstracted;
/// * `abstract_src` — its idealisation (its variables must be a subset
///   of the concrete component's, with more behaviours allowed);
/// * `context_srcs` — the remaining components of the composition;
/// * `property_src` — declares the union vocabulary and carries the
///   `SPEC`s to verify, plus optional `INIT`/`FAIRNESS` sections that
///   become the restriction `(I, F)` (use `INIT`, not `ASSIGN init`,
///   so the condition stays a formula).
///
/// Each spec is discharged by [`Engine::prove_substituted`]: the
/// simulation premise `concrete ⊑ abstraction` is checked once (and
/// memoized across specs), the soundness side conditions are enforced —
/// an unsound substitution is a loud [`DriverError::Semantic`], never a
/// verdict — and the property is checked on `abstraction ∘ contexts`.
pub fn run_refine(
    concrete_src: &str,
    abstract_src: &str,
    context_srcs: &[&str],
    property_src: &str,
) -> Result<RunOutcome, DriverError> {
    let start = Instant::now();
    let (_, concrete) = compile_role(concrete_src, "concrete module")?;
    let (_, abstraction) = compile_role(abstract_src, "abstract module")?;
    let mut contexts = Vec::new();
    for (i, src) in context_srcs.iter().enumerate() {
        contexts.push(compile_role(src, &format!("context module {}", i + 1))?.1);
    }
    let (prop_module, property) = compile_role(property_src, "property module")?;
    if !prop_module.init_assigns.is_empty() {
        return Err(DriverError::Semantic(
            "property module: use an INIT section (not ASSIGN init) so the \
             initial condition is a formula the refinement rule can carry"
                .into(),
        ));
    }
    let mut init = None;
    for e in &prop_module.init_constraints {
        let f = property
            .parse_formula(&e.to_string())
            .map_err(|e| DriverError::Semantic(format!("property module INIT: {e}")))?;
        init = Some(match init {
            None => f,
            Some(acc) => cmc_ctl::Formula::and(acc, f),
        });
    }
    let mut fairness = Vec::new();
    for e in &prop_module.fairness {
        fairness.push(
            property
                .parse_formula(&e.to_string())
                .map_err(|e| DriverError::Semantic(format!("property module FAIRNESS: {e}")))?,
        );
    }
    let r = match init {
        Some(i) => Restriction::new(i, fairness),
        None => Restriction::with_fairness(fairness),
    };

    let mut components = vec![Component::new("concrete", concrete.system.clone())];
    for (i, ctx) in contexts.iter().enumerate() {
        components.push(Component::new(
            format!("context{}", i + 1),
            ctx.system.clone(),
        ));
    }
    let engine = Engine::new(components);
    let sub = Substitution::new(0, abstraction.system.clone());

    let mut results = Vec::new();
    let mut lines = Vec::new();
    for (text, f) in &property.specs {
        let cert = engine.prove_substituted(&sub, &r, f).map_err(|e| match e {
            EngineError::Refinement(e) => DriverError::Semantic(format!(
                "substitution for spec {text} rejected as unsound: {e}"
            )),
            other => DriverError::Check(other.to_string()),
        })?;
        lines.push(format!(
            "-- specification {text} is {}{}",
            if cert.valid { "true" } else { "false" },
            if cert.valid {
                " (by substitution: concrete \u{2291} abstraction, checked on the abstraction)"
            } else {
                ""
            }
        ));
        if !cert.valid {
            for step in cert.steps.iter().filter(|s| !s.ok) {
                lines.push(format!("--   failed premise: {}", step.description));
            }
        }
        results.push((text.clone(), cert.valid));
    }
    let mut report = lines.join("\n");
    report.push_str(&format!(
        "\n\nresources used:\nuser time: {:.7} s, system time: 0 s\n\
         refinement: {}-proposition concrete component \u{2291} {}-proposition \
         abstraction; property checked over {} propositions instead of {}\n\
         engine: refinement substitution\n",
        start.elapsed().as_secs_f64(),
        concrete.system.alphabet().len(),
        abstraction.system.alphabet().len(),
        engine.union_alphabet().len() + abstraction.system.alphabet().len()
            - concrete.system.alphabet().len(),
        engine.union_alphabet().len(),
    ));
    let cache_misses = results.len();
    Ok(RunOutcome {
        results,
        report,
        cache_hits: 0,
        cache_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_for_passing_model() {
        let out = run_source(
            "MODULE main\nVAR x : boolean;\nASSIGN init(x) := 0; next(x) := 1;\n\
             FAIRNESS x\nSPEC AF x\nSPEC AG (x -> AX x)",
        )
        .unwrap();
        assert!(out.all_true());
        assert_eq!(out.results.len(), 2);
        assert!(out.report.contains("-- specification AF x is true"));
        assert!(out.report.contains("BDD nodes allocated:"));
        assert!(out
            .report
            .contains("transition relation: 1 disjunctive partition(s), early quantification"));
        assert!(out.report.contains("and-exists cache:"));
        // The compiled model checks under the quantification scheduler,
        // so the trailer reports the plan it used.
        assert!(out
            .report
            .contains("\nquantification schedule: 1 cluster(s) merged from 1 partition(s)\n"));
    }

    #[test]
    fn report_for_failing_spec_includes_witness() {
        let out =
            run_source("MODULE main\nVAR x : boolean;\nASSIGN next(x) := x;\nSPEC AF x").unwrap();
        assert!(!out.all_true());
        assert!(out.report.contains("is false"));
        assert!(out.report.contains("x = 0"));
    }

    #[test]
    fn failed_ag_prints_full_trace() {
        // AG !s=c fails; the run must show the path reaching s=c.
        let out = run_source(
            "MODULE main\nVAR s : {a, b, c};\nASSIGN init(s) := a;\n\
             next(s) := case s = a : b; s = b : c; 1 : s; esac;\n\
             SPEC AG !(s = c)",
        )
        .unwrap();
        assert!(!out.all_true());
        assert!(out.report.contains("-- state 1:"));
        assert!(out.report.contains("s = a"));
        assert!(out.report.contains("s = c"));
    }

    #[test]
    fn validated_mode_agrees_on_case_studies() {
        let out = run_source_validated(
            "MODULE main\nVAR s : {a, b, c};\nASSIGN init(s) := a;\n\
             next(s) := case s = a : {a, b}; s = b : c; 1 : s; esac;\n\
             SPEC EF s = c\nSPEC AG (s = c -> AX s = c)\nSPEC AF s = c",
        )
        .unwrap();
        assert_eq!(out.results.len(), 3);
        // AF s=c fails (stuttering at a); both engines must agree on that.
        assert!(!out.all_true());
    }

    #[test]
    fn store_backed_run_reuses_verdicts() {
        let src = "MODULE main\nVAR x : boolean;\nASSIGN init(x) := 0; next(x) := 1;\n\
                   SPEC AF x\nSPEC AG (x -> AX x)\nSPEC AG !x";
        let store = CertStore::new();
        let cold = run_source_with_store(src, &store).unwrap();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 3));
        assert!(cold.report.contains("0 of 3 specs answered from store"));

        let warm = run_source_with_store(src, &store).unwrap();
        assert_eq!((warm.cache_hits, warm.cache_misses), (3, 0));
        assert_eq!(warm.results, cold.results);
        assert!(warm.report.contains("3 of 3 specs answered from store"));
        assert!(warm.report.contains("(verdict from certificate store)"));
        assert!(warm.report.contains("100.0% hit rate"));

        // The store-backed verdicts agree with the plain driver.
        let plain = run_source(src).unwrap();
        assert_eq!(plain.results, warm.results);
        assert_eq!((plain.cache_hits, plain.cache_misses), (0, 3));
    }

    #[test]
    fn store_backed_report_surfaces_store_telemetry() {
        let src = "MODULE main\nVAR x : boolean;\nASSIGN next(x) := 1;\nSPEC AF x";
        let store = CertStore::new();
        let out = run_source_with_store(src, &store).unwrap();
        assert!(out.report.contains("store entries resident: 1"));
        assert!(out.report.contains("lru evictions: 0"));
        assert!(out.report.contains("store disk tier:"));
        assert!(out.report.contains("budget evictions"));
        // The BDD memory-kernel lines still precede the store block.
        assert!(out.report.contains("BDD nodes live:"));
    }

    #[test]
    fn store_and_backend_runs_share_one_store_across_engines() {
        let src = "MODULE main\nVAR s : {a, b, c};\nASSIGN init(s) := a;\n\
                   next(s) := case s = a : {a, b}; s = b : c; 1 : s; esac;\n\
                   SPEC EF s = c\nSPEC AG (s = c -> AX s = c)\nSPEC AF s = c";
        let store = CertStore::new();
        let cold = run_source_with_store_and_backend(src, &store, BackendChoice::Explicit).unwrap();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 3));
        assert!(cold.report.contains("engine: explicit-state"));
        assert!(cold.report.contains("store entries resident: 3"));

        // The symbolic engine answers from the same (untagged) keys.
        let warm = run_source_with_store_and_backend(src, &store, BackendChoice::Symbolic).unwrap();
        assert_eq!((warm.cache_hits, warm.cache_misses), (3, 0));
        assert_eq!(warm.results, cold.results);
        assert!(warm.report.contains("engine: symbolic (BDD)"));
        assert!(warm.report.contains("(verdict from certificate store)"));

        // Auto agrees with both and with the store-less drivers.
        let auto = run_source_with_store_and_backend(src, &store, BackendChoice::Auto).unwrap();
        assert_eq!(auto.results, run_source(src).unwrap().results);
    }

    #[test]
    fn store_and_backend_reports_explicit_witness_on_fresh_failures() {
        let store = CertStore::new();
        let out = run_source_with_store_and_backend(
            "MODULE main\nVAR x : boolean;\nASSIGN next(x) := x;\nSPEC AF x",
            &store,
            BackendChoice::Explicit,
        )
        .unwrap();
        assert!(!out.all_true());
        assert!(out.report.contains("x = 0"), "{}", out.report);
    }

    #[test]
    fn store_keys_are_formatting_insensitive_but_spec_sensitive() {
        let store = CertStore::new();
        let src1 = "MODULE main\nVAR x : boolean;\nASSIGN next(x) := 1; -- rise\nSPEC AF x";
        // Same program modulo comments/whitespace: the spec hits.
        let src2 = "MODULE main\n  VAR x : boolean;\nASSIGN next(x) := 1;\nSPEC AF x";
        run_source_with_store(src1, &store).unwrap();
        let again = run_source_with_store(src2, &store).unwrap();
        assert_eq!((again.cache_hits, again.cache_misses), (1, 0));
        // A different spec over the same program misses.
        let src3 = "MODULE main\nVAR x : boolean;\nASSIGN next(x) := 1;\nSPEC AG x";
        let other = run_source_with_store(src3, &store).unwrap();
        assert_eq!((other.cache_hits, other.cache_misses), (0, 1));
    }

    #[test]
    fn backend_choices_agree_on_small_models() {
        use cmc_serve::workload::{afs_source, ring_source};
        let enum3 = "MODULE main\nVAR s : {a, b, c};\nASSIGN init(s) := a;\n\
                     next(s) := case s = a : {a, b}; s = b : c; 1 : s; esac;\n\
                     SPEC EF s = c\nSPEC AG (s = c -> AX s = c)\nSPEC AF s = c";
        // (source, encoded bits, does Auto pick explicit?): the 2-bit
        // enum and the 7-bit 3-client AFS sit at or under AUTO_DENSE_BITS;
        // the daemon's 10-16-station rings and 4-6-client AFS do not.
        let mut cases = vec![(enum3.to_string(), 2, true), (afs_source(3), 7, true)];
        cases.extend((10..=16).map(|n| (ring_source(n), n, false)));
        cases.extend((4..=6).map(|c| (afs_source(c), 1 + 2 * c, false)));
        for (src, bits, auto_explicit) in &cases {
            let symbolic = run_source_with_backend(src, BackendChoice::Symbolic).unwrap();
            let explicit = run_source_with_backend(src, BackendChoice::Explicit).unwrap();
            let auto = run_source_with_backend(src, BackendChoice::Auto).unwrap();
            assert_eq!(symbolic.results, explicit.results, "{bits} bits");
            assert_eq!(symbolic.results, auto.results, "{bits} bits");
            assert!(symbolic.report.ends_with("engine: symbolic (BDD)\n"));
            assert!(explicit.report.ends_with("engine: explicit-state\n"));
            let expected = if *auto_explicit {
                format!("engine: explicit-state \u{2014} Auto: {bits} encoded bits <= AUTO_DENSE_BITS 8\n")
            } else {
                format!("engine: symbolic (BDD) \u{2014} Auto: {bits} encoded bits > AUTO_DENSE_BITS 8\n")
            };
            assert!(auto.report.ends_with(&expected), "{}", auto.report);
        }
    }

    /// The symbolic trailer reports the reachable set every check was
    /// restricted to: one state per token position, out of `2^20`
    /// encodings. The `engine:` line stays last.
    #[test]
    fn symbolic_report_counts_reachable_states() {
        use cmc_serve::workload::ring_source;
        let out = run_source_with_backend(&ring_source(20), BackendChoice::Symbolic).unwrap();
        assert!(
            out.report
                .contains("reachable states: 20 (2^4.32) of 2^20\n"),
            "{}",
            out.report
        );
        assert!(out.report.ends_with("engine: symbolic (BDD)\n"));
    }

    #[test]
    fn auto_backend_handles_models_past_the_explicit_budget() {
        // 25 boolean variables: 2^25 states, over the explicit state budget.
        let vars: String = (0..25).map(|i| format!("v{i} : boolean;\n")).collect();
        let assigns: String = (0..25).map(|i| format!("next(v{i}) := 1;\n")).collect();
        let src =
            format!("MODULE main\nVAR {vars}ASSIGN {assigns}SPEC AG (v0 -> AX v0)\nSPEC EF v24");
        assert!(matches!(
            run_source_with_backend(&src, BackendChoice::Explicit),
            Err(DriverError::Semantic(_))
        ));
        let auto = run_source_with_backend(&src, BackendChoice::Auto).unwrap();
        assert!(auto.all_true(), "{}", auto.report);
        assert!(auto.report.contains("engine: symbolic (BDD)"));
    }

    #[test]
    fn explicit_backend_reports_failing_witness() {
        let out = run_source_with_backend(
            "MODULE main\nVAR x : boolean;\nASSIGN next(x) := x;\nSPEC AF x",
            BackendChoice::Explicit,
        )
        .unwrap();
        assert!(!out.all_true());
        assert!(out.report.contains("is false"));
        assert!(out.report.contains("x = 0"), "{}", out.report);
    }

    /// A req/ack handshake component with a private `hidden` bit, its
    /// idealisation (the projection forgetting `hidden`), a consumer
    /// context, and the property module over the union vocabulary.
    const REFINE_CONCRETE: &str = "MODULE main\n\
         VAR req : boolean; ack : boolean; hidden : boolean;\n\
         ASSIGN next(hidden) := !hidden;\n\
         next(ack) := case req : 1; 1 : ack; esac;";
    const REFINE_ABSTRACT: &str = "MODULE main\n\
         VAR req : boolean; ack : boolean;\n\
         ASSIGN next(ack) := case req : 1; 1 : ack; esac;";
    const REFINE_CONTEXT: &str = "MODULE main\n\
         VAR ack : boolean; done : boolean;\n\
         ASSIGN next(ack) := ack;\n\
         next(done) := case ack : 1; 1 : done; esac;";

    #[test]
    fn refine_path_discharges_specs_by_substitution() {
        let property = "MODULE main\n\
             VAR req : boolean; ack : boolean; done : boolean;\n\
             INIT !ack & !done\n\
             SPEC AG (done -> ack)\n\
             SPEC AG !done";
        let out = run_refine(
            REFINE_CONCRETE,
            REFINE_ABSTRACT,
            &[REFINE_CONTEXT],
            property,
        )
        .unwrap();
        assert_eq!(out.results.len(), 2);
        // done only rises after ack, and ack never falls.
        assert!(out.results[0].1, "{}", out.report);
        // ack *can* rise, so done eventually can too: AG !done fails.
        assert!(!out.results[1].1, "{}", out.report);
        assert!(out.report.contains("by substitution"));
        assert!(out.report.contains("engine: refinement substitution"));
        // The 4-proposition union loses `hidden` on the abstract side.
        assert!(out
            .report
            .contains("property checked over 3 propositions instead of 4"));
    }

    /// `-refine` re-parses each `INIT` from its rendering as a CTL
    /// formula, so the deepest `INIT` the SMV parser accepts, in every
    /// shape it recurses or chains on, must run through it — here on a
    /// 2 MiB thread stack, the default for spawned threads.
    #[test]
    fn refine_carries_the_deepest_init() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let levels = crate::parse::MAX_EXPR_DEPTH;
                let wrap = |open: &str, close: &str| {
                    format!("{}ack{}", open.repeat(levels - 1), close.repeat(levels - 1))
                };
                let chain = |op: &str| vec!["ack"; levels].join(op);
                for init in [
                    wrap("(", ")"),
                    wrap("!", ""),
                    chain(" & "),
                    chain(" | "),
                    chain(" -> "),
                    chain(" <-> "),
                ] {
                    let property = format!(
                        "MODULE main\nVAR req : boolean; ack : boolean; done : boolean;\n\
                         INIT {init}\nSPEC AG (done -> ack)"
                    );
                    let out = run_refine(
                        REFINE_CONCRETE,
                        REFINE_ABSTRACT,
                        &[REFINE_CONTEXT],
                        &property,
                    );
                    assert!(out.is_ok(), "{}: {:?}", &init[..40], out.err());
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn refine_path_rejects_unsound_substitutions_loudly() {
        // An abstraction dropping the *shared* `ack` bit is unsound
        // (the context could observe behaviours the premise never
        // checked) — a typed semantic error, never a verdict.
        let bad_abstract = "MODULE main\nVAR req : boolean;\nASSIGN next(req) := req;";
        let property = "MODULE main\n\
             VAR req : boolean; ack : boolean; done : boolean;\n\
             SPEC AG (done -> ack)";
        assert!(matches!(
            run_refine(REFINE_CONCRETE, bad_abstract, &[REFINE_CONTEXT], property),
            Err(DriverError::Semantic(_))
        ));
        // So is an existential property: simulation only preserves the
        // universal fragment.
        let existential = "MODULE main\n\
             VAR req : boolean; ack : boolean; done : boolean;\n\
             SPEC EF done";
        let err = run_refine(
            REFINE_CONCRETE,
            REFINE_ABSTRACT,
            &[REFINE_CONTEXT],
            existential,
        )
        .unwrap_err();
        match err {
            DriverError::Semantic(m) => assert!(m.contains("rejected as unsound"), "{m}"),
            other => panic!("expected a semantic rejection, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            run_source("MODUL main"),
            Err(DriverError::Parse(_))
        ));
        assert!(matches!(
            run_source("MODULE main\nVAR x : boolean;\nSPEC zz"),
            Err(DriverError::Semantic(_))
        ));
    }
}
