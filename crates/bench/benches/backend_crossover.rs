//! Explicit vs symbolic backend wall-time on the token ring across the
//! full 4..34-station sweep — the calibration data behind the
//! `BackendChoice::Auto` cost model.
//!
//! Two families are measured at every width:
//!
//! * **pinned** — the one-hot `token_at_zero` initial condition. The
//!   reachable fragment is exactly the `n` token positions, so the
//!   hash-compacted explicit kernel stays microsecond-fast at *any*
//!   width while the symbolic engine pays its BDD-construction floor.
//! * **free** — the trivial restriction. Every one of the `2^n` valuations
//!   is a start state, so explicit cost tracks the dense universe and the
//!   symbolic engine wins past the crossover.
//!
//! Each row records `{props, family, reachable_states, estimated_states,
//! auto_choice, explicit_ms, symbolic_ms}` into `BENCH_backend.json` at
//! the workspace root. `reachable_states` is what the explicit engine
//! actually labelled (dense universe or interned fragment);
//! `estimated_states` is the cost model's prediction for the same row, so
//! the two columns audit the estimator. A leg that exceeds the 60-second
//! per-row budget is *refused* — the row records why, and the leg is
//! skipped at every larger width rather than fabricated (monotone-cost
//! families only get slower).
//!
//! Quick mode (`CMC_BENCH_QUICK=1`, the CI width-smoke job) shrinks the
//! sweep to a handful of widths spanning both sides of the old 24-prop
//! cliff so the JSON shape and the Auto audit still exercise end to end.
//!
//! Run with `cargo bench -p cmc-bench --bench backend_crossover`; it
//! overwrites the committed `BENCH_backend.json`.

use cmc_bench::ring;
use cmc_core::{
    estimate_reachable_states, BackendChoice, ExplicitBackend, SymbolicBackend, Target,
    AUTO_CROSSOVER_STATES, AUTO_DENSE_BITS,
};
use cmc_ctl::{parse, ExplicitLimits, Formula, Restriction};
use cmc_store::json::Json;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Per-leg wall-time budget. A leg that blows it is refused, not guessed.
const ROW_BUDGET: Duration = Duration::from_secs(60);

fn quick() -> bool {
    std::env::var_os("CMC_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// Ring widths for the summary sweep (one proposition per station).
fn sizes() -> Vec<usize> {
    if quick() {
        vec![4, 12, 20, 26, 30, 34]
    } else {
        (4..=34).step_by(2).collect()
    }
}

/// The free family's obligation: a token at station 0 is either kept or
/// handed to station 1 — true in every state, with a depth-1 fixpoint, so
/// the timing is dominated by each backend's model construction over the
/// dense universe.
fn handoff_formula() -> Formula {
    parse("t0 -> AX (t0 | t1)").unwrap()
}

/// The pinned family's obligation: the token always returns to station 0.
/// A nested `AG EF` fixpoint — trivial over the `n`-state reachable
/// fragment, but a genuine iterated relational product for the BDD engine.
/// (It fails in the free family, whose tokenless valuations deadlock.)
fn liveness_formula() -> Formula {
    parse("AG EF t0").unwrap()
}

/// The explicit engine configured the way `Auto` actually runs it
/// (dense up to [`AUTO_DENSE_BITS`], hash-compacted reachable beyond,
/// default state budget) — the configuration this sweep calibrates.
fn auto_explicit() -> ExplicitBackend {
    ExplicitBackend::with_limits(ExplicitLimits {
        dense_bits: AUTO_DENSE_BITS,
        ..ExplicitLimits::default()
    })
}

/// One measured leg of a row.
enum Leg {
    /// Wall time of a single check, plus the state count the explicit
    /// engine labelled (None for the symbolic leg / dense runs).
    Measured { ms: f64, labelled: Option<u64> },
    /// The backend refused the obligation (e.g. the reachable kernel's
    /// state budget) — recorded verbatim.
    Errored(String),
    /// The leg exceeded [`ROW_BUDGET`]; larger widths are skipped.
    TimedOut,
}

/// Run `work` on a helper thread and give up after [`ROW_BUDGET`]. The
/// abandoned thread finishes (or not) in the background; its family/leg is
/// never timed again, so it cannot pollute later rows' measurements.
fn run_leg<F>(work: F) -> Leg
where
    F: FnOnce() -> Result<(f64, Option<u64>), String> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    match rx.recv_timeout(ROW_BUDGET) {
        Ok(Ok((ms, labelled))) => Leg::Measured { ms, labelled },
        Ok(Err(e)) => Leg::Errored(e),
        Err(mpsc::RecvTimeoutError::Timeout) => Leg::TimedOut,
        Err(mpsc::RecvTimeoutError::Disconnected) => Leg::Errored("leg panicked".into()),
    }
}

/// One `{props, …}` summary row for `family` at width `n`. `dead` marks a
/// leg that already timed out at a smaller width this run.
fn summary_row(family: &str, n: usize, r: &Restriction, f: &Formula, dead: &mut [bool; 2]) -> Json {
    let systems = ring::stations(n);
    let target = Target::composition(systems.iter().collect());
    let estimate = estimate_reachable_states(&target, r);
    let auto_choice = BackendChoice::Auto.route(&target, r).planned;

    let legs: [Leg; 2] = std::array::from_fn(|leg| {
        if dead[leg] {
            return Leg::TimedOut;
        }
        let systems = systems.clone();
        let r = r.clone();
        let f = f.clone();
        let out = run_leg(move || {
            let target = Target::composition(systems.iter().collect());
            let start = Instant::now();
            let v = if leg == 0 {
                auto_explicit().check(&target, &r, &f)
            } else {
                SymbolicBackend::default().check(&target, &r, &f)
            }
            .map_err(|e| e.to_string())?;
            assert!(v.holds, "the handoff invariant holds in every family");
            Ok((
                start.elapsed().as_secs_f64() * 1e3,
                v.stats.reachable_states,
            ))
        });
        if matches!(out, Leg::TimedOut) {
            dead[leg] = true;
        }
        out
    });

    // What the explicit engine actually labelled: the interned reachable
    // fragment when it reported one, the dense `2^n` universe otherwise.
    let labelled = match &legs[0] {
        Leg::Measured { labelled, .. } => Json::int(labelled.unwrap_or(1u64 << n)),
        _ => Json::Null,
    };
    let ms_of = |leg: &Leg| match leg {
        Leg::Measured { ms, .. } => Json::Num(*ms),
        Leg::Errored(e) => Json::Str(format!("refused: {e}")),
        Leg::TimedOut => Json::Str(format!(
            "refused: exceeded the {}s per-row budget",
            ROW_BUDGET.as_secs()
        )),
    };
    // Audit field: where both legs were measured, did the Auto plan pick
    // the engine that actually won the row?
    let matches_faster = match (&legs[0], &legs[1]) {
        (Leg::Measured { ms: e, .. }, Leg::Measured { ms: s, .. }) => {
            let faster = if e <= s { "explicit" } else { "symbolic" };
            Json::Bool(auto_choice.name() == faster)
        }
        _ => Json::Null,
    };
    Json::Obj(vec![
        ("props".into(), Json::int(n as u64)),
        ("family".into(), Json::Str(family.into())),
        ("reachable_states".into(), labelled),
        ("estimated_states".into(), Json::Num(estimate as f64)),
        ("auto_choice".into(), Json::Str(auto_choice.name().into())),
        ("explicit_ms".into(), ms_of(&legs[0])),
        ("symbolic_ms".into(), ms_of(&legs[1])),
        ("auto_matches_faster".into(), matches_faster),
    ])
}

/// Emit `BENCH_backend.json`: the full two-family sweep.
fn main() {
    let mut series = Vec::new();
    for family in ["pinned", "free"] {
        // Per-family leg health: once a leg times out, larger widths of
        // the same family skip it (the cost curves are monotone in `n`).
        let mut dead = [false, false];
        for n in sizes() {
            let (r, f) = match family {
                "pinned" => (
                    Restriction::with_init(ring::token_at_zero(n)),
                    liveness_formula(),
                ),
                _ => (Restriction::trivial(), handoff_formula()),
            };
            series.push(summary_row(family, n, &r, &f, &mut dead));
        }
    }
    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("backend_crossover".into())),
        ("family".into(), Json::Str("token-ring".into())),
        (
            "auto_crossover_states".into(),
            Json::int(AUTO_CROSSOVER_STATES as u64),
        ),
        ("unit".into(), Json::Str("ms per check (single run)".into())),
        ("row_budget_s".into(), Json::int(ROW_BUDGET.as_secs())),
        ("quick".into(), Json::Bool(quick())),
        ("series".into(), Json::Arr(series)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backend.json");
    std::fs::write(path, doc.to_pretty() + "\n").expect("write BENCH_backend.json");
}
