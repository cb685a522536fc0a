//! Running one workload: set-up, then either the measured closed loop
//! (`trace = false`, end-to-end metrics) or the traced replay
//! (`trace = true`, per-layer metrics).
//!
//! The single-threaded workloads live here; the daemon workloads are in
//! [`crate::harness::serve`].

use crate::harness::gen::{self, Deck, Program, Proof};
use crate::harness::replay::{self, LayerCounters};
use crate::harness::speed::SpeedProbe;
use crate::harness::stats::{median, peak_rss_mib, process_cpu_seconds, quantile, reset_peak_rss};
use crate::harness::trace::Tracer;
use crate::harness::{serve, Workload, SPANS};
use cmc_smv::{run_source, DriverError, RunOutcome};
use cmc_store::StoreStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one run of one workload measured.
pub struct Outcome {
    /// Jobs (programs or proofs) checked against their expected verdicts.
    pub attempted: u64,
    /// Errors, refusals and wrong verdicts among them.
    pub failed: u64,
    /// Requests timed: `run_source` calls, proofs or batch round trips.
    pub requests: u64,
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// Length of the measured window (untraced) or of the traced replay.
    pub window_s: f64,
    /// How much slower than the host the bounds were set on this host
    /// ran, median over rounds: a time metric as measured is its value
    /// times this. 1 for a traced run, whose metrics are not scaled.
    pub slowdown: f64,
    /// Metric values by name: the end-to-end metrics of an untraced run,
    /// or the per-layer metrics of a traced one.
    pub metrics: BTreeMap<String, f64>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Run `workload` for `seconds` with inputs made from `seed`.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match workload {
        Workload::CliSymbolic => cli_symbolic(seed, seconds, trace),
        Workload::ServeCold => serve::cold(seed, seconds, trace),
        Workload::ServeHot => serve::hot(seed, seconds, trace),
        Workload::ProofCompositional => proof_compositional(seed, seconds, trace),
    }
}

/// Set-up times of one run, each scaled by the host's slowdown measured
/// just before it; `setup_s` is their median. The first set-up builds
/// what the run measures. Untraced runs of the workloads whose rounds
/// take seconds time one more at each round boundary, outside the
/// measured window, so the set-ups sample the host at moments spread over
/// the run instead of within a few milliseconds of each other.
#[derive(Debug, Default)]
pub(crate) struct Setups(Vec<f64>);

impl Setups {
    /// Run and time one set-up.
    pub(crate) fn time<T>(
        &mut self,
        probe: &mut SpeedProbe,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        for _ in 0..3 {
            probe.sample();
        }
        let slowdown = probe.take_slowdown();
        let start = Instant::now();
        let value = setup()?;
        self.0.push(start.elapsed().as_secs_f64() / slowdown);
        Ok(value)
    }

    /// The median set-up time.
    pub(crate) fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// What one step of a closed loop did: one request per client.
#[derive(Debug, Default)]
pub(crate) struct Step {
    /// Latency of each request, in ms.
    pub(crate) latencies_ms: Vec<f64>,
    /// Jobs checked against their expected verdicts.
    pub(crate) jobs: u64,
    /// … of which failed.
    pub(crate) failed: u64,
}

/// One step of one request that checks one job, timed.
fn timed(run: impl FnOnce() -> bool) -> Step {
    let start = Instant::now();
    let correct = run();
    Step {
        latencies_ms: vec![start.elapsed().as_secs_f64() * 1e3],
        jobs: 1,
        failed: u64::from(!correct),
    }
}

/// One round of a measured window, as measured.
#[derive(Debug)]
pub(crate) struct Lap {
    /// Jobs completed.
    jobs: u64,
    /// Wall seconds, less the time spent sampling the host's speed.
    wall_s: f64,
    /// Process CPU seconds, less the same.
    cpu_s: f64,
    /// The host's slowdown over the round.
    slowdown: f64,
    /// Peak resident set over the round, less the kernel's buffers, in
    /// MiB.
    peak_rss_mib: f64,
    /// Latency of every request, in ms.
    latencies_ms: Vec<f64>,
}

/// A round in progress.
struct LapClock {
    start: Instant,
    cpu_s: f64,
    paused_s: f64,
    jobs: u64,
    latencies_ms: Vec<f64>,
}

impl LapClock {
    fn start() -> Result<LapClock, String> {
        reset_peak_rss()?;
        Ok(LapClock {
            start: Instant::now(),
            cpu_s: process_cpu_seconds(),
            paused_s: 0.0,
            jobs: 0,
            latencies_ms: Vec::new(),
        })
    }

    /// End the round; `probe` gives the host's slowdown over it. The
    /// kernel runs on one thread and does no I/O, so its CPU time is its
    /// wall time.
    fn finish(self, probe: &mut SpeedProbe) -> Lap {
        let wall_s = self.start.elapsed().as_secs_f64() - self.paused_s;
        let cpu_s = process_cpu_seconds() - self.cpu_s - self.paused_s;
        let peak_rss_mib = peak_rss_mib() - probe.resident_mib;
        Lap {
            jobs: self.jobs,
            wall_s,
            cpu_s,
            slowdown: probe.take_slowdown(),
            peak_rss_mib,
            latencies_ms: self.latencies_ms,
        }
    }
}

/// What a measured window saw.
#[derive(Debug, Default)]
pub(crate) struct Window {
    /// Jobs attempted.
    pub(crate) attempted: u64,
    /// … of which failed.
    pub(crate) failed: u64,
    /// The window's rounds.
    laps: Vec<Lap>,
}

impl Window {
    /// Requests timed.
    pub(crate) fn requests(&self) -> u64 {
        self.laps.iter().map(|l| l.latencies_ms.len() as u64).sum()
    }

    /// The end-to-end metrics of this window after a set-up of `setup_s`.
    /// Every time is divided, and the throughput multiplied, by the
    /// host's slowdown over the round it was measured in. Throughput, CPU
    /// per job and peak resident set are medians over rounds, so a round
    /// the host ran unusually fast or slow moves none of them; latencies
    /// are percentiles over every request.
    pub(crate) fn into_outcome(self, setup_s: f64) -> Outcome {
        let laps: Vec<&Lap> = self.laps.iter().filter(|l| l.jobs > 0).collect();
        let per_lap = |f: fn(&Lap) -> f64| median(&laps.iter().map(|l| f(l)).collect::<Vec<_>>());
        let latencies: Vec<f64> = laps
            .iter()
            .flat_map(|l| l.latencies_ms.iter().map(|ms| ms / l.slowdown))
            .collect();
        let metrics = [
            ("setup_s", setup_s),
            (
                "jobs_per_s",
                per_lap(|l| l.jobs as f64 / l.wall_s * l.slowdown),
            ),
            ("latency_ms_p50", quantile(&latencies, 0.5)),
            ("latency_ms_p90", quantile(&latencies, 0.9)),
            (
                "cpu_ms_per_job",
                per_lap(|l| l.cpu_s * 1e3 / l.jobs as f64 / l.slowdown),
            ),
            ("peak_rss_mb", per_lap(|l| l.peak_rss_mib)),
        ];
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            requests: self.requests(),
            setup_s,
            window_s: self.laps.iter().map(|l| l.wall_s).sum(),
            slowdown: per_lap(|l| l.slowdown),
            metrics: metrics
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            tracer: None,
        }
    }
}

/// Run `step` in a closed loop, in rounds: each call runs the next step
/// and says whether it ended a round. The loop stops at the end of the
/// round closest to `seconds` after it started, counting the time spent
/// off the clock. Between steps, off the clock, it samples the host's
/// speed; between rounds, also off the clock, it runs `between_rounds`.
pub(crate) fn closed_loop(
    seconds: f64,
    probe: &mut SpeedProbe,
    mut step: impl FnMut() -> Result<(Step, bool), String>,
    mut between_rounds: impl FnMut(&mut SpeedProbe) -> Result<(), String>,
) -> Result<Window, String> {
    let started = Instant::now();
    let mut window = Window::default();
    loop {
        let round_started = Instant::now();
        let mut lap = LapClock::start()?;
        loop {
            let (done, ends_round) = step()?;
            window.attempted += done.jobs;
            window.failed += done.failed;
            lap.jobs += done.jobs;
            lap.latencies_ms.extend(done.latencies_ms);
            if ends_round {
                break;
            }
            lap.paused_s += probe.sample_if_due();
        }
        window.laps.push(lap.finish(probe));
        let round_s = round_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + round_s / 2.0 >= seconds {
            return Ok(window);
        }
        between_rounds(probe)?;
    }
}

/// Totals of jobs run once traced and once untraced.
#[derive(Debug, Default)]
pub(crate) struct Paired {
    /// Jobs run (each twice).
    pub(crate) jobs: usize,
    /// Runs that got a wrong verdict or an error.
    pub(crate) failed: u64,
    /// Σ traced run time, in s: the traced wall time.
    pub(crate) traced_s: f64,
    /// Σ untraced run time, in s.
    pub(crate) untraced_s: f64,
}

impl Paired {
    /// Run the next job traced, under a `job` root span numbered from 1,
    /// and untraced. Odd jobs run traced first and even ones untraced
    /// first, so memory and caches warmed by the first run favour neither
    /// side. Returns the untraced run's time in ms.
    pub(crate) fn run(
        &mut self,
        tracer: &mut Tracer,
        traced: impl FnOnce(&mut Tracer) -> bool,
        untraced: impl FnOnce() -> bool,
    ) -> f64 {
        let req = self.jobs as u64 + 1;
        let run_traced = |tracer: &mut Tracer| {
            let start = Instant::now();
            (
                tracer.root("job", req, traced),
                start.elapsed().as_secs_f64(),
            )
        };
        let run_untraced = || {
            let start = Instant::now();
            (untraced(), start.elapsed().as_secs_f64())
        };
        let ((traced_ok, traced_s), (untraced_ok, untraced_s)) = if req % 2 == 1 {
            let first = run_traced(tracer);
            (first, run_untraced())
        } else {
            let first = run_untraced();
            (run_traced(tracer), first)
        };
        self.jobs += 1;
        self.failed += u64::from(!traced_ok) + u64::from(!untraced_ok);
        self.traced_s += traced_s;
        self.untraced_s += untraced_s;
        untraced_s * 1e3
    }
}

/// Pair-run inputs from `next` for `seconds`.
fn paired_loop<I>(
    seconds: f64,
    mut next: impl FnMut() -> (I, bool),
    mut traced: impl FnMut(&mut Tracer, &I) -> bool,
    mut untraced: impl FnMut(&I) -> bool,
) -> (Tracer, Paired) {
    let mut tracer = Tracer::default();
    let mut paired = Paired::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (input, _) = next();
        paired.run(&mut tracer, |t| traced(t, &input), || untraced(&input));
    }
    (tracer, paired)
}

/// Daemon-side numbers a serve workload adds to its per-layer metrics.
pub(crate) struct ServeLayer {
    /// The daemon's `stats` op at the end of the run.
    pub(crate) store: StoreStats,
    /// Mean per job of round trip minus job time ÷ min(workers, batch).
    pub(crate) wait_ms_per_job: f64,
    /// Spec checks beyond the unique keys checked, ÷ spec checks.
    pub(crate) dup_check_frac: f64,
}

/// The per-layer metrics of a traced run.
fn per_layer(
    tracer: &Tracer,
    paired: &Paired,
    c: &LayerCounters,
    serve: Option<&ServeLayer>,
) -> BTreeMap<String, f64> {
    let jobs = paired.jobs.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let self_ns = tracer.self_time_ns();
    let traced_ns = paired.traced_s * 1e9;
    let mut m = BTreeMap::new();
    for span in SPANS {
        let ns = self_ns.get(span).copied().unwrap_or(0) as f64;
        m.insert(format!("{span}.ms"), ns / 1e6 / jobs);
        m.insert(format!("{span}.share"), ns / traced_ns);
    }
    let store = serve.map(|s| s.store).unwrap_or_default();
    let values = [
        ("bdd.nodes_allocated", c.bdd_nodes_allocated as f64 / jobs),
        ("bdd.peak_live_nodes", c.bdd_peak_live_nodes as f64),
        ("bdd.gc_runs", c.bdd_gc_runs as f64 / jobs),
        (
            "bdd.and_exists_hit_ratio",
            ratio(c.and_exists_hits, c.and_exists_hits + c.and_exists_misses),
        ),
        ("bdd.cache_evictions", c.bdd_cache_evictions as f64 / jobs),
        ("symbolic.clusters", ratio(c.clusters, c.scheduled_models)),
        ("symbolic.replans", c.replans as f64 / jobs),
        ("ctl.transitions", ratio(c.transitions, c.explicit_models)),
        ("route.explicit_frac", ratio(c.routed_explicit, c.routed)),
        (
            "store.hit_ratio",
            ratio(store.hits, store.hits + store.misses),
        ),
        ("store.insertions", store.insertions as f64),
        ("store.evictions", store.evictions as f64),
        ("store.disk_bytes", store.disk_bytes as f64),
        ("store.compactions", store.compactions as f64),
        ("serve.wait.ms", serve.map_or(0.0, |s| s.wait_ms_per_job)),
        (
            "serve.dup_check_frac",
            serve.map_or(0.0, |s| s.dup_check_frac),
        ),
        (
            "trace.overhead_frac",
            paired.traced_s / paired.untraced_s - 1.0,
        ),
    ];
    m.extend(values.into_iter().map(|(k, v)| (k.to_string(), v)));
    m
}

/// Did the driver give every spec its expected verdict?
pub(crate) fn verdicts_match(program: &Program, result: &Result<RunOutcome, DriverError>) -> bool {
    result
        .as_ref()
        .is_ok_and(|out| program.matches(&out.results))
}

fn cli_symbolic(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let set_up = || {
        let deck = Deck::new(gen::cli_cards(), seed);
        let warm = gen::ring(20, "warm_", 0);
        if !verdicts_match(&warm, &run_source(&warm.source)) {
            return Err("warm-up ring got a wrong verdict".to_string());
        }
        Ok(deck)
    };
    let mut probe = SpeedProbe::new();
    let mut setups = Setups::default();
    let mut deck = setups.time(&mut probe, set_up)?;
    let mut made = 0u64;
    let mut next = move || {
        made += 1;
        let rounds = deck.rounds();
        let card = deck.deal();
        let program = card.make(&format!("s{seed}j{made}_"), deck.rng());
        (program, deck.rounds() > rounds)
    };
    if !trace {
        let window = closed_loop(
            seconds,
            &mut probe,
            || {
                let (p, ends_round) = next();
                Ok((
                    timed(|| verdicts_match(&p, &run_source(&p.source))),
                    ends_round,
                ))
            },
            |probe| setups.time(probe, set_up).map(drop),
        )?;
        return Ok(window.into_outcome(setups.median()));
    }
    let mut counters = LayerCounters::default();
    let (tracer, paired) = paired_loop(
        seconds,
        next,
        |t, p| replay::run_source(t, &p.source, &mut counters).is_ok_and(|v| v == p.expected),
        |p| verdicts_match(p, &run_source(&p.source)),
    );
    Ok(traced_outcome(
        setups.median(),
        tracer,
        paired,
        &counters,
        None,
    ))
}

fn proof_compositional(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let set_up = || {
        let deck = Deck::new(gen::proof_cards(), seed);
        if !replay::run_proof(Proof::Afs1Safety) {
            return Err("warm-up proof failed".to_string());
        }
        Ok(deck)
    };
    let mut probe = SpeedProbe::new();
    let mut setups = Setups::default();
    let mut deck = setups.time(&mut probe, set_up)?;
    let mut next = move || {
        let rounds = deck.rounds();
        let proof = deck.deal();
        (proof, deck.rounds() > rounds)
    };
    if !trace {
        let window = closed_loop(
            seconds,
            &mut probe,
            || {
                let (proof, ends_round) = next();
                Ok((timed(|| replay::run_proof(proof)), ends_round))
            },
            |probe| setups.time(probe, set_up).map(drop),
        )?;
        return Ok(window.into_outcome(setups.median()));
    }
    let mut counters = LayerCounters::default();
    let (tracer, paired) = paired_loop(
        seconds,
        next,
        |t, p| replay::replay_proof(t, *p, &mut counters).unwrap_or(false),
        |p| replay::run_proof(*p),
    );
    Ok(traced_outcome(
        setups.median(),
        tracer,
        paired,
        &counters,
        None,
    ))
}

/// The outcome of a traced run: every paired job checked twice, plus,
/// for a serve workload, the daemon traffic sent before the replay.
pub(crate) fn traced_outcome(
    setup_s: f64,
    tracer: Tracer,
    paired: Paired,
    counters: &LayerCounters,
    serve: Option<(&ServeLayer, &Window)>,
) -> Outcome {
    let daemon = serve.map(|(_, window)| window);
    Outcome {
        attempted: 2 * paired.jobs as u64 + daemon.map_or(0, |w| w.attempted),
        failed: paired.failed + daemon.map_or(0, |w| w.failed),
        requests: daemon.map_or(paired.jobs as u64, Window::requests),
        setup_s,
        window_s: paired.traced_s,
        slowdown: 1.0,
        metrics: per_layer(&tracer, &paired, counters, serve.map(|(layer, _)| layer)),
        tracer: Some(tracer),
    }
}
