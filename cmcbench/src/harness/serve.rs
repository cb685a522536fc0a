//! The daemon workloads. An in-process `cmc_serve::Server` with two
//! workers, a segmented disk tier and otherwise its default configuration
//! serves two clients, each a connection driven by a thread of its own.
//! The clients move in lock-step: at each step both send a batch and wait
//! for the reply; a request is one batch round trip.
//!
//! The traced run sends the same traffic for half its time, then replays
//! a prefix of the jobs in-process through the public functions the
//! daemon's `run_source_with_store_and_backend` composes, on a store in
//! the state the daemon started from, with the engine the driver's
//! report names for each job. The replay's verdicts must equal the
//! daemon's.

use crate::harness::err;
use crate::harness::gen::{self, Deck, Family, Program, Zipf};
use crate::harness::replay::{self, LayerCounters};
use crate::harness::speed::SpeedProbe;
use crate::harness::trace::Tracer;
use crate::harness::workloads::{
    closed_loop, traced_outcome, verdicts_match, Outcome, Paired, ServeLayer, Setups, Step, Window,
};
use cmc_core::BackendChoice;
use cmc_serve::{Client, Job, JobReport, ServeConfig, Server};
use cmc_smv::{parse_module, run_source_with_store_and_backend};
use cmc_store::{CertStore, Entry, ObligationKey, SegmentedDiskStore, StoreStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Daemon worker sessions per batch: the host's two hardware threads.
const WORKERS: usize = 2;
/// Client connections, one thread each.
const CLIENTS: usize = 2;
const COLD_BATCH: usize = 4;
/// `serve-cold` set-ups at each round boundary. A round takes seconds, so
/// a run has only a few boundaries; one set-up at each left `setup_s` the
/// median of four and made it spread by a quarter.
const COLD_SETUPS_PER_ROUND: usize = 3;
const HOT_BATCH: usize = 8;
/// `serve-hot` steps per round: 8000 jobs, about a second.
const HOT_ROUND_STEPS: u64 = 500;
/// Programs on the `serve-hot` disk tier before the daemon starts.
const HOT_POOL: usize = 2048;
/// `serve-hot` set-ups per run.
const HOT_SETUPS: usize = 5;
/// `serve-hot` store capacity: the pool and every fresh program of a run
/// stay resident, so hits never turn into misses through eviction.
const HOT_CAPACITY: usize = 1 << 17;
/// Jobs replayed per traced run at most.
const MAX_REPLAY: usize = 2048;

/// A directory under `target/cmc-bench/tmp`, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Result<TempDir, String> {
        let path =
            Path::new("target/cmc-bench/tmp").join(format!("{label}-{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).map_err(err)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn start_daemon(dir: &Path, store_capacity: usize) -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: WORKERS,
        store_capacity,
        disk_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(err)
}

fn jobs_of(programs: &[Arc<Program>]) -> Vec<Job> {
    programs
        .iter()
        .map(|p| Job::auto(p.source.clone()))
        .collect()
}

/// Does the daemon's report give every spec its expected verdict?
fn report_matches(program: &Program, report: &Option<JobReport>) -> bool {
    report.as_ref().is_some_and(|r| program.matches(&r.specs))
}

/// Send one batch and require every expected verdict back.
fn warm_up(addr: SocketAddr, programs: &[Arc<Program>]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(err)?;
    let reports = client.check_batch(jobs_of(programs)).map_err(err)?;
    for (program, report) in programs.iter().zip(reports) {
        if !report_matches(program, &report.ok()) {
            return Err("warm-up batch got a wrong verdict".into());
        }
    }
    Ok(())
}

/// One batch a client sent and what came back.
struct Sent {
    rtt_ms: f64,
    programs: Vec<Arc<Program>>,
    /// One report per job; `None` for an error.
    reports: Vec<Option<JobReport>>,
}

/// The client connections, each driven by a thread of its own.
struct Clients {
    inboxes: Vec<Sender<Vec<Arc<Program>>>>,
    outboxes: Vec<Receiver<Result<Sent, String>>>,
    threads: Vec<JoinHandle<()>>,
}

impl Clients {
    fn connect(addr: SocketAddr) -> Result<Clients, String> {
        let mut clients = Clients {
            inboxes: Vec::new(),
            outboxes: Vec::new(),
            threads: Vec::new(),
        };
        for _ in 0..CLIENTS {
            let mut client = Client::connect(addr).map_err(err)?;
            let (inbox, batches) = channel::<Vec<Arc<Program>>>();
            let (replies, outbox) = channel();
            clients.threads.push(std::thread::spawn(move || {
                for programs in batches {
                    let start = Instant::now();
                    let result = client.check_batch(jobs_of(&programs)).map(|reports| Sent {
                        rtt_ms: start.elapsed().as_secs_f64() * 1e3,
                        programs,
                        reports: reports.into_iter().map(Result::ok).collect(),
                    });
                    if replies.send(result.map_err(err)).is_err() {
                        return;
                    }
                }
            }));
            clients.inboxes.push(inbox);
            clients.outboxes.push(outbox);
        }
        Ok(clients)
    }

    /// Hand every client its batch at once and wait for every reply; the
    /// batches in client order.
    fn step(&self, batches: Vec<Vec<Arc<Program>>>) -> Result<Vec<Sent>, String> {
        for (inbox, batch) in self.inboxes.iter().zip(batches) {
            inbox.send(batch).map_err(|_| "a client thread stopped")?;
        }
        self.outboxes
            .iter()
            .map(|outbox| {
                outbox
                    .recv()
                    .map_err(|_| "a client thread stopped".to_string())?
            })
            .collect()
    }
}

impl Drop for Clients {
    fn drop(&mut self) {
        self.inboxes.clear();
        for thread in self.threads.drain(..) {
            thread.join().ok();
        }
    }
}

/// The latencies and verdict checks of one step.
fn tally(sent: &[Sent]) -> Step {
    let mut step = Step::default();
    for batch in sent {
        step.latencies_ms.push(batch.rtt_ms);
        for (program, report) in batch.programs.iter().zip(&batch.reports) {
            step.jobs += 1;
            step.failed += u64::from(!report_matches(program, report));
        }
    }
    step
}

/// What a traced run keeps of the daemon traffic: the batches of the
/// first [`MAX_REPLAY`] jobs, in send order, and the spec checks behind
/// `serve.dup_check_frac`.
#[derive(Default)]
struct Traffic {
    kept: Vec<Sent>,
    kept_jobs: usize,
    full: bool,
    /// Spec checks the daemon ran.
    checks: u64,
    /// … of which the first for their program.
    unique: u64,
    checked: HashSet<String>,
}

impl Traffic {
    fn record(&mut self, sent: Vec<Sent>) {
        for batch in sent {
            for (program, report) in batch.programs.iter().zip(&batch.reports) {
                let Some(report) = report else { continue };
                self.checks += report.cache_misses;
                if report.cache_misses > 0 && self.checked.insert(program.source.clone()) {
                    self.unique += report.specs.len() as u64;
                }
            }
            self.full |= self.kept_jobs + batch.programs.len() > MAX_REPLAY;
            if !self.full {
                self.kept_jobs += batch.programs.len();
                self.kept.push(batch);
            }
        }
    }

    /// Spec checks the daemon ran beyond one per unique `(source, spec)`
    /// key, as a share of all its spec checks: work single-flight
    /// coalescing should have saved.
    fn dup_check_frac(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            self.checks.saturating_sub(self.unique) as f64 / self.checks as f64
        }
    }
}

/// `serve-cold` traffic. At each step both clients are sent a batch of
/// one family, dealt from the seeded deck, holding three fresh programs
/// and one program the other client is sent in the same step. Both
/// batches are in flight together, so the daemon coalesces the
/// duplicate. Equal steps make the latency distribution the same at every
/// seed; free-running clients with a repeat waiting on the other's
/// 16-station ring made its median jump by a fifth.
struct ColdSteps {
    deck: Deck<Family>,
    prefix: String,
    made: u64,
}

impl ColdSteps {
    fn new(seed: u64) -> ColdSteps {
        ColdSteps {
            deck: Deck::new(gen::cold_cards(), seed),
            prefix: format!("s{seed}j"),
            made: 0,
        }
    }

    /// One batch per client for the next step, and whether the step ends
    /// a round of the deck.
    fn step(&mut self) -> (Vec<Vec<Arc<Program>>>, bool) {
        let rounds = self.deck.rounds();
        let family = self.deck.deal();
        let mut batches: Vec<Vec<Arc<Program>>> = Vec::new();
        for _ in 0..CLIENTS {
            let mut batch = Vec::new();
            for _ in 1..COLD_BATCH {
                self.made += 1;
                let prefix = format!("{}{}_", self.prefix, self.made);
                batch.push(Arc::new(family.make(&prefix, self.deck.rng())));
            }
            batches.push(batch);
        }
        // Each batch ends with the other client's first program. The
        // daemon's workers claim jobs in batch order, so the other client
        // always starts that program first and this batch's copy waits
        // on it or hits. At a random position, whichever client reached
        // the duplicate first checked it, and its batch took a third
        // longer: light steps' latencies split into two modes.
        let firsts: Vec<Arc<Program>> = batches.iter().map(|b| Arc::clone(&b[0])).collect();
        for (c, batch) in batches.iter_mut().enumerate() {
            batch.push(Arc::clone(&firsts[(c + 1) % CLIENTS]));
        }
        (batches, self.deck.rounds() > rounds)
    }
}

/// `serve-hot` traffic of one client: Zipf(1.0) draws from the pool,
/// with exactly one fresh program at a seeded position in every hundred
/// jobs.
struct HotMix<'a> {
    pool: &'a [Arc<Program>],
    zipf: &'a Zipf,
    rng: StdRng,
    fresh: Deck<Family>,
    prefix: String,
    sent: usize,
    fresh_at: usize,
}

impl<'a> HotMix<'a> {
    fn new(seed: u64, client: usize, pool: &'a [Arc<Program>], zipf: &'a Zipf) -> HotMix<'a> {
        let stream = seed.wrapping_mul(31).wrapping_add(client as u64);
        HotMix {
            pool,
            zipf,
            rng: StdRng::seed_from_u64(stream),
            fresh: Deck::new(gen::hot_cards(), stream ^ 0xf5e5),
            prefix: format!("s{seed}f{client}j"),
            sent: 0,
            fresh_at: 0,
        }
    }

    fn batch(&mut self) -> Vec<Arc<Program>> {
        (0..HOT_BATCH)
            .map(|_| {
                if self.sent.is_multiple_of(100) {
                    self.fresh_at = self.sent + self.rng.gen_range(0..100usize);
                }
                let fresh = self.sent == self.fresh_at;
                self.sent += 1;
                if fresh {
                    let card = self.fresh.deal();
                    Arc::new(card.make(&format!("{}{}_", self.prefix, self.sent), self.fresh.rng()))
                } else {
                    Arc::clone(&self.pool[self.zipf.sample(&mut self.rng)])
                }
            })
            .collect()
    }
}

fn daemon_stats(addr: SocketAddr) -> Result<StoreStats, String> {
    Ok(Client::connect(addr)
        .map_err(err)?
        .stats()
        .map_err(err)?
        .store)
}

/// `serve-cold`: set-up starts the daemon on an empty disk tier and
/// answers a warm-up batch; every measured job is a fresh program or a
/// duplicate of one in flight.
pub(crate) fn cold(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let tmp = TempDir::new("cold")?;
    let capacity = ServeConfig::default().store_capacity;
    let mut tiers = 0;
    let mut set_up = || {
        tiers += 1;
        let server = start_daemon(&tmp.0.join(format!("tier-{tiers}")), capacity)?;
        let warm = [
            gen::ring(10, "warm_a_", 0),
            gen::ring(12, "warm_b_", 0),
            gen::afs(3, "warm_c_"),
            gen::afs(4, "warm_d_"),
        ];
        warm_up(server.local_addr(), &warm.map(Arc::new))?;
        Ok(server)
    };
    let mut probe = SpeedProbe::new();
    let mut setups = Setups::default();
    let server = setups.time(&mut probe, &mut set_up)?;
    let clients = Clients::connect(server.local_addr())?;
    let mut steps = ColdSteps::new(seed);
    let mut traffic = Traffic::default();
    let window = closed_loop(
        if trace { seconds / 2.0 } else { seconds },
        &mut probe,
        || {
            let (batches, ends_round) = steps.step();
            let sent = clients.step(batches)?;
            let step = tally(&sent);
            if trace {
                traffic.record(sent);
            }
            Ok((step, ends_round))
        },
        |probe| {
            if !trace {
                for _ in 0..COLD_SETUPS_PER_ROUND {
                    setups.time(probe, &mut set_up)?;
                }
            }
            Ok(())
        },
    )?;
    drop(clients);
    if !trace {
        return Ok(window.into_outcome(setups.median()));
    }
    let stats = daemon_stats(server.local_addr())?;
    drop(server);
    replay_traffic(
        setups.median(),
        &traffic,
        &window,
        stats,
        seconds / 2.0,
        || Ok(CertStore::with_capacity(capacity)),
    )
}

/// `serve-hot`: set-up writes the pool's verdicts to a disk tier, starts
/// the daemon on it (its `load_into` included) and answers a warm-up
/// batch of pool programs. Its rounds take a second, too short to set up
/// between; each set-up does enough work that [`HOT_SETUPS`] in a row are
/// steady.
pub(crate) fn hot(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let tmp = TempDir::new("hot")?;
    let mut probe = SpeedProbe::new();
    let mut setups = Setups::default();
    let mut last = None;
    for rep in 0..HOT_SETUPS {
        drop(last.take());
        last = Some(setups.time(&mut probe, || {
            let pool: Vec<Arc<Program>> = gen::hot_pool(seed, HOT_POOL)
                .into_iter()
                .map(Arc::new)
                .collect();
            let filled = fill(&pool)?;
            let dir = tmp.0.join(format!("tier-{rep}"));
            SegmentedDiskStore::open(&dir)
                .and_then(|disk| disk.save_snapshot(&filled))
                .map_err(err)?;
            let server = start_daemon(&dir, HOT_CAPACITY)?;
            warm_up(server.local_addr(), &pool[..HOT_BATCH])?;
            Ok((server, pool, filled))
        })?);
    }
    let (server, pool, filled) = last.expect("set up at least once");
    // The replay starts from the tier as the daemon found it.
    let pristine = tmp.0.join("pristine");
    if trace {
        SegmentedDiskStore::open(&pristine)
            .and_then(|disk| disk.save_snapshot(&filled))
            .map_err(err)?;
    }
    drop(filled);
    let zipf = Zipf::new(HOT_POOL, 1.0);
    let mut mixes: Vec<HotMix> = (0..CLIENTS)
        .map(|c| HotMix::new(seed, c, &pool, &zipf))
        .collect();
    let clients = Clients::connect(server.local_addr())?;
    let mut steps = 0;
    let mut traffic = Traffic::default();
    let window = closed_loop(
        if trace { seconds / 2.0 } else { seconds },
        &mut probe,
        || {
            let sent = clients.step(mixes.iter_mut().map(HotMix::batch).collect())?;
            let step = tally(&sent);
            if trace {
                traffic.record(sent);
            }
            steps += 1;
            Ok((step, steps % HOT_ROUND_STEPS == 0))
        },
        |_| Ok(()),
    )?;
    drop(clients);
    if !trace {
        return Ok(window.into_outcome(setups.median()));
    }
    let stats = daemon_stats(server.local_addr())?;
    drop(server);
    replay_traffic(
        setups.median(),
        &traffic,
        &window,
        stats,
        seconds / 2.0,
        || {
            let store = CertStore::with_capacity(HOT_CAPACITY);
            SegmentedDiskStore::open(&pristine)
                .and_then(|disk| disk.load_into(&store))
                .map_err(err)?;
            Ok(store)
        },
    )
}

/// A store holding the expected verdict of every spec of `pool`, keyed as
/// the driver keys them.
fn fill(pool: &[Arc<Program>]) -> Result<CertStore, String> {
    let store = CertStore::with_capacity(HOT_CAPACITY);
    for program in pool {
        let module = parse_module(&program.source).map_err(err)?;
        if module.specs.len() != program.expected.len() {
            return Err("pool program has an unexpected spec count".into());
        }
        for ((text, _), verdict) in module.specs.iter().zip(&program.expected) {
            store.insert(
                ObligationKey::source_spec(&program.source, text),
                Entry::verdict(*verdict),
            );
        }
    }
    Ok(store)
}

/// The replay half of a traced serve run: the kept batches in send order,
/// for at most `budget_s` seconds, each job run traced and untraced
/// through `run_source_with_store_and_backend`, each side on its own
/// store rebuilt by `initial_store` as the daemon started with it.
fn replay_traffic(
    setup_s: f64,
    traffic: &Traffic,
    window: &Window,
    stats: StoreStats,
    budget_s: f64,
    initial_store: impl Fn() -> Result<CertStore, String>,
) -> Result<Outcome, String> {
    // The engine the driver routes each job to, read from its report.
    let warm = CertStore::with_capacity(HOT_CAPACITY);
    let mut routes = Vec::new();
    for batch in &traffic.kept {
        let mut batch_routes = Vec::new();
        for (program, report) in batch.programs.iter().zip(&batch.reports) {
            let Some(report) = report else {
                batch_routes.push(None);
                continue;
            };
            for (text, verdict) in &report.specs {
                warm.insert(
                    ObligationKey::source_spec(&program.source, text),
                    Entry::verdict(*verdict),
                );
            }
            batch_routes.push(Some(replay::auto_route(&program.source, &warm)?));
        }
        routes.push(batch_routes);
    }

    // Both sides start from the store the daemon started from.
    let mut tracer = Tracer::default();
    let mut counters = LayerCounters::default();
    let mut paired = Paired::default();
    let start = Instant::now();
    let traced_store = tracer.root("store.disk_load", 0, |_| initial_store())?;
    paired.traced_s += start.elapsed().as_secs_f64();
    let start = Instant::now();
    let untraced_store = initial_store()?;
    paired.untraced_s += start.elapsed().as_secs_f64();

    let mut wait_ms = 0.0;
    let start = Instant::now();
    for (batch, batch_routes) in traffic.kept.iter().zip(&routes) {
        if start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let mut job_ms = 0.0;
        for ((program, report), route) in
            batch.programs.iter().zip(&batch.reports).zip(batch_routes)
        {
            // A job the daemon failed is already counted, and has no route.
            let (Some(report), Some(explicit)) = (report, *route) else {
                continue;
            };
            counters.routed += 1;
            counters.routed_explicit += u64::from(explicit);
            let daemon: Vec<bool> = report.specs.iter().map(|(_, v)| *v).collect();
            job_ms += paired.run(
                &mut tracer,
                |t| {
                    replay::run_store_job(
                        t,
                        &program.source,
                        &traced_store,
                        explicit,
                        &mut counters,
                    )
                    .is_ok_and(|v| v == program.expected && v == daemon)
                },
                || {
                    let result = run_source_with_store_and_backend(
                        &program.source,
                        &untraced_store,
                        BackendChoice::Auto,
                    );
                    verdicts_match(program, &result)
                },
            );
        }
        wait_ms += batch.rtt_ms - job_ms / WORKERS.min(batch.programs.len()) as f64;
    }

    let layer = ServeLayer {
        store: stats,
        wait_ms_per_job: wait_ms / paired.jobs.max(1) as f64,
        dup_check_frac: traffic.dup_check_frac(),
    };
    Ok(traced_outcome(
        setup_s,
        tracer,
        paired,
        &counters,
        Some((&layer, window)),
    ))
}
