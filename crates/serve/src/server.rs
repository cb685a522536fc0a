//! The daemon: accept loop, session lifecycle, worker dispatch.
//!
//! One thread accepts connections; each connection gets a session thread
//! (capped by [`ServeConfig::max_sessions`]) that reads newline-framed
//! requests and answers them in order. A `batch` request fans its jobs
//! out across `cmc_core::scheduler::run_bounded`, a bounded
//! work-claiming pool, so a 16-job batch on a 4-core box runs 4 worker
//! sessions, not 16 threads.
//! Every worker session parses and keys its job once and verifies the
//! parsed module through [`cmc_smv::run_module`] against **one shared
//! [`CertStore`]**, so obligations memoized by any client warm every
//! other client; each fresh symbolic check still gets its own GC'd BDD
//! session (managers are per-check, the store is the shared tier).
//!
//! With a disk directory configured, the store is loaded from the
//! [`SegmentedDiskStore`] at start and a single [`Compactor`] thread
//! snapshots new verdicts into fresh segments every 500 ms and compacts
//! them under the byte budget. Shutdown (client `shutdown` op or
//! [`Server::shutdown`]) *drains*: in-flight batches complete and their
//! responses are written, sessions close at the next frame boundary, and
//! the compactor runs one final flush + compaction before the process
//! lets go of the directory.

use crate::flight::SingleFlight;
use crate::protocol::{
    read_bounded_line, ErrorCode, JobReport, LineRead, Request, Response, ServerStatsSnapshot,
    DEFAULT_MAX_REQUEST_BYTES,
};
use cmc_core::scheduler::run_bounded;
use cmc_smv::{parse_module, run_module, spec_keys};
use cmc_store::{CertStore, Compactor, SegmentedDiskStore};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker-session cap per batch (defaults to available parallelism).
    pub workers: usize,
    /// Concurrent client-session cap; excess connections get `busy`.
    pub max_sessions: usize,
    /// Shared in-memory store capacity (entries).
    pub store_capacity: usize,
    /// Segmented disk tier directory (`None` disables persistence).
    pub disk_dir: Option<PathBuf>,
    /// On-disk byte budget enforced by compaction (`None` = unbounded).
    pub disk_budget_bytes: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: cmc_core::scheduler::default_workers(),
            max_sessions: 32,
            store_capacity: 4096,
            disk_dir: None,
            disk_budget_bytes: None,
        }
    }
}

/// Segment count above which the compactor merges the disk tier.
const MAX_SEGMENTS: usize = 8;

/// How often the compactor snapshots the store to disk.
const COMPACT_INTERVAL: Duration = Duration::from_millis(500);

/// How long a session blocks on the socket before re-checking the
/// draining flag. Bounds shutdown latency for idle keep-alive sessions.
const SESSION_POLL: Duration = Duration::from_millis(50);

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    batches: AtomicU64,
    jobs: AtomicU64,
    job_errors: AtomicU64,
    protocol_errors: AtomicU64,
    disconnects: AtomicU64,
    in_flight: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    store: Arc<CertStore>,
    flights: SingleFlight,
    counters: Counters,
    draining: AtomicBool,
    active_sessions: AtomicUsize,
}

impl Shared {
    fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.counters.connections.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            job_errors: self.counters.job_errors.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            disconnects: self.counters.disconnects.load(Ordering::Relaxed),
            in_flight: self.counters.in_flight.load(Ordering::Relaxed),
        }
    }

    /// Flip into draining mode and nudge the blocked acceptor with a
    /// throwaway connection so it notices.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            if let Ok(stream) = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250)) {
                drop(stream);
            }
        }
    }
}

/// A running daemon. Dropping the handle shuts it down gracefully.
pub struct Server {
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, load the disk tier (if configured), and start serving.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(CertStore::with_capacity(cfg.store_capacity));

        let disk = match &cfg.disk_dir {
            Some(dir) => {
                let disk = Arc::new(SegmentedDiskStore::open(dir)?);
                disk.load_into(&store)?;
                Some(disk)
            }
            None => None,
        };

        let shared = Arc::new(Shared {
            addr,
            store: Arc::clone(&store),
            flights: SingleFlight::new(),
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            active_sessions: AtomicUsize::new(0),
            cfg,
        });

        let compactor = disk.as_ref().map(|disk| {
            Compactor::spawn(
                Arc::clone(disk),
                Arc::clone(&store),
                COMPACT_INTERVAL,
                MAX_SEGMENTS,
                shared.cfg.disk_budget_bytes,
            )
        });

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("cmc-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared, compactor))?;

        Ok(Server {
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The daemon's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared certificate store (for tests and embedding).
    pub fn store(&self) -> Arc<CertStore> {
        Arc::clone(&self.shared.store)
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.snapshot()
    }

    /// Begin draining and wait until every in-flight obligation has been
    /// answered and the disk tier is flushed. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.begin_drain();
        self.join();
    }

    /// Wait for the daemon to stop (e.g. after a client `shutdown` op).
    pub fn join(&mut self) {
        if let Some(handle) = self.accept_handle.take() {
            handle.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, compactor: Option<Compactor>) {
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        if shared.active_sessions.load(Ordering::SeqCst) >= shared.cfg.max_sessions {
            refuse(stream, ErrorCode::Busy, "session limit reached");
            continue;
        }
        shared.active_sessions.fetch_add(1, Ordering::SeqCst);
        let session_shared = Arc::clone(&shared);
        sessions.retain(|handle| !handle.is_finished());
        let handle = std::thread::Builder::new()
            .name("cmc-serve-session".to_string())
            .spawn(move || {
                session(stream, &session_shared);
                session_shared
                    .active_sessions
                    .fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn session thread");
        sessions.push(handle);
    }
    // Drain: every session finishes its in-flight work and closes at the
    // next frame boundary (bounded by SESSION_POLL).
    for handle in sessions {
        handle.join().ok();
    }
    // Final flush + compaction so no memoized verdict is lost.
    if let Some(compactor) = compactor {
        compactor.stop();
    }
}

fn refuse(mut stream: TcpStream, code: ErrorCode, message: &str) {
    let resp = Response::Error {
        id: None,
        code,
        message: message.to_string(),
    };
    stream.write_all(resp.to_line().as_bytes()).ok();
    stream.flush().ok();
}

fn session(stream: TcpStream, shared: &Shared) {
    stream.set_read_timeout(Some(SESSION_POLL)).ok();
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut partial = Vec::new();
    loop {
        let line = match read_bounded_line(&mut reader, DEFAULT_MAX_REQUEST_BYTES, &mut partial) {
            Ok(LineRead::Line(line)) => line,
            Ok(LineRead::Eof) => return, // clean close
            Ok(LineRead::Oversized) => {
                // The framing is lost past an oversized line; answer and
                // hang up rather than guess where the next frame starts.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                send(
                    &mut writer,
                    &Response::Error {
                        id: None,
                        code: ErrorCode::Oversized,
                        message: format!("request line exceeds {DEFAULT_MAX_REQUEST_BYTES} bytes"),
                    },
                )
                .ok();
                return;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    return; // idle session during drain
                }
                continue;
            }
            Err(_) => {
                shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::from_line(&line) {
            Ok(request) => request,
            Err((id, message)) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                // Malformed lines are answered, not fatal: the framing
                // is intact, so the session continues.
                if send(
                    &mut writer,
                    &Response::Error {
                        id,
                        code: ErrorCode::Malformed,
                        message,
                    },
                )
                .is_err()
                {
                    shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                continue;
            }
        };
        let (response, stop) = match request {
            Request::Ping { id } => (Response::Pong { id }, false),
            Request::Stats { id } => (
                Response::Stats {
                    id,
                    store: shared.store.stats(),
                    server: shared.snapshot(),
                },
                false,
            ),
            Request::Shutdown { id } => {
                shared.begin_drain();
                (Response::ShutdownAck { id }, true)
            }
            Request::Batch { id, jobs } => {
                shared.counters.in_flight.fetch_add(1, Ordering::SeqCst);
                let results = run_batch(shared, &jobs);
                shared.counters.in_flight.fetch_sub(1, Ordering::SeqCst);
                shared.counters.batches.fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .jobs
                    .fetch_add(jobs.len() as u64, Ordering::Relaxed);
                let errors = results.iter().filter(|r| r.is_err()).count() as u64;
                shared
                    .counters
                    .job_errors
                    .fetch_add(errors, Ordering::Relaxed);
                (Response::Batch { id, results }, false)
            }
        };
        if send(&mut writer, &response).is_err() {
            // The peer vanished mid-batch: its verdicts are already
            // memoized in the shared store, so nothing is lost but the
            // response bytes.
            shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if stop {
            return;
        }
    }
}

/// Dispatch a batch across the bounded worker pool. Job order is
/// preserved; a panicking or erroring job degrades to `Err` for its slot
/// only. Each job is parsed and keyed once ([`spec_keys`]), then flies
/// single-file per obligation key: a job whose specs are already being
/// checked — by another session or another slot of this batch — waits
/// for that flight to land, then answers from the warm store instead of
/// re-running the checker. A source that does not parse claims nothing.
fn run_batch(shared: &Shared, jobs: &[crate::protocol::Job]) -> Vec<Result<JobReport, String>> {
    let workers = shared.cfg.workers.clamp(1, jobs.len().max(1));
    run_bounded(jobs.len(), workers, |i| {
        let job = &jobs[i];
        let module = parse_module(&job.source).map_err(|e| e.to_string())?;
        let keys = spec_keys(&job.source, &module);
        let _flight = shared.flights.acquire(keys.clone());
        run_module(&module, job.backend, Some((&shared.store, &keys)))
            .map(|outcome| JobReport {
                specs: outcome.results,
                cache_hits: outcome.cache_hits as u64,
                cache_misses: outcome.cache_misses as u64,
            })
            .map_err(|e| e.to_string())
    })
    .into_iter()
    .map(|slot| match slot {
        Ok(job_result) => job_result,
        Err(panic_message) => Err(panic_message),
    })
    .collect()
}

fn send(writer: &mut TcpStream, response: &Response) -> io::Result<()> {
    writer.write_all(response.to_line().as_bytes())?;
    writer.flush()
}
