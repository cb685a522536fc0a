//! End-to-end daemon tests: conformance of concurrent clients against
//! single-shot `run_source`, the protocol error paths, graceful drain,
//! and warm restarts from the segmented disk tier.

use cmc_serve::protocol::DEFAULT_MAX_REQUEST_BYTES;
use cmc_serve::workload::{afs_source, mixed_workload, ring_source};
use cmc_serve::{Client, ErrorCode, Request, Response, ServeConfig, Server};
use cmc_smv::{parse_module, run_source, spec_keys};
use cmc_store::{CertStore, SegmentedDiskStore};
use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cmc-serve-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn start_default() -> Server {
    Server::start(ServeConfig::default()).expect("daemon starts")
}

/// Single-shot reference verdicts for a workload, computed without the
/// daemon or any store.
fn reference_verdicts(sources: &[String]) -> Vec<Vec<(String, bool)>> {
    sources
        .iter()
        .map(|src| run_source(src).expect("reference run").results)
        .collect()
}

/// The acceptance bar: 8 concurrent clients, every verdict identical to
/// single-shot `run_source`.
#[test]
fn eight_concurrent_clients_match_single_shot_verdicts() {
    const CLIENTS: usize = 8;
    let sources = mixed_workload(3, 2);
    let expected = reference_verdicts(&sources);

    let mut server = start_default();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let sources = &sources;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Stagger request shapes a little: odd clients reverse
                // the batch so jobs collide in the store in both orders.
                let mut batch: Vec<String> = sources.clone();
                if c % 2 == 1 {
                    batch.reverse();
                }
                let reports = client.check_sources(&batch).expect("batch");
                assert_eq!(reports.len(), batch.len());
                for (slot, report) in reports.iter().enumerate() {
                    let report = report.as_ref().expect("job verdicts");
                    let source_idx = if c % 2 == 1 {
                        sources.len() - 1 - slot
                    } else {
                        slot
                    };
                    assert_eq!(
                        report.specs, expected[source_idx],
                        "client {c}, job {slot} diverged from single-shot run_source"
                    );
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.batches, CLIENTS as u64);
    assert_eq!(stats.jobs, (CLIENTS * sources.len()) as u64);
    assert_eq!(stats.job_errors, 0);

    // Obligations meet in the shared store: the workload has
    // `sources * specs` distinct obligations but 8 clients asked for
    // them, so most lookups were warm.
    let store = server.store().stats();
    assert!(
        store.hits > store.misses,
        "8 clients over one workload should be mostly warm: {store:?}"
    );
    server.shutdown();
}

/// Two *simultaneous* cold clients asking for the same obligation: the
/// single-flight pending map must collapse them into one store miss —
/// the second flight waits for the first to land and answers from the
/// warm store instead of re-running the checker.
#[test]
fn simultaneous_cold_clients_share_one_store_miss() {
    let src = ring_source(5);
    let mut server = start_default();
    let addr = server.local_addr();

    let barrier = std::sync::Barrier::new(2);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (src, barrier) = (&src, &barrier);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait(); // release both batches together
                    let mut reports = client.check_sources(std::slice::from_ref(src)).unwrap();
                    reports.remove(0).expect("job verdicts")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let specs = reports[0].specs.len() as u64;
    assert!(specs > 0);
    assert_eq!(reports[0].specs, reports[1].specs);
    // Exactly one client paid for each obligation; the other answered
    // entirely from the store the first one warmed.
    let (misses, hits): (u64, u64) = reports
        .iter()
        .fold((0, 0), |(m, h), r| (m + r.cache_misses, h + r.cache_hits));
    assert_eq!(misses, specs, "duplicate cold batch re-ran the checker");
    assert_eq!(hits, specs);
    // One checker run (and so one store insertion) per obligation.
    assert_eq!(server.store().stats().insertions, specs);
    server.shutdown();
}

#[test]
fn explicit_and_symbolic_backends_agree_over_the_daemon() {
    let mut server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let src = ring_source(5);
    let jobs = vec![
        cmc_serve::Job {
            source: src.clone(),
            backend: cmc_core::BackendChoice::Explicit,
        },
        cmc_serve::Job {
            source: src.clone(),
            backend: cmc_core::BackendChoice::Symbolic,
        },
        cmc_serve::Job::auto(src),
    ];
    let reports = client.check_batch(jobs).unwrap();
    let verdicts: Vec<_> = reports
        .iter()
        .map(|r| r.as_ref().unwrap().specs.clone())
        .collect();
    assert_eq!(verdicts[0], verdicts[1], "engines disagree over the wire");
    assert_eq!(verdicts[1], verdicts[2]);
    server.shutdown();
}

#[test]
fn malformed_request_line_is_answered_and_the_session_survives() {
    let mut server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Not JSON at all.
    match client.raw_roundtrip("this is not a request").unwrap() {
        Response::Error { code, id, .. } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert_eq!(id, None);
        }
        other => panic!("expected malformed error, got {other:?}"),
    }

    // JSON, has an id, but a bogus op — the id must be echoed so the
    // client can re-associate the failure.
    match client
        .raw_roundtrip(r#"{"op":"transmogrify","id":41}"#)
        .unwrap()
    {
        Response::Error { code, id, .. } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert_eq!(id, Some(41));
        }
        other => panic!("expected malformed error, got {other:?}"),
    }

    // A batch with zero jobs is rejected, not run.
    match client.raw_roundtrip(r#"{"op":"batch","id":42,"jobs":[]}"#) {
        Ok(Response::Error { code, id, .. }) => {
            assert_eq!(code, ErrorCode::Malformed);
            assert_eq!(id, Some(42));
        }
        other => panic!("expected malformed error, got {other:?}"),
    }

    // Hostile nesting, far below the request cap: a line of `[` is
    // malformed JSON, and a job whose SPEC nests 100 000 parentheses or
    // whose DEFINE refers to itself is a job error. None may overflow a
    // stack or spin a worker forever.
    match client.raw_roundtrip(&"[".repeat(100_000)).unwrap() {
        Response::Error { code, id, .. } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert_eq!(id, None);
        }
        other => panic!("expected malformed error, got {other:?}"),
    }
    let deep_spec = format!(
        "MODULE main\nVAR x : boolean;\nSPEC {}x{}\n",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    let cyclic_define = "MODULE main\nVAR x : boolean;\nDEFINE d := d;\nSPEC d\n".to_string();
    let reports = client.check_sources(&[deep_spec, cyclic_define]).unwrap();
    let err = reports[0]
        .as_ref()
        .expect_err("a 100 000-deep SPEC is refused");
    assert!(err.contains("deeper than"), "{err}");
    let err = reports[1].as_ref().expect_err("a cyclic DEFINE is refused");
    assert!(err.contains("in terms of itself"), "{err}");

    // The framing is intact, so the same connection still works.
    client.ping().expect("session survives malformed lines");
    let reports = client.check_sources(&[ring_source(4)]).unwrap();
    assert!(reports[0].is_ok());

    assert!(server.stats().protocol_errors >= 4);
    server.shutdown();
}

#[test]
fn oversized_payload_is_refused_and_the_connection_closes() {
    let mut server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let pad = "x".repeat(DEFAULT_MAX_REQUEST_BYTES);
    let huge = format!(r#"{{"op":"ping","id":7,"pad":"{pad}"}}"#);
    match client.raw_roundtrip(&huge).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized error, got {other:?}"),
    }
    // Framing is lost after an oversized line: the daemon hangs up.
    let err = client.ping().expect_err("connection must be closed");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::BrokenPipe
        ),
        "unexpected error kind: {err:?}"
    );

    // The daemon itself is unharmed.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping().unwrap();
    assert!(server.stats().protocol_errors >= 1);
    server.shutdown();
}

#[test]
fn client_disconnect_mid_batch_leaves_the_daemon_serving() {
    let mut server = start_default();
    let addr = server.local_addr();

    // Fire a real batch and slam the connection shut without reading
    // the response.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = Request::Batch {
            id: 1,
            jobs: vec![cmc_serve::Job::auto(ring_source(6))],
        };
        stream.write_all(request.to_line().as_bytes()).unwrap();
        stream.flush().unwrap();
        // Drop: the daemon is now verifying for a peer that is gone.
    }

    // The daemon finishes the batch (its verdicts land in the shared
    // store) and keeps serving other clients.
    let mut client = Client::connect(addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().unwrap();
        if stats.server.batches >= 1 && stats.server.in_flight == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned batch never completed: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The abandoned client's work warms the store for everyone else.
    let reports = client.check_sources(&[ring_source(6)]).unwrap();
    let report = reports[0].as_ref().unwrap();
    assert_eq!(report.cache_misses, 0, "verdicts were already memoized");
    assert!(report.cache_hits > 0);
    server.shutdown();
}

#[test]
fn shutdown_drains_the_in_flight_batch() {
    let mut server = start_default();
    let addr = server.local_addr();

    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        // A real workload, answered in full even though a shutdown
        // lands while it is in flight.
        client.check_sources(&mixed_workload(3, 2)).unwrap()
    });

    // Let the batch get going, then ask a second session to shut the
    // daemon down.
    std::thread::sleep(Duration::from_millis(30));
    let mut killer = Client::connect(addr).unwrap();
    killer.shutdown_server().unwrap();
    server.join();

    let reports = worker.join().expect("draining must not drop the batch");
    assert_eq!(reports.len(), 5);
    for report in &reports {
        assert!(report.is_ok(), "drained batch lost a job: {report:?}");
    }

    // The listener is gone once the drain completes.
    assert!(Client::connect(addr).and_then(|mut c| c.ping()).is_err());
}

#[test]
fn busy_daemon_refuses_connections_above_the_session_cap() {
    let cfg = ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    };
    let mut server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr).unwrap();
    first.ping().unwrap();

    // The second concurrent session is refused with `busy`. (Read the
    // refusal with a bare newline rather than a ping: the daemon has
    // already hung up, so a full request write could fail first.)
    let mut second = Client::connect(addr).unwrap();
    match second.raw_roundtrip("") {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected busy refusal, got {other:?}"),
    }

    // Once the first session closes, capacity frees up.
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = Client::connect(addr).unwrap();
        if retry.ping().is_ok() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session slot never freed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn warm_restart_reloads_verdicts_from_the_segmented_store() {
    let dir = tmp_dir("warm-restart");
    let sources = vec![ring_source(4), afs_source(2)];
    let cfg = || ServeConfig {
        disk_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Cold run: everything is a miss; shutdown flushes to segments.
    {
        let mut server = Server::start(cfg()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reports = client.check_sources(&sources).unwrap();
        for report in &reports {
            let report = report.as_ref().unwrap();
            assert_eq!(report.cache_hits, 0);
            assert!(report.cache_misses > 0);
        }
        server.shutdown();
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().count() > 0,
        "drain must leave segments behind"
    );

    // Warm restart: the daemon reloads the segments and answers the
    // same workload entirely from the store.
    {
        let mut server = Server::start(cfg()).unwrap();
        assert!(server.store().stats().disk_loads > 0, "no segments loaded");
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reports = client.check_sources(&sources).unwrap();
        for report in &reports {
            let report = report.as_ref().unwrap();
            assert_eq!(report.cache_misses, 0, "warm restart re-verified something");
            assert!(report.cache_hits > 0);
        }
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budgeted_store_shuts_down_within_its_budget_with_correct_verdicts() {
    const BUDGET: u64 = 2_000;
    let dir = tmp_dir("budget");
    let sources: Vec<String> = (3..=8)
        .map(ring_source)
        .chain((1..=3).map(afs_source))
        .collect();
    let cfg = ServeConfig {
        disk_dir: Some(dir.clone()),
        disk_budget_bytes: Some(BUDGET),
        ..ServeConfig::default()
    };

    // Write past the budget: every spec of every source is a fresh verdict.
    let mut server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for report in client.check_sources(&sources).unwrap() {
        assert!(report.unwrap().cache_misses > 0);
    }
    let written = server.store().len();
    server.shutdown();

    let disk = SegmentedDiskStore::open(&dir).unwrap();
    let disk_bytes = disk.disk_bytes().unwrap();
    assert!(disk_bytes <= BUDGET, "{disk_bytes} bytes on disk");
    let reloaded = CertStore::new();
    let kept = disk.load_into(&reloaded).unwrap();
    assert!(
        0 < kept && kept < written,
        "kept {kept} of {written} verdicts"
    );

    // Every verdict that survived is the one single-shot checking gives.
    let mut expected = HashMap::new();
    for source in &sources {
        let module = parse_module(source).unwrap();
        let verdicts = run_source(source).unwrap().results;
        for (key, (_, holds)) in spec_keys(source, &module).into_iter().zip(verdicts) {
            expected.insert(key, holds);
        }
    }
    for (key, entry) in reloaded.snapshot() {
        assert_eq!(Some(&entry.verdict), expected.get(&key), "key {key}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
