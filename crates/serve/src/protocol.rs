//! The wire protocol: one JSON object per line, both directions.
//!
//! The workspace is offline (no tokio, no serde), so the protocol is
//! deliberately boring: a client writes one request object terminated by
//! `\n`, the daemon answers with exactly one response object terminated
//! by `\n`, and the connection stays open for the next request. All
//! encoding goes through `cmc-store`'s hand-rolled [`Json`] layer — the
//! same machinery that writes the certificate segments.
//!
//! Requests (`op` selects the variant, `id` is echoed back verbatim):
//!
//! ```text
//! {"op":"ping","id":1}
//! {"op":"batch","id":2,"jobs":[{"source":"MODULE main\n...","backend":"auto"}]}
//! {"op":"stats","id":3}
//! {"op":"shutdown","id":4}
//! ```
//!
//! Responses are `{"id":...,"ok":true,...}` on success and
//! `{"id":...,"ok":false,"code":...,"error":...}` on failure. Error
//! codes are machine-readable ([`ErrorCode`]): `malformed` (not a valid
//! request line), `oversized` (line exceeded the daemon's byte cap),
//! `bad-request` (valid JSON, wrong shape), `busy` (session cap hit) and
//! `draining` (daemon is shutting down).

use cmc_core::BackendChoice;
use cmc_store::json::Json;
use cmc_store::StoreStats;
use std::io::{self, BufRead};

/// Default cap on one request/response line, in bytes.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;

/// One verification job: an SMV source plus the engine to route it to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// The SMV program (`MODULE main ...` with `SPEC` obligations).
    pub source: String,
    /// Which engine discharges the obligations.
    pub backend: BackendChoice,
}

impl Job {
    /// A job routed through the `Auto` backend.
    pub fn auto(source: impl Into<String>) -> Self {
        Job {
            source: source.into(),
            backend: BackendChoice::Auto,
        }
    }
}

/// A client→daemon request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Echoed back in the response.
        id: u64,
    },
    /// Verify a batch of jobs.
    Batch {
        /// Echoed back in the response.
        id: u64,
        /// The obligations, dispatched across the daemon's worker pool.
        jobs: Vec<Job>,
    },
    /// Snapshot the shared store and server counters.
    Stats {
        /// Echoed back in the response.
        id: u64,
    },
    /// Drain in-flight obligations, flush the disk tier, stop.
    Shutdown {
        /// Echoed back in the response.
        id: u64,
    },
}

/// Machine-readable failure category on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a valid request (bad JSON or missing fields).
    Malformed,
    /// The line exceeded the daemon's request byte cap.
    Oversized,
    /// Structurally valid JSON with an unusable payload.
    BadRequest,
    /// The daemon's concurrent-session cap is exhausted.
    Busy,
    /// The daemon is shutting down and accepts no new work.
    Draining,
}

impl ErrorCode {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Busy => "busy",
            ErrorCode::Draining => "draining",
        }
    }

    /// Parse the wire spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "malformed" => ErrorCode::Malformed,
            "oversized" => ErrorCode::Oversized,
            "bad-request" => ErrorCode::BadRequest,
            "busy" => ErrorCode::Busy,
            "draining" => ErrorCode::Draining,
            _ => return None,
        })
    }
}

/// Per-spec verdicts of one successfully verified job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// `(spec text, holds)` in source order.
    pub specs: Vec<(String, bool)>,
    /// Specs answered from the shared certificate store.
    pub cache_hits: u64,
    /// Specs verified by running a checker session.
    pub cache_misses: u64,
}

impl JobReport {
    /// Did every spec of the job hold?
    pub fn all_true(&self) -> bool {
        self.specs.iter().all(|(_, ok)| *ok)
    }
}

/// Daemon-side counters mirrored over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsSnapshot {
    /// Connections accepted since start.
    pub connections: u64,
    /// Batches completed.
    pub batches: u64,
    /// Jobs completed (across batches).
    pub jobs: u64,
    /// Jobs that errored (parse/semantic/check failures, panics).
    pub job_errors: u64,
    /// Malformed or oversized request lines.
    pub protocol_errors: u64,
    /// Connections dropped mid-conversation by the peer.
    pub disconnects: u64,
    /// Batches currently executing.
    pub in_flight: u64,
}

/// A daemon→client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The request's id.
        id: u64,
    },
    /// Answer to [`Request::Batch`]: per-job outcomes in job order.
    Batch {
        /// The request's id.
        id: u64,
        /// One outcome per job: verdicts, or the job's error message.
        results: Vec<Result<JobReport, String>>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The request's id.
        id: u64,
        /// Shared certificate-store counters.
        store: StoreStats,
        /// Daemon counters.
        server: ServerStatsSnapshot,
    },
    /// Answer to [`Request::Shutdown`], sent before the daemon drains.
    ShutdownAck {
        /// The request's id.
        id: u64,
    },
    /// Any failure (`id` is absent when the request line had none).
    Error {
        /// The request's id, when one could be recovered.
        id: Option<u64>,
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Request {
    /// Serialise as one newline-terminated wire line.
    pub fn to_line(&self) -> String {
        let json = match self {
            Request::Ping { id } => op_obj("ping", *id, vec![]),
            Request::Stats { id } => op_obj("stats", *id, vec![]),
            Request::Shutdown { id } => op_obj("shutdown", *id, vec![]),
            Request::Batch { id, jobs } => {
                let jobs = jobs
                    .iter()
                    .map(|job| {
                        Json::Obj(vec![
                            ("source".into(), Json::Str(job.source.clone())),
                            ("backend".into(), Json::Str(job.backend.tag().into())),
                        ])
                    })
                    .collect();
                op_obj("batch", *id, vec![("jobs".into(), Json::Arr(jobs))])
            }
        };
        let mut line = json.to_compact();
        line.push('\n');
        line
    }

    /// Parse one wire line. `Err` carries the id (when recoverable) and
    /// the failure detail for the error response.
    pub fn from_line(line: &str) -> Result<Request, (Option<u64>, String)> {
        let doc = Json::parse(line.trim()).map_err(|e| (None, format!("invalid JSON: {e}")))?;
        let id = doc.get("id").and_then(Json::as_num).map(|n| n as u64);
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or((id, "missing \"op\" field".to_string()))?;
        let id_num = id.ok_or((None, "missing \"id\" field".to_string()))?;
        match op {
            "ping" => Ok(Request::Ping { id: id_num }),
            "stats" => Ok(Request::Stats { id: id_num }),
            "shutdown" => Ok(Request::Shutdown { id: id_num }),
            "batch" => {
                let items = doc
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or((id, "batch without \"jobs\" array".to_string()))?;
                let mut jobs = Vec::with_capacity(items.len());
                for item in items {
                    let source = item
                        .get("source")
                        .and_then(Json::as_str)
                        .ok_or((id, "job without \"source\"".to_string()))?;
                    let backend = match item.get("backend").and_then(Json::as_str) {
                        None => BackendChoice::Auto,
                        Some(s) => BackendChoice::from_tag(s)
                            .ok_or((id, format!("unknown backend {s:?}")))?,
                    };
                    jobs.push(Job {
                        source: source.to_string(),
                        backend,
                    });
                }
                if jobs.is_empty() {
                    return Err((id, "batch with zero jobs".to_string()));
                }
                Ok(Request::Batch { id: id_num, jobs })
            }
            other => Err((id, format!("unknown op {other:?}"))),
        }
    }
}

impl Response {
    /// Serialise as one newline-terminated wire line.
    pub fn to_line(&self) -> String {
        let json = match self {
            Response::Pong { id } => Json::Obj(vec![
                ("id".into(), Json::int(*id)),
                ("ok".into(), Json::Bool(true)),
                ("op".into(), Json::Str("pong".into())),
            ]),
            Response::ShutdownAck { id } => Json::Obj(vec![
                ("id".into(), Json::int(*id)),
                ("ok".into(), Json::Bool(true)),
                ("op".into(), Json::Str("shutdown".into())),
            ]),
            Response::Batch { id, results } => {
                let results = results
                    .iter()
                    .map(|outcome| match outcome {
                        Ok(report) => {
                            let specs = report
                                .specs
                                .iter()
                                .map(|(spec, holds)| {
                                    Json::Obj(vec![
                                        ("spec".into(), Json::Str(spec.clone())),
                                        ("holds".into(), Json::Bool(*holds)),
                                    ])
                                })
                                .collect();
                            Json::Obj(vec![
                                ("ok".into(), Json::Bool(true)),
                                ("specs".into(), Json::Arr(specs)),
                                ("cache_hits".into(), Json::int(report.cache_hits)),
                                ("cache_misses".into(), Json::int(report.cache_misses)),
                            ])
                        }
                        Err(message) => Json::Obj(vec![
                            ("ok".into(), Json::Bool(false)),
                            ("error".into(), Json::Str(message.clone())),
                        ]),
                    })
                    .collect();
                Json::Obj(vec![
                    ("id".into(), Json::int(*id)),
                    ("ok".into(), Json::Bool(true)),
                    ("op".into(), Json::Str("verdicts".into())),
                    ("results".into(), Json::Arr(results)),
                ])
            }
            Response::Stats { id, store, server } => Json::Obj(vec![
                ("id".into(), Json::int(*id)),
                ("ok".into(), Json::Bool(true)),
                ("op".into(), Json::Str("stats".into())),
                ("store".into(), store_to_json(store)),
                ("server".into(), server_to_json(server)),
            ]),
            Response::Error { id, code, message } => Json::Obj(vec![
                ("id".into(), id.map(Json::int).unwrap_or(Json::Null)),
                ("ok".into(), Json::Bool(false)),
                ("code".into(), Json::Str(code.as_str().into())),
                ("error".into(), Json::Str(message.clone())),
            ]),
        };
        let mut line = json.to_compact();
        line.push('\n');
        line
    }

    /// Parse one wire line (the client side).
    pub fn from_line(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line.trim()).map_err(|e| format!("invalid response JSON: {e}"))?;
        let id = doc.get("id").and_then(Json::as_num).map(|n| n as u64);
        let ok = doc
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("response without \"ok\"")?;
        if !ok {
            let code = doc
                .get("code")
                .and_then(Json::as_str)
                .and_then(ErrorCode::parse)
                .ok_or("error response without a known \"code\"")?;
            let message = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            return Ok(Response::Error { id, code, message });
        }
        let id = id.ok_or("success response without \"id\"")?;
        match doc.get("op").and_then(Json::as_str) {
            Some("pong") => Ok(Response::Pong { id }),
            Some("shutdown") => Ok(Response::ShutdownAck { id }),
            Some("verdicts") => {
                let items = doc
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or("verdicts without \"results\"")?;
                let mut results = Vec::with_capacity(items.len());
                for item in items {
                    let job_ok = item
                        .get("ok")
                        .and_then(Json::as_bool)
                        .ok_or("result without \"ok\"")?;
                    if job_ok {
                        let specs_json = item
                            .get("specs")
                            .and_then(Json::as_arr)
                            .ok_or("result without \"specs\"")?;
                        let mut specs = Vec::with_capacity(specs_json.len());
                        for spec in specs_json {
                            let text = spec
                                .get("spec")
                                .and_then(Json::as_str)
                                .ok_or("spec without text")?;
                            let holds = spec
                                .get("holds")
                                .and_then(Json::as_bool)
                                .ok_or("spec without verdict")?;
                            specs.push((text.to_string(), holds));
                        }
                        results.push(Ok(JobReport {
                            specs,
                            cache_hits: num_field(item, "cache_hits")?,
                            cache_misses: num_field(item, "cache_misses")?,
                        }));
                    } else {
                        let message = item
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string();
                        results.push(Err(message));
                    }
                }
                Ok(Response::Batch { id, results })
            }
            Some("stats") => Ok(Response::Stats {
                id,
                store: store_from_json(doc.get("store").ok_or("stats without \"store\"")?)?,
                server: server_from_json(doc.get("server").ok_or("stats without \"server\"")?)?,
            }),
            other => Err(format!("unknown response op {other:?}")),
        }
    }
}

/// Read one newline-terminated line into `buf`, capped at `max` bytes.
///
/// `buf` accumulates across calls, so a line split by a read timeout
/// resumes where it stopped. The return value distinguishes a complete
/// line, end-of-stream, and a line that exceeded the cap (whose tail is
/// *not* drained — the caller must treat the connection as poisoned).
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (without the terminator).
    Line(String),
    /// The peer closed the stream at a line boundary.
    Eof,
    /// The line exceeded the byte cap.
    Oversized,
}

/// See [`LineRead`]. Timeout/interrupt errors propagate with the partial
/// line retained in `buf`.
pub fn read_bounded_line(
    reader: &mut impl BufRead,
    max: usize,
    buf: &mut Vec<u8>,
) -> io::Result<LineRead> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                // A final unterminated line still parses — tolerate
                // `printf '...'`-style one-shot clients.
                let line = String::from_utf8_lossy(buf).into_owned();
                buf.clear();
                LineRead::Line(line)
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                if buf.len() > max {
                    buf.clear();
                    return Ok(LineRead::Oversized);
                }
                let line = String::from_utf8_lossy(buf).into_owned();
                buf.clear();
                return Ok(LineRead::Line(line));
            }
            None => {
                let len = available.len();
                buf.extend_from_slice(available);
                reader.consume(len);
                if buf.len() > max {
                    buf.clear();
                    return Ok(LineRead::Oversized);
                }
            }
        }
    }
}

fn op_obj(op: &str, id: u64, mut rest: Vec<(String, Json)>) -> Json {
    let mut fields = vec![
        ("op".to_string(), Json::Str(op.to_string())),
        ("id".to_string(), Json::int(id)),
    ];
    fields.append(&mut rest);
    Json::Obj(fields)
}

fn num_field(obj: &Json, field: &str) -> Result<u64, String> {
    obj.get(field)
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("missing numeric field {field:?}"))
}

fn store_to_json(stats: &StoreStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::int(stats.hits)),
        ("misses".into(), Json::int(stats.misses)),
        ("insertions".into(), Json::int(stats.insertions)),
        ("evictions".into(), Json::int(stats.evictions)),
        ("disk_loads".into(), Json::int(stats.disk_loads)),
        ("disk_rejects".into(), Json::int(stats.disk_rejects)),
        ("segments_skipped".into(), Json::int(stats.segments_skipped)),
        ("compactions".into(), Json::int(stats.compactions)),
        ("budget_evictions".into(), Json::int(stats.budget_evictions)),
        ("disk_bytes".into(), Json::int(stats.disk_bytes)),
        ("entries".into(), Json::int(stats.entries as u64)),
    ])
}

fn store_from_json(obj: &Json) -> Result<StoreStats, String> {
    Ok(StoreStats {
        hits: num_field(obj, "hits")?,
        misses: num_field(obj, "misses")?,
        insertions: num_field(obj, "insertions")?,
        evictions: num_field(obj, "evictions")?,
        disk_loads: num_field(obj, "disk_loads")?,
        disk_rejects: num_field(obj, "disk_rejects")?,
        segments_skipped: num_field(obj, "segments_skipped")?,
        compactions: num_field(obj, "compactions")?,
        budget_evictions: num_field(obj, "budget_evictions")?,
        disk_bytes: num_field(obj, "disk_bytes")?,
        entries: num_field(obj, "entries")? as usize,
    })
}

fn server_to_json(stats: &ServerStatsSnapshot) -> Json {
    Json::Obj(vec![
        ("connections".into(), Json::int(stats.connections)),
        ("batches".into(), Json::int(stats.batches)),
        ("jobs".into(), Json::int(stats.jobs)),
        ("job_errors".into(), Json::int(stats.job_errors)),
        ("protocol_errors".into(), Json::int(stats.protocol_errors)),
        ("disconnects".into(), Json::int(stats.disconnects)),
        ("in_flight".into(), Json::int(stats.in_flight)),
    ])
}

fn server_from_json(obj: &Json) -> Result<ServerStatsSnapshot, String> {
    Ok(ServerStatsSnapshot {
        connections: num_field(obj, "connections")?,
        batches: num_field(obj, "batches")?,
        jobs: num_field(obj, "jobs")?,
        job_errors: num_field(obj, "job_errors")?,
        protocol_errors: num_field(obj, "protocol_errors")?,
        disconnects: num_field(obj, "disconnects")?,
        in_flight: num_field(obj, "in_flight")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Ping { id: 1 },
            Request::Stats { id: 2 },
            Request::Shutdown { id: 3 },
            Request::Batch {
                id: 4,
                jobs: vec![
                    Job::auto("MODULE main\nVAR x : boolean;\nSPEC AF x"),
                    Job {
                        source: "MODULE main\nVAR y : boolean;\nSPEC EF y".into(),
                        backend: BackendChoice::Symbolic,
                    },
                ],
            },
        ];
        for req in cases {
            let line = req.to_line();
            assert!(line.ends_with('\n'));
            assert_eq!(Request::from_line(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Pong { id: 1 },
            Response::ShutdownAck { id: 2 },
            Response::Batch {
                id: 3,
                results: vec![
                    Ok(JobReport {
                        specs: vec![("AF x".into(), true), ("AG x".into(), false)],
                        cache_hits: 1,
                        cache_misses: 1,
                    }),
                    Err("parse error: unexpected token".into()),
                ],
            },
            Response::Stats {
                id: 4,
                store: StoreStats {
                    hits: 7,
                    misses: 3,
                    insertions: 3,
                    evictions: 1,
                    disk_loads: 2,
                    disk_rejects: 0,
                    segments_skipped: 1,
                    compactions: 2,
                    budget_evictions: 5,
                    disk_bytes: 2048,
                    entries: 4,
                },
                server: ServerStatsSnapshot {
                    connections: 9,
                    batches: 4,
                    jobs: 12,
                    job_errors: 1,
                    protocol_errors: 2,
                    disconnects: 1,
                    in_flight: 0,
                },
            },
            Response::Error {
                id: None,
                code: ErrorCode::Malformed,
                message: "invalid JSON: trailing garbage at byte 3".into(),
            },
            Response::Error {
                id: Some(8),
                code: ErrorCode::Draining,
                message: "shutting down".into(),
            },
        ];
        for resp in cases {
            let line = resp.to_line();
            assert!(line.ends_with('\n'));
            assert_eq!(Response::from_line(&line).unwrap(), resp, "line: {line}");
        }
    }

    #[test]
    fn malformed_requests_carry_recoverable_ids() {
        let (id, msg) = Request::from_line("{\"id\":7,\"op\":\"nope\"}").unwrap_err();
        assert_eq!(id, Some(7));
        assert!(msg.contains("unknown op"));
        let (id, _) = Request::from_line("not json at all").unwrap_err();
        assert_eq!(id, None);
        let (id, msg) = Request::from_line("{\"id\":1,\"op\":\"batch\",\"jobs\":[]}").unwrap_err();
        assert_eq!(id, Some(1));
        assert!(msg.contains("zero jobs"));
    }

    #[test]
    fn bounded_line_reader_caps_and_resumes() {
        use std::io::Cursor;
        let mut buf = Vec::new();
        let mut reader = Cursor::new(b"short\nlonger line here\n".to_vec());
        assert_eq!(
            read_bounded_line(&mut reader, 64, &mut buf).unwrap(),
            LineRead::Line("short".into())
        );
        assert_eq!(
            read_bounded_line(&mut reader, 64, &mut buf).unwrap(),
            LineRead::Line("longer line here".into())
        );
        assert_eq!(
            read_bounded_line(&mut reader, 64, &mut buf).unwrap(),
            LineRead::Eof
        );

        let mut reader = Cursor::new(vec![b'x'; 100]);
        assert_eq!(
            read_bounded_line(&mut reader, 10, &mut buf).unwrap(),
            LineRead::Oversized
        );

        // An unterminated final line still reads as a line.
        let mut reader = Cursor::new(b"tail".to_vec());
        assert_eq!(
            read_bounded_line(&mut reader, 10, &mut buf).unwrap(),
            LineRead::Line("tail".into())
        );
    }

    #[test]
    fn sources_with_newlines_survive_the_line_framing() {
        let req = Request::Batch {
            id: 1,
            jobs: vec![Job::auto("MODULE main\nVAR x : boolean;\n\tSPEC AF x\n")],
        };
        let line = req.to_line();
        // The JSON escaping keeps the frame to exactly one wire line.
        assert_eq!(line.matches('\n').count(), 1);
        assert_eq!(Request::from_line(&line).unwrap(), req);
    }
}
