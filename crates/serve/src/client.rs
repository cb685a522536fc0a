//! A blocking client for the daemon's line protocol, used by the
//! `cmc-client` binary, the conformance tests and the repository
//! benchmark's daemon workloads.

use crate::protocol::{
    Job, JobReport, Request, Response, ServerStatsSnapshot, DEFAULT_MAX_REQUEST_BYTES,
};
use cmc_store::StoreStats;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A connected client session. One request is in flight at a time;
/// responses are matched by echoed id.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// A `stats` snapshot from the daemon.
#[derive(Debug, Clone, Copy)]
pub struct DaemonStats {
    /// Shared certificate-store counters.
    pub store: StoreStats,
    /// Daemon counters.
    pub server: ServerStatsSnapshot,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connect with a timeout (used when a daemon may still be binding).
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            next_id: 1,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.roundtrip(|id| Request::Ping { id })? {
            Response::Pong { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Verify a batch of jobs; returns one outcome per job, in order.
    pub fn check_batch(&mut self, jobs: Vec<Job>) -> io::Result<Vec<Result<JobReport, String>>> {
        match self.roundtrip(|id| Request::Batch { id, jobs })? {
            Response::Batch { results, .. } => Ok(results),
            other => Err(unexpected(other)),
        }
    }

    /// Convenience: one `Auto`-backend job per source.
    pub fn check_sources(
        &mut self,
        sources: &[String],
    ) -> io::Result<Vec<Result<JobReport, String>>> {
        self.check_batch(sources.iter().map(|s| Job::auto(s.clone())).collect())
    }

    /// Snapshot the daemon's store and server counters.
    pub fn stats(&mut self) -> io::Result<DaemonStats> {
        match self.roundtrip(|id| Request::Stats { id })? {
            Response::Stats { store, server, .. } => Ok(DaemonStats { store, server }),
            other => Err(unexpected(other)),
        }
    }

    /// Ask the daemon to drain and stop. The acknowledgement arrives
    /// before the drain completes.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.roundtrip(|id| Request::Shutdown { id })? {
            Response::ShutdownAck { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Send one raw line and read one response line — the escape hatch
    /// the error-path tests use to speak *incorrect* protocol.
    pub fn raw_roundtrip(&mut self, line: &str) -> io::Result<Response> {
        self.writer.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        self.read_response()
    }

    fn roundtrip(&mut self, make: impl FnOnce(u64) -> Request) -> io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        let request = make(id);
        self.writer.write_all(request.to_line().as_bytes())?;
        self.writer.flush()?;
        let response = self.read_response()?;
        let echoed = match &response {
            Response::Pong { id }
            | Response::Batch { id, .. }
            | Response::Stats { id, .. }
            | Response::ShutdownAck { id } => Some(*id),
            Response::Error { id, .. } => *id,
        };
        if let Some(echoed) = echoed {
            if echoed != id {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response id {echoed} does not match request id {id}"),
                ));
            }
        }
        Ok(response)
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            if line.len() > DEFAULT_MAX_REQUEST_BYTES * 4 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "oversized response line",
                ));
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        Response::from_line(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

fn unexpected(response: Response) -> io::Error {
    match response {
        Response::Error { code, message, .. } => {
            io::Error::other(format!("daemon error [{}]: {message}", code.as_str()))
        }
        other => io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected response: {other:?}"),
        ),
    }
}
