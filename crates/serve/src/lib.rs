#![warn(missing_docs)]

//! # cmc-serve — verification as a service
//!
//! The compositional method decomposes global properties into
//! component-local obligations, and obligations recur across clients:
//! the station verified in one user's token ring is the station in
//! everyone else's. That structure is what makes a *verification
//! daemon* profitable — independent client requests multiplex onto
//! bounded worker sessions and meet in one shared, memoized certificate
//! store, so every verdict any client pays for warms all of them.
//!
//! This crate is that daemon:
//!
//! * [`protocol`] — a hand-rolled line-delimited JSON protocol over TCP
//!   (the workspace is offline: no tokio, no serde; framing and codecs
//!   ride on `cmc-store`'s JSON layer);
//! * [`server`] — the accept/session/dispatch loops: per-connection
//!   sessions, batches fanned across `cmc_core::scheduler::run_bounded`
//!   worker sessions, each job parsed and keyed once
//!   ([`cmc_smv::spec_keys`]) and run through [`cmc_smv::run_module`]
//!   against one shared [`cmc_store::CertStore`] backed by the
//!   segmented disk tier ([`cmc_store::SegmentedDiskStore`]) with a
//!   single background [`cmc_store::Compactor`];
//! * [`flight`] — the single-flight pending map: identical in-flight
//!   obligations are checked once, concurrent duplicates wait and
//!   answer from the warm store;
//! * [`client`] — a blocking client used by the `cmc-client` binary,
//!   the conformance tests and the repository benchmark;
//! * [`workload`] — the token-ring and AFS SMV families the tests and
//!   the repository benchmark hammer the daemon with.
//!
//! ## Example
//!
//! ```
//! use cmc_serve::{Client, ServeConfig, Server};
//!
//! let mut server = Server::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let sources = vec![cmc_serve::workload::ring_source(4)];
//! let reports = client.check_sources(&sources).unwrap();
//! assert_eq!(reports.len(), 1);
//! assert!(reports[0].is_ok());
//! server.shutdown();
//! ```

pub mod client;
pub mod flight;
pub mod protocol;
pub mod server;
pub mod workload;

pub use client::{Client, DaemonStats};
pub use flight::SingleFlight;
pub use protocol::{ErrorCode, Job, JobReport, Request, Response, ServerStatsSnapshot};
pub use server::{ServeConfig, Server};
