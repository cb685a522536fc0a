#![warn(missing_docs)]

//! # cmc-store — content-addressed certificate store with memoized
//! verification sessions
//!
//! The compositional method of *An Approach to Compositional Model
//! Checking* (Andrade & Sanders, 2002) derives global properties from
//! **component-local** obligations. Components recur across compositions —
//! the same station appears in every token ring built from it, the same
//! module is shared by many system configurations — so the obligations
//! discharged while verifying one composition are often exactly the
//! obligations of the next. This crate makes that reuse explicit:
//!
//! * [`ObligationKey`] — a stable structural hash of an obligation
//!   (a composition `⊨_r f` under a proof mode, a refinement, a
//!   substitution, or SMV source + spec).
//!   Alphabet order, transition insertion order and fairness-set order are
//!   canonicalised away, so structurally equal obligations collide by
//!   construction. Hashing is FNV-1a ([`StableHasher`]), fully specified
//!   and stable across processes and toolchains.
//! * [`CertStore`] — a bounded, thread-safe map from keys to verdicts and
//!   proof certificates ([`Entry`], [`StoredCertificate`]), with
//!   hit/miss/eviction counters ([`StoreStats`]). It evicts in exact LRU
//!   order, finding the victim through a recency index in O(log n).
//!   [`ObligationKey::source_specs`] keys every spec of one SMV source
//!   with one pass over the source.
//! * [`SegmentedDiskStore`] — the on-disk tier: an append-only directory
//!   of atomically-written segments of hand-rolled, checksummed JSON
//!   ([`json::Json`]). Loads are hash-verified, so stale or tampered
//!   entries are ignored, never trusted. Readers are concurrent and
//!   lock-free, a single-writer [`Compactor`] thread merges segments, and
//!   an on-disk byte budget, counted in bytes as written, evicts the
//!   oldest entries, surfaced through [`StoreStats`].
//!   [`SegmentedDiskStore::save_snapshot`] and
//!   [`SegmentedDiskStore::load_into`] ship a store between sessions; the
//!   `cmc-serve` daemon shares the same tier across all client sessions.
//!
//! ## Example
//!
//! ```
//! use cmc_store::{CertStore, Entry, ObligationKey};
//! use cmc_ctl::{parse, Restriction};
//! use cmc_kripke::{Alphabet, System};
//!
//! let mut station = System::new(Alphabet::new(["t"]));
//! station.add_transition_named(&["t"], &[]);
//! let f = parse("t -> AX t").unwrap();
//!
//! let store = CertStore::new();
//! let r = Restriction::trivial();
//! let key = ObligationKey::composed("prove", "explicit", &[&station], &r, &f);
//! // First composition: miss — run the real check and memoize.
//! let (_, hit) = store
//!     .get_or_check::<std::convert::Infallible>(key, || Ok(Entry::verdict(false)))
//!     .unwrap();
//! assert!(!hit);
//! // Second composition sharing the station: pure cache hit.
//! let (entry, hit) = store
//!     .get_or_check::<std::convert::Infallible>(key, || unreachable!("memoized"))
//!     .unwrap();
//! assert!(hit && !entry.verdict);
//! assert_eq!(store.stats().hits, 1);
//! ```

mod codec;
pub mod entry;
pub mod hash;
pub mod json;
pub mod key;
pub mod segment;
pub mod stats;
pub mod store;

pub use entry::{Entry, StoredCertificate, StoredStep, StoredSubstitution};
pub use hash::StableHasher;
pub use key::ObligationKey;
pub use segment::{CompactReport, Compactor, SegmentedDiskStore};
pub use stats::StoreStats;
pub use store::CertStore;
