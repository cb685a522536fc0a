#![warn(missing_docs)]

//! # cmc-bdd — Reduced Ordered Binary Decision Diagrams
//!
//! A from-scratch ROBDD package in the spirit of the BDD engine inside
//! McMillan's SMV, which the paper *An Approach to Compositional Model
//! Checking* (Andrade & Sanders, 2002) uses as its model-checking substrate.
//!
//! The package provides:
//!
//! * a [`BddManager`] owning an arena of hash-consed nodes with a unique
//!   table and an ITE computed-table cache,
//! * the full boolean algebra ([`BddManager::and`], [`BddManager::or`],
//!   [`BddManager::not`], [`BddManager::xor`], [`BddManager::iff`],
//!   [`BddManager::implies`], [`BddManager::ite`]),
//! * quantification ([`BddManager::exists`], [`BddManager::forall`]) and the
//!   combined relational product [`BddManager::and_exists`] used by image
//!   computations in symbolic model checking,
//! * variable renaming ([`BddManager::rename`]) for current/next state
//!   variable frames,
//! * a memory kernel: mark-and-sweep garbage collection with compaction
//!   over an explicit root registry ([`BddManager::protect`] /
//!   [`BddManager::gc`]) and a bounded generational computed table
//!   ([`cache`]); variables keep their declaration order for the
//!   manager's whole life,
//! * model counting and witness extraction ([`sat`] module),
//! * resource statistics mirroring the `resources used:` trailer that SMV
//!   prints in the paper's Figures 7, 10, 15 and 17 ([`stats`] module),
//! * Graphviz export ([`dot`] module).
//!
//! ## Example
//!
//! ```
//! use cmc_bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let x = m.new_var();
//! let y = m.new_var();
//! let fx = m.var(x);
//! let fy = m.var(y);
//! let conj = m.and(fx, fy);
//! let disj = m.or(fx, fy);
//! assert!(m.implies_trivially(conj, disj));
//! assert_eq!(m.sat_count(conj, 2), 1.0);
//! assert_eq!(m.sat_count(disj, 2), 3.0);
//! ```

pub mod cache;
pub mod dot;
pub mod hash;
pub mod manager;
pub mod node;
pub mod ops;
pub mod roots;
pub mod sat;
pub mod stats;

pub use cache::DEFAULT_CACHE_CAPACITY;
pub use manager::{BddManager, GcStats};
pub use node::{Bdd, Var};
pub use roots::RootId;
pub use stats::BddStats;
