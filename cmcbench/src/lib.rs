#![warn(missing_docs)]

//! The repository's benchmark: four seeded workloads over the public
//! functions of the layer crates, their end-to-end metrics, and a traced
//! per-layer breakdown. The `cmc-bench` binary drives it; see README.md.

pub mod harness;
