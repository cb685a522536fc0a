#![warn(missing_docs)]

//! The token-ring workload that the repository benchmark (`cmcbench`)
//! replays, and that the two calibration sweeps in `benches/` time:
//! `backend_crossover` (the `Auto` crossover constants) and
//! `partition_kernel` (the cluster-merge constants).

pub mod ring;
