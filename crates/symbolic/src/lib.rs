#![warn(missing_docs)]

//! # cmc-symbolic — BDD-based symbolic fair-CTL model checking
//!
//! The engine that plays the role of McMillan's SMV in the paper's case
//! study (§4.2.4, §4.3.5): state variables live in interleaved current/next
//! BDD frames, the transition relation is kept in disjunctive partitions
//! (one per interleaved component, plus the implicit stutter/identity
//! partition demanded by the paper's reflexivity assumption), and CTL
//! operators are BDD fixpoints with Emerson–Lei fair `EG`.
//!
//! Semantics match `cmc-ctl`'s explicit checker exactly — `M ⊨_r f`
//! quantifies over *all* states satisfying `I`, over `F`-fair paths — and
//! the two engines are cross-validated in the test-suites.
//! [`SymbolicModel::check`] runs its fixpoints inside the states reachable
//! from `I` (memoised per model) — exact, because that set contains `I`
//! and is successor-closed — while `sat`, `sat_under` and
//! `holds_everywhere` stay over the whole `2^n` space.
//!
//! Long-running checks stay memory-bounded: every long-lived BDD is held
//! in the manager's root registry, fixpoints are frontier-seeded and run
//! garbage collection at iteration boundaries, governed by a
//! [`MaintenanceConfig`]. The variable order is fixed when the model is
//! built: current and next copies interleave, in declaration order.
//!
//! ## Example
//!
//! ```
//! use cmc_symbolic::SymbolicModel;
//! use cmc_ctl::{parse, Restriction};
//! use cmc_kripke::{Alphabet, System};
//!
//! let mut sys = System::new(Alphabet::new(["x"]));
//! sys.add_transition_named(&[], &["x"]);
//! let mut model = SymbolicModel::from_explicit(&sys);
//! assert!(model
//!     .holds_everywhere(&parse("AG (x -> AX x)").unwrap())
//!     .unwrap());
//! let v = model
//!     .check(&Restriction::trivial(), &parse("AF x").unwrap())
//!     .unwrap();
//! assert!(!v.holds); // stuttering in ¬x forever is allowed without fairness
//! ```

pub mod checker;
pub mod model;
pub mod simulation;
pub mod witness;

pub use checker::{SymbolicError, SymbolicVerdict};
pub use model::{
    ImageMode, MaintenanceConfig, MaintenanceMode, ScheduleConfig, ScheduleStats, StateVar,
    SymbolicModel,
};
pub use simulation::simulates_symbolic;
pub use witness::{NamedState, Trace};
