#![warn(missing_docs)]

//! # cmc-core — compositional model checking
//!
//! The primary contribution of *An Approach to Compositional Model
//! Checking* (Andrade & Sanders, 2002), as an executable library:
//!
//! * **Property classification** ([`property`]) — the universal /
//!   existential property classes and the syntactic Rules 1–3 of §3.3.
//! * **Progress and safety rules** ([`rules`]) — Rule 4 (weak fairness),
//!   Rule 5 (strong fairness) producing *guarantees properties*, and the
//!   invariant rule used throughout the case study.
//! * **The proof engine** ([`engine`]) — expands components over the
//!   composed alphabet (Lemma 5), model-checks component obligations (in
//!   parallel, [`scheduler`]), transfers them by class, discharges
//!   guarantees, and emits auditable [`engine::Certificate`]s.
//! * **Executable lemmas** ([`lemmas`]) — decision procedures for Lemmas
//!   5–11 of §3.2 on concrete systems (Lemmas 1–4 live in
//!   `cmc_kripke::lemmas`), used by the property-based test-suite.
//!
//! ## Example: a compositional safety proof
//!
//! ```
//! use cmc_core::engine::{Component, Engine};
//! use cmc_ctl::parse;
//! use cmc_kripke::{Alphabet, System};
//!
//! // Component 1 raises `req`; component 2 raises `ack` only after `req`.
//! let mut requester = System::new(Alphabet::new(["req"]));
//! requester.add_transition_named(&[], &["req"]);
//! let mut responder = System::new(Alphabet::new(["req", "ack"]));
//! responder.add_transition_named(&["req"], &["req", "ack"]);
//!
//! let engine = Engine::new(vec![
//!     Component::new("requester", requester),
//!     Component::new("responder", responder),
//! ]);
//! // Invariant: ack implies req — proved per component, never building
//! // the product system.
//! let cert = engine
//!     .prove_invariant(
//!         &parse("ack -> req").unwrap(),
//!         &parse("!req & !ack").unwrap(),
//!         &[],
//!     )
//!     .unwrap();
//! assert!(cert.valid);
//! assert!(cert.fully_compositional());
//! ```

pub mod backend;
pub mod engine;
pub mod lemmas;
pub mod property;
pub mod report;
pub mod rules;
pub mod scheduler;

pub use backend::{
    check_planned, check_refines, check_routed, estimate_reachable_states, BackendChoice,
    BackendError, BackendKind, CheckStats, ExplicitBackend, RouteDecision, SymbolicBackend, Target,
    Verdict, AUTO_BUDGET_SLACK, AUTO_CROSSOVER_STATES, AUTO_DENSE_BITS, MAX_WITNESSES,
};
pub use cmc_ctl::ExplicitLimits;
pub use cmc_symbolic::{ImageMode, MaintenanceConfig, MaintenanceMode, ScheduleStats};
pub use engine::{Certificate, Component, Engine, EngineError, Step, Substitution};
pub use property::{classify, ClassRule, Classified, PropertyClass};
pub use report::VerificationReport;
pub use rules::{
    circular_refines, invariant_obligations, require_universal, rule4, rule5,
    substitution_side_conditions, CircularDischarge, Guarantee, RefinementError, RuleError,
};
