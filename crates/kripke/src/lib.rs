#![warn(missing_docs)]

//! # cmc-kripke — finite-state systems and the paper's composition operator
//!
//! Implements §2.1 and §3.1 of *An Approach to Compositional Model Checking*
//! (Andrade & Sanders, 2002):
//!
//! * a system is a structure `M = (Σ, R)` where `Σ` is a finite set of
//!   atomic propositions and a **state is the set of propositions true in
//!   it** (so the state space is `2^Σ`),
//! * `R` is a total, **reflexive** transition relation on `2^Σ`,
//! * the interleaving parallel composition `M ∘ M'` of §3.1: `R*` is the
//!   smallest reflexive relation containing every transition of `M` padded
//!   with an arbitrary but fixed valuation of `Σ' − Σ`, and symmetrically
//!   every transition of `M'`,
//! * the *expansion* `M ∘ (Σ', I)` of a system over extra atomic
//!   propositions, and the identity system `(Σ, I)` of Lemma 3.
//!
//! The crate also provides executable versions of the structural lemmas of
//! §3.2 (Lemmas 1–4), used by the test-suite and by `cmc-core`'s proof
//! engine to validate its algebraic reasoning on concrete systems.
//!
//! ## Example: Figure 1 of the paper
//!
//! ```
//! use cmc_kripke::{Alphabet, System};
//!
//! // M over {x}: toggles x; M' over {y}: toggles y.
//! let mut m = System::new(Alphabet::new(["x"]));
//! m.add_transition_named(&[], &["x"]);
//! m.add_transition_named(&["x"], &[]);
//! let mut mp = System::new(Alphabet::new(["y"]));
//! mp.add_transition_named(&[], &["y"]);
//! mp.add_transition_named(&["y"], &[]);
//!
//! let composed = m.compose(&mp);
//! assert_eq!(composed.alphabet().len(), 2);
//! // 8 interleaved moves + 4 reflexive pairs: exactly the 12 distinct
//! // pairs listed in Figure 1 of the paper.
//! assert_eq!(composed.transition_count(), 12);
//! ```

pub mod alphabet;
pub mod dot;
pub mod lemmas;
pub mod simulation;
pub mod state;
pub mod system;

pub use alphabet::Alphabet;
pub use simulation::{simulates, SharedObs, SimulationCx, SimulationOutcome};
pub use state::State;
pub use system::{subsets, System};
