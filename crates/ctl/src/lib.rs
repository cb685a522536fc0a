#![warn(missing_docs)]

//! # cmc-ctl — Computation Tree Logic: syntax, parser, fair semantics, and
//! an explicit-state model checker
//!
//! Implements §2 of *An Approach to Compositional Model Checking* (Andrade &
//! Sanders, 2002):
//!
//! * CTL state formulas ([`Formula`]) with the derived operators of §2.1,
//! * a parser for SMV `SPEC`-style concrete syntax ([`parser::parse`]),
//! * restriction indices `r = (I, F)` carrying an initial condition and
//!   fairness constraints ([`Restriction`], §2.2),
//! * an explicit-state fair-CTL checker ([`Checker`]) deciding `M ⊨_r f`
//!   by the labelling algorithm, with Emerson–Lei fair `EG`.
//!
//! The explicit checker is the *reference* engine: small, obviously
//! faithful to the paper's semantics (states are subsets of `Σ`,
//! quantification is over all of `2^Σ`, the relation is reflexive). The
//! BDD-based engine in `cmc-symbolic` is cross-validated against it.
//!
//! ## Example
//!
//! ```
//! use cmc_ctl::{parse, Checker, Restriction};
//! use cmc_kripke::{Alphabet, System};
//!
//! // One-bit system that can only set (never clear) `x`.
//! let mut m = System::new(Alphabet::new(["x"]));
//! m.add_transition_named(&[], &["x"]);
//!
//! let checker = Checker::new(&m).unwrap();
//! let spec = parse("AG (x -> AX x)").unwrap();
//! let verdict = checker.check(&Restriction::trivial(), &spec).unwrap();
//! assert!(verdict.holds);
//! ```

pub mod ast;
pub mod checker;
pub mod csr;
pub mod interner;
pub mod limits;
pub mod parser;
pub mod restriction;
pub mod rewrite;
pub mod simulation;
pub mod stateset;
pub mod statevec;
pub mod witness;

pub use ast::Formula;
pub use checker::{CheckError, Checker, Verdict};
pub use csr::CsrIndex;
pub use interner::StateInterner;
pub use limits::ExplicitLimits;
pub use parser::{parse, ParseError, MAX_FORMULA_DEPTH};
pub use restriction::Restriction;
pub use rewrite::{formula_size, simplify};
pub use simulation::{simulates_explicit, SimError, MAX_SIM_PAIR_PROPS};
pub use stateset::StateSet;
pub use statevec::StateVec;
pub use witness::WitnessPath;
