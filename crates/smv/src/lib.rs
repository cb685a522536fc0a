#![warn(missing_docs)]

//! # cmc-smv — a mini-SMV modelling language
//!
//! The paper verifies its case-study components with McMillan's SMV model
//! checker. This crate rebuilds the required slice of SMV from scratch:
//!
//! * a lexer and recursive-descent parser for `MODULE main` programs with
//!   `VAR` (boolean, symbolic enumerations `{a,b,c}`, ranges `0..3`),
//!   `ASSIGN` (`init(x) :=`, `next(x) :=` with `case`/`esac` and
//!   nondeterministic `{..}` sets), `DEFINE`, `INIT`, `TRANS`, `INVAR`,
//!   `FAIRNESS` and CTL `SPEC` sections ([`parse_module`]),
//! * a semantic checker ([`check_module`]),
//! * the Figure-3 boolean encoding of enumerated variables, and a compiler
//!   to the BDD engine ([`compile()`](compile::compile) → [`CompiledModel`]),
//! * an independent compiler to the explicit-state engine
//!   ([`compile_explicit`]) used for cross-validation,
//! * an SMV-style check driver ([`run_source`]) whose output mirrors the
//!   paper's Figures 7, 10, 15 and 17: one spec loop for both engines
//!   ([`run_source_with_backend`]), with or without a certificate store
//!   ([`run_source_with_store_and_backend`]), and for a module already
//!   parsed and keyed ([`run_module`], [`spec_keys`]), as the
//!   `cmc-serve` daemon runs its jobs. The `cmc-smv` binary is its
//!   command line (`-e`, `-s`, `-v`, `-refine`).
//!
//! ## Example
//!
//! ```
//! let out = cmc_smv::run_source(
//!     "MODULE main\n\
//!      VAR s : {idle, busy};\n\
//!      ASSIGN init(s) := idle; next(s) := {idle, busy};\n\
//!      SPEC AG EX (s = busy)",
//! )
//! .unwrap();
//! assert!(out.all_true());
//! assert!(out.report.contains("is true"));
//! ```

pub mod ast;
pub mod check;
pub mod compile;
pub mod compose;
pub mod display;
pub mod driver;
pub mod explicit;
pub mod parse;
pub mod token;

pub use ast::{Expr, Module, Type};
pub use check::{check_module, SemError, Symbols};
pub use cmc_core::BackendChoice;
pub use cmc_ctl::ExplicitLimits;
pub use compile::{compile, CompiledModel, CompiledVar};
pub use compose::{compile_composition, compile_expansion, union_variables};
pub use driver::{
    run_module, run_refine, run_source, run_source_validated, run_source_with_backend,
    run_source_with_store_and_backend, spec_keys, DriverError, RunOutcome,
};
pub use explicit::{compile_explicit, compile_explicit_with, ExplicitCompiled};
pub use parse::{parse_module, SmvParseError};
