//! Stored verdicts and certificates.
//!
//! `cmc-store` sits *below* `cmc-core` in the dependency graph (the engine
//! consults the store), so it cannot use the engine's `Certificate` type
//! directly. [`StoredCertificate`] mirrors it field-for-field; `cmc-core`
//! provides the `From` conversions in both directions.

use cmc_kripke::System;

/// One step of a stored proof certificate (mirrors `cmc_core::Step`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredStep {
    /// What was established (or attempted).
    pub description: String,
    /// Did the step succeed?
    pub ok: bool,
    /// Was this step compositional (component-local) or a whole-system
    /// fallback check?
    pub compositional: bool,
    /// Name of the backend that discharged the step's obligation
    /// (`None` for pure deduction steps).
    pub backend: Option<String>,
}

/// One abstraction substitution a certificate leaned on (a
/// `cmc_core::Certificate` carries these as its `abstractions`):
/// everything a replay validator needs to re-establish the deduction
/// *from the certificate alone* — re-run the simulation premise
/// `concrete ⊑ abstraction` and re-check the property on
/// `abstraction ∘ rest` under the recorded restriction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredSubstitution {
    /// Display name of the component that was substituted.
    pub component: String,
    /// Content-addressed identity of the abstract system
    /// ([`crate::ObligationKey::system`] in hex): a replay verifies the
    /// recorded `abstraction` still hashes to this key.
    pub abstraction_key: String,
    /// The concrete system of the simulation premise.
    pub concrete: System,
    /// The abstract system that stood in for it.
    pub abstraction: System,
    /// The unsubstituted context: the property was checked on
    /// `abstraction ∘ rest`.
    pub rest: Vec<System>,
    /// The initial-condition formula, rendered.
    pub init: String,
    /// The fairness constraints, rendered.
    pub fairness: Vec<String>,
    /// The transferred property, rendered.
    pub formula: String,
}

/// A stored proof certificate (mirrors `cmc_core::Certificate`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredCertificate {
    /// The property being established, rendered.
    pub goal: String,
    /// The steps, in order.
    pub steps: Vec<StoredStep>,
    /// Overall verdict.
    pub valid: bool,
    /// Abstraction substitutions the deduction leaned on (empty for
    /// certificates that never substituted; the codec then omits the
    /// field).
    pub abstractions: Vec<StoredSubstitution>,
}

/// The memoized outcome of one verification obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The boolean verdict of the check.
    pub verdict: bool,
    /// The proof certificate, when the producing check built one
    /// (component-level `holds_everywhere` checks store the bare verdict).
    pub certificate: Option<StoredCertificate>,
}

impl Entry {
    /// An entry carrying only a verdict.
    pub fn verdict(verdict: bool) -> Self {
        Entry {
            verdict,
            certificate: None,
        }
    }

    /// An entry carrying a verdict and its certificate.
    pub fn with_certificate(verdict: bool, certificate: StoredCertificate) -> Self {
        Entry {
            verdict,
            certificate: Some(certificate),
        }
    }
}
