//! One configurable home for every explicit-engine ceiling.
//!
//! Before PR 9 the repo had two disjoint width cliffs that did not agree
//! with each other: cmc-ctl refused more than `MAX_EXPLICIT_PROPS = 24`
//! propositions (the dense `2^n` universe) and the SMV driver capped
//! models at a 20-encoded-bit budget. Both were *bit* limits standing in
//! for what is really a *memory* limit — the number of states the engine
//! may materialise. [`ExplicitLimits`] unifies them:
//!
//! * `dense_bits` — the width up to which the dense `2^n`-universe kernel
//!   is used (exact `sat_states` counts, no interner overhead). Beyond it
//!   the reachable-only hash-compacted kernel takes over; there is no
//!   hard width ceiling any more.
//! * `max_states` — the opt-in memory budget, counted in *states* (not
//!   bits): reachable construction refuses with
//!   [`crate::CheckError::StateBudget`] once discovery would exceed it.
//!   `None` disables the guard entirely.

/// Width/memory budgets for the explicit engine. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplicitLimits {
    /// Widths `<= dense_bits` run on the dense `2^n` universe; wider
    /// targets go through the reachable-only interned kernel.
    pub dense_bits: usize,
    /// Budget on materialised states in reachable mode (`None` = unbounded).
    pub max_states: Option<usize>,
}

impl ExplicitLimits {
    /// Dense-universe width used when nothing is configured (2^24 ≈ 16.7M
    /// states), and the width `Checker::new` refuses past.
    pub const DEFAULT_DENSE_BITS: usize = 24;

    /// Default state budget for reachable construction: 2^21 states keeps
    /// the interner + CSR comfortably in memory while admitting every
    /// composition the bench sweeps exercise.
    pub const DEFAULT_MAX_STATES: usize = 1 << 21;

    /// Limits with the guard disabled (`max_states: None`).
    pub fn unbounded() -> Self {
        ExplicitLimits {
            dense_bits: Self::DEFAULT_DENSE_BITS,
            max_states: None,
        }
    }

    /// Limits with an explicit state budget.
    pub fn budgeted(max_states: usize) -> Self {
        ExplicitLimits {
            dense_bits: Self::DEFAULT_DENSE_BITS,
            max_states: Some(max_states),
        }
    }

    /// The budget as a plain bound (`usize::MAX` when disabled).
    pub fn state_budget(&self) -> usize {
        self.max_states.unwrap_or(usize::MAX)
    }
}

impl Default for ExplicitLimits {
    fn default() -> Self {
        ExplicitLimits {
            dense_bits: Self::DEFAULT_DENSE_BITS,
            max_states: Some(Self::DEFAULT_MAX_STATES),
        }
    }
}
