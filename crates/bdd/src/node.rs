//! Node and handle types for the ROBDD arena.

/// A BDD variable, identified by its position in the global variable order.
///
/// Lower indices are closer to the root of every diagram. The symbolic
/// model checker interleaves current- and next-state variables (current at
/// even positions, next at odd positions), which keeps the transition
/// relation small — the classic SMV layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Position in the variable order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A handle to a BDD node inside a [`crate::BddManager`] arena.
///
/// Handles are plain indices: copying is free and equality is O(1) because
/// the arena hash-conses nodes (two handles are equal iff the functions they
/// denote are equal, given the same manager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant FALSE diagram.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant TRUE diagram.
    pub const TRUE: Bdd = Bdd(1);

    /// Is this the constant FALSE?
    #[inline]
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Is this the constant TRUE?
    #[inline]
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Is this either constant?
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 < 2
    }

    /// Raw arena index (stable for the lifetime of the manager).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// An internal decision node: `if var then high else low`.
///
/// Terminals occupy arena slots 0 (FALSE) and 1 (TRUE) with a sentinel
/// variable index larger than any real variable, so that the "top variable"
/// comparisons in the ITE recursion need no special cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    /// Decision variable (sentinel `u32::MAX` for terminals).
    pub var: u32,
    /// Cofactor when `var` is false.
    pub low: u32,
    /// Cofactor when `var` is true.
    pub high: u32,
}

/// Sentinel variable index used by the two terminal nodes.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert!(Bdd::FALSE.is_false());
        assert!(Bdd::TRUE.is_true());
        assert!(Bdd::FALSE.is_const());
        assert!(Bdd::TRUE.is_const());
        assert!(!Bdd::FALSE.is_true());
        assert_ne!(Bdd::FALSE, Bdd::TRUE);
    }

    #[test]
    fn var_ordering_follows_index() {
        assert!(Var(0) < Var(1));
        assert_eq!(Var(3).index(), 3);
    }

    #[test]
    fn node_size_is_compact() {
        // Three u32 fields; the arena stores millions of these, keep it 12 bytes.
        assert_eq!(std::mem::size_of::<Node>(), 12);
        assert_eq!(std::mem::size_of::<Bdd>(), 4);
    }
}
