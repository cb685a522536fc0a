//! Alphabets of atomic propositions.

use std::collections::BTreeMap;
use std::fmt;

/// An ordered, duplicate-free set of atomic-proposition names — the `Σ` of a
/// system `M = (Σ, R)`.
///
/// Order matters only for the bit layout of [`crate::State`]; set semantics
/// (as used by the paper) are provided by [`Alphabet::union`] and
/// [`Alphabet::is_subset_of`], which are order-insensitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    names: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl Alphabet {
    /// Build an alphabet from proposition names. Panics on duplicates —
    /// a duplicated proposition is always a modelling bug.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let mut index = BTreeMap::new();
        for (i, n) in names.iter().enumerate() {
            let prev = index.insert(n.clone(), i);
            assert!(prev.is_none(), "duplicate atomic proposition {n:?}");
        }
        // No width cap here: union alphabets of wide compositions go past
        // 128 names, and the reachable kernel's packed bitvecs address
        // them fine. The `MAX_PROPS` cap lives on [`crate::System`], whose
        // `State`-pair transitions really are 128-bit-bounded.
        Alphabet { names, index }
    }

    /// The empty alphabet.
    pub fn empty() -> Self {
        Alphabet::new(Vec::<String>::new())
    }

    /// Number of propositions.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the alphabet empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name at position `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// All names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Position of `name`, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Does the alphabet contain `name`?
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Set inclusion `Σ ⊆ Σ'` (order-insensitive).
    pub fn is_subset_of(&self, other: &Alphabet) -> bool {
        self.names.iter().all(|n| other.contains(n))
    }

    /// Same proposition set (order-insensitive).
    pub fn same_set(&self, other: &Alphabet) -> bool {
        self.len() == other.len() && self.is_subset_of(other)
    }

    /// Union `Σ ∪ Σ'`: keeps `self`'s order, then appends `other`'s new
    /// names in `other`'s order ([`Alphabet::union_of`] of the two).
    pub fn union(&self, other: &Alphabet) -> Alphabet {
        Alphabet::union_of([self, other])
    }

    /// The union `Σ*` of several alphabets in **first-seen order**: every
    /// name at the position of its first occurrence, scanning `parts` in
    /// turn. This is the one definition of the union layout — the bit
    /// order of a composition's [`crate::State`]s, which
    /// [`crate::System::compose`] and every checker built over the
    /// components share. Deterministic, so composition is reproducible.
    pub fn union_of<'a>(parts: impl IntoIterator<Item = &'a Alphabet>) -> Alphabet {
        let mut names: Vec<String> = Vec::new();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for part in parts {
            for n in &part.names {
                if !index.contains_key(n) {
                    index.insert(n.clone(), names.len());
                    names.push(n.clone());
                }
            }
        }
        Alphabet { names, index }
    }

    /// Difference `Σ − Σ'` as a list of names (in `self` order).
    pub fn difference(&self, other: &Alphabet) -> Vec<String> {
        self.names
            .iter()
            .filter(|n| !other.contains(n))
            .cloned()
            .collect()
    }

    /// For each position in `self`, its position in `target`.
    /// Panics if some name is missing from `target` — callers must union
    /// alphabets first.
    pub fn embedding(&self, target: &Alphabet) -> Vec<usize> {
        self.names
            .iter()
            .map(|n| {
                target
                    .position(n)
                    .unwrap_or_else(|| panic!("proposition {n:?} missing from target alphabet"))
            })
            .collect()
    }
}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.names.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let a = Alphabet::new(["x", "y", "z"]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.position("y"), Some(1));
        assert_eq!(a.position("w"), None);
        assert!(a.contains("z"));
        assert_eq!(a.name(0), "x");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicates_rejected() {
        Alphabet::new(["x", "x"]);
    }

    #[test]
    fn union_keeps_left_order_and_appends() {
        let a = Alphabet::new(["x", "y"]);
        let b = Alphabet::new(["y", "z"]);
        let u = a.union(&b);
        assert_eq!(u.names(), &["x", "y", "z"]);
        // Union is idempotent on the set level.
        assert!(u.same_set(&b.union(&a)));
    }

    #[test]
    fn union_of_keeps_first_seen_order() {
        let a = Alphabet::new(["x", "y"]);
        let b = Alphabet::new(["z", "y"]);
        let c = Alphabet::new(["w", "x"]);
        let u = Alphabet::union_of([&a, &b, &c]);
        assert_eq!(u.names(), &["x", "y", "z", "w"]);
        assert_eq!(u.position("w"), Some(3));
        assert_eq!(u, a.union(&b).union(&c));
        assert_eq!(Alphabet::union_of([]), Alphabet::empty());
    }

    #[test]
    fn subset_and_difference() {
        let a = Alphabet::new(["x", "y"]);
        let b = Alphabet::new(["y", "x", "z"]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.same_set(&Alphabet::new(["y", "x"])));
        assert_eq!(b.difference(&a), vec!["z".to_string()]);
        assert!(a.difference(&b).is_empty());
    }

    #[test]
    fn embedding_maps_positions() {
        let a = Alphabet::new(["y", "x"]);
        let big = Alphabet::new(["x", "y", "z"]);
        assert_eq!(a.embedding(&big), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "missing from target")]
    fn embedding_requires_inclusion() {
        let a = Alphabet::new(["w"]);
        let big = Alphabet::new(["x"]);
        a.embedding(&big);
    }

    #[test]
    fn display_renders_as_set() {
        let a = Alphabet::new(["x", "y"]);
        assert_eq!(a.to_string(), "{x, y}");
        assert_eq!(Alphabet::empty().to_string(), "{}");
    }
}
