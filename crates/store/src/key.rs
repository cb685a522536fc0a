//! Content-addressed obligation keys.
//!
//! A key identifies a verification obligation *structurally*: two systems
//! that differ only in alphabet order or transition insertion order map to
//! the same key, because the encoding canonicalises both before hashing
//! (sorted proposition names, states re-indexed to sorted bit positions,
//! transition pairs sorted). Formulas are keyed by their `Display`
//! rendering, which is minimal-parenthesised and parses back unambiguously;
//! fairness sets are sorted (the paper treats `F` as a set).

use crate::hash::StableHasher;
use cmc_ctl::{Formula, Restriction};
use cmc_kripke::System;
use std::fmt;
use std::hash::Hasher;

/// Field separator for the canonical encoding: a byte that cannot occur in
/// proposition names or rendered formulas, so adjacent fields cannot blur.
const SEP: u8 = 0x1F;

/// Domain-separation seeds for the two 64-bit halves of a key.
const SEED_HI: u64 = 0x636D_632D_7374_6F72; // "cmc-stor"
const SEED_LO: u64 = 0x6520_6B65_7920_3031; // "e key 01"

/// A 128-bit content hash identifying one verification obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObligationKey(pub u128);

impl ObligationKey {
    /// Key for "the composition of `systems` ⊨_r f" under a caller-chosen
    /// proof `mode` tag (different deduction procedures over the same
    /// obligation must not share certificates) and `backend` identity
    /// (different engines likewise). Component order is canonicalised
    /// away — composition is commutative (Lemma 1).
    pub fn composed(
        mode: &str,
        backend: &str,
        systems: &[&System],
        r: &Restriction,
        f: &Formula,
    ) -> Self {
        let mut parts: Vec<Vec<u8>> = systems
            .iter()
            .map(|s| {
                let mut part = Vec::with_capacity(128);
                push_system(&mut part, s);
                part
            })
            .collect();
        parts.sort();
        let mut enc = Vec::with_capacity(256);
        push_tag(&mut enc, "CMP");
        push_str(&mut enc, mode);
        push_backend(&mut enc, backend);
        for part in &parts {
            enc.extend_from_slice(part);
            push_tag(&mut enc, "/C");
        }
        push_str(&mut enc, &r.init.to_string());
        let mut fair: Vec<String> = r.fairness.iter().map(|g| g.to_string()).collect();
        fair.sort();
        for g in &fair {
            push_str(&mut enc, g);
        }
        push_tag(&mut enc, "/F");
        push_str(&mut enc, &f.to_string());
        ObligationKey::from_encoding(&enc)
    }

    /// Key for the refinement obligation "`concrete ⊑ abstraction`" (the
    /// greatest shared-observable simulation), discharged by `backend`.
    pub fn refines(concrete: &System, abstraction: &System, backend: &str) -> Self {
        let mut enc = Vec::with_capacity(256);
        push_tag(&mut enc, "SIM");
        push_backend(&mut enc, backend);
        push_system(&mut enc, concrete);
        push_tag(&mut enc, "/A");
        push_system(&mut enc, abstraction);
        ObligationKey::from_encoding(&enc)
    }

    /// Content-addressed identity of one system — the key a substitution
    /// certificate records for the abstract component it leaned on, so a
    /// replay can verify it is re-checking the *same* abstraction.
    pub fn system(system: &System) -> Self {
        let mut enc = Vec::with_capacity(128);
        push_tag(&mut enc, "ABS");
        push_system(&mut enc, system);
        ObligationKey::from_encoding(&enc)
    }

    /// Key for a substituted proof: "`concrete ∘ rest ⊨_r f`, discharged
    /// by proving `concrete ⊑ abstraction` and checking `f` on
    /// `abstraction ∘ rest`". Both sides of the substitution are part of
    /// the obligation's identity — proofs through different abstractions
    /// must not share certificates. `rest` order is canonicalised away
    /// like [`ObligationKey::composed`].
    pub fn substituted(
        backend: &str,
        concrete: &System,
        abstraction: &System,
        rest: &[&System],
        r: &Restriction,
        f: &Formula,
    ) -> Self {
        let mut parts: Vec<Vec<u8>> = rest
            .iter()
            .map(|s| {
                let mut part = Vec::with_capacity(128);
                push_system(&mut part, s);
                part
            })
            .collect();
        parts.sort();
        let mut enc = Vec::with_capacity(512);
        push_tag(&mut enc, "SUB");
        push_backend(&mut enc, backend);
        push_system(&mut enc, concrete);
        push_tag(&mut enc, "/A");
        push_system(&mut enc, abstraction);
        for part in &parts {
            enc.extend_from_slice(part);
            push_tag(&mut enc, "/C");
        }
        push_str(&mut enc, &r.init.to_string());
        let mut fair: Vec<String> = r.fairness.iter().map(|g| g.to_string()).collect();
        fair.sort();
        for g in &fair {
            push_str(&mut enc, g);
        }
        push_tag(&mut enc, "/F");
        push_str(&mut enc, &f.to_string());
        ObligationKey::from_encoding(&enc)
    }

    /// Key for "spec `spec` holds of the model described by SMV source
    /// `source`". The source is normalised (comments and blank lines
    /// dropped, lines trimmed) so formatting-only edits still hit.
    pub fn source_spec(source: &str, spec: &str) -> Self {
        ObligationKey::source_specs(source, [spec])[0]
    }

    /// The [`ObligationKey::source_spec`] key of each of `specs` over one
    /// `source`, in order. The normalised source is hashed once, and each
    /// spec finishes its key from a copy of that state.
    pub fn source_specs<'a>(source: &str, specs: impl IntoIterator<Item = &'a str>) -> Vec<Self> {
        let mut prefix = KeyHasher::new();
        prefix.field("SMV");
        for line in source.lines() {
            let line = match line.find("--") {
                Some(i) => &line[..i],
                None => line,
            };
            let line = line.trim();
            if !line.is_empty() {
                prefix.field(line);
            }
        }
        prefix.field("/SPEC");
        specs
            .into_iter()
            .map(|spec| {
                let mut key = prefix.clone();
                key.field(spec.trim());
                key.finish()
            })
            .collect()
    }

    fn from_encoding(enc: &[u8]) -> Self {
        let mut key = KeyHasher::new();
        key.write(enc);
        key.finish()
    }

    /// Render as 32 lowercase hex digits (the on-disk form).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the [`ObligationKey::to_hex`] form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ObligationKey)
    }
}

impl fmt::Display for ObligationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// The two seeded hash states a key is made of, fed the same bytes.
#[derive(Clone)]
struct KeyHasher {
    hi: StableHasher,
    lo: StableHasher,
}

impl KeyHasher {
    fn new() -> Self {
        KeyHasher {
            hi: StableHasher::with_seed(SEED_HI),
            lo: StableHasher::with_seed(SEED_LO),
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.hi.write(bytes);
        self.lo.write(bytes);
    }

    /// Feed one field as `push_str` encodes it: its bytes, then [`SEP`].
    fn field(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[SEP]);
    }

    fn finish(&self) -> ObligationKey {
        ObligationKey(((self.hi.finish() as u128) << 64) | self.lo.finish() as u128)
    }
}

fn push_tag(enc: &mut Vec<u8>, tag: &str) {
    enc.extend_from_slice(tag.as_bytes());
    enc.push(SEP);
}

fn push_str(enc: &mut Vec<u8>, s: &str) {
    enc.extend_from_slice(s.as_bytes());
    enc.push(SEP);
}

/// Append the backend identity under its own `/B` marker so a backend name
/// can never blur into an adjacent field.
fn push_backend(enc: &mut Vec<u8>, backend: &str) {
    push_tag(enc, "/B");
    push_str(enc, backend);
}

/// Append the canonical form of `system`: sorted proposition names, then
/// the explicit transition pairs with every state re-indexed so that bit
/// `i` is the `i`-th proposition *in sorted name order*, pairs sorted.
fn push_system(enc: &mut Vec<u8>, system: &System) {
    let names = system.alphabet().names();
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by(|&a, &b| names[a].cmp(&names[b]));
    // perm[old_bit] = new_bit (rank of the name in sorted order).
    let mut perm = vec![0usize; names.len()];
    for (rank, &old) in order.iter().enumerate() {
        perm[old] = rank;
    }
    for &old in &order {
        push_str(enc, &names[old]);
    }
    push_tag(enc, "/R");
    let remap = |s: cmc_kripke::State| -> u128 {
        let mut out = 0u128;
        for (old, &new) in perm.iter().enumerate() {
            if s.0 & (1u128 << old) != 0 {
                out |= 1u128 << new;
            }
        }
        out
    };
    let mut pairs: Vec<(u128, u128)> = system
        .proper_transitions()
        .map(|(s, t)| (remap(s), remap(t)))
        .collect();
    pairs.sort_unstable();
    for (s, t) in pairs {
        push_str(enc, &format!("{s:x}>{t:x}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmc_ctl::parse;
    use cmc_kripke::Alphabet;

    fn toggle(names: &[&str], lo: &[&str], hi: &[&str]) -> System {
        let mut m = System::new(Alphabet::new(names.to_vec()));
        m.add_transition_named(lo, hi);
        m.add_transition_named(hi, lo);
        m
    }

    #[test]
    fn alphabet_order_is_canonicalised() {
        let a = toggle(&["p", "q"], &[], &["p"]);
        let b = toggle(&["q", "p"], &[], &["p"]);
        let f = parse("p -> AX p").unwrap();
        let r = Restriction::trivial();
        assert_eq!(
            ObligationKey::composed("prove", "explicit", &[&a], &r, &f),
            ObligationKey::composed("prove", "explicit", &[&b], &r, &f)
        );
    }

    #[test]
    fn different_relations_differ() {
        let a = toggle(&["p", "q"], &[], &["p"]);
        let c = toggle(&["p", "q"], &[], &["q"]);
        let f = parse("p -> AX p").unwrap();
        let r = Restriction::trivial();
        assert_ne!(
            ObligationKey::composed("prove", "explicit", &[&a], &r, &f),
            ObligationKey::composed("prove", "explicit", &[&c], &r, &f)
        );
    }

    #[test]
    fn formula_matters() {
        let a = toggle(&["p"], &[], &["p"]);
        let f = parse("AG p").unwrap();
        let g = parse("EF p").unwrap();
        let r = Restriction::trivial();
        assert_ne!(
            ObligationKey::composed("prove", "explicit", &[&a], &r, &f),
            ObligationKey::composed("prove", "explicit", &[&a], &r, &g)
        );
    }

    #[test]
    fn restriction_fairness_is_a_set() {
        let a = toggle(&["p", "q"], &[], &["p"]);
        let f = parse("AG p").unwrap();
        let r1 = Restriction::new(
            parse("p").unwrap(),
            [parse("q").unwrap(), parse("p").unwrap()],
        );
        let r2 = Restriction::new(
            parse("p").unwrap(),
            [parse("p").unwrap(), parse("q").unwrap()],
        );
        assert_eq!(
            ObligationKey::composed("prove", "explicit", &[&a], &r1, &f),
            ObligationKey::composed("prove", "explicit", &[&a], &r2, &f)
        );
        let r3 = Restriction::new(parse("q").unwrap(), [parse("p").unwrap()]);
        assert_ne!(
            ObligationKey::composed("prove", "explicit", &[&a], &r1, &f),
            ObligationKey::composed("prove", "explicit", &[&a], &r3, &f)
        );
    }

    #[test]
    fn kinds_are_domain_separated() {
        let a = toggle(&["p"], &[], &["p"]);
        let f = parse("AG p").unwrap();
        let r = Restriction::trivial();
        // Every kind hashes under its own tag.
        let composed = ObligationKey::composed("prove", "explicit", &[&a], &r, &f);
        let substituted = ObligationKey::substituted("explicit", &a, &a, &[], &r, &f);
        assert_ne!(composed, substituted);
    }

    #[test]
    fn smv_normalisation_ignores_comments_and_blanks() {
        let src1 = "MODULE main\nVAR x : boolean; -- the bit\n\nTRANS x != next(x)\n";
        let src2 = "MODULE main\n  VAR x : boolean;\nTRANS x != next(x)";
        assert_eq!(
            ObligationKey::source_spec(src1, "AG x"),
            ObligationKey::source_spec(src2, " AG x ")
        );
        assert_ne!(
            ObligationKey::source_spec(src1, "AG x"),
            ObligationKey::source_spec(src2, "AG !x")
        );
    }

    #[test]
    fn composed_key_ignores_component_order_but_not_mode() {
        let a = toggle(&["p"], &[], &["p"]);
        let b = toggle(&["q"], &[], &["q"]);
        let f = parse("AG (p | q)").unwrap();
        let r = Restriction::trivial();
        let k1 = ObligationKey::composed("prove", "explicit", &[&a, &b], &r, &f);
        let k2 = ObligationKey::composed("prove", "explicit", &[&b, &a], &r, &f);
        assert_eq!(k1, k2);
        let k3 = ObligationKey::composed("invariant", "explicit", &[&a, &b], &r, &f);
        assert_ne!(k1, k3);
    }

    #[test]
    fn backend_identity_separates_keys() {
        let a = toggle(&["p"], &[], &["p"]);
        let f = parse("AG p").unwrap();
        let r = Restriction::trivial();
        assert_ne!(
            ObligationKey::composed("prove", "explicit", &[&a], &r, &f),
            ObligationKey::composed("prove", "symbolic", &[&a], &r, &f)
        );
        // The backend field cannot blur into the mode field.
        assert_ne!(
            ObligationKey::composed("prove", "x", &[&a], &r, &f),
            ObligationKey::composed("provex", "", &[&a], &r, &f)
        );
    }

    #[test]
    fn refinement_keys_are_directional_and_domain_separated() {
        let a = toggle(&["p"], &[], &["p"]);
        let b = toggle(&["p", "q"], &[], &["q"]);
        // C ⊑ A and A ⊑ C are different obligations.
        assert_ne!(
            ObligationKey::refines(&b, &a, "explicit"),
            ObligationKey::refines(&a, &b, "explicit")
        );
        assert_ne!(
            ObligationKey::refines(&a, &a, "explicit"),
            ObligationKey::refines(&a, &a, "symbolic")
        );
        // A system's content key differs from any check key over it.
        assert_ne!(
            ObligationKey::system(&a),
            ObligationKey::refines(&a, &a, "explicit")
        );
        // Structural canonicalisation applies to content keys too.
        let a2 = toggle(&["p"], &[], &["p"]);
        assert_eq!(ObligationKey::system(&a), ObligationKey::system(&a2));
    }

    #[test]
    fn substituted_key_tracks_both_sides_and_canonicalises_rest() {
        let c = toggle(&["p", "q"], &[], &["p"]);
        let abs = toggle(&["p"], &[], &["p"]);
        let r1 = toggle(&["x"], &[], &["x"]);
        let r2 = toggle(&["y"], &[], &["y"]);
        let f = parse("AG p").unwrap();
        let r = Restriction::trivial();
        let k1 = ObligationKey::substituted("auto", &c, &abs, &[&r1, &r2], &r, &f);
        let k2 = ObligationKey::substituted("auto", &c, &abs, &[&r2, &r1], &r, &f);
        assert_eq!(k1, k2, "rest order must not matter");
        // A different abstraction is a different obligation.
        let mut abs2 = System::new(Alphabet::new(["p"]));
        abs2.add_transition_named(&[], &["p"]);
        let k3 = ObligationKey::substituted("auto", &c, &abs2, &[&r1, &r2], &r, &f);
        assert_ne!(k1, k3);
        // Swapping concrete and abstraction matters.
        let k4 = ObligationKey::substituted("auto", &abs, &c, &[&r1, &r2], &r, &f);
        assert_ne!(k1, k4);
    }

    #[test]
    fn hex_round_trip() {
        let a = toggle(&["p"], &[], &["p"]);
        let k = ObligationKey::system(&a);
        let hex = k.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(ObligationKey::from_hex(&hex), Some(k));
        assert_eq!(ObligationKey::from_hex("zz"), None);
        assert_eq!(ObligationKey::from_hex(&hex[..31]), None);
    }
}
