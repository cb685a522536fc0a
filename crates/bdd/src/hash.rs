//! A fast, non-cryptographic hasher for integer-shaped keys.
//!
//! The unique table and the computed table are the hottest tables in the
//! whole checker and their keys are small tuples of `u32`s; both hash them
//! with [`FxHasher`], and the maps of `support`, `node_count` and
//! `rename`'s memo use it through [`FxHashMap`]. The standard library's
//! SipHash is a poor fit for such keys (see *The Rust Performance Book*,
//! "Hashing"), and no fast-hash crate is available offline, so this
//! module implements the well-known Fx multiply-rotate hash used by rustc.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx hash state. One `u64` of state, one multiply per word.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// Golden-ratio derived odd multiplier (same constant rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback: consume 8 bytes at a time, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the Fx hash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the Fx hash.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&(1u32, 2u32, 3u32)), hash_of(&(1u32, 2u32, 3u32)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&(1u32, 2u32, 3u32)), hash_of(&(1u32, 2u32, 4u32)));
        assert_ne!(hash_of(&(1u32, 2u32, 3u32)), hash_of(&(1u32, 3u32, 2u32)));
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
    }

    #[test]
    fn byte_stream_tail_handling() {
        // Streams that differ only in the sub-word tail must hash apart.
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 3, 0]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(7)), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i.wrapping_mul(7))), Some(&i));
        }
    }
}
