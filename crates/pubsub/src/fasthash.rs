//! A fast, non-cryptographic hasher for the matching hot paths.
//!
//! The counting match index bumps a per-key counter for every
//! satisfied constraint row — hundreds of hash-map operations per
//! publication — and the default SipHash dominates that loop. Keys
//! here are small fixed-size ids (or short attribute names) coming
//! from trusted broker state, not attacker-controlled input, so a
//! multiply–rotate word hasher is appropriate: one rotate, one xor
//! and one multiply per written word.
//!
//! The mixing step is the widely used `FxHash` construction
//! (rotate-xor-multiply by a golden-ratio-derived odd constant).
//!
//! # Determinism
//!
//! The hasher carries **no per-instance state**:
//! [`BuildHasherDefault`] zero-initializes every hasher, so equal key
//! bytes hash identically in every map, every process and every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit golden-ratio multiplier (odd, high entropy in the top bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply–rotate word hasher; see the module docs for the contract.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" ≠ "ab\0".
            self.mix(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// [`HashMap`] keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// [`HashSet`] keyed through [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_mixed_keys() {
        let mut m: FastMap<String, u32> = FastMap::default();
        for i in 0..1000 {
            m.insert(format!("key-{i}"), i);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&format!("key-{i}")), Some(&i));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hashing_is_stateless_and_reproducible() {
        // Every freshly-built hasher (bare or via
        // `BuildHasherDefault`) agrees on equal bytes: no per-instance
        // seed.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FastHasher>::default();
        for key in ["", "x", "attr-name", "k00", "a-rather-longer-attribute"] {
            let mut a = FastHasher::default();
            a.write(key.as_bytes());
            let mut b = build.build_hasher();
            b.write(key.as_bytes());
            let mut c = FastHasher::default();
            c.write(key.as_bytes());
            assert_eq!(a.finish(), b.finish(), "builder disagreed on {key:?}");
            assert_eq!(a.finish(), c.finish(), "fresh hasher disagreed on {key:?}");
        }
    }

    #[test]
    fn string_prefixes_do_not_collide_trivially() {
        // The length fold keeps zero-padded tails of different lengths
        // apart; spot-check the shapes the prefix buckets rely on.
        let hash = |s: &str| {
            let mut h = FastHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        let keys = [
            "",
            "g",
            "g1",
            "g1\0",
            "g12",
            "g123456",
            "g1234567",
            "g12345678",
        ];
        let mut seen = std::collections::BTreeSet::new();
        for k in keys {
            assert!(seen.insert(hash(k)), "collision on {k:?}");
        }
    }
}
