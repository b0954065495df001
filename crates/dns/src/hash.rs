//! Fast non-cryptographic hashing for name-keyed containers.
//!
//! [`DomainName`](crate::DomainName) keys are fixed 23-byte values (or a
//! 4-byte interner id), so the default SipHash's DoS resistance buys
//! nothing on internal simulation state while costing most of the hash
//! time on the diff engines' hot paths. [`FxHasher`] is the
//! multiply-rotate hash used by rustc (firefox's "Fx" hash), which
//! measures several times faster on short fixed-size keys.
//!
//! Use [`NameMap`] / [`NameSet`] for containers keyed by `DomainName` (or
//! any other short key) on hot paths.

use std::hash::{BuildHasherDefault, Hasher};

/// The rustc/firefox Fx hash: one multiply-rotate step per 8-byte word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if rest.is_empty() {
            return;
        }
        // The remainder as a zero-padded little-endian word, assembled in
        // a register. (A variable-length copy into a padded buffer is a
        // `memcpy` call per hash — most of the cost of hashing a short
        // string key, and name suffixes and interner spellings are hashed
        // on the codec hot path. An overlapping 8-byte load of the tail is
        // not the answer either: on a key that was just copied into place
        // it stalls on the partial stores it straddles, and map inserts
        // measured 6× slower.)
        let tail = rest.iter().rev().fold(0u64, |word, &b| (word << 8) | u64::from(b));
        self.add_to_hash(tail);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply-rotate core leaves its entropy in the high bits;
        // hashbrown (and the diff partitioner) index with the low bits, so
        // fold the halves together before handing the hash out.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A fast `HashMap` for short fixed-size keys (domain names, ids).
pub type NameMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A fast `HashSet` for short fixed-size keys.
pub type NameSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomainName;

    #[test]
    fn name_map_round_trips() {
        let mut map: NameMap<DomainName, u32> = NameMap::default();
        let a = DomainName::parse("example.com").unwrap();
        let b = DomainName::parse("a-much-longer-interned-name.example.com").unwrap();
        map.insert(a, 1);
        map.insert(b, 2);
        assert_eq!(map.get(&DomainName::parse("example.com").unwrap()), Some(&1));
        assert_eq!(
            map.get(&DomainName::parse("a-much-longer-interned-name.example.com").unwrap()),
            Some(&2)
        );
    }

    #[test]
    fn byte_string_hashing_matches_the_zero_padded_reference() {
        // `write` computes the trailing partial word without a copy; it
        // must hash exactly what padding the remainder with zeros did.
        let data: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        for len in 0..=data.len() {
            let mut fast = FxHasher::default();
            fast.write(&data[..len]);
            let mut reference = FxHasher::default();
            for chunk in data[..len].chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                reference.write_u64(u64::from_le_bytes(word));
            }
            assert_eq!(fast.finish(), reference.finish(), "length {len}");
        }
    }

    #[test]
    fn hasher_distinguishes_values() {
        use std::hash::{BuildHasher, Hash};
        let build = FxBuildHasher::default();
        let hash = |s: &str| {
            let mut h = build.build_hasher();
            DomainName::parse(s).unwrap().hash(&mut h);
            h.finish()
        };
        assert_ne!(hash("a.com"), hash("b.com"));
        assert_eq!(hash("a.com"), hash("A.com"));
    }
}
