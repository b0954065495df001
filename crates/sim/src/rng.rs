//! Named deterministic random-number streams.
//!
//! Every component in the reproduction (workload generator, CA latency
//! model, RDAP failure injector, ...) obtains its own [`rand::rngs::SmallRng`]
//! from an [`RngPool`] keyed by a stable string name. Two properties follow:
//!
//! 1. **Reproducibility** — the same master seed always produces the same
//!    experiment output, independent of iteration order elsewhere.
//! 2. **Insulation** — adding a new consumer of randomness (e.g. a new
//!    blocklist) does not perturb the streams of existing components,
//!    because each stream's seed depends only on the master seed and the
//!    component's own name, not on how many draws other components made.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a 64-bit hash. Used only for seed derivation (not security); chosen
/// because it is stable across platforms and dependency versions, unlike
/// `std::hash::DefaultHasher` whose output is explicitly unspecified.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derives independent, reproducible RNG streams from one master seed.
#[derive(Debug, Clone, Copy)]
pub struct RngPool {
    master_seed: u64,
}

impl RngPool {
    pub fn new(master_seed: u64) -> Self {
        RngPool { master_seed }
    }

    /// Derive the seed for the stream named `name`.
    fn seed_for(&self, name: &str) -> u64 {
        // SplitMix64 finalizer over (hash(name) ^ master) gives good
        // avalanche even for similar names like "tld.com" / "tld.net".
        let mut z = fnv1a(name.as_bytes()) ^ self.master_seed.rotate_left(32);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A fresh deterministic RNG for the stream named `name`.
    pub fn stream(&self, name: &str) -> SmallRng {
        SmallRng::seed_from_u64(self.seed_for(name))
    }

    /// A fresh RNG for a stream identified by a name plus an index, e.g. one
    /// stream per simulated day or per worker.
    pub fn indexed_stream(&self, name: &str, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed_for(name) ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_name_same_stream() {
        let pool = RngPool::new(42);
        let a: Vec<u32> = pool.stream("x").sample_iter(rand::distributions::Standard).take(8).collect();
        let b: Vec<u32> = pool.stream("x").sample_iter(rand::distributions::Standard).take(8).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_different_streams() {
        let pool = RngPool::new(42);
        let a: u64 = pool.stream("registry").gen();
        let b: u64 = pool.stream("ct").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_master_seeds_differ() {
        let a: u64 = RngPool::new(1).stream("x").gen();
        let b: u64 = RngPool::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn similar_names_are_decorrelated() {
        let pool = RngPool::new(7);
        let mut seeds = std::collections::HashSet::new();
        for name in ["tld.com", "tld.con", "tld.co", "tld.comm", "tld.net"] {
            assert!(seeds.insert(pool.seed_for(name)), "seed collision for {name}");
        }
    }

    #[test]
    fn indexed_streams_are_independent() {
        let pool = RngPool::new(9);
        let a: u64 = pool.indexed_stream("day", 0).gen();
        let b: u64 = pool.indexed_stream("day", 1).gen();
        let a2: u64 = pool.indexed_stream("day", 0).gen();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
