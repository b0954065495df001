//! Seeded inputs: zones, deltas and lookup batches.
//!
//! Noise rule (d): name pools, zone sizes and delta shapes are fixed by
//! the seed and **cycle** (add a block, remove the same block), so zone
//! size, interner size and RSS do not depend on how many ops a run
//! completed. A different seed gives different names of identical
//! lengths in an identical length pattern, so every encoded frame has
//! the same size on every seed and `wire_bytes_per_op` is a property of
//! the code, not of the seed.

use darkdns_dns::diff::NsChange;
use darkdns_dns::wire::{LookupQuery, LOOKUP_ANY_TLD};
use darkdns_dns::{DomainName, NsSet, Serial, ZoneDelta, ZoneSnapshot};
use darkdns_sim::time::SimTime;

/// Hosting providers per seed; each serves a two-host NS set.
pub const PROVIDERS: usize = 16;
/// Names per lookup batch on `edge_lookup` (as `benches/edge.rs`).
pub const LOOKUP_BATCH: usize = 64;

/// Stateless 64-bit mix of `(seed, a, b)` (SplitMix64 finaliser).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn name(s: &str) -> DomainName {
    DomainName::parse(s).expect("generated names are well-formed")
}

/// The origin of shard `shard`: `t00`, `t01`, ...
pub fn origin(shard: u16) -> DomainName {
    name(&format!("t{shard:02}"))
}

/// The NS sets delegations draw from. Host names are longer than the
/// 22-byte inline form, as real provider host names are, so they live in
/// the interner.
pub fn providers(seed: u64) -> Vec<NsSet> {
    (0..PROVIDERS as u64)
        .map(|p| {
            let tag = mix(seed, 0xa5, p) as u32;
            NsSet::new(vec![
                name(&format!("ns1.p{tag:08x}.rzu-hosting.net")),
                name(&format!("ns2.p{tag:08x}.rzu-hosting.net")),
            ])
        })
        .collect()
}

/// Delegation `i` of a shard. Its leading hex digit is `i % 16`, and the
/// digit decides the length: classes `c..=f` (a quarter) are 27 bytes
/// and interned, the rest 18 bytes and inline. Sorted order therefore
/// groups equal lengths, and the length of the entry at every sorted
/// position is the same on every seed.
pub fn zone_name(seed: u64, shard: u16, i: usize) -> DomainName {
    let class = i % 16;
    let h = mix(seed, u64::from(shard), i as u64);
    if class >= 12 {
        name(&format!(
            "{class:x}{:015x}-{i:06}.t{shard:02}",
            h & ((1 << 60) - 1)
        ))
    } else {
        name(&format!(
            "{class:x}{:07x}{i:06}.t{shard:02}",
            h & ((1 << 28) - 1)
        ))
    }
}

fn provider_of(seed: u64, shard: u16, i: usize) -> usize {
    (mix(seed, 0x5eed ^ u64::from(shard), i as u64) % PROVIDERS as u64) as usize
}

/// A shard of `size` delegations at serial 0.
pub fn shard_snapshot(seed: u64, shard: u16, size: usize) -> ZoneSnapshot {
    let providers = providers(seed);
    let entries = (0..size)
        .map(|i| {
            let ns = &providers[provider_of(seed, shard, i)];
            (zone_name(seed, shard, i), ns.as_slice().to_vec())
        })
        .collect();
    ZoneSnapshot::from_entries(origin(shard), Serial::new(0), SimTime::ZERO, entries)
}

/// Name `j` of a shard's NRD block: never a zone name (zone names start
/// with a hex digit).
pub fn block_name(seed: u64, shard: u16, j: usize) -> DomainName {
    let h = mix(seed, 0xb10c ^ u64::from(shard), j as u64) & ((1 << 28) - 1);
    name(&format!("x{h:07x}{j:04}.t{shard:02}"))
}

/// The add-block / remove-block pair of one shard: `.0` adds `block`
/// fresh delegations, `.1` removes exactly those again.
pub fn block_deltas(seed: u64, shard: u16, block: usize) -> (ZoneDelta, ZoneDelta) {
    let providers = providers(seed);
    // Providers round-robin, so every block names each provider at least
    // once and the frame's name compression saves the same bytes on
    // every shard and seed.
    let mut entries: Vec<(DomainName, NsSet)> = (0..block)
        .map(|j| (block_name(seed, shard, j), providers[j % PROVIDERS].clone()))
        .collect();
    entries.sort_by_key(|entry| entry.0);
    let add = ZoneDelta {
        added: entries.clone(),
        ..ZoneDelta::default()
    };
    let remove = ZoneDelta {
        removed: entries,
        ..ZoneDelta::default()
    };
    (add, remove)
}

/// Forward / backward NS flips over `churn` evenly spaced delegations of
/// `snapshot`: churn that changes no membership and no zone size.
pub fn flip_deltas(snapshot: &ZoneSnapshot, churn: usize) -> (ZoneDelta, ZoneDelta) {
    let rotated = NsSet::new(vec![
        name("ns1.rotated.rzu-hosting.net"),
        name("ns2.rotated.rzu-hosting.net"),
    ]);
    let step = (snapshot.len() / churn).max(1);
    let mut forward = ZoneDelta::default();
    let mut backward = ZoneDelta::default();
    for i in (0..snapshot.len()).step_by(step).take(churn) {
        let domain = snapshot.domain_column()[i];
        let old = snapshot.ns_column()[i].clone();
        forward.changed.push(NsChange {
            domain,
            old_ns: old.clone(),
            new_ns: rotated.clone(),
        });
        backward.changed.push(NsChange {
            domain,
            old_ns: rotated.clone(),
            new_ns: old,
        });
    }
    (forward, backward)
}

/// One lookup batch with the answers the generator's model expects.
#[derive(Debug, Clone)]
pub struct LookupBatch {
    pub queries: Vec<LookupQuery>,
    /// Expected `present` per query (NS flips never change membership).
    pub present: Vec<bool>,
}

/// `count` batches over `shards` shards of `shard_size` delegations:
/// 7/8 per-TLD queries, 1/8 `LOOKUP_ANY_TLD`, every 13th a name that was
/// never registered — the mix of `benches/edge.rs`.
pub fn lookup_batches(seed: u64, shards: u16, shard_size: usize, count: usize) -> Vec<LookupBatch> {
    (0..count)
        .map(|b| {
            let mut batch = LookupBatch {
                queries: Vec::with_capacity(LOOKUP_BATCH),
                present: Vec::with_capacity(LOOKUP_BATCH),
            };
            for i in 0..LOOKUP_BATCH {
                let salt = mix(seed, 0x100c + b as u64, i as u64);
                let shard = (salt % u64::from(shards)) as u16;
                if i % 13 == 12 {
                    let never = name(&format!("z{:07x}{i:02}.t{shard:02}", salt >> 36));
                    batch.queries.push(LookupQuery {
                        tld: shard,
                        name: never,
                    });
                    batch.present.push(false);
                } else {
                    // The name's length class follows the query's position,
                    // so a request is the same size on every seed.
                    let idx = ((salt >> 8) % (shard_size as u64 / 16)) as usize * 16 + i % 16;
                    let tld = if i % 8 == 7 { LOOKUP_ANY_TLD } else { shard };
                    batch.queries.push(LookupQuery {
                        tld,
                        name: zone_name(seed, shard, idx),
                    });
                    batch.present.push(true);
                }
            }
            batch
        })
        .collect()
}
