//! B1: zone diff — snapshot merge vs journal.
//!
//! Diffs snapshot pairs of increasing size (10k / 100k / 500k delegations,
//! ~3% churn — a day of `.com`-like churn at reduced scale) with the
//! sorted merge and with the incremental journal. The expected shape: the
//! merge pays for the whole table; the journal answers the same question
//! in time proportional to the churn, independent of the table size —
//! which is the computational argument for RZU-style feeds.
//!
//! The `zone_apply` group is the other half of that argument: what one
//! 100-name RZU push costs to *apply* as the zone grows from 10k to 1M
//! delegations, once with the names appended past the last zone name
//! (the cheapest case, and what `rzu_bench`'s `x…` blocks do) and once
//! scattered uniformly through the sorted order (where real NRDs land),
//! plus the membership probe the edge answers from the same structure.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use darkdns_bench::synth::snapshot_pair;
use darkdns_dns::diff::{sorted_merge_diff, JournalEvent, ZoneJournal};
use darkdns_dns::{DomainName, NsSet, Serial, ZoneDelta, ZoneSnapshot};
use darkdns_sim::time::SimTime;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("zone_diff");
    for &size in &[10_000usize, 100_000, 500_000] {
        let (old, new) = snapshot_pair(size, 0.03, 7);
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::new("sorted-merge", size), &size, |b, _| {
            b.iter(|| sorted_merge_diff(&old, &new))
        });
        // The journal only replays the churn events.
        let delta = sorted_merge_diff(&old, &new);
        let mut journal = ZoneJournal::new();
        let mut serial = Serial::new(10);
        for (d, ns) in delta.added.iter() {
            serial = serial.next();
            journal.record(serial, JournalEvent::Added { domain: d.clone(), ns: ns.clone() });
        }
        for (d, ns) in delta.removed.iter() {
            serial = serial.next();
            journal.record(serial, JournalEvent::Removed { domain: d.clone(), prev_ns: ns.clone() });
        }
        for chg in delta.changed.iter() {
            serial = serial.next();
            journal.record(
                serial,
                JournalEvent::NsChanged {
                    domain: chg.domain.clone(),
                    prev_ns: chg.old_ns.clone(),
                    ns: chg.new_ns.clone(),
                },
            );
        }
        let head = journal.head().unwrap();
        group.bench_with_input(BenchmarkId::new("incremental-journal", size), &size, |b, _| {
            b.iter(|| journal.delta_between(Serial::new(10), head))
        });
    }
    group.finish();
}

fn name(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

/// `size` delegations `domain-<i>.com` over 16 shared provider sets.
fn zone(size: usize, providers: &[NsSet]) -> ZoneSnapshot {
    let entries = (0..size)
        .map(|i| (name(&format!("domain-{i:09}.com")), providers[i % providers.len()].clone()))
        .collect();
    ZoneSnapshot::from_ns_entries(name("com"), Serial::new(1), SimTime::ZERO, entries)
}

fn adds(mut added: Vec<(DomainName, NsSet)>) -> ZoneDelta {
    added.sort_by_key(|entry| entry.0);
    ZoneDelta { added, ..ZoneDelta::default() }
}

fn bench_apply(c: &mut Criterion) {
    const NAMES: usize = 100;
    let providers: Vec<NsSet> = (0..16)
        .map(|p| {
            NsSet::new(vec![
                name(&format!("ns1.provider-{p:02}.net")),
                name(&format!("ns2.provider-{p:02}.net")),
            ])
        })
        .collect();
    let mut group = c.benchmark_group("zone_apply");
    for (label, size) in [("10k", 10_000usize), ("100k", 100_000), ("1M", 1_000_000)] {
        let base = zone(size, &providers);
        // `zz…` sorts after every `domain-…`; `domain-<i>x` right after
        // zone name `i`, for 100 evenly spaced `i`.
        let tail = adds(
            (0..NAMES).map(|j| (name(&format!("zz-nrd-{j:04}.com")), providers[j % 16].clone())).collect(),
        );
        let step = size / NAMES;
        let scattered = adds(
            (0..NAMES)
                .map(|j| {
                    let i = j * step + step / 2;
                    (name(&format!("domain-{i:09}x.com")), providers[j % 16].clone())
                })
                .collect(),
        );
        group.throughput(Throughput::Elements(NAMES as u64));
        for (shape, delta) in [("apply-100-tail", &tail), ("apply-100-scattered", &scattered)] {
            group.bench_with_input(BenchmarkId::new(shape, label), &size, |b, _| {
                b.iter(|| delta.apply(&base, Serial::new(2), SimTime::from_secs(300)))
            });
        }
        if size == 100_000 {
            // Half hits, half misses, spread over the whole zone.
            let probes: Vec<DomainName> = (0..1024usize)
                .map(|q| {
                    let i = q * 97 % size;
                    name(&format!("domain-{i:09}{}.com", if q % 2 == 0 { "" } else { "q" }))
                })
                .collect();
            group.throughput(Throughput::Elements(probes.len() as u64));
            group.bench_with_input(BenchmarkId::new("contains", label), &size, |b, _| {
                b.iter(|| probes.iter().filter(|p| base.contains(p)).count())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_apply);

fn main() {
    // CI smoke hook: the apply sweep alone, so it cannot rot, without
    // paying for the 500k-entry diff race.
    if std::env::var("DARKDNS_BENCH_ONLY").as_deref() == Ok("zone-apply") {
        bench_apply(&mut Criterion::default());
        return;
    }
    benches();
}
