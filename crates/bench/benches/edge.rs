//! B5: edge-tier query throughput under full publish cadence.
//!
//! The edge's claim is that thin-client lookups are decoupled from the
//! publish path: an [`EdgeFeed`] (an ordinary level-2 broker consumer)
//! folds every push into immutable index epochs off to the side, and
//! the query path resolves against the current epoch without taking a
//! single shard publish lock (debug builds assert exactly that on every
//! `EdgeIndex::load` via `shard_locks_held_by_current_thread`; the
//! concurrency test in `darkdns_edge::index` keeps the assertion hot —
//! this release-mode bench measures what the assertion proves).
//!
//! Two things are measured, both **while a 4-shard fleet publishes NS
//! flips at full RZU cadence** the whole time:
//!
//! * `edge/lookup-batch/64names` — one thin client's round trip for a
//!   64-query batch (encode → socket → epoch resolve → socket →
//!   decode), the Criterion-timed entry.
//! * `edge/qps/*` — the ramp driver: client fleets of 1, 2, 4 and 8
//!   connections hammer batched lookups for a fixed window each while a
//!   sampler reads the server's answered-names counter every 25 ms.
//!   Every sample is one fleet-wide queries/s observation; the p50/p99
//!   over the whole ramp's distribution land in `BENCH_pr7.json` as
//!   top-level `queries_per_sec_p50` / `queries_per_sec_p99` (p50 ≈
//!   mid-ramp steady state, p99 ≈ peak throughput at full fan-in).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use darkdns_broker::{Broker, BrokerConfig, RetentionConfig};
use darkdns_edge::{EdgeClient, EdgeConfig, EdgeFeed, EdgeIndex, EdgeIndexConfig, EdgeServer};
use darkdns_dns::diff::NsChange;
use darkdns_dns::wire::{LookupQuery, LOOKUP_ANY_TLD};
use darkdns_dns::{DomainName, NsSet, Serial, ZoneDelta, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const SHARD_SIZE: usize = 10_000;
const CHURN: usize = 200;
const BATCH: usize = 64;
const RAMP: [usize; 4] = [1, 2, 4, 8];

fn name(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

fn shard_snapshot(origin: &str, size: usize) -> ZoneSnapshot {
    let providers: Vec<NsSet> = (0..8)
        .map(|p| {
            NsSet::new(vec![
                name(&format!("ns1.provider{p}.net")),
                name(&format!("ns2.provider{p}.net")),
            ])
        })
        .collect();
    let entries = (0..size)
        .map(|i| {
            (
                name(&format!("domain-{i:09}.{origin}")),
                providers[i % providers.len()].as_slice().to_vec(),
            )
        })
        .collect();
    ZoneSnapshot::from_entries(name(origin), Serial::new(0), SimTime::ZERO, entries)
}

/// Alternating forward/backward NS flips over `churn` domains: full
/// cadence publishing that keeps the shard size constant forever.
struct FlipPublisher {
    forward: ZoneDelta,
    backward: ZoneDelta,
    serial: AtomicU32,
}

impl FlipPublisher {
    fn new(snap: &ZoneSnapshot, churn: usize) -> Self {
        let rotated = NsSet::new(vec![name("ns1.rotated.net"), name("ns2.rotated.net")]);
        let mut forward = ZoneDelta::default();
        let mut backward = ZoneDelta::default();
        let step = (snap.len() / churn).max(1);
        for i in (0..snap.len()).step_by(step).take(churn) {
            let domain = snap.domain_column()[i];
            let old = snap.ns_column()[i].clone();
            forward.changed.push(NsChange { domain, old_ns: old.clone(), new_ns: rotated.clone() });
            backward.changed.push(NsChange { domain, old_ns: rotated.clone(), new_ns: old });
        }
        FlipPublisher { forward, backward, serial: AtomicU32::new(0) }
    }

    fn next(&self) -> (ZoneDelta, Serial) {
        let s = self.serial.fetch_add(1, Ordering::Relaxed) + 1;
        let delta = if s % 2 == 1 { self.forward.clone() } else { self.backward.clone() };
        (delta, Serial::new(s))
    }
}

/// A thin client's standing batch: mostly hot names spread over the
/// shards, every eighth query an ANY-TLD scan, a few guaranteed misses.
fn lookup_batch(salt: usize) -> Vec<LookupQuery> {
    (0..BATCH)
        .map(|i| {
            let shard = (salt + i) % SHARDS;
            if i % 13 == 12 {
                LookupQuery {
                    tld: shard as u16,
                    name: name(&format!("never-registered-{salt}-{i}.example")),
                }
            } else {
                let domain = (salt * 31 + i * 97) % SHARD_SIZE;
                LookupQuery {
                    tld: if i % 8 == 7 { LOOKUP_ANY_TLD } else { shard as u16 },
                    name: name(&format!("domain-{domain:09}.tld{shard}")),
                }
            }
        })
        .collect()
}

/// Emit a non-timing metric through the bench JSON channel (the value
/// rides in `median_ns`; `scripts/bench.sh` lifts these ids into
/// dedicated top-level report fields).
fn emit_metric(id: &str, value: f64) {
    println!("{id:<48} value: {value:.1}");
    if let Ok(path) = std::env::var("DARKDNS_BENCH_JSON") {
        let json = format!(
            "{{\"id\":\"{id}\",\"median_ns\":{value:.1},\"elems\":null,\"elems_per_sec\":null}}\n"
        );
        if let Ok(mut file) =
            std::fs::OpenOptions::new().create(true).append(true).open(&path)
        {
            use std::io::Write as _;
            let _ = file.write_all(json.as_bytes());
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn bench_edge_qps(c: &mut Criterion) {
    // The serving stack: broker → edge feed → index → loopback server.
    let broker = Broker::new(BrokerConfig {
        retention: RetentionConfig::new(64, 16),
        subscriber_capacity: 1 << 16,
    });
    let tld_ids: Vec<TldId> = (0..SHARDS).map(|t| TldId(t as u16)).collect();
    let publishers: Vec<FlipPublisher> = tld_ids
        .iter()
        .map(|&tld| {
            let snap = shard_snapshot(&format!("tld{}", tld.0), SHARD_SIZE);
            let publisher = FlipPublisher::new(&snap, CHURN);
            broker.add_shard(tld, snap);
            publisher
        })
        .collect();

    let index = Arc::new(EdgeIndex::new(EdgeIndexConfig::default()));
    let mut edge_feed = EdgeFeed::subscribe(&broker, &tld_ids, Arc::clone(&index));
    let server = EdgeServer::new(
        Arc::clone(&index),
        EdgeConfig { writer_tick: Duration::from_millis(5), ..EdgeConfig::default() },
    );
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");

    // Full RZU cadence for the whole measurement: one publisher thread
    // flips every shard then yields 2 ms (~2k pushes/s fleet-wide), and
    // the feed thread folds each push into a fresh index epoch.
    let stop = Arc::new(AtomicBool::new(false));
    let publish_thread = {
        let broker = broker.clone();
        let stop = Arc::clone(&stop);
        let tld_ids = tld_ids.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for (&tld, publisher) in tld_ids.iter().zip(&publishers) {
                    let (delta, serial) = publisher.next();
                    broker.publish(tld, delta, serial, SimTime::ZERO);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let feed_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if edge_feed.pump() == 0 {
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        })
    };
    // The feed must have bootstrapped every shard before clients query.
    let bootstrap_deadline = Instant::now() + Duration::from_secs(30);
    while index.load().tlds().len() < SHARDS {
        assert!(Instant::now() < bootstrap_deadline, "edge feed never bootstrapped");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Criterion-timed entry: one client, one 64-name batch round trip,
    // publishers flipping underneath the whole time.
    let mut group = c.benchmark_group("edge");
    let queries = lookup_batch(0);
    let mut client = EdgeClient::connect_tcp(addr).expect("dial edge");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_with_input(
        BenchmarkId::new("lookup-batch", format!("{BATCH}names")),
        &(),
        |b, _| {
            b.iter(|| {
                let response = client.lookup(&queries).expect("edge lookup");
                assert_eq!(response.answers.len(), BATCH);
                response.epoch
            })
        },
    );
    group.finish();
    drop(client);

    // The qps ramp: grow the client fleet, sample fleet-wide throughput
    // off the server's answered-names counter every 25 ms.
    let window = Duration::from_millis(
        std::env::var("DARKDNS_BENCH_MS").ok().and_then(|s| s.parse().ok()).unwrap_or(1500),
    );
    let mut samples: Vec<f64> = Vec::new();
    for clients in RAMP {
        let step_stop = Arc::new(AtomicBool::new(false));
        let fleet: Vec<_> = (0..clients)
            .map(|cid| {
                let step_stop = Arc::clone(&step_stop);
                std::thread::spawn(move || {
                    let mut client = EdgeClient::connect_tcp(addr).expect("dial edge");
                    let queries = lookup_batch(cid + 1);
                    let mut batches = 0u64;
                    while !step_stop.load(Ordering::Relaxed) {
                        let response = client.lookup(&queries).expect("edge lookup");
                        assert_eq!(response.answers.len(), BATCH);
                        batches += 1;
                    }
                    batches
                })
            })
            .collect();

        let step_start = Instant::now();
        let mut step_samples: Vec<f64> = Vec::new();
        let mut last_names = server.stats().lookup_names;
        let mut last_at = Instant::now();
        while step_start.elapsed() < window {
            std::thread::sleep(Duration::from_millis(25));
            let now = Instant::now();
            let names = server.stats().lookup_names;
            let dt = now.duration_since(last_at).as_secs_f64();
            if dt > 0.0 {
                step_samples.push((names - last_names) as f64 / dt);
            }
            last_names = names;
            last_at = now;
        }
        step_stop.store(true, Ordering::Relaxed);
        let batches: u64 = fleet.into_iter().map(|h| h.join().expect("client thread")).sum();
        assert!(batches > 0, "ramp step served no batches");

        let mut sorted = step_samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        println!(
            "edge/qps ramp {clients:>2} clients: {:>10.0} qps p50 over {} samples, epoch {}",
            percentile(&sorted, 0.50),
            sorted.len(),
            index.epoch(),
        );
        samples.extend(step_samples);
    }

    stop.store(true, Ordering::Relaxed);
    publish_thread.join().expect("publisher thread");
    feed_thread.join().expect("feed thread");

    let stats = server.stats();
    assert_eq!(stats.bad_frames, 0, "thin clients must speak the protocol cleanly");
    // The fleet really published underneath the measurement: the index
    // advanced far past its bootstrap epochs.
    assert!(index.epoch() > SHARDS as u64 + RAMP.len() as u64, "publish cadence stalled");

    samples.sort_by(|a, b| a.total_cmp(b));
    emit_metric("edge/qps/queries_per_sec_p50", percentile(&samples, 0.50));
    emit_metric("edge/qps/queries_per_sec_p99", percentile(&samples, 0.99));
    server.shutdown();
}

criterion_group!(benches, bench_edge_qps);

fn main() {
    // CI smoke hook: run the qps driver alone (window scaled down via
    // DARKDNS_BENCH_MS) without paying for the rest of the suite.
    if std::env::var("DARKDNS_BENCH_ONLY").as_deref() == Ok("edge-qps") {
        let mut criterion = Criterion::default();
        bench_edge_qps(&mut criterion);
        return;
    }
    benches();
}
