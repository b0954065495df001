//! B6: tiered fan-out — relay-tree latency, per-link bytes, and chunked
//! 500k-checkpoint catch-up.
//!
//! The relay tier's claim is that encode-once survives depth: a delta
//! crosses every tier of a root → relay → … → leaf chain as the same
//! refcount-shared `RZU3` bytes, so adding a tier costs one socket hop
//! of latency and one link of bandwidth — never a re-encode. Measured
//! here over loopback TCP chains of depth 1, 2 and 3:
//!
//! * `relay/publish-to-leaf/depthN` — the Criterion-timed entry: one
//!   publish at the root until the leaf view has applied the delta and
//!   surfaced its added domains as zone-NRD candidates. `scripts/
//!   bench.sh` derives the depth-2/depth-1 and depth-3/depth-1 ratios.
//! * `relay/bytes/per_delta_per_link_depthN` — gauge: mean wire bytes
//!   per delta per link, counted by a wrapper around every inter-tier
//!   connection. Verbatim re-serve makes this flat across depths (the
//!   bench asserts the depth-3 links agree with each other).
//! * `relay/filtered/*` — gauges: total upstream-link bytes carried by
//!   a **shard-filtered** relay subscribing to 1 of 10 TLDs vs a full
//!   mirror of the same root under the same published workload. The
//!   HELLO's claim set is a wire-level shard filter,
//!   so the subset link's share tracks its shard share (~10%).
//! * `relay/drain/handoff_ns_p50` — gauge: median latency of a planned
//!   replica drain through `RoutedZoneView::apply_endpoint_update`,
//!   measured from the generation-bumped map landing to a sentinel
//!   publish arriving through the successor replica (handoff plus
//!   claim-carrying catch-up, no resync).
//! * `relay/catchup-500k/chunked-codec` — the cold catch-up codec:
//!   decoding a 500k-delegation checkpoint as the train of 1 MiB
//!   `RZUC` chunks the transport ships and reassembling it. Gauges:
//!   chunk count and chunked entries/s.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use darkdns_broker::transport::{
    tcp_connect, Bytes, FrameConn, TransportClient, TransportError,
};
use darkdns_broker::{Broker, BrokerConfig, BrokerServer, TransportConfig};
use darkdns_core::broker_view::{EndpointMap, RemoteZoneView, RoutedZoneView};
use darkdns_dns::snapshot::SnapshotBuilder;
use darkdns_dns::wire::{decode_snapshot_chunk, encode_snapshot_chunks};
use darkdns_dns::{DomainName, NsSet, Serial, ZoneDelta, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TLD: TldId = TldId(0);
const SHARD_SIZE: usize = 10_000;
/// Domains added by a forward delta (and removed by the backward one).
const BLOCK: usize = 100;

fn name(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

fn shard_snapshot(size: usize) -> ZoneSnapshot {
    let entries = (0..size)
        .map(|i| {
            (
                name(&format!("domain-{i:09}.com")),
                vec![name(&format!("ns1.provider{}.net", i % 8))],
            )
        })
        .collect();
    ZoneSnapshot::from_entries(name("com"), Serial::new(0), SimTime::ZERO, entries)
}

/// Forward/backward block publisher: odd serials add `BLOCK` fresh
/// domains (each a zone-NRD candidate at the leaf), even serials remove
/// them again, so the zone size stays bounded forever.
struct BlockPublisher {
    forward: ZoneDelta,
    backward: ZoneDelta,
    serial: u32,
}

impl BlockPublisher {
    fn new() -> Self {
        let ns = NsSet::new(vec![name("ns1.rotated.net")]);
        let mut forward = ZoneDelta::default();
        let mut backward = ZoneDelta::default();
        for i in 0..BLOCK {
            let domain = name(&format!("nrd-block-{i:04}.com"));
            forward.added.push((domain.clone(), ns.clone()));
            backward.removed.push((domain, ns.clone()));
        }
        BlockPublisher { forward, backward, serial: 0 }
    }

    fn publish_next(&mut self, broker: &Broker) -> Serial {
        self.serial += 1;
        let delta =
            if self.serial % 2 == 1 { self.forward.clone() } else { self.backward.clone() };
        broker.publish(TLD, delta, Serial::new(self.serial), SimTime::ZERO);
        Serial::new(self.serial)
    }
}

/// A [`FrameConn`] wrapper counting wire bytes received (payload plus
/// the 4-byte length prefix) — one per inter-tier link, so the bench
/// can report real per-link bandwidth instead of deriving it.
struct CountingConn<C> {
    inner: C,
    rx: Arc<AtomicU64>,
}

impl<C: FrameConn> FrameConn for CountingConn<C> {
    fn send_frame(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.inner.send_frame(parts)
    }

    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> Result<(), TransportError> {
        self.inner.send_frames(frames)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let frame = self.inner.recv_frame()?;
        self.rx.fetch_add(4 + frame.len() as u64, Ordering::Relaxed);
        Ok(frame)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_recv_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_send_timeout(timeout)
    }
}

fn server_over(broker: &Broker) -> BrokerServer {
    let config = TransportConfig {
        writer_tick: Duration::from_millis(1),
        ..TransportConfig::default()
    };
    BrokerServer::new(broker.clone(), config)
}

/// A loopback-TCP relay chain of `depth` hops: the root server, then
/// `depth - 1` relays each attached upstream to the previous tier. Every
/// inter-tier link (including the leaf's) counts its received bytes.
struct Chain {
    root: Broker,
    servers: Vec<BrokerServer>,
    addrs: Vec<SocketAddr>,
    link_rx: Vec<Arc<AtomicU64>>,
}

impl Chain {
    fn build(depth: usize) -> Chain {
        assert!(depth >= 1);
        let root = Broker::new(BrokerConfig::default());
        root.add_shard(TLD, shard_snapshot(SHARD_SIZE));
        let root_server = server_over(&root);
        let mut chain = Chain {
            root,
            addrs: vec![root_server.listen_tcp("127.0.0.1:0").expect("bind root")],
            servers: vec![root_server],
            link_rx: Vec::new(),
        };
        for _ in 1..depth {
            let upstream = *chain.addrs.last().expect("chain is never empty");
            let rx = Arc::new(AtomicU64::new(0));
            let link = Arc::clone(&rx);
            let broker = Broker::new(BrokerConfig::default());
            let server = server_over(&broker);
            let relay = server.attach_upstream(vec![TLD], move || {
                let conn = tcp_connect(upstream).map_err(TransportError::Io)?;
                Ok(Box::new(CountingConn { inner: conn, rx: Arc::clone(&link) }))
            });
            // The next tier can only subscribe once this one knows the
            // shard — wait for the bootstrap snapshot to land.
            let deadline = Instant::now() + Duration::from_secs(30);
            while relay.stats().snapshots_installed == 0 {
                assert!(Instant::now() < deadline, "relay never bootstrapped");
                std::thread::yield_now();
            }
            chain.addrs.push(server.listen_tcp("127.0.0.1:0").expect("bind relay"));
            chain.servers.push(server);
            chain.link_rx.push(rx);
        }
        chain
    }

    /// Dial a leaf view against the last tier, counting its link too.
    fn leaf(&mut self) -> RemoteZoneView<
        impl FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError>,
    > {
        let addr = *self.addrs.last().expect("chain is never empty");
        let rx = Arc::new(AtomicU64::new(0));
        self.link_rx.push(Arc::clone(&rx));
        let view = RemoteZoneView::connect(&[TLD], move |claims| {
            let conn = tcp_connect(addr).map_err(TransportError::Io)?;
            let mut conn = CountingConn { inner: conn, rx: Arc::clone(&rx) };
            conn.set_recv_timeout(Some(Duration::from_millis(1)))?;
            TransportClient::connect(conn, claims)
        })
        .expect("leaf connect");
        view
    }

    fn shutdown(self) {
        // Leaf-to-root, so no tier redials a vanished upstream.
        for server in self.servers.into_iter().rev() {
            server.shutdown();
        }
    }
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

fn bench_depth_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("relay");
    let mut per_link_bytes = Vec::new();
    for depth in [1usize, 2, 3] {
        let mut chain = Chain::build(depth);
        let mut leaf = chain.leaf();
        assert!(
            leaf.pump_until_serials(&[(TLD, Serial::new(0))], Duration::from_secs(30)),
            "leaf never bootstrapped at depth {depth}"
        );
        let mut publisher = BlockPublisher::new();
        let mut nrds = Vec::new();
        // Byte accounting starts after every tier has bootstrapped, so
        // the window holds only the delta stream (plus heartbeats).
        let rx_start: Vec<u64> =
            chain.link_rx.iter().map(|rx| rx.load(Ordering::Relaxed)).collect();
        let serial_start = publisher.serial;
        group.bench_with_input(
            BenchmarkId::new("publish-to-leaf", format!("depth{depth}")),
            &depth,
            |b, _| {
                b.iter(|| {
                    let target = publisher.publish_next(&chain.root);
                    assert!(
                        leaf.pump_until_serials(&[(TLD, target)], Duration::from_secs(30)),
                        "delta never reached the leaf"
                    );
                    // Surface the zone-NRD candidates this delta added
                    // (empty on removal halves) — the consumer-visible
                    // end of the publish→edge-candidate path.
                    leaf.view_mut().drain_new_domains(&mut nrds);
                    nrds.clear();
                })
            },
        );
        let deltas = u64::from(publisher.serial - serial_start);
        let link_bytes: Vec<u64> = chain
            .link_rx
            .iter()
            .zip(&rx_start)
            .map(|(rx, start)| rx.load(Ordering::Relaxed) - start)
            .collect();
        let mean = link_bytes.iter().sum::<u64>() as f64 / link_bytes.len() as f64;
        if depth == 3 {
            // The verbatim-re-serve pin, in bandwidth form: every link
            // of the chain carried (within heartbeat noise) the same
            // bytes for the same deltas.
            for bytes in &link_bytes {
                let diff = (*bytes as f64 - mean).abs();
                assert!(
                    diff / mean < 0.05,
                    "per-link bytes diverged across tiers: {link_bytes:?}"
                );
            }
        }
        assert_eq!(leaf.view().resync_count(), 0, "a clean chain never resyncs");
        per_link_bytes.push((depth, mean / deltas as f64));
        chain.shutdown();
    }
    group.finish();
    for (depth, bytes) in per_link_bytes {
        emit_metric(&format!("relay/bytes/per_delta_per_link_depth{depth}"), bytes);
    }
}

fn bench_chunked_catchup(c: &mut Criterion) {
    let entries: usize = std::env::var("DARKDNS_BENCH_CATCHUP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000);
    let snap = shard_snapshot(entries);
    let chunks = encode_snapshot_chunks(0, &snap, 0, 1 << 20);
    emit_metric("relay/catchup-500k/chunks", chunks.len() as f64);

    let mut group = c.benchmark_group("relay");
    group.throughput(Throughput::Elements(entries as u64));
    // What `TransportClient` does with a train: decode each chunk and
    // append it to the builder as it arrives.
    let assemble = || {
        let mut assembled = SnapshotBuilder::default();
        for frame in &chunks {
            let chunk = decode_snapshot_chunk(frame).expect("decode chunk");
            assert_eq!(chunk.offset as usize, assembled.len());
            assembled.append(chunk.entries).expect("an encoder's train ascends");
        }
        assembled.finish(name("com"), snap.serial(), snap.taken_at())
    };
    group.bench_with_input(BenchmarkId::new("catchup-500k", "chunked-codec"), &(), |b, _| {
        b.iter(|| {
            let decoded = assemble();
            assert_eq!(decoded.len(), entries);
            decoded.serial()
        })
    });
    group.finish();

    // The chunked entries/s gauge, measured once outside Criterion so
    // the report carries an absolute number next to the ratio.
    let start = Instant::now();
    let snapshot = assemble();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(snapshot.len(), entries);
    emit_metric("relay/catchup-500k/chunked_entries_per_sec", entries as f64 / secs);
}

/// Per-link bandwidth of a shard-filtered relay vs a full mirror.
///
/// One root carries `FILTER_FLEET` equal-churn TLD shards; a filtered
/// relay attaches upstream claiming exactly one shard (a 10% subset)
/// while a mirror relay claims all of them. Both upstream links count
/// their received bytes across the same published workload, so the
/// subset link's share is a direct wire-level measurement of what the
/// claims-as-shard-filter saves — no timing, pure accounting.
fn bench_filtered_links(_c: &mut Criterion) {
    const FILTER_FLEET: usize = 10;
    const ROUNDS: u32 = 50;
    let tlds: Vec<TldId> = (0..FILTER_FLEET).map(|t| TldId(t as u16)).collect();
    let root = Broker::new(BrokerConfig::default());
    for &tld in &tlds {
        let snap = ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(0),
            SimTime::ZERO,
            (0..1000)
                .map(|i| (name(&format!("seed-{}-{i:06}.com", tld.0)), vec![name("ns1.seed.net")]))
                .collect(),
        );
        root.add_shard(tld, snap);
    }
    let root_server = server_over(&root);
    let root_addr = root_server.listen_tcp("127.0.0.1:0").expect("bind root");

    let attach = |subset: Vec<TldId>| {
        let rx = Arc::new(AtomicU64::new(0));
        let link = Arc::clone(&rx);
        let server = server_over(&Broker::new(BrokerConfig::default()));
        let expect = subset.len() as u64;
        let relay = server.attach_upstream(subset, move || {
            let conn = tcp_connect(root_addr).map_err(TransportError::Io)?;
            Ok(Box::new(CountingConn { inner: conn, rx: Arc::clone(&link) }) as _)
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while relay.stats().snapshots_installed < expect {
            assert!(Instant::now() < deadline, "relay never bootstrapped");
            std::thread::yield_now();
        }
        (server, relay, rx)
    };
    let (mirror_server, mirror, rx_mirror) = attach(tlds.clone());
    let (subset_server, subset, rx_subset) = attach(vec![TldId(0)]);

    // Count only the delta stream: both relays have bootstrapped, so
    // from here each push crosses the mirror link once and the subset
    // link only when it belongs to the subscribed shard.
    let mirror_start = rx_mirror.load(Ordering::Relaxed);
    let subset_start = rx_subset.load(Ordering::Relaxed);
    let ns = NsSet::new(vec![name("ns1.rotated.net")]);
    for round in 1..=ROUNDS {
        for &tld in &tlds {
            let mut delta = ZoneDelta::default();
            for i in 0..BLOCK {
                delta.added.push((name(&format!("nrd-{}-{round}-{i:04}.com", tld.0)), ns.clone()));
            }
            root.publish(tld, delta, Serial::new(round), SimTime::ZERO);
        }
    }
    let pushes = u64::from(ROUNDS) * FILTER_FLEET as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while mirror.stats().frames_relayed < pushes
        || subset.stats().frames_relayed < u64::from(ROUNDS)
    {
        assert!(Instant::now() < deadline, "relays never absorbed the churn");
        std::thread::yield_now();
    }
    let mirror_bytes = rx_mirror.load(Ordering::Relaxed) - mirror_start;
    let subset_bytes = rx_subset.load(Ordering::Relaxed) - subset_start;
    let share = subset_bytes as f64 / mirror_bytes as f64;
    // The wire-level point of the shard filter: the subset link's bytes
    // track its shard share (10%), with slack for heartbeat noise.
    assert!(share < 0.2, "a 10% shard subset carried {share:.2} of the mirror link");
    emit_metric("relay/filtered/full_mirror_link_bytes", mirror_bytes as f64);
    emit_metric("relay/filtered/subset10_link_bytes", subset_bytes as f64);
    emit_metric("relay/filtered/subset_share", share);
    subset_server.shutdown();
    mirror_server.shutdown();
    root_server.shutdown();
}

/// Median planned-drain handoff latency through a routed view.
///
/// Two loopback-TCP replicas serve one root; each round drains the
/// replica the route is connected to with a generation-bumped
/// [`EndpointMap`] and measures how long until a sentinel publish lands
/// through the successor — the full claim-carrying handoff, which by
/// the drain contract involves no resync and no re-bootstrap. The next
/// round adds the drained replica back and drains the other.
fn bench_drain_latency(_c: &mut Criterion) {
    const SAMPLES: usize = 21;
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(TLD, shard_snapshot(1000));
    let servers = [server_over(&root), server_over(&root)];
    let addrs: Vec<SocketAddr> =
        servers.iter().map(|s| s.listen_tcp("127.0.0.1:0").expect("bind replica")).collect();
    let mut map: EndpointMap<SocketAddr> = EndpointMap::new();
    map.add_route(vec![TLD], addrs.clone());
    let mut view = RoutedZoneView::connect(map.clone(), |addr: &SocketAddr| {
        let mut conn = tcp_connect(*addr).map_err(TransportError::Io)?;
        conn.set_recv_timeout(Some(Duration::from_millis(1)))?;
        Ok(Box::new(conn) as _)
    })
    .expect("routed connect");
    assert!(view.pump_until_serials(&[(TLD, Serial::new(0))], Duration::from_secs(30)));

    let mut serial = 0u32;
    let mut samples_ns: Vec<u64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        // The route reconnects to the drain's survivor (replica 0) and
        // an added replica never disturbs the live connection, so the
        // connected replica is index 0 every round: drain it.
        let drained = map.remove_replica(0, 0);
        let start = Instant::now();
        assert!(view.apply_endpoint_update(map.clone()), "generation must advance");
        serial += 1;
        let mut delta = ZoneDelta::default();
        delta.added.push((name(&format!("drain-sentinel-{serial:04}.com")), NsSet::new(vec![name("ns1.rotated.net")])));
        root.publish(TLD, delta, Serial::new(serial), SimTime::ZERO);
        assert!(
            view.pump_until_serials(&[(TLD, Serial::new(serial))], Duration::from_secs(30)),
            "sentinel never arrived through the successor"
        );
        samples_ns.push(start.elapsed().as_nanos() as u64);
        map.add_replica(0, drained);
        assert!(view.apply_endpoint_update(map.clone()));
    }
    assert_eq!(view.drains_completed(), SAMPLES as u64, "every round was a clean drain");
    assert_eq!(view.view().resync_count(), 0, "a planned drain never resyncs");
    samples_ns.sort_unstable();
    emit_metric("relay/drain/handoff_ns_p50", samples_ns[samples_ns.len() / 2] as f64);
    for server in servers {
        server.shutdown();
    }
}

criterion_group!(
    benches,
    bench_depth_latency,
    bench_filtered_links,
    bench_drain_latency,
    bench_chunked_catchup
);

fn main() {
    benches();
}
