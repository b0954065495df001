//! B4: RZU distribution broker — fan-out, cold catch-up, per-shard
//! concurrent publishing, and socket delivery.
//!
//! Four claims are measured:
//!
//! * **Fan-out amortises serialization.** Pushing one delta to 1k
//!   subscribers costs one wire encode plus 1k refcount-shared queue
//!   pushes (`broker/fanout-shared/*`). The baseline
//!   (`broker/fanout-encode-per-sub/*`) re-encodes the frame once per
//!   subscriber, which is what a naive per-connection serializer would
//!   do. The shared path must win by ≥5×.
//! * **Checkpoints beat full-journal replay for cold catch-up.** A
//!   subscriber bootstrapping a 500k-delegation shard from the latest
//!   checkpoint decodes and applies only the post-checkpoint deltas
//!   (`broker/catchup-checkpoint/500000`); replaying the full sealed
//!   history from the shard's starting snapshot
//!   (`broker/catchup-full-replay/500000`) pays one O(n) apply per
//!   retained delta.
//! * **Per-shard locks unlock concurrent publishing.** M publisher
//!   threads pushing M disjoint TLDs
//!   (`broker/concurrent-publish/per-shard/*`) never share a mutex; the
//!   baseline (`broker/concurrent-publish/global-lock/*`) serialises the
//!   same workload through one outer lock, which is exactly what the
//!   pre-refactor `Mutex<ShardedJournal>` broker did. Per-shard must be
//!   no slower single-threaded and scale with shards when cores allow
//!   (on a 1-core container the two paths converge; the win is the
//!   absence of cross-shard serialisation, pinned by the contention
//!   counters in the broker's tests).
//! * **The reactor serves socket fan-out from one thread.** One publish
//!   reaching 8 loopback-TCP subscribers end-to-end (publish → shard
//!   fan-out → reactor queue→ring transfer → socket → client decode,
//!   `broker/tcp-fanout/notify-wakeup/8subs` — the id survives from the
//!   writer-thread era for cross-PR comparability; the wakeup is now
//!   the reactor's eventfd). And the scale case the thread-per-
//!   subscriber transport could never run: the same end-to-end round
//!   trip against **10,000** loopback subscribers
//!   (`broker/tcp-fanout-10k/*`), all served by a single reactor
//!   thread. The client fleet lives in a child process (two fds per
//!   loopback connection would bust the container's `RLIMIT_NOFILE`
//!   hard cap in one process); alongside the latency the bench records
//!   `broker/tcp-fanout-10k/threads` (must stay 1, vs ~2×N before) and
//!   `broker/tcp-fanout-10k/bytes_per_conn` (server-side RSS growth per
//!   accepted subscriber).
//! * **The pipeline substrate is end-to-end cheap.** Publish→zone-NRD-
//!   candidate-emitted latency through the `ZoneMembership` consumer
//!   surface, in-process (`broker/detect-latency/inproc`) vs over
//!   loopback TCP (`broker/detect-latency/tcp`): the derived ratio is
//!   what the socket costs the detection pipeline per push.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use darkdns_broker::transport::{
    tcp_connect, ClientEvent, FrameConn, LengthPrefixed, TransportClient,
};
use darkdns_broker::{
    Broker, BrokerConfig, BrokerMessage, BrokerServer, RetentionConfig,
    TransportConfig,
};
use darkdns_core::broker_view::{BrokerZoneView, RemoteZoneView};
use darkdns_dns::wire::{encode_delta_push, encode_hello, HelloFrame, TldClaim};
use darkdns_dns::{decode_delta_push, DomainName, NsSet, Serial, ZoneDelta, ZoneSnapshot};
use darkdns_dns::diff::NsChange;
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn name(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

/// A shard snapshot of `size` delegations spread over `providers` NS sets.
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

/// An NS-flip delta over `churn` domains of `snap`: forward rotates the
/// delegations onto a fresh host, backward restores them. Publishing
/// forward then backward keeps the shard size constant forever.
fn flip_deltas(snap: &ZoneSnapshot, churn: usize) -> (ZoneDelta, ZoneDelta) {
    let rotated = NsSet::new(vec![name("ns1.rotated.net"), name("ns2.rotated.net")]);
    let mut forward = ZoneDelta::default();
    let mut backward = ZoneDelta::default();
    let step = (snap.len() / churn).max(1);
    for i in (0..snap.len()).step_by(step).take(churn) {
        let domain = snap.domain_column()[i];
        let old = snap.ns_column()[i].clone();
        forward.changed.push(NsChange {
            domain,
            old_ns: old.clone(),
            new_ns: rotated.clone(),
        });
        backward.changed.push(NsChange { domain, old_ns: rotated.clone(), new_ns: old });
    }
    (forward, backward)
}

/// Alternate forward/backward flips with ever-increasing serials.
/// `Sync` (atomic serial) so per-shard publishers can run on scoped
/// threads; each shard still has exactly one publisher at a time.
struct FlipPublisher {
    forward: ZoneDelta,
    backward: ZoneDelta,
    serial: AtomicU32,
}

impl FlipPublisher {
    fn new(snap: &ZoneSnapshot, churn: usize) -> Self {
        let (forward, backward) = flip_deltas(snap, churn);
        FlipPublisher { forward, backward, serial: AtomicU32::new(0) }
    }

    fn next(&self) -> (ZoneDelta, Serial) {
        let s = self.serial.fetch_add(1, Ordering::Relaxed) + 1;
        let delta = if s % 2 == 1 { self.forward.clone() } else { self.backward.clone() };
        (delta, Serial::new(s))
    }
}

fn fanout_broker(tlds: usize, subs_per_tld: usize, shard_size: usize) -> (Broker, Vec<TldId>) {
    let broker = Broker::new(BrokerConfig {
        retention: RetentionConfig::new(64, 16),
        // Small bound + Lag: queues saturate and stay flat, so steady-
        // state publish cost is measured, not queue growth.
        subscriber_capacity: 8,
    });
    let mut ids = Vec::with_capacity(tlds);
    for t in 0..tlds {
        let tld = TldId(t as u16);
        broker.add_shard(tld, shard_snapshot(&format!("tld{t}"), shard_size));
        ids.push(tld);
    }
    let mut handles = Vec::with_capacity(tlds * subs_per_tld);
    for &tld in &ids {
        for _ in 0..subs_per_tld {
            handles.push(broker.subscribe(&[tld], Some(Serial::new(0))));
        }
    }
    // Keep the subscriptions alive for the broker's lifetime.
    std::mem::forget(handles);
    (broker, ids)
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker");
    const CHURN: usize = 1_000;

    // 1 TLD × 1000 subscribers: one publish = one encode + 1000 shares.
    let (broker, ids) = fanout_broker(1, 1_000, 10_000);
    let publisher = FlipPublisher::new(&broker.head(ids[0]).unwrap(), CHURN);
    group.throughput(Throughput::Elements(1_000));
    group.bench_with_input(BenchmarkId::new("fanout-shared", "1tld-1000subs"), &(), |b, _| {
        b.iter(|| {
            let (delta, serial) = publisher.next();
            broker.publish(ids[0], delta, serial, SimTime::ZERO)
        })
    });

    // Baseline: what fan-out costs if every subscriber gets its own
    // encode of the same delta (no shared frames).
    let (forward, _) = flip_deltas(&broker.head(ids[0]).unwrap(), CHURN);
    group.bench_with_input(
        BenchmarkId::new("fanout-encode-per-sub", "1tld-1000subs"),
        &(),
        |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for _ in 0..1_000 {
                    total += encode_delta_push(
                        &name("tld0"),
                        Serial::new(0),
                        Serial::new(1),
                        SimTime::ZERO,
                        &forward,
                    )
                    .len();
                }
                total
            })
        },
    );

    // 10 TLDs × 100 subscribers: the sharded layout at the same total
    // subscriber count; one iteration publishes one push per shard.
    let (broker10, ids10) = fanout_broker(10, 100, 10_000);
    let publishers: Vec<FlipPublisher> = ids10
        .iter()
        .map(|&tld| FlipPublisher::new(&broker10.head(tld).unwrap(), CHURN / 10))
        .collect();
    group.throughput(Throughput::Elements(1_000));
    group.bench_with_input(BenchmarkId::new("fanout-shared", "10tld-100subs"), &(), |b, _| {
        b.iter(|| {
            for (&tld, publisher) in ids10.iter().zip(&publishers) {
                let (delta, serial) = publisher.next();
                broker10.publish(tld, delta, serial, SimTime::ZERO);
            }
        })
    });
    group.finish();
}

/// M publisher threads, M disjoint shards, K pushes each per iteration.
/// `global_lock` serialises every publish through one outer mutex — the
/// shape of the pre-refactor broker, measured in-run as the baseline.
fn run_concurrent_publish(
    broker: &Broker,
    ids: &[TldId],
    publishers: &[FlipPublisher],
    pushes_per_shard: u32,
    global_lock: Option<&Mutex<()>>,
) {
    std::thread::scope(|scope| {
        for (&tld, publisher) in ids.iter().zip(publishers) {
            scope.spawn(move || {
                for _ in 0..pushes_per_shard {
                    let (delta, serial) = publisher.next();
                    match global_lock {
                        Some(lock) => {
                            let _held = lock.lock();
                            broker.publish(tld, delta, serial, SimTime::ZERO);
                        }
                        None => {
                            broker.publish(tld, delta, serial, SimTime::ZERO);
                        }
                    }
                }
            });
        }
    });
}

fn bench_concurrent_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker");
    const CHURN: usize = 250;
    const PUSHES_PER_SHARD: u32 = 8;
    for shards in [4usize, 8] {
        let (broker, ids) = fanout_broker(shards, 50, 10_000);
        let publishers: Vec<FlipPublisher> = ids
            .iter()
            .map(|&tld| FlipPublisher::new(&broker.head(tld).unwrap(), CHURN))
            .collect();
        let label = format!("{shards}shards-{shards}threads");
        group.throughput(Throughput::Elements(shards as u64 * u64::from(PUSHES_PER_SHARD)));
        group.bench_with_input(
            BenchmarkId::new("concurrent-publish/per-shard", &label),
            &(),
            |b, _| {
                b.iter(|| run_concurrent_publish(&broker, &ids, &publishers, PUSHES_PER_SHARD, None))
            },
        );
        let global = Mutex::new(());
        group.bench_with_input(
            BenchmarkId::new("concurrent-publish/global-lock", &label),
            &(),
            |b, _| {
                b.iter(|| {
                    run_concurrent_publish(&broker, &ids, &publishers, PUSHES_PER_SHARD, Some(&global))
                })
            },
        );
        // The acceptance pin holds under the bench workload too: one
        // publisher per shard on the per-shard path never contends.
        // (Contention from the global-lock runs shows up on the outer
        // mutex, not the shard locks.)
        for stats in broker.all_shard_stats() {
            assert_eq!(stats.lock_contentions, 0, "unexpected shard contention in bench");
        }
    }
    group.finish();
}

/// Loopback-TCP fan-out: one publish must reach all 8 socket
/// subscribers end-to-end. The benchmark id keeps its writer-thread-era
/// name (`notify-wakeup`) so the floor in BENCH_pr5.json stays directly
/// comparable; the wakeup today is the subscriber queue's waker
/// callback poking the reactor's eventfd. One iteration = publish one
/// delta + wait until every subscriber has decoded it off its socket.
fn bench_tcp_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker");
    const SUBS: usize = 8;
    const CHURN: usize = 200;
    // Stall bound for any single wait (handshake or one fan-out
    // round-trip) — deliberately per-wait, not a shared timestamp, so a
    // large DARKDNS_BENCH_MS sampling budget cannot expire it.
    const STALL: Duration = Duration::from_secs(60);
    {
        let label = "tcp-fanout/notify-wakeup";
        let broker = Broker::new(BrokerConfig {
            retention: RetentionConfig::new(64, 16),
            subscriber_capacity: 4096,
        });
        let tld = TldId(0);
        broker.add_shard(tld, shard_snapshot("com", 10_000));
        let server = BrokerServer::new(
            broker.clone(),
            TransportConfig {
                writer_tick: Duration::from_millis(20),
                ..TransportConfig::default()
            },
        );
        let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");

        // Subscriber threads: decode every delta envelope off the
        // socket and publish the reached serial.
        let received: Arc<Vec<AtomicU32>> =
            Arc::new((0..SUBS).map(|_| AtomicU32::new(0)).collect());
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..SUBS)
            .map(|i| {
                let received = Arc::clone(&received);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let stream = std::net::TcpStream::connect(addr).expect("dial");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut conn = LengthPrefixed::new(stream);
                    conn.set_recv_timeout(Some(Duration::from_millis(20))).expect("timeout");
                    let mut client = TransportClient::connect(conn, &[(tld, Some(Serial::new(0)))])
                        .expect("hello");
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        match client.next_event() {
                            ClientEvent::Delta { push, .. } => {
                                received[i].store(push.to_serial.get(), Ordering::Release);
                            }
                            ClientEvent::Snapshot { .. } | ClientEvent::Idle => {}
                            ClientEvent::Closed(_) => return,
                        }
                    }
                })
            })
            .collect();
        let connect_deadline = Instant::now() + STALL;
        while server.stats().handshakes < SUBS as u64 {
            assert!(Instant::now() < connect_deadline, "tcp subscribers never connected");
            std::thread::yield_now();
        }

        let publisher = FlipPublisher::new(&broker.head(tld).unwrap(), CHURN);
        group.throughput(Throughput::Elements(SUBS as u64));
        group.bench_with_input(BenchmarkId::new(label, format!("{SUBS}subs")), &(), |b, _| {
            b.iter(|| {
                let (delta, serial) = publisher.next();
                broker.publish(tld, delta, serial, SimTime::ZERO);
                let target = serial.get();
                let round_deadline = Instant::now() + STALL;
                for slot in received.iter() {
                    while slot.load(Ordering::Acquire) < target {
                        assert!(Instant::now() < round_deadline, "a tcp subscriber stalled");
                        std::thread::yield_now();
                    }
                }
            })
        });
        stop.store(true, Ordering::Relaxed);
        server.shutdown();
        for client in clients {
            let _ = client.join();
        }
    }
    group.finish();
}

/// End-to-end detection latency: publish a delta adding `BATCH` fresh
/// domains and time until the pipeline's zone view has applied it and
/// emitted the domains as zone-NRD candidates (the Table-1 "Zone NRD"
/// population, drained via `drain_new_domains`), then remove them again
/// so the shard size stays constant. `inproc` consumes through a
/// `BrokerZoneView` (publish → shard fan-out → queue → pump);
/// `tcp` consumes through a `RemoteZoneView` behind a real
/// `BrokerServer` on loopback (publish → writer thread → socket →
/// decode → apply). One iteration is one add-visible-remove-confirmed
/// cycle, identical for both backends, so the derived ratio is the
/// socket path's end-to-end overhead.
fn bench_detect_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker");
    const BATCH: usize = 100;
    const STALL: Duration = Duration::from_secs(60);
    let tld = TldId(0);

    let fresh_deltas = |serial: u32| {
        let ns = NsSet::new(vec![name("ns1.provider0.net")]);
        let mut add = ZoneDelta::default();
        let mut remove = ZoneDelta::default();
        for i in 0..BATCH {
            let domain = name(&format!("fresh-{serial:08}-{i:03}.com"));
            add.added.push((domain, ns.clone()));
            remove.removed.push((domain, ns.clone()));
        }
        (add, remove)
    };

    // --- in-process consumer ----------------------------------------
    {
        let broker = Broker::new(BrokerConfig::default());
        broker.add_shard(tld, shard_snapshot("com", 10_000));
        let mut view = BrokerZoneView::subscribe(&broker, &[tld]);
        view.pump(); // bootstrap
        let mut serial = 0u32;
        let mut drained = Vec::with_capacity(BATCH);
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_with_input(BenchmarkId::new("detect-latency", "inproc"), &(), |b, _| {
            b.iter(|| {
                let (add, remove) = fresh_deltas(serial);
                broker.publish(tld, add, Serial::new(serial + 1), SimTime::ZERO);
                view.pump();
                drained.clear();
                view.drain_new_domains(&mut drained);
                assert_eq!(drained.len(), BATCH, "zone NRDs must surface in one pump");
                broker.publish(tld, remove, Serial::new(serial + 2), SimTime::ZERO);
                view.pump();
                assert_eq!(view.serial(tld), Some(Serial::new(serial + 2)));
                serial += 2;
            })
        });
    }

    // --- socket consumer --------------------------------------------
    {
        let broker = Broker::new(BrokerConfig::default());
        broker.add_shard(tld, shard_snapshot("com", 10_000));
        let server = BrokerServer::new(
            broker.clone(),
            TransportConfig {
                writer_tick: Duration::from_millis(20),
                ..TransportConfig::default()
            },
        );
        let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");
        let mut view = RemoteZoneView::connect(&[tld], move |claims| {
            let mut conn = tcp_connect(addr)?;
            conn.set_recv_timeout(Some(Duration::from_millis(1)))?;
            TransportClient::connect(conn, claims)
        })
        .expect("dial");
        assert!(view.pump_until_serials(&[(tld, Serial::new(0))], STALL), "bootstrap");
        let mut serial = 0u32;
        let mut drained = Vec::with_capacity(BATCH);
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_with_input(BenchmarkId::new("detect-latency", "tcp"), &(), |b, _| {
            b.iter(|| {
                let (add, remove) = fresh_deltas(serial);
                broker.publish(tld, add, Serial::new(serial + 1), SimTime::ZERO);
                assert!(
                    view.pump_until_serials(&[(tld, Serial::new(serial + 1))], STALL),
                    "socket consumer stalled on the add"
                );
                drained.clear();
                view.view_mut().drain_new_domains(&mut drained);
                assert_eq!(drained.len(), BATCH, "zone NRDs must cross the socket");
                broker.publish(tld, remove, Serial::new(serial + 2), SimTime::ZERO);
                assert!(
                    view.pump_until_serials(&[(tld, Serial::new(serial + 2))], STALL),
                    "socket consumer stalled on the remove"
                );
                serial += 2;
            })
        });
        server.shutdown();
    }
    group.finish();
}

fn bench_catchup(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker");
    const SHARD: usize = 500_000;
    // Not a multiple of the checkpoint cadence: the checkpoint genuinely
    // lags the head (here by 2 deltas), so the checkpoint path still has
    // frames to decode and apply.
    const HISTORY: usize = 34;
    const CHURN: usize = 2_000;

    // A 500k-delegation shard with 34 sealed deltas of history and a
    // checkpoint every 4 pushes. Retention keeps the full history so the
    // "replay it all" baseline has something to replay.
    let broker = Broker::new(BrokerConfig {
        retention: RetentionConfig::new(HISTORY + 2, 4),
        ..BrokerConfig::default()
    });
    let tld = TldId(0);
    let start = shard_snapshot("com", SHARD);
    broker.add_shard(tld, start.clone());
    let publisher = FlipPublisher::new(&start, CHURN);
    let mut sealed = Vec::with_capacity(HISTORY);
    for _ in 0..HISTORY {
        let (delta, serial) = publisher.next();
        sealed.push(broker.publish(tld, delta, serial, SimTime::ZERO));
    }
    let head = broker.head(tld).unwrap();

    group.throughput(Throughput::Elements(SHARD as u64));
    // Cold catch-up as the broker serves it: checkpoint snapshot
    // (Arc-shared) + decode/apply of the post-checkpoint deltas.
    group.bench_with_input(BenchmarkId::new("catchup-checkpoint", SHARD), &(), |b, _| {
        b.iter(|| {
            let sub = broker.subscribe(&[tld], None);
            let mut state: Option<ZoneSnapshot> = None;
            for msg in sub.drain() {
                match msg {
                    BrokerMessage::Snapshot { snapshot, .. } => state = Some(snapshot),
                    BrokerMessage::Delta { frame, .. } => {
                        let push = decode_delta_push(&frame).expect("well-formed");
                        let s = state.as_mut().expect("snapshot first");
                        *s = push.delta.apply(s, push.to_serial, push.pushed_at);
                    }
                }
            }
            let state = state.expect("bootstrapped");
            assert_eq!(state.serial(), head.serial());
            state
        })
    });

    // Baseline: no checkpoints — decode and apply the entire sealed
    // history onto the shard's starting snapshot.
    group.bench_with_input(BenchmarkId::new("catchup-full-replay", SHARD), &(), |b, _| {
        b.iter(|| {
            let mut state = start.clone();
            for d in &sealed {
                let push = decode_delta_push(&d.frame).expect("well-formed");
                state = push.delta.apply(&state, push.to_serial, push.pushed_at);
            }
            assert_eq!(state.serial(), head.serial());
            state
        })
    });
    group.finish();
}

/// Server-side resident set, from `/proc/self/status` (Linux-only, like
/// the epoll shim the transport is built on).
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 =
                rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Emit a non-timing metric through the same JSON channel the bench
/// shim uses (the value rides in `median_ns`; `scripts/bench.sh` lifts
/// these ids into dedicated report fields).
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

/// The 10k-subscriber fan-out: the population the thread-per-subscriber
/// transport could not host (20k threads), served end-to-end by the one
/// reactor thread. One iteration = publish one delta + wait until every
/// one of the `DARKDNS_FANOUT_SUBS` (default 10,000) loopback
/// subscribers has received it. The client fleet runs in a child
/// process (`fanout_client_fleet`): two fds per loopback connection
/// would bust the container's 20k `RLIMIT_NOFILE` hard cap inside a
/// single process. The child prints one line per converged round; the
/// parent's iteration closes on that line, so the measured time spans
/// publish → 10k socket deliveries → 10k client-side decodes.
fn bench_tcp_fanout_10k(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker");
    let subs: usize = std::env::var("DARKDNS_FANOUT_SUBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    const CHURN: usize = 20;
    const STALL: Duration = Duration::from_secs(120);
    let _ = mio_shim::raise_nofile_limit(subs as u64 + 256);

    let broker = Broker::new(BrokerConfig {
        retention: RetentionConfig::new(64, 16),
        subscriber_capacity: 64,
    });
    let tld = TldId(0);
    broker.add_shard(tld, shard_snapshot("com", 10_000));
    let server = BrokerServer::new(
        broker.clone(),
        TransportConfig { writer_tick: Duration::from_millis(20), ..TransportConfig::default() },
    );
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");

    // RSS before the fleet: everything allocated after this point and
    // before the last handshake is per-connection server state.
    let rss_before = vm_rss_bytes();
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(exe)
        .env("DARKDNS_FANOUT_CLIENT", "1")
        .env("DARKDNS_FANOUT_ADDR", addr.to_string())
        .env("DARKDNS_FANOUT_SUBS", subs.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn client fleet");
    let mut rounds = std::io::BufReader::new(child.stdout.take().expect("child stdout"));

    let deadline = Instant::now() + STALL;
    while (server.stats().handshakes as usize) < subs {
        assert!(Instant::now() < deadline, "client fleet never finished handshaking");
        std::thread::sleep(Duration::from_millis(5));
    }
    let bytes_per_conn = vm_rss_bytes().saturating_sub(rss_before) / subs as u64;
    assert_eq!(server.transport_threads(), 1, "reactor thread count must be flat");

    let publisher = FlipPublisher::new(&broker.head(tld).unwrap(), CHURN);
    let mut expected_round = 0u64;
    group.throughput(Throughput::Elements(subs as u64));
    group.bench_with_input(
        BenchmarkId::new("tcp-fanout-10k", format!("{subs}subs")),
        &(),
        |b, _| {
            b.iter(|| {
                let (delta, serial) = publisher.next();
                broker.publish(tld, delta, serial, SimTime::ZERO);
                expected_round += 1;
                let mut line = String::new();
                use std::io::BufRead as _;
                rounds.read_line(&mut line).expect("client fleet died mid-round");
                assert_eq!(
                    line.trim().parse::<u64>().ok(),
                    Some(expected_round),
                    "fleet convergence out of step"
                );
            })
        },
    );
    assert_eq!(server.transport_threads(), 1, "reactor must not grow threads under load");
    emit_metric("broker/tcp-fanout-10k/threads", server.transport_threads() as f64);
    emit_metric("broker/tcp-fanout-10k/bytes_per_conn", bytes_per_conn as f64);
    let _ = child.kill();
    let _ = child.wait();
    server.shutdown();
    group.finish();
}

/// Frame-boundary tracker for one fleet connection: counts fully
/// received non-empty frames (heartbeats are empty and don't count).
struct FleetConn {
    stream: std::net::TcpStream,
    head: [u8; 4],
    have: usize,
    payload_left: usize,
    frames: u64,
}

impl FleetConn {
    fn feed(&mut self, mut buf: &[u8]) {
        while !buf.is_empty() {
            if self.payload_left == 0 {
                let take = (4 - self.have).min(buf.len());
                self.head[self.have..self.have + take].copy_from_slice(&buf[..take]);
                self.have += take;
                buf = &buf[take..];
                if self.have == 4 {
                    self.have = 0;
                    self.payload_left = u32::from_be_bytes(self.head) as usize;
                }
            } else {
                let take = self.payload_left.min(buf.len());
                self.payload_left -= take;
                buf = &buf[take..];
                if self.payload_left == 0 {
                    self.frames += 1;
                }
            }
        }
    }
}

/// Child-process entry point: dial `DARKDNS_FANOUT_SUBS` loopback
/// connections, handshake each as a subscriber claiming serial 0, then
/// drive them all from one epoll loop, printing the round number every
/// time the whole fleet has received that many delta frames.
fn fanout_client_fleet() {
    use mio_shim::{Epoll, Events, Interest, Token};
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;

    let addr: std::net::SocketAddr =
        std::env::var("DARKDNS_FANOUT_ADDR").expect("addr").parse().expect("valid addr");
    let n: usize = std::env::var("DARKDNS_FANOUT_SUBS").expect("subs").parse().expect("count");
    let _ = mio_shim::raise_nofile_limit(n as u64 + 64);

    let epoll = Epoll::new().expect("epoll");
    let hello_payload = encode_hello(&HelloFrame {
        claims: vec![TldClaim { tld: 0, from_serial: Some(Serial::new(0)) }],
        ..Default::default()
    });
    let mut hello = (hello_payload.len() as u32).to_be_bytes().to_vec();
    hello.extend_from_slice(&hello_payload);

    let mut conns: Vec<FleetConn> = Vec::with_capacity(n);
    for i in 0..n {
        let stream = std::net::TcpStream::connect(addr).expect("dial fan-out server");
        stream.set_nodelay(true).expect("nodelay");
        (&stream).write_all(&hello).expect("send hello");
        stream.set_nonblocking(true).expect("nonblocking");
        epoll.register(stream.as_raw_fd(), Token(i), Interest::READABLE).expect("register");
        conns.push(FleetConn { stream, head: [0; 4], have: 0, payload_left: 0, frames: 0 });
    }

    let mut round = 1u64;
    let mut events = Events::with_capacity(1024);
    let mut buf = vec![0u8; 64 << 10];
    let stdout = std::io::stdout();
    loop {
        let _ = epoll.wait(&mut events, Some(Duration::from_millis(200)));
        for event in events.iter() {
            let conn = &mut conns[event.token().0];
            loop {
                match std::io::Read::read(&mut conn.stream, &mut buf) {
                    // Server closed (bench over): the fleet's job is done.
                    Ok(0) => std::process::exit(0),
                    Ok(k) => conn.feed(&buf[..k]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => std::process::exit(0),
                }
            }
        }
        while conns.iter().all(|c| c.frames >= round) {
            let mut out = stdout.lock();
            let _ = writeln!(out, "{round}");
            let _ = out.flush();
            round += 1;
        }
    }
}

criterion_group!(
    benches,
    bench_fanout,
    bench_concurrent_publish,
    bench_tcp_fanout,
    bench_tcp_fanout_10k,
    bench_detect_latency,
    bench_catchup
);

fn main() {
    // The bench binary doubles as its own 10k-connection client fleet:
    // re-exec'd with this env var, it dials instead of measuring.
    if std::env::var("DARKDNS_FANOUT_CLIENT").is_ok() {
        fanout_client_fleet();
        return;
    }
    // CI smoke hook: run just the reactor fan-out bench (scaled down
    // via DARKDNS_FANOUT_SUBS) without paying for the whole suite.
    if std::env::var("DARKDNS_BENCH_ONLY").as_deref() == Ok("tcp-fanout-10k") {
        let mut criterion = Criterion::default();
        bench_tcp_fanout_10k(&mut criterion);
        return;
    }
    benches();
}
