//! Fault matrix for the **operational** routing layer: live endpoint-map
//! updates, health-based replica selection, shard-filtered relays, and
//! dead-endpoint backoff.
//!
//! `tests/relay_faults.rs` pins the steady-state tiered fan-out
//! (verbatim re-serve, one-resync-per-fault, chunk-train resume). This
//! suite pins what happens when the *topology itself* moves under a
//! running fleet:
//!
//! * **drain mid-chunk-train**: removing the connected replica via an
//!   [`EndpointMap`] generation bump finishes the in-flight bootstrap
//!   on the old connection, then hands off to the successor carrying
//!   claims — zero resyncs, zero repeated chunks, no serial gap;
//! * **add a lagging replica**: the stale-snapshot guard refuses to
//!   time-travel the view; the new replica serves only once its head
//!   catches up;
//! * **kill the freshest replica**: failover is health-scored (RZUQ
//!   probes), landing on the next-freshest replica, not the next in
//!   round-robin order;
//! * **filtered relay**: a relay subscribed to a TLD subset receives,
//!   re-serves, and — after a mid-frame cut — heals exactly that
//!   subset, byte-identical to the root encoding;
//! * **dead-with-backoff**: permanently dead endpoints cost a bounded
//!   dial rate, not one dial per pump, and revived endpoints are found
//!   again within the backoff ceiling;
//! * **progress survives a failed HELLO**: a failover candidate that
//!   accepts the dial and dies before the HELLO is written does not cost
//!   the next candidate the salvaged chunk-train progress.

use darkdns::broker::transport::{
    duplex, Bytes, FaultInjectedConn, FaultScript, FrameConn, FrameFault, LengthPrefixed,
    PipeCutHandle, TransportClient, TransportError, MAX_FRAME_LEN,
};
use darkdns::broker::{Broker, BrokerConfig, BrokerServer, ClientEvent, TransportConfig};
use darkdns::core::broker_view::{EndpointMap, RoutedZoneView};
use darkdns::dns::wire::{encode_delta_push, HelloScope, HELLO_MAGIC};
use darkdns::dns::{DomainName, NsSet, Serial, Zone, ZoneDelta, ZoneSnapshot};
use darkdns::edge::{EdgeClient, EdgeConfig, EdgeIndex, EdgeIndexConfig, EdgeServer};
use darkdns::registry::tld::TldId;
use darkdns::sim::time::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn name(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

fn empty_snap(origin: &str) -> ZoneSnapshot {
    ZoneSnapshot::from_entries(name(origin), Serial::new(0), SimTime::ZERO, vec![])
}

fn add_delta(domain: &str) -> ZoneDelta {
    let mut d = ZoneDelta::default();
    d.added.push((name(domain), NsSet::new(vec![name("ns1.provider0.net")])));
    d
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

fn server_over(broker: &Broker) -> BrokerServer {
    let config = TransportConfig {
        writer_tick: Duration::from_millis(5),
        ..TransportConfig::default()
    };
    BrokerServer::new(broker.clone(), config)
}

/// A server whose snapshots travel as many small `RZUC` chunks.
fn chunky_server_over(broker: &Broker) -> BrokerServer {
    let config = TransportConfig {
        writer_tick: Duration::from_millis(5),
        snapshot_chunk_bytes: 512,
        ..TransportConfig::default()
    };
    BrokerServer::new(broker.clone(), config)
}

fn relay_dialer(
    upstream: &BrokerServer,
    scripts: Vec<FaultScript>,
) -> impl FnMut() -> Result<Box<dyn FrameConn>, TransportError> + Send + 'static {
    let upstream = upstream.clone();
    let scripts = Arc::new(Mutex::new(scripts));
    move || {
        let (client_end, server_end) = duplex(1 << 16);
        let script = {
            let mut scripts = scripts.lock().unwrap();
            if scripts.is_empty() { FaultScript::default() } else { scripts.remove(0) }
        };
        upstream.spawn_conn(FaultInjectedConn::new(server_end, MAX_FRAME_LEN, script));
        Ok(Box::new(LengthPrefixed::new(client_end)))
    }
}

fn assert_view_matches_head(
    view: &darkdns::core::broker_view::BrokerZoneView,
    authority: &Broker,
    tld: TldId,
) {
    let head = authority.head(tld).expect("shard exists");
    let snap = view.snapshot(tld).expect("view bootstrapped");
    assert_eq!(snap.serial(), head.serial());
    let view_zone = Zone::from_snapshot(snap);
    let head_zone = Zone::from_snapshot(&head);
    assert_eq!(
        ZoneSnapshot::capture(&view_zone, head.taken_at()),
        ZoneSnapshot::capture(&head_zone, head.taken_at()),
        "consumer zone diverged from the authority's head"
    );
}

/// Wraps a connection so every successful receive is followed by one
/// injected `TimedOut`. `TransportClient::next_event` folds snapshot
/// continuation chunks internally and only yields on the final chunk
/// or a timeout — with the breather, the consumer's pump loop regains
/// control after *every* chunk, so a long train is observably
/// mid-flight (probes are unaffected: `fetch_stats_deadline` retries
/// timeouts until its deadline).
struct TrickleConn {
    inner: Box<dyn FrameConn>,
    breather: bool,
}

impl FrameConn for TrickleConn {
    fn send_frame(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.inner.send_frame(parts)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        if self.breather {
            self.breather = false;
            return Err(TransportError::TimedOut);
        }
        let frame = self.inner.recv_frame()?;
        self.breather = true;
        Ok(frame)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_recv_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_send_timeout(timeout)
    }
}

/// A routed-view dialer over an endpoint table, with per-endpoint
/// **dial attempt counters** (every dial counts, probes and refusals
/// included) so tests can pin how often a dead endpoint is bothered.
struct Endpoints {
    servers: Vec<BrokerServer>,
    scripts: Vec<Arc<Mutex<Vec<FaultScript>>>>,
    down: Vec<Arc<AtomicBool>>,
    cuts: Vec<Arc<Mutex<Option<PipeCutHandle>>>>,
    dials: Vec<Arc<AtomicU64>>,
}

impl Endpoints {
    fn new(servers: Vec<BrokerServer>) -> Self {
        let n = servers.len();
        Endpoints {
            servers,
            scripts: (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect(),
            down: (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            cuts: (0..n).map(|_| Arc::new(Mutex::new(None))).collect(),
            dials: (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect(),
        }
    }

    /// Mark `endpoint` unreachable and sever its live connection.
    fn kill(&self, endpoint: usize) {
        self.down[endpoint].store(true, Ordering::SeqCst);
        if let Some(cut) = self.cuts[endpoint].lock().unwrap().take() {
            cut.cut();
        }
    }

    fn revive(&self, endpoint: usize) {
        self.down[endpoint].store(false, Ordering::SeqCst);
    }

    fn dial_count(&self, endpoint: usize) -> u64 {
        self.dials[endpoint].load(Ordering::SeqCst)
    }

    fn dialer(&self) -> impl FnMut(&usize) -> Result<Box<dyn FrameConn>, TransportError> {
        let servers = self.servers.clone();
        let scripts: Vec<_> = self.scripts.iter().map(Arc::clone).collect();
        let down: Vec<_> = self.down.iter().map(Arc::clone).collect();
        let cuts: Vec<_> = self.cuts.iter().map(Arc::clone).collect();
        let dials: Vec<_> = self.dials.iter().map(Arc::clone).collect();
        move |&e| {
            dials[e].fetch_add(1, Ordering::SeqCst);
            if down[e].load(Ordering::SeqCst) {
                return Err(TransportError::Closed);
            }
            let (client_end, server_end) = duplex(1 << 16);
            *cuts[e].lock().unwrap() = Some(client_end.cut_handle());
            let script = {
                let mut s = scripts[e].lock().unwrap();
                if s.is_empty() { FaultScript::default() } else { s.remove(0) }
            };
            servers[e].spawn_conn(FaultInjectedConn::new(server_end, MAX_FRAME_LEN, script));
            let mut conn = LengthPrefixed::new(client_end);
            conn.set_recv_timeout(Some(Duration::from_millis(5)))?;
            Ok(Box::new(conn) as Box<dyn FrameConn>)
        }
    }
}

#[test]
fn graceful_drain_hands_off_without_resync_or_serial_gap() {
    // Two replicas of one root; the consumer converges on replica 0,
    // then a generation-bumped map drains it. The handoff must carry
    // the route's claims (no second bootstrap), count as a drain and
    // not a resync, and deliver every subsequent serial gaplessly.
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, empty_snap("com"));
    let eps = Endpoints::new(vec![server_over(&root), server_over(&root)]);
    let mut map = EndpointMap::new();
    map.add_route(vec![tld], vec![0usize, 1]);
    let drained = {
        let mut m = map.clone();
        m.remove_replica(0, 0);
        m
    };
    assert_eq!(map.generation(), 1);
    assert_eq!(drained.generation(), 2);

    let mut view = RoutedZoneView::connect(map.clone(), eps.dialer()).unwrap();
    for i in 1..=3u32 {
        root.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    assert!(view.pump_until_serials(&[(tld, Serial::new(3))], Duration::from_secs(30)));
    assert_eq!(view.route_status()[0].cursor, 0, "ties keep rotation order");

    // Stale and duplicate updates are no-ops; the newer generation wins.
    assert!(!view.apply_endpoint_update(map.clone()), "same generation must be ignored");
    assert!(view.apply_endpoint_update(drained.clone()));
    assert!(!view.apply_endpoint_update(drained), "replayed update must be ignored");
    assert!(!view.apply_endpoint_update(map), "older generation must never roll back");

    for i in 4..=6u32 {
        root.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    assert!(
        view.pump_until_serials(&[(tld, Serial::new(6))], Duration::from_secs(30)),
        "fleet failed to converge across the drain"
    );
    assert_view_matches_head(view.view(), &root, tld);
    assert_eq!(view.drains_completed(), 1, "the drain is a planned handoff");
    assert_eq!(view.view().resync_count(), 0, "a drain is not a fault");
    assert_eq!(view.view().snapshots_adopted(), 1, "claims carried: no second bootstrap");
    assert_eq!(view.view().frames_applied(), 6, "no serial gap, no double-apply");
    assert!(view.is_connected());
    let status = &view.route_status()[0];
    assert!(!status.draining);
    assert_eq!(status.cursor, 0, "the successor is the drained map's replica 0");
    for server in &eps.servers {
        server.shutdown();
    }
}

#[test]
fn drain_mid_chunk_train_finishes_the_train_before_handoff() {
    // A large bootstrap is mid-flight as a train of small RZUC chunks
    // (the pipe holds only part of it) when the connected replica is
    // drained. The route must finish the train on the old connection
    // — not abandon or restart it — and only then hand off; the
    // successor connect carries the completed claims, so the total
    // chunk count equals one clean bootstrap exactly.
    let tld = TldId(0);
    let entries: Vec<_> = (0..6000)
        .map(|i| (name(&format!("d{i:05}.com")), vec![name("ns1.provider0.net")]))
        .collect();
    let snap = ZoneSnapshot::from_entries(name("com"), Serial::new(5), SimTime::ZERO, entries);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, snap);
    let eps = Endpoints::new(vec![chunky_server_over(&root), chunky_server_over(&root)]);

    // A clean single-replica leaf measures the full train length.
    let clean_eps = Endpoints::new(vec![eps.servers[0].clone()]);
    let mut clean_map = EndpointMap::new();
    clean_map.add_route(vec![tld], vec![0usize]);
    let mut clean = RoutedZoneView::connect(clean_map, clean_eps.dialer()).unwrap();
    assert!(clean.pump_until_serials(&[(tld, Serial::new(5))], Duration::from_secs(30)));
    let full_chunks = clean.snapshot_chunks_received();
    assert!(full_chunks > 100, "bootstrap must be a long chunk train, saw {full_chunks}");

    let mut map = EndpointMap::new();
    map.add_route(vec![tld], vec![0usize, 1]);
    let drained = {
        let mut m = map.clone();
        m.remove_replica(0, 0);
        m
    };
    let mut base_dial = eps.dialer();
    let trickle_dial = move |e: &usize| {
        base_dial(e)
            .map(|conn| Box::new(TrickleConn { inner: conn, breather: false }) as Box<dyn FrameConn>)
    };
    let mut view = RoutedZoneView::connect(map, trickle_dial).unwrap();
    // Pump until the train is verifiably mid-flight: the trickle
    // breather hands control back after every chunk, so a handful of
    // received chunks with nothing adopted pins the in-flight state.
    wait_for("mid-train", || {
        view.pump(1024);
        view.snapshot_chunks_received() >= 5
    });
    assert_eq!(view.view().snapshots_adopted(), 0, "train must still be in flight");

    assert!(view.apply_endpoint_update(drained));
    assert!(view.route_status()[0].draining, "drain must wait for the train");
    assert!(view.pump_until_serials(&[(tld, Serial::new(5))], Duration::from_secs(30)));
    assert_view_matches_head(view.view(), &root, tld);
    assert_eq!(view.drains_completed(), 1);
    assert_eq!(view.view().resync_count(), 0, "a drain is not a fault");
    assert_eq!(view.view().snapshots_adopted(), 1);
    assert_eq!(
        view.snapshot_chunks_received(),
        full_chunks,
        "the in-flight train must complete on the old connection, never restart"
    );

    // The successor still delivers live pushes with no serial gap.
    root.publish(tld, add_delta("after-drain.com"), Serial::new(6), SimTime::ZERO);
    assert!(view.pump_until_serials(&[(tld, Serial::new(6))], Duration::from_secs(30)));
    assert_eq!(view.view().frames_applied(), 1);
    assert_eq!(view.view().resync_count(), 0);
    for server in &eps.servers {
        server.shutdown();
    }
    for server in &clean_eps.servers {
        server.shutdown();
    }
}

#[test]
fn added_replica_serves_only_once_its_head_catches_up() {
    // A replica added by a map update lags the fleet view. When the
    // old replica dies, the router lands on the laggard — whose rule-3
    // answer is a checkpoint *older* than the view. The stale-snapshot
    // guard must refuse it (no time travel, no double-apply); the
    // route converges through the new replica only once its head
    // reaches the view's serial.
    let tld = TldId(0);
    let authority = Broker::new(BrokerConfig::default());
    authority.add_shard(tld, empty_snap("com"));
    let laggard = Broker::new(BrokerConfig::default());
    laggard.add_shard(tld, empty_snap("com"));
    let eps = Endpoints::new(vec![server_over(&authority), server_over(&laggard)]);

    let mut map = EndpointMap::new();
    map.add_route(vec![tld], vec![0usize]);
    let grown = {
        let mut m = map.clone();
        m.add_replica(0, 1);
        m
    };
    let mut view = RoutedZoneView::connect(map, eps.dialer()).unwrap();
    for i in 1..=3u32 {
        authority.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    assert!(view.pump_until_serials(&[(tld, Serial::new(3))], Duration::from_secs(30)));

    assert!(view.apply_endpoint_update(grown));
    assert!(view.is_connected(), "adding a replica must not disturb the live connection");
    assert_eq!(view.view().resync_count(), 0);

    // The authority dies; only the laggard (head serial 0) remains.
    eps.kill(0);
    wait_for("stale-snapshot refusals", || {
        view.pump(256);
        view.stale_snapshots_refused() >= 1
    });
    // The stale refusal must also sideline the laggard dead-with-backoff:
    // its next answer would be the same checkpoint, so a hot redial loop
    // buys nothing. The dial rate, not just the refusal, is the pin.
    let degraded_dials = eps.dial_count(1);
    for _ in 0..200 {
        view.pump(256);
    }
    assert!(
        eps.dial_count(1) - degraded_dials <= 4,
        "a stale-serving replica must back off, not be redialled every pump \
         (saw {} dials across 200 pumps)",
        eps.dial_count(1) - degraded_dials
    );
    assert_eq!(
        view.view().serial(tld),
        Some(Serial::new(3)),
        "the view must never regress to the laggard's old checkpoint"
    );
    assert_eq!(view.view().snapshots_adopted(), 1, "the stale checkpoint was never adopted");
    assert_eq!(view.view().frames_applied(), 3, "no double-applies while degraded");

    // The laggard catches up through the same chain; the route then
    // serves from it (claims hit its ring: no snapshot, no replay).
    for i in 1..=3u32 {
        laggard.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    laggard.publish(tld, add_delta("d4.com"), Serial::new(4), SimTime::ZERO);
    assert!(
        view.pump_until_serials(&[(tld, Serial::new(4))], Duration::from_secs(30)),
        "route must serve from the added replica once it catches up"
    );
    assert_view_matches_head(view.view(), &laggard, tld);
    assert_eq!(view.view().snapshots_adopted(), 1, "catch-up was delta-only");
    assert_eq!(view.view().frames_applied(), 4, "each serial applied exactly once");
    for server in &eps.servers {
        server.shutdown();
    }
}

#[test]
fn killing_freshest_replica_fails_over_to_next_freshest_not_round_robin() {
    // Replica list [A, C, B] where A is connected, C is the stalest
    // and B the freshest survivor. Blind rotation from A's cursor
    // would land on C; health-scored selection must probe and pick B.
    let tld = TldId(0);
    let make = || {
        let b = Broker::new(BrokerConfig::default());
        b.add_shard(tld, empty_snap("com"));
        b
    };
    let broker_a = make(); // the connected replica
    let broker_c = make(); // will stall: next in rotation order
    let broker_b = make(); // will be the freshest survivor
    let eps = Endpoints::new(vec![
        server_over(&broker_a),
        server_over(&broker_c),
        server_over(&broker_b),
    ]);
    let mut map = EndpointMap::new();
    map.add_route(vec![tld], vec![0usize, 1, 2]);

    // All heads are 0 at connect time: the tie keeps rotation order,
    // so the route lands on A.
    let mut view = RoutedZoneView::connect(map, eps.dialer()).unwrap();
    assert_eq!(view.route_status()[0].cursor, 0, "highest equal score in rotation order wins");

    // Diverge the replicas while the route is live: A (and the view)
    // reach serial 2, C stalls at 1, B runs ahead to 3.
    for (serial, brokers) in [
        (1u32, vec![&broker_a, &broker_c, &broker_b]),
        (2, vec![&broker_a, &broker_b]),
        (3, vec![&broker_b]),
    ] {
        for broker in brokers {
            broker.publish(
                tld,
                add_delta(&format!("d{serial}.com")),
                Serial::new(serial),
                SimTime::ZERO,
            );
        }
    }
    assert!(view.pump_until_serials(&[(tld, Serial::new(2))], Duration::from_secs(30)));
    assert_eq!(view.route_status()[0].cursor, 0, "still serving from A");

    eps.kill(0);
    assert!(
        view.pump_until_serials(&[(tld, Serial::new(3))], Duration::from_secs(30)),
        "failover must reach the freshest survivor's head"
    );
    assert_view_matches_head(view.view(), &broker_b, tld);
    let status = &view.route_status()[0];
    assert_eq!(status.cursor, 2, "health routing must skip the stale replica");
    assert!(status.connected);
    assert!(status.dead[0], "the killed replica is sidelined with backoff");
    assert_eq!(status.probe_scores[1], Some(1), "the stale replica was probed and scored");
    assert_eq!(status.probe_scores[2], Some(3), "the fresh replica outscored it");
    assert_eq!(view.view().resync_count(), 1);
    assert_eq!(view.view().frames_applied(), 3, "s3 arrived via delta replay on B");
    assert!(view.dial_failures() >= 1, "the dead endpoint's refusals are counted");
    assert_eq!(view.stream_faults(), 1, "the kill is the only stream fault");
    // C answered probes but never served a subscriber; B serves one.
    assert_eq!(eps.servers[1].stats().handshakes, 0, "round-robin would have dialled C");
    assert_eq!(eps.servers[2].stats().handshakes, 1);
    assert!(eps.servers[1].stats().stats_queries >= 1, "C was considered, via probe");
    for server in &eps.servers {
        server.shutdown();
    }
}

#[test]
fn filtered_relay_re_serves_subset_and_heals_subset_only() {
    // The root serves three TLDs; the relay subscribes to two. The
    // subscription filter is wire-level: the unsubscribed shard never
    // crosses the link or materialises at the relay, re-served frames
    // for the subset stay byte-identical to the root encoding, and a
    // mid-frame cut heals with subset claims only — one resync, delta
    // replay, no snapshot re-install.
    let tlds = [TldId(0), TldId(1), TldId(2)];
    let origins = ["com", "net", "org"];
    let root = Broker::new(BrokerConfig::default());
    for (tld, origin) in tlds.iter().zip(origins) {
        root.add_shard(*tld, empty_snap(origin));
    }
    let root_server = server_over(&root);

    // Bootstrap: one snapshot per subscribed shard; then the first
    // delta is delivered and the second torn mid-frame.
    let script = FaultScript::new([
        FrameFault::Deliver,
        FrameFault::Deliver,
        FrameFault::Deliver,
        FrameFault::TruncateAndCut(5),
    ]);
    let relay_broker = Broker::new(BrokerConfig::default());
    let relay_server = server_over(&relay_broker);
    let relay = relay_server
        .attach_upstream(vec![tlds[0], tlds[1]], relay_dialer(&root_server, vec![script]));
    wait_for("filtered relay bootstrap", || relay.stats().snapshots_installed == 2);
    assert!(
        relay_broker.head(tlds[2]).is_none(),
        "the unsubscribed shard must never materialise at the relay"
    );

    // Publish the unsubscribed shard FIRST: its frames must not even
    // reach the relay's link (they would consume fault-script slots).
    let at = SimTime::from_secs(1);
    root.publish(tlds[2], add_delta("x.org"), Serial::new(1), at);
    root.publish(tlds[0], add_delta("x.com"), Serial::new(1), at); // delivered
    root.publish(tlds[1], add_delta("x.net"), Serial::new(1), at); // torn mid-frame
    wait_for("filtered relay heals the cut", || {
        let s = relay.stats();
        s.resyncs == 1 && s.frames_relayed == 2
    });

    let stats = relay.stats();
    assert_eq!(stats.connects, 2, "one redial heals the cut");
    assert_eq!(stats.frames_relayed, 2, "only subscribed-shard frames cross the link");
    assert_eq!(stats.frames_skipped, 0, "subset claims replay nothing twice");
    assert_eq!(stats.snapshots_installed, 2, "the heal is a delta replay, not a bootstrap");
    assert!(relay_broker.head(tlds[2]).is_none(), "the heal touches only subscribed shards");

    // Byte-identity for the subscribed subset at a relay subscriber.
    let (client_end, server_end) = duplex(1 << 16);
    relay_server.spawn_conn(FaultInjectedConn::new(
        server_end,
        MAX_FRAME_LEN,
        FaultScript::default(),
    ));
    let mut conn = LengthPrefixed::new(client_end);
    conn.set_recv_timeout(Some(Duration::from_millis(5))).unwrap();
    let mut leaf = TransportClient::connect(
        conn,
        &[(tlds[0], Some(Serial::new(0))), (tlds[1], Some(Serial::new(0)))],
    )
    .unwrap();
    let mut frames: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while frames.len() < 2 {
        assert!(Instant::now() < deadline, "timed out collecting subset frames");
        match leaf.next_event() {
            ClientEvent::Delta { tld, frame, .. } => {
                frames.insert(tld.0, frame.to_vec());
            }
            ClientEvent::Idle | ClientEvent::Snapshot { .. } => {}
            other => panic!("stream died while collecting frames: {other:?}"),
        }
    }
    for (tld, origin, domain) in [(tlds[0], "com", "x.com"), (tlds[1], "net", "x.net")] {
        let expected =
            encode_delta_push(&name(origin), Serial::new(0), Serial::new(1), at, &add_delta(domain));
        assert_eq!(
            frames.get(&tld.0).expect("subset frame").as_slice(),
            &*expected,
            "re-served {origin} frame diverged from the root encoding"
        );
    }
    relay_server.shutdown();
    root_server.shutdown();
}

#[test]
fn delta_only_scope_joins_at_live_head_without_bootstrap() {
    // A DeltaOnly tap claims nothing on a shard whose head is already
    // at serial 2. Full scope would bootstrap (rule 3); DeltaOnly must
    // downgrade the plan to the live head — no snapshot ever crosses,
    // and the first thing the tap sees is the next live push.
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, empty_snap("com"));
    for i in 1..=2u32 {
        root.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    let server = server_over(&root);

    let tap_conn = |server: &BrokerServer| {
        let (client_end, server_end) = duplex(1 << 16);
        server.spawn_conn(FaultInjectedConn::new(
            server_end,
            MAX_FRAME_LEN,
            FaultScript::default(),
        ));
        let mut conn = LengthPrefixed::new(client_end);
        conn.set_recv_timeout(Some(Duration::from_millis(5))).unwrap();
        conn
    };
    let mut tap = TransportClient::connect_salvaged(
        tap_conn(&server),
        &[(tld, None)],
        &mut Vec::new(),
        HelloScope::DeltaOnly,
    )
    .unwrap();
    // A Full-scope control with the same empty claims bootstraps.
    let mut control = TransportClient::connect_salvaged(
        tap_conn(&server),
        &[(tld, None)],
        &mut Vec::new(),
        HelloScope::Full,
    )
    .unwrap();
    wait_for("control bootstraps", || {
        matches!(control.next_event(), ClientEvent::Snapshot { .. })
    });

    root.publish(tld, add_delta("live.com"), Serial::new(3), SimTime::ZERO);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "tap never saw the live push");
        match tap.next_event() {
            ClientEvent::Delta { push, .. } => {
                assert_eq!(push.to_serial, Serial::new(3), "tap joins at the live head");
                break;
            }
            ClientEvent::Idle => {}
            ClientEvent::Snapshot { .. } => {
                panic!("DeltaOnly scope must never receive a bootstrap snapshot")
            }
            other => panic!("tap stream died: {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn dead_endpoints_are_dialled_at_a_bounded_backoff_rate() {
    // Both replicas die. Pumping hard must NOT redial them once per
    // pump — attempts are gated by per-replica backoff — and revived
    // endpoints are found again within the backoff ceiling.
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, empty_snap("com"));
    let eps = Endpoints::new(vec![server_over(&root), server_over(&root)]);
    let mut map = EndpointMap::new();
    map.add_route(vec![tld], vec![0usize, 1]);
    let mut view = RoutedZoneView::connect(map, eps.dialer()).unwrap();
    root.publish(tld, add_delta("d1.com"), Serial::new(1), SimTime::ZERO);
    assert!(view.pump_until_serials(&[(tld, Serial::new(1))], Duration::from_secs(30)));

    eps.kill(0);
    eps.kill(1);
    root.publish(tld, add_delta("d2.com"), Serial::new(2), SimTime::ZERO);
    let dials_at_kill = eps.dial_count(0) + eps.dial_count(1);
    // ~300 ms of hard pumping: hundreds of pump calls, but the backoff
    // schedule (50 ms floor, doubling) admits only a handful of dials.
    let mut pumps = 0u32;
    let window = Instant::now() + Duration::from_millis(300);
    while Instant::now() < window {
        view.pump(64);
        pumps += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    let dead_dials = eps.dial_count(0) + eps.dial_count(1) - dials_at_kill;
    assert!(pumps >= 50, "the consumer kept pumping while degraded ({pumps} pumps)");
    assert!(
        dead_dials <= 20,
        "dead endpoints must be backed off, not redialled per pump: \
         {dead_dials} dials across {pumps} pumps"
    );

    eps.revive(0);
    eps.revive(1);
    assert!(
        view.pump_until_serials(&[(tld, Serial::new(2))], Duration::from_secs(30)),
        "revived endpoints must be rediscovered after backoff expiry"
    );
    assert_view_matches_head(view.view(), &root, tld);
    assert_eq!(view.view().resync_count(), 1, "one fault, one resync, however long the outage");
    assert_eq!(view.view().frames_applied(), 2, "no double-applies across the outage");
    for server in &eps.servers {
        server.shutdown();
    }
}

#[test]
fn edge_client_applies_endpoint_updates_without_restart() {
    // The thin client's version of the same contract: a generation-
    // gated replica-set update takes effect live. A client that failed
    // over to replica 1 is told replica 1 is drained (count shrinks to
    // 1); its next lookup must redial inside the new set.
    let tld = TldId(0);
    let index = Arc::new(EdgeIndex::new(EdgeIndexConfig::default()));
    index.adopt_snapshot(
        tld,
        ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(1),
            SimTime::ZERO,
            vec![(name("present.com"), vec![name("ns1.provider0.net")])],
        ),
    );
    let servers: Vec<EdgeServer> =
        (0..2).map(|_| EdgeServer::new(Arc::clone(&index), EdgeConfig::default())).collect();
    let addrs: Vec<_> =
        servers.iter().map(|s| s.listen_tcp("127.0.0.1:0").unwrap()).collect();

    let dials = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let down0 = Arc::new(AtomicBool::new(true));
    let mut client = {
        let dials = Arc::clone(&dials);
        let down0 = Arc::clone(&down0);
        EdgeClient::connect_replicas(2, move |i| {
            dials[i].fetch_add(1, Ordering::SeqCst);
            if i == 0 && down0.load(Ordering::SeqCst) {
                return Err(TransportError::Closed);
            }
            let conn = darkdns::broker::transport::tcp_connect(addrs[i])
                .map_err(TransportError::Io)?;
            Ok(Box::new(conn) as Box<dyn FrameConn>)
        })
        .unwrap()
    };
    // Replica 0 refused, so the client sits on replica 1.
    assert_eq!(client.failover_count(), 1);
    let query = [darkdns::dns::wire::LookupQuery { tld: tld.0, name: name("present.com") }];
    assert!(client.lookup(&query).unwrap().answers[0].present);

    // Gate checks: generation 0 and replays never apply.
    assert!(!client.apply_endpoint_update(0, 2));
    assert!(client.apply_endpoint_update(1, 2));
    assert!(!client.apply_endpoint_update(1, 2), "replayed update must be ignored");

    // Generation 2 drains replica 1: only replica 0 (now healthy)
    // remains. The connected-out-of-range client must redial — into
    // the new set — on its next lookup, without being rebuilt.
    down0.store(false, Ordering::SeqCst);
    let dials0_before = dials[0].load(Ordering::SeqCst);
    assert!(client.apply_endpoint_update(2, 1));
    assert!(client.lookup(&query).unwrap().answers[0].present);
    assert_eq!(
        dials[0].load(Ordering::SeqCst),
        dials0_before + 1,
        "the post-drain lookup redials replica 0"
    );
    assert!(!client.lookup(&[darkdns::dns::wire::LookupQuery {
        tld: tld.0,
        name: name("absent.com"),
    }]).unwrap().answers[0].present);
}

/// Wraps a connection so that, while `armed`, the first HELLO written
/// through it fails as if the peer died between `accept` and the first
/// byte (probes — `RZUQ` — pass untouched).
struct HelloFailConn {
    inner: Box<dyn FrameConn>,
    armed: Arc<AtomicBool>,
}

impl FrameConn for HelloFailConn {
    fn send_frame(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        let is_hello = parts.first().is_some_and(|p| p.starts_with(HELLO_MAGIC));
        if is_hello && self.armed.swap(false, Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        self.inner.send_frame(parts)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        self.inner.recv_frame()
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_recv_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_send_timeout(timeout)
    }
}

#[test]
fn salvaged_chunk_progress_survives_a_candidate_that_dies_before_the_hello() {
    // A bootstrap is cut mid-train on replica 0. The redial's first
    // candidate (replica 1: the cursor rotated off the dead stream, and
    // equal probe scores keep rotation order) accepts the dial and then
    // fails the HELLO write; the next candidate (replica 0 again)
    // serves. The progress salvaged from the cut must still be in the
    // link for that second HELLO — the train resumes at its boundary, so
    // the chunks received across both connections equal one clean
    // bootstrap, not the pre-cut chunks plus a whole second train.
    let tld = TldId(0);
    let entries: Vec<_> = (0..6000)
        .map(|i| (name(&format!("d{i:05}.com")), vec![name("ns1.provider0.net")]))
        .collect();
    let snap = ZoneSnapshot::from_entries(name("com"), Serial::new(5), SimTime::ZERO, entries);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, snap);
    let eps = Endpoints::new(vec![chunky_server_over(&root), chunky_server_over(&root)]);

    let clean_eps = Endpoints::new(vec![eps.servers[0].clone()]);
    let mut clean_map = EndpointMap::new();
    clean_map.add_route(vec![tld], vec![0usize]);
    let mut clean = RoutedZoneView::connect(clean_map, clean_eps.dialer()).unwrap();
    assert!(clean.pump_until_serials(&[(tld, Serial::new(5))], Duration::from_secs(30)));
    let full_chunks = clean.snapshot_chunks_received();
    assert!(full_chunks > 100, "bootstrap must be a long chunk train, saw {full_chunks}");

    let mut map = EndpointMap::new();
    map.add_route(vec![tld], vec![0usize, 1]);
    let hello_dies = Arc::new(AtomicBool::new(false));
    let mut base_dial = eps.dialer();
    let dial = {
        let hello_dies = Arc::clone(&hello_dies);
        move |e: &usize| {
            let inner =
                Box::new(TrickleConn { inner: base_dial(e)?, breather: false }) as Box<dyn FrameConn>;
            Ok(if *e == 1 {
                Box::new(HelloFailConn { inner, armed: Arc::clone(&hello_dies) }) as Box<dyn FrameConn>
            } else {
                inner
            })
        }
    };
    let mut view = RoutedZoneView::connect(map, dial).unwrap();
    assert_eq!(view.route_status()[0].cursor, 0);
    wait_for("mid-train", || {
        view.pump(1024);
        view.snapshot_chunks_received() >= 5
    });
    assert_eq!(view.view().snapshots_adopted(), 0, "train must still be in flight");

    hello_dies.store(true, Ordering::SeqCst);
    eps.cuts[0].lock().unwrap().take().expect("replica 0 is connected").cut();
    assert!(view.pump_until_serials(&[(tld, Serial::new(5))], Duration::from_secs(30)));
    assert!(!hello_dies.load(Ordering::SeqCst), "replica 1's HELLO must have been attempted");
    assert_view_matches_head(view.view(), &root, tld);
    let status = &view.route_status()[0];
    assert_eq!(status.cursor, 0, "the candidate after the failed HELLO serves");
    assert_eq!(view.view().resync_count(), 1, "one fault, one resync");
    assert_eq!(view.view().snapshots_adopted(), 1);
    assert_eq!(
        view.snapshot_chunks_received(),
        full_chunks,
        "the failed HELLO must not cost the next candidate the salvaged progress"
    );
    assert_eq!(view.dial_failures(), 1, "the handshake that died is the one dial failure");
    for server in eps.servers.iter().chain(&clean_eps.servers) {
        server.shutdown();
    }
}
