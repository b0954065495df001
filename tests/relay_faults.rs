//! Fault-injection harness for the tiered fan-out: relay trees and
//! multi-broker routing.
//!
//! Every test builds a real relay topology — a root [`BrokerServer`],
//! one or more relay servers attached upstream via
//! [`BrokerServer::attach_upstream`], and leaf consumers — over the
//! in-memory duplex pipe (same framing state machine as TCP), then
//! injects scripted faults at specific tiers. The invariants pinned:
//!
//! * **verbatim re-serve**: a leaf at depth 2 receives `RZU4` frames
//!   byte-identical to the root publisher's one-time encoding;
//! * **one resync per fault, at the faulted tier only**: cutting
//!   root→relay heals with exactly one relay resync and zero leaf
//!   resyncs; cutting relay→leaf mid-chunked-snapshot heals with one
//!   leaf resync that *resumes* the chunk train instead of restarting;
//! * **zero double-applies**: every serial lands exactly once at every
//!   tier, whatever the fault;
//! * **routed failover**: a partitioned multi-broker fleet behind an
//!   [`EndpointMap`] fails over to the next replica and still converges
//!   with exactly one resync.

use darkdns::broker::transport::{
    duplex, FaultInjectedConn, FaultScript, FrameConn, FrameFault, LengthPrefixed, PipeCutHandle,
    TransportClient, TransportError, MAX_FRAME_LEN,
};
use darkdns::broker::{Broker, BrokerConfig, BrokerServer, ClientEvent, TransportConfig};
use darkdns::core::broker_view::{EndpointMap, RemoteZoneView, RoutedZoneView};
use darkdns::dns::wire::encode_delta_push;
use darkdns::dns::{DomainName, NsSet, Serial, Zone, ZoneDelta, ZoneSnapshot};
use darkdns::edge::{EdgeIndex, EdgeIndexConfig, RoutedEdgeFeed};
use darkdns::registry::tld::{synthetic_fleet, TldId};
use darkdns::sim::time::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Spin until `cond` holds (30 s safety net — these tests are
/// event-driven and normally settle in milliseconds).
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

/// A server whose snapshots travel as many small `RZUC` chunks (the
/// reactor floors the chunk bound at 512 bytes).
fn chunky_server_over(broker: &Broker) -> BrokerServer {
    let config = TransportConfig {
        writer_tick: Duration::from_millis(5),
        snapshot_chunk_bytes: 512,
        ..TransportConfig::default()
    };
    BrokerServer::new(broker.clone(), config)
}

/// An upstream dialer for [`BrokerServer::attach_upstream`]: each
/// (re)connect builds a fresh duplex pipe into `upstream`, wrapping the
/// server end in the fault injector with the next scripted plan.
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
        upstream.serve_conn(FaultInjectedConn::new(server_end, MAX_FRAME_LEN, script));
        Ok(Box::new(LengthPrefixed::new(client_end)))
    }
}

/// A leaf dialer in the `RemoteZoneView` shape (returns a connected
/// [`TransportClient`]) with per-connection fault scripts on the server
/// side of `server`.
fn leaf_dialer(
    server: &BrokerServer,
    scripts: Vec<FaultScript>,
) -> impl FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError> {
    let server = server.clone();
    let scripts = Arc::new(Mutex::new(scripts));
    move |claims| {
        let (client_end, server_end) = duplex(1 << 16);
        let script = {
            let mut scripts = scripts.lock().unwrap();
            if scripts.is_empty() { FaultScript::default() } else { scripts.remove(0) }
        };
        server.serve_conn(FaultInjectedConn::new(server_end, MAX_FRAME_LEN, script));
        let mut conn = LengthPrefixed::new(client_end);
        conn.set_recv_timeout(Some(Duration::from_millis(5)))?;
        TransportClient::connect(conn, claims)
    }
}

/// The convergence pin, shared with the depth-1 harness: the consumer's
/// snapshot reconstructs the same zone as the root publisher's head.
fn assert_view_matches_head(
    view: &darkdns::core::broker_view::BrokerZoneView,
    root: &Broker,
    tld: TldId,
) {
    let head = root.head(tld).expect("shard exists");
    let snap = view.snapshot(tld).expect("view bootstrapped");
    assert_eq!(snap.serial(), head.serial());
    let view_zone = Zone::from_snapshot(snap);
    let head_zone = Zone::from_snapshot(&head);
    assert_eq!(
        ZoneSnapshot::capture(&view_zone, head.taken_at()),
        ZoneSnapshot::capture(&head_zone, head.taken_at()),
        "zone at the leaf diverged from the root publisher's head"
    );
}

/// Drive a raw [`TransportClient`] until it has seen `want` delta
/// frames, returning `to_serial → raw RZU4 bytes` for each.
fn collect_delta_frames(client: &mut TransportClient, want: usize) -> BTreeMap<u32, Vec<u8>> {
    let mut frames = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while frames.len() < want {
        assert!(Instant::now() < deadline, "timed out collecting delta frames");
        match client.next_event() {
            ClientEvent::Delta { push, frame, .. } => {
                frames.insert(push.to_serial.get(), frame.to_vec());
            }
            ClientEvent::Idle | ClientEvent::Snapshot { .. } => {}
            other => panic!("stream died while collecting frames: {other:?}"),
        }
    }
    frames
}

#[test]
fn depth_two_leaf_receives_byte_identical_root_frames() {
    // Root publishes once; a relay re-serves; clients at depth 1 (on
    // the root) and depth 2 (on the relay) must observe RZU4 frames
    // byte-identical to each other AND to the root's canonical
    // encoding — encode-once survives the extra hop.
    const PUSHES: u32 = 8;
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, empty_snap("com"));
    let root_server = server_over(&root);

    let relay_broker = Broker::new(BrokerConfig::default());
    let relay_server = server_over(&relay_broker);
    let relay = relay_server.attach_upstream(vec![tld], relay_dialer(&root_server, vec![]));
    wait_for("relay bootstrap", || relay.stats().snapshots_installed == 1);
    assert_eq!(relay_server.transport_threads(), 2, "reactor + one upstream attachment");

    let mut depth1 = leaf_dialer(&root_server, vec![])(&[(tld, Some(Serial::new(0)))]).unwrap();
    let mut depth2 = leaf_dialer(&relay_server, vec![])(&[(tld, Some(Serial::new(0)))]).unwrap();

    let mut pushes = Vec::new();
    for i in 1..=PUSHES {
        let delta = add_delta(&format!("d{i}.com"));
        root.publish(tld, delta.clone(), Serial::new(i), SimTime::from_secs(u64::from(i)));
        pushes.push((Serial::new(i - 1), Serial::new(i), SimTime::from_secs(u64::from(i)), delta));
    }

    let at_depth1 = collect_delta_frames(&mut depth1, PUSHES as usize);
    let at_depth2 = collect_delta_frames(&mut depth2, PUSHES as usize);
    assert_eq!(at_depth1, at_depth2, "relay must re-serve the root's exact bytes");
    // Pin against the root's canonical encoding, not just cross-depth
    // equality: the frames are precisely what encode_delta_push seals.
    let origin = name("com");
    for (from, to, at, delta) in &pushes {
        let expected = encode_delta_push(&origin, *from, *to, *at, delta);
        assert_eq!(
            at_depth2.get(&to.get()).expect("frame seen at depth 2").as_slice(),
            &*expected,
            "depth-2 frame for serial {to:?} diverged from the root encoding"
        );
    }

    let stats = relay.stats();
    assert_eq!(stats.frames_relayed, u64::from(PUSHES));
    assert_eq!(stats.frames_skipped, 0);
    assert_eq!(stats.resyncs, 0, "a fault-free chain never resyncs");
    assert_eq!(stats.connects, 1);
    relay_server.shutdown();
    root_server.shutdown();
}

#[test]
fn root_relay_cut_mid_frame_heals_with_one_relay_resync_and_zero_leaf_resyncs() {
    // The relay's first upstream connection is torn mid-frame (delta 2
    // truncated). The relay must redial with its local head serials and
    // heal by delta replay; its own subscriber — a depth-2 leaf — must
    // never notice: zero leaf resyncs, every serial applied exactly
    // once.
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, empty_snap("com"));
    let root_server = server_over(&root);

    let script = FaultScript::new([
        FrameFault::Deliver,           // bootstrap snapshot (chunked)
        FrameFault::Deliver,           // delta 1
        FrameFault::TruncateAndCut(5), // delta 2: torn mid-frame
    ]);
    let relay_broker = Broker::new(BrokerConfig::default());
    let relay_server = server_over(&relay_broker);
    let relay = relay_server.attach_upstream(vec![tld], relay_dialer(&root_server, vec![script]));
    wait_for("relay bootstrap", || relay.stats().snapshots_installed >= 1);

    let mut leaf = RemoteZoneView::connect(&[tld], leaf_dialer(&relay_server, vec![])).unwrap();
    for i in 1..=6u32 {
        root.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    assert!(
        leaf.pump_until_serials(&[(tld, Serial::new(6))], Duration::from_secs(30)),
        "leaf failed to converge through the healed relay"
    );
    assert_view_matches_head(leaf.view(), &root, tld);

    let stats = relay.stats();
    assert_eq!(stats.resyncs, 1, "exactly the injected fault heals");
    assert_eq!(stats.connects, 2);
    assert_eq!(stats.frames_relayed, 6, "every serial re-published exactly once");
    assert_eq!(stats.frames_skipped, 0, "claims reconnect replays nothing");
    assert_eq!(stats.snapshots_installed, 1, "recovery was a delta replay, not a snapshot");
    assert_eq!(leaf.view().resync_count(), 0, "the downstream tier never notices");
    assert_eq!(leaf.view().frames_applied(), 6, "zero double-applied deltas at the leaf");
    assert_eq!(leaf.view().snapshots_adopted(), 1);
    relay_server.shutdown();
    root_server.shutdown();
}

/// A routed-view dialer over a single endpoint table: `E` is an index
/// into `servers`; each connect spawns a fault-scripted conn on that
/// server. Endpoints marked down refuse to connect.
struct Endpoints {
    servers: Vec<BrokerServer>,
    scripts: Vec<Arc<Mutex<Vec<FaultScript>>>>,
    down: Vec<Arc<AtomicBool>>,
    cuts: Vec<Arc<Mutex<Option<PipeCutHandle>>>>,
}

impl Endpoints {
    fn new(servers: Vec<BrokerServer>) -> Self {
        let n = servers.len();
        Endpoints {
            servers,
            scripts: (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect(),
            down: (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            cuts: (0..n).map(|_| Arc::new(Mutex::new(None))).collect(),
        }
    }

    fn script(&self, endpoint: usize, scripts: Vec<FaultScript>) {
        *self.scripts[endpoint].lock().unwrap() = scripts;
    }

    /// Mark `endpoint` unreachable and sever its live connection.
    fn kill(&self, endpoint: usize) {
        self.down[endpoint].store(true, Ordering::SeqCst);
        if let Some(cut) = self.cuts[endpoint].lock().unwrap().take() {
            cut.cut();
        }
    }

    fn dialer(&self) -> impl FnMut(&usize) -> Result<Box<dyn FrameConn>, TransportError> {
        let servers = self.servers.clone();
        let scripts: Vec<_> = self.scripts.iter().map(Arc::clone).collect();
        let down: Vec<_> = self.down.iter().map(Arc::clone).collect();
        let cuts: Vec<_> = self.cuts.iter().map(Arc::clone).collect();
        move |&e| {
            if down[e].load(Ordering::SeqCst) {
                return Err(TransportError::Closed);
            }
            let (client_end, server_end) = duplex(1 << 16);
            *cuts[e].lock().unwrap() = Some(client_end.cut_handle());
            let script = {
                let mut s = scripts[e].lock().unwrap();
                if s.is_empty() { FaultScript::default() } else { s.remove(0) }
            };
            servers[e].serve_conn(FaultInjectedConn::new(server_end, MAX_FRAME_LEN, script));
            let mut conn = LengthPrefixed::new(client_end);
            conn.set_recv_timeout(Some(Duration::from_millis(5)))?;
            Ok(Box::new(conn) as Box<dyn FrameConn>)
        }
    }
}

#[test]
fn relay_leaf_cut_mid_chunked_snapshot_resumes_instead_of_restarting() {
    // A 450-delegation zone bootstraps to the leaf as a train of small
    // RZUC chunks. The leaf's first connection is cut after three
    // chunks; the reconnect HELLO carries its chunk progress, so the
    // server must resume from entry offset — pinned by the total chunk
    // count across both connections matching a clean bootstrap exactly
    // (a restart would re-send the three chunks already delivered).
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, populated_snap(450));
    let root_server = chunky_server_over(&root);

    let relay_broker = Broker::new(BrokerConfig::default());
    let relay_server = chunky_server_over(&relay_broker);
    let relay = relay_server.attach_upstream(vec![tld], relay_dialer(&root_server, vec![]));
    wait_for("relay bootstrap", || relay.stats().snapshots_installed == 1);
    assert!(
        relay.stats().snapshot_chunks >= 4,
        "the bootstrap must traverse as a multi-chunk train: {:?}",
        relay.stats()
    );

    // A clean leaf measures the full chunk train length.
    let clean_eps = Endpoints::new(vec![relay_server.clone()]);
    let mut clean_map = EndpointMap::new();
    clean_map.add_route(vec![tld], vec![0usize]);
    let mut clean = RoutedZoneView::connect(clean_map, clean_eps.dialer()).unwrap();
    assert!(clean.pump_until_serials(&[(tld, Serial::new(5))], Duration::from_secs(30)));
    let full_chunks = clean.snapshot_chunks_received();
    assert!(full_chunks >= 4, "clean bootstrap saw only {full_chunks} chunks");

    // The faulty leaf: three chunks delivered, the fourth torn mid-frame.
    let eps = Endpoints::new(vec![relay_server.clone()]);
    eps.script(
        0,
        vec![FaultScript::new([
            FrameFault::Deliver,
            FrameFault::Deliver,
            FrameFault::Deliver,
            FrameFault::TruncateAndCut(5),
        ])],
    );
    let mut map = EndpointMap::new();
    map.add_route(vec![tld], vec![0usize]);
    let mut leaf = RoutedZoneView::connect(map, eps.dialer()).unwrap();
    assert!(
        leaf.pump_until_serials(&[(tld, Serial::new(5))], Duration::from_secs(30)),
        "leaf failed to converge after the mid-snapshot cut"
    );
    assert_view_matches_head(leaf.view(), &root, tld);
    assert_eq!(leaf.view().resync_count(), 1, "one cut, one resync");
    assert_eq!(leaf.view().snapshots_adopted(), 1, "the resumed train completes one snapshot");
    assert_eq!(
        leaf.snapshot_chunks_received(),
        full_chunks,
        "the reconnect must resume the chunk train, not restart it"
    );
    // The relay itself never faulted.
    assert_eq!(relay.stats().resyncs, 0);
    // All three leaf connections — the clean bootstrap, the one cut
    // after three chunks and the boundary-aligned resume — were staged
    // from the one train the relay encoded for the first of them.
    assert_eq!(
        relay_server.stats().snapshot_trains_encoded,
        1,
        "a resume on a chunk boundary of the cached train must not re-encode"
    );
    relay_server.shutdown();
    root_server.shutdown();
}

/// A shard of `entries` delegations at serial 5.
fn populated_snap(entries: usize) -> ZoneSnapshot {
    let entries = (0..entries)
        .map(|i| (name(&format!("d{i:04}.com")), vec![name("ns1.provider0.net")]))
        .collect();
    ZoneSnapshot::from_entries(name("com"), Serial::new(5), SimTime::ZERO, entries)
}

fn server_with_chunk_bytes(broker: &Broker, snapshot_chunk_bytes: usize) -> BrokerServer {
    let config = TransportConfig {
        writer_tick: Duration::from_millis(5),
        snapshot_chunk_bytes,
        ..TransportConfig::default()
    };
    BrokerServer::new(broker.clone(), config)
}

/// A raw subscriber of `server` claiming no state for `tld`, over a
/// connection with frame bound `max_frame` and fault `script`, carrying
/// `partials` salvaged from an earlier connection.
fn raw_joiner(
    server: &BrokerServer,
    tld: TldId,
    max_frame: usize,
    script: FaultScript,
    mut partials: Vec<darkdns::broker::transport::SnapshotProgress>,
) -> TransportClient {
    let (client_end, server_end) = duplex(1 << 16);
    server.serve_conn(FaultInjectedConn::new(server_end, max_frame, script));
    let mut conn = LengthPrefixed::new(client_end);
    conn.set_recv_timeout(Some(Duration::from_millis(5))).unwrap();
    TransportClient::connect_salvaged(conn, &[(tld, None)], &mut partials).unwrap()
}

/// Read `client` until its bootstrap completes (`Ok`) or the stream dies
/// (`Err`).
fn bootstrap(client: &mut TransportClient) -> Result<ZoneSnapshot, TransportError> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "timed out waiting for a bootstrap");
        match client.next_event() {
            ClientEvent::Snapshot { snapshot, .. } => return Ok(snapshot),
            ClientEvent::Closed(e) => return Err(e),
            _ => {}
        }
    }
}

#[test]
fn joiners_of_one_checkpoint_share_one_encoded_train() {
    // Encode-once for bootstraps: five fresh joiners of one checkpoint
    // make the reactor encode its RZUC train once. A connection whose
    // own frame bound forces a smaller chunk size is encoded for that
    // connection alone, and leaves the cached train where it was.
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, populated_snap(600));
    let head = root.head(tld).unwrap();
    let server = server_with_chunk_bytes(&root, 2048);

    let mut chunks_per_joiner = 0;
    for _ in 0..5 {
        let mut joiner = raw_joiner(&server, tld, MAX_FRAME_LEN, FaultScript::default(), vec![]);
        assert_eq!(bootstrap(&mut joiner).unwrap(), head);
        chunks_per_joiner = joiner.snapshot_chunks_received();
    }
    assert!(chunks_per_joiner >= 2, "the train must be several chunks");
    assert_eq!(server.stats().snapshot_trains_encoded, 1, "five joiners, one encode");

    // Frame bound 2048 → chunk target 1024, not the server's 2048.
    let mut narrow = raw_joiner(&server, tld, 2048, FaultScript::default(), vec![]);
    assert_eq!(bootstrap(&mut narrow).unwrap(), head);
    assert!(narrow.snapshot_chunks_received() > chunks_per_joiner, "smaller chunks, more of them");
    assert_eq!(server.stats().snapshot_trains_encoded, 2, "an own chunk size bypasses the cache");

    let mut late = raw_joiner(&server, tld, MAX_FRAME_LEN, FaultScript::default(), vec![]);
    assert_eq!(bootstrap(&mut late).unwrap(), head);
    assert_eq!(server.stats().snapshot_trains_encoded, 2, "the bypass must not evict the train");
    wait_for("every bootstrap flushed", || server.stats().snapshots_sent == 7);
    server.shutdown();
}

#[test]
fn checkpoint_advance_replaces_the_cached_train() {
    // The cache follows the checkpoint: once the shard seals a newer
    // one, the next joiner is served (and the cache refilled with) the
    // new capture's train — never the stale bytes.
    let tld = TldId(0);
    let config = BrokerConfig {
        retention: darkdns::broker::RetentionConfig::new(4, 2),
        ..BrokerConfig::default()
    };
    let root = Broker::new(config);
    root.add_shard(tld, populated_snap(300));
    let server = chunky_server_over(&root);

    let mut first = raw_joiner(&server, tld, MAX_FRAME_LEN, FaultScript::default(), vec![]);
    assert_eq!(bootstrap(&mut first).unwrap().serial(), Serial::new(5));
    assert_eq!(server.stats().snapshot_trains_encoded, 1);

    // Two publishes: the checkpoint refreshes to the head at serial 7.
    root.publish(tld, add_delta("new6.com"), Serial::new(6), SimTime::ZERO);
    root.publish(tld, add_delta("new7.com"), Serial::new(7), SimTime::ZERO);
    let head = root.head(tld).unwrap();
    assert_eq!(head.serial(), Serial::new(7));

    for _ in 0..3 {
        let mut joiner = raw_joiner(&server, tld, MAX_FRAME_LEN, FaultScript::default(), vec![]);
        let snapshot = bootstrap(&mut joiner).unwrap();
        assert_eq!(snapshot, head, "a joiner after the advance must get the new checkpoint");
        assert!(snapshot.contains(&name("new7.com")));
    }
    assert_eq!(
        server.stats().snapshot_trains_encoded,
        2,
        "one refill for the new checkpoint, shared by the joiners after it"
    );
    server.shutdown();
}

#[test]
fn resume_off_the_cached_boundaries_is_encoded_uncached_and_converges() {
    // Two replicas of one broker with different chunk sizes. A joiner
    // cut mid-train on the first fails over to the second carrying its
    // progress: a chunk boundary of the first replica's train, but not
    // of the train the second one has cached. The second replica must
    // honour the resume (not restart), by encoding the tail for that
    // connection alone — and keep its cached train for everyone else.
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, populated_snap(450));
    let head = root.head(tld).unwrap();
    let replica_a = server_with_chunk_bytes(&root, 512);
    let replica_b = server_with_chunk_bytes(&root, 700);

    // Warm B: its train is cached, and we learn its clean length.
    let mut clean = raw_joiner(&replica_b, tld, MAX_FRAME_LEN, FaultScript::default(), vec![]);
    assert_eq!(bootstrap(&mut clean).unwrap(), head);
    let b_chunks = clean.snapshot_chunks_received();
    assert_eq!(replica_b.stats().snapshot_trains_encoded, 1);

    // Three chunks from A, the fourth torn mid-frame.
    let cut = FaultScript::new([
        FrameFault::Deliver,
        FrameFault::Deliver,
        FrameFault::Deliver,
        FrameFault::TruncateAndCut(5),
    ]);
    let mut faulty = raw_joiner(&replica_a, tld, MAX_FRAME_LEN, cut, vec![]);
    assert!(bootstrap(&mut faulty).is_err(), "the first connection must die mid-train");
    assert_eq!(faulty.snapshot_chunks_received(), 3);
    let partials = faulty.take_snapshot_progress();
    assert_eq!(partials.len(), 1);
    let held = partials[0].entries_received();
    assert!(held > 0 && held < 450);

    let mut resumed = raw_joiner(&replica_b, tld, MAX_FRAME_LEN, FaultScript::default(), partials);
    assert_eq!(bootstrap(&mut resumed).unwrap(), head, "the resumed train must assemble the head");
    assert!(
        resumed.snapshot_chunks_received() < b_chunks,
        "B must resume past the {held} entries already held, not restart"
    );
    assert_eq!(
        replica_b.stats().snapshot_trains_encoded,
        2,
        "an off-boundary resume is encoded for that connection alone"
    );

    let mut late = raw_joiner(&replica_b, tld, MAX_FRAME_LEN, FaultScript::default(), vec![]);
    assert_eq!(bootstrap(&mut late).unwrap(), head);
    assert_eq!(late.snapshot_chunks_received(), b_chunks);
    assert_eq!(replica_b.stats().snapshot_trains_encoded, 2, "B's cached train survived");
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn partitioned_fleet_routed_view_fails_over_and_converges() {
    // A 60-TLD universe partitioned across three root brokers; the
    // first partition is served by two replicas (two servers over the
    // same broker). Killing the preferred replica mid-stream must fail
    // the route over to its sibling with exactly one fleet-wide resync
    // and no double-applied deltas anywhere.
    const FLEET: usize = 60;
    const PER_BROKER: usize = FLEET / 3;
    let fleet = synthetic_fleet(FLEET);
    let brokers: Vec<Broker> = (0..3).map(|_| Broker::new(BrokerConfig::default())).collect();
    let mut partitions: Vec<Vec<TldId>> = vec![Vec::new(); 3];
    for (i, cfg) in fleet.iter().enumerate() {
        let tld = TldId(i as u16);
        let part = i / PER_BROKER;
        brokers[part].add_shard(tld, empty_snap(&cfg.name));
        partitions[part].push(tld);
    }

    // Endpoints 0 and 1 are replicas of broker 0; endpoints 2 and 3
    // serve brokers 1 and 2.
    let eps = Endpoints::new(vec![
        server_over(&brokers[0]),
        server_over(&brokers[0]),
        server_over(&brokers[1]),
        server_over(&brokers[2]),
    ]);
    let mut map = EndpointMap::new();
    map.add_route(partitions[0].clone(), vec![0usize, 1]);
    map.add_route(partitions[1].clone(), vec![2]);
    map.add_route(partitions[2].clone(), vec![3]);
    let all_tlds = map.tlds();
    assert_eq!(all_tlds.len(), FLEET);

    let mut view = RoutedZoneView::connect(map, eps.dialer()).unwrap();
    // Serial 1 everywhere, pumped live.
    for (part, broker) in brokers.iter().enumerate() {
        for &tld in &partitions[part] {
            broker.publish(tld, add_delta(&format!("d1.{}", fleet[tld.0 as usize].name)),
                Serial::new(1), SimTime::ZERO);
        }
    }
    let targets: Vec<_> = all_tlds.iter().map(|&t| (t, Serial::new(1))).collect();
    assert!(view.pump_until_serials(&targets, Duration::from_secs(30)));
    assert_eq!(view.failover_count(), 0);

    // Kill replica 0 of partition 0 mid-stream, then publish serial 2.
    eps.kill(0);
    for (part, broker) in brokers.iter().enumerate() {
        for &tld in &partitions[part] {
            broker.publish(tld, add_delta(&format!("d2.{}", fleet[tld.0 as usize].name)),
                Serial::new(2), SimTime::ZERO);
        }
    }
    let targets: Vec<_> = all_tlds.iter().map(|&t| (t, Serial::new(2))).collect();
    assert!(
        view.pump_until_serials(&targets, Duration::from_secs(30)),
        "fleet failed to converge after replica failover"
    );
    for &tld in &all_tlds {
        let part = (tld.0 as usize) / PER_BROKER;
        assert_view_matches_head(view.view(), &brokers[part], tld);
    }
    assert!(view.failover_count() >= 1, "the dead replica must be failed over");
    assert_eq!(view.view().resync_count(), 1, "one fault, one fleet-wide resync");
    assert_eq!(
        view.view().frames_applied(),
        2 * FLEET as u64,
        "every serial applied exactly once across the whole fleet"
    );
    assert_eq!(view.view().snapshots_adopted(), FLEET as u64, "failover healed by deltas");
    assert!(view.is_connected());
    for server in &eps.servers {
        server.shutdown();
    }
}

#[test]
fn routed_edge_feed_fails_over_and_keeps_answering() {
    // The edge-tier sibling: a RoutedEdgeFeed over two replicas of one
    // root. Killing the preferred replica must fail over, keep the
    // index live, and leave membership answers exactly as fresh as the
    // root head.
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, empty_snap("com"));
    let eps = Endpoints::new(vec![server_over(&root), server_over(&root)]);
    let mut map = EndpointMap::new();
    map.add_route(vec![tld], vec![0usize, 1]);

    let index = Arc::new(EdgeIndex::new(EdgeIndexConfig::default()));
    let mut feed = RoutedEdgeFeed::connect(map, eps.dialer(), Arc::clone(&index)).unwrap();
    for i in 1..=3u32 {
        root.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    assert!(feed.pump_until_serials(&[(tld, Serial::new(3))], Duration::from_secs(30)));

    eps.kill(0);
    for i in 4..=6u32 {
        root.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    assert!(
        feed.pump_until_serials(&[(tld, Serial::new(6))], Duration::from_secs(30)),
        "edge feed failed to converge after replica failover"
    );
    assert!(feed.failover_count() >= 1);
    assert_eq!(feed.view().resync_count(), 1);
    assert_eq!(feed.view().frames_applied(), 6, "no double-applied deltas through failover");
    let epoch = index.load();
    for i in 1..=6u32 {
        assert!(
            epoch.contains(tld, &name(&format!("d{i}.com"))),
            "d{i}.com missing from the post-failover epoch"
        );
    }
    assert!(!epoch.contains(tld, &name("never.com")));
    for server in &eps.servers {
        server.shutdown();
    }
}

#[test]
fn depth_three_chain_converges_with_verbatim_frames() {
    // Root → relay A → relay B → leaf: the longest chain `rzu_bench`'s
    // `relay_chain` runs. The leaf's frames must still be the root's
    // bytes, and a clean chain must never resync at any tier.
    const PUSHES: u32 = 5;
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, empty_snap("com"));
    let root_server = server_over(&root);

    let broker_a = Broker::new(BrokerConfig::default());
    let server_a = server_over(&broker_a);
    let relay_a = server_a.attach_upstream(vec![tld], relay_dialer(&root_server, vec![]));
    wait_for("relay A bootstrap", || relay_a.stats().snapshots_installed == 1);

    let broker_b = Broker::new(BrokerConfig::default());
    let server_b = server_over(&broker_b);
    let relay_b = server_b.attach_upstream(vec![tld], relay_dialer(&server_a, vec![]));
    wait_for("relay B bootstrap", || relay_b.stats().snapshots_installed == 1);

    let mut leaf = leaf_dialer(&server_b, vec![])(&[(tld, Some(Serial::new(0)))]).unwrap();
    for i in 1..=PUSHES {
        root.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i),
            SimTime::from_secs(u64::from(i)));
    }
    let frames = collect_delta_frames(&mut leaf, PUSHES as usize);
    let origin = name("com");
    for i in 1..=PUSHES {
        let head_delta = add_delta(&format!("d{i}.com"));
        let expected = encode_delta_push(
            &origin,
            Serial::new(i - 1),
            Serial::new(i),
            SimTime::from_secs(u64::from(i)),
            &head_delta,
        );
        assert_eq!(
            frames.get(&i).expect("frame seen at depth 3").as_slice(),
            &*expected,
            "depth-3 frame for serial {i} diverged from the root encoding"
        );
    }
    assert_eq!(relay_a.stats().resyncs + relay_b.stats().resyncs, 0);
    assert_eq!(relay_a.stats().frames_relayed, u64::from(PUSHES));
    assert_eq!(relay_b.stats().frames_relayed, u64::from(PUSHES));
    server_b.shutdown();
    server_a.shutdown();
    root_server.shutdown();
}

#[test]
fn relay_with_a_dead_upstream_backs_off_shuts_down_promptly_and_heals_when_it_returns() {
    // The relay drives the shared upstream link, so a refused dial
    // sidelines its one upstream on the shared ladder (50 ms doubling
    // to 2 s). Three things must hold while the upstream is down: the
    // dial rate is bounded by the ladder, not by the loop; the relay
    // waits the window out in stop-flag-sized slices, so shutdown()
    // joins without sitting through a whole window; and a returning
    // upstream is found again without restarting the relay.
    let tld = TldId(0);
    let root = Broker::new(BrokerConfig::default());
    root.add_shard(tld, empty_snap("com"));
    let root_server = server_over(&root);
    let down = Arc::new(AtomicBool::new(true));
    let dialer = |server: &BrokerServer| {
        let down = Arc::clone(&down);
        let mut dial = relay_dialer(server, vec![]);
        move || if down.load(Ordering::SeqCst) { Err(TransportError::Closed) } else { dial() }
    };

    let relay_server = server_over(&Broker::new(BrokerConfig::default()));
    let relay = relay_server.attach_upstream(vec![tld], dialer(&root_server));
    // Four refusals take 50 + 100 + 200 = 350 ms of windows; the fifth
    // dial is then at least 400 ms away.
    wait_for("the ladder to climb", || relay.stats().dial_failures >= 4);
    assert_eq!(relay.stats().connects, 0);
    let climbed = Instant::now();
    std::thread::sleep(Duration::from_millis(100));
    assert!(relay.stats().dial_failures <= 6, "a dead upstream is dialled at the ladder's rate");
    down.store(false, Ordering::SeqCst);
    wait_for("the relay to find the returned upstream", || relay.is_connected());
    assert!(climbed.elapsed() < Duration::from_secs(3), "found within the ladder's ceiling");
    let stats = relay.stats();
    assert_eq!((stats.connects, stats.resyncs), (1, 0), "a late bootstrap is not a resync");
    relay_server.shutdown();

    // A relay parked in a long backoff window (the sixth refusal's is
    // 1.6 s) still joins within a few 50 ms stop-flag polls.
    down.store(true, Ordering::SeqCst);
    let parked_server = server_over(&Broker::new(BrokerConfig::default()));
    let parked = parked_server.attach_upstream(vec![tld], dialer(&root_server));
    wait_for("a window far longer than the stop poll", || parked.stats().dial_failures >= 6);
    let started = Instant::now();
    parked_server.shutdown();
    assert!(
        started.elapsed() < Duration::from_millis(800),
        "shutdown waited out a backoff window ({:?})",
        started.elapsed()
    );
    root_server.shutdown();
}
