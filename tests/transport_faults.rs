//! Fault-injection harness for the broker's socket transport.
//!
//! Every test wires a real [`BrokerServer`] to a [`RemoteZoneView`]
//! consumer over the in-memory duplex pipe — the same framing state
//! machine and decoders as the TCP path — and injects scripted faults
//! at the frame boundary: mid-frame disconnects, corrupt and truncated
//! frames, duplicate deliveries, and a stalled reader that trips the
//! broker's slow-subscriber eviction. The invariants pinned throughout:
//!
//! * the consumer always converges to `Zone::from_snapshot` of the
//!   publisher's head, whatever the fault;
//! * `resync_count` equals exactly the number of injected faults (one
//!   reconnect-with-claims per fault, none spurious);
//! * no delta is ever applied twice (`frames_applied` matches the
//!   published serial range).
//!
//! The final tests run the identical logic over loopback TCP: a 3-TLD
//! publisher fanning out to 8 socket subscribers, one of which is
//! killed and reconnects mid-stream via its claims.

use darkdns::broker::transport::{
    duplex, fetch_stats, fetch_stats_deadline, ClientEvent, FaultInjectedConn, FaultScript,
    FrameConn, FrameFault, LengthPrefixed, PipeCutHandle, TransportClient, TransportError,
    MAX_FRAME_LEN, MAX_RING_FRAMES,
};
use darkdns::broker::{
    Broker, BrokerConfig, BrokerServer, OverflowPolicy, RetentionConfig, TransportConfig,
};
use darkdns::core::broker_view::RemoteZoneView;
use darkdns::dns::wire::{
    decode_snapshot_chunk, encode_snapshot_chunks, encode_stats_report, ServerStats, StatsReport,
    WireError,
};
use darkdns::dns::{DomainName, NsSet, Serial, Zone, ZoneDelta, ZoneSnapshot};
use darkdns::registry::tld::TldId;
use darkdns::sim::time::SimTime;
use std::net::{Shutdown, SocketAddr, TcpStream};
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

/// A pipe-backed dialer: each (re)connect builds a fresh duplex pipe,
/// hands the server end — wrapped in the fault injector with the next
/// scripted fault plan — to the server, and returns the connected
/// client. The most recent pipe's cut switch is published for tests
/// that partition the link from outside the script.
struct PipeNet {
    server: BrokerServer,
    scripts: Arc<Mutex<Vec<FaultScript>>>,
    last_cut: Arc<Mutex<Option<PipeCutHandle>>>,
    capacity: usize,
}

impl PipeNet {
    fn new(server: BrokerServer, scripts: Vec<FaultScript>) -> Self {
        PipeNet {
            server,
            scripts: Arc::new(Mutex::new(scripts)),
            last_cut: Arc::new(Mutex::new(None)),
            capacity: 1 << 16,
        }
    }

    fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    fn dialer(
        &self,
    ) -> impl FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError> {
        let server = self.server.clone();
        let scripts = Arc::clone(&self.scripts);
        let last_cut = Arc::clone(&self.last_cut);
        let capacity = self.capacity;
        move |claims| {
            let (client_end, server_end) = duplex(capacity);
            *last_cut.lock().unwrap() = Some(client_end.cut_handle());
            let script = {
                let mut scripts = scripts.lock().unwrap();
                if scripts.is_empty() { FaultScript::default() } else { scripts.remove(0) }
            };
            server.spawn_conn(FaultInjectedConn::new(server_end, MAX_FRAME_LEN, script));
            let mut conn = LengthPrefixed::new(client_end);
            conn.set_recv_timeout(Some(Duration::from_millis(5)))?;
            TransportClient::connect(conn, claims)
        }
    }

}

fn server_over(broker: &Broker) -> BrokerServer {
    let config = TransportConfig {
        writer_tick: Duration::from_millis(5),
        ..TransportConfig::default()
    };
    BrokerServer::new(broker.clone(), config)
}

/// Pump until the view matches every shard head (with the safety net).
fn pump_until_synced<D>(view: &mut RemoteZoneView<D>, broker: &Broker, tlds: &[TldId])
where
    D: FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError>,
{
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        view.pump(1024);
        let synced = tlds
            .iter()
            .all(|&t| view.view().serial(t) == broker.head(t).map(|h| h.serial()));
        if synced {
            return;
        }
        assert!(Instant::now() < deadline, "transport view failed to converge");
    }
}

/// The convergence pin: the consumer's snapshot reconstructs the same
/// zone as the publisher head.
fn assert_zone_converged<D>(view: &RemoteZoneView<D>, broker: &Broker, tld: TldId)
where
    D: FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError>,
{
    let head = broker.head(tld).expect("shard exists");
    let snap = view.view().snapshot(tld).expect("view bootstrapped");
    assert_eq!(snap.serial(), head.serial());
    let view_zone = Zone::from_snapshot(snap);
    let head_zone = Zone::from_snapshot(&head);
    assert_eq!(view_zone.len(), head_zone.len());
    assert_eq!(
        ZoneSnapshot::capture(&view_zone, head.taken_at()),
        ZoneSnapshot::capture(&head_zone, head.taken_at()),
        "zone reconstructed over the transport diverged from the publisher head"
    );
}

/// One-TLD scaffold: broker + server + connected remote view, with the
/// first connection's faults scripted.
fn one_tld_rig(
    config: BrokerConfig,
    scripts: Vec<FaultScript>,
) -> (Broker, BrokerServer, PipeNet) {
    let broker = Broker::new(config);
    broker.add_shard(TldId(0), empty_snap("com"));
    let server = server_over(&broker);
    let net = PipeNet::new(server.clone(), scripts);
    (broker, server, net)
}

#[test]
fn mid_frame_disconnect_reconnects_with_claims() {
    // Frame sequence on connection 0: snapshot bootstrap, then deltas.
    // The third protocol frame (delta serial 2) is cut mid-payload.
    let script = FaultScript::new([
        FrameFault::Deliver,           // snapshot bootstrap
        FrameFault::Deliver,           // delta 1
        FrameFault::TruncateAndCut(5), // delta 2: torn mid-frame
    ]);
    let (broker, server, net) = one_tld_rig(BrokerConfig::default(), vec![script]);
    let mut view = RemoteZoneView::connect(&[TldId(0)], net.dialer()).unwrap();
    wait_for("handshake", || server.stats().handshakes == 1);
    for i in 1..=6u32 {
        broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    pump_until_synced(&mut view, &broker, &[TldId(0)]);
    assert_zone_converged(&view, &broker, TldId(0));
    assert_eq!(view.view().resync_count(), 1, "exactly the injected fault heals");
    // Every serial applied exactly once: the torn delta was re-served
    // by the claims catch-up, never double-applied.
    assert_eq!(view.view().frames_applied(), 6);
    assert_eq!(view.view().snapshots_adopted(), 1, "reconnect used deltas, not a snapshot");
    assert_eq!(broker.stats().delta_catchups, 1);
    server.shutdown();
}

#[test]
fn corrupt_frame_is_rejected_and_healed_by_resync() {
    let script = FaultScript::new([
        FrameFault::Deliver,        // snapshot bootstrap
        FrameFault::CorruptByte(9), // delta 1 arrives framed but garbled
    ]);
    let (broker, server, net) = one_tld_rig(BrokerConfig::default(), vec![script]);
    let mut view = RemoteZoneView::connect(&[TldId(0)], net.dialer()).unwrap();
    wait_for("handshake", || server.stats().handshakes == 1);
    for i in 1..=4u32 {
        broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    pump_until_synced(&mut view, &broker, &[TldId(0)]);
    assert_zone_converged(&view, &broker, TldId(0));
    assert_eq!(view.view().resync_count(), 1);
    assert_eq!(view.view().frames_applied(), 4, "corrupt frame re-served exactly once");
    server.shutdown();
}

#[test]
fn duplicate_delivery_is_never_applied_twice() {
    let script = FaultScript::new([
        FrameFault::Deliver,   // snapshot bootstrap
        FrameFault::Duplicate, // delta 1 delivered twice
    ]);
    let (broker, server, net) = one_tld_rig(BrokerConfig::default(), vec![script]);
    let mut view = RemoteZoneView::connect(&[TldId(0)], net.dialer()).unwrap();
    wait_for("handshake", || server.stats().handshakes == 1);
    for i in 1..=3u32 {
        broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    pump_until_synced(&mut view, &broker, &[TldId(0)]);
    assert_zone_converged(&view, &broker, TldId(0));
    // The replayed frame was detected (non-chaining serial), the view
    // reconnected with claims, and each serial applied exactly once.
    assert_eq!(view.view().resync_count(), 1);
    assert_eq!(view.view().frames_applied(), 3);
    let mut nrds = Vec::new();
    view.view_mut().drain_new_domains(&mut nrds);
    assert_eq!(nrds.len(), 3, "a duplicated delta must not duplicate zone NRDs");
    nrds.sort_unstable();
    nrds.dedup();
    assert_eq!(nrds.len(), 3, "zone NRD log must hold three distinct domains");
    server.shutdown();
}

#[test]
fn stalled_reader_is_evicted_and_recovers_via_claims() {
    // A tiny pipe (simulating a full TCP send buffer) plus a tiny live
    // queue bound under Evict: the consumer stops reading, the writer
    // wedges, the broker evicts, the writer reports RZUE and closes,
    // and the reconnect-with-claims heals the gap.
    let config = BrokerConfig {
        retention: RetentionConfig::new(64, 16),
        subscriber_capacity: 2,
        overflow: OverflowPolicy::Evict,
        ..BrokerConfig::default()
    };
    let (broker, server, net) = one_tld_rig(config, vec![]);
    let net = net.with_capacity(256);
    let mut view = RemoteZoneView::connect(&[TldId(0)], net.dialer()).unwrap();
    wait_for("handshake", || server.stats().handshakes == 1);
    // Apply the bootstrap so the stall happens mid-stream, not at join.
    wait_for("bootstrap", || {
        view.pump(64);
        view.view().serial(TldId(0)).is_some()
    });
    // The reader now stalls (no pumping) while the publisher floods: the
    // pipe fills, the writer blocks, the live queue overflows, eviction.
    // More pushes than the outbound ring (32 frames), the 256-byte pipe
    // and the 2-slot queue hold between them, so the overflow happens
    // even when the reactor drains every push the moment it lands (30
    // pushes fit, and on a loaded host occasionally did: no eviction,
    // and the wait below timed out).
    for i in 1..=48u32 {
        broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    wait_for("eviction", || broker.stats().evictions == 1);
    // Resume reading: drain the stale frames, observe the eviction
    // notice, reconnect with claims, converge.
    pump_until_synced(&mut view, &broker, &[TldId(0)]);
    assert_zone_converged(&view, &broker, TldId(0));
    assert_eq!(view.view().resync_count(), 1, "one eviction, one resync");
    assert_eq!(view.view().frames_applied(), 48, "every serial applied exactly once");
    assert_eq!(server.stats().evict_notices, 1, "writer announced the eviction explicitly");
    server.shutdown();
}

#[test]
fn a_storm_of_distinct_faults_heals_one_resync_each() {
    // Four connection generations, each killed by a different fault;
    // generation 4 is clean. resync_count must land on exactly 4.
    let scripts = vec![
        FaultScript::new([FrameFault::Deliver, FrameFault::TruncateAndCut(2)]),
        FaultScript::new([FrameFault::Deliver, FrameFault::CorruptByte(0)]),
        FaultScript::new([FrameFault::Duplicate]),
        FaultScript::new([FrameFault::CutBefore]),
        FaultScript::default(),
    ];
    let (broker, server, net) = one_tld_rig(BrokerConfig::default(), scripts);
    let mut view = RemoteZoneView::connect(&[TldId(0)], net.dialer()).unwrap();
    wait_for("handshake", || server.stats().handshakes == 1);
    let mut serial = 0u32;
    for round in 0..4u32 {
        for _ in 0..3 {
            serial += 1;
            broker.publish(
                TldId(0),
                add_delta(&format!("d{serial}.com")),
                Serial::new(serial),
                SimTime::ZERO,
            );
        }
        // Drive until this round's fault has been observed and healed.
        // A single pump can heal fault N and immediately trip fault
        // N+1 (the next generation's scripted fault rides the catch-up
        // frames), so the count may legitimately run ahead of the
        // round; it can never exceed the scripted total.
        wait_for("fault healed", || {
            view.pump(256);
            view.view().resync_count() >= u64::from(round) + 1
        });
    }
    pump_until_synced(&mut view, &broker, &[TldId(0)]);
    assert_zone_converged(&view, &broker, TldId(0));
    assert_eq!(view.view().resync_count(), 4, "one resync per injected fault");
    assert_eq!(view.view().frames_applied(), u64::from(serial));
    server.shutdown();
}

#[test]
fn hello_claiming_unknown_tld_is_rejected() {
    let (broker, server, net) = one_tld_rig(BrokerConfig::default(), vec![]);
    let mut dial = net.dialer();
    let mut client = dial(&[(TldId(77), None)]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.next_event() {
            darkdns::broker::ClientEvent::Closed(_) => break,
            darkdns::broker::ClientEvent::Idle => {
                assert!(Instant::now() < deadline, "rejection never surfaced");
            }
            other => panic!("unexpected event from a rejected hello: {other:?}"),
        }
    }
    wait_for("rejection counted", || server.stats().rejected_hellos == 1);
    assert_eq!(broker.subscriber_count(), 0);
    server.shutdown();
}

#[test]
fn a_continuation_chunk_that_changes_the_trains_header_is_refused() {
    // Two captures of the same entries, a minute apart: chunk 0 of the
    // first and chunk 1 of the second tile the entry range exactly, and
    // differ only in `taken_at`. The second chunk is not a continuation
    // of the first train, so the client must close rather than assemble
    // a snapshot that carries chunk 0's header over chunk 1's capture.
    let entries: Vec<_> = (0..40)
        .map(|i| (name(&format!("d{i:03}.com")), vec![name("ns1.provider0.net")]))
        .collect();
    let capture = |taken_at| {
        let snap = ZoneSnapshot::from_entries(name("com"), Serial::new(7), taken_at, entries.clone());
        // Two thirds of the one-chunk encoding: exactly two chunks.
        let whole = encode_snapshot_chunks(0, &snap, 0, usize::MAX)[0].len();
        encode_snapshot_chunks(0, &snap, 0, whole * 2 / 3)
    };
    let (early, late) = (capture(SimTime::from_secs(60)), capture(SimTime::from_secs(120)));
    assert_eq!((early.len(), late.len()), (2, 2));

    let (client_end, peer_end) = duplex(1 << 16);
    let mut peer = LengthPrefixed::new(peer_end);
    peer.send_frame(&[&early[0]]).expect("chunk 0");
    peer.send_frame(&[&late[1]]).expect("chunk 1, another capture");
    let mut conn = LengthPrefixed::new(client_end);
    conn.set_recv_timeout(Some(Duration::from_millis(5))).unwrap();
    let mut client = TransportClient::connect(conn, &[(TldId(0), None)]).expect("hello");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.next_event() {
            ClientEvent::Closed(TransportError::Wire(WireError::BadChunk { offset, .. })) => {
                assert_ne!(offset, 0, "refused at the continuation, not at the start");
                break;
            }
            ClientEvent::Idle => assert!(Instant::now() < deadline, "the train was never refused"),
            other => panic!("a spliced train must close with BadChunk, got {other:?}"),
        }
    }
    // What was good of it stays salvageable: chunk 0, at its boundary.
    let progress = client.take_snapshot_progress();
    assert_eq!(progress.len(), 1);
    assert_eq!(
        progress[0].entries_received(),
        decode_snapshot_chunk(&early[0]).unwrap().entries.len()
    );
}

// ---------------------------------------------------------------------
// Loopback TCP: the acceptance scenario.
// ---------------------------------------------------------------------

/// A TCP dialer that remembers a clone of the latest socket so a test
/// can kill the connection from outside (simulating a crashed link).
fn tcp_dialer(
    addr: SocketAddr,
    kill: Arc<Mutex<Option<TcpStream>>>,
) -> impl FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError> {
    move |claims| {
        let stream = TcpStream::connect(addr).map_err(TransportError::Io)?;
        stream.set_nodelay(true).map_err(TransportError::Io)?;
        *kill.lock().unwrap() = Some(stream.try_clone().map_err(TransportError::Io)?);
        let mut conn = LengthPrefixed::new(stream);
        conn.set_recv_timeout(Some(Duration::from_millis(5)))?;
        TransportClient::connect(conn, claims)
    }
}

#[test]
fn tcp_fan_out_three_tlds_eight_subscribers_with_mid_stream_kill() {
    const TLDS: usize = 3;
    const SUBS: usize = 8;
    const PUSHES_PER_TLD: u32 = 10;

    let broker = Broker::new(BrokerConfig::default());
    let origins = ["com", "net", "org"];
    let tlds: Vec<TldId> = (0..TLDS).map(|k| TldId(k as u16)).collect();
    for (k, &tld) in tlds.iter().enumerate() {
        broker.add_shard(tld, empty_snap(origins[k]));
    }
    let server = server_over(&broker);
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");

    let kills: Vec<Arc<Mutex<Option<TcpStream>>>> =
        (0..SUBS).map(|_| Arc::new(Mutex::new(None))).collect();
    let mut views: Vec<_> = kills
        .iter()
        .map(|kill| {
            RemoteZoneView::connect(&tlds, tcp_dialer(addr, Arc::clone(kill)))
                .expect("tcp connect")
        })
        .collect();
    wait_for("all handshakes", || server.stats().handshakes == SUBS as u64);

    // First half of the stream, pumped live by all subscribers.
    for i in 1..=PUSHES_PER_TLD / 2 {
        for (k, &tld) in tlds.iter().enumerate() {
            broker.publish(
                tld,
                add_delta(&format!("d{i}.{}", origins[k])),
                Serial::new(i),
                SimTime::from_secs(u64::from(i)),
            );
        }
        for view in &mut views {
            view.pump(256);
        }
    }

    // Kill subscriber 0's socket mid-stream, then keep publishing.
    kills[0].lock().unwrap().take().expect("live socket").shutdown(Shutdown::Both).unwrap();
    for i in PUSHES_PER_TLD / 2 + 1..=PUSHES_PER_TLD {
        for (k, &tld) in tlds.iter().enumerate() {
            broker.publish(
                tld,
                add_delta(&format!("d{i}.{}", origins[k])),
                Serial::new(i),
                SimTime::from_secs(u64::from(i)),
            );
        }
    }

    // Every subscriber — including the killed one — converges to the
    // head serials of all three shards.
    for view in &mut views {
        pump_until_synced(view, &broker, &tlds);
        for &tld in &tlds {
            assert_zone_converged(view, &broker, tld);
        }
        // No duplicate delta applications anywhere: each shard applied
        // exactly its serial range once (bootstrap snapshots at 0).
        assert_eq!(view.view().frames_applied(), u64::from(PUSHES_PER_TLD) * TLDS as u64);
        assert_eq!(view.view().snapshots_adopted(), TLDS as u64);
    }
    assert!(
        views[0].view().resync_count() >= 1,
        "the killed subscriber must heal via reconnect-with-claims"
    );
    for view in &views[1..] {
        assert_eq!(view.view().resync_count(), 0, "undisturbed subscribers never resync");
    }
    server.shutdown();
}

#[test]
fn tcp_late_joiner_bootstraps_from_checkpoint_over_the_wire() {
    // A subscriber that joins after the retention ring has rolled past
    // serial 0 must get a checkpoint snapshot over the wire (catch-up
    // rule 3) and still reconstruct the exact zone.
    let config = BrokerConfig {
        retention: RetentionConfig::new(4, 2),
        ..BrokerConfig::default()
    };
    let broker = Broker::new(config);
    broker.add_shard(TldId(0), empty_snap("com"));
    let server = server_over(&broker);
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");
    for i in 1..=20u32 {
        broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    let kill = Arc::new(Mutex::new(None));
    let mut view =
        RemoteZoneView::connect(&[TldId(0)], tcp_dialer(addr, kill)).expect("tcp connect");
    pump_until_synced(&mut view, &broker, &[TldId(0)]);
    assert_zone_converged(&view, &broker, TldId(0));
    assert_eq!(view.view().snapshots_adopted(), 1);
    assert!(view.view().frames_applied() <= 4, "only post-checkpoint deltas travel as frames");
    assert_eq!(view.view().resync_count(), 0);
    assert_eq!(broker.stats().snapshot_catchups, 1);
    server.shutdown();
}

#[test]
fn catchup_backlog_is_coalesced_into_batched_writes() {
    // Six deltas are queued as one catch-up backlog during the
    // handshake, strictly before the writer loop starts, so the
    // writer's first wakeup deterministically finds the whole run and
    // must emit it as one syscall batch — counted per server and
    // credited per shard — while the client decodes six ordinary
    // frames (batching is invisible on the wire).
    let broker = Broker::new(BrokerConfig::default());
    broker.add_shard(TldId(0), empty_snap("com"));
    let server = server_over(&broker);
    for i in 1..=6u32 {
        broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    // A fault-free pipe dialer, so the server side runs the real
    // single-buffer batch write (not the fault injector's per-frame
    // fallback).
    let dial_server = server.clone();
    let mut view = RemoteZoneView::connect(&[TldId(0)], move |claims| {
        let (client_end, server_end) = duplex(1 << 16);
        dial_server.spawn_conn(LengthPrefixed::new(server_end));
        let mut conn = LengthPrefixed::new(client_end);
        conn.set_recv_timeout(Some(Duration::from_millis(5)))?;
        TransportClient::connect(conn, claims)
    })
    .expect("connect");
    pump_until_synced(&mut view, &broker, &[TldId(0)]);
    assert_zone_converged(&view, &broker, TldId(0));
    assert_eq!(view.view().frames_applied(), 6);
    let stats = server.stats();
    assert!(stats.coalesced_writes >= 1, "backlog must coalesce: {stats:?}");
    assert!(stats.coalesced_frames >= 5, "five frames ride behind the first: {stats:?}");
    assert_eq!(stats.deltas_sent, 6);
    let shard = broker.shard_stats(TldId(0)).expect("shard");
    assert!(shard.coalesced_frames >= 5, "per-shard coalesce credit missing: {shard:?}");
    server.shutdown();
}

#[test]
fn stats_query_round_trips_and_counts_itself() {
    // An `RZUQ` scrape connection gets the server counters plus one
    // row per shard — including the query being answered — and never
    // joins the subscriber stream.
    let broker = Broker::new(BrokerConfig::default());
    broker.add_shard(TldId(0), empty_snap("com"));
    broker.add_shard(TldId(1), empty_snap("net"));
    let server = server_over(&broker);
    for i in 1..=3u32 {
        broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    // One live subscriber so the report has a handshake to show.
    let (sub_end, sub_server_end) = duplex(1 << 16);
    server.spawn_conn(LengthPrefixed::new(sub_server_end));
    let mut sub_conn = LengthPrefixed::new(sub_end);
    sub_conn.set_recv_timeout(Some(Duration::from_millis(5))).expect("timeout");
    let sub = TransportClient::connect(sub_conn, &[(TldId(0), Some(Serial::new(0)))])
        .expect("hello");
    wait_for("subscriber handshake", || server.stats().handshakes == 1);
    // Barrier on the subscriber's async writer: every counter the
    // scrape will report (deltas_sent, the coalesced pair, per-shard
    // credits) has settled once all three catch-up deltas are out, so
    // the wire report and the later in-process report compare equal
    // deterministically.
    wait_for("catch-up deltas written", || server.stats().deltas_sent == 3);

    let (scrape_end, scrape_server_end) = duplex(1 << 16);
    server.spawn_conn(LengthPrefixed::new(scrape_server_end));
    let report = fetch_stats(LengthPrefixed::new(scrape_end)).expect("scrape");
    assert_eq!(report.server.handshakes, 1, "the subscriber, not the scrape");
    assert_eq!(report.server.stats_queries, 1, "the reply counts its own query");
    assert_eq!(report.server.rejected_hellos, 0);
    assert_eq!(report.shards.len(), 2);
    let com = report.shards.iter().find(|s| s.tld == 0).expect("com row");
    assert_eq!(com.pushes, 3);
    assert_eq!(com.head_serial, Serial::new(3));
    assert_eq!(com.subscribers, 1);
    let net = report.shards.iter().find(|s| s.tld == 1).expect("net row");
    assert_eq!(net.pushes, 0);
    // One per-subscriber row: the live subscriber, not the scrape. Its
    // claims have advanced to the last delta it verifiably received,
    // its queue is drained, and nothing was dropped on it.
    assert_eq!(report.subs.len(), 1, "one live subscriber row: {:?}", report.subs);
    let row = &report.subs[0];
    assert_eq!(row.queue_depth, 0, "queue drained after catch-up: {row:?}");
    assert_eq!(row.lag_drops, 0);
    assert_eq!(row.buffered_bytes, 0, "ring flushed: {row:?}");
    assert!(row.coalesced_frames >= 2, "catch-up run rode coalesced writes: {row:?}");
    assert_eq!(row.claims.len(), 1);
    assert_eq!(row.claims[0].tld, 0);
    assert_eq!(row.claims[0].from_serial, Some(Serial::new(3)));
    // The in-process report surface agrees with the wire round trip
    // (modulo the counters the scrape itself just moved).
    let local = server.stats_report();
    assert_eq!(local.shards, report.shards);
    assert_eq!(local.server, report.server);
    drop(sub);
    server.shutdown();
}

#[test]
fn stats_probe_reads_the_report_behind_heartbeats() {
    // Heartbeats ahead of the report are skipped, not mistaken for it:
    // the probe returns the report a slow peer eventually sends.
    let (probe_end, peer_end) = duplex(1 << 16);
    let report = StatsReport {
        server: ServerStats { accepted: 3, stats_queries: 1, ..Default::default() },
        ..Default::default()
    };
    let peer = std::thread::spawn({
        let frame = encode_stats_report(&report);
        move || {
            let mut conn = LengthPrefixed::new(peer_end);
            assert_eq!(&conn.recv_frame().expect("query")[..], b"RZUQ");
            for _ in 0..3 {
                conn.send_frame(&[]).expect("heartbeat");
            }
            conn.send_frame(&[&frame]).expect("report");
        }
    });
    let got = fetch_stats_deadline(LengthPrefixed::new(probe_end), Duration::from_secs(30));
    peer.join().expect("peer thread");
    assert_eq!(got.expect("report behind heartbeats"), report);
}

/// Probe a peer that takes the `RZUQ` query and never sends the report
/// — it answers with heartbeats only, or with nothing at all — on a
/// connection with no receive timeout of its own: the only way out is
/// the probe's 100 ms deadline. The probe inside `UpstreamLink::connect`
/// runs on the failover path; it must give up at that deadline whatever
/// the peer does.
fn probe_a_peer_that_never_reports(heartbeats: bool) {
    let (probe_end, peer_end) = duplex(1 << 16);
    let stop = Arc::new(AtomicBool::new(false));
    let peer = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let mut conn = LengthPrefixed::new(peer_end);
            assert_eq!(&conn.recv_frame().expect("query")[..], b"RZUQ");
            // Either way the pipe stays open until the test is done.
            while !stop.load(Ordering::Relaxed) && (!heartbeats || conn.send_frame(&[]).is_ok()) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let probe = std::thread::spawn(move || {
        let conn = LengthPrefixed::new(probe_end);
        let started = Instant::now();
        let outcome = fetch_stats_deadline(conn, Duration::from_millis(100));
        let _ = done_tx.send((outcome, started.elapsed()));
    });
    // The wall-clock bound is the guard: a probe that never returns
    // fails the test here instead of hanging it.
    let outcome = done_rx.recv_timeout(Duration::from_secs(10));
    stop.store(true, Ordering::Relaxed);
    peer.join().expect("peer thread");
    let (outcome, took) = outcome.expect("the probe outlived its 100 ms deadline by 10 s");
    probe.join().expect("probe thread");
    assert!(matches!(outcome, Err(TransportError::TimedOut)), "expected TimedOut, got {outcome:?}");
    assert!(took >= Duration::from_millis(100), "gave up before its deadline: {took:?}");
}

#[test]
fn stats_probe_deadline_holds_against_a_heartbeat_only_peer() {
    // Every `recv_frame` succeeds, so a deadline looked at only on
    // receive timeouts never fires.
    probe_a_peer_that_never_reports(true);
}

#[test]
fn stats_probe_deadline_holds_against_a_silent_peer() {
    // No receive ever returns, so a deadline looked at only between
    // receives is never looked at again: it must bound the receive.
    probe_a_peer_that_never_reports(false);
}

/// Three shards with one ring-full of retained deltas each, replayed to
/// a client that claims serial 0 everywhere: how long from the HELLO to
/// the last of the 96 deltas, on a quiet broker (nothing enqueues after
/// the handshake, so no waker fires again). Over loopback TCP, not a
/// pipe: a pipe's ready hook fires on every client read, which would
/// re-service the connection and hide a stranded queue; a socket whose
/// ring flushed in one write raises no further event.
fn claims_replay_time(config: TransportConfig) -> Duration {
    const SHARDS: u16 = 3;
    let per_shard = MAX_RING_FRAMES as u32;
    let broker = Broker::new(BrokerConfig::default());
    for tld in 0..SHARDS {
        broker.add_shard(TldId(tld), empty_snap("com"));
        for i in 1..=per_shard {
            let delta = add_delta(&format!("d{i}.com"));
            broker.publish(TldId(tld), delta, Serial::new(i), SimTime::ZERO);
        }
    }
    let server = BrokerServer::new(broker.clone(), config);
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");
    let mut conn = LengthPrefixed::new(TcpStream::connect(addr).expect("dial loopback"));
    conn.set_recv_timeout(Some(Duration::from_millis(5))).expect("timeout");
    let claims: Vec<_> = (0..SHARDS).map(|tld| (TldId(tld), Some(Serial::new(0)))).collect();
    let started = Instant::now();
    let mut client = TransportClient::connect(conn, &claims).expect("hello");
    let mut deltas = 0;
    while deltas < u32::from(SHARDS) * per_shard {
        match client.next_event() {
            ClientEvent::Delta { .. } => deltas += 1,
            ClientEvent::Idle => {}
            other => panic!("replay stream broke after {deltas} deltas: {other:?}"),
        }
        if started.elapsed() > Duration::from_secs(5) {
            break; // stranded; the caller's bound reports it
        }
    }
    let took = started.elapsed();
    server.shutdown();
    took
}

#[test]
fn a_queue_longer_than_the_ring_drains_without_waiting_for_a_tick() {
    // `fill` stops at a full ring (32 frames) and the flush empties it
    // in one write; what is still queued must go out in the same
    // service, not one ring-full per idle-heartbeat sweep. With the
    // tick out of reach the whole replay arrives well inside it…
    let slow_tick = TransportConfig { writer_tick: Duration::from_secs(4), ..Default::default() };
    let took = claims_replay_time(slow_tick);
    assert!(took < Duration::from_secs(1), "3 × 32 deltas took {took:?} at a 4 s tick");
    // …and at the default tick (50 ms) it arrives in a fraction of one:
    // a strand costs two ticks here. Best of five, so a descheduled
    // test thread is not mistaken for one.
    let best = (0..5).map(|_| claims_replay_time(TransportConfig::default())).min();
    assert!(best < Some(Duration::from_millis(25)), "3 × 32 deltas took {best:?} at best");
}

#[test]
fn frame_bound_is_exact_and_never_silently_truncates() {
    // The frame-bound contract at the boundary itself: a frame of
    // exactly `max` bytes passes whole, one byte more is a typed
    // `FrameTooLarge` error — never a panic, never a partial write —
    // and the connection stays usable afterwards.
    const MAX: usize = 64;
    let (a, b) = duplex(1 << 12);
    let mut tx = LengthPrefixed::with_max(a, MAX);
    let mut rx = LengthPrefixed::with_max(b, MAX);
    let exact = vec![0xA5u8; MAX];
    tx.send_frame(&[&exact]).expect("a frame at the exact bound must pass");
    assert_eq!(&*rx.recv_frame().unwrap(), &exact[..]);

    let over = vec![0x5Au8; MAX + 1];
    match tx.send_frame(&[&over]) {
        Err(TransportError::FrameTooLarge { declared, max }) => {
            assert_eq!(declared, MAX + 1);
            assert_eq!(max, MAX);
        }
        other => panic!("one past the bound must be FrameTooLarge, got {other:?}"),
    }
    // A composed frame (envelope + payload) is bounded by its total,
    // not its largest part.
    match tx.send_frame(&[&exact[..32], &exact[..33]]) {
        Err(TransportError::FrameTooLarge { declared, max }) => {
            assert_eq!(declared, MAX + 1);
            assert_eq!(max, MAX);
        }
        other => panic!("composed overflow must be FrameTooLarge, got {other:?}"),
    }
    // Nothing partial hit the wire: the next exact-bound frame is
    // delivered intact.
    tx.send_frame(&[&exact[..32], &exact[..32]]).expect("still usable after the refusal");
    assert_eq!(&*rx.recv_frame().unwrap(), &exact[..]);

    // The receive side enforces the same bound on a hostile peer's
    // declared length, refusing before sizing any allocation from it.
    let (c, d) = duplex(1 << 12);
    let mut wide_tx = LengthPrefixed::with_max(c, MAX * 4);
    let mut narrow_rx = LengthPrefixed::with_max(d, MAX);
    wide_tx.send_frame(&[&over]).expect("the wide side may send it");
    match narrow_rx.recv_frame() {
        Err(TransportError::FrameTooLarge { declared, max }) => {
            assert_eq!(declared, MAX + 1);
            assert_eq!(max, MAX);
        }
        other => panic!("oversized declared length must be refused, got {other:?}"),
    }
}

#[test]
fn tcp_reconnect_storm_converges_on_one_reactor_thread() {
    // A CI-sized fleet (200 subscribers by default; `DARKDNS_STORM_SUBS`
    // scales it) over loopback TCP. Half the fleet is killed at once and
    // the whole storm reconnects-with-claims against the single reactor
    // thread. Pinned: every view converges to the exact head serial, the
    // killed half resyncs exactly once and heals by pure delta catch-up
    // (no second snapshot), the surviving half never resyncs, and the
    // transport thread count stays 1 regardless of fleet size.
    let subs: usize = std::env::var("DARKDNS_STORM_SUBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    const PUSHES_BEFORE: u32 = 5;
    const PUSHES_AFTER: u32 = 5;

    let broker = Broker::new(BrokerConfig {
        retention: RetentionConfig::new(64, 16),
        ..BrokerConfig::default()
    });
    let tld = TldId(0);
    broker.add_shard(tld, empty_snap("com"));
    let server = server_over(&broker);
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");

    let kills: Vec<Arc<Mutex<Option<TcpStream>>>> =
        (0..subs).map(|_| Arc::new(Mutex::new(None))).collect();
    let mut views: Vec<_> = kills
        .iter()
        .map(|kill| {
            RemoteZoneView::connect(&[tld], tcp_dialer(addr, Arc::clone(kill)))
                .expect("tcp connect")
        })
        .collect();
    wait_for("all handshakes", || server.stats().handshakes == subs as u64);
    assert_eq!(server.transport_threads(), 1, "one reactor thread for the whole fleet");

    for i in 1..=PUSHES_BEFORE {
        broker.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }
    for view in &mut views {
        pump_until_synced(view, &broker, &[tld]);
    }

    // The storm: sever every even-indexed subscriber's socket in one
    // burst, then keep publishing while the half-fleet reconnects.
    for kill in kills.iter().step_by(2) {
        kill.lock().unwrap().take().expect("live socket").shutdown(Shutdown::Both).unwrap();
    }
    for i in PUSHES_BEFORE + 1..=PUSHES_BEFORE + PUSHES_AFTER {
        broker.publish(tld, add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
    }

    for (k, view) in views.iter_mut().enumerate() {
        pump_until_synced(view, &broker, &[tld]);
        assert_zone_converged(view, &broker, tld);
        if k % 2 == 0 {
            assert_eq!(view.view().resync_count(), 1, "killed sub {k} heals in one resync");
        } else {
            assert_eq!(view.view().resync_count(), 0, "surviving sub {k} never resyncs");
        }
        // Reconnect-with-claims lands inside the retention ring, so the
        // only snapshot each view ever adopts is its bootstrap.
        assert_eq!(view.view().snapshots_adopted(), 1, "sub {k} healed by pure delta catch-up");
        assert_eq!(
            view.view().frames_applied(),
            u64::from(PUSHES_BEFORE + PUSHES_AFTER),
            "sub {k} applied each serial exactly once"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.handshakes, subs as u64 + subs.div_ceil(2) as u64);
    assert_eq!(stats.rejected_hellos, 0);
    assert_eq!(server.transport_threads(), 1, "reconnect storm must not grow threads");
    // Every live connection shows up as a stats row with its claims at
    // the head serial. (Polled: the reactor books a completion a hair
    // after the client observes the frame.)
    let head_claim = darkdns::dns::wire::TldClaim {
        tld: 0,
        from_serial: Some(Serial::new(PUSHES_BEFORE + PUSHES_AFTER)),
    };
    wait_for("one head-serial stats row per live subscriber", || {
        let report = server.stats_report();
        report.subs.len() == subs
            && report.subs.iter().all(|row| row.claims == vec![head_claim])
    });
    server.shutdown();
}
