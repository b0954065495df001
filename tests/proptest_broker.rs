//! Property-based tests for the RZU distribution broker: a subscriber
//! joining at an arbitrary serial — whether served a delta replay or a
//! checkpoint-snapshot bootstrap — converges to exactly the publisher's
//! head, across arbitrary event interleavings, retention configs and
//! shard counts; and, with the per-shard lock layout, across genuinely
//! concurrent publisher threads pushing disjoint TLDs while subscribers
//! join mid-stream and a `BrokerZoneView` pumps live.

use darkdns::broker::{Broker, BrokerConfig, BrokerMessage, BrokerSubscription, RetentionConfig};
use darkdns::core::broker_view::BrokerZoneView;
use darkdns::dns::diff::sorted_merge_diff;
use darkdns::dns::{decode_delta_push, DomainName, Serial, Zone, ZoneSnapshot};
use darkdns::registry::tld::TldId;
use darkdns::sim::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random zone state: map from domain index to NS choice (0..3).
fn zone_state_strategy() -> impl Strategy<Value = BTreeMap<u16, u8>> {
    prop::collection::btree_map(0u16..120, 0u8..3, 0..40)
}

fn ns_host(choice: u8) -> DomainName {
    DomainName::parse(&format!("ns{choice}.provider.net")).unwrap()
}

fn snapshot_of(origin: &str, state: &BTreeMap<u16, u8>, serial: u32) -> ZoneSnapshot {
    let entries = state
        .iter()
        .map(|(i, ns)| {
            (DomainName::parse(&format!("d{i:04}.{origin}")).unwrap(), vec![ns_host(*ns)])
        })
        .collect();
    ZoneSnapshot::from_entries(
        DomainName::parse(origin).unwrap(),
        Serial::new(serial),
        SimTime::from_secs(u64::from(serial)),
        entries,
    )
}

/// Publish the state sequence into `tld`'s shard as chained deltas
/// (serial i moves the shard to `states[i]`). Returns the source
/// snapshots, index-aligned with serials.
fn publish_sequence(
    broker: &Broker,
    tld: TldId,
    origin: &str,
    states: &[BTreeMap<u16, u8>],
    upto: usize,
    from: usize,
) -> Vec<ZoneSnapshot> {
    let snaps: Vec<_> =
        (0..states.len()).map(|i| snapshot_of(origin, &states[i], i as u32)).collect();
    for i in from.max(1)..=upto {
        let delta = sorted_merge_diff(&snaps[i - 1], &snaps[i]);
        broker.publish(tld, delta, Serial::new(i as u32), SimTime::from_secs(i as u64));
    }
    snaps
}

/// Apply every queued message for `tld` onto `state`, checking serial
/// continuity, and return the final state.
fn replay_tld(sub: &BrokerSubscription, tld: TldId, mut state: ZoneSnapshot) -> ZoneSnapshot {
    for msg in sub.drain() {
        match msg {
            BrokerMessage::Snapshot { tld: t, snapshot } if t == tld => state = snapshot,
            BrokerMessage::Delta { tld: t, frame } if t == tld => {
                let push = decode_delta_push(&frame).expect("well-formed frame");
                assert_eq!(push.from_serial, state.serial(), "gap in replayed stream");
                state = push.delta.apply(&state, push.to_serial, push.pushed_at);
            }
            _ => {}
        }
    }
    state
}

/// Subscriber state must equal the publisher head as a *zone*, not just
/// as columns: `Zone::from_snapshot` of both agree.
fn assert_converged(sub_state: &ZoneSnapshot, head: &ZoneSnapshot) {
    assert_eq!(sub_state.serial(), head.serial());
    assert_eq!(sub_state.domain_column(), head.domain_column());
    let sub_zone = Zone::from_snapshot(sub_state);
    let head_zone = Zone::from_snapshot(head);
    assert_eq!(sub_zone.len(), head_zone.len());
    let recapture = ZoneSnapshot::capture(&sub_zone, head.taken_at());
    let head_recapture = ZoneSnapshot::capture(&head_zone, head.taken_at());
    assert_eq!(recapture, head_recapture);
}

proptest! {
    #[test]
    fn subscriber_converges_from_arbitrary_join_serial(
        states in prop::collection::vec(zone_state_strategy(), 2..9),
        join_pick in 0usize..1000,
        claim_pick in 0usize..1000,
        max_deltas in 1usize..9,
        ckpt_pick in 0usize..8,
    ) {
        let retention = RetentionConfig::new(max_deltas, 1 + ckpt_pick % max_deltas);
        let broker = Broker::new(BrokerConfig { retention, ..BrokerConfig::default() });
        let tld = TldId(0);
        broker.add_shard(tld, snapshot_of("com", &states[0], 0));

        let last = states.len() - 1;
        // Publish a prefix, join claiming an arbitrary earlier serial
        // (or nothing), then publish the rest.
        let join_at = join_pick % (last + 1);
        let snaps = publish_sequence(&broker, tld, "com", &states, join_at, 1);
        let claim = match claim_pick % (join_at + 2) {
            c if c > join_at => None,
            c => Some(Serial::new(c as u32)),
        };
        let sub = broker.subscribe(&[tld], claim);
        publish_sequence(&broker, tld, "com", &states, last, join_at + 1);

        // Seed with the claimed state; a snapshot bootstrap replaces it.
        let seed = claim.map_or_else(
            || snapshot_of("com", &BTreeMap::new(), 0),
            |s| snaps[s.get() as usize].clone(),
        );
        let final_state = replay_tld(&sub, tld, seed);
        let head = broker.head(tld).unwrap();
        assert_converged(&final_state, &head);
        prop_assert_eq!(final_state.domain_column(), snaps[last].domain_column());
    }

    #[test]
    fn multi_shard_subscriber_converges_across_interleavings(
        states_a in prop::collection::vec(zone_state_strategy(), 2..6),
        states_b in prop::collection::vec(zone_state_strategy(), 2..6),
        interleave in 0u64..u64::MAX,
        max_deltas in 1usize..6,
    ) {
        let retention = RetentionConfig::new(max_deltas, max_deltas);
        let broker = Broker::new(BrokerConfig { retention, ..BrokerConfig::default() });
        let (com, net) = (TldId(0), TldId(1));
        broker.add_shard(com, snapshot_of("com", &states_a[0], 0));
        broker.add_shard(net, snapshot_of("net", &states_b[0], 0));
        let snaps_a: Vec<_> =
            (0..states_a.len()).map(|i| snapshot_of("com", &states_a[i], i as u32)).collect();
        let snaps_b: Vec<_> =
            (0..states_b.len()).map(|i| snapshot_of("net", &states_b[i], i as u32)).collect();

        let sub = broker.subscribe(&[com, net], Some(Serial::new(0)));
        // Interleave the two shards' publishes by the random bit pattern.
        let (mut ia, mut ib) = (1usize, 1usize);
        let mut bit = 0;
        while ia < snaps_a.len() || ib < snaps_b.len() {
            let pick_a = (interleave >> (bit % 64)) & 1 == 0;
            bit += 1;
            if (pick_a && ia < snaps_a.len()) || ib >= snaps_b.len() {
                let delta = sorted_merge_diff(&snaps_a[ia - 1], &snaps_a[ia]);
                broker.publish(com, delta, Serial::new(ia as u32), SimTime::from_secs(ia as u64));
                ia += 1;
            } else {
                let delta = sorted_merge_diff(&snaps_b[ib - 1], &snaps_b[ib]);
                broker.publish(net, delta, Serial::new(ib as u32), SimTime::from_secs(ib as u64));
                ib += 1;
            }
        }

        // One drain serves both shards' frames, tagged by TLD.
        let messages = sub.drain();
        let mut state_a = snaps_a[0].clone();
        let mut state_b = snaps_b[0].clone();
        for msg in messages {
            match msg {
                BrokerMessage::Snapshot { tld, snapshot } => {
                    if tld == com { state_a = snapshot } else { state_b = snapshot }
                }
                BrokerMessage::Delta { tld, frame } => {
                    let push = decode_delta_push(&frame).expect("well-formed frame");
                    let state = if tld == com { &mut state_a } else { &mut state_b };
                    prop_assert_eq!(push.from_serial, state.serial());
                    *state = push.delta.apply(state, push.to_serial, push.pushed_at);
                }
            }
        }
        assert_converged(&state_a, &broker.head(com).unwrap());
        assert_converged(&state_b, &broker.head(net).unwrap());
    }

    // The per-shard concurrency contract: K publisher threads push
    // disjoint TLDs in parallel, a subscriber joins mid-stream claiming
    // an arbitrary per-shard serial, and a `BrokerZoneView` pumps while
    // the publishers are still running. Every shard's stream replays
    // gap-free to exactly that shard's head, the view converges (with
    // resync healing any lag-induced gap), and no publisher ever
    // contends on another publisher's shard lock.
    #[test]
    fn concurrent_publishers_converge_with_mid_stream_joins(
        states_per_shard in prop::collection::vec(
            prop::collection::vec(zone_state_strategy(), 2..6),
            2..5,
        ),
        join_pick in 0usize..1000,
        claim_pick in 0usize..1000,
    ) {
        let shards = states_per_shard.len();
        let broker = Broker::new(BrokerConfig::default());
        let origins: Vec<String> = (0..shards).map(|k| format!("tld{k}")).collect();
        let snaps: Vec<Vec<ZoneSnapshot>> = states_per_shard
            .iter()
            .enumerate()
            .map(|(k, states)| {
                (0..states.len()).map(|i| snapshot_of(&origins[k], &states[i], i as u32)).collect()
            })
            .collect();
        let tlds: Vec<TldId> = (0..shards).map(|k| TldId(k as u16)).collect();
        for (k, &tld) in tlds.iter().enumerate() {
            broker.add_shard(tld, snaps[k][0].clone());
        }

        // Publish a per-shard prefix sequentially, then join claiming an
        // arbitrary serial at or below each shard's prefix head.
        let join_at: Vec<usize> =
            (0..shards).map(|k| (join_pick + k) % snaps[k].len()).collect();
        let claims: Vec<(TldId, Option<Serial>)> = (0..shards)
            .map(|k| {
                let c = (claim_pick + 3 * k) % (join_at[k] + 2);
                (tlds[k], (c <= join_at[k]).then(|| Serial::new(c as u32)))
            })
            .collect();
        for k in 0..shards {
            publish_sequence(&broker, tlds[k], &origins[k], &states_per_shard[k], join_at[k], 1);
        }
        let mut view = BrokerZoneView::subscribe(&broker, &tlds);
        let sub = broker.subscribe_with(&claims);

        // The rest of every shard's sequence publishes concurrently, one
        // thread per shard, while the view pumps from this thread.
        std::thread::scope(|scope| {
            for k in 0..shards {
                let broker = &broker;
                let states = &states_per_shard[k];
                let snaps = &snaps[k];
                let (tld, from) = (tlds[k], join_at[k] + 1);
                scope.spawn(move || {
                    for i in from..states.len() {
                        let delta = sorted_merge_diff(&snaps[i - 1], &snaps[i]);
                        broker.publish(tld, delta, Serial::new(i as u32), SimTime::from_secs(i as u64));
                    }
                });
            }
            // Interleaved consumption during the publish storm. Pump
            // only (queue locks): a mid-storm resync would take shard
            // locks and could make a publisher's try_lock fail, which
            // counts toward the publish-path contention asserted zero
            // below. Gap healing is exercised after the storm instead.
            for _ in 0..4 {
                view.pump();
            }
        });

        // Publishers are done: drive the view to convergence.
        loop {
            view.pump();
            if view.lost_sync() {
                view.resync(&broker);
            } else if view.synced_with(&broker) {
                break;
            }
        }
        for (k, &tld) in tlds.iter().enumerate() {
            let head = broker.head(tld).unwrap();
            prop_assert_eq!(view.serial(tld), Some(head.serial()));
            prop_assert_eq!(
                view.snapshot(tld).unwrap().domain_column(),
                snaps[k].last().unwrap().domain_column()
            );
        }

        // The mid-stream subscriber replays each shard gap-free from its
        // claimed state to the shard head.
        let messages = sub.drain();
        for (k, &tld) in tlds.iter().enumerate() {
            let mut state = match claims[k].1 {
                Some(s) => snaps[k][s.get() as usize].clone(),
                None => snapshot_of(&origins[k], &BTreeMap::new(), 0),
            };
            for msg in &messages {
                match msg {
                    BrokerMessage::Snapshot { tld: t, snapshot } if *t == tld => {
                        state = snapshot.clone()
                    }
                    BrokerMessage::Delta { tld: t, frame } if *t == tld => {
                        let push = decode_delta_push(frame).expect("well-formed frame");
                        prop_assert_eq!(push.from_serial, state.serial(), "gap within a shard");
                        state = push.delta.apply(&state, push.to_serial, push.pushed_at);
                    }
                    _ => {}
                }
            }
            assert_converged(&state, &broker.head(tld).unwrap());
        }

        // One publisher per shard, and nothing else touched a shard lock
        // during the storm (the view only pumped queues; subscribe and
        // resync ran before/after the publishers), so no publisher's
        // try_lock ever failed: publish-path contention is exactly zero.
        for stats in broker.all_shard_stats() {
            prop_assert_eq!(stats.lock_contentions, 0);
        }
    }

    // The transport reconnect contract: K shards publish through a real
    // (in-memory) socket transport to a `RemoteZoneView`, and the link
    // is hard-cut at arbitrary points in the publish schedule. After
    // every cut the consumer redials carrying its per-TLD serial
    // claims. The view must converge to every shard's exact head (no
    // gap left unresynced), apply no delta twice (each applied frame
    // advances a shard serial, so total applications are bounded by
    // total publishes), and resync exactly once per injected cut.
    #[test]
    fn transport_reconnect_with_claims_converges(
        states_per_shard in prop::collection::vec(
            prop::collection::vec(zone_state_strategy(), 2..5),
            1..4,
        ),
        cut_picks in prop::collection::vec(0usize..1000, 0..3),
    ) {
        use darkdns::broker::transport::{
            duplex, FrameConn, LengthPrefixed, PipeCutHandle, TransportClient,
        };
        use darkdns::broker::{BrokerServer, TransportConfig};
        use darkdns::core::broker_view::RemoteZoneView;
        use std::sync::{Arc, Mutex};
        use std::time::{Duration, Instant};

        let shards = states_per_shard.len();
        let broker = Broker::new(BrokerConfig::default());
        let origins: Vec<String> = (0..shards).map(|k| format!("tld{k}")).collect();
        let snaps: Vec<Vec<ZoneSnapshot>> = states_per_shard
            .iter()
            .enumerate()
            .map(|(k, states)| {
                (0..states.len()).map(|i| snapshot_of(&origins[k], &states[i], i as u32)).collect()
            })
            .collect();
        let tlds: Vec<TldId> = (0..shards).map(|k| TldId(k as u16)).collect();
        for (k, &tld) in tlds.iter().enumerate() {
            broker.add_shard(tld, snaps[k][0].clone());
        }
        let server = BrokerServer::new(
            broker.clone(),
            TransportConfig { writer_tick: Duration::from_millis(2), ..TransportConfig::default() },
        );
        // Each (re)dial builds a fresh pipe and exposes its cut switch.
        let last_cut: Arc<Mutex<Option<PipeCutHandle>>> = Arc::new(Mutex::new(None));
        let dial = {
            let server = server.clone();
            let last_cut = Arc::clone(&last_cut);
            move |claims: &[(TldId, Option<Serial>)]| {
                let (client_end, server_end) = duplex(1 << 16);
                *last_cut.lock().unwrap() = Some(client_end.cut_handle());
                server.spawn_conn(LengthPrefixed::new(server_end));
                let mut conn = LengthPrefixed::new(client_end);
                conn.set_recv_timeout(Some(Duration::from_millis(2)))?;
                TransportClient::connect(conn, claims)
            }
        };
        let mut view = RemoteZoneView::connect(&tlds, dial).expect("initial dial");

        // Round-robin publish schedule across shards; cuts land before
        // arbitrary steps (or after the last one).
        let mut schedule: Vec<(usize, usize)> = Vec::new();
        let longest = states_per_shard.iter().map(|s| s.len()).max().unwrap();
        for i in 1..longest {
            for k in 0..shards {
                if i < states_per_shard[k].len() {
                    schedule.push((k, i));
                }
            }
        }
        let mut cuts: Vec<usize> = cut_picks.iter().map(|p| p % (schedule.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();

        let deadline = Instant::now() + Duration::from_secs(60);
        let mut cuts_done = 0u64;
        let cut_and_heal = |view: &mut RemoteZoneView<_>, cuts_done: &mut u64| {
            last_cut.lock().unwrap().as_ref().expect("a live pipe").cut();
            *cuts_done += 1;
            // Drive until the cut is observed and healed by a redial;
            // exactly one resync per cut, never more.
            while view.view().resync_count() < *cuts_done {
                view.pump(256);
                assert!(Instant::now() < deadline, "cut was never healed");
            }
        };
        for (step, &(k, i)) in schedule.iter().enumerate() {
            if cuts.contains(&step) {
                cut_and_heal(&mut view, &mut cuts_done);
            }
            let delta = sorted_merge_diff(&snaps[k][i - 1], &snaps[k][i]);
            broker.publish(tlds[k], delta, Serial::new(i as u32), SimTime::from_secs(i as u64));
            view.pump(64);
        }
        if cuts.contains(&schedule.len()) {
            cut_and_heal(&mut view, &mut cuts_done);
        }

        // Converge on every shard head.
        loop {
            view.pump(1024);
            let synced = tlds
                .iter()
                .all(|&t| view.view().serial(t) == broker.head(t).map(|h| h.serial()));
            if synced {
                break;
            }
            assert!(Instant::now() < deadline, "transport view failed to converge");
        }
        for (k, &tld) in tlds.iter().enumerate() {
            let head = broker.head(tld).unwrap();
            assert_converged(view.view().snapshot(tld).unwrap(), &head);
            prop_assert_eq!(
                view.view().snapshot(tld).unwrap().domain_column(),
                snaps[k].last().unwrap().domain_column()
            );
        }
        prop_assert_eq!(view.view().resync_count(), cuts.len() as u64);
        prop_assert!(
            view.view().frames_applied() <= schedule.len() as u64,
            "more deltas applied than were ever published: a duplicate application"
        );
        server.shutdown();
    }
}

/// One control-plane mutation against an [`EndpointMap`], index-picked
/// so arbitrary sequences stay valid against the map's panics (never
/// drain a last replica, never re-route a routed TLD).
#[derive(Debug, Clone)]
enum MapOp {
    AddReplica { route_pick: usize, endpoint: u32 },
    RemoveReplica { route_pick: usize, index_pick: usize },
}

fn map_ops_strategy() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..64, 1000u32..2000).prop_map(|(route_pick, endpoint)| MapOp::AddReplica {
                route_pick,
                endpoint
            }),
            (0usize..64, 0usize..64).prop_map(|(route_pick, index_pick)| {
                MapOp::RemoveReplica { route_pick, index_pick }
            }),
        ],
        0..40,
    )
}

/// Build a fleet map from generated route shapes: `shape[k]` is the
/// (TLD count, replica count) of route `k`; TLDs are assigned
/// sequentially so routes are disjoint by construction.
fn build_map(shapes: &[(usize, usize)]) -> darkdns::core::broker_view::EndpointMap<u32> {
    let mut map = darkdns::core::broker_view::EndpointMap::new();
    let mut next_tld = 0u16;
    let mut next_endpoint = 0u32;
    for &(tld_count, replica_count) in shapes {
        let tlds: Vec<TldId> = (0..tld_count as u16).map(|i| TldId(next_tld + i)).collect();
        next_tld += tld_count as u16;
        let replicas: Vec<u32> =
            (0..replica_count as u32).map(|i| next_endpoint + i).collect();
        next_endpoint += replica_count as u32;
        map.add_route(tlds, replicas);
    }
    map
}

/// Apply `op` if the map's current shape admits it; returns whether it
/// was applied.
fn apply_op(map: &mut darkdns::core::broker_view::EndpointMap<u32>, op: &MapOp) -> bool {
    if map.routes().is_empty() {
        return false;
    }
    match *op {
        MapOp::AddReplica { route_pick, endpoint } => {
            let route = route_pick % map.routes().len();
            map.add_replica(route, endpoint);
            true
        }
        MapOp::RemoveReplica { route_pick, index_pick } => {
            let route = route_pick % map.routes().len();
            let replicas = map.routes()[route].replicas.len();
            if replicas < 2 {
                return false; // the last replica can never be drained
            }
            map.remove_replica(route, index_pick % replicas);
            true
        }
    }
}

proptest! {
    // Across arbitrary add/drain sequences: every TLD stays routed by
    // exactly one route (the partition is an invariant of the map, not
    // of any update), every route keeps at least one replica, and the
    // generation counter is strictly monotone — one bump per applied
    // mutation, so no two distinct topologies ever share a generation.
    #[test]
    fn endpoint_map_partition_and_generation_invariants(
        shapes in prop::collection::vec((1usize..4, 1usize..4), 1..6),
        ops in map_ops_strategy(),
    ) {
        let mut map = build_map(&shapes);
        let universe = map.tlds();
        let baseline_gen = map.generation();
        prop_assert_eq!(baseline_gen, shapes.len() as u64, "one bump per add_route");

        let mut last_gen = baseline_gen;
        for op in &ops {
            let applied = apply_op(&mut map, op);
            let gen = map.generation();
            if applied {
                prop_assert_eq!(gen, last_gen + 1, "exactly one bump per mutation");
            } else {
                prop_assert_eq!(gen, last_gen, "a rejected op must not bump");
            }
            last_gen = gen;

            // The TLD partition never moves: same universe, and every
            // TLD resolves to exactly one route.
            prop_assert_eq!(&map.tlds(), &universe);
            for &tld in &universe {
                let owners = map
                    .routes()
                    .iter()
                    .filter(|r| r.tlds.contains(&tld))
                    .count();
                prop_assert_eq!(owners, 1, "a TLD must have exactly one authoritative route");
            }
            for route in map.routes() {
                prop_assert!(!route.replicas.is_empty(), "a route can never lose its last replica");
            }
        }
    }

    // Drain + re-add round trip: removing any (non-last) replica and
    // appending the same endpoint back restores the route's replica
    // *set* — while the generation strictly advances, so a consumer
    // still sees both steps as fresh updates, in order.
    #[test]
    fn endpoint_map_drain_then_add_restores_the_replica_set(
        shapes in prop::collection::vec((1usize..4, 2usize..5), 1..5),
        route_pick in 0usize..64,
        index_pick in 0usize..64,
    ) {
        let mut map = build_map(&shapes);
        let route = route_pick % map.routes().len();
        let index = index_pick % map.routes()[route].replicas.len();
        let before: std::collections::BTreeSet<u32> =
            map.routes()[route].replicas.iter().copied().collect();
        let gen_before = map.generation();

        let drained = map.remove_replica(route, index);
        prop_assert!(!map.routes()[route].replicas.contains(&drained));
        prop_assert_eq!(map.generation(), gen_before + 1);

        map.add_replica(route, drained);
        let after: std::collections::BTreeSet<u32> =
            map.routes()[route].replicas.iter().copied().collect();
        prop_assert_eq!(before, after, "drain + re-add must restore the partition");
        prop_assert_eq!(map.generation(), gen_before + 2, "the round trip is two fresh updates");
        prop_assert_eq!(map.tlds(), build_map(&shapes).tlds());
    }
}

proptest! {
    // The replica-set state machine under arbitrary driver behaviour:
    // dial walks at arbitrary instants with arbitrary per-replica
    // outcomes, stream faults, spurious sidelinings, and endpoint
    // updates with arbitrary (stale, replayed, newer) generations,
    // lengths and remaps. Replica 0 refuses every dial. Whatever the
    // sequence: the cursor stays in range, the generation only moves
    // forward (and only when an update applies), and — the "bounded
    // dial rate under any peer behaviour" clause, checked on the state
    // machine with a synthetic clock instead of by wall-clock sampling
    // — over any window of length T between two dials of replica 0 the
    // set admits at most `ramp + T / ceiling + 1` dials toward it,
    // `ramp` being the ladder's sub-ceiling rungs. An applied update
    // resets health by contract (one fresh dial), so it starts a new
    // window.
    #[test]
    fn replica_set_invariants_and_bounded_dial_rate(
        len in 1usize..5,
        events in prop::collection::vec((0u64..400, 0u8..8, any::<u8>(), 0u64..4, 1usize..5), 1..120),
    ) {
        use darkdns::broker::transport::replica::{Update, BACKOFF_CEIL, BACKOFF_FLOOR};
        use darkdns::broker::transport::{ReplicaSet, TransportError};
        use std::time::{Duration, Instant};

        let ramp = (0u32..).take_while(|&k| BACKOFF_FLOOR * (1 << k) < BACKOFF_CEIL).count();
        let start = Instant::now();
        let mut now = start;
        let mut set = ReplicaSet::new(len, 1);
        // Dial instants toward replica 0 since the last applied update.
        let mut dials: Vec<Instant> = Vec::new();
        for (gap_ms, kind, bits, generation, new_len) in events {
            now += Duration::from_millis(gap_ms);
            let before = set.generation();
            match kind {
                0..=3 => {
                    let order = set.live(now);
                    let _ = set.dial_in_order(&order, now, |at| {
                        if at == 0 {
                            dials.push(now);
                        }
                        if at != 0 && bits & (1 << at) != 0 { Ok(()) } else { Err(TransportError::Closed) }
                    });
                }
                4 => set.faulted(),
                5 => set.failed(usize::from(bits) % set.count(), now),
                6 if set.count() > 1 => set.scored(1 + usize::from(bits) % (set.count() - 1), 7),
                6 => {}
                _ => {
                    let kept = (bits & 1 == 0).then_some(usize::from(bits >> 1) % new_len);
                    let outcome = set.update(generation, new_len, kept);
                    prop_assert_eq!(outcome == Update::Stale, generation <= before);
                    if outcome != Update::Stale {
                        prop_assert_eq!(set.generation(), generation);
                        prop_assert_eq!(set.count(), new_len);
                        dials.clear();
                    }
                }
            }
            prop_assert!(set.cursor() < set.count(), "cursor {} of {}", set.cursor(), set.count());
            prop_assert!(set.generation() >= before, "generation went backwards");
            for (i, &from) in dials.iter().enumerate() {
                let window = *dials.last().expect("non-empty") - from;
                let admitted = dials.len() - i;
                let bound = ramp + (window.as_millis() / BACKOFF_CEIL.as_millis()) as usize + 1;
                prop_assert!(
                    admitted <= bound,
                    "{} dials toward a dead replica in {:?} (bound {})", admitted, window, bound
                );
            }
        }
    }
}
