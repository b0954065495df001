//! End-to-end multi-TLD fleet run: a 50-TLD universe built by the
//! registry workload generator, materialised as per-TLD RZU zone
//! streams, published concurrently through the broker's per-shard locks
//! and consumed by a `BrokerZoneView` — the
//! acceptance pin for the per-shard concurrency refactor. The run must
//! complete with zero gap-resync failures and per-shard `ShardStats`
//! accounting that sums exactly to the published totals.

use darkdns::broker::{Broker, BrokerConfig, RetentionConfig, UniverseFeed};
use darkdns::core::broker_view::BrokerZoneView;
use darkdns::registry::tld::{synthetic_fleet, TldId};
use darkdns::registry::workload::{build_fleet_universe, WorkloadConfig};
use darkdns::sim::time::SimDuration;

#[test]
fn fifty_tld_universe_publishes_concurrently_and_converges() {
    const FLEET: usize = 50;
    let tlds = synthetic_fleet(FLEET);
    let config = WorkloadConfig {
        scale: 0.0004,
        window_days: 2,
        base_population_frac: 0.002,
        ..WorkloadConfig::default()
    };
    let anchor = config.window_start;
    let universe = build_fleet_universe(&tlds, config, 42);
    let tld_ids: Vec<TldId> = (0..FLEET).map(|t| TldId(t as u16)).collect();
    let mut feed =
        UniverseFeed::build(&universe, &tlds, &tld_ids, anchor, SimDuration::from_minutes(5));
    let broker = Broker::new(BrokerConfig {
        retention: RetentionConfig::new(64, 16),
        // Generous buffer: a healthy fleet deployment must not lag.
        subscriber_capacity: 1 << 16,
    });
    feed.register_shards(&broker);
    assert_eq!(broker.shard_count(), FLEET);

    // One live view over all 50 TLDs plus a single-TLD subscriber on the
    // largest shard, both up before the concurrent publish storm.
    let mut view = BrokerZoneView::subscribe(&broker, &tld_ids);
    let com_sub = broker.subscribe(&[TldId(0)], Some(feed.streams()[0].start.serial()));

    let pending = feed.pending();
    assert!(pending > 0, "expected a non-trivial universe");
    let published = feed.publish_all_concurrent(&broker);
    assert!(published > 0 && published <= pending);
    assert_eq!(feed.pending(), 0);

    // Zero gap-resync failures: the view drains everything, never loses
    // sync, and converges to every shard's head.
    view.pump();
    assert!(!view.lost_sync(), "fleet run must not tear the zone view");
    assert_eq!(view.resync_count(), 0, "fleet run must not need a resync");
    assert!(view.synced_with(&broker));
    assert_eq!(view.dropped_count(), 0);

    // Per-shard accounting sums to the published totals.
    let all = broker.all_shard_stats();
    assert_eq!(all.len(), FLEET);
    let pushes: u64 = all.iter().map(|s| s.pushes).sum();
    assert_eq!(pushes, published as u64);
    let agg = broker.stats();
    assert_eq!(agg.frames_encoded, pushes);
    assert_eq!(agg.frame_bytes_encoded, all.iter().map(|s| s.frame_bytes).sum::<u64>());
    assert_eq!(agg.lagged_messages, 0);
    assert_eq!(agg.subscribers, 2);
    // Deliveries: every push reaches the fleet view; shard 0's also reach
    // the extra subscriber.
    let shard0 = &all[0];
    assert_eq!(shard0.tld, 0);
    assert_eq!(agg.deliveries, pushes + shard0.pushes);
    assert_eq!(shard0.deliveries, 2 * shard0.pushes);
    assert_eq!(shard0.subscribers, 2);

    // Every shard's view state sits exactly at the shard head, and the
    // per-shard serials in the stats snapshot agree.
    for stats in &all {
        let tld = TldId(stats.tld);
        assert_eq!(view.serial(tld), Some(stats.head_serial));
        let head = broker.head(tld).unwrap();
        assert_eq!(view.snapshot(tld).unwrap(), &head);
    }

    // The single-TLD subscriber replays shard 0 gap-free to its head.
    let mut state = feed.streams()[0].start.clone();
    for msg in com_sub.drain() {
        match msg {
            darkdns::broker::BrokerMessage::Delta { tld, frame } => {
                assert_eq!(tld, TldId(0));
                let push = darkdns::dns::decode_delta_push(&frame).unwrap();
                assert_eq!(push.from_serial, state.serial(), "gap in shard-0 stream");
                state = push.delta.apply(&state, push.to_serial, push.pushed_at);
            }
            other => panic!("live subscriber got {other:?}"),
        }
    }
    assert_eq!(state, broker.head(TldId(0)).unwrap());
}
