//! A 50-TLD universe publishing concurrently through the per-shard
//! broker — the paper's minute-level NOD visibility argument at fleet
//! scale.
//!
//! Builds a 50-TLD universe (the paper's gTLD table extended with a
//! synthetic long tail), materialises every TLD's RZU feed as a zone
//! delta stream, and publishes all of them on scoped threads: one
//! worker per core, each TLD's pushes in serial order on one worker,
//! different TLDs in parallel — possible because every TLD owns its own
//! shard lock and no global lock sits on the publish path. A
//! `BrokerZoneView` over all 50 TLDs converges with zero gap-resyncs,
//! and the run ends with the per-shard `ShardStats` table: per-TLD
//! pushes, checkpoint seals, deliveries, catch-up plans served, and
//! lock-contention counters (all zero with one publisher per shard).
//!
//! ```sh
//! cargo run --release --example multi_tld_fleet [seed]
//! ```

use darkdns::broker::{Broker, BrokerConfig, RetentionConfig, UniverseFeed};
use darkdns::core::broker_view::BrokerZoneView;
use darkdns::dns::par::available_workers;
use darkdns::registry::tld::{synthetic_fleet, TldId};
use darkdns::registry::workload::{build_fleet_universe, WorkloadConfig};
use darkdns::sim::time::SimDuration;
use std::time::Instant;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    const FLEET: usize = 50;
    let tlds = synthetic_fleet(FLEET);
    let config = WorkloadConfig {
        scale: 0.002,
        window_days: 2,
        base_population_frac: 0.003,
        ..WorkloadConfig::default()
    };
    let anchor = config.window_start;
    let universe = build_fleet_universe(&tlds, config, seed);
    let tld_ids: Vec<TldId> = (0..FLEET).map(|t| TldId(t as u16)).collect();
    let mut feed =
        UniverseFeed::build(&universe, &tlds, &tld_ids, anchor, SimDuration::from_minutes(5));

    let broker = Broker::new(BrokerConfig {
        retention: RetentionConfig::new(64, 16),
        subscriber_capacity: 1 << 16,
    });
    feed.register_shards(&broker);
    println!(
        "fleet of {FLEET} TLD shards (seed {seed}): {} pushes pending, {} publish workers",
        feed.pending(),
        available_workers(),
    );

    // One view over the whole fleet, up before the publish storm.
    let mut view = BrokerZoneView::subscribe(&broker, &tld_ids);

    let started = Instant::now();
    let published = feed.publish_all_concurrent(&broker);
    let publish_time = started.elapsed();
    view.pump();
    println!(
        "published {published} pushes across {FLEET} shards in {publish_time:?}; \
         view synced: {}, gap-resyncs: {}, dropped frames: {}",
        view.synced_with(&broker),
        view.resync_count(),
        view.dropped_count(),
    );
    assert!(view.synced_with(&broker), "fleet view must converge");
    assert_eq!(view.resync_count(), 0, "a healthy fleet run needs no resync");

    // The per-shard accounting story: one struct per TLD.
    let all = broker.all_shard_stats();
    println!(
        "\n{:<6} {:>6} {:>7} {:>6} {:>10} {:>8} {:>8} {:>9}",
        "tld", "pushes", "head", "ckpts", "deliveries", "catchups", "retained", "contended"
    );
    for stats in &all {
        let tld_name = &tlds[stats.tld as usize].name;
        println!(
            "{:<6} {:>6} {:>7} {:>6} {:>10} {:>8} {:>8} {:>9}",
            tld_name,
            stats.pushes,
            stats.head_serial.get(),
            stats.checkpoints,
            stats.deliveries,
            stats.snapshot_catchups + stats.delta_catchups,
            stats.retained_deltas,
            stats.lock_contentions,
        );
    }

    let agg = broker.stats();
    let pushes: u64 = all.iter().map(|s| s.pushes).sum();
    let contended: u64 = all.iter().map(|s| s.lock_contentions).sum();
    println!(
        "\ntotals: {} pushes ({} KiB of frames, each encoded once), {} deliveries to {} \
         subscriber(s), {} lagged, {} shard-lock contentions",
        agg.frames_encoded,
        agg.frame_bytes_encoded / 1024,
        agg.deliveries,
        agg.subscribers,
        agg.lagged_messages,
        contended,
    );
    assert_eq!(pushes, published as u64, "per-shard pushes must sum to the published total");
    assert_eq!(agg.frames_encoded, pushes, "aggregate must equal the per-shard sum");
    let mut nrd_log = Vec::new();
    view.drain_new_domains(&mut nrd_log);
    println!("zone NRDs observed live across the fleet: {}", nrd_log.len());
}
