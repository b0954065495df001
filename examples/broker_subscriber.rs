//! The RZU distribution broker, end to end.
//!
//! Builds a 3-TLD universe, materialises each TLD's RZU feed as a zone
//! delta stream, and drives it through the sharded broker. One
//! subscriber follows live from the start; a second joins mid-stream
//! with no prior state and catches up from a checkpoint snapshot plus
//! the deltas sealed after it (the snapshot-vs-delta decision rule).
//! Both converge to the publisher's head serials exactly.
//!
//! ```sh
//! cargo run --release --example broker_subscriber [seed]
//! ```

use darkdns::broker::{Broker, BrokerConfig, RetentionConfig, UniverseFeed};
use darkdns::core::broker_view::BrokerZoneView;
use darkdns::registry::czds::SnapshotSchedule;
use darkdns::registry::hosting::HostingLandscape;
use darkdns::registry::registrar::RegistrarFleet;
use darkdns::registry::tld::{paper_gtlds, TldId};
use darkdns::registry::workload::{UniverseBuilder, WorkloadConfig};
use darkdns::sim::rng::RngPool;
use darkdns::sim::time::SimDuration;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let tlds = paper_gtlds();
    let fleet = RegistrarFleet::paper_fleet();
    let hosting = HostingLandscape::paper_landscape();
    let config = WorkloadConfig {
        scale: 0.002,
        window_days: 3,
        base_population_frac: 0.005,
        ..WorkloadConfig::default()
    };
    let pool = RngPool::new(seed);
    let schedule = SnapshotSchedule::new(&pool, &tlds, config.window_start, config.window_days);
    let anchor = config.window_start;
    let universe = UniverseBuilder {
        tlds: &tlds,
        fleet: &fleet,
        hosting: &hosting,
        schedule: &schedule,
        config,
    }
    .build(&pool);

    // A 3-TLD broker universe at the historical 5-minute push cadence.
    let tld_ids = [TldId(0), TldId(1), TldId(2)];
    let mut feed =
        UniverseFeed::build(&universe, &tlds, &tld_ids, anchor, SimDuration::from_minutes(5));
    let broker = Broker::new(BrokerConfig {
        retention: RetentionConfig::new(64, 16),
        subscriber_capacity: 4096,
    });
    feed.register_shards(&broker);
    println!("broker over 3 TLDs (seed {seed}): {} pushes pending", feed.pending());
    for stream in feed.streams() {
        println!(
            "  {:<4} start serial {} -> head serial {} over {} pushes ({} domains touched)",
            stream.origin.as_str(),
            stream.start.serial(),
            stream.head.serial(),
            stream.pushes.len(),
            stream.delta_len(),
        );
    }

    // Subscriber A follows live from the shard origins.
    let mut live = BrokerZoneView::subscribe(&broker, &tld_ids);
    live.pump();

    // Publish the first half of the stream.
    let halfway = feed.pending() / 2;
    for _ in 0..halfway {
        feed.publish_next(&broker);
    }
    live.pump();

    // Subscriber B joins mid-stream with no prior state: the broker
    // answers with checkpoint snapshots plus post-checkpoint deltas.
    let mut late = BrokerZoneView::subscribe(&broker, &tld_ids);
    late.pump();
    let stats = broker.stats();
    println!(
        "\nmid-stream join after {halfway} pushes: {} checkpoint bootstrap(s), {} delta replay(s)",
        stats.snapshot_catchups, stats.delta_catchups,
    );
    for &tld in &tld_ids {
        println!(
            "  tld {:<2} late-joiner at serial {:?} vs broker head {:?} -> in sync: {}",
            tld.0,
            late.serial(tld).map(|s| s.get()),
            broker.head(tld).map(|h| h.serial().get()),
            late.serial(tld) == broker.head(tld).map(|h| h.serial()),
        );
    }

    // Publish the rest; both subscribers follow the shared frames.
    feed.publish_all(&broker);
    live.pump();
    late.pump();

    println!("\nconvergence serials after full stream:");
    for &tld in &tld_ids {
        let head = broker.head(tld).expect("shard exists").serial();
        println!(
            "  tld {:<2} head {:>6}  live {:>6}  late-joiner {:>6}",
            tld.0,
            head.get(),
            live.serial(tld).expect("live synced").get(),
            late.serial(tld).expect("late synced").get(),
        );
        assert_eq!(live.serial(tld), Some(head), "live subscriber diverged");
        assert_eq!(late.serial(tld), Some(head), "late joiner diverged");
    }

    let stats = broker.stats();
    println!(
        "\nbroker stats: {} frames encoded once ({} KiB), {} deliveries to {} subscribers, \
         {} lagged",
        stats.frames_encoded,
        stats.frame_bytes_encoded / 1024,
        stats.deliveries,
        stats.subscribers,
        stats.lagged_messages,
    );
    let mut nrd_log = Vec::new();
    live.drain_new_domains(&mut nrd_log);
    let live_nrds = nrd_log.len();
    nrd_log.clear();
    late.drain_new_domains(&mut nrd_log);
    println!(
        "zone NRDs observed live by the full-stream subscriber: {live_nrds} \
         (late joiner saw {} — checkpoint bootstrap compacts earlier churn away)",
        nrd_log.len(),
    );
}
