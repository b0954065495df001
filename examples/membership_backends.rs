//! One pipeline, three zone-membership backends.
//!
//! Builds one deterministic universe + certstream, then runs the full
//! Step-1 certstream detection through the `ZoneMembership` contract
//! against each backend from identical inputs:
//!
//! * **direct** — `UniverseZoneView` (ground truth on the push grid);
//! * **broker** — `BrokerZoneView` subscribed to an in-process broker
//!   fed in certstream time order;
//! * **tcp** — `RemoteZoneView` behind a real `BrokerServer` on
//!   loopback TCP.
//!
//! The candidate sets must be byte-identical (the equivalence the
//! integration test pins); the example then reuses the broker-fed view
//! generically in the `Monitor`, scores what the backend captured
//! against ground truth (`rzu_ablation::observed_capture`), and scrapes
//! the server's per-shard stats over the wire with an `RZUQ` round
//! trip.
//!
//! Run with: `cargo run --release --example membership_backends`

use darkdns::broker::transport::{fetch_stats, tcp_connect, FrameConn, TransportClient};
use darkdns::broker::{Broker, BrokerConfig, BrokerServer, TransportConfig};
use darkdns::core::broker_view::{BrokerZoneView, RemoteZoneView};
use darkdns::core::experiment::{run_certstream_detection, LiveDetection, LiveInputs};
use darkdns::core::monitor::Monitor;
use darkdns::core::rzu_ablation::observed_capture;
use darkdns::core::{ExperimentConfig, ZoneMembership};
use darkdns::registry::hosting::HostingLandscape;
use darkdns::sim::time::SimDuration;
use std::time::Duration;

fn roomy_broker() -> Broker {
    Broker::new(BrokerConfig {
        subscriber_capacity: 1 << 20,
        ..BrokerConfig::default()
    })
}

fn summarize(label: &str, run: &LiveDetection) {
    println!(
        "  {label:<7} candidates={:<6} in-zone-discards={:<7} zone-NRDs={:<6} entries={}",
        run.candidates.len(),
        run.stats.discarded_in_zone,
        run.zone_nrds.len(),
        run.stats.entries_seen,
    );
}

fn main() {
    let mut cfg = ExperimentConfig::small(7);
    cfg.workload.scale = 0.002;
    cfg.workload.window_days = 6;
    let inputs = LiveInputs::build(cfg, SimDuration::from_minutes(5));
    println!(
        "universe: {} records across {} TLDs, {} certstream entries, 5m push cadence\n",
        inputs.universe.len(),
        inputs.tld_ids.len(),
        inputs.stream.len(),
    );

    // --- direct ------------------------------------------------------
    let mut direct = inputs.direct_view();
    let direct_run = run_certstream_detection(&inputs, &mut direct, |_, _| {});

    // --- in-process broker -------------------------------------------
    let broker = roomy_broker();
    let mut feed = inputs.feed();
    feed.register_shards(&broker);
    let mut view = BrokerZoneView::subscribe(&broker, &inputs.tld_ids);
    let broker_run = run_certstream_detection(&inputs, &mut view, |_, at| {
        feed.publish_until(&broker, at);
    });

    // --- loopback TCP ------------------------------------------------
    let broker2 = roomy_broker();
    let mut feed2 = inputs.feed();
    feed2.register_shards(&broker2);
    let server = BrokerServer::new(
        broker2.clone(),
        TransportConfig { writer_tick: Duration::from_millis(5), ..TransportConfig::default() },
    );
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");
    let mut remote = RemoteZoneView::connect(&inputs.tld_ids, move |claims| {
        let mut conn = tcp_connect(addr)?;
        conn.set_recv_timeout(Some(Duration::from_millis(2)))?;
        TransportClient::connect(conn, claims)
    })
    .expect("dial");
    let tld_ids = inputs.tld_ids.clone();
    let tcp_run = run_certstream_detection(&inputs, &mut remote, |v, at| {
        feed2.publish_until(&broker2, at);
        let targets: Vec<_> = tld_ids
            .iter()
            .map(|&tld| (tld, broker2.head(tld).expect("shard").serial()))
            .collect();
        assert!(v.pump_until_serials(&targets, Duration::from_secs(60)), "socket stalled");
    });

    println!("certstream detection, one pipeline, three backends:");
    summarize("direct", &direct_run);
    summarize("broker", &broker_run);
    summarize("tcp", &tcp_run);
    assert_eq!(direct_run.candidates, broker_run.candidates, "backend divergence (broker)");
    assert_eq!(direct_run.candidates, tcp_run.candidates, "backend divergence (tcp)");
    assert_eq!(direct_run.stats, broker_run.stats);
    assert_eq!(direct_run.stats, tcp_run.stats);
    println!("  => byte-identical candidate sets and detector stats\n");

    // --- the monitor consumes the same contract ----------------------
    let landscape = HostingLandscape::paper_landscape();
    let mut monitor = Monitor::new(&inputs.universe, &landscape, &mut view);
    let monitored: Vec<_> = broker_run.candidates.iter().take(200).cloned().collect();
    monitor.monitor_all(&monitored);
    let zs = monitor.zone_stats();
    println!(
        "monitor over the broker view ({} candidates): {} confirmed in view within 48h, \
         {} never visible (transient-shaped)",
        monitored.len(),
        zs.confirmed_in_view,
        zs.never_in_view,
    );

    // --- observed capture vs ground truth ----------------------------
    // Scored on a fresh view driven over the whole window (the runs
    // above already drained their logs into `zone_nrds`).
    let horizon = inputs.anchor + inputs.config.horizon();
    let mut cap_view = inputs.direct_view();
    ZoneMembership::advance_to(&mut cap_view, horizon);
    let cap = observed_capture(&mut cap_view, &inputs.universe, inputs.anchor);
    println!(
        "observed capture at 5m cadence: {:.1}% of transients, {:.1}% of NRDs \
         ({} domains surfaced by the view)\n",
        cap.transient_capture_pct, cap.nrd_observed_pct, cap.domains_observed,
    );

    // --- RZUQ stats scrape over the wire ------------------------------
    let report = fetch_stats(tcp_connect(addr).expect("dial scrape")).expect("RZUQ");
    println!(
        "RZUQ scrape: {} handshakes, {} deltas sent, {} snapshots, \
         {} coalesced writes saving {} syscalls, {} stats queries",
        report.server.handshakes,
        report.server.deltas_sent,
        report.server.snapshots_sent,
        report.server.coalesced_writes,
        report.server.coalesced_frames,
        report.server.stats_queries,
    );
    println!("  tld  head   pushes  deliveries  coalesced");
    for shard in report.shards.iter().take(5) {
        println!(
            "  {:>3}  {:>5}  {:>6}  {:>10}  {:>9}",
            shard.tld,
            shard.head_serial.get(),
            shard.pushes,
            shard.deliveries,
            shard.coalesced_frames,
        );
    }
    println!("  ... ({} shards total)", report.shards.len());
    server.shutdown();
    println!("\nok: the broker stack is a drop-in substrate for the detection pipeline");
}
