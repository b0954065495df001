//! Fleet-health monitoring across both serving tiers: scrape the
//! broker's `RZUQ` endpoint and the edge's (same wire dialect, mapped
//! counters) on a cadence and render the deltas as a text table.
//!
//! The deployment under observation: a multi-TLD universe publishing
//! through a `BrokerServer` on loopback TCP; two full-replica
//! subscribers (`RemoteZoneView`) pumping over sockets; an edge tier
//! (`EdgeFeed` → `EdgeIndex` → `EdgeServer`) serving thin-client
//! lookups while the publisher runs. Each monitoring round publishes
//! one step of churn, scrapes both endpoints with the same
//! [`fetch_stats`] helper the operators' tooling uses, and prints
//! per-round deltas — pushes and deliveries on the broker side, batches
//! and names answered on the edge side — plus the per-TLD head serials
//! both tiers agree on.
//!
//! ```sh
//! cargo run --release --example edge_monitor [seed]
//! ```

use darkdns::broker::transport::{fetch_stats, tcp_connect, FrameConn, StatsReport, TransportClient};
use darkdns::broker::{Broker, BrokerConfig, BrokerServer, TransportConfig, UniverseFeed};
use darkdns::core::broker_view::RemoteZoneView;
use darkdns::dns::wire::{LookupQuery, LOOKUP_ANY_TLD};
use darkdns::dns::DomainName;
use darkdns::edge::{EdgeClient, EdgeConfig, EdgeFeed, EdgeIndex, EdgeIndexConfig, EdgeServer};
use darkdns::registry::tld::{synthetic_fleet, TldId};
use darkdns::registry::workload::{build_fleet_universe, WorkloadConfig};
use darkdns::sim::time::SimDuration;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const FLEET: usize = 8;
const ROUNDS: u64 = 6;
const THIN_CLIENTS: usize = 3;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let tlds = synthetic_fleet(FLEET);
    let config = WorkloadConfig {
        scale: 0.004,
        window_days: 1,
        base_population_frac: 0.004,
        ..WorkloadConfig::default()
    };
    let anchor = config.window_start;
    let universe = build_fleet_universe(&tlds, config, seed);
    let tld_ids: Vec<TldId> = (0..FLEET).map(|t| TldId(t as u16)).collect();
    let mut feed =
        UniverseFeed::build(&universe, &tlds, &tld_ids, anchor, SimDuration::from_minutes(5));

    let broker = Broker::new(BrokerConfig {
        subscriber_capacity: 1 << 16,
        ..BrokerConfig::default()
    });
    feed.register_shards(&broker);
    let broker_server = BrokerServer::new(
        broker.clone(),
        TransportConfig { writer_tick: Duration::from_millis(5), ..TransportConfig::default() },
    );
    let broker_addr = broker_server.listen_tcp("127.0.0.1:0").expect("bind broker");

    // The edge tier: in-process feed, TCP query front.
    let index = Arc::new(EdgeIndex::new(EdgeIndexConfig::default()));
    let mut edge_feed = EdgeFeed::subscribe(&broker, &tld_ids, Arc::clone(&index));
    let edge_server = EdgeServer::new(
        Arc::clone(&index),
        EdgeConfig { writer_tick: Duration::from_millis(5), ..EdgeConfig::default() },
    );
    let edge_addr = edge_server.listen_tcp("127.0.0.1:0").expect("bind edge");

    // Two full replicas over real sockets: the broker's subscriber rows.
    let stop = Arc::new(AtomicBool::new(false));
    let replicas: Vec<_> = (0..2)
        .map(|_| {
            let tld_ids = tld_ids.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut view = RemoteZoneView::connect(&tld_ids, move |claims| {
                    let mut conn = tcp_connect(broker_addr)?;
                    conn.set_recv_timeout(Some(Duration::from_millis(2)))?;
                    TransportClient::connect(conn, claims)
                })
                .expect("dial broker");
                while !stop.load(Ordering::Relaxed) {
                    view.pump(1024);
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();

    // Thin clients hammering the edge for the whole run.
    let client_lookups = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..THIN_CLIENTS)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let counter = Arc::clone(&client_lookups);
            std::thread::spawn(move || {
                let mut client = EdgeClient::connect_tcp(edge_addr).expect("dial edge");
                let queries: Vec<LookupQuery> = (0..16)
                    .map(|i| LookupQuery {
                        tld: if i % 4 == 0 { LOOKUP_ANY_TLD } else { i % FLEET as u16 },
                        name: DomainName::parse(&format!("probe{c}-{i}.example")).unwrap(),
                    })
                    .collect();
                while !stop.load(Ordering::Relaxed) {
                    let response = client.lookup(&queries).expect("edge lookup");
                    counter.fetch_add(response.answers.len() as u64, Ordering::Relaxed);
                }
            })
        })
        .collect();

    println!(
        "monitoring a {FLEET}-TLD fleet (seed {seed}): broker at {broker_addr}, edge at \
         {edge_addr}, {THIN_CLIENTS} thin clients\n"
    );

    let step = SimDuration::from_minutes(30);
    let mut at = anchor;
    let mut prev_broker: Option<StatsReport> = None;
    let mut prev_edge: Option<StatsReport> = None;
    for round in 1..=ROUNDS {
        at = at + step;
        feed.publish_until(&broker, at);
        edge_feed.pump();
        std::thread::sleep(Duration::from_millis(40)); // let sockets drain

        let broker_report = fetch_stats(tcp_connect(broker_addr).expect("dial"))
            .expect("scrape broker");
        let edge_report =
            fetch_stats(tcp_connect(edge_addr).expect("dial")).expect("scrape edge");

        render_round(round, &broker_report, &edge_report, prev_broker.as_ref(), prev_edge.as_ref());
        prev_broker = Some(broker_report);
        prev_edge = Some(edge_report);
    }

    stop.store(true, Ordering::Relaxed);
    for handle in replicas.into_iter().chain(clients) {
        handle.join().unwrap();
    }

    let final_edge = edge_server.stats();
    println!(
        "\nrun totals: {} lookups answered over {} batches; {} answers observed client-side; \
         edge epoch {}",
        final_edge.lookup_names,
        final_edge.lookup_batches,
        client_lookups.load(Ordering::Relaxed),
        index.epoch(),
    );
    assert!(final_edge.lookup_batches > 0, "thin clients must have been served");
    assert_eq!(final_edge.bad_frames, 0);
    // The clients are joined, so only a scrape moves a counter now: one
    // last report must carry the in-process counters in the slots the
    // edge dialect maps them to.
    let scraped = fetch_stats(tcp_connect(edge_addr).expect("dial")).expect("scrape edge").server;
    assert_eq!(
        (scraped.handshakes, scraped.deltas_sent, scraped.rejected_hellos),
        (final_edge.lookup_batches, final_edge.lookup_names, final_edge.bad_frames),
        "batches, names and bad frames ride handshakes, deltas_sent and rejected_hellos"
    );
    edge_server.shutdown();
    broker_server.shutdown();
}

/// One monitoring round: both tiers' deltas plus head-serial agreement.
fn render_round(
    round: u64,
    broker: &StatsReport,
    edge: &StatsReport,
    prev_broker: Option<&StatsReport>,
    prev_edge: Option<&StatsReport>,
) {
    let d = |cur: u64, prev: u64| cur.saturating_sub(prev);
    let (b0, e0) = (
        prev_broker.map(|r| r.server).unwrap_or_default(),
        prev_edge.map(|r| r.server).unwrap_or_default(),
    );
    println!("== round {round} ==");
    println!(
        "broker : Δdeltas {:>5}  Δsnapshots {:>3}  Δcoalesced {:>5}  live subs {:>2}  \
         disconnects {:>2}",
        d(broker.server.deltas_sent, b0.deltas_sent),
        d(broker.server.snapshots_sent, b0.snapshots_sent),
        d(broker.server.coalesced_frames, b0.coalesced_frames),
        broker.subs.len(),
        broker.server.disconnects,
    );
    // Edge dialect: handshakes = batches, deltas_sent = names answered,
    // shard.pushes = index epoch (see `darkdns_edge::server` docs).
    println!(
        "edge   : Δbatches {:>6}  Δnames {:>7}  open conns {:>2}  epoch {:>4}  bad frames {:>2}",
        d(edge.server.handshakes, e0.handshakes),
        d(edge.server.deltas_sent, e0.deltas_sent),
        edge.shards.first().map_or(0, |s| s.subscribers),
        edge.shards.first().map_or(0, |s| s.pushes),
        edge.server.rejected_hellos,
    );
    print!("heads  : ");
    for shard in &broker.shards {
        let edge_head = edge
            .shards
            .iter()
            .find(|e| e.tld == shard.tld)
            .map(|e| e.head_serial)
            .unwrap_or_default();
        let mark = if edge_head == shard.head_serial { '=' } else { '<' };
        print!("tld{}:{}{}{} ", shard.tld, shard.head_serial.get(), mark, edge_head.get());
    }
    println!("\n");
}
