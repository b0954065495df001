//! A three-tier relay deployment: one root broker fanning out through
//! two regional relays to four edge feeds, with a mid-stream relay
//! failure healed by replica failover and reconnect-with-claims.
//!
//! Topology (all links loopback TCP):
//!
//! ```text
//!             root broker  (publishes the fleet's RZU churn)
//!              /        \
//!      relay west      relay east     (BrokerServer::attach_upstream)
//!        |      \      /      |
//!     edge0    edge1  edge2  edge3    (RoutedEdgeFeed, replica lists)
//! ```
//!
//! Each edge's `EndpointMap` route lists *both* relays, preferring its
//! region's. Deltas cross every tier as the root's exact `RZU4` bytes
//! (the relays re-serve the received frames verbatim, never re-encode),
//! so the bandwidth and encode cost per delta is flat in tree depth.
//!
//! Halfway through the run the east relay is killed while the
//! publisher keeps pushing. The two east edges dial their replica
//! list's next entry — the west relay — carrying per-TLD serial
//! claims, so the outage heals as a delta replay: exactly one resync
//! per orphaned edge, zero re-bootstraps, zero double-applied deltas.
//! The west edges never notice.
//!
//! The run ends with an `RZUQ` scrape of all three tiers — root
//! broker, surviving relay, and an `EdgeServer` fronting edge0's index
//! — using the same [`fetch_stats`] helper operators' tooling uses,
//! and asserts the three tiers agree on every TLD's head serial.
//!
//! ```sh
//! cargo run --release --example relay_fleet [seed]
//! ```

use darkdns::broker::transport::{fetch_stats, tcp_connect, FrameConn, TransportError};
use darkdns::broker::{Broker, BrokerConfig, BrokerServer, TransportConfig, UniverseFeed};
use darkdns::core::broker_view::EndpointMap;
use darkdns::dns::Serial;
use darkdns::edge::{
    EdgeConfig, EdgeIndex, EdgeIndexConfig, EdgeServer, RoutedEdgeFeed,
};
use darkdns::registry::tld::{synthetic_fleet, TldId};
use darkdns::registry::workload::{build_fleet_universe, WorkloadConfig};
use darkdns::sim::time::SimDuration;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const FLEET: usize = 6;
const EDGES: usize = 4;
const ROUNDS_BEFORE_FAULT: u64 = 3;
const ROUNDS_AFTER_FAULT: u64 = 3;
const CONVERGE: Duration = Duration::from_secs(10);

/// One regional relay: its own broker + server, attached upstream.
struct Relay {
    name: &'static str,
    server: BrokerServer,
    addr: SocketAddr,
    handle: darkdns::broker::transport::RelayHandle,
}

fn spawn_relay(name: &'static str, root_addr: SocketAddr, tld_ids: &[TldId]) -> Relay {
    let broker = Broker::new(BrokerConfig {
        subscriber_capacity: 1 << 16,
        ..BrokerConfig::default()
    });
    let server = BrokerServer::new(
        broker,
        TransportConfig { writer_tick: Duration::from_millis(2), ..TransportConfig::default() },
    );
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind relay");
    let handle = server.attach_upstream(tld_ids.to_vec(), move || {
        Ok(Box::new(tcp_connect(root_addr)?) as Box<dyn FrameConn>)
    });
    Relay { name, server, addr, handle }
}

fn dial_edge(addr: &SocketAddr) -> Result<Box<dyn FrameConn>, TransportError> {
    let mut conn = tcp_connect(*addr)?;
    conn.set_recv_timeout(Some(Duration::from_millis(2)))?;
    Ok(Box::new(conn))
}

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

    // Tier 1: the root broker, the only node that ever encodes a delta.
    let root_broker = Broker::new(BrokerConfig {
        subscriber_capacity: 1 << 16,
        ..BrokerConfig::default()
    });
    feed.register_shards(&root_broker);
    let root_server = BrokerServer::new(
        root_broker.clone(),
        TransportConfig { writer_tick: Duration::from_millis(2), ..TransportConfig::default() },
    );
    let root_addr = root_server.listen_tcp("127.0.0.1:0").expect("bind root");

    // Tier 2: two regional relays bootstrapping from the root.
    let west = spawn_relay("west", root_addr, &tld_ids);
    let east = spawn_relay("east", root_addr, &tld_ids);
    for relay in [&west, &east] {
        let deadline = std::time::Instant::now() + CONVERGE;
        while relay.handle.stats().snapshots_installed < FLEET as u64 {
            assert!(std::time::Instant::now() < deadline, "{} relay bootstrap", relay.name);
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    println!(
        "root at {root_addr}; relays west {} / east {} bootstrapped ({} shards each)",
        west.addr, east.addr, FLEET
    );

    // Tier 3: four edge feeds, each preferring its region's relay but
    // carrying the sibling in its replica list. Edges 0,1 are west;
    // edges 2,3 are east.
    let mut edges: Vec<_> = (0..EDGES)
        .map(|e| {
            let prefer = if e < 2 { west.addr } else { east.addr };
            let fallback = if e < 2 { east.addr } else { west.addr };
            let mut map = EndpointMap::new();
            map.add_route(tld_ids.clone(), vec![prefer, fallback]);
            let index = Arc::new(EdgeIndex::new(EdgeIndexConfig::default()));
            RoutedEdgeFeed::connect(map, dial_edge, index).expect("edge bootstrap")
        })
        .collect();

    // An RZUQ-speaking query front over edge0's index: the third tier's
    // scrape endpoint.
    let edge_server = EdgeServer::new(
        Arc::clone(edges[0].index()),
        EdgeConfig { writer_tick: Duration::from_millis(2), ..EdgeConfig::default() },
    );
    let edge_addr = edge_server.listen_tcp("127.0.0.1:0").expect("bind edge server");

    let step = SimDuration::from_minutes(30);
    let mut at = anchor;
    let mut published = 0usize;
    let pump_round = |edges: &mut Vec<_>, root: &Broker, label: &str| {
        let targets: Vec<(TldId, Serial)> = tld_ids
            .iter()
            .filter_map(|&t| root.head(t).map(|h| (t, h.serial())))
            .collect();
        for (e, edge) in edges.iter_mut().enumerate() {
            let edge: &mut RoutedEdgeFeed<SocketAddr, _> = edge;
            assert!(
                edge.pump_until_serials(&targets, CONVERGE),
                "edge{e} must converge {label}"
            );
        }
    };

    for _ in 0..ROUNDS_BEFORE_FAULT {
        at = at + step;
        published += feed.publish_until(&root_broker, at);
        pump_round(&mut edges, &root_broker, "pre-fault");
    }
    println!("{published} pushes fanned out through both relays; all 4 edges in sync");

    // Kill the east relay mid-stream. Its two edges hold dead sockets;
    // the publisher does not pause.
    east.server.shutdown();
    println!("east relay killed; publishing continues");

    for _ in 0..ROUNDS_AFTER_FAULT {
        at = at + step;
        published += feed.publish_until(&root_broker, at);
        pump_round(&mut edges, &root_broker, "post-fault");
    }

    // The east edges healed by failing over to the west relay with
    // their serial claims: one resync each, replayed as deltas (no
    // fresh snapshot bootstrap), and no delta applied twice — the view
    // would refuse a non-chaining serial.
    for (e, edge) in edges.iter().enumerate() {
        let region = if e < 2 { "west" } else { "east" };
        println!(
            "edge{e} ({region}): serials ok, frames {:>3}, snapshots {:>2}, \
             failovers {}, resyncs {}",
            edge.view().frames_applied(),
            edge.view().snapshots_adopted(),
            edge.failover_count(),
            edge.view().resync_count(),
        );
        assert!(edge.is_connected(), "edge{e} must end connected");
        assert_eq!(edge.view().snapshots_adopted(), FLEET as u64, "claims heal: no re-bootstrap");
        if e < 2 {
            assert_eq!(edge.view().resync_count(), 0, "west edges never faulted");
        } else {
            assert!(edge.failover_count() >= 1, "east edges must fail over");
            assert_eq!(edge.view().resync_count(), 1, "exactly one resync per orphaned edge");
        }
    }
    let west_stats = west.handle.stats();
    assert!(west.handle.is_connected(), "west relay must survive");
    assert_eq!(west_stats.resyncs, 0, "the root link never faulted");
    assert_eq!(west_stats.frames_relayed, published as u64, "every delta relayed verbatim");

    // RZUQ across all three tiers, same wire dialect everywhere.
    let root_report = fetch_stats(tcp_connect(root_addr).expect("dial root")).expect("scrape root");
    let west_report =
        fetch_stats(tcp_connect(west.addr).expect("dial relay")).expect("scrape relay");
    let edge_report =
        fetch_stats(tcp_connect(edge_addr).expect("dial edge")).expect("scrape edge");
    println!("\nRZUQ scrape, tier by tier:");
    println!(
        "  root  : {:>4} deltas sent, {:>2} snapshots, {:>2} live subs",
        root_report.server.deltas_sent,
        root_report.server.snapshots_sent,
        root_report.subs.len(),
    );
    println!(
        "  relay : {:>4} deltas sent, {:>2} snapshots, {:>2} live subs (west; east is dark)",
        west_report.server.deltas_sent,
        west_report.server.snapshots_sent,
        west_report.subs.len(),
    );
    // Edge dialect: handshakes = lookup batches, shard.pushes = epoch.
    println!(
        "  edge  : {:>4} index epoch, {:>2} open conns (query front over edge0)",
        edge_report.shards.first().map_or(0, |s| s.pushes),
        edge_report.shards.first().map_or(0, |s| s.subscribers),
    );
    print!("  heads : ");
    for shard in &root_report.shards {
        let relay_head = west_report
            .shards
            .iter()
            .find(|r| r.tld == shard.tld)
            .map(|r| r.head_serial)
            .expect("relay mirrors every shard");
        assert_eq!(relay_head, shard.head_serial, "relay head must match root");
        print!("tld{}:{} ", shard.tld, shard.head_serial.get());
    }
    println!("(root == relay on every shard)");
    // After the survivors absorbed the east edges, the west relay
    // serves all four edges.
    assert_eq!(west_report.subs.len(), EDGES, "all edges on the surviving relay");

    edge_server.shutdown();
    west.server.shutdown();
    root_server.shutdown();
    println!("\nrelay fleet run complete: {published} pushes, one relay lost, zero gaps");
}
