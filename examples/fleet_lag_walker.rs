//! Fleet-wide lag walker: one `RZUQ` dialect, every tier.
//!
//! Operators of a tiered RZU deployment need one question answered per
//! TLD: *how far behind the root is each tier right now?* Every node in
//! the tree — the root broker, each (shard-filtered) relay, and the
//! edge query front — answers the same `RZUQ` stats round trip with
//! per-shard head serials, so a walker can dial the whole fleet and
//! render per-TLD lag without any node-specific protocol.
//!
//! Topology (all links loopback TCP; relays are **shard-filtered**,
//! each claiming half the universe in its HELLO so only its own shards
//! ever cross its upstream link):
//!
//! ```text
//!                 root broker   (6 TLD shards)
//!                 /          \
//!     relay west (tld 0-2)  relay east (tld 3-5)
//!                 \          /
//!            routed edge feed (2 routes)  →  EdgeServer (RZUQ front)
//! ```
//!
//! The run publishes churn, scrapes the fleet **mid-flight** (before
//! the edge pumps) so the walk shows real non-zero lag at the edge
//! tier, then pumps to convergence and walks again to show the lag
//! draining to zero — asserting, along the way, that each filtered
//! relay reports exactly its subscribed subset and nothing else.
//!
//! ```sh
//! cargo run --release --example fleet_lag_walker [seed]
//! ```

use darkdns::broker::transport::{fetch_stats, tcp_connect, FrameConn, StatsReport, TransportError};
use darkdns::broker::{Broker, BrokerConfig, BrokerServer, TransportConfig, UniverseFeed};
use darkdns::core::broker_view::EndpointMap;
use darkdns::dns::Serial;
use darkdns::edge::{EdgeConfig, EdgeIndex, EdgeIndexConfig, EdgeServer, RoutedEdgeFeed};
use darkdns::registry::tld::{synthetic_fleet, TldId};
use darkdns::registry::workload::{build_fleet_universe, WorkloadConfig};
use darkdns::sim::time::SimDuration;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const FLEET: usize = 6;
const ROUNDS: u64 = 4;
const CONVERGE: Duration = Duration::from_secs(10);

/// One tier's scrape, reduced to what the lag walk needs: per-TLD head
/// serials (absent = the node does not carry that shard).
struct TierHeads {
    name: &'static str,
    heads: BTreeMap<u16, u32>,
}

fn walk_tier(name: &'static str, addr: SocketAddr) -> TierHeads {
    let report: StatsReport =
        fetch_stats(tcp_connect(addr).expect("dial tier")).expect("RZUQ scrape");
    let heads =
        report.shards.iter().map(|s| (s.tld, s.head_serial.get())).collect::<BTreeMap<_, _>>();
    TierHeads { name, heads }
}

/// Render the fleet walk: one row per TLD, one column per tier, each
/// cell `head (lag)` against the root column. Returns the worst lag
/// seen at the last tier (the edge), so callers can assert on it.
fn render_walk(root: &TierHeads, tiers: &[&TierHeads]) -> u32 {
    print!("{:>6} | {:>10}", "tld", root.name);
    for tier in tiers {
        print!(" | {:>14}", tier.name);
    }
    println!();
    let mut worst_edge_lag = 0u32;
    for (&tld, &root_head) in &root.heads {
        print!("{tld:>6} | {root_head:>10}");
        for (i, tier) in tiers.iter().enumerate() {
            match tier.heads.get(&tld) {
                Some(&head) => {
                    // RFC 1982 order guarantees root >= every tier here;
                    // the walk renders plain distance.
                    let lag = root_head.wrapping_sub(head);
                    if i == tiers.len() - 1 {
                        worst_edge_lag = worst_edge_lag.max(lag);
                    }
                    print!(" | {head:>8} ({lag:>2})");
                }
                None => print!(" | {:>14}", "-"),
            }
        }
        println!();
    }
    worst_edge_lag
}

fn dial_edge(addr: &SocketAddr) -> Result<Box<dyn FrameConn>, TransportError> {
    let mut conn = tcp_connect(*addr)?;
    conn.set_recv_timeout(Some(Duration::from_millis(2)))?;
    Ok(Box::new(conn))
}

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(11);
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

    // Two shard-filtered relays: west carries TLDs 0..3, east 3..6.
    // Each relay's HELLO claims exactly its half, so the other
    // half's frames never cross its upstream link.
    let west_tlds: Vec<TldId> = tld_ids[..FLEET / 2].to_vec();
    let east_tlds: Vec<TldId> = tld_ids[FLEET / 2..].to_vec();
    let spawn_relay = |subset: Vec<TldId>| {
        let server = BrokerServer::new(
            Broker::new(BrokerConfig {
                subscriber_capacity: 1 << 16,
                ..BrokerConfig::default()
            }),
            TransportConfig { writer_tick: Duration::from_millis(2), ..TransportConfig::default() },
        );
        let addr = server.listen_tcp("127.0.0.1:0").expect("bind relay");
        let count = subset.len() as u64;
        let handle = server.attach_upstream(subset, move || {
            Ok(Box::new(tcp_connect(root_addr)?) as Box<dyn FrameConn>)
        });
        let deadline = std::time::Instant::now() + CONVERGE;
        while handle.stats().snapshots_installed < count {
            assert!(std::time::Instant::now() < deadline, "relay bootstrap");
            std::thread::sleep(Duration::from_millis(1));
        }
        (server, addr, handle)
    };
    let (west_server, west_addr, west_handle) = spawn_relay(west_tlds.clone());
    let (east_server, east_addr, east_handle) = spawn_relay(east_tlds.clone());
    println!(
        "root {root_addr}; filtered relays west {west_addr} (tld 0-{}) / east {east_addr} (tld {}-{})",
        FLEET / 2 - 1,
        FLEET / 2,
        FLEET - 1
    );

    // One routed edge feed spanning both relays (one route per shard
    // partition), fronted by an RZUQ-speaking EdgeServer.
    let mut map = EndpointMap::new();
    map.add_route(west_tlds.clone(), vec![west_addr]);
    map.add_route(east_tlds.clone(), vec![east_addr]);
    let index = Arc::new(EdgeIndex::new(EdgeIndexConfig::default()));
    let mut edge = RoutedEdgeFeed::connect(map, dial_edge, index).expect("edge bootstrap");
    let edge_server = EdgeServer::new(
        Arc::clone(edge.index()),
        EdgeConfig { writer_tick: Duration::from_millis(2), ..EdgeConfig::default() },
    );
    let edge_addr = edge_server.listen_tcp("127.0.0.1:0").expect("bind edge front");

    // Publish churn; keep the edge converged for the first rounds.
    let step = SimDuration::from_minutes(30);
    let mut at = anchor;
    let mut published = 0usize;
    let targets = |root: &Broker| -> Vec<(TldId, Serial)> {
        tld_ids.iter().filter_map(|&t| root.head(t).map(|h| (t, h.serial()))).collect()
    };
    for _ in 0..ROUNDS - 1 {
        at = at + step;
        published += feed.publish_until(&root_broker, at);
        assert!(edge.pump_until_serials(&targets(&root_broker), CONVERGE), "edge converges");
    }

    // Final round: publish, give the relays a beat to absorb it, but
    // do NOT pump the edge yet — the walk catches the edge mid-lag.
    at = at + step;
    published += feed.publish_until(&root_broker, at);
    let relay_deadline = std::time::Instant::now() + CONVERGE;
    loop {
        let west_ok = west_tlds.iter().all(|&t| {
            walk_tier("west", west_addr).heads.get(&t.0).copied()
                == root_broker.head(t).map(|h| h.serial().get())
        });
        let east_ok = east_tlds.iter().all(|&t| {
            walk_tier("east", east_addr).heads.get(&t.0).copied()
                == root_broker.head(t).map(|h| h.serial().get())
        });
        if west_ok && east_ok {
            break;
        }
        assert!(std::time::Instant::now() < relay_deadline, "relays absorb the final round");
        std::thread::sleep(Duration::from_millis(1));
    }

    let root_heads = walk_tier("root", root_addr);
    let west_heads = walk_tier("relay west", west_addr);
    let east_heads = walk_tier("relay east", east_addr);
    let edge_heads = walk_tier("edge front", edge_addr);

    // A filtered relay's report IS its subscription: exactly its
    // subset, nothing else — the other half never crossed its link.
    assert_eq!(west_heads.heads.len(), FLEET / 2, "west reports only its subset");
    assert_eq!(east_heads.heads.len(), FLEET - FLEET / 2, "east reports only its subset");
    assert!(west_tlds.iter().all(|t| west_heads.heads.contains_key(&t.0)));
    assert!(east_tlds.iter().all(|t| east_heads.heads.contains_key(&t.0)));

    println!("\nfleet walk, mid-flight (edge not yet pumped):");
    let lag_before =
        render_walk(&root_heads, &[&west_heads, &east_heads, &edge_heads]);
    println!("worst edge lag: {lag_before} serials behind the root");

    // Drain the lag and walk again: every tier's head must now equal
    // the root's on every TLD it carries.
    assert!(edge.pump_until_serials(&targets(&root_broker), CONVERGE), "edge drains its lag");
    let root_heads = walk_tier("root", root_addr);
    let west_heads = walk_tier("relay west", west_addr);
    let east_heads = walk_tier("relay east", east_addr);
    let edge_heads = walk_tier("edge front", edge_addr);
    println!("\nfleet walk, after the edge pump:");
    let lag_after = render_walk(&root_heads, &[&west_heads, &east_heads, &edge_heads]);
    assert_eq!(lag_after, 0, "a converged fleet walks with zero lag everywhere");
    for heads in [&west_heads, &east_heads, &edge_heads] {
        for (tld, head) in &heads.heads {
            assert_eq!(
                Some(head),
                root_heads.heads.get(tld).as_deref(),
                "{} head for tld {tld} must match the root",
                heads.name
            );
        }
    }

    // The filtered link accounting: each relay relayed only its half.
    let west_stats = west_handle.stats();
    let east_stats = east_handle.stats();
    assert_eq!(
        west_stats.frames_relayed + east_stats.frames_relayed,
        published as u64,
        "the two filtered halves partition the root's push stream"
    );
    println!(
        "\n{published} pushes split across filtered links: west relayed {}, east {}",
        west_stats.frames_relayed, east_stats.frames_relayed
    );

    edge_server.shutdown();
    west_server.shutdown();
    east_server.shutdown();
    root_server.shutdown();
    println!("fleet lag walk complete: {ROUNDS} rounds, zero residual lag");
}
