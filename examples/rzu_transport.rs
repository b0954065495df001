//! The RZU distribution broker over a real socket transport.
//!
//! Builds a 3-TLD universe, materialises each TLD's RZU feed as a zone
//! delta stream, and serves it through `BrokerServer` on loopback TCP.
//! Four remote subscribers follow over sockets via `RemoteZoneView` —
//! frames are decoded by the same codecs a WAN deployment would use.
//! Mid-stream, one subscriber's socket is killed; it reconnects
//! carrying its per-TLD serial claims, so the broker heals it with a
//! delta replay of exactly the churn it missed. Everyone converges to
//! the publisher's head serials.
//!
//! ```sh
//! cargo run --release --example rzu_transport [seed]
//! ```

use darkdns::broker::transport::{FrameConn, LengthPrefixed, TransportClient, TransportError};
use darkdns::broker::{
    Broker, BrokerConfig, BrokerServer, RetentionConfig, TransportConfig,
    UniverseFeed,
};
use darkdns::core::broker_view::RemoteZoneView;
use darkdns::dns::Serial;
use darkdns::registry::czds::SnapshotSchedule;
use darkdns::registry::hosting::HostingLandscape;
use darkdns::registry::registrar::RegistrarFleet;
use darkdns::registry::tld::{paper_gtlds, TldId};
use darkdns::registry::workload::{UniverseBuilder, WorkloadConfig};
use darkdns::sim::rng::RngPool;
use darkdns::sim::time::SimDuration;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Dial the server, remembering a socket clone so the example can kill
/// the link from outside (the "crashed subscriber" act).
fn dialer(
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
        retention: RetentionConfig::new(256, 32),
        subscriber_capacity: 4096,
    });
    feed.register_shards(&broker);

    let server = BrokerServer::new(
        broker.clone(),
        TransportConfig { writer_tick: Duration::from_millis(10), ..TransportConfig::default() },
    );
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");
    println!(
        "broker over 3 TLDs (seed {seed}) serving RZU4 frames on tcp://{addr} — {} pushes pending",
        feed.pending()
    );

    // Four socket subscribers. Subscriber 0 gets a kill switch.
    const SUBS: usize = 4;
    let kill = Arc::new(Mutex::new(None));
    let mut views: Vec<_> = (0..SUBS)
        .map(|i| {
            let kill = if i == 0 { Arc::clone(&kill) } else { Arc::new(Mutex::new(None)) };
            RemoteZoneView::connect(&tld_ids, dialer(addr, kill)).expect("tcp connect")
        })
        .collect();

    // First half of the stream, pumped live over the sockets.
    let halfway = feed.pending() / 2;
    for _ in 0..halfway {
        feed.publish_next(&broker);
    }
    pump_all(&mut views);

    // Kill subscriber 0's freshest socket: the next pump notices the
    // dead link and reconnects claiming its per-TLD serials.
    if let Some(sock) = kill.lock().unwrap().take() {
        let _ = sock.shutdown(Shutdown::Both);
    }
    // Also sever its *current* subscription the blunt way: drop frames
    // by publishing while it is not pumping. (The other three keep up.)
    feed.publish_all(&broker);
    converge(&mut views, &broker, &tld_ids);

    println!("\nconvergence serials over TCP:");
    for &tld in &tld_ids {
        let head = broker.head(tld).expect("shard exists").serial();
        print!("  tld {:<2} head {:>6}", tld.0, head.get());
        for (i, view) in views.iter().enumerate() {
            let serial = view.view().serial(tld).expect("synced").get();
            assert_eq!(serial, head.get(), "subscriber {i} diverged on tld {}", tld.0);
            print!("  sub{i} {serial:>6}");
        }
        println!();
    }

    let stats = server.stats();
    println!(
        "\ntransport: {} handshakes, {} delta envelopes + {} snapshots sent, {} disconnects",
        stats.handshakes, stats.deltas_sent, stats.snapshots_sent, stats.disconnects,
    );
    for (i, view) in views.iter().enumerate() {
        println!(
            "  sub{i}: {} frames applied, {} snapshots adopted, {} resyncs",
            view.view().frames_applied(),
            view.view().snapshots_adopted(),
            view.view().resync_count(),
        );
    }
    let broker_stats = broker.stats();
    println!(
        "\nbroker: {} frames encoded once ({} KiB), {} deliveries, {} catch-ups \
         ({} snapshot / {} delta)",
        broker_stats.frames_encoded,
        broker_stats.frame_bytes_encoded / 1024,
        broker_stats.deliveries,
        broker_stats.snapshot_catchups + broker_stats.delta_catchups,
        broker_stats.snapshot_catchups,
        broker_stats.delta_catchups,
    );
    server.shutdown();
    println!("\nall {SUBS} socket subscribers converged to the head serials; done");
}

fn pump_all<D>(views: &mut [RemoteZoneView<D>])
where
    D: FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError>,
{
    for view in views.iter_mut() {
        view.pump(4096);
    }
}

fn converge<D>(views: &mut [RemoteZoneView<D>], broker: &Broker, tlds: &[TldId])
where
    D: FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError>,
{
    let deadline = Instant::now() + Duration::from_secs(60);
    for view in views.iter_mut() {
        loop {
            view.pump(4096);
            let synced = tlds
                .iter()
                .all(|&t| view.view().serial(t) == broker.head(t).map(|h| h.serial()));
            if synced {
                break;
            }
            assert!(Instant::now() < deadline, "subscriber failed to converge over TCP");
        }
    }
}
