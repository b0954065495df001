//! Cross-backend equivalence: the `ZoneMembership` acceptance pin.
//!
//! One deterministic universe feed plus one certstream, run through
//! the full Step-1 detection pipeline against three membership
//! backends:
//!
//! * **direct** — `UniverseZoneView`, ground truth quantised to the
//!   push grid (no broker at all);
//! * **in-process broker** — `BrokerZoneView` subscribed to a `Broker`
//!   fed by `UniverseFeed::publish_until` in certstream time order;
//! * **TCP** — `RemoteZoneView` behind a real `BrokerServer` on
//!   loopback, with a per-entry serial barrier so observation never
//!   races frames still on the wire.
//!
//! The pin: byte-identical `NrdCandidate` vectors (same domains, same
//! records, same detection instants, same order), identical
//! `DetectorStats`, and set-identical zone-NRD logs (arrival order
//! across TLDs legitimately differs between a global-time publisher
//! and per-shard sockets). This is what makes the broker stack a
//! drop-in substrate for the pipeline rather than a demo: any backend
//! divergence — a missed delta, a double apply, a torn view — shows up
//! here as a candidate-set diff.

use darkdns::broker::transport::{tcp_connect, FrameConn, TransportClient};
use darkdns::broker::{Broker, BrokerConfig, BrokerServer, TransportConfig};
use darkdns::core::broker_view::{BrokerZoneView, RemoteZoneView};
use darkdns::core::experiment::{run_certstream_detection, LiveInputs};
use darkdns::core::membership::{SyncHealth, ZoneMembership};
use darkdns::core::ExperimentConfig;
use darkdns::dns::DomainName;
use darkdns::sim::time::SimDuration;
use std::time::Duration;

/// A broker sized so a live, regularly-pumped subscriber can never lag
/// — equivalence must measure the backends, not the tuning.
fn roomy_broker() -> Broker {
    Broker::new(BrokerConfig {
        subscriber_capacity: 1 << 20,
        ..BrokerConfig::default()
    })
}

fn sorted(mut names: Vec<DomainName>) -> Vec<DomainName> {
    names.sort_unstable();
    names
}

#[test]
fn direct_broker_and_tcp_backends_yield_identical_detections() {
    let inputs = LiveInputs::build(ExperimentConfig::small(41), SimDuration::from_minutes(5));

    // --- direct: ground truth on the push grid ----------------------
    let mut direct = inputs.direct_view();
    let direct_run = run_certstream_detection(&inputs, &mut direct, |_, _| {});
    assert!(!direct_run.candidates.is_empty(), "inputs must produce candidates");
    assert!(direct_run.stats.discarded_in_zone > 0, "inputs must produce renewals");
    assert!(!direct_run.zone_nrds.is_empty());

    // --- in-process broker ------------------------------------------
    let broker = roomy_broker();
    let mut feed = inputs.feed();
    feed.register_shards(&broker);
    let mut view = BrokerZoneView::subscribe(&broker, &inputs.tld_ids);
    let broker_run = run_certstream_detection(&inputs, &mut view, |_, at| {
        // Publish up to the entry's instant; the view pumps inside
        // `advance_to` (in-process queues are synchronous).
        feed.publish_until(&broker, at);
    });
    assert_eq!(view.dropped_count(), 0, "a pumped view must never lag");
    assert_eq!(view.resync_count(), 0);
    assert_eq!(view.sync_state().health, SyncHealth::Ready);

    // --- TCP: a real server on loopback -----------------------------
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
    let broker2_ref = &broker2;
    let feed_ref = &mut feed2;
    let tcp_run = run_certstream_detection(&inputs, &mut remote, |view, at| {
        feed_ref.publish_until(broker2_ref, at);
        // Serial barrier: frames cross the socket asynchronously, so
        // wait until the view verifiably holds every published head
        // (includes the bootstrap snapshots on the first entry).
        let targets: Vec<_> = tld_ids
            .iter()
            .map(|&tld| (tld, broker2_ref.head(tld).expect("shard").serial()))
            .collect();
        assert!(
            view.pump_until_serials(&targets, Duration::from_secs(60)),
            "socket view failed to reach the published heads"
        );
    });
    assert_eq!(remote.view().resync_count(), 0, "a healthy link needs no resync");
    assert_eq!(remote.view().sync_state().health, SyncHealth::Ready);
    server.shutdown();

    // --- the pin -----------------------------------------------------
    assert_eq!(
        direct_run.candidates, broker_run.candidates,
        "direct vs in-process broker candidate sets diverged"
    );
    assert_eq!(
        direct_run.candidates, tcp_run.candidates,
        "direct vs TCP candidate sets diverged"
    );
    assert_eq!(direct_run.stats, broker_run.stats);
    assert_eq!(direct_run.stats, tcp_run.stats);

    let reference = sorted(direct_run.zone_nrds);
    assert_eq!(reference, sorted(broker_run.zone_nrds), "zone-NRD logs diverged (broker)");
    assert_eq!(reference, sorted(tcp_run.zone_nrds), "zone-NRD logs diverged (tcp)");
}

#[test]
fn observed_capture_agrees_across_direct_and_broker_backends() {
    // The rzu_ablation consumer-side scoring, fed by two different
    // backends driven over the same feed, lands on the same capture
    // rates — and 5-minute RZU captures what daily snapshots cannot.
    use darkdns::core::rzu_ablation::observed_capture;

    let inputs = LiveInputs::build(ExperimentConfig::small(43), SimDuration::from_minutes(5));
    let horizon = inputs.anchor + inputs.config.horizon();

    let mut direct = inputs.direct_view();
    ZoneMembership::advance_to(&mut direct, horizon);
    let direct_cap = observed_capture(&mut direct, &inputs.universe, inputs.anchor);

    let broker = roomy_broker();
    let mut feed = inputs.feed();
    feed.register_shards(&broker);
    let mut view = BrokerZoneView::subscribe(&broker, &inputs.tld_ids);
    feed.publish_until(&broker, horizon);
    view.pump();
    let broker_cap = observed_capture(&mut view, &inputs.universe, inputs.anchor);

    assert_eq!(direct_cap.transient_total, broker_cap.transient_total);
    assert_eq!(direct_cap.transient_observed, broker_cap.transient_observed);
    assert_eq!(direct_cap.nrd_observed, broker_cap.nrd_observed);
    assert!(direct_cap.transient_capture_pct > 90.0, "{direct_cap:?}");
    assert!(direct_cap.nrd_observed_pct > 99.0, "{direct_cap:?}");
}
