//! Edge-tier equivalence: the thin-client acceptance pin.
//!
//! The edge's whole claim is that a thin client gets *exactly* the
//! answer a full replica would give at the same serial — membership,
//! shard serial, and NRD recency, across the wire. This harness runs
//! one deterministic universe feed into a broker and stands up three
//! consumers:
//!
//! * a **full replica** (`BrokerZoneView`), the reference for
//!   membership and serials;
//! * an **NRD oracle**: a raw subscription whose delta pushes are
//!   decoded in the test to record each added name's publisher-side
//!   `pushed_at` — ground truth for the edge's hot recency window;
//! * the **edge stack**: `EdgeFeed` → `EdgeIndex` → `EdgeServer` on
//!   loopback TCP → `EdgeClient`, so every compared answer crossed the
//!   `RZUL`/`RZUA` codecs for real.
//!
//! After every publish step the serials are barriered, then every name
//! the feed ever added (plus known-absent probes and ANY-TLD scans) is
//! queried through the client and compared field by field. Any feed
//! bug — a missed delta, a double apply, snapshot leakage into the NRD
//! window, an epoch torn between shards — shows up as a field diff.

use darkdns::broker::{Broker, BrokerConfig, BrokerMessage};
use darkdns::core::broker_view::BrokerZoneView;
use darkdns::core::{ExperimentConfig, LiveInputs};
use darkdns::dns::wire::{LookupQuery, LOOKUP_ANY_TLD};
use darkdns::dns::{decode_delta_push, DomainName};
use darkdns::edge::{EdgeClient, EdgeConfig, EdgeFeed, EdgeIndex, EdgeIndexConfig, EdgeServer};
use darkdns::registry::tld::TldId;
use darkdns::sim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn roomy_broker() -> Broker {
    Broker::new(BrokerConfig {
        subscriber_capacity: 1 << 20,
        ..BrokerConfig::default()
    })
}

#[test]
fn edge_answers_match_the_full_replica_at_every_serial() {
    let inputs = LiveInputs::build(ExperimentConfig::small(47), SimDuration::from_minutes(5));
    let broker = roomy_broker();
    let mut feed = inputs.feed();
    feed.register_shards(&broker);

    let mut replica = BrokerZoneView::subscribe(&broker, &inputs.tld_ids);
    let oracle_sub = broker.subscribe(&inputs.tld_ids, None);

    // An effectively unbounded hot window: the pin compares every added
    // name against ground truth exactly; the age/capacity pruning rules
    // have their own unit tests in `darkdns_edge::index`.
    let index = Arc::new(EdgeIndex::new(EdgeIndexConfig {
        nrd_window_secs: u64::MAX / 2,
        nrd_capacity: 1 << 20,
    }));
    let mut edge_feed = EdgeFeed::subscribe(&broker, &inputs.tld_ids, Arc::clone(&index));
    let server = EdgeServer::new(
        Arc::clone(&index),
        EdgeConfig { writer_tick: Duration::from_millis(5), ..EdgeConfig::default() },
    );
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");
    let mut client = EdgeClient::connect_tcp(addr).expect("dial edge");

    // Ground truth for the hot window: every delta-added name with the
    // publisher-side timestamp the edge must echo back.
    let mut oracle_nrd: HashMap<(TldId, DomainName), SimTime> = HashMap::new();
    let mut added: Vec<(TldId, DomainName)> = Vec::new();

    let horizon = inputs.anchor + inputs.config.horizon();
    let steps = 6u64;
    let step = SimDuration::from_secs(
        horizon.saturating_since(inputs.anchor).as_secs() / steps,
    );
    let mut compared = 0usize;
    for k in 1..=steps {
        let until = if k == steps { horizon } else { inputs.anchor + SimDuration::from_secs(step.as_secs() * k) };
        feed.publish_until(&broker, until);
        replica.pump();
        edge_feed.pump();
        while let Some(msg) = oracle_sub.try_next() {
            if let BrokerMessage::Delta { tld, frame } = msg {
                let push = decode_delta_push(&frame).expect("well-formed frame");
                for (name, _) in &push.delta.added {
                    oracle_nrd.insert((tld, *name), push.pushed_at);
                    added.push((tld, *name));
                }
            }
        }
        // Serial barrier: everything is in-process, so one pump suffices
        // — assert it rather than assume it.
        for &tld in &inputs.tld_ids {
            let head = broker.head(tld).expect("shard").serial();
            assert_eq!(replica.serial(tld), Some(head), "replica behind at step {k}");
            assert_eq!(edge_feed.view().serial(tld), Some(head), "edge feed behind at step {k}");
        }

        // The pin: every name the feed ever added, plus absent probes
        // and ANY-TLD scans, answered identically by replica and edge.
        let mut queries: Vec<LookupQuery> = Vec::new();
        for &(tld, name) in &added {
            queries.push(LookupQuery { tld: tld.0, name });
            queries.push(LookupQuery { tld: LOOKUP_ANY_TLD, name });
        }
        for i in 0..8u32 {
            let miss = DomainName::parse(&format!("never-registered-{i}.example")).unwrap();
            queries.push(LookupQuery { tld: inputs.tld_ids[0].0, name: miss });
        }
        for chunk in queries.chunks(darkdns::edge::MAX_LOOKUP_BATCH) {
            let response = client.lookup(chunk).expect("edge lookup");
            assert_eq!(response.answers.len(), chunk.len());
            for (query, answer) in chunk.iter().zip(&response.answers) {
                if query.tld == LOOKUP_ANY_TLD {
                    assert_eq!(
                        answer.present,
                        replica.contains_anywhere(&query.name),
                        "ANY-TLD membership diverged for {}",
                        query.name
                    );
                    assert_eq!(answer.serial, None);
                    let expected = inputs
                        .tld_ids
                        .iter()
                        .filter_map(|&t| oracle_nrd.get(&(t, query.name)).copied())
                        .max();
                    assert_eq!(
                        answer.first_seen, expected,
                        "ANY-TLD NRD recency diverged for {}",
                        query.name
                    );
                } else {
                    let tld = TldId(query.tld);
                    assert_eq!(
                        answer.present,
                        replica.contains(tld, &query.name),
                        "membership diverged for {} in tld {}",
                        query.name,
                        query.tld
                    );
                    assert_eq!(
                        answer.serial,
                        replica.serial(tld),
                        "serial diverged for tld {}",
                        query.tld
                    );
                    assert_eq!(
                        answer.first_seen,
                        oracle_nrd.get(&(tld, query.name)).copied(),
                        "NRD recency diverged for {} in tld {}",
                        query.name,
                        query.tld
                    );
                }
                compared += 1;
            }
        }
    }
    assert!(!added.is_empty(), "the feed must add names for the pin to bite");
    assert!(compared > added.len(), "the pin must compare real traffic");

    // The zone-NRD drain side of the contract matches too: the edge
    // feed's view logs the same added-name set as the replica.
    let mut from_replica = Vec::new();
    replica.drain_new_domains(&mut from_replica);
    let mut from_edge = Vec::new();
    edge_feed.drain_new_domains(&mut from_edge);
    from_replica.sort_unstable();
    from_edge.sort_unstable();
    assert_eq!(from_replica, from_edge, "zone-NRD logs diverged");
    assert_eq!(server.stats().bad_frames, 0, "a thin client speaks the protocol cleanly");

    server.shutdown();
}
