//! The writer side of the edge: a broker subscription feeding the
//! epoch-swap index.
//!
//! The edge subscribes to the broker **like any other consumer** — the
//! chain discipline (serial gap detection, no-double-apply, claims,
//! resync accounting) is a [`BrokerZoneView`]'s, and one [`RouteSink`],
//! [`IndexSink`], mirrors every message that view accepts into the
//! [`EdgeIndex`]:
//!
//! * a snapshot message is adopted by the view and the index ([`EdgeIndex::adopt_snapshot`]);
//! * a delta that chains advances the view, then the index installs the
//!   view's **own post-apply snapshot** ([`EdgeIndex::apply_delta`]).
//!   The two therefore share one `Arc`'d snapshot per TLD — the edge
//!   answers from *byte-identical* state to a full replica at the same
//!   serial, by construction rather than by test alone — and the
//!   push's `added` section lands in the hot NRD window stamped with
//!   the publisher-side `pushed_at`.
//!
//! Two deployment shapes, the consumer stack's own: [`EdgeFeed`] wraps
//! an attached view draining an in-process subscription;
//! [`RoutedEdgeFeed`] wraps a [`RoutedZoneView`] for an edge deployed
//! across a socket from its broker(s) — a one-route map is the plain
//! single-upstream case. Neither adds any dial, failover or drain logic
//! of its own: that is the shared upstream-link driver
//! (`darkdns_broker::transport::replica`) under the view.

use crate::index::EdgeIndex;
use darkdns_broker::transport::{FrameConn, TransportError};
use darkdns_broker::Broker;
use darkdns_core::broker_view::{
    pump_until_serials, BrokerZoneView, EndpointMap, RouteSink, RouteStatus, RoutedZoneView,
};
use darkdns_dns::wire::DeltaPush;
use darkdns_dns::{DomainName, Serial, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use std::sync::Arc;
use std::time::Duration;

/// The index-mirroring [`RouteSink`]: forwards every message a view
/// accepts into the epoch-swap index, post-apply, so the edge answers
/// from byte-identical state to the view (the snapshots are
/// `Arc`-shared — the clones are pointer copies).
struct IndexSink {
    index: Arc<EdgeIndex>,
}

impl RouteSink for IndexSink {
    fn on_snapshot(&mut self, tld: TldId, snapshot: &ZoneSnapshot) {
        self.index.adopt_snapshot(tld, snapshot.clone());
    }

    fn on_delta(&mut self, tld: TldId, state: &ZoneSnapshot, push: &DeltaPush) {
        self.index.apply_delta(tld, state.clone(), push);
    }
}

/// In-process edge feed: one broker subscription, one index.
pub struct EdgeFeed {
    view: BrokerZoneView,
    sink: IndexSink,
}

impl EdgeFeed {
    /// Subscribe with no prior state: every shard bootstraps from a
    /// checkpoint snapshot, which the index adopts on the first
    /// [`EdgeFeed::pump`].
    pub fn subscribe(broker: &Broker, tlds: &[TldId], index: Arc<EdgeIndex>) -> Self {
        EdgeFeed { view: BrokerZoneView::subscribe(broker, tlds), sink: IndexSink { index } }
    }

    /// Drain everything queued into the view and the index. Returns the
    /// number of messages applied; stops early on a serial gap or
    /// eviction (the view latches lost-sync until [`EdgeFeed::resync`]).
    pub fn pump(&mut self) -> usize {
        self.view.pump_with(&mut self.sink)
    }

    /// Rejoin the broker carrying the view's per-TLD serial claims; the
    /// catch-up heals the gap via delta replay or checkpoint.
    pub fn resync(&mut self, broker: &Broker) {
        self.view.resync(broker);
    }

    /// Pump until the index's serial matches `targets` for every listed
    /// TLD or `timeout` elapses — the bench/test barrier for "the edge
    /// has seen everything published so far".
    pub fn pump_until_serials(&mut self, targets: &[(TldId, Serial)], timeout: Duration) -> bool {
        pump_until_serials(self, targets, timeout, |s| &s.view, |s| s.pump())
    }

    /// The chain-state view (sync health, claims, resync count).
    pub fn view(&self) -> &BrokerZoneView {
        &self.view
    }

    /// Drain the accumulated zone-NRD log (see
    /// [`BrokerZoneView::drain_new_domains`]).
    pub fn drain_new_domains(&mut self, out: &mut Vec<DomainName>) {
        self.view.drain_new_domains(out);
    }

    pub fn index(&self) -> &Arc<EdgeIndex> {
        &self.sink.index
    }
}

/// An edge feed spanning a **partitioned, replicated** broker fleet:
/// one upstream connection per [`EndpointMap`] route, all mirroring
/// into one shared view + index pair — the socket-deployed edge feed
/// (one route with one replica is the single-upstream case). All
/// routing behaviour (per-route replica failover, resume-with-claims
/// recovery, health-based replica selection, dead-with-backoff, live
/// endpoint-map updates with graceful drains) comes from wrapping
/// [`darkdns_core::broker_view::RoutedZoneView`] and mirroring its
/// applied stream through a [`RouteSink`] — the edge adds no routing
/// logic of its own.
pub struct RoutedEdgeFeed<E, D>
where
    D: FnMut(&E) -> Result<Box<dyn FrameConn>, TransportError>,
{
    routed: RoutedZoneView<E, D>,
    sink: IndexSink,
}

impl<E, D> RoutedEdgeFeed<E, D>
where
    D: FnMut(&E) -> Result<Box<dyn FrameConn>, TransportError>,
{
    /// Dial every route's preferred replica (failing over down each
    /// list) and bootstrap the shared view + index. Errors only when
    /// some route has no reachable replica.
    pub fn connect(
        map: EndpointMap<E>,
        dial: D,
        index: Arc<EdgeIndex>,
    ) -> Result<Self, TransportError> {
        Ok(RoutedEdgeFeed { routed: RoutedZoneView::connect(map, dial)?, sink: IndexSink { index } })
    }

    /// Pull up to `max_events` decoded events into the view and index,
    /// visiting every route and healing faults per route.
    pub fn pump(&mut self, max_events: usize) -> usize {
        let applied = self.routed.pump_with(max_events, &mut self.sink);
        // This feed hands its view out read-only, so the view's log of
        // added names has no reader: dropped here, not grown by every
        // new name for as long as the edge runs. The edge's record of
        // them is the index's bounded NRD window.
        self.routed.view_mut().discard_new_domains();
        applied
    }

    /// Pump until the index's serial matches `targets` or `timeout`
    /// elapses.
    pub fn pump_until_serials(&mut self, targets: &[(TldId, Serial)], timeout: Duration) -> bool {
        pump_until_serials(self, targets, timeout, |s| s.routed.view(), |s| s.pump(1024))
    }

    /// Swap in a newer [`EndpointMap`] without restarting the feed —
    /// see [`RoutedZoneView::apply_endpoint_update`] for the
    /// generation gating and graceful-drain semantics.
    pub fn apply_endpoint_update(&mut self, new: EndpointMap<E>) -> bool
    where
        E: PartialEq,
    {
        self.routed.apply_endpoint_update(new)
    }

    /// Replica switches so far, fleet-wide.
    pub fn failover_count(&self) -> u64 {
        self.routed.failover_count()
    }

    /// Snapshot continuation chunks received across every route and
    /// connection generation.
    pub fn snapshot_chunks_received(&self) -> u64 {
        self.routed.snapshot_chunks_received()
    }

    /// Planned drain handoffs completed cleanly (no resync).
    pub fn drains_completed(&self) -> u64 {
        self.routed.drains_completed()
    }

    /// Per-route health/rotation status (see
    /// [`darkdns_core::broker_view::RouteStatus`]).
    pub fn route_status(&self) -> Vec<RouteStatus> {
        self.routed.route_status()
    }

    /// True while every route has an established connection.
    pub fn is_connected(&self) -> bool {
        self.routed.is_connected()
    }

    pub fn view(&self) -> &BrokerZoneView {
        self.routed.view()
    }

    pub fn index(&self) -> &Arc<EdgeIndex> {
        &self.sink.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_broker::transport::{duplex, BrokerServer, LengthPrefixed, TransportConfig};
    use darkdns_broker::BrokerConfig;
    use darkdns_dns::{NsSet, ZoneDelta};
    use darkdns_sim::time::SimTime;

    #[test]
    fn a_routed_feeds_unreadable_nrd_log_does_not_outlive_a_pump() {
        let name = |s: &str| DomainName::parse(s).unwrap();
        let broker = Broker::new(BrokerConfig::default());
        let tld = TldId(0);
        broker.add_shard(
            tld,
            ZoneSnapshot::from_entries(name("com"), Serial::new(0), SimTime::ZERO, vec![]),
        );
        let server = BrokerServer::new(broker.clone(), TransportConfig::default());
        let dial = |_: &()| {
            let (client_end, server_end) = duplex(1 << 16);
            server.spawn_conn(server_end);
            let mut conn = LengthPrefixed::new(client_end);
            conn.set_recv_timeout(Some(Duration::from_millis(5)))?;
            Ok(Box::new(conn) as Box<dyn FrameConn>)
        };
        let mut map = EndpointMap::new();
        map.add_route(vec![tld], vec![()]);
        let index = Arc::new(EdgeIndex::default());
        let mut feed = RoutedEdgeFeed::connect(map, dial, Arc::clone(&index)).unwrap();
        for serial in 1..=5u32 {
            let ns = NsSet::new(vec![name("ns1.x.net")]);
            let delta = ZoneDelta {
                added: vec![(name(&format!("d{serial}.com")), ns)],
                ..ZoneDelta::default()
            };
            broker.publish(tld, delta, Serial::new(serial), SimTime::from_hours(u64::from(serial)));
        }
        assert!(feed.pump_until_serials(&[(tld, Serial::new(5))], Duration::from_secs(30)));
        // The index took the new names; the view kept none of them.
        assert_eq!(index.load().nrd_len(), 5);
        let mut logged = Vec::new();
        feed.routed.view_mut().drain_new_domains(&mut logged);
        assert!(logged.is_empty(), "{} names left in the view's log", logged.len());
        server.shutdown();
    }
}
