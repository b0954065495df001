//! The consumer contract: zone membership, behind one trait.
//!
//! Every stage of the pipeline that asks "is this name already
//! delegated?" — the Step-1 detector's discard test, the monitor's
//! zone-visibility accounting, the ablation's capture measurement —
//! used to be hard-wired to a borrowed in-process oracle. That coupling
//! meant the PR 2–4 broker and socket stack could distribute deltas
//! fast but never feed the actual detection pipeline.
//! [`ZoneMembership`] is the decoupling: the pipeline is generic over
//! *where the zone view comes from*, and the deployment chooses a
//! backend.
//!
//! # Backends and when to use which
//!
//! | backend | freshness | address space | use it for |
//! |---------|-----------|---------------|------------|
//! | [`OracleMembership`] | daily CZDS snapshots | in-process borrow | the paper's batch reproduction ([`crate::experiment::Experiment::run`]) |
//! | [`UniverseZoneView`] | RZU push cadence | in-process borrow | ground-truth reference runs; the direct backend of the cross-backend equivalence tests |
//! | [`BrokerZoneView`] | RZU push cadence | same process as the broker | single-host streaming deployments; zero serialization on the snapshot path |
//! | [`RemoteZoneView`] | RZU push cadence + socket latency | anywhere a TCP dial reaches | fleet consumers with one upstream; reconnect-with-claims fault recovery built in (a dead upstream is redialled on the shared 50 ms → 2 s backoff ladder) |
//! | [`RoutedZoneView`](crate::broker_view::RoutedZoneView) | RZU push cadence + socket latency | anywhere a TCP dial reaches; one conn per [`EndpointMap`](crate::broker_view::EndpointMap) route | TLD universes partitioned across several brokers (or relay trees); health-scored replica failover (`RZUQ` probes prefer the freshest head, dead endpoints dial at a backed-off rate), generation-gated live endpoint updates (replicas added or drained without restarting the view), claims and chunk-train progress preserved across every switch |
//! | filtered relay (`BrokerServer::attach_upstream`) | RZU push cadence + one relay hop per tier | the relay re-serves in its own process | narrowing a universe down a fan-out tree: a relay's scoped `RZUH` subscribes only its TLD subset, so non-subset shards never cross its upstream link, and subset frames re-serve byte-identical; heals its upstream link like any consumer |
//! | `darkdns_edge::EdgeClient` | RZU push cadence + one edge feed hop | anywhere a TCP dial reaches; no local replica, O(1) memory | query-only thin clients; batched lookups answered from one shared `EdgeIndex` whose read path takes no shard publish locks; replica-list endpoint failover built in, never sleeping inside a lookup |
//!
//! Every socket row above dials through **one driver** —
//! `darkdns_broker::transport::replica`: an `UpstreamLink` (connection,
//! salvaged chunk progress, heal and drain accounting) over a pure,
//! clock-injected `ReplicaSet` (cursor, health-ranked candidate order,
//! the one backoff ladder, the generation gate). `RemoteZoneView` is a
//! link with one replica, `RoutedZoneView` one link per route, the relay
//! thread a link whose claims are its broker's heads, and `EdgeClient`
//! the set alone; the rows differ in what they do with an event, not in
//! how they find, lose and re-find an upstream.
//!
//! All push-cadence backends answer identically for the same feed at
//! the same boundary — pinned by `tests/membership_equivalence.rs`,
//! which runs certstream detection through the direct, in-process-
//! broker and TCP backends and asserts byte-identical candidate sets.
//!
//! # Semantics
//!
//! * **Time.** [`ZoneMembership::advance_to`] brings the view's
//!   knowledge up to `now`: the oracle moves its publication clock,
//!   push-fed views drain whatever frames have arrived. Pull-based
//!   backends are exact; push-based backends additionally need their
//!   producer driven (publish, then pump) — the experiment harness
//!   ([`crate::experiment::run_certstream_detection`]) owns that
//!   interleaving.
//! * **Serials.** [`ZoneMembership::serial`] is a per-TLD freshness
//!   token, comparable only within one backend (the oracle counts
//!   snapshot days, the direct view counts push intervals, broker-fed
//!   views carry zone-journal serials).
//! * **Health.** [`ZoneMembership::sync_state`] says whether answers
//!   are trustworthy right now: a broker view that lost sync reports
//!   [`SyncHealth::LostSync`] until resynced, and consumers must treat
//!   membership answers as stale until then.

use crate::broker_view::{BrokerZoneView, RemoteZoneView};
use darkdns_broker::transport::{TransportClient, TransportError};
use darkdns_dns::{DomainName, Serial};
use darkdns_registry::czds::SnapshotOracle;
use darkdns_registry::live::UniverseZoneView;
use darkdns_registry::tld::TldId;
use darkdns_registry::universe::{DomainRecord, Universe};
use darkdns_sim::time::SimTime;

/// Coarse health of a membership backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncHealth {
    /// Every subscribed TLD has a state and the stream is intact.
    Ready,
    /// Some TLDs have not bootstrapped yet; answers for them are
    /// vacuously negative.
    Bootstrapping,
    /// A serial gap or transport fault left the view unable to
    /// advance; answers are stale until a resync completes.
    LostSync,
}

/// The health probe every backend answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncState {
    pub health: SyncHealth,
    /// Subscribed TLDs currently holding a state.
    pub tlds_ready: usize,
    /// Subscribed TLDs in total.
    pub tlds_total: usize,
    /// Times this view healed a gap by rejoining its source (always 0
    /// for pull-based backends).
    pub resyncs: u64,
}

impl SyncState {
    pub fn is_ready(&self) -> bool {
        self.health == SyncHealth::Ready
    }
}

/// Zone membership as the pipeline consumes it.
///
/// Object-safe; `&mut M` and `Box<dyn ZoneMembership>` forward, so the
/// pipeline stages can borrow one backend in sequence.
pub trait ZoneMembership {
    /// Is `name` currently delegated in `tld`'s view?
    fn contains(&self, tld: TldId, name: &DomainName) -> bool;

    /// Is `name` delegated in any subscribed TLD's view?
    fn contains_anywhere(&self, name: &DomainName) -> bool;

    /// The view's freshness token for `tld` (`None` before any state
    /// exists). Backend-local; never compare across backends.
    fn serial(&self, tld: TldId) -> Option<Serial>;

    /// Append-and-clear the accumulated newly-delegated-domain log into
    /// `out` (the Table-1 "Zone NRD" population as this backend
    /// observes it). Drain-style: implementations reuse their internal
    /// buffer, and callers reuse `out`.
    fn drain_new_domains(&mut self, out: &mut Vec<DomainName>);

    /// Health probe: are membership answers trustworthy right now?
    fn sync_state(&self) -> SyncState;

    /// Bring the view's knowledge up to (at least) `now`. **Monotonic
    /// by contract**: zone views only move forward, and an instant the
    /// view has already passed is a no-op — push-based backends cannot
    /// un-apply deltas, and pull-based backends mirror that so every
    /// backend answers historical probes the same way. Pull-based
    /// backends move their clock; push-based backends drain whatever
    /// has arrived (their producer must be driven separately). The
    /// default is a no-op for views with no notion of time.
    fn advance_to(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Can membership for `tld` be assessed at all yet? Until a
    /// baseline exists, "absent" is indistinguishable from "unseen" and
    /// the detector holds candidates back.
    fn baseline_ready(&self, tld: TldId) -> bool {
        self.serial(tld).is_some()
    }

    /// Membership for a resolved ground-truth record — a fast path for
    /// backends that can answer from the record without a second name
    /// lookup. Must agree with `contains(record.tld, &record.name)`.
    fn contains_record(&self, record: &DomainRecord) -> bool {
        self.contains(record.tld, &record.name)
    }
}

impl<M: ZoneMembership + ?Sized> ZoneMembership for &mut M {
    fn contains(&self, tld: TldId, name: &DomainName) -> bool {
        (**self).contains(tld, name)
    }
    fn contains_anywhere(&self, name: &DomainName) -> bool {
        (**self).contains_anywhere(name)
    }
    fn serial(&self, tld: TldId) -> Option<Serial> {
        (**self).serial(tld)
    }
    fn drain_new_domains(&mut self, out: &mut Vec<DomainName>) {
        (**self).drain_new_domains(out)
    }
    fn sync_state(&self) -> SyncState {
        (**self).sync_state()
    }
    fn advance_to(&mut self, now: SimTime) {
        (**self).advance_to(now)
    }
    fn baseline_ready(&self, tld: TldId) -> bool {
        (**self).baseline_ready(tld)
    }
    fn contains_record(&self, record: &DomainRecord) -> bool {
        (**self).contains_record(record)
    }
}

impl<M: ZoneMembership + ?Sized> ZoneMembership for Box<M> {
    fn contains(&self, tld: TldId, name: &DomainName) -> bool {
        (**self).contains(tld, name)
    }
    fn contains_anywhere(&self, name: &DomainName) -> bool {
        (**self).contains_anywhere(name)
    }
    fn serial(&self, tld: TldId) -> Option<Serial> {
        (**self).serial(tld)
    }
    fn drain_new_domains(&mut self, out: &mut Vec<DomainName>) {
        (**self).drain_new_domains(out)
    }
    fn sync_state(&self) -> SyncState {
        (**self).sync_state()
    }
    fn advance_to(&mut self, now: SimTime) {
        (**self).advance_to(now)
    }
    fn baseline_ready(&self, tld: TldId) -> bool {
        (**self).baseline_ready(tld)
    }
    fn contains_record(&self, record: &DomainRecord) -> bool {
        (**self).contains_record(record)
    }
}

/// The daily-snapshot backend: the paper's batch pipeline, on the
/// shared contract. Wraps the CZDS [`SnapshotOracle`] plus the universe
/// namespace and a publication clock moved by `advance_to`.
pub struct OracleMembership<'a> {
    oracle: &'a SnapshotOracle<'a>,
    universe: &'a Universe,
    now: SimTime,
}

impl<'a> OracleMembership<'a> {
    pub fn new(oracle: &'a SnapshotOracle<'a>, universe: &'a Universe) -> Self {
        OracleMembership { oracle, universe, now: SimTime::ZERO }
    }
}

impl ZoneMembership for OracleMembership<'_> {
    fn contains(&self, tld: TldId, name: &DomainName) -> bool {
        self.universe
            .lookup(name)
            .is_some_and(|r| r.tld == tld && self.oracle.in_latest_available(r, self.now))
    }

    fn contains_anywhere(&self, name: &DomainName) -> bool {
        self.universe.lookup(name).is_some_and(|r| self.oracle.in_latest_available(r, self.now))
    }

    fn serial(&self, tld: TldId) -> Option<Serial> {
        self.oracle
            .schedule()
            .latest_available_day(tld, self.now)
            .map(|day| Serial::new(day as u32))
    }

    fn drain_new_domains(&mut self, _out: &mut Vec<DomainName>) {
        // Snapshot consumers extract zone NRDs by diffing consecutive
        // snapshots — a batch job this oracle-backed view does not
        // materialise. The push-cadence backends carry the live log.
    }

    fn sync_state(&self) -> SyncState {
        let total = self.oracle.schedule().tld_count();
        let ready = (0..total as u16)
            .filter(|&t| self.oracle.baseline_available(TldId(t), self.now))
            .count();
        SyncState {
            // Ground truth never tears; before the first publication a
            // TLD is merely unassessable, which `baseline_ready` gates.
            health: if ready == total { SyncHealth::Ready } else { SyncHealth::Bootstrapping },
            tlds_ready: ready,
            tlds_total: total,
            resyncs: 0,
        }
    }

    fn advance_to(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    fn baseline_ready(&self, tld: TldId) -> bool {
        self.oracle.baseline_available(tld, self.now)
    }

    fn contains_record(&self, record: &DomainRecord) -> bool {
        self.oracle.in_latest_available(record, self.now)
    }
}

impl ZoneMembership for UniverseZoneView<'_> {
    fn contains(&self, tld: TldId, name: &DomainName) -> bool {
        UniverseZoneView::contains(self, tld, name)
    }

    fn contains_anywhere(&self, name: &DomainName) -> bool {
        UniverseZoneView::contains_anywhere(self, name)
    }

    fn serial(&self, tld: TldId) -> Option<Serial> {
        UniverseZoneView::serial(self, tld)
    }

    fn drain_new_domains(&mut self, out: &mut Vec<DomainName>) {
        UniverseZoneView::drain_new_domains(self, out)
    }

    fn sync_state(&self) -> SyncState {
        let total = self.tlds().len();
        let ready = if self.boundary().is_some() { total } else { 0 };
        SyncState {
            health: if ready == total { SyncHealth::Ready } else { SyncHealth::Bootstrapping },
            tlds_ready: ready,
            tlds_total: total,
            resyncs: 0,
        }
    }

    fn advance_to(&mut self, now: SimTime) {
        UniverseZoneView::advance_to(self, now)
    }

    fn contains_record(&self, record: &DomainRecord) -> bool {
        UniverseZoneView::contains_record(self, record)
    }
}

impl ZoneMembership for BrokerZoneView {
    fn contains(&self, tld: TldId, name: &DomainName) -> bool {
        BrokerZoneView::contains(self, tld, name)
    }

    fn contains_anywhere(&self, name: &DomainName) -> bool {
        BrokerZoneView::contains_anywhere(self, name)
    }

    fn serial(&self, tld: TldId) -> Option<Serial> {
        BrokerZoneView::serial(self, tld)
    }

    fn drain_new_domains(&mut self, out: &mut Vec<DomainName>) {
        BrokerZoneView::drain_new_domains(self, out)
    }

    fn sync_state(&self) -> SyncState {
        BrokerZoneView::sync_state(self)
    }

    /// Drain whatever frames the broker has already delivered. The
    /// publisher side must be driven separately (the harness publishes
    /// up to `now` before observing); `now` itself carries no
    /// information an in-process queue does not.
    fn advance_to(&mut self, _now: SimTime) {
        self.pump();
    }
}

impl<D> ZoneMembership for RemoteZoneView<D>
where
    D: FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError>,
{
    fn contains(&self, tld: TldId, name: &DomainName) -> bool {
        self.view().contains(tld, name)
    }

    fn contains_anywhere(&self, name: &DomainName) -> bool {
        self.view().contains_anywhere(name)
    }

    fn serial(&self, tld: TldId) -> Option<Serial> {
        self.view().serial(tld)
    }

    fn drain_new_domains(&mut self, out: &mut Vec<DomainName>) {
        self.view_mut().drain_new_domains(out)
    }

    fn sync_state(&self) -> SyncState {
        self.view().sync_state()
    }

    /// Drain decoded events already on the socket (frames still in
    /// flight arrive at a later pump; callers that need a hard boundary
    /// use [`RemoteZoneView::pump_until_serials`]).
    fn advance_to(&mut self, _now: SimTime) {
        self.pump(usize::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_registry::czds::SnapshotSchedule;
    use darkdns_registry::hosting::ProviderId;
    use darkdns_registry::registrar::RegistrarId;
    use darkdns_registry::tld::paper_gtlds;
    use darkdns_registry::universe::{CertTiming, DomainId, DomainKind};
    use darkdns_sim::rng::RngPool;
    use darkdns_sim::time::SimDuration;

    fn record(name: &str, insert_day: u64, removed_day: Option<u64>) -> DomainRecord {
        DomainRecord {
            id: DomainId(0),
            name: DomainName::parse(name).unwrap(),
            tld: TldId(0),
            kind: DomainKind::LongLived,
            created: SimTime::from_days(insert_day),
            zone_insert: SimTime::from_days(insert_day),
            removed: removed_day.map(SimTime::from_days),
            registrar: RegistrarId(0),
            dns_provider: ProviderId(0),
            web_asn: 13_335,
            cert_timing: CertTiming::Prompt,
            cert_hint: None,
            ns_change_at: None,
            malicious: false,
        }
    }

    #[test]
    fn oracle_membership_matches_the_oracle() {
        let tlds = paper_gtlds();
        let start = SimTime::from_days(400);
        let schedule = SnapshotSchedule::new(&RngPool::new(7), &tlds, start, 30);
        let oracle = SnapshotOracle::new(&schedule);
        let mut universe = Universe::new();
        universe.push(record("a.com", 402, None));
        let mut m = OracleMembership::new(&oracle, &universe);

        // Before the window: no baseline, nothing assessable.
        assert!(!m.baseline_ready(TldId(0)));
        assert_eq!(m.serial(TldId(0)), None);
        assert!(!m.sync_state().is_ready());

        // Ten days in: the latest snapshot contains the day-402 insert.
        m.advance_to(SimTime::from_days(412));
        assert!(m.baseline_ready(TldId(0)));
        assert!(m.contains(TldId(0), &DomainName::parse("a.com").unwrap()));
        assert!(m.contains_anywhere(&DomainName::parse("a.com").unwrap()));
        // The fast path agrees with the name path.
        let r = universe.lookup(&DomainName::parse("a.com").unwrap()).unwrap();
        assert_eq!(m.contains_record(r), m.contains(r.tld, &r.name));
        // Wrong TLD: negative.
        assert!(!m.contains(TldId(1), &DomainName::parse("a.com").unwrap()));
        assert!(m.serial(TldId(0)).is_some());
        // Oracle views have no live NRD log.
        let mut out = Vec::new();
        m.drain_new_domains(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn borrowed_and_boxed_backends_forward() {
        fn takes_membership<M: ZoneMembership>(m: &M, name: &DomainName) -> bool {
            m.contains_anywhere(name)
        }
        let mut universe = Universe::new();
        universe.push(record("a.com", 0, None));
        let mut view =
            UniverseZoneView::new(&universe, &[TldId(0)], SimTime::ZERO, SimDuration::from_minutes(5));
        ZoneMembership::advance_to(&mut view, SimTime::from_days(1));
        let name = DomainName::parse("a.com").unwrap();
        assert!(takes_membership(&(&mut view), &name));
        let boxed: Box<dyn ZoneMembership + '_> = Box::new(view);
        assert!(takes_membership(&boxed, &name));
        assert!(boxed.sync_state().is_ready());
    }
}
