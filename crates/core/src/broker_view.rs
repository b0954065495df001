//! The broker-backed subscriber path of the pipeline.
//!
//! The batch pipeline answers "is this name already in the zone?" from
//! the [`darkdns_registry::czds::SnapshotOracle`] — ground truth at
//! daily-snapshot granularity. This module is the RZU deployment shape:
//! a [`BrokerZoneView`] subscribes to the distribution broker
//! (`darkdns_broker`), bootstraps each TLD from a checkpoint snapshot,
//! applies the shared delta frames as they arrive, and serves two
//! pipeline needs from the live view:
//!
//! * **membership** — [`BrokerZoneView::contains`], the detector's
//!   "already delegated?" check at push (not daily) freshness;
//! * **zone NRDs** — every delta's `added` section is the
//!   newly-registered-domain population of Table 1's `Zone NRD` column;
//!   the view accumulates them for the ablation comparisons.
//!
//! A view that lags past its buffer bound loses deltas; it detects the
//! serial gap on the next frame, stops applying (a torn zone view is
//! worse than a stale one), and [`BrokerZoneView::resync`] rejoins the
//! broker, which answers with a delta replay or a checkpoint snapshot
//! per the catch-up decision rule. [`BrokerZoneView::resync_count`]
//! exposes how often that recovery path fired, so fleet runs can assert
//! a healthy deployment saw zero gap-resyncs.
//!
//! The contract holds unchanged under the broker's per-shard concurrent
//! publishers: each shard's frames arrive in that shard's serial order
//! (gap detection and application are per-TLD), and only the *interleaving*
//! across TLDs varies run to run. `pump` applies whatever has arrived;
//! a view is converged when [`BrokerZoneView::synced_with`] holds, which
//! publishers stop moving once they are done. Pinned by the threaded
//! convergence proptest in `tests/proptest_broker.rs`.

use std::time::{Duration, Instant};

use darkdns_broker::transport::replica::Update;
use darkdns_broker::transport::{
    ClientEvent, FrameConn, ReplicaSet, TransportClient, TransportError, UpstreamLink,
};
use darkdns_broker::{Broker, BrokerMessage, BrokerSubscription};
use darkdns_dns::hash::NameMap;
use darkdns_dns::wire::DeltaPush;
use darkdns_dns::{decode_delta_push, DomainName, Serial, ZoneSnapshot};
use darkdns_registry::tld::TldId;

/// A subscriber-side, multi-TLD live zone view.
///
/// The view has two deployment shapes sharing all state and gap logic:
/// **attached** ([`BrokerZoneView::subscribe`]) holds an in-process
/// broker subscription and drains it with [`BrokerZoneView::pump`];
/// **detached** ([`BrokerZoneView::detached`]) holds no subscription
/// and is fed decoded messages by a transport driver (see
/// [`RemoteZoneView`]) through the same `ingest_*` entry points `pump`
/// itself uses.
pub struct BrokerZoneView {
    sub: Option<BrokerSubscription>,
    tlds: Vec<TldId>,
    states: NameMap<TldId, ZoneSnapshot>,
    /// Domains first seen in a delta's `added` section, in arrival order.
    new_domains: Vec<DomainName>,
    frames_applied: u64,
    snapshots_adopted: u64,
    resyncs: u64,
    lost_sync: bool,
    /// Checkpoint snapshots a transport driver refused for being older
    /// than this view (see [`RoutedZoneView::stale_snapshots_refused`]).
    stale_snapshots: u64,
}

impl BrokerZoneView {
    /// Subscribe with no prior state: the broker bootstraps every shard
    /// from its checkpoint snapshot (catch-up rule 3).
    pub fn subscribe(broker: &Broker, tlds: &[TldId]) -> Self {
        let mut view = Self::detached(tlds);
        view.sub = Some(broker.subscribe(tlds, None));
        view
    }

    /// A view with no broker subscription, fed by a transport driver.
    fn detached(tlds: &[TldId]) -> Self {
        BrokerZoneView {
            sub: None,
            tlds: tlds.to_vec(),
            states: NameMap::default(),
            new_domains: Vec::new(),
            frames_applied: 0,
            snapshots_adopted: 0,
            resyncs: 0,
            lost_sync: false,
            stale_snapshots: 0,
        }
    }

    /// Adopt `snapshot` as `tld`'s state (a bootstrap or rule-3
    /// catch-up). Always succeeds: a snapshot is self-contained.
    fn ingest_snapshot(&mut self, tld: TldId, snapshot: ZoneSnapshot) {
        self.states.insert(tld, snapshot);
        self.snapshots_adopted += 1;
    }

    /// Apply one validated delta push to `tld`'s state. Returns `false`
    /// — and latches [`BrokerZoneView::lost_sync`] — when the push does
    /// not chain (no bootstrap yet, a missed frame, or a duplicate
    /// delivery): a non-chaining delta is **never** applied, which is
    /// the no-double-apply guarantee the transport reconnect relies on.
    fn ingest_delta(&mut self, tld: TldId, push: &DeltaPush) -> bool {
        let Some(state) = self.states.get_mut(&tld) else {
            // Delta before any snapshot for this TLD: only possible
            // after losing the bootstrap.
            self.lost_sync = true;
            return false;
        };
        if push.from_serial != state.serial() {
            self.lost_sync = true;
            return false;
        }
        for (domain, _) in &push.delta.added {
            self.new_domains.push(*domain);
        }
        *state = push.delta.apply(state, push.to_serial, push.pushed_at);
        self.frames_applied += 1;
        true
    }

    /// Apply everything queued. Returns the number of messages applied.
    /// Stops early (returning what was applied so far) if a serial gap
    /// is detected; the view then reports [`BrokerZoneView::lost_sync`]
    /// until [`BrokerZoneView::resync`] is called. Detached views have
    /// nothing to pump and return 0.
    pub fn pump(&mut self) -> usize {
        self.pump_with(&mut ())
    }

    /// [`BrokerZoneView::pump`] with an observer: `sink` sees every
    /// message the view accepts, immediately post-apply — how the
    /// in-process edge feed mirrors the attached stream into its index.
    pub fn pump_with(&mut self, sink: &mut impl RouteSink) -> usize {
        if self.lost_sync {
            return 0;
        }
        let mut applied = 0;
        while let Some(msg) = self.sub.as_ref().and_then(|sub| sub.try_next()) {
            match msg {
                BrokerMessage::Snapshot { tld, snapshot } => self.adopt(tld, snapshot, sink),
                BrokerMessage::Delta { tld, frame } => {
                    let push = decode_delta_push(&frame).expect("broker frames are well-formed");
                    if !self.advance(tld, &push, sink) {
                        return applied;
                    }
                }
            }
            applied += 1;
        }
        applied
    }

    /// [`BrokerZoneView::ingest_snapshot`], then show `sink` the adopted
    /// state (the view's own `Arc`-shared snapshot, no copy).
    fn adopt(&mut self, tld: TldId, snapshot: ZoneSnapshot, sink: &mut impl RouteSink) {
        self.ingest_snapshot(tld, snapshot);
        if let Some(state) = self.states.get(&tld) {
            sink.on_snapshot(tld, state);
        }
    }

    /// [`BrokerZoneView::ingest_delta`], then — only if it chained —
    /// show `sink` the push and the post-apply state.
    fn advance(&mut self, tld: TldId, push: &DeltaPush, sink: &mut impl RouteSink) -> bool {
        let chained = self.ingest_delta(tld, push);
        if let (true, Some(state)) = (chained, self.states.get(&tld)) {
            sink.on_delta(tld, state, push);
        }
        chained
    }

    /// True once a dropped frame left the view unable to advance.
    pub fn lost_sync(&self) -> bool {
        self.lost_sync
    }

    /// The view's current per-TLD serial claims — exactly what a
    /// (re)subscription or a transport HELLO should carry. Shards the
    /// view is current on (or only slightly behind) then catch up via
    /// the cheap delta-replay path; only shards beyond the retention
    /// ring pay for a snapshot bootstrap.
    fn claims(&self) -> Vec<(TldId, Option<Serial>)> {
        self.tlds.iter().map(|&t| (t, self.serial(t))).collect()
    }

    /// Record a completed resync-from-claims: clears the lost-sync latch
    /// and counts the recovery. Callers (in-process
    /// [`BrokerZoneView::resync`], the transport's [`RemoteZoneView`])
    /// invoke this only once the replacement subscription/connection is
    /// actually established, so a failed reconnect attempt is never
    /// counted as a heal.
    fn note_resynced(&mut self) {
        self.resyncs += 1;
        self.lost_sync = false;
    }

    /// Rejoin the broker, claiming the view's actual per-TLD serials
    /// ([`BrokerZoneView::claims`]). Queued-but-unapplied messages from
    /// the old subscription are discarded (the catch-up replaces them).
    pub fn resync(&mut self, broker: &Broker) {
        // Views with no serial (never bootstrapped) get a snapshot; the
        // rest keep their state and continue from their claimed serial.
        self.sub = Some(broker.subscribe_with(&self.claims()));
        self.note_resynced();
    }

    /// Times this view had to rejoin the broker to heal a gap. Zero in a
    /// deployment whose buffers never overflow.
    pub fn resync_count(&self) -> u64 {
        self.resyncs
    }

    /// Is `domain` currently delegated in `tld`'s view?
    pub fn contains(&self, tld: TldId, domain: &DomainName) -> bool {
        self.states.get(&tld).is_some_and(|s| s.contains(domain))
    }

    /// Is `domain` delegated in any subscribed TLD's view?
    pub fn contains_anywhere(&self, domain: &DomainName) -> bool {
        self.states.values().any(|s| s.contains(domain))
    }

    /// The view's serial for `tld` (None before the bootstrap arrived).
    pub fn serial(&self, tld: TldId) -> Option<Serial> {
        self.states.get(&tld).map(|s| s.serial())
    }

    /// The view's snapshot of `tld`, if bootstrapped.
    pub fn snapshot(&self, tld: TldId) -> Option<&ZoneSnapshot> {
        self.states.get(&tld)
    }

    /// Append-and-clear the accumulated zone-NRD log (delta `added`
    /// domains, arrival order) into `out`. Drain-style on purpose: the
    /// internal buffer keeps its capacity and `out` is caller-reused,
    /// so the pump → drain hot loop allocates nothing at steady state
    /// (the old `take_new_domains` handed out a fresh `Vec` per call).
    pub fn drain_new_domains(&mut self, out: &mut Vec<DomainName>) {
        out.append(&mut self.new_domains);
    }

    /// Drop the zone-NRD log undrained, keeping its capacity: for a
    /// driver with no reader for it, which would otherwise grow it by
    /// every added name for as long as it runs.
    pub fn discard_new_domains(&mut self) {
        self.new_domains.clear();
    }

    /// The health probe of the [`crate::membership::ZoneMembership`]
    /// contract: ready only when every subscribed TLD is bootstrapped
    /// and no gap is outstanding.
    pub fn sync_state(&self) -> crate::membership::SyncState {
        use crate::membership::{SyncHealth, SyncState};
        let ready = self.tlds.iter().filter(|t| self.states.get(t).is_some()).count();
        let health = if self.lost_sync {
            SyncHealth::LostSync
        } else if ready < self.tlds.len() {
            SyncHealth::Bootstrapping
        } else {
            SyncHealth::Ready
        };
        SyncState { health, tlds_ready: ready, tlds_total: self.tlds.len(), resyncs: self.resyncs }
    }

    pub fn frames_applied(&self) -> u64 {
        self.frames_applied
    }

    pub fn snapshots_adopted(&self) -> u64 {
        self.snapshots_adopted
    }

    /// Frames the broker dropped for this subscriber because its queue
    /// was full: it lags, and the drop is counted here.
    /// Detached views have no in-process queue to drop from.
    pub fn dropped_count(&self) -> u64 {
        self.sub.as_ref().map_or(0, |sub| sub.dropped_count())
    }

    /// True for every subscribed TLD whose view serial matches the
    /// broker head.
    pub fn synced_with(&self, broker: &Broker) -> bool {
        self.tlds.iter().all(|&tld| {
            broker.head(tld).map(|h| h.serial()) == self.serial(tld)
        })
    }
}

/// The one `pump_until_serials` body behind every feed's inherent
/// method: pump `this` (healing faults as usual) until its view's
/// serial matches `targets` for every listed TLD, or `timeout` elapses.
/// This is the synchronisation barrier a time-faithful harness needs:
/// frames cross the socket asynchronously, so "everything published so
/// far has been applied" is only observable as the view reaching the
/// publisher's known head serials. Returns whether they were reached.
pub fn pump_until_serials<T>(
    this: &mut T,
    targets: &[(TldId, Serial)],
    timeout: Duration,
    view: impl Fn(&T) -> &BrokerZoneView,
    mut pump: impl FnMut(&mut T) -> usize,
) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if targets.iter().all(|&(tld, serial)| view(this).serial(tld) == Some(serial)) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        if pump(this) == 0 {
            std::thread::yield_now();
        }
    }
}

/// Pump one [`UpstreamLink`] into `view` for up to `budget` events —
/// the event loop under both [`RemoteZoneView`] and every route of a
/// [`RoutedZoneView`]. A planned drain is finished when ready, a dead
/// link is reconnected through `connect` (the resync is counted only
/// once the replacement stream is established), and any stream fault —
/// disconnect, a frame that failed validation, a delta that does not
/// chain — retires the connection. Returns the number of
/// events applied; sets `progressed` when anything at all happened.
fn pump_link(
    view: &mut BrokerZoneView,
    link: &mut UpstreamLink,
    claims: impl Fn(&BrokerZoneView) -> Vec<(TldId, Option<Serial>)>,
    mut connect: impl FnMut(&mut UpstreamLink, &[(TldId, Option<Serial>)]) -> Result<bool, TransportError>,
    budget: usize,
    progressed: &mut bool,
    sink: &mut impl RouteSink,
) -> usize {
    let mut applied = 0;
    while applied < budget {
        link.try_finish_drain();
        if !link.is_connected() {
            match connect(link, &claims(view)) {
                Ok(true) => view.note_resynced(),
                Ok(false) => {}
                // No candidate accepted: the next pump retries,
                // rate-limited by each replica's backoff window.
                Err(_) => return applied,
            }
        } else {
            match link.next_event() {
                ClientEvent::Idle => break,
                // A replica answering with a checkpoint older than what
                // the view already applied is stale (e.g. a just-added,
                // still-catching-up relay): adopting it would
                // time-travel the view. Refuse it; the health-ordered
                // redial finds a fresher replica, or the same one once
                // its head catches up.
                ClientEvent::Snapshot { tld, snapshot }
                    if view.serial(tld).is_some_and(|have| have.is_newer_than(snapshot.serial())) =>
                {
                    view.stale_snapshots += 1;
                    link.refuse();
                }
                ClientEvent::Snapshot { tld, snapshot } => {
                    view.adopt(tld, snapshot, sink);
                    applied += 1;
                }
                ClientEvent::Delta { tld, push, .. } if view.advance(tld, &push, sink) => applied += 1,
                // A duplicate or gapped delta: the stream can no longer
                // be trusted; rejoin from our claims.
                ClientEvent::Delta { .. } | ClientEvent::Closed(_) => link.retire(&claims(view)),
            }
        }
        *progressed = true;
    }
    applied
}

/// A [`BrokerZoneView`] fed over a real transport, with automatic
/// reconnect-with-claims: a thin shell over one [`UpstreamLink`] with a
/// one-replica [`ReplicaSet`] — the same driver a [`RoutedZoneView`]
/// runs per route.
///
/// It owns a detached view, the link, and a dial closure (how to
/// establish a fresh [`TransportClient`] for a given set of claims —
/// TCP in deployments, an in-memory pipe in the fault tests).
/// [`RemoteZoneView::pump`] pulls decoded events into the view; on
/// *any* fault it drops the connection and redials carrying
/// [`BrokerZoneView::claims`], so recovery costs a delta replay of the
/// missed churn rather than a snapshot bootstrap whenever the retention
/// ring still covers the gap. A dial that fails sidelines the endpoint
/// on the shared backoff ladder, so a dead broker is dialled at a
/// bounded rate, not once per pump. [`BrokerZoneView::resync_count`]
/// counts exactly the *successful* reconnects, which is what the fault
/// harness pins against the number of injected faults.
///
/// The closure sends its own claims-only HELLO, so a chunk train cut
/// mid-flight restarts from entry 0 on the redial; use a one-route
/// [`RoutedZoneView`], whose link carries the salvaged progress, where
/// resuming matters.
pub struct RemoteZoneView<D>
where
    D: FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError>,
{
    view: BrokerZoneView,
    link: UpstreamLink,
    dial: D,
}

impl<D> RemoteZoneView<D>
where
    D: FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError>,
{
    /// Dial the initial connection with empty claims (bootstrap every
    /// shard). The initial connect is not a resync.
    pub fn connect(tlds: &[TldId], mut dial: D) -> Result<Self, TransportError> {
        let view = BrokerZoneView::detached(tlds);
        let mut link = UpstreamLink::new(ReplicaSet::new(1, 0));
        link.connect_client(|_| dial(&view.claims()))?;
        Ok(RemoteZoneView { view, link, dial })
    }

    /// Pull up to `max_events` decoded events into the view, healing
    /// faults by reconnecting with claims as they surface. Returns the
    /// number of events applied; returns early when the stream goes
    /// idle (receive timeout) or a redial attempt fails (a later pump
    /// retries it).
    pub fn pump(&mut self, max_events: usize) -> usize {
        let dial = &mut self.dial;
        pump_link(
            &mut self.view,
            &mut self.link,
            BrokerZoneView::claims,
            |link, claims| link.connect_client(|_| dial(claims)),
            max_events,
            &mut false,
            &mut (),
        )
    }

    /// Pump until the view reaches `targets` or `timeout` elapses (see
    /// [`pump_until_serials`]).
    pub fn pump_until_serials(&mut self, targets: &[(TldId, Serial)], timeout: Duration) -> bool {
        pump_until_serials(self, targets, timeout, |s| &s.view, |s| s.pump(1024))
    }

    /// The underlying view.
    pub fn view(&self) -> &BrokerZoneView {
        &self.view
    }

    /// Mutable access (e.g. to take the accumulated zone NRDs).
    pub fn view_mut(&mut self) -> &mut BrokerZoneView {
        &mut self.view
    }
}

/// One row of an [`EndpointMap`]: the TLDs a broker (group) is
/// authoritative for, and the replica endpoints serving them in
/// preference order.
#[derive(Debug, Clone)]
pub struct EndpointRoute<E> {
    /// TLDs this route serves.
    pub tlds: Vec<TldId>,
    /// Interchangeable endpoints for those TLDs; a consumer dials the
    /// first and fails over down the list (wrapping) on faults.
    pub replicas: Vec<E>,
}

/// TLD → replica-list routing table for a **partitioned broker fleet**:
/// the universe is split across several root brokers (each owning a
/// disjoint TLD subset), each optionally served by multiple replicas
/// (e.g. regional relay nodes re-serving the same root). `E` is
/// whatever identifies an endpoint to the dial closure — a
/// `SocketAddr` in deployments, a pipe index in tests.
///
/// The map carries a **generation counter**: every mutation bumps it,
/// and a consumer ([`RoutedZoneView::apply_endpoint_update`]) applies a
/// replacement map only when its generation is strictly newer — a
/// reordered or duplicated control-plane update can never roll a fleet
/// back to an older topology.
#[derive(Debug, Clone, Default)]
pub struct EndpointMap<E> {
    routes: Vec<EndpointRoute<E>>,
    generation: u64,
}

impl<E> EndpointMap<E> {
    pub fn new() -> Self {
        EndpointMap { routes: Vec::new(), generation: 0 }
    }

    /// Add a route serving `tlds` from `replicas` (preference order).
    ///
    /// # Panics
    /// Panics on an empty replica list or a TLD already routed — a
    /// TLD's frames must have exactly one authoritative stream.
    pub fn add_route(&mut self, tlds: Vec<TldId>, replicas: Vec<E>) {
        assert!(!replicas.is_empty(), "a route needs at least one replica");
        for tld in &tlds {
            assert!(
                self.route_for(*tld).is_none(),
                "{tld:?} is already routed; one authoritative route per TLD"
            );
        }
        self.routes.push(EndpointRoute { tlds, replicas });
        self.generation += 1;
    }

    /// Append a replica to `route`'s list (it becomes the
    /// least-preferred candidate until health probes say otherwise).
    ///
    /// # Panics
    /// Panics on an out-of-range route index.
    pub fn add_replica(&mut self, route: usize, endpoint: E) {
        self.routes[route].replicas.push(endpoint);
        self.generation += 1;
    }

    /// Remove (drain) `route`'s replica at `index`, returning it. A
    /// consumer applying the updated map finishes the drained replica's
    /// in-flight work before switching — see
    /// [`RoutedZoneView::apply_endpoint_update`].
    ///
    /// # Panics
    /// Panics on an out-of-range index, or when the replica is the
    /// route's last — a route must always have at least one endpoint.
    pub fn remove_replica(&mut self, route: usize, index: usize) -> E {
        assert!(
            self.routes[route].replicas.len() > 1,
            "cannot drain a route's last replica"
        );
        let endpoint = self.routes[route].replicas.remove(index);
        self.generation += 1;
        endpoint
    }

    /// The map's mutation generation: 0 for an empty map, bumped by
    /// every [`EndpointMap::add_route`] / [`EndpointMap::add_replica`] /
    /// [`EndpointMap::remove_replica`]. Strictly monotone over any
    /// update sequence.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn routes(&self) -> &[EndpointRoute<E>] {
        &self.routes
    }

    /// Index of the route serving `tld`, if any.
    fn route_for(&self, tld: TldId) -> Option<usize> {
        self.routes.iter().position(|r| r.tlds.contains(&tld))
    }

    /// Every routed TLD, in route order.
    pub fn tlds(&self) -> Vec<TldId> {
        self.routes.iter().flat_map(|r| r.tlds.iter().copied()).collect()
    }
}

/// Observer hook for [`RoutedZoneView::pump_with`]: called with every
/// message the shared view *accepts*, immediately after it is applied.
/// Rejected messages (non-chaining deltas, stale snapshots) never reach
/// the sink, so a sink mirrors exactly the view's applied history. The
/// edge tier uses this to mirror the routed stream into its epoch-swap
/// query index without duplicating any routing machinery; the plain
/// [`RoutedZoneView::pump`] uses the no-op impl on `()`.
pub trait RouteSink {
    /// The view just adopted `snapshot` as `tld`'s state.
    fn on_snapshot(&mut self, tld: TldId, snapshot: &ZoneSnapshot) {
        let _ = (tld, snapshot);
    }
    /// The view just applied `push` to `tld`; `state` is the post-apply
    /// zone state.
    fn on_delta(&mut self, tld: TldId, state: &ZoneSnapshot, push: &DeltaPush) {
        let _ = (tld, state, push);
    }
}

impl RouteSink for () {}

/// One route's health and rotation state, as reported by
/// [`RoutedZoneView::route_status`] — the staleness / failover-reason
/// surface fleet dashboards (and the RZUQ aggregation walker) read.
#[derive(Debug, Clone)]
pub struct RouteStatus {
    /// Replica index the route is (or will next be) dialled at.
    pub cursor: usize,
    pub connected: bool,
    /// A newer endpoint map drained the connected replica; the route is
    /// finishing in-flight work before switching.
    pub draining: bool,
    /// Last health-probe score per replica (summed head serials over
    /// the route's TLDs); `None` = never probed, or failed since.
    pub probe_scores: Vec<Option<u64>>,
    /// Replicas currently sitting out a dead-with-backoff window.
    pub dead: Vec<bool>,
}

/// A [`BrokerZoneView`] spanning a **partitioned, replicated** broker
/// fleet: one [`UpstreamLink`] per [`EndpointMap`] route, all feeding
/// one shared view. Everything below the view is the shared driver in
/// `darkdns_broker::transport::replica`; this type adds only the map
/// (which endpoint a replica index means) and the fan-in. Faults heal
/// per route — reconnect carries that route's per-TLD claims (and
/// chunked-bootstrap progress), and a connect or stream error fails
/// over across the route's replica list.
/// [`BrokerZoneView::resync_count`] still counts exactly the successful
/// post-fault reconnects, fleet-wide;
/// [`RoutedZoneView::failover_count`] counts replica switches.
///
/// Replica selection is **health-based**, not blind rotation: whenever
/// a route with more than one live candidate must (re)connect, each
/// candidate is probed over the transport's RZUQ stats dialect and the
/// dial order becomes freshest-head-first (ties keep rotation order).
/// Replicas that refuse a dial, handshake, or probe — or that answer
/// with a checkpoint older than the view (a still-catching-up replica
/// whose next answer would be the same stale bytes) — are sidelined
/// dead-with-backoff so a permanently dead endpoint costs a bounded
/// dial rate, not one dial per rotation. Topology changes arrive as
/// whole replacement maps through
/// [`RoutedZoneView::apply_endpoint_update`] — generation-gated, with
/// graceful per-route drains — so a running fleet consumer never
/// restarts to track them.
pub struct RoutedZoneView<E, D>
where
    D: FnMut(&E) -> Result<Box<dyn FrameConn>, TransportError>,
{
    view: BrokerZoneView,
    map: EndpointMap<E>,
    links: Vec<UpstreamLink>,
    dial: D,
}

impl<E, D> RoutedZoneView<E, D>
where
    D: FnMut(&E) -> Result<Box<dyn FrameConn>, TransportError>,
{
    /// Dial every route's preferred replica (failing over down each
    /// list) and bootstrap the shared view. Errors only when some route
    /// has **no** reachable replica.
    pub fn connect(map: EndpointMap<E>, mut dial: D) -> Result<Self, TransportError> {
        let view = BrokerZoneView::detached(&map.tlds());
        let mut links = Vec::with_capacity(map.routes().len());
        for route in map.routes() {
            let mut link =
                UpstreamLink::new(ReplicaSet::new(route.replicas.len(), map.generation()));
            let claims: Vec<_> = route.tlds.iter().map(|&t| (t, None)).collect();
            link.connect(&claims, |at| dial(&route.replicas[at]))?;
            links.push(link);
        }
        Ok(RoutedZoneView { view, map, links, dial })
    }

    /// Pull up to `max_events` decoded events into the shared view,
    /// visiting every route and healing faults per route as they
    /// surface. Returns the number of events applied.
    pub fn pump(&mut self, max_events: usize) -> usize {
        self.pump_with(max_events, &mut ())
    }

    /// [`RoutedZoneView::pump`] with an observer: `sink` sees every
    /// message the shared view accepts, immediately post-apply. The
    /// edge tier mirrors the routed stream into its epoch-swap index
    /// through this — one routing implementation, two consumers.
    pub fn pump_with(&mut self, max_events: usize, sink: &mut impl RouteSink) -> usize {
        let RoutedZoneView { view, map, links, dial } = self;
        let mut applied = 0;
        loop {
            let mut progressed = false;
            for (route, link) in map.routes().iter().zip(links.iter_mut()) {
                applied += pump_link(
                    view,
                    link,
                    // The view's claims restricted to this route's TLDs.
                    |view| route.tlds.iter().map(|&t| (t, view.serial(t))).collect(),
                    |link, claims| link.connect(claims, |at| dial(&route.replicas[at])),
                    max_events - applied,
                    &mut progressed,
                    sink,
                );
                if applied >= max_events {
                    return applied;
                }
            }
            if !progressed {
                return applied;
            }
        }
    }

    /// Pump until the shared view reaches `targets` or `timeout`
    /// elapses (see [`pump_until_serials`]).
    pub fn pump_until_serials(&mut self, targets: &[(TldId, Serial)], timeout: Duration) -> bool {
        pump_until_serials(self, targets, timeout, |s| &s.view, |s| s.pump(1024))
    }

    /// Swap in a newer [`EndpointMap`] **without restarting consumers**.
    ///
    /// Returns `false` (a no-op) unless `new`'s generation is strictly
    /// newer than the current map's — duplicated or reordered control-
    /// plane updates can never roll the fleet back. The update may add
    /// replicas to a route or drain (remove) them; the TLD partition
    /// itself must stay identical, because the shared view's TLD
    /// universe is fixed at [`RoutedZoneView::connect`] time. The whole
    /// map is validated before any route changes.
    ///
    /// Per route:
    /// * the connected replica is still listed → the connection is
    ///   kept; only the cursor moves to the replica's new index;
    /// * the connected replica was drained → the route keeps pumping
    ///   until no snapshot chunk train is in flight, then hands off to
    ///   a successor carrying its claims. A drain is a planned handoff,
    ///   not a fault: it counts under
    ///   [`RoutedZoneView::drains_completed`], never as a resync. (A
    ///   connection that *dies* mid-drain takes the normal fault path —
    ///   salvaged chunk progress, at most one resync.)
    ///
    /// Health state is reset for the new replica lists; a previously
    /// dead replica gets one fresh dial before backoff re-arms.
    ///
    /// # Panics
    /// Panics when `new` repartitions TLDs across routes.
    pub fn apply_endpoint_update(&mut self, new: EndpointMap<E>) -> bool
    where
        E: PartialEq,
    {
        if !self.links.iter().all(|link| link.replicas().admits(new.generation())) {
            return false;
        }
        assert_eq!(
            new.routes().len(),
            self.map.routes().len(),
            "an endpoint update may change replicas, not the route partition"
        );
        for (old_route, new_route) in self.map.routes().iter().zip(new.routes()) {
            assert_eq!(
                old_route.tlds, new_route.tlds,
                "an endpoint update may change replicas, not the TLD partition"
            );
        }
        let old = std::mem::replace(&mut self.map, new);
        for ((link, was), now) in self.links.iter_mut().zip(old.routes()).zip(self.map.routes()) {
            let outcome = link.apply_update(self.map.generation(), now.replicas.len(), |cursor| {
                now.replicas.iter().position(|e| *e == was.replicas[cursor])
            });
            debug_assert_ne!(outcome, Update::Stale, "the gate was checked for every route");
        }
        true
    }

    /// Per-route health and rotation status — the staleness/failover
    /// surface fleet dashboards read alongside the RZUQ shard stats.
    pub fn route_status(&self) -> Vec<RouteStatus> {
        let now = Instant::now();
        self.links
            .iter()
            .map(|link| RouteStatus {
                cursor: link.replicas().cursor(),
                connected: link.is_connected(),
                draining: link.is_draining(),
                probe_scores: link.replicas().scores(),
                dead: link.replicas().dead(now),
            })
            .collect()
    }

    /// Replica switches so far, fleet-wide: every dial attempt that
    /// moved past a replica (connect refused) and every post-fault
    /// redial pointed at the next replica.
    pub fn failover_count(&self) -> u64 {
        self.links.iter().map(|link| link.replicas().failovers()).sum()
    }

    /// Dials, handshakes and probes that could not complete, fleet-wide
    /// — the "replica unreachable" failover reason.
    pub fn dial_failures(&self) -> u64 {
        self.links.iter().map(|link| link.replicas().dial_failures()).sum()
    }

    /// Established streams retired by a fault (cut, gap, bad delta,
    /// stale snapshot) — the "stream fault" failover reason.
    pub fn stream_faults(&self) -> u64 {
        self.links.iter().map(UpstreamLink::stream_faults).sum()
    }

    /// Planned drain handoffs completed cleanly (no resync).
    pub fn drains_completed(&self) -> u64 {
        self.links.iter().map(UpstreamLink::drains_completed).sum()
    }

    /// Checkpoint snapshots refused for being older than the fleet
    /// view — how often the stale-replica guard fired.
    pub fn stale_snapshots_refused(&self) -> u64 {
        self.view.stale_snapshots
    }

    /// Snapshot continuation chunks received across every route and
    /// every connection generation.
    pub fn snapshot_chunks_received(&self) -> u64 {
        self.links.iter().map(UpstreamLink::snapshot_chunks_received).sum()
    }

    /// True while every route has an established connection.
    pub fn is_connected(&self) -> bool {
        self.links.iter().all(UpstreamLink::is_connected)
    }

    /// The underlying view.
    pub fn view(&self) -> &BrokerZoneView {
        &self.view
    }

    /// Mutable access (e.g. to take the accumulated zone NRDs).
    pub fn view_mut(&mut self) -> &mut BrokerZoneView {
        &mut self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_broker::{BrokerConfig, RetentionConfig};
    use darkdns_dns::{NsSet, ZoneDelta};
    use darkdns_sim::time::SimTime;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn empty_snap(origin: &str) -> ZoneSnapshot {
        ZoneSnapshot::from_entries(name(origin), Serial::new(0), SimTime::ZERO, vec![])
    }

    fn add_delta(domain: &str) -> ZoneDelta {
        let mut d = ZoneDelta::default();
        d.added.push((name(domain), NsSet::new(vec![name("ns1.provider0.net")])));
        d
    }

    fn remove_delta(domain: &str) -> ZoneDelta {
        let mut d = ZoneDelta::default();
        d.removed.push((name(domain), NsSet::new(vec![name("ns1.provider0.net")])));
        d
    }

    #[test]
    fn view_tracks_membership_and_nrds() {
        let broker = Broker::new(BrokerConfig::default());
        broker.add_shard(TldId(0), empty_snap("com"));
        let mut view = BrokerZoneView::subscribe(&broker, &[TldId(0)]);
        broker.publish(TldId(0), add_delta("fresh.com"), Serial::new(1), SimTime::ZERO);
        broker.publish(TldId(0), add_delta("later.com"), Serial::new(2), SimTime::ZERO);
        broker.publish(TldId(0), remove_delta("fresh.com"), Serial::new(3), SimTime::ZERO);
        view.pump();
        assert!(!view.contains(TldId(0), &name("fresh.com")), "removed again");
        assert!(view.contains(TldId(0), &name("later.com")));
        // Both appeared as zone NRDs even though one is transient. The
        // drain appends into a reusable buffer and clears the log.
        let mut nrds = Vec::new();
        view.drain_new_domains(&mut nrds);
        assert_eq!(nrds, vec![name("fresh.com"), name("later.com")]);
        view.drain_new_domains(&mut nrds);
        assert_eq!(nrds.len(), 2, "drained log must be empty");
        assert!(view.synced_with(&broker));
        assert_eq!(view.serial(TldId(0)), Some(Serial::new(3)));
        assert_eq!(view.snapshots_adopted(), 1);
    }

    #[test]
    fn multi_tld_view_isolates_shards() {
        let broker = Broker::new(BrokerConfig::default());
        broker.add_shard(TldId(0), empty_snap("com"));
        broker.add_shard(TldId(1), empty_snap("net"));
        let mut view = BrokerZoneView::subscribe(&broker, &[TldId(0), TldId(1)]);
        broker.publish(TldId(0), add_delta("a.com"), Serial::new(1), SimTime::ZERO);
        view.pump();
        assert!(view.contains_anywhere(&name("a.com")));
        assert!(!view.contains(TldId(1), &name("a.com")));
        assert_eq!(view.snapshot(TldId(1)).map(ZoneSnapshot::len), Some(0));
    }

    #[test]
    fn lagging_view_detects_gap_and_resyncs() {
        let config = BrokerConfig {
            retention: RetentionConfig::new(8, 4),
            subscriber_capacity: 2,
        };
        let broker = Broker::new(config);
        broker.add_shard(TldId(0), empty_snap("com"));
        let mut view = BrokerZoneView::subscribe(&broker, &[TldId(0)]);
        view.pump(); // apply the (empty) bootstrap snapshot
        // 6 pushes against a capacity-2 buffer: 4 dropped.
        for i in 1..=6u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
        }
        assert_eq!(view.dropped_count(), 4);
        view.pump();
        // The two buffered frames applied cleanly; the gap is only
        // visible once the next frame arrives.
        assert!(!view.lost_sync());
        assert_eq!(view.serial(TldId(0)), Some(Serial::new(2)));
        broker.publish(TldId(0), add_delta("d7.com"), Serial::new(7), SimTime::ZERO);
        view.pump();
        assert!(view.lost_sync());
        assert!(!view.synced_with(&broker));
        assert_eq!(view.resync_count(), 0);
        view.resync(&broker);
        view.pump();
        assert!(!view.lost_sync());
        assert!(view.synced_with(&broker));
        assert_eq!(view.resync_count(), 1);
        assert_eq!(view.snapshot(TldId(0)).map(ZoneSnapshot::len), Some(7));
        // The resync claimed the view's actual serial, so the ring served
        // a delta replay — no second snapshot bootstrap.
        assert_eq!(broker.stats().delta_catchups, 1);
        assert_eq!(view.snapshots_adopted(), 1);
    }

    #[test]
    fn late_join_bootstraps_from_checkpoint() {
        let config =
            BrokerConfig { retention: RetentionConfig::new(4, 2), ..BrokerConfig::default() };
        let broker = Broker::new(config);
        broker.add_shard(TldId(0), empty_snap("com"));
        for i in 1..=20u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
        }
        let mut view = BrokerZoneView::subscribe(&broker, &[TldId(0)]);
        view.pump();
        assert!(view.synced_with(&broker));
        assert_eq!(view.snapshot(TldId(0)).map(ZoneSnapshot::len), Some(20));
        // Bootstrap came from a checkpoint, so only post-checkpoint
        // additions count as NRDs observed live.
        let mut nrds = Vec::new();
        view.drain_new_domains(&mut nrds);
        assert!(nrds.len() <= 4);
    }
}
