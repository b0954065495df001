//! The upstream-link driver: one replica-set state machine and one
//! connection holder under every consumer that dials a broker.
//!
//! "Hold a replica list, dial, sideline dead-with-backoff, hand off
//! carrying claims" used to be written once per consumer. It is written
//! here, in two halves:
//!
//! * [`ReplicaSet`] — the **pure** half. Index-based (it never sees an
//!   endpoint, only `0..len`), clock-injected (every method that needs
//!   time takes `now`; it never reads a clock, sleeps or does I/O —
//!   `docs/INVARIANTS.md` L6), so its whole contract is unit-tested by
//!   stepping it with synthetic instants. It owns the cursor, the
//!   per-replica failure streak / backoff window / probe score, the
//!   workspace's one backoff ladder, the strictly-newer generation gate
//!   of live endpoint updates, and the failover counters.
//! * [`UpstreamLink`] — the I/O half: the `Option<TransportClient>`,
//!   the chunk-train progress salvaged from a dead connection, whether
//!   the next connect heals a fault, and the planned-drain handoff.
//!
//! Drivers: `RoutedZoneView` (one link per route) and `RemoteZoneView`
//! (one link, one replica) in `darkdns_core::broker_view`, the relay
//! thread in [`super::relay`], and — for the set alone, it holds no
//! stream state — `darkdns_edge::EdgeClient`.

use super::client::{fetch_stats_deadline, ClientEvent, SnapshotProgress, TransportClient};
use super::frame::{FrameConn, TransportError};
use darkdns_dns::wire::HelloScope;
use darkdns_dns::Serial;
use darkdns_registry::tld::TldId;
use std::time::{Duration, Instant};

/// The backoff ladder, the only one under `crates/*/src`: a replica's
/// `n`-th consecutive failure sidelines it for `floor << (n-1)`, capped
/// at the ceiling. It bounds dial *frequency* toward a dead endpoint —
/// a set whose every replica is down waits for the earliest window to
/// expire instead of dialling per pump — and windows are time-bounded,
/// so a replica is never forfeited. 50 ms → 2 s is what the routing
/// fault matrix pins (`dead_endpoints_are_dialled_at_a_bounded_backoff_rate`,
/// the stale-replica `≤ 4 dials in 200 pumps` case).
pub const BACKOFF_FLOOR: Duration = Duration::from_millis(50);
pub const BACKOFF_CEIL: Duration = Duration::from_secs(2);

/// How long a health probe waits for the `RZUQ` stats round trip before
/// writing the replica off as unscorable this round.
const PROBE_DEADLINE: Duration = Duration::from_millis(400);

/// Per-TLD serial claims, as a HELLO carries them.
type Claims = [(TldId, Option<Serial>)];

#[derive(Debug, Clone, Default)]
struct ReplicaHealth {
    /// Consecutive failures; cleared by any success.
    fail_streak: u32,
    /// Dead-with-backoff: not a candidate until the instant passes.
    down_until: Option<Instant>,
    /// Most recent probe score; `None` until probed, or after a failure.
    score: Option<u64>,
}

/// What [`ReplicaSet::update`] did with an offered replica list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Not strictly newer than the applied generation: a no-op, so a
    /// duplicated or reordered control-plane update never rolls back.
    Stale,
    /// Applied; the cursor's replica survives at this index.
    Kept(usize),
    /// Applied; the cursor's replica is gone and the cursor restarts at
    /// 0 — the holder finishes in-flight work, then hands off.
    Drained,
}

/// Pure replica-selection state for one interchangeable endpoint list.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    cursor: usize,
    generation: u64,
    health: Vec<ReplicaHealth>,
    failovers: u64,
    dial_failures: u64,
}

impl ReplicaSet {
    /// A set of `len` healthy, unprobed replicas at `generation`, the
    /// cursor on replica 0.
    ///
    /// # Panics
    /// Panics when `len` is 0: there must always be somewhere to dial.
    pub fn new(len: usize, generation: u64) -> Self {
        assert!(len >= 1, "need at least one replica");
        ReplicaSet {
            cursor: 0,
            generation,
            health: vec![ReplicaHealth::default(); len],
            failovers: 0,
            dial_failures: 0,
        }
    }

    /// How many replicas the set holds (never 0).
    pub fn count(&self) -> usize {
        self.health.len()
    }

    /// The replica the holder is (or will next be) dialled at.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Replica switches: candidates a dial walk moved past, plus faults
    /// that rotated the cursor.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Dials, handshakes and probes that failed to complete.
    pub fn dial_failures(&self) -> u64 {
        self.dial_failures
    }

    /// Last probe score per replica.
    pub fn scores(&self) -> Vec<Option<u64>> {
        self.health.iter().map(|h| h.score).collect()
    }

    /// Which replicas sit inside a backoff window at `now`.
    pub fn dead(&self, now: Instant) -> Vec<bool> {
        self.health.iter().map(|h| h.down_until.is_some_and(|until| now < until)).collect()
    }

    /// The earliest instant any sidelined replica becomes a candidate
    /// again; `None` when none is sidelined. With [`ReplicaSet::live`]
    /// empty this is when to look again.
    pub fn retry_at(&self) -> Option<Instant> {
        self.health.iter().filter_map(|h| h.down_until).min()
    }

    /// The dial candidates at `now`: rotation order from the cursor,
    /// replicas inside a backoff window skipped. Empty when all are.
    pub fn live(&self, now: Instant) -> Vec<usize> {
        let dead = self.dead(now);
        (0..self.count()).map(|i| (self.cursor + i) % self.count()).filter(|&at| !dead[at]).collect()
    }

    /// `order` re-ranked freshest-first by probe score. The sort is
    /// stable, so equal scores keep rotation order and the cursor's
    /// replica wins ties; unscored replicas (their probe failed) drop
    /// out.
    fn ranked(&self, order: Vec<usize>) -> Vec<usize> {
        let mut scored: Vec<(usize, u64)> =
            order.into_iter().filter_map(|at| self.health[at].score.map(|s| (at, s))).collect();
        scored.sort_by_key(|&(_, score)| std::cmp::Reverse(score));
        scored.into_iter().map(|(at, _)| at).collect()
    }

    /// Replica `at` answered a probe with `score`.
    pub fn scored(&mut self, at: usize, score: u64) {
        self.health[at] =
            ReplicaHealth { fail_streak: 0, down_until: None, score: Some(score) };
    }

    /// Replica `at` failed (refused, timed out, or served stale state):
    /// sideline it one rung further up the ladder.
    pub fn failed(&mut self, at: usize, now: Instant) {
        let h = &mut self.health[at];
        h.fail_streak = h.fail_streak.saturating_add(1);
        let rungs = (h.fail_streak - 1).min(16);
        h.down_until = Some(now + BACKOFF_FLOOR.saturating_mul(1 << rungs).min(BACKOFF_CEIL));
        h.score = None;
    }

    /// [`ReplicaSet::failed`] for a dial, handshake or probe that did
    /// not complete — the "replica unreachable" failover reason.
    fn dial_failed(&mut self, at: usize, now: Instant) {
        self.dial_failures += 1;
        self.failed(at, now);
    }

    /// The established stream on the cursor's replica died: point the
    /// cursor at the next replica so the redial fails over. A
    /// one-replica set has nowhere to go and counts nothing.
    pub fn faulted(&mut self) {
        if self.count() > 1 {
            self.cursor = (self.cursor + 1) % self.count();
            self.failovers += 1;
        }
    }

    /// Try `order`'s candidates in turn until `open` succeeds; the
    /// winner clears its failure state and takes the cursor, every
    /// candidate moved past counts a failover and is sidelined from
    /// `now`. Errs with the last failure — or `Closed` for an empty
    /// order, which dials nothing.
    pub fn dial_in_order<T>(
        &mut self,
        order: &[usize],
        now: Instant,
        mut open: impl FnMut(usize) -> Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        let mut last_err = TransportError::Closed;
        for (attempt, &at) in order.iter().enumerate() {
            if attempt > 0 {
                self.failovers += 1;
            }
            match open(at) {
                Ok(opened) => {
                    self.health[at].fail_streak = 0;
                    self.health[at].down_until = None;
                    self.cursor = at;
                    return Ok(opened);
                }
                Err(e) => {
                    self.dial_failed(at, now);
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Would an update at `generation` apply? The one strictly-newer
    /// comparison every endpoint-update path goes through.
    pub fn admits(&self, generation: u64) -> bool {
        generation > self.generation
    }

    /// Replace the replica list with one of `len` entries at
    /// `generation`, if [`ReplicaSet::admits`] it. `kept` is where the
    /// cursor's replica sits in the new list (`None` = drained). Health
    /// is index-aligned with the old list, so it resets: a previously
    /// dead replica gets one fresh dial before backoff re-arms.
    pub fn update(&mut self, generation: u64, len: usize, kept: Option<usize>) -> Update {
        assert!(len >= 1, "need at least one replica");
        if !self.admits(generation) {
            return Update::Stale;
        }
        self.generation = generation;
        self.health = vec![ReplicaHealth::default(); len];
        self.cursor = kept.unwrap_or(0);
        kept.map_or(Update::Drained, Update::Kept)
    }
}

/// One upstream subscription: a [`ReplicaSet`] plus the connection
/// currently established into it, and everything that must survive the
/// connection dying.
pub struct UpstreamLink {
    replicas: ReplicaSet,
    client: Option<TransportClient>,
    /// Mid-snapshot chunk progress salvaged from the dead connection,
    /// carried into the next HELLO so the bootstrap resumes instead of
    /// restarting. It leaves the link only once that HELLO was sent.
    partials: Vec<SnapshotProgress>,
    /// Whether the next successful connect heals a fault (a resync) or
    /// is the initial bootstrap / a planned handoff.
    healing: bool,
    /// An endpoint update drained the connected replica: keep pumping
    /// until no chunk train is in flight, then switch cleanly.
    draining: bool,
    /// Chunks received on connections this link has already retired.
    retired_chunks: u64,
    stream_faults: u64,
    drains: u64,
}

impl UpstreamLink {
    /// A disconnected link over `replicas`; nothing is dialled yet.
    pub fn new(replicas: ReplicaSet) -> Self {
        UpstreamLink {
            replicas,
            client: None,
            partials: Vec::new(),
            healing: false,
            draining: false,
            retired_chunks: 0,
            stream_faults: 0,
            drains: 0,
        }
    }

    pub fn replicas(&self) -> &ReplicaSet {
        &self.replicas
    }

    /// True while a connection is established (it may still be found
    /// dead on the next receive).
    pub fn is_connected(&self) -> bool {
        self.client.is_some()
    }

    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Established streams retired by a fault (eviction, cut, bad delta,
    /// refused snapshot); each precedes at most one resync.
    pub fn stream_faults(&self) -> u64 {
        self.stream_faults
    }

    /// Planned drain handoffs completed without a resync.
    pub fn drains_completed(&self) -> u64 {
        self.drains
    }

    /// Snapshot continuation chunks received across every connection
    /// generation of this link.
    pub fn snapshot_chunks_received(&self) -> u64 {
        self.retired_chunks + self.client.as_ref().map_or(0, |c| c.snapshot_chunks_received())
    }

    pub fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.client.as_mut().map_or(Ok(()), |client| client.set_recv_timeout(timeout))
    }

    /// The next event of the established stream; `Closed` when there is
    /// none.
    pub fn next_event(&mut self) -> ClientEvent {
        match self.client.as_mut() {
            Some(client) => client.next_event(),
            None => ClientEvent::Closed(TransportError::Closed),
        }
    }

    /// Connect along the health-ordered candidate list, sending a HELLO
    /// with `claims` and any salvaged chunk progress. With more than
    /// one live candidate each is first probed over `RZUQ` (score = the
    /// summed head serials of the claimed TLDs, so a filtered or
    /// lagging relay scores below a full mirror) and the order becomes
    /// freshest-first; a lone candidate is dialled un-probed, and with
    /// none live nothing is dialled until [`ReplicaSet::retry_at`].
    /// Returns whether this connect healed a fault — count the resync
    /// only then, never for a failed attempt.
    pub fn connect(
        &mut self,
        claims: &Claims,
        mut dial: impl FnMut(usize) -> Result<Box<dyn FrameConn>, TransportError>,
    ) -> Result<bool, TransportError> {
        let mut order = self.replicas.live(Instant::now());
        if order.len() > 1 {
            for &at in &order {
                let report = dial(at).and_then(|conn| fetch_stats_deadline(conn, PROBE_DEADLINE));
                match report {
                    Ok(report) => {
                        let head = |tld: &TldId| {
                            let shard = report.shards.iter().find(|s| s.tld == tld.0);
                            shard.map_or(0, |s| u64::from(s.head_serial.0))
                        };
                        self.replicas.scored(at, claims.iter().map(|(tld, _)| head(tld)).sum());
                    }
                    Err(_) => self.replicas.dial_failed(at, Instant::now()),
                }
            }
            order = self.replicas.ranked(order);
        }
        let opened = self.replicas.dial_in_order(&order, Instant::now(), |at| {
            TransportClient::connect_salvaged(dial(at)?, claims, &mut self.partials, HelloScope::Full)
        });
        self.established(opened)
    }

    /// [`UpstreamLink::connect`] for a driver whose dial closure hands
    /// back a ready [`TransportClient`] (it sent its own claims-only
    /// HELLO, so salvaged chunk progress cannot ride along): no probe,
    /// same sidelining and heal accounting.
    pub fn connect_client(
        &mut self,
        open: impl FnMut(usize) -> Result<TransportClient, TransportError>,
    ) -> Result<bool, TransportError> {
        let now = Instant::now();
        let opened = self.replicas.dial_in_order(&self.replicas.live(now), now, open);
        self.established(opened)
    }

    fn established(
        &mut self,
        opened: Result<TransportClient, TransportError>,
    ) -> Result<bool, TransportError> {
        self.client = Some(opened?);
        Ok(std::mem::take(&mut self.healing))
    }

    /// Retire the dead connection after a stream fault: salvage its
    /// chunk progress, arm the resync accounting and rotate the cursor
    /// off the replica that just died. `applied` is what the driver
    /// durably holds per TLD; a client advances a claim exactly when
    /// the driver applies the corresponding message, so the two are in
    /// lockstep — asserted here, in debug builds, for every driver.
    pub fn retire(&mut self, applied: &Claims) {
        if let Some(client) = &self.client {
            debug_assert_eq!(
                client.claimed_serials(),
                applied,
                "client claim tracking diverged from the driver's applied state"
            );
        }
        self.drop_client();
    }

    /// Retire the connection because the driver *refused* what the
    /// replica served (a checkpoint older than its state). Unlike an
    /// ordinary fault the replica is also sidelined: it answered in
    /// good health with state it cannot better until its own feed
    /// advances, so an immediate redial would fetch the same bytes.
    pub fn refuse(&mut self) {
        self.replicas.failed(self.replicas.cursor(), Instant::now());
        self.drop_client();
    }

    fn drop_client(&mut self) {
        if let Some(mut client) = self.client.take() {
            self.retired_chunks += client.snapshot_chunks_received();
            self.partials = client.take_snapshot_progress();
            self.stream_faults += 1;
        }
        self.healing = true;
        self.draining = false;
        self.replicas.faulted();
    }

    /// Apply a live replica-list update (see [`ReplicaSet::update`]).
    /// `remap` says where the *connected* replica sits in the new list;
    /// a disconnected link just clamps its cursor. A connected link
    /// whose replica was drained starts draining; it keeps its
    /// connection otherwise.
    pub fn apply_update(
        &mut self,
        generation: u64,
        len: usize,
        remap: impl FnOnce(usize) -> Option<usize>,
    ) -> Update {
        let cursor = self.replicas.cursor();
        let kept = match self.client {
            Some(_) => remap(cursor),
            None => Some(cursor.min(len.saturating_sub(1))),
        };
        let outcome = self.replicas.update(generation, len, kept);
        if outcome != Update::Stale {
            self.draining = outcome == Update::Drained;
        }
        outcome
    }

    /// Finish a planned drain if the link is ready: once no snapshot
    /// chunk train is in flight the old connection is released cleanly
    /// — nothing to salvage, nothing to heal, **not** a resync — and
    /// the next connect lands on the healthiest successor carrying the
    /// driver's claims. A no-op on a link that is not draining.
    pub fn try_finish_drain(&mut self) {
        let mid_train = self.client.as_ref().is_some_and(|c| c.has_snapshot_in_flight());
        if !self.draining || mid_train {
            return;
        }
        if let Some(client) = self.client.take() {
            self.retired_chunks += client.snapshot_chunks_received();
        }
        self.draining = false;
        self.drains += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic clock: one base instant, offsets in milliseconds.
    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    fn refuse<T>() -> Result<T, TransportError> {
        Err(TransportError::Closed)
    }

    #[test]
    fn nth_failure_sidelines_for_floor_doubling_to_the_ceiling_and_success_clears_it() {
        let t0 = Instant::now();
        let mut set = ReplicaSet::new(1, 0);
        let mut now = t0;
        for n in 1..=10u32 {
            set.failed(0, now);
            let window = BACKOFF_FLOOR.saturating_mul(1 << (n - 1)).min(BACKOFF_CEIL);
            assert_eq!(set.retry_at(), Some(now + window), "failure {n}");
            assert_eq!(set.dead(now + window - Duration::from_millis(1)), vec![true]);
            assert_eq!(set.dead(now + window), vec![false], "the window is half-open");
            now += window;
        }
        assert!(BACKOFF_FLOOR * (1 << 9) > BACKOFF_CEIL, "the loop must have reached the cap");
        // Any success clears the streak: the next failure is rung one.
        set.dial_in_order(&[0], now, |_| Ok(())).unwrap();
        assert_eq!(set.retry_at(), None);
        set.failed(0, now);
        assert_eq!(set.retry_at(), Some(now + BACKOFF_FLOOR));
        // So does a probe answer.
        set.scored(0, 7);
        assert_eq!((set.retry_at(), set.scores()), (None, vec![Some(7)]));
    }

    #[test]
    fn no_live_candidate_dials_nothing_and_retry_at_is_the_earliest_expiry() {
        let t0 = Instant::now();
        let mut set = ReplicaSet::new(3, 0);
        set.failed(0, at(t0, 30));
        set.failed(1, at(t0, 10));
        set.failed(2, at(t0, 20));
        set.failed(2, at(t0, 20)); // second rung: 100 ms
        assert!(set.live(at(t0, 40)).is_empty());
        assert_eq!(set.retry_at(), Some(at(t0, 60)), "replica 1's floor window ends first");
        let mut dials = 0;
        let err = set.dial_in_order(&set.live(at(t0, 40)), at(t0, 40), |_| {
            dials += 1;
            refuse::<()>()
        });
        assert!(matches!(err, Err(TransportError::Closed)));
        assert_eq!((dials, set.dial_failures(), set.failovers()), (0, 0, 0));
        // Never forfeited: each replica returns once its own window ends.
        assert_eq!(set.live(at(t0, 60)), vec![1]);
        assert_eq!(set.live(at(t0, 80)), vec![0, 1]);
        assert_eq!(set.live(at(t0, 120)), vec![0, 1, 2]);
    }

    #[test]
    fn rotation_starts_at_the_cursor_and_ties_keep_it() {
        let t0 = Instant::now();
        let mut set = ReplicaSet::new(4, 0);
        set.dial_in_order(&[2], t0, |_| Ok(())).unwrap();
        assert_eq!(set.cursor(), 2);
        assert_eq!(set.live(t0), vec![2, 3, 0, 1]);
        // Equal scores: rotation order survives, the cursor's replica
        // stays first. A strictly fresher replica jumps the queue; an
        // unscored one (its probe failed) drops out.
        for replica in [2, 3, 0] {
            set.scored(replica, 5);
        }
        assert_eq!(set.ranked(set.live(t0)), vec![2, 3, 0]);
        set.scored(0, 9);
        set.scored(1, 5);
        assert_eq!(set.ranked(set.live(t0)), vec![0, 2, 3, 1]);
    }

    #[test]
    fn a_walk_counts_each_candidate_moved_past_and_sidelines_it() {
        let t0 = Instant::now();
        let mut set = ReplicaSet::new(3, 0);
        let opened = set.dial_in_order(&[0, 1, 2], t0, |replica| {
            if replica == 2 { Ok(replica) } else { refuse() }
        });
        assert_eq!(opened.unwrap(), 2);
        assert_eq!((set.cursor(), set.failovers(), set.dial_failures()), (2, 2, 2));
        assert_eq!(set.dead(t0), vec![true, true, false]);
    }

    #[test]
    fn a_fault_rotates_and_counts_one_failover_only_when_there_is_somewhere_to_go() {
        let mut lone = ReplicaSet::new(1, 0);
        lone.faulted();
        assert_eq!((lone.cursor(), lone.failovers()), (0, 0));
        let mut pair = ReplicaSet::new(2, 0);
        pair.faulted();
        assert_eq!((pair.cursor(), pair.failovers()), (1, 1));
        pair.faulted();
        assert_eq!((pair.cursor(), pair.failovers()), (0, 2), "the cursor wraps");
    }

    #[test]
    fn an_update_applies_only_when_strictly_newer() {
        let t0 = Instant::now();
        let mut set = ReplicaSet::new(3, 4);
        set.dial_in_order(&[2], t0, |_| Ok(())).unwrap();
        set.failed(0, t0);
        for stale in [0, 3, 4] {
            assert!(!set.admits(stale));
            assert_eq!(set.update(stale, 1, None), Update::Stale);
        }
        assert_eq!((set.count(), set.cursor(), set.generation()), (3, 2, 4), "stale: untouched");
        assert_eq!(set.dead(t0), vec![true, false, false]);

        // Kept: the cursor follows its replica to the new index.
        assert_eq!(set.update(5, 2, Some(1)), Update::Kept(1));
        assert_eq!((set.count(), set.cursor(), set.generation()), (2, 1, 5));
        assert_eq!(set.update(5, 2, Some(0)), Update::Stale, "a replay is stale");

        // Drained: the cursor restarts at 0 and health resets, so a
        // previously dead replica gets one fresh dial.
        set.failed(0, t0);
        assert_eq!(set.live(t0), vec![1]);
        assert_eq!(set.update(6, 2, None), Update::Drained);
        assert_eq!((set.cursor(), set.retry_at()), (0, None));
        assert_eq!(set.live(t0), vec![0, 1]);
    }
}
