//! The Rapid Zone Update (RZU) service — the paper's §5 proposal, built.
//!
//! Verisign's historical service pushed accumulated zone changes to
//! subscribers every five minutes (Appendix B). This module implements
//! that service over the simulated registry event log: events are batched
//! on a fixed push grid, and a subscriber replaying the pushes maintains a
//! zone view that is at most one push interval stale.
//!
//! The module also provides the closed-form visibility primitives used by
//! the `rzu_ablation` bench: given a push cadence, when is a domain first
//! visible to a subscriber, and is a transient domain visible at all?

use crate::events::{RegistryEvent, RegistryEventKind};
use crate::universe::{DomainRecord, Universe};
use crate::tld::TldId;
use darkdns_dns::diff::{JournalEvent, ZoneJournal};
use darkdns_dns::zone::NsSet;
use darkdns_dns::{DomainName, Serial, ZoneDelta, ZoneSnapshot};
use darkdns_sim::time::{SimDuration, SimTime};
use serde::Serialize;

/// One push of accumulated events to subscribers.
#[derive(Debug, Clone, Serialize)]
pub struct RzuPush {
    /// When the push went out (a multiple of the cadence on the grid).
    pub pushed_at: SimTime,
    /// Events since the previous push, in time order.
    pub events: Vec<RegistryEvent>,
}

/// A batched RZU feed for one TLD.
#[derive(Debug, Clone)]
pub struct RzuFeed {
    pub tld: TldId,
    pub cadence: SimDuration,
    pushes: Vec<RzuPush>,
}

impl RzuFeed {
    /// Batch `events` (must be time-ordered, single TLD) onto the push
    /// grid anchored at `anchor` with the given `cadence`.
    ///
    /// # Panics
    /// Panics if `cadence` is zero or events are out of order.
    fn build(
        tld: TldId,
        anchor: SimTime,
        cadence: SimDuration,
        events: &[RegistryEvent],
    ) -> Self {
        assert!(cadence.as_secs() > 0, "cadence must be positive");
        let mut pushes: Vec<RzuPush> = Vec::new();
        let mut current: Vec<RegistryEvent> = Vec::new();
        let mut current_push_at: Option<SimTime> = None;
        let mut last_at = SimTime::ZERO;
        for ev in events {
            assert!(ev.at >= last_at, "events must be time-ordered");
            last_at = ev.at;
            let push_at = next_grid_point(anchor, cadence, ev.at);
            match current_push_at {
                Some(at) if at == push_at => current.push(*ev),
                Some(at) => {
                    pushes.push(RzuPush { pushed_at: at, events: std::mem::take(&mut current) });
                    current.push(*ev);
                    current_push_at = Some(push_at);
                }
                None => {
                    current.push(*ev);
                    current_push_at = Some(push_at);
                }
            }
        }
        if let Some(at) = current_push_at {
            pushes.push(RzuPush { pushed_at: at, events: current });
        }
        RzuFeed { tld, cadence, pushes }
    }

    /// Build the feed for `tld` directly from a universe.
    pub fn from_universe(
        universe: &Universe,
        tld: TldId,
        anchor: SimTime,
        cadence: SimDuration,
    ) -> Self {
        let events = crate::events::event_log(universe, Some(tld));
        Self::build(tld, anchor, cadence, &events)
    }

    pub fn pushes(&self) -> &[RzuPush] {
        &self.pushes
    }

    /// Total number of events across all pushes.
    pub fn event_count(&self) -> usize {
        self.pushes.iter().map(|p| p.events.len()).sum()
    }

    /// First push revealing the creation of `domain`, if any.
    pub fn first_reveal(&self, domain: crate::universe::DomainId) -> Option<SimTime> {
        for push in &self.pushes {
            if push
                .events
                .iter()
                .any(|e| e.domain == domain && e.kind == RegistryEventKind::Created)
            {
                return Some(push.pushed_at);
            }
        }
        None
    }
}

/// One RZU push expressed as the net zone delta it carries, with the
/// serial range it advances a subscriber across. This is the payload the
/// distribution broker seals into a wire frame.
#[derive(Debug, Clone)]
pub struct RzuZonePush {
    pub pushed_at: SimTime,
    /// Zone serial before the push.
    pub from_serial: Serial,
    /// Zone serial after the push.
    pub to_serial: Serial,
    /// Net changes in canonical order; applies to the zone at
    /// `from_serial`.
    pub delta: ZoneDelta,
}

/// The zone-level materialisation of one TLD's RZU feed: a starting
/// snapshot plus a sequence of contiguous delta pushes whose serial
/// ranges chain (`pushes[i].to_serial == pushes[i+1].from_serial`), and
/// the resulting head snapshot.
///
/// Built by replaying the registry event log through a live
/// [`darkdns_dns::Zone`] while journaling every mutation; each push's
/// delta is the journal's compacted window, so a domain registered and
/// deleted *within* one push interval cancels out (exactly the paper's
/// transient-domain semantics at the chosen cadence), while one that
/// spans pushes is visible.
#[derive(Debug, Clone)]
pub struct RzuZoneStream {
    pub tld: TldId,
    pub origin: DomainName,
    pub cadence: SimDuration,
    /// Zone state at the anchor (before any push).
    pub start: ZoneSnapshot,
    /// Zone state after every push.
    pub head: ZoneSnapshot,
    pub pushes: Vec<RzuZonePush>,
}

impl RzuZoneStream {
    /// Materialise the zone-delta stream for `tld` from a universe.
    /// `origin` is the TLD's domain (e.g. `com`); the push grid is
    /// anchored at `anchor` with the given `cadence`.
    ///
    /// NS sets follow the same provider scheme as the CZDS materialiser
    /// (`ns1.provider<N>.net`); an NS-change event rotates the
    /// delegation onto the provider's secondary host so the change is
    /// visible in the delta stream.
    pub fn from_universe(
        universe: &Universe,
        origin: DomainName,
        tld: TldId,
        anchor: SimTime,
        cadence: SimDuration,
    ) -> Self {
        use darkdns_dns::zone::{Delegation, Zone};

        let events = crate::events::event_log(universe, Some(tld));
        let feed = RzuFeed::build(tld, anchor, cadence, &events);
        let mut zone = Zone::new(origin, Serial::new(0));
        let start = ZoneSnapshot::capture(&zone, anchor);
        // One NS pair per provider, parsed once: (primary, rotated).
        let mut provider_ns: darkdns_dns::hash::NameMap<u16, (NsSet, NsSet)> = Default::default();
        let mut ns_for = |provider: u16, rotated: bool| -> NsSet {
            let (primary, secondary) = provider_ns.entry(provider).or_insert_with(|| {
                let parse = |i: u8| {
                    DomainName::parse(&format!("ns{i}.provider{provider}.net"))
                        .expect("static name is valid")
                };
                (NsSet::new(vec![parse(1)]), NsSet::new(vec![parse(2)]))
            });
            if rotated { secondary.clone() } else { primary.clone() }
        };

        let mut journal = ZoneJournal::new();
        let mut pushes = Vec::with_capacity(feed.pushes().len());
        for push in feed.pushes() {
            let from_serial = zone.serial();
            for ev in &push.events {
                let record = universe.get(ev.domain);
                let domain = record.name;
                match ev.kind {
                    RegistryEventKind::Created => {
                        let ns = ns_for(record.dns_provider.0, false);
                        let prev = zone.upsert(domain, Delegation::from_sorted(ns.clone()));
                        let event = match prev {
                            // A name can be re-registered after an earlier
                            // record's deletion; journal it as whatever it
                            // nets out to.
                            Some(prev) if *prev.ns_set() != ns => JournalEvent::NsChanged {
                                domain,
                                prev_ns: prev.ns_set().clone(),
                                ns,
                            },
                            Some(_) => continue, // same delegation; no net change
                            None => JournalEvent::Added { domain, ns },
                        };
                        journal.record(zone.serial(), event);
                    }
                    RegistryEventKind::Removed => {
                        if let Some(prev) = zone.remove(&domain) {
                            journal.record(
                                zone.serial(),
                                JournalEvent::Removed { domain, prev_ns: prev.ns_set().clone() },
                            );
                        }
                    }
                    RegistryEventKind::NsChanged => {
                        let Some(prev) = zone.remove(&domain) else { continue };
                        let prev_ns = prev.ns_set().clone();
                        let rotated = ns_for(record.dns_provider.0, true);
                        let ns =
                            if prev_ns == rotated { ns_for(record.dns_provider.0, false) } else { rotated };
                        zone.upsert(domain, Delegation::from_sorted(ns.clone()));
                        journal.record(
                            zone.serial(),
                            JournalEvent::NsChanged { domain, prev_ns, ns },
                        );
                    }
                }
            }
            let to_serial = zone.serial();
            pushes.push(RzuZonePush {
                pushed_at: push.pushed_at,
                from_serial,
                to_serial,
                delta: journal.delta_between(from_serial, to_serial),
            });
        }
        let head_at = pushes.last().map_or(anchor, |p| p.pushed_at);
        let head = ZoneSnapshot::capture(&zone, head_at);
        RzuZoneStream { tld, origin, cadence, start, head, pushes }
    }

    /// Total domains touched across all push deltas.
    pub fn delta_len(&self) -> usize {
        self.pushes.iter().map(|p| p.delta.len()).sum()
    }
}

/// The first grid point at or after `t` on the grid anchored at `anchor`
/// with spacing `cadence`. An event is visible to subscribers from the
/// push *after* it happened.
pub fn next_grid_point(anchor: SimTime, cadence: SimDuration, t: SimTime) -> SimTime {
    if t <= anchor {
        return anchor;
    }
    let delta = t.saturating_since(anchor).as_secs();
    let c = cadence.as_secs();
    let steps = delta.div_ceil(c);
    anchor + SimDuration::from_secs(steps * c)
}

/// The last grid point at or before `t` on the grid anchored at `anchor`
/// with spacing `cadence` — the push boundary a consumer reading at `t`
/// has caught up to. Returns `None` for `t < anchor` (no push has gone
/// out yet).
pub fn prev_grid_point(anchor: SimTime, cadence: SimDuration, t: SimTime) -> Option<SimTime> {
    if t < anchor {
        return None;
    }
    let delta = t.saturating_since(anchor).as_secs();
    let c = cadence.as_secs();
    Some(anchor + SimDuration::from_secs((delta / c) * c))
}

/// When a snapshot-or-RZU consumer polling at `cadence` first *sees* the
/// domain as registered: the first grid point at or after `zone_insert`
/// that the domain is still alive for. Returns `None` if the domain dies
/// before any grid point — i.e. it is invisible at this cadence (the
/// generalisation of "transient" from daily snapshots to arbitrary
/// cadences that the RZU ablation sweeps).
pub fn first_visible_at_cadence(
    record: &DomainRecord,
    anchor: SimTime,
    cadence: SimDuration,
) -> Option<SimTime> {
    if !record.kind.has_registration() {
        return None;
    }
    let first = next_grid_point(anchor, cadence, record.zone_insert);
    match record.removed {
        Some(removed) if first >= removed => None,
        _ => Some(first),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::ProviderId;
    use crate::registrar::RegistrarId;
    use crate::universe::{CertTiming, DomainId, DomainKind, DomainRecord};
    use darkdns_dns::DomainName;

    fn ev(at_secs: u64, domain: u32, kind: RegistryEventKind) -> RegistryEvent {
        RegistryEvent { at: SimTime::from_secs(at_secs), tld: TldId(0), domain: DomainId(domain), kind }
    }

    #[test]
    fn batches_on_grid() {
        let events = vec![
            ev(10, 1, RegistryEventKind::Created),
            ev(250, 2, RegistryEventKind::Created),
            ev(299, 3, RegistryEventKind::Created),
            ev(301, 4, RegistryEventKind::Created),
        ];
        let feed = RzuFeed::build(TldId(0), SimTime::ZERO, SimDuration::from_minutes(5), &events);
        assert_eq!(feed.pushes().len(), 2);
        assert_eq!(feed.pushes()[0].pushed_at, SimTime::from_secs(300));
        assert_eq!(feed.pushes()[0].events.len(), 3);
        assert_eq!(feed.pushes()[1].pushed_at, SimTime::from_secs(600));
        assert_eq!(feed.pushes()[1].events.len(), 1);
        assert_eq!(feed.event_count(), 4);
    }

    #[test]
    fn first_reveal_finds_creation_push() {
        let events = vec![
            ev(10, 1, RegistryEventKind::Created),
            ev(20, 1, RegistryEventKind::Removed),
            ev(700, 2, RegistryEventKind::Created),
        ];
        let feed = RzuFeed::build(TldId(0), SimTime::ZERO, SimDuration::from_minutes(5), &events);
        assert_eq!(feed.first_reveal(DomainId(1)), Some(SimTime::from_secs(300)));
        assert_eq!(feed.first_reveal(DomainId(2)), Some(SimTime::from_secs(900)));
        assert_eq!(feed.first_reveal(DomainId(9)), None);
    }

    #[test]
    fn prev_grid_point_math() {
        let c = SimDuration::from_minutes(5);
        let anchor = SimTime::from_secs(100);
        assert_eq!(prev_grid_point(anchor, c, SimTime::ZERO), None);
        assert_eq!(prev_grid_point(anchor, c, anchor), Some(anchor));
        assert_eq!(prev_grid_point(anchor, c, SimTime::from_secs(399)), Some(anchor));
        assert_eq!(
            prev_grid_point(anchor, c, SimTime::from_secs(400)),
            Some(SimTime::from_secs(400))
        );
        assert_eq!(
            prev_grid_point(anchor, c, SimTime::from_secs(1_000)),
            Some(SimTime::from_secs(1_000)),
            "on-grid times are their own boundary"
        );
        assert_eq!(
            prev_grid_point(anchor, c, SimTime::from_secs(950)),
            Some(SimTime::from_secs(700))
        );
        // prev and next agree on grid points and bracket off-grid times.
        let t = SimTime::from_secs(450);
        assert!(prev_grid_point(anchor, c, t).unwrap() <= t);
        assert!(next_grid_point(anchor, c, t) >= t);
    }

    #[test]
    fn grid_point_math() {
        let c = SimDuration::from_minutes(5);
        assert_eq!(next_grid_point(SimTime::ZERO, c, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(next_grid_point(SimTime::ZERO, c, SimTime::from_secs(1)), SimTime::from_secs(300));
        assert_eq!(next_grid_point(SimTime::ZERO, c, SimTime::from_secs(300)), SimTime::from_secs(300));
        assert_eq!(next_grid_point(SimTime::ZERO, c, SimTime::from_secs(301)), SimTime::from_secs(600));
        // Anchored grids shift accordingly.
        let anchor = SimTime::from_secs(100);
        assert_eq!(next_grid_point(anchor, c, SimTime::from_secs(150)), SimTime::from_secs(400));
    }

    fn record(insert: u64, removed: Option<u64>) -> DomainRecord {
        let t = SimTime::from_secs(insert);
        DomainRecord {
            id: DomainId(0),
            name: DomainName::parse("x.com").unwrap(),
            tld: TldId(0),
            kind: DomainKind::Transient,
            created: t,
            zone_insert: t,
            removed: removed.map(SimTime::from_secs),
            registrar: RegistrarId(0),
            dns_provider: ProviderId(0),
            web_asn: 13_335,
            cert_timing: CertTiming::Prompt,
            cert_hint: None,
            ns_change_at: None,
            malicious: true,
        }
    }

    #[test]
    fn visibility_sweeps_with_cadence() {
        // Lives 1000s..8000s. Visible at 5-min cadence (grid 1200),
        // visible at 1-h cadence (grid 3600), invisible at daily cadence.
        let r = record(1_000, Some(8_000));
        let anchor = SimTime::ZERO;
        assert_eq!(
            first_visible_at_cadence(&r, anchor, SimDuration::from_minutes(5)),
            Some(SimTime::from_secs(1_200))
        );
        assert_eq!(
            first_visible_at_cadence(&r, anchor, SimDuration::from_hours(1)),
            Some(SimTime::from_secs(3_600))
        );
        assert_eq!(first_visible_at_cadence(&r, anchor, SimDuration::from_days(1)), None);
    }

    #[test]
    fn long_lived_always_visible() {
        let r = record(1_000, None);
        assert!(first_visible_at_cadence(&r, SimTime::ZERO, SimDuration::from_days(1)).is_some());
    }

    #[test]
    fn shorter_cadence_never_hurts_latency() {
        let r = record(12_345, Some(90_000));
        let anchor = SimTime::ZERO;
        let mut last: Option<SimTime> = None;
        for cadence_secs in [60u64, 300, 900, 3_600, 21_600] {
            let vis = first_visible_at_cadence(&r, anchor, SimDuration::from_secs(cadence_secs));
            if let (Some(prev), Some(now)) = (last, vis) {
                assert!(now >= prev, "latency should not improve with coarser cadence");
            }
            if vis.is_some() {
                last = vis;
            }
        }
    }
}
