//! The domain universe: every registration (and certificate-only ghost)
//! the simulation knows about.
//!
//! The universe is the simulation's ground truth — the registry-side view
//! that the paper's authors only had for `.nl`. The pipeline never reads it
//! directly; it observes the universe through the CZDS oracle, the CT
//! stream, RDAP and active probes, each of which may fail or lag. The
//! evaluation harness *does* read it directly, which is how recall numbers
//! (e.g. the ccTLD 29.6%) are computed.

use crate::registrar::RegistrarId;
use crate::tld::TldId;
use darkdns_dns::DomainName;
use darkdns_sim::time::SimTime;
use serde::Serialize;

/// Index of a domain record within its universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct DomainId(pub u32);

/// What kind of population member a record is.
///
/// The kinds mirror the paper's taxonomy (§4.2): ordinary long-lived
/// registrations; early-removed registrations (deleted before the window's
/// end but present in at least one snapshot); transient registrations
/// (created and deleted between consecutive snapshots); re-registered /
/// misclassified names (old creation dates, filtered via RDAP in Step 4);
/// and ghost certificates (cause-iii RDAP failures: a certificate issued
/// on a cached DV token for a domain that no longer — or never — existed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DomainKind {
    /// Ordinary registration that outlives the observation window.
    LongLived,
    /// Deleted before the window end, but captured by ≥1 snapshot.
    EarlyRemoved,
    /// Created and deleted between two snapshots; never in any snapshot.
    Transient,
    /// Registered long before the window; a fresh certificate makes it
    /// look newly registered until RDAP reveals the old creation date.
    ReRegistered,
    /// No current registration at all. `previously_registered` says
    /// whether a historical registration exists (the paper found 97% do).
    Ghost { previously_registered: bool },
}

impl DomainKind {
    /// Does a registry-side registration exist during the window?
    pub fn has_registration(self) -> bool {
        !matches!(self, DomainKind::Ghost { .. })
    }

    /// Does this record contribute events to the registry event log (and
    /// therefore to every RZU-derived zone view)? Ghosts never touch a
    /// zone; re-registered names carry a pre-window lifecycle only. This
    /// is the single membership-scope rule shared by
    /// [`crate::events::event_log`] and [`crate::live::UniverseZoneView`],
    /// so the direct-universe view and a broker-fed view agree on which
    /// records exist at all.
    pub fn emits_zone_events(self) -> bool {
        self.has_registration() && !matches!(self, DomainKind::ReRegistered)
    }
}

/// When (relative to registration) a certificate is issued, if ever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CertTiming {
    /// No certificate: invisible to the CT pipeline.
    Never,
    /// Issued promptly after the domain becomes resolvable.
    Prompt,
    /// Issued with a ≥1-day delay — the long tail of Figure 1 (late zone
    /// publication, slow setup, SLD misextraction).
    LateTail,
}

/// One domain in the universe.
#[derive(Debug, Clone, Serialize)]
pub struct DomainRecord {
    pub id: DomainId,
    pub name: DomainName,
    pub tld: TldId,
    pub kind: DomainKind,
    /// Registry creation time — what RDAP reports. For `ReRegistered` and
    /// historical `Ghost`s this predates the window.
    pub created: SimTime,
    /// When the delegation entered the TLD zone (`created` + the TLD's
    /// zone-update cadence). Meaningless for ghosts (equal to `created`).
    pub zone_insert: SimTime,
    /// When the delegation left the zone; `None` = still delegated at the
    /// end of the simulation horizon.
    pub removed: Option<SimTime>,
    pub registrar: RegistrarId,
    /// DNS-hosting provider (drives NS records; Table 4).
    pub dns_provider: crate::hosting::ProviderId,
    /// Web-hosting ASN (drives A records; Table 5).
    pub web_asn: u32,
    pub cert_timing: CertTiming,
    /// For records whose certificate is not anchored to `zone_insert`
    /// (ghosts, re-registered names, base-population renewals): the
    /// intended issuance instant. `None` lets the CA model derive timing
    /// from `zone_insert` plus its latency distribution.
    pub cert_hint: Option<SimTime>,
    /// Time of an NS-infrastructure change within the first 48 h, if any
    /// (§4.1 measures 2.5% of NRDs changing NS within 24 h).
    pub ns_change_at: Option<SimTime>,
    /// Ground-truth maliciousness (drives blocklisting behaviour).
    pub malicious: bool,
}

impl DomainRecord {
    /// Is the domain delegated in its TLD zone at `t`?
    pub fn in_zone_at(&self, t: SimTime) -> bool {
        if !self.kind.has_registration() {
            return false;
        }
        self.zone_insert <= t && self.removed.map_or(true, |r| t < r)
    }

    /// Zone lifetime (removal − creation), if the domain was removed.
    pub fn lifetime(&self) -> Option<darkdns_sim::SimDuration> {
        self.removed.map(|r| r.saturating_since(self.created))
    }

    /// True if the registration both began and ended inside the window
    /// `[start, end)` — the ccTLD registry's "deleted in less than 24
    /// hours" bookkeeping uses this with a 24 h lifetime bound.
    pub fn deleted_within(&self, start: SimTime, end: SimTime) -> bool {
        match self.removed {
            Some(r) => self.created >= start && r < end,
            None => false,
        }
    }
}

/// The full generated population plus lookup indices.
#[derive(Debug, Default)]
pub struct Universe {
    records: Vec<DomainRecord>,
    by_name: darkdns_dns::hash::NameMap<DomainName, DomainId>,
}

impl Universe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, assigning its id.
    ///
    /// # Panics
    /// Panics if the name is already present — generated names must be
    /// unique (the label generator guarantees this; a collision means a
    /// generator bug).
    pub fn push(&mut self, mut record: DomainRecord) -> DomainId {
        let id = DomainId(self.records.len() as u32);
        record.id = id;
        let prev = self.by_name.insert(record.name.clone(), id);
        assert!(prev.is_none(), "duplicate domain name {}", record.name);
        self.records.push(record);
        id
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn get(&self, id: DomainId) -> &DomainRecord {
        &self.records[id.0 as usize]
    }

    pub fn lookup(&self, name: &DomainName) -> Option<&DomainRecord> {
        self.by_name.get(name).map(|&id| self.get(id))
    }

    pub fn iter(&self) -> impl Iterator<Item = &DomainRecord> {
        self.records.iter()
    }

    /// Records for one TLD.
    pub fn in_tld(&self, tld: TldId) -> impl Iterator<Item = &DomainRecord> {
        self.records.iter().filter(move |r| r.tld == tld)
    }

    /// Count records matching a predicate.
    pub fn count_where<F: Fn(&DomainRecord) -> bool>(&self, pred: F) -> usize {
        self.records.iter().filter(|r| pred(r)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::ProviderId;
    use darkdns_sim::SimDuration;

    fn record(name: &str, created_h: u64, removed_h: Option<u64>, kind: DomainKind) -> DomainRecord {
        DomainRecord {
            id: DomainId(0),
            name: DomainName::parse(name).unwrap(),
            tld: TldId(0),
            kind,
            created: SimTime::from_hours(created_h),
            zone_insert: SimTime::from_hours(created_h),
            removed: removed_h.map(SimTime::from_hours),
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
    fn in_zone_at_respects_bounds() {
        let r = record("a.com", 10, Some(20), DomainKind::Transient);
        assert!(!r.in_zone_at(SimTime::from_hours(9)));
        assert!(r.in_zone_at(SimTime::from_hours(10)));
        assert!(r.in_zone_at(SimTime::from_hours(19)));
        assert!(!r.in_zone_at(SimTime::from_hours(20))); // removal is exclusive
    }

    #[test]
    fn ghosts_are_never_in_zone() {
        let r = record("g.com", 10, None, DomainKind::Ghost { previously_registered: true });
        assert!(!r.in_zone_at(SimTime::from_hours(12)));
        assert!(!r.kind.has_registration());
    }

    #[test]
    fn lifetime_computation() {
        let r = record("a.com", 10, Some(16), DomainKind::Transient);
        assert_eq!(r.lifetime(), Some(SimDuration::from_hours(6)));
        let alive = record("b.com", 10, None, DomainKind::LongLived);
        assert_eq!(alive.lifetime(), None);
    }

    #[test]
    fn deleted_within_window() {
        let r = record("a.com", 10, Some(16), DomainKind::Transient);
        assert!(r.deleted_within(SimTime::ZERO, SimTime::from_days(1)));
        assert!(!r.deleted_within(SimTime::from_hours(12), SimTime::from_days(1)));
        assert!(!r.deleted_within(SimTime::ZERO, SimTime::from_hours(15)));
    }

    #[test]
    fn universe_push_and_lookup() {
        let mut u = Universe::new();
        let id = u.push(record("a.com", 1, None, DomainKind::LongLived));
        assert_eq!(u.len(), 1);
        assert_eq!(u.get(id).name.as_str(), "a.com");
        assert!(u.lookup(&DomainName::parse("a.com").unwrap()).is_some());
        assert!(u.lookup(&DomainName::parse("b.com").unwrap()).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate domain name")]
    fn universe_rejects_duplicates() {
        let mut u = Universe::new();
        u.push(record("a.com", 1, None, DomainKind::LongLived));
        u.push(record("a.com", 2, None, DomainKind::LongLived));
    }

    #[test]
    fn ids_are_dense() {
        let mut u = Universe::new();
        let a = u.push(record("a.com", 1, None, DomainKind::LongLived));
        let b = u.push(record("b.com", 1, None, DomainKind::LongLived));
        assert_eq!(a, DomainId(0));
        assert_eq!(b, DomainId(1));
        assert_eq!(u.count_where(|_| true), 2);
    }
}
