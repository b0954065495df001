//! A TLD zone: the registry's live, mutable view.
//!
//! A registry zone at the TLD level is essentially a map from registered
//! domain to its delegation (its NS set). Registrations,
//! deletions and nameserver changes mutate the zone and bump the SOA serial
//! — exactly the churn the paper measures through daily CZDS snapshots and
//! proposes to expose through rapid zone updates.
//!
//! NS sets are held as [`NsSet`] — one thin pointer to an immutable,
//! shared host list — so that snapshot capture, diffing, journaling and
//! delta application pass them around by reference-count bump instead of
//! deep-cloning per-domain vectors, and a delegation `(DomainName,
//! NsSet)` is 32 bytes wherever it is stored.

use crate::name::DomainName;
use crate::record::SoaData;
use crate::serial::Serial;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An immutable, cheaply-clonable set of nameserver host names.
///
/// One thin pointer (8 bytes) to a shared header holding the hosts and
/// the canonical flag: a delegation stored beside its 23-byte owner is
/// 32 bytes, and the 16 bytes a fat slice pointer and its flag would add
/// are paid once per distinct set, not once per entry. Cloning bumps a
/// reference count; comparing starts with a pointer check so snapshot
/// entries that share storage (the common case along the capture → diff
/// → apply pipeline) compare in O(1). Equality is by host sequence,
/// matching the previous `Vec<DomainName>` semantics; the canonical
/// sorted/deduplicated form is established by [`NsSet::new`] (or by the
/// caller for [`NsSet::from_sorted`]).
#[derive(Clone)]
pub struct NsSet(Arc<NsHosts>);

/// What an [`NsSet`] points at, one per distinct frozen list.
struct NsHosts {
    hosts: Box<[DomainName]>,
    /// True when `hosts` is known to be strictly sorted and deduplicated —
    /// lets zone reconstruction take the `Delegation::from_sorted` fast
    /// path without rescanning. Ignored by equality/hashing.
    canonical: bool,
}

// The per-entry layout every snapshot segment, delta and zone pays for.
const _: () =
    assert!(std::mem::size_of::<NsSet>() == 8 && std::mem::size_of::<(DomainName, NsSet)>() == 32);

impl NsSet {
    fn freeze(hosts: Vec<DomainName>, canonical: bool) -> Self {
        NsSet(Arc::new(NsHosts { hosts: hosts.into_boxed_slice(), canonical }))
    }

    /// Canonicalise (sort + dedup) and freeze a host list.
    pub fn new(mut hosts: Vec<DomainName>) -> Self {
        hosts.sort_unstable();
        hosts.dedup();
        NsSet::freeze(hosts, true)
    }

    /// Freeze an already-sorted, already-deduplicated host list without
    /// re-canonicalising — the fast path for snapshot-load and diff-apply,
    /// where the input is canonical by construction.
    /// Freeze a host list as-is, preserving the given order. Used where
    /// the legacy text formats supply sets whose order is meaningful to
    /// equality (snapshot text round-trips).
    pub fn from_raw(hosts: Vec<DomainName>) -> Self {
        let canonical = hosts.windows(2).all(|w| w[0] < w[1]);
        NsSet::freeze(hosts, canonical)
    }

    /// True when the set is known sorted + deduplicated.
    fn is_canonical(&self) -> bool {
        self.0.canonical
    }

    pub fn as_slice(&self) -> &[DomainName] {
        &self.0.hosts
    }

    pub fn len(&self) -> usize {
        self.0.hosts.len()
    }

    fn is_empty(&self) -> bool {
        self.0.hosts.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, DomainName> {
        self.0.hosts.iter()
    }

    /// True when both sets share the same storage (O(1) equality witness).
    pub fn ptr_eq(&self, other: &NsSet) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::ops::Deref for NsSet {
    type Target = [DomainName];

    fn deref(&self) -> &[DomainName] {
        self.as_slice()
    }
}

impl PartialEq for NsSet {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for NsSet {}

impl std::hash::Hash for NsSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// By host sequence, as `Eq` and `Hash` are: a set in a hashed container
/// can be looked up by a plain host slice.
impl std::borrow::Borrow<[DomainName]> for NsSet {
    fn borrow(&self) -> &[DomainName] {
        self.as_slice()
    }
}

impl PartialEq<Vec<DomainName>> for NsSet {
    fn eq(&self, other: &Vec<DomainName>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[DomainName]> for NsSet {
    fn eq(&self, other: &[DomainName]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[DomainName; N]> for NsSet {
    fn eq(&self, other: &[DomainName; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::fmt::Debug for NsSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<DomainName>> for NsSet {
    fn from(hosts: Vec<DomainName>) -> Self {
        NsSet::from_raw(hosts)
    }
}

impl FromIterator<DomainName> for NsSet {
    fn from_iter<I: IntoIterator<Item = DomainName>>(iter: I) -> Self {
        NsSet::from_raw(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a NsSet {
    type Item = &'a DomainName;
    type IntoIter = std::slice::Iter<'a, DomainName>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl serde::Serialize for NsSet {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(serde::Serialize::to_value).collect())
    }
}

impl serde::Deserialize for NsSet {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<DomainName>::from_value(v).map(NsSet::from_raw)
    }
}

/// The delegation data a TLD zone holds for one registered domain.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Delegation {
    /// Nameserver host names, kept sorted and deduplicated so that equality
    /// comparisons (and therefore diffs) are order-insensitive.
    ns: NsSet,
}

impl Delegation {
    /// # Panics
    /// Panics if `ns` is empty: a delegation without nameservers cannot
    /// exist in a zone.
    pub fn new(ns: Vec<DomainName>) -> Self {
        assert!(!ns.is_empty(), "delegation requires at least one NS");
        Delegation { ns: NsSet::new(ns) }
    }

    /// Unchecked-fast constructor for NS sets that are canonical (sorted,
    /// deduplicated, non-empty) by construction — the snapshot-load and
    /// diff-apply paths, which would otherwise pay a redundant sort+dedup
    /// per delegation.
    pub fn from_sorted(ns: NsSet) -> Self {
        debug_assert!(!ns.is_empty(), "delegation requires at least one NS");
        debug_assert!(
            ns.windows(2).all(|w| w[0] < w[1]),
            "Delegation::from_sorted requires canonical NS order"
        );
        Delegation { ns }
    }

    /// The shared NS set — clone this (a refcount bump) to carry the set
    /// into snapshots, journals and deltas without copying.
    pub fn ns_set(&self) -> &NsSet {
        &self.ns
    }
}

/// Outcome of an authoritative lookup in a TLD zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome<'a> {
    /// The domain is delegated; referral NS set returned.
    Delegated(&'a Delegation),
    /// The name does not exist in the zone (NXDOMAIN) — the removal signal
    /// the paper's direct-to-TLD NS probes rely on.
    NxDomain,
}

/// A mutable TLD zone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zone {
    origin: DomainName,
    serial: Serial,
    soa_template: SoaData,
    delegations: BTreeMap<DomainName, Delegation>,
}

impl Zone {
    /// Create an empty zone for `origin` with an initial serial.
    pub fn new(origin: DomainName, initial_serial: Serial) -> Self {
        let soa_template = SoaData {
            mname: origin.child("ns0").unwrap_or(origin),
            rname: origin.child("hostmaster").unwrap_or(origin),
            serial: initial_serial.get(),
            refresh: 1800,
            retry: 900,
            expire: 604_800,
            minimum: 86_400,
        };
        Zone { origin, serial: initial_serial, soa_template, delegations: BTreeMap::new() }
    }

    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    pub fn serial(&self) -> Serial {
        self.serial
    }

    pub fn len(&self) -> usize {
        self.delegations.len()
    }

    fn assert_in_bailiwick(&self, domain: &DomainName) {
        assert!(
            domain.is_subdomain_of(&self.origin) && domain != &self.origin,
            "{domain} is not a proper subdomain of zone {origin}",
            origin = self.origin
        );
    }

    /// Rebuild a live zone from a snapshot — the RZU-subscriber bootstrap
    /// ("download the latest CZDS snapshot, then follow the feed"). NS
    /// sets are shared with the snapshot; canonical sets take the
    /// [`Delegation::from_sorted`] fast path and skip re-sorting.
    ///
    /// # Panics
    /// Panics if any snapshot entry violates the zone invariants that
    /// [`Zone::upsert`] / [`Delegation::new`] enforce: an owner that is
    /// not a proper subdomain of the origin, or an empty NS set.
    pub fn from_snapshot(snapshot: &crate::snapshot::ZoneSnapshot) -> Zone {
        let mut zone = Zone::new(*snapshot.origin(), snapshot.serial());
        for (domain, ns) in snapshot.iter() {
            zone.assert_in_bailiwick(&domain);
            assert!(!ns.is_empty(), "delegation for {domain} requires at least one NS");
            let delegation = if ns.is_canonical() {
                Delegation::from_sorted(ns.clone())
            } else {
                Delegation::new(ns.to_vec())
            };
            zone.delegations.insert(domain, delegation);
        }
        zone
    }

    /// Insert or replace a delegation, bumping the serial. Returns the
    /// previous delegation if one existed.
    ///
    /// # Panics
    /// Panics if `domain` is not a proper subdomain of the zone origin.
    pub fn upsert(&mut self, domain: DomainName, delegation: Delegation) -> Option<Delegation> {
        self.assert_in_bailiwick(&domain);
        let prev = self.delegations.insert(domain, delegation);
        self.serial = self.serial.next();
        prev
    }

    /// Remove a delegation, bumping the serial if it existed.
    pub fn remove(&mut self, domain: &DomainName) -> Option<Delegation> {
        let prev = self.delegations.remove(domain);
        if prev.is_some() {
            self.serial = self.serial.next();
        }
        prev
    }

    /// Authoritative lookup for `domain` (or any name under it).
    pub fn lookup(&self, name: &DomainName) -> LookupOutcome<'_> {
        // Find the delegation covering `name`: walk ancestor-wards from the
        // registrable candidate.
        let mut candidate = Some(*name);
        while let Some(c) = candidate {
            if c == self.origin || !c.is_subdomain_of(&self.origin) {
                break;
            }
            if let Some(d) = self.delegations.get(&c) {
                return LookupOutcome::Delegated(d);
            }
            candidate = c.parent();
        }
        LookupOutcome::NxDomain
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&DomainName, &Delegation)> {
        self.delegations.iter()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ns(host: &str) -> Vec<DomainName> {
        vec![name(host)]
    }

    fn com_zone() -> Zone {
        Zone::new(name("com"), Serial::new(1000))
    }

    #[test]
    fn upsert_and_lookup() {
        let mut z = com_zone();
        z.upsert(name("example.com"), Delegation::new(ns("ns1.cloudflare.com")));
        match z.lookup(&name("example.com")) {
            LookupOutcome::Delegated(d) => {
                assert_eq!(d.ns_set().as_slice()[0], name("ns1.cloudflare.com"))
            }
            other => panic!("expected delegation, got {other:?}"),
        }
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn lookup_covers_subdomains() {
        let mut z = com_zone();
        z.upsert(name("example.com"), Delegation::new(ns("ns1.x.net")));
        assert!(matches!(z.lookup(&name("www.deep.example.com")), LookupOutcome::Delegated(_)));
    }

    #[test]
    fn missing_name_is_nxdomain() {
        let z = com_zone();
        assert_eq!(z.lookup(&name("ghost.com")), LookupOutcome::NxDomain);
        // Out-of-bailiwick names are NXDOMAIN too (we are not a resolver).
        assert_eq!(z.lookup(&name("example.net")), LookupOutcome::NxDomain);
    }

    #[test]
    fn serial_bumps_on_mutation_only() {
        let mut z = com_zone();
        let s0 = z.serial();
        z.upsert(name("a.com"), Delegation::new(ns("ns1.x.net")));
        let s1 = z.serial();
        assert!(s1.is_newer_than(s0));
        // Removing a non-existent name must not bump.
        z.remove(&name("ghost.com"));
        assert_eq!(z.serial(), s1);
        z.remove(&name("a.com"));
        assert!(z.serial().is_newer_than(s1));
        assert_eq!(z.len(), 0);
    }

    #[test]
    #[should_panic(expected = "not a proper subdomain")]
    fn rejects_out_of_bailiwick_upsert() {
        com_zone().upsert(name("example.net"), Delegation::new(ns("ns1.x.net")));
    }

    #[test]
    #[should_panic(expected = "not a proper subdomain")]
    fn rejects_origin_upsert() {
        com_zone().upsert(name("com"), Delegation::new(ns("ns1.x.net")));
    }

    #[test]
    fn delegation_ns_sorted_dedup() {
        let d = Delegation::new(vec![name("b.net"), name("a.net"), name("b.net")]);
        assert_eq!(d.ns_set().as_slice(), &[name("a.net"), name("b.net")]);
    }

    #[test]
    #[should_panic(expected = "at least one NS")]
    fn delegation_requires_ns() {
        Delegation::new(Vec::new());
    }

    #[test]
    fn delegation_from_sorted_skips_canonicalisation() {
        let canonical = NsSet::new(vec![name("a.net"), name("b.net")]);
        let d = Delegation::from_sorted(canonical.clone());
        assert_eq!(d.ns_set().as_slice(), canonical.as_slice());
        // The set is shared, not copied.
        assert!(d.ns_set().ptr_eq(&canonical));
    }

    #[test]
    fn ns_set_sharing_and_equality() {
        let a = NsSet::new(vec![name("b.net"), name("a.net")]);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        let c = NsSet::new(vec![name("a.net"), name("b.net")]);
        assert!(!a.ptr_eq(&c));
        assert_eq!(a, c);
    }

    #[test]
    fn from_snapshot_round_trips_without_resorting() {
        use crate::snapshot::ZoneSnapshot;
        use darkdns_sim::SimTime;
        let mut z = com_zone();
        z.upsert(name("a.com"), Delegation::new(vec![name("ns2.x.net"), name("ns1.x.net")]));
        z.upsert(name("b.com"), Delegation::new(ns("ns9.y.net")));
        let snap = ZoneSnapshot::capture(&z, SimTime::ZERO);
        let rebuilt = Zone::from_snapshot(&snap);
        assert_eq!(rebuilt.serial(), z.serial());
        assert_eq!(rebuilt.len(), 2);
        match rebuilt.lookup(&name("a.com")) {
            LookupOutcome::Delegated(d) => {
                assert_eq!(d.ns_set().as_slice(), &[name("ns1.x.net"), name("ns2.x.net")]);
                // The NS set is shared with the snapshot (and the source
                // zone), not copied or re-sorted.
                assert!(d.ns_set().ptr_eq(snap.ns_set_of(&name("a.com")).unwrap()));
            }
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a proper subdomain")]
    fn from_snapshot_rejects_out_of_bailiwick_entries() {
        use crate::snapshot::ZoneSnapshot;
        use darkdns_sim::SimTime;
        // from_entries takes entries as given, so a malformed snapshot can
        // exist; reconstructing a live zone from it must uphold the zone
        // invariants.
        let snap = ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(1),
            SimTime::ZERO,
            vec![(name("x.net"), vec![name("ns1.x.net")])],
        );
        Zone::from_snapshot(&snap);
    }

    #[test]
    #[should_panic(expected = "at least one NS")]
    fn from_snapshot_rejects_empty_ns_sets() {
        use crate::snapshot::ZoneSnapshot;
        use darkdns_sim::SimTime;
        let snap = ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(1),
            SimTime::ZERO,
            vec![(name("a.com"), Vec::new())],
        );
        Zone::from_snapshot(&snap);
    }

    #[test]
    fn upsert_replaces_and_returns_previous() {
        let mut z = com_zone();
        z.upsert(name("a.com"), Delegation::new(ns("ns1.x.net")));
        let prev = z.upsert(name("a.com"), Delegation::new(ns("ns2.y.net")));
        assert_eq!(prev.unwrap().ns_set().as_slice()[0], name("ns1.x.net"));
        assert_eq!(z.len(), 1);
    }
}
