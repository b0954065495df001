//! Immutable zone snapshots — the CZDS artifact.
//!
//! A [`ZoneSnapshot`] is a point-in-time copy of a zone's delegations,
//! ordered by owner name, with the serial and capture time attached. The
//! CZDS publisher in `darkdns-registry` produces one per zone per day; the
//! diff engines in [`crate::diff`] consume pairs of them; and the pipeline
//! tests membership against the latest available snapshot set.
//!
//! # Layout
//!
//! Entries are stored columnar: one sorted column of `Copy`
//! [`DomainName`]s and one parallel column of shared [`NsSet`]s, both
//! behind a single `Arc`. Capturing a snapshot from a [`Zone`] copies 23
//! bytes per owner name and bumps one refcount per NS set — no per-entry
//! heap allocation — and the diff engines walk the columns without
//! touching the allocator at all.
//!
//! Snapshots also round-trip through a zone-file-like text format so the
//! repository can materialise CZDS-style files on disk for the examples.

use crate::name::DomainName;
use crate::serial::Serial;
use crate::zone::{NsSet, Zone};
use darkdns_sim::time::SimTime;
use std::fmt;
use std::sync::Arc;

/// Errors from parsing snapshot text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotParseError {
    /// Missing or malformed `; origin:` / `; serial:` / `; taken:` header.
    BadHeader(String),
    /// A record line did not have the expected 5 fields.
    BadLine(String),
    /// A name failed validation.
    BadName(String),
    /// Record type other than NS in the body.
    UnexpectedType(String),
}

impl fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotParseError::BadHeader(l) => write!(f, "bad header line: {l}"),
            SnapshotParseError::BadLine(l) => write!(f, "bad record line: {l}"),
            SnapshotParseError::BadName(e) => write!(f, "bad name: {e}"),
            SnapshotParseError::UnexpectedType(t) => write!(f, "unexpected record type: {t}"),
        }
    }
}

impl std::error::Error for SnapshotParseError {}

/// The shared columnar entry store: `domains[i]`'s NS set is `ns[i]`.
#[derive(Debug, PartialEq)]
struct Columns {
    /// Sorted by name.
    domains: Vec<DomainName>,
    ns: Vec<NsSet>,
}

/// A point-in-time, immutable view of a TLD zone's delegations.
///
/// Entries are stored sorted by owner name; membership queries are binary
/// searches and the sorted order is what the merge diff engine exploits.
/// The columns are behind an `Arc` so snapshots can be shared between the
/// publisher, the pipeline and the diff engines without copying
/// million-entry tables.
#[derive(Debug, Clone)]
pub struct ZoneSnapshot {
    origin: DomainName,
    serial: Serial,
    taken_at: SimTime,
    cols: Arc<Columns>,
}

impl ZoneSnapshot {
    /// Capture the current state of `zone` at time `taken_at`.
    pub fn capture(zone: &Zone, taken_at: SimTime) -> Self {
        let mut domains = Vec::with_capacity(zone.len());
        let mut ns = Vec::with_capacity(zone.len());
        // BTreeMap iteration is already sorted by owner name; NS sets are
        // shared with the live zone, not copied.
        for (d, delegation) in zone.iter() {
            domains.push(*d);
            ns.push(delegation.ns_set().clone());
        }
        debug_assert!(domains.windows(2).all(|w| w[0] < w[1]));
        ZoneSnapshot {
            origin: *zone.origin(),
            serial: zone.serial(),
            taken_at,
            cols: Arc::new(Columns { domains, ns }),
        }
    }

    /// Build from parts. Entries are sorted and deduplicated by domain
    /// (last occurrence wins); NS sets are taken as given.
    pub fn from_entries(
        origin: DomainName,
        serial: Serial,
        taken_at: SimTime,
        mut entries: Vec<(DomainName, Vec<DomainName>)>,
    ) -> Self {
        sort_last_wins(&mut entries);
        // Frozen in column order, which is the order every diff engine
        // walks the NS sets in.
        let mut domains = Vec::with_capacity(entries.len());
        let mut ns = Vec::with_capacity(entries.len());
        for (d, hosts) in entries {
            domains.push(d);
            ns.push(NsSet::from_raw(hosts));
        }
        Self::from_sorted_columns(origin, serial, taken_at, domains, ns)
    }

    /// [`ZoneSnapshot::from_entries`] over already-frozen (typically
    /// shared) NS sets — what the wire decoders produce. A strictly
    /// ascending entry sequence, which is what every encoder emits, goes
    /// straight into the columns; anything else is sorted and
    /// deduplicated by domain first (last occurrence wins).
    pub fn from_ns_entries(
        origin: DomainName,
        serial: Serial,
        taken_at: SimTime,
        mut entries: Vec<(DomainName, NsSet)>,
    ) -> Self {
        sort_last_wins(&mut entries);
        let (domains, ns) = entries.into_iter().unzip();
        Self::from_sorted_columns(origin, serial, taken_at, domains, ns)
    }

    /// Assemble from already-sorted columns — the fast path for
    /// [`crate::diff::ZoneDelta::apply`], which produces entries in order.
    pub(crate) fn from_sorted_columns(
        origin: DomainName,
        serial: Serial,
        taken_at: SimTime,
        domains: Vec<DomainName>,
        ns: Vec<NsSet>,
    ) -> Self {
        debug_assert_eq!(domains.len(), ns.len());
        debug_assert!(domains.windows(2).all(|w| w[0] < w[1]));
        ZoneSnapshot { origin, serial, taken_at, cols: Arc::new(Columns { domains, ns }) }
    }

    /// True when `other` is this very capture: same header and the same
    /// shared column storage (an O(1) witness, no entry is compared).
    /// Two equal-content snapshots built separately are *not* the same
    /// capture — callers caching per-capture derived data fall back to
    /// recomputing, never to a stale hit.
    pub fn same_capture(&self, other: &ZoneSnapshot) -> bool {
        self.origin == other.origin
            && self.serial == other.serial
            && self.taken_at == other.taken_at
            && Arc::ptr_eq(&self.cols, &other.cols)
    }

    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    pub fn serial(&self) -> Serial {
        self.serial
    }

    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }

    pub fn len(&self) -> usize {
        self.cols.domains.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cols.domains.is_empty()
    }

    pub fn contains(&self, domain: &DomainName) -> bool {
        self.cols.domains.binary_search(domain).is_ok()
    }

    /// NS set for `domain`, if present.
    pub fn ns_of(&self, domain: &DomainName) -> Option<&[DomainName]> {
        self.cols.domains.binary_search(domain).ok().map(|i| self.cols.ns[i].as_slice())
    }

    /// Shared NS set for `domain`, if present (clone to carry it onward
    /// without copying hosts).
    pub fn ns_set_of(&self, domain: &DomainName) -> Option<&NsSet> {
        self.cols.domains.binary_search(domain).ok().map(|i| &self.cols.ns[i])
    }

    /// The sorted owner-name column.
    pub fn domain_column(&self) -> &[DomainName] {
        &self.cols.domains
    }

    /// The NS column, parallel to [`ZoneSnapshot::domain_column`].
    pub fn ns_column(&self) -> &[NsSet] {
        &self.cols.ns
    }

    /// Iterate entries in owner-name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (DomainName, &NsSet)> + '_ {
        self.cols.domains.iter().copied().zip(self.cols.ns.iter())
    }

    pub fn domains(&self) -> impl Iterator<Item = &DomainName> {
        self.cols.domains.iter()
    }

    /// Serialise to the CZDS-like text format:
    ///
    /// ```text
    /// ; origin: com
    /// ; serial: 12345
    /// ; taken: 86400
    /// example.com. 86400 IN NS ns1.cloudflare.com.
    /// ```
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.len() * 48);
        let _ = writeln!(out, "; origin: {}", self.origin);
        let _ = writeln!(out, "; serial: {}", self.serial);
        let _ = writeln!(out, "; taken: {}", self.taken_at.as_secs());
        for (domain, ns_set) in self.iter() {
            for ns in ns_set {
                let _ = writeln!(out, "{domain}. 86400 IN NS {ns}.");
            }
        }
        out
    }

    /// Parse the text format produced by [`ZoneSnapshot::to_text`].
    pub fn parse_text(text: &str) -> Result<Self, SnapshotParseError> {
        let mut origin: Option<DomainName> = None;
        let mut serial: Option<Serial> = None;
        let mut taken: Option<SimTime> = None;
        let mut by_domain: Vec<(DomainName, Vec<DomainName>)> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix(';') {
                let rest = rest.trim();
                if let Some(v) = rest.strip_prefix("origin:") {
                    origin = Some(
                        DomainName::parse(v.trim())
                            .map_err(|e| SnapshotParseError::BadName(e.to_string()))?,
                    );
                } else if let Some(v) = rest.strip_prefix("serial:") {
                    let n: u32 = v
                        .trim()
                        .parse()
                        .map_err(|_| SnapshotParseError::BadHeader(line.to_owned()))?;
                    serial = Some(Serial::new(n));
                } else if let Some(v) = rest.strip_prefix("taken:") {
                    let n: u64 = v
                        .trim()
                        .parse()
                        .map_err(|_| SnapshotParseError::BadHeader(line.to_owned()))?;
                    taken = Some(SimTime::from_secs(n));
                }
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(SnapshotParseError::BadLine(line.to_owned()));
            }
            if !fields[3].eq_ignore_ascii_case("NS") {
                return Err(SnapshotParseError::UnexpectedType(fields[3].to_owned()));
            }
            let domain = DomainName::parse(fields[0])
                .map_err(|e| SnapshotParseError::BadName(e.to_string()))?;
            let ns = DomainName::parse(fields[4])
                .map_err(|e| SnapshotParseError::BadName(e.to_string()))?;
            match by_domain.last_mut() {
                Some((d, set)) if *d == domain => set.push(ns),
                _ => by_domain.push((domain, vec![ns])),
            }
        }
        let origin = origin.ok_or_else(|| SnapshotParseError::BadHeader("missing origin".into()))?;
        let serial = serial.ok_or_else(|| SnapshotParseError::BadHeader("missing serial".into()))?;
        let taken = taken.ok_or_else(|| SnapshotParseError::BadHeader("missing taken".into()))?;
        // Sort NS sets for canonical equality.
        for (_, set) in by_domain.iter_mut() {
            set.sort_unstable();
            set.dedup();
        }
        Ok(ZoneSnapshot::from_entries(origin, serial, taken, by_domain))
    }
}

/// Bring `entries` into strictly ascending domain order, keeping the
/// last occurrence of a repeated domain. Already-ascending input — the
/// common case — is left untouched after one comparison pass.
fn sort_last_wins<T>(entries: &mut Vec<(DomainName, T)>) {
    if entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    // `sort_by`, not `sort_by_key`: the key would be a 23-byte copy per
    // comparison side, and 50k-entry shard builds measured 35 % slower.
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|later, earlier| {
        if later.0 == earlier.0 {
            // `dedup_by` removes `later` when true; keep the later value
            // by moving it into the retained (earlier) slot.
            std::mem::swap(&mut earlier.1, &mut later.1);
            true
        } else {
            false
        }
    });
}

impl PartialEq for ZoneSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.origin == other.origin
            && self.serial == other.serial
            && self.taken_at == other.taken_at
            && (Arc::ptr_eq(&self.cols, &other.cols) || self.cols == other.cols)
    }
}
impl Eq for ZoneSnapshot {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Delegation;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn sample_zone() -> Zone {
        let mut z = Zone::new(name("com"), Serial::new(100));
        z.upsert(name("bravo.com"), Delegation::new(vec![name("ns1.x.net"), name("ns2.x.net")]));
        z.upsert(name("alpha.com"), Delegation::new(vec![name("ns1.cloudflare.com")]));
        z
    }

    #[test]
    fn capture_is_sorted_and_immutable() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::from_days(1));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.domain_column()[0], name("alpha.com"));
        assert!(snap.contains(&name("bravo.com")));
        assert!(!snap.contains(&name("charlie.com")));
        assert_eq!(snap.ns_of(&name("alpha.com")).unwrap(), &[name("ns1.cloudflare.com")]);
        assert_eq!(snap.ns_of(&name("missing.com")), None);
    }

    #[test]
    fn capture_shares_ns_sets_with_zone() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::ZERO);
        let zone_set = match z.lookup(&name("bravo.com")) {
            crate::zone::LookupOutcome::Delegated(d) => d.ns_set().clone(),
            other => panic!("expected delegation, got {other:?}"),
        };
        assert!(snap.ns_set_of(&name("bravo.com")).unwrap().ptr_eq(&zone_set));
    }

    #[test]
    fn capture_reflects_zone_serial_and_time() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::from_days(2));
        assert_eq!(snap.serial(), z.serial());
        assert_eq!(snap.taken_at(), SimTime::from_days(2));
        assert_eq!(snap.origin(), &name("com"));
    }

    #[test]
    fn text_round_trip() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::from_days(1));
        let text = snap.to_text();
        let parsed = ZoneSnapshot::parse_text(&text).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn text_format_contents() {
        let z = sample_zone();
        let text = ZoneSnapshot::capture(&z, SimTime::from_days(1)).to_text();
        assert!(text.contains("; origin: com"));
        assert!(text.contains("alpha.com. 86400 IN NS ns1.cloudflare.com."));
        // Multi-NS domains produce one line per NS.
        assert_eq!(text.matches("bravo.com.").count(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            ZoneSnapshot::parse_text("; origin: com\n; serial: 1\n; taken: 0\nnot a record\n"),
            Err(SnapshotParseError::BadLine(_))
        ));
        assert!(matches!(
            ZoneSnapshot::parse_text("; serial: 1\n; taken: 0\n"),
            Err(SnapshotParseError::BadHeader(_))
        ));
        assert!(matches!(
            ZoneSnapshot::parse_text(
                "; origin: com\n; serial: 1\n; taken: 0\na.com. 86400 IN A 1.2.3.4\n"
            ),
            Err(SnapshotParseError::UnexpectedType(_))
        ));
    }

    #[test]
    fn from_entries_sorts_and_dedups_last_wins() {
        let snap = ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(1),
            SimTime::ZERO,
            vec![
                (name("b.com"), vec![name("ns.old.net")]),
                (name("a.com"), vec![name("ns.a.net")]),
                (name("b.com"), vec![name("ns.new.net")]),
            ],
        );
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.ns_of(&name("b.com")).unwrap(), &[name("ns.new.net")]);
    }

    #[test]
    fn from_ns_entries_shares_sets_and_takes_ascending_input_as_is() {
        let shared = NsSet::new(vec![name("ns1.x.net"), name("ns2.x.net")]);
        let ascending = vec![
            (name("a.com"), shared.clone()),
            (name("b.com"), shared.clone()),
            (name("c.com"), shared.clone()),
        ];
        let snap =
            ZoneSnapshot::from_ns_entries(name("com"), Serial::new(1), SimTime::ZERO, ascending);
        assert_eq!(snap.len(), 3);
        assert!(snap.ns_column().iter().all(|ns| ns.ptr_eq(&shared)));
        // Out-of-order input with a duplicate: sorted, last wins.
        let newer = NsSet::new(vec![name("ns.new.net")]);
        let shuffled = vec![
            (name("b.com"), shared.clone()),
            (name("a.com"), shared.clone()),
            (name("b.com"), newer.clone()),
        ];
        let snap =
            ZoneSnapshot::from_ns_entries(name("com"), Serial::new(1), SimTime::ZERO, shuffled);
        assert_eq!(snap.domain_column(), &[name("a.com"), name("b.com")]);
        assert!(snap.ns_set_of(&name("b.com")).unwrap().ptr_eq(&newer));
    }

    #[test]
    fn same_capture_is_storage_identity_not_content_equality() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::ZERO);
        assert!(snap.same_capture(&snap.clone()));
        let rebuilt = ZoneSnapshot::capture(&z, SimTime::ZERO);
        assert_eq!(rebuilt, snap);
        assert!(!snap.same_capture(&rebuilt));
    }

    #[test]
    fn empty_snapshot() {
        let snap = ZoneSnapshot::from_entries(name("com"), Serial::new(1), SimTime::ZERO, vec![]);
        assert!(snap.is_empty());
        let rt = ZoneSnapshot::parse_text(&snap.to_text()).unwrap();
        assert_eq!(rt, snap);
    }

    #[test]
    fn domains_iterator() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::ZERO);
        let names: Vec<_> = snap.domains().map(|d| d.as_str().to_owned()).collect();
        assert_eq!(names, vec!["alpha.com", "bravo.com"]);
    }

    #[test]
    fn snapshots_share_entries_cheaply() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::ZERO);
        let clone = snap.clone();
        assert!(Arc::ptr_eq(&snap.cols, &clone.cols));
    }
}
