//! The DZDB historical zone archive (CAIDA).
//!
//! The paper resolves cause-iii RDAP failures by checking failed transient
//! candidates against DZDB's historical zone collection: ≈97% of them had
//! been registered in the past, consistent with certificates issued on
//! cached DV tokens. The archive here is built from the simulation's own
//! history: every record whose registration predates the observation
//! window (including the historical lifecycles behind ghosts) has an
//! archive entry.

use darkdns_dns::DomainName;
use darkdns_registry::universe::{DomainKind, Universe};
use darkdns_sim::time::SimTime;
use std::collections::HashMap;

/// One archived (historical) registration interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveEntry {
    pub first_seen: SimTime,
    pub last_seen: SimTime,
}

/// Historical zone database.
#[derive(Debug, Default)]
pub struct DzdbArchive {
    entries: HashMap<DomainName, ArchiveEntry>,
}

impl DzdbArchive {
    /// Build the archive from everything that was in a zone before
    /// `window_start`. Ghost records with `previously_registered = false`
    /// deliberately have no entry — those are the ≈3% the paper could not
    /// explain by past registration.
    pub fn build(universe: &Universe, window_start: SimTime) -> Self {
        let mut entries = HashMap::new();
        for r in universe.iter() {
            let historical = match r.kind {
                DomainKind::Ghost { previously_registered } => previously_registered,
                _ => r.created < window_start,
            };
            if historical {
                entries.insert(
                    r.name.clone(),
                    ArchiveEntry {
                        first_seen: r.zone_insert.min(r.created),
                        last_seen: r.removed.unwrap_or(window_start),
                    },
                );
            }
        }
        DzdbArchive { entries }
    }

    /// Was this name ever registered in the past?
    pub fn contains(&self, name: &DomainName) -> bool {
        self.entries.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_registry::hosting::ProviderId;
    use darkdns_registry::registrar::RegistrarId;
    use darkdns_registry::tld::TldId;
    use darkdns_registry::universe::{CertTiming, DomainId, DomainRecord};
    use darkdns_sim::time::SimDuration;

    fn record(name: &str, kind: DomainKind, created_day: u64) -> DomainRecord {
        let created = SimTime::from_days(created_day);
        DomainRecord {
            id: DomainId(0),
            name: DomainName::parse(name).unwrap(),
            tld: TldId(0),
            kind,
            created,
            zone_insert: created,
            removed: Some(created + SimDuration::from_days(10)),
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
    fn historical_registrations_are_archived() {
        let mut u = Universe::new();
        u.push(record("old.com", DomainKind::ReRegistered, 100));
        u.push(record("new.com", DomainKind::Transient, 450));
        let archive = DzdbArchive::build(&u, SimTime::from_days(400));
        assert!(archive.contains(&DomainName::parse("old.com").unwrap()));
        assert!(!archive.contains(&DomainName::parse("new.com").unwrap()));
        assert_eq!(archive.entries.len(), 1);
        let entry = archive.entries[&DomainName::parse("old.com").unwrap()];
        assert_eq!(entry.first_seen, SimTime::from_days(100));
    }

    #[test]
    fn ghost_history_flag_controls_archival() {
        let mut u = Universe::new();
        u.push(record("was.com", DomainKind::Ghost { previously_registered: true }, 100));
        u.push(record("never.com", DomainKind::Ghost { previously_registered: false }, 100));
        let archive = DzdbArchive::build(&u, SimTime::from_days(400));
        assert!(archive.contains(&DomainName::parse("was.com").unwrap()));
        assert!(!archive.contains(&DomainName::parse("never.com").unwrap()));
    }

    #[test]
    fn empty_universe_gives_empty_archive() {
        let archive = DzdbArchive::build(&Universe::new(), SimTime::from_days(400));
        assert!(archive.entries.is_empty());
    }
}
