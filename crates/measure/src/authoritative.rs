//! Direct-to-TLD authoritative lookups.
//!
//! The paper sends NS probes straight to the TLD's authoritative
//! nameservers "to more accurately infer domain removal from the zone, and
//! to prevent misclassification of lame delegated or misconfigured domain
//! names as deleted" (§3). This module answers those probes from the
//! ground-truth universe: a domain is NXDOMAIN exactly when its delegation
//! is absent from the zone at the probe instant.

use darkdns_dns::DomainName;
use darkdns_registry::hosting::{HostingLandscape, ProviderId};
use darkdns_registry::universe::{DomainRecord, Universe};
use darkdns_sim::time::SimTime;

/// Result of an NS query at the TLD servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsAnswer {
    /// Delegation exists: referral with the NS host names.
    Referral(Vec<DomainName>),
    /// Name not in zone.
    NxDomain,
}

/// The DNS-hosting provider serving `record` at time `t`.
///
/// Records with an `ns_change_at` switch to a different provider at that
/// instant (the §4.1 NS-infrastructure-change population); which provider
/// they switch to is a deterministic function of the record so replays
/// agree.
fn provider_at(record: &DomainRecord, landscape: &HostingLandscape, t: SimTime) -> ProviderId {
    match record.ns_change_at {
        Some(change) if t >= change => {
            let n = landscape.dns_providers().len() as u16;
            ProviderId((record.dns_provider.0 + 1 + record.id.0 as u16 % (n - 1)) % n)
        }
        _ => record.dns_provider,
    }
}

/// Authoritative front-end over the universe.
pub struct TldAuthority<'a> {
    universe: &'a Universe,
    landscape: &'a HostingLandscape,
}

impl<'a> TldAuthority<'a> {
    pub fn new(universe: &'a Universe, landscape: &'a HostingLandscape) -> Self {
        TldAuthority { universe, landscape }
    }

    /// Answer an NS query for `name` at `t`.
    pub fn query_ns(&self, name: &DomainName, t: SimTime) -> NsAnswer {
        match self.universe.lookup(name) {
            Some(record) if record.in_zone_at(t) => {
                let provider = provider_at(record, self.landscape, t);
                NsAnswer::Referral(self.landscape.dns_provider(provider).ns_hosts())
            }
            _ => NsAnswer::NxDomain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_registry::registrar::RegistrarId;
    use darkdns_registry::tld::TldId;
    use darkdns_registry::universe::{CertTiming, DomainId, DomainKind};
    use darkdns_sim::time::SimDuration;

    fn record(name: &str, insert_h: u64, removed_h: Option<u64>, change_h: Option<u64>) -> DomainRecord {
        DomainRecord {
            id: DomainId(0),
            name: DomainName::parse(name).unwrap(),
            tld: TldId(0),
            kind: DomainKind::Transient,
            created: SimTime::from_hours(insert_h),
            zone_insert: SimTime::from_hours(insert_h),
            removed: removed_h.map(SimTime::from_hours),
            registrar: RegistrarId(0),
            dns_provider: ProviderId(0),
            web_asn: 13_335,
            cert_timing: CertTiming::Prompt,
            cert_hint: None,
            ns_change_at: change_h.map(SimTime::from_hours),
            malicious: true,
        }
    }

    fn setup(records: Vec<DomainRecord>) -> (Universe, HostingLandscape) {
        let mut u = Universe::new();
        for r in records {
            u.push(r);
        }
        (u, HostingLandscape::paper_landscape())
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn live_domain_gets_referral() {
        let (u, l) = setup(vec![record("a.com", 10, Some(20), None)]);
        let auth = TldAuthority::new(&u, &l);
        match auth.query_ns(&name("a.com"), SimTime::from_hours(12)) {
            NsAnswer::Referral(ns) => {
                assert_eq!(ns.len(), 2);
                assert!(ns[0].as_str().starts_with("ns1."));
            }
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    fn removed_domain_is_nxdomain() {
        let (u, l) = setup(vec![record("a.com", 10, Some(20), None)]);
        let auth = TldAuthority::new(&u, &l);
        assert_eq!(auth.query_ns(&name("a.com"), SimTime::from_hours(20)), NsAnswer::NxDomain);
        assert_eq!(auth.query_ns(&name("a.com"), SimTime::from_hours(5)), NsAnswer::NxDomain);
        assert_eq!(auth.query_ns(&name("never.com"), SimTime::from_hours(12)), NsAnswer::NxDomain);
    }

    #[test]
    fn ns_change_switches_provider() {
        let (u, l) = setup(vec![record("a.com", 10, None, Some(15))]);
        let auth = TldAuthority::new(&u, &l);
        let before = auth.query_ns(&name("a.com"), SimTime::from_hours(12));
        let after = auth.query_ns(&name("a.com"), SimTime::from_hours(16));
        assert_ne!(before, after, "NS set should change at the change instant");
        // And the change is stable afterwards.
        let later = auth.query_ns(&name("a.com"), SimTime::from_hours(30));
        assert_eq!(after, later);
    }

    #[test]
    fn provider_at_is_deterministic_and_differs() {
        let (u, l) = setup(vec![record("a.com", 10, None, Some(15))]);
        let r = u.lookup(&name("a.com")).unwrap();
        let p_before = provider_at(r, &l, SimTime::from_hours(14));
        let p_after = provider_at(r, &l, SimTime::from_hours(15));
        assert_eq!(p_before, r.dns_provider);
        assert_ne!(p_after, r.dns_provider);
        assert_eq!(provider_at(r, &l, SimTime::from_hours(15) + SimDuration::from_secs(1)), p_after);
    }
}
