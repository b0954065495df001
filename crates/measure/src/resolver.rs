//! The caching resolver (Unbound stand-in).
//!
//! A/AAAA probes go through a caching resolver configured with a **maximum
//! cache TTL of 60 seconds** (§3) — long enough to absorb probe bursts,
//! short enough that a 10-minute probe cadence always sees fresh hosting
//! state. The resolver synthesises answers from the ground-truth universe:
//! a live domain's A record is a deterministic address inside its
//! web-hosting provider's prefix, so the ASN aggregation of Table 5 can be
//! recovered from measured addresses exactly the way the paper does it.

use darkdns_dns::{DomainName, RecordType};
use darkdns_registry::hosting::HostingLandscape;
use darkdns_registry::universe::Universe;
use darkdns_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

/// A resolved answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    /// NXDOMAIN / no data.
    Negative,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    expires: SimTime,
    answer: Resolution,
}

/// Caching resolver with a TTL cap.
pub struct CachingResolver<'a> {
    universe: &'a Universe,
    landscape: &'a HostingLandscape,
    ttl_cap: SimDuration,
    cache: HashMap<(DomainName, RecordType), CacheEntry>,
    hits: u64,
    misses: u64,
}

/// Upstream records carry this TTL before the cap is applied.
const UPSTREAM_TTL: SimDuration = SimDuration::from_minutes(60);
/// Negative answers are cached briefly (RFC 2308 style).
const NEGATIVE_TTL: SimDuration = SimDuration::from_secs(30);

impl<'a> CachingResolver<'a> {
    pub fn new(universe: &'a Universe, landscape: &'a HostingLandscape, ttl_cap: SimDuration) -> Self {
        CachingResolver { universe, landscape, ttl_cap, cache: HashMap::new(), hits: 0, misses: 0 }
    }

    /// The paper's configuration: 60-second cache cap.
    pub fn paper_resolver(universe: &'a Universe, landscape: &'a HostingLandscape) -> Self {
        Self::new(universe, landscape, SimDuration::from_secs(60))
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resolve `name` for `rtype` (A or AAAA) at time `now`.
    ///
    /// # Panics
    /// Panics for record types other than A/AAAA — the measurement design
    /// sends NS queries to the authoritative servers, never through the
    /// resolver.
    pub fn resolve(&mut self, name: &DomainName, rtype: RecordType, now: SimTime) -> Resolution {
        assert!(
            matches!(rtype, RecordType::A | RecordType::Aaaa),
            "resolver only serves A/AAAA probes"
        );
        if let Some(entry) = self.cache.get(&(name.clone(), rtype)) {
            if entry.expires > now {
                self.hits += 1;
                return entry.answer.clone();
            }
        }
        self.misses += 1;
        let answer = self.resolve_upstream(name, rtype, now);
        let ttl = match answer {
            Resolution::Negative => NEGATIVE_TTL.min(self.ttl_cap),
            _ => UPSTREAM_TTL.min(self.ttl_cap),
        };
        self.cache.insert(
            (name.clone(), rtype),
            CacheEntry { expires: now + ttl, answer: answer.clone() },
        );
        answer
    }

    fn resolve_upstream(&self, name: &DomainName, rtype: RecordType, now: SimTime) -> Resolution {
        let record = match self.universe.lookup(name) {
            Some(r) if r.in_zone_at(now) => r,
            _ => return Resolution::Negative,
        };
        let host = match self.landscape.web_host_by_asn(record.web_asn) {
            Some(h) => h,
            None => return Resolution::Negative,
        };
        // Deterministic address within the provider prefix: the low bytes
        // encode the domain id, so each domain has a stable address.
        let id = record.id.0;
        match rtype {
            RecordType::A => {
                let probe = host_addr(host, id);
                Resolution::A(probe)
            }
            RecordType::Aaaa => {
                // v6 pools are modelled as 2001:db8:asn::/48.
                let asn = record.web_asn;
                Resolution::Aaaa(Ipv6Addr::new(
                    0x2001,
                    0x0db8,
                    (asn >> 16) as u16,
                    (asn & 0xffff) as u16,
                    0,
                    0,
                    (id >> 16) as u16,
                    (id & 0xffff) as u16,
                ))
            }
            _ => unreachable!("guarded by resolve()"),
        }
    }
}

/// The stable v4 address of domain `id` within `host`'s pool.
fn host_addr(host: &darkdns_registry::hosting::WebHost, id: u32) -> Ipv4Addr {
    // Use the host's own prefix via contains() invariants: sample a
    // deterministic address by re-seeding from the id.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(u64::from(id) | 0xFACE_0000_0000);
    host.sample_addr(&mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_registry::hosting::ProviderId;
    use darkdns_registry::registrar::RegistrarId;
    use darkdns_registry::tld::TldId;
    use darkdns_registry::universe::{CertTiming, DomainId, DomainKind, DomainRecord};

    fn setup() -> (Universe, HostingLandscape) {
        let mut u = Universe::new();
        u.push(DomainRecord {
            id: DomainId(0),
            name: DomainName::parse("a.com").unwrap(),
            tld: TldId(0),
            kind: DomainKind::EarlyRemoved,
            created: SimTime::from_hours(10),
            zone_insert: SimTime::from_hours(10),
            removed: Some(SimTime::from_hours(50)),
            registrar: RegistrarId(0),
            dns_provider: ProviderId(0),
            web_asn: 13_335,
            cert_timing: CertTiming::Prompt,
            cert_hint: None,
            ns_change_at: None,
            malicious: false,
        });
        (u, HostingLandscape::paper_landscape())
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn live_domain_resolves_into_provider_prefix() {
        let (u, l) = setup();
        let mut r = CachingResolver::paper_resolver(&u, &l);
        match r.resolve(&name("a.com"), RecordType::A, SimTime::from_hours(12)) {
            Resolution::A(addr) => assert_eq!(l.asn_of_addr(addr), Some(13_335)),
            other => panic!("expected A answer, got {other:?}"),
        }
    }

    #[test]
    fn dead_domain_is_negative() {
        let (u, l) = setup();
        let mut r = CachingResolver::paper_resolver(&u, &l);
        assert_eq!(
            r.resolve(&name("a.com"), RecordType::A, SimTime::from_hours(60)),
            Resolution::Negative
        );
        assert_eq!(
            r.resolve(&name("nope.com"), RecordType::A, SimTime::from_hours(60)),
            Resolution::Negative
        );
    }

    #[test]
    fn cache_hits_within_cap_and_expires_after() {
        let (u, l) = setup();
        let mut r = CachingResolver::paper_resolver(&u, &l);
        let t = SimTime::from_hours(12);
        let a1 = r.resolve(&name("a.com"), RecordType::A, t);
        assert_eq!(r.misses(), 1);
        let a2 = r.resolve(&name("a.com"), RecordType::A, t + SimDuration::from_secs(30));
        assert_eq!(r.hits(), 1);
        assert_eq!(a1, a2);
        // After the 60 s cap, a fresh upstream query happens.
        let _ = r.resolve(&name("a.com"), RecordType::A, t + SimDuration::from_secs(61));
        assert_eq!(r.misses(), 2);
    }

    #[test]
    fn sixty_second_cap_sees_removal_quickly() {
        // With an uncapped (1 h) cache a probe just before removal would
        // serve stale data long after; with the 60 s cap the next probe
        // 10 min later observes the removal. This is the design point the
        // paper calls out.
        let (u, l) = setup();
        let mut capped = CachingResolver::paper_resolver(&u, &l);
        let mut uncapped = CachingResolver::new(&u, &l, SimDuration::from_hours(1));
        let just_before = SimTime::from_hours(50).saturating_sub(SimDuration::from_secs(5));
        let after = SimTime::from_hours(50) + SimDuration::from_minutes(10);
        let _ = capped.resolve(&name("a.com"), RecordType::A, just_before);
        let _ = uncapped.resolve(&name("a.com"), RecordType::A, just_before);
        assert_eq!(capped.resolve(&name("a.com"), RecordType::A, after), Resolution::Negative);
        assert_ne!(uncapped.resolve(&name("a.com"), RecordType::A, after), Resolution::Negative);
    }

    #[test]
    fn aaaa_answers_are_stable() {
        let (u, l) = setup();
        let mut r = CachingResolver::paper_resolver(&u, &l);
        let t = SimTime::from_hours(12);
        let a = r.resolve(&name("a.com"), RecordType::Aaaa, t);
        let b = r.resolve(&name("a.com"), RecordType::Aaaa, t + SimDuration::from_minutes(10));
        assert_eq!(a, b);
        assert!(matches!(a, Resolution::Aaaa(_)));
    }

    #[test]
    #[should_panic(expected = "only serves A/AAAA")]
    fn ns_through_resolver_is_a_design_violation() {
        let (u, l) = setup();
        let mut r = CachingResolver::paper_resolver(&u, &l);
        let _ = r.resolve(&name("a.com"), RecordType::Ns, SimTime::from_hours(12));
    }
}
