//! The measurement worker pool.
//!
//! Sixteen worker instances (each fronted by its own caching resolver in
//! the paper's deployment) share the probing load; a domain is pinned to
//! one worker by a stable hash so its probe history is sequential. Each
//! monitored domain produces a [`MonitorReport`] summarising what the
//! pipeline needs downstream: the last instant the TLD still answered the
//! NS query (lifetime estimation, Figure 2), whether the NS set changed
//! within the first 24 hours (§4.1), and the measured hosting address
//! (Table 5).

use crate::authoritative::{NsAnswer, TldAuthority};
use crate::probe::ProbePlan;
use crate::resolver::CachingResolver;
use darkdns_dns::{DomainName, RecordType};
use darkdns_registry::universe::DomainId;
use darkdns_sim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Summary of one domain's 48-hour monitoring.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    pub domain: DomainId,
    pub name: DomainName,
    pub worker: u16,
    pub detected_at: SimTime,
    /// Last probe instant at which the TLD returned a referral.
    pub last_ns_ok: Option<SimTime>,
    /// First probe instant at which the TLD returned NXDOMAIN after a
    /// referral had been seen.
    pub first_nxdomain: Option<SimTime>,
    /// Distinct NS sets observed, in order of first appearance.
    pub ns_sets_seen: Vec<Vec<DomainName>>,
    /// True if a second NS set appeared within 24 h of detection.
    pub ns_changed_within_24h: bool,
    /// Address from the first successful A probe.
    pub web_addr: Option<Ipv4Addr>,
}

impl MonitorReport {
    /// Was the domain observed alive at least once?
    pub fn observed_alive(&self) -> bool {
        self.last_ns_ok.is_some()
    }

    /// Did monitoring watch the domain die?
    pub fn observed_death(&self) -> bool {
        self.first_nxdomain.is_some() && self.last_ns_ok.is_some()
    }
}

/// The 16-way worker pool.
pub struct MonitorPool {
    workers: u16,
}

impl MonitorPool {
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: u16) -> Self {
        assert!(workers > 0, "need at least one worker");
        MonitorPool { workers }
    }

    /// The paper's deployment: sixteen instances.
    pub fn paper_pool() -> Self {
        MonitorPool::new(16)
    }

    pub fn workers(&self) -> u16 {
        self.workers
    }

    /// Stable worker assignment for a domain.
    fn worker_for(&self, name: &DomainName) -> u16 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_str().as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % u64::from(self.workers)) as u16
    }

    /// Monitor one domain from `detected_at`: run the NS probe plan and an
    /// initial A probe through the worker's resolver.
    pub fn monitor(
        &self,
        authority: &TldAuthority<'_>,
        resolver: &mut CachingResolver<'_>,
        domain: DomainId,
        name: &DomainName,
        detected_at: SimTime,
    ) -> MonitorReport {
        let plan = ProbePlan::paper_plan(detected_at);
        let outcomes = plan.run_ns(authority, name);
        let mut last_ns_ok = None;
        let mut first_nxdomain = None;
        let mut ns_sets_seen: Vec<Vec<DomainName>> = Vec::new();
        let mut ns_changed_within_24h = false;
        let mut seen_referral = false;
        for o in &outcomes {
            match &o.ns {
                NsAnswer::Referral(ns) => {
                    seen_referral = true;
                    last_ns_ok = Some(o.at);
                    if !ns_sets_seen.iter().any(|s| s == ns) {
                        if !ns_sets_seen.is_empty()
                            && o.at.saturating_since(detected_at) <= SimDuration::from_hours(24)
                        {
                            ns_changed_within_24h = true;
                        }
                        ns_sets_seen.push(ns.clone());
                    }
                }
                NsAnswer::NxDomain if seen_referral && first_nxdomain.is_none() => {
                    first_nxdomain = Some(o.at);
                }
                NsAnswer::NxDomain => {}
            }
        }
        // One A probe at the first alive instant, through the cache.
        let web_addr = last_ns_ok.and_then(|_| {
            let first_alive = outcomes
                .iter()
                .find(|o| matches!(o.ns, NsAnswer::Referral(_)))
                .map(|o| o.at)?;
            match resolver.resolve(name, RecordType::A, first_alive) {
                crate::resolver::Resolution::A(addr) => Some(addr),
                _ => None,
            }
        });
        MonitorReport {
            domain,
            name: name.clone(),
            worker: self.worker_for(name),
            detected_at,
            last_ns_ok,
            first_nxdomain,
            ns_sets_seen,
            ns_changed_within_24h,
            web_addr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_registry::hosting::{HostingLandscape, ProviderId};
    use darkdns_registry::registrar::RegistrarId;
    use darkdns_registry::tld::TldId;
    use darkdns_registry::universe::{CertTiming, DomainKind, DomainRecord, Universe};

    fn universe(insert_h: u64, removed_h: Option<u64>, ns_change_h: Option<u64>) -> Universe {
        let mut u = Universe::new();
        u.push(DomainRecord {
            id: DomainId(0),
            name: DomainName::parse("a.com").unwrap(),
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
            ns_change_at: ns_change_h.map(SimTime::from_hours),
            malicious: true,
        });
        u
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn report_for_dying_domain() {
        let u = universe(10, Some(16), None);
        let l = HostingLandscape::paper_landscape();
        let auth = TldAuthority::new(&u, &l);
        let mut resolver = CachingResolver::paper_resolver(&u, &l);
        let pool = MonitorPool::paper_pool();
        let report = pool.monitor(
            &auth,
            &mut resolver,
            DomainId(0),
            &name("a.com"),
            SimTime::from_hours(10) + SimDuration::from_minutes(30),
        );
        assert!(report.observed_alive());
        assert!(report.observed_death());
        assert!(report.last_ns_ok.unwrap() < SimTime::from_hours(16));
        assert!(report.first_nxdomain.unwrap() >= SimTime::from_hours(16));
        assert!(!report.ns_changed_within_24h);
        // The measured address maps back to Cloudflare's ASN.
        assert_eq!(l.asn_of_addr(report.web_addr.unwrap()), Some(13_335));
    }

    #[test]
    fn ns_change_is_detected() {
        let u = universe(10, None, Some(14));
        let l = HostingLandscape::paper_landscape();
        let auth = TldAuthority::new(&u, &l);
        let mut resolver = CachingResolver::paper_resolver(&u, &l);
        let pool = MonitorPool::paper_pool();
        let report =
            pool.monitor(&auth, &mut resolver, DomainId(0), &name("a.com"), SimTime::from_hours(10));
        assert_eq!(report.ns_sets_seen.len(), 2);
        assert!(report.ns_changed_within_24h);
        assert!(!report.observed_death());
    }

    #[test]
    fn stable_domain_has_one_ns_set() {
        let u = universe(10, None, None);
        let l = HostingLandscape::paper_landscape();
        let auth = TldAuthority::new(&u, &l);
        let mut resolver = CachingResolver::paper_resolver(&u, &l);
        let pool = MonitorPool::paper_pool();
        let report =
            pool.monitor(&auth, &mut resolver, DomainId(0), &name("a.com"), SimTime::from_hours(10));
        assert_eq!(report.ns_sets_seen.len(), 1);
        assert!(!report.ns_changed_within_24h);
        assert!(report.observed_alive());
    }

    #[test]
    fn worker_assignment_is_stable_and_spread() {
        let pool = MonitorPool::paper_pool();
        let a = pool.worker_for(&name("a.com"));
        assert_eq!(a, pool.worker_for(&name("a.com")));
        let mut used = std::collections::HashSet::new();
        for i in 0..200 {
            used.insert(pool.worker_for(&name(&format!("domain{i}.com"))));
        }
        assert!(used.len() >= 12, "workers poorly spread: {}", used.len());
    }

    #[test]
    fn never_alive_domain_reports_nothing() {
        // Detection long after removal: all probes NXDOMAIN.
        let u = universe(10, Some(12), None);
        let l = HostingLandscape::paper_landscape();
        let auth = TldAuthority::new(&u, &l);
        let mut resolver = CachingResolver::paper_resolver(&u, &l);
        let pool = MonitorPool::paper_pool();
        let report =
            pool.monitor(&auth, &mut resolver, DomainId(0), &name("a.com"), SimTime::from_hours(20));
        assert!(!report.observed_alive());
        assert!(!report.observed_death());
        assert!(report.web_addr.is_none());
    }
}
