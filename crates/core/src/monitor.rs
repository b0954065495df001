//! Step 3: reactive monitoring of candidates.
//!
//! Thin orchestration over the measurement substrate: every candidate is
//! assigned to a worker and monitored for 48 hours from detection. The
//! per-domain [`MonitorReport`]s feed lifetime estimation (Figure 2), the
//! NS-stability statistic (§4.1) and the hosting tables (4 and 5).
//!
//! The monitor is generic over the zone view
//! ([`crate::membership::ZoneMembership`]): alongside the active
//! A/AAAA/NS probes it asks the view whether each candidate ever became
//! zone-visible by the end of its monitoring window. That consumer-side
//! staleness accounting ([`MonitorZoneStats`]) is the early-warning
//! version of the Step-5 transient classification — a candidate the
//! zone view never confirms is transient-shaped long before the ±3-day
//! snapshot slack elapses, and at RZU freshness the signal arrives
//! within one push interval.

use crate::detector::NrdCandidate;
use crate::membership::ZoneMembership;
use darkdns_measure::authoritative::TldAuthority;
use darkdns_measure::probe::MONITOR_HORIZON;
use darkdns_measure::resolver::CachingResolver;
use darkdns_measure::worker::{MonitorPool, MonitorReport};
use darkdns_registry::hosting::HostingLandscape;
use darkdns_registry::universe::Universe;
use darkdns_sim::time::SimDuration;

/// Consumer-side zone-visibility accounting over the monitored
/// candidates, as answered by the monitor's membership backend at the
/// probe horizon (`darkdns_measure::probe::MONITOR_HORIZON`, the same
/// 48 h the active probes run for).
///
/// Zone views only move forward (`advance_to` is monotonic), so the
/// check answers at the *later* of the candidate's monitoring-window
/// end and wherever the view already stands — e.g. after a batch
/// detection pass, at the detection horizon. The stat is therefore
/// "was the candidate zone-visible when the view (at least) reached
/// its window end", uniformly for every backend.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MonitorZoneStats {
    /// Candidates the zone view confirmed visible.
    pub confirmed_in_view: u64,
    /// Candidates the zone view never confirmed — transient-shaped at
    /// this backend's freshness.
    pub never_in_view: u64,
}

/// Runs Step 3 over all candidates.
pub struct Monitor<'a, M: ZoneMembership> {
    authority: TldAuthority<'a>,
    resolver: CachingResolver<'a>,
    pool: MonitorPool,
    membership: M,
    zone_stats: MonitorZoneStats,
}

impl<'a, M: ZoneMembership> Monitor<'a, M> {
    pub fn new(universe: &'a Universe, landscape: &'a HostingLandscape, membership: M) -> Self {
        Monitor {
            authority: TldAuthority::new(universe, landscape),
            resolver: CachingResolver::new(universe, landscape, SimDuration::from_secs(60)),
            pool: MonitorPool::paper_pool(),
            membership,
            zone_stats: MonitorZoneStats::default(),
        }
    }

    fn monitor_one(&mut self, candidate: &NrdCandidate) -> MonitorReport {
        let report = self.pool.monitor(
            &self.authority,
            &mut self.resolver,
            candidate.record,
            &candidate.domain,
            candidate.detected_at,
        );
        // Zone-visibility check at the probe horizon. `advance_to` is
        // monotonic, so a view the detector already carried further
        // simply answers at its present boundary (see
        // [`MonitorZoneStats`] for the exact semantics).
        self.membership.advance_to(candidate.detected_at + MONITOR_HORIZON);
        if self.membership.contains_anywhere(&candidate.domain) {
            self.zone_stats.confirmed_in_view += 1;
        } else {
            self.zone_stats.never_in_view += 1;
        }
        report
    }

    pub fn monitor_all(&mut self, candidates: &[NrdCandidate]) -> Vec<MonitorReport> {
        candidates.iter().map(|c| self.monitor_one(c)).collect()
    }

    /// Zone-visibility accounting across everything monitored so far.
    pub fn zone_stats(&self) -> MonitorZoneStats {
        self.zone_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_dns::DomainName;
    use darkdns_registry::hosting::ProviderId;
    use darkdns_registry::live::UniverseZoneView;
    use darkdns_registry::registrar::RegistrarId;
    use darkdns_registry::tld::TldId;
    use darkdns_registry::universe::{CertTiming, DomainId, DomainKind, DomainRecord};
    use darkdns_sim::time::SimTime;

    fn universe() -> Universe {
        let mut u = Universe::new();
        u.push(DomainRecord {
            id: DomainId(0),
            name: DomainName::parse("t.com").unwrap(),
            tld: TldId(0),
            kind: DomainKind::Transient,
            created: SimTime::from_hours(100),
            zone_insert: SimTime::from_hours(100),
            removed: Some(SimTime::from_hours(106)),
            registrar: RegistrarId(0),
            dns_provider: ProviderId(0),
            web_asn: 13_335,
            cert_timing: CertTiming::Prompt,
            cert_hint: None,
            ns_change_at: None,
            malicious: true,
        });
        u
    }

    fn view(u: &Universe) -> UniverseZoneView<'_> {
        UniverseZoneView::new(u, &[TldId(0)], SimTime::ZERO, SimDuration::from_minutes(5))
    }

    #[test]
    fn monitoring_brackets_the_death() {
        let u = universe();
        let l = HostingLandscape::paper_landscape();
        let mut m = Monitor::new(&u, &l, view(&u));
        let candidate = NrdCandidate {
            domain: DomainName::parse("t.com").unwrap(),
            record: DomainId(0),
            detected_at: SimTime::from_hours(100) + SimDuration::from_minutes(40),
        };
        let report = m.monitor_one(&candidate);
        assert!(report.observed_death());
        let death = SimTime::from_hours(106);
        assert!(report.last_ns_ok.unwrap() < death);
        assert!(report.first_nxdomain.unwrap() >= death);
        // The domain died before the monitoring window closed: by then
        // the zone view no longer confirms it.
        assert_eq!(m.zone_stats(), MonitorZoneStats { confirmed_in_view: 0, never_in_view: 1 });
    }

    #[test]
    fn batch_monitoring_produces_one_report_each() {
        let u = universe();
        let l = HostingLandscape::paper_landscape();
        let mut m = Monitor::new(&u, &l, view(&u));
        let c = NrdCandidate {
            domain: DomainName::parse("t.com").unwrap(),
            record: DomainId(0),
            detected_at: SimTime::from_hours(101),
        };
        let reports = m.monitor_all(&[c.clone(), c]);
        assert_eq!(reports.len(), 2);
        let zs = m.zone_stats();
        assert_eq!(zs.confirmed_in_view + zs.never_in_view, 2);
    }

    #[test]
    fn long_lived_candidates_are_confirmed_by_the_view() {
        let mut u = Universe::new();
        u.push(DomainRecord {
            id: DomainId(0),
            name: DomainName::parse("keeper.com").unwrap(),
            tld: TldId(0),
            kind: DomainKind::LongLived,
            created: SimTime::from_hours(100),
            zone_insert: SimTime::from_hours(100),
            removed: None,
            registrar: RegistrarId(0),
            dns_provider: ProviderId(0),
            web_asn: 13_335,
            cert_timing: CertTiming::Prompt,
            cert_hint: None,
            ns_change_at: None,
            malicious: false,
        });
        let l = HostingLandscape::paper_landscape();
        let mut m = Monitor::new(&u, &l, view(&u));
        let c = NrdCandidate {
            domain: DomainName::parse("keeper.com").unwrap(),
            record: DomainId(0),
            detected_at: SimTime::from_hours(100),
        };
        m.monitor_one(&c);
        assert_eq!(m.zone_stats(), MonitorZoneStats { confirmed_in_view: 1, never_in_view: 0 });
    }
}
