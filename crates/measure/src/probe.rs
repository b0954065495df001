//! The 10-minute / 48-hour probe plan.
//!
//! For each newly observed domain the pipeline schedules probes every 10
//! minutes for the first 48 hours after detection (§3). The plan is a pure
//! schedule; executing a probe against the authoritative substrate yields
//! a [`ProbeOutcome`].

use crate::authoritative::{NsAnswer, TldAuthority};
use darkdns_dns::DomainName;
use darkdns_sim::time::{SimDuration, SimTime};

/// Paper probe cadence.
const PROBE_INTERVAL: SimDuration = SimDuration::from_minutes(10);
/// Paper monitoring horizon.
pub const MONITOR_HORIZON: SimDuration = SimDuration::from_hours(48);

/// One probe's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeOutcome {
    pub at: SimTime,
    pub ns: NsAnswer,
}

/// The probe schedule for one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePlan {
    pub start: SimTime,
    pub interval: SimDuration,
    pub horizon: SimDuration,
}

impl ProbePlan {
    /// The paper's plan, starting at detection time.
    pub fn paper_plan(detected_at: SimTime) -> Self {
        ProbePlan { start: detected_at, interval: PROBE_INTERVAL, horizon: MONITOR_HORIZON }
    }

    /// Number of probes in the plan.
    fn len(&self) -> usize {
        (self.horizon.as_secs() / self.interval.as_secs()) as usize + 1
    }

    /// All probe instants: start, start+interval, ..., start+horizon.
    fn instants(&self) -> impl Iterator<Item = SimTime> + '_ {
        (0..self.len() as u64).map(move |i| self.start + SimDuration::from_secs(i * self.interval.as_secs()))
    }

    /// Execute the NS probes against the authority, stopping after the
    /// first NXDOMAIN that follows a successful referral (the domain left
    /// the zone; later probes can only repeat the NXDOMAIN).
    pub fn run_ns(&self, authority: &TldAuthority<'_>, name: &DomainName) -> Vec<ProbeOutcome> {
        let mut out = Vec::new();
        let mut seen_referral = false;
        for at in self.instants() {
            let ns = authority.query_ns(name, at);
            let is_nx = ns == NsAnswer::NxDomain;
            out.push(ProbeOutcome { at, ns });
            if seen_referral && is_nx {
                break;
            }
            seen_referral |= !is_nx;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_registry::hosting::{HostingLandscape, ProviderId};
    use darkdns_registry::registrar::RegistrarId;
    use darkdns_registry::tld::TldId;
    use darkdns_registry::universe::{CertTiming, DomainId, DomainKind, DomainRecord, Universe};

    fn setup(insert_h: u64, removed_h: Option<u64>) -> (Universe, HostingLandscape) {
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
            ns_change_at: None,
            malicious: true,
        });
        (u, HostingLandscape::paper_landscape())
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn plan_has_289_probes() {
        // 48 h at 10-minute cadence inclusive of both endpoints.
        let plan = ProbePlan::paper_plan(SimTime::from_hours(10));
        assert_eq!(plan.len(), 289);
        let instants: Vec<_> = plan.instants().collect();
        assert_eq!(instants.len(), 289);
        assert_eq!(instants[0], SimTime::from_hours(10));
        assert_eq!(*instants.last().unwrap(), SimTime::from_hours(58));
    }

    #[test]
    fn probes_observe_death() {
        let (u, l) = setup(10, Some(16));
        let auth = TldAuthority::new(&u, &l);
        // Detection a few minutes after creation.
        let plan = ProbePlan::paper_plan(SimTime::from_hours(10) + SimDuration::from_minutes(35));
        let outcomes = plan.run_ns(&auth, &name("a.com"));
        let last_ok = outcomes.iter().rev().find(|o| o.ns != NsAnswer::NxDomain).unwrap();
        assert!(last_ok.at < SimTime::from_hours(16));
        // The run stops shortly after death instead of probing all 48 h.
        assert!(outcomes.len() < 60);
        assert_eq!(outcomes.last().unwrap().ns, NsAnswer::NxDomain);
    }

    #[test]
    fn long_lived_domain_probes_full_horizon() {
        let (u, l) = setup(10, None);
        let auth = TldAuthority::new(&u, &l);
        let plan = ProbePlan::paper_plan(SimTime::from_hours(11));
        let outcomes = plan.run_ns(&auth, &name("a.com"));
        assert_eq!(outcomes.len(), 289);
        assert!(outcomes.iter().all(|o| o.ns != NsAnswer::NxDomain));
    }

    #[test]
    fn death_time_resolution_is_probe_interval() {
        let (u, l) = setup(10, Some(16));
        let auth = TldAuthority::new(&u, &l);
        let plan = ProbePlan::paper_plan(SimTime::from_hours(10));
        let outcomes = plan.run_ns(&auth, &name("a.com"));
        let last_ok = outcomes.iter().rev().find(|o| o.ns != NsAnswer::NxDomain).unwrap().at;
        let first_nx = outcomes.iter().find(|o| o.ns == NsAnswer::NxDomain).unwrap().at;
        assert_eq!(first_nx.saturating_since(last_ok), PROBE_INTERVAL);
        // True death (16 h) lies inside the bracket.
        assert!(last_ok < SimTime::from_hours(16) && SimTime::from_hours(16) <= first_nx);
    }
}
