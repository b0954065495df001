//! The RDAP collection client.
//!
//! The paper's collector ran as Azure functions cycling over distinct
//! egress IPs, rate-limited itself to ~1 query/second overall, and never
//! retried failures. The client reproduces those policies: queries are
//! spread round-robin over `workers` source IPs, spaced by a minimum
//! inter-query gap per worker, and each candidate is attempted exactly
//! once.

use crate::model::RdapOutcome;
use crate::server::RdapDirectory;
use darkdns_dns::DomainName;
use darkdns_sim::time::{SimDuration, SimTime};

/// A collected (query time, outcome) pair.
#[derive(Debug, Clone)]
pub struct Collection {
    pub queried_at: SimTime,
    pub worker: u16,
    pub outcome: RdapOutcome,
}

/// The worker-pool client.
#[derive(Debug, Clone)]
pub struct RdapClient {
    workers: u16,
    /// Earliest next send per worker (self rate limiting).
    next_free: Vec<SimTime>,
    /// Minimum gap between queries on one worker.
    min_gap: SimDuration,
    round_robin: u16,
}

impl RdapClient {
    /// # Panics
    /// Panics if `workers == 0`.
    fn new(workers: u16, min_gap: SimDuration) -> Self {
        assert!(workers > 0, "need at least one worker");
        RdapClient {
            workers,
            next_free: vec![SimTime::ZERO; workers as usize],
            min_gap,
            round_robin: 0,
        }
    }

    /// The paper's deployment: four workers, one query per second overall
    /// (i.e. a 4-second gap per worker).
    pub fn paper_client() -> Self {
        RdapClient::new(4, SimDuration::from_secs(4))
    }

    /// Issue one query for `name`, not before `earliest`. The actual send
    /// time respects the per-worker pacing; no retries are attempted.
    pub fn collect(
        &mut self,
        directory: &mut RdapDirectory<'_>,
        name: &DomainName,
        earliest: SimTime,
    ) -> Collection {
        let worker = self.round_robin % self.workers;
        self.round_robin = self.round_robin.wrapping_add(1);
        let slot = &mut self.next_free[worker as usize];
        let send_at = if *slot > earliest { *slot } else { earliest };
        *slot = send_at + self.min_gap;
        let outcome = directory.query(name, worker, send_at);
        Collection { queried_at: send_at, worker, outcome }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RdapConfig;
    use darkdns_registry::hosting::ProviderId;
    use darkdns_registry::registrar::{RegistrarFleet, RegistrarId};
    use darkdns_registry::tld::TldId;
    use darkdns_registry::universe::{CertTiming, DomainId, DomainKind, DomainRecord, Universe};
    use darkdns_sim::rng::RngPool;

    fn universe_with(names: &[&str]) -> Universe {
        let mut u = Universe::new();
        for n in names {
            u.push(DomainRecord {
                id: DomainId(0),
                name: DomainName::parse(n).unwrap(),
                tld: TldId(0),
                kind: DomainKind::LongLived,
                created: SimTime::from_days(1),
                zone_insert: SimTime::from_days(1),
                removed: None,
                registrar: RegistrarId(0),
                dns_provider: ProviderId(0),
                web_asn: 13_335,
                cert_timing: CertTiming::Prompt,
                cert_hint: None,
                ns_change_at: None,
                malicious: false,
            });
        }
        u
    }

    #[test]
    fn queries_rotate_workers() {
        let u = universe_with(&["a.com", "b.com", "c.com", "d.com", "e.com"]);
        let fleet = RegistrarFleet::paper_fleet();
        let mut dir = RdapDirectory::new(&u, &fleet, RdapConfig::default(), &RngPool::new(1));
        let mut client = RdapClient::new(4, SimDuration::from_secs(4));
        let t = SimTime::from_days(2);
        let workers: Vec<u16> = ["a.com", "b.com", "c.com", "d.com", "e.com"]
            .iter()
            .map(|n| client.collect(&mut dir, &DomainName::parse(n).unwrap(), t).worker)
            .collect();
        assert_eq!(workers, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn pacing_spaces_queries_per_worker() {
        let u = universe_with(&["a.com"]);
        let fleet = RegistrarFleet::paper_fleet();
        let mut dir = RdapDirectory::new(&u, &fleet, RdapConfig::default(), &RngPool::new(2));
        let mut client = RdapClient::new(1, SimDuration::from_secs(10));
        let t = SimTime::from_days(2);
        let name = DomainName::parse("a.com").unwrap();
        let c1 = client.collect(&mut dir, &name, t);
        let c2 = client.collect(&mut dir, &name, t);
        let c3 = client.collect(&mut dir, &name, t);
        assert_eq!(c1.queried_at, t);
        assert_eq!(c2.queried_at, t + SimDuration::from_secs(10));
        assert_eq!(c3.queried_at, t + SimDuration::from_secs(20));
    }

    #[test]
    fn earliest_bound_is_respected() {
        let u = universe_with(&["a.com"]);
        let fleet = RegistrarFleet::paper_fleet();
        let mut dir = RdapDirectory::new(&u, &fleet, RdapConfig::default(), &RngPool::new(3));
        let mut client = RdapClient::paper_client();
        let name = DomainName::parse("a.com").unwrap();
        let c = client.collect(&mut dir, &name, SimTime::from_days(3));
        assert!(c.queried_at >= SimTime::from_days(3));
        assert_eq!(client.workers, 4);
    }

    #[test]
    fn collection_outcome_reaches_caller() {
        let u = universe_with(&["a.com"]);
        let fleet = RegistrarFleet::paper_fleet();
        let mut dir = RdapDirectory::new(&u, &fleet, RdapConfig::default(), &RngPool::new(4));
        let mut client = RdapClient::paper_client();
        let hit = client.collect(&mut dir, &DomainName::parse("a.com").unwrap(), SimTime::from_days(2));
        let miss = client.collect(&mut dir, &DomainName::parse("nope.com").unwrap(), SimTime::from_days(2));
        assert!(hit.outcome.is_ok());
        assert!(miss.outcome.is_err());
    }
}
