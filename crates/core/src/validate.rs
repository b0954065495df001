//! Steps 2 and 4: RDAP collection and cross-validation.
//!
//! Each candidate gets exactly one RDAP query, enqueued shortly after
//! detection (the stream-consumer lag is modelled as a log-normal delay).
//! A successful response yields the *detection latency* — the difference
//! between the certstream timestamp and the RDAP creation time, Figure 1's
//! metric — and drives the misclassification filter: a creation date
//! before the observation window means the name is not newly registered
//! at all (re-registration or SLD misextraction).

use crate::detector::NrdCandidate;
use darkdns_rdap::client::RdapClient;
use darkdns_rdap::model::{RdapError, RdapResponse};
use darkdns_rdap::server::RdapDirectory;
use darkdns_sim::dist::LogNormal;
use darkdns_sim::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;

/// A candidate with its RDAP outcome attached.
#[derive(Debug, Clone)]
pub struct ValidatedCandidate {
    pub candidate: NrdCandidate,
    pub queried_at: SimTime,
    pub rdap: Result<RdapResponse, RdapError>,
}

impl ValidatedCandidate {
    /// Detection latency: CT sighting minus RDAP creation, in seconds.
    /// `None` without a successful RDAP response. Negative deltas (clock
    /// skew between CT and registry) clamp to zero.
    pub fn detection_latency_secs(&self) -> Option<u64> {
        let resp = self.rdap.as_ref().ok()?;
        Some(self.candidate.detected_at.saturating_since(resp.created).as_secs())
    }

    /// The Step-4 misclassification filter: RDAP succeeded but the
    /// creation date predates the observation window, so the "new domain"
    /// inference was wrong.
    pub fn is_misclassified(&self, window_start: SimTime) -> bool {
        match &self.rdap {
            Ok(resp) => resp.created < window_start,
            Err(_) => false,
        }
    }
}

/// Step-2/4 runner.
pub struct Validator<'a, 'u> {
    directory: &'a mut RdapDirectory<'u>,
    client: RdapClient,
    queue_delay: LogNormal,
    rng: SmallRng,
}

impl<'a, 'u> Validator<'a, 'u> {
    pub fn new(
        directory: &'a mut RdapDirectory<'u>,
        client: RdapClient,
        queue_median_secs: f64,
        rng: SmallRng,
    ) -> Self {
        Validator {
            directory,
            client,
            queue_delay: LogNormal::from_median(queue_median_secs.max(1.0), 0.8),
            rng,
        }
    }

    /// Collect RDAP for one candidate.
    fn validate(&mut self, candidate: NrdCandidate) -> ValidatedCandidate {
        let delay = self.queue_delay.sample(&mut self.rng).min(6.0 * 3_600.0) as u64;
        let earliest = candidate.detected_at + SimDuration::from_secs(delay);
        let collection = self.client.collect(self.directory, &candidate.domain, earliest);
        ValidatedCandidate {
            candidate,
            queried_at: collection.queried_at,
            rdap: collection.outcome,
        }
    }

    /// Collect RDAP for a batch, in order.
    pub fn validate_all(&mut self, candidates: Vec<NrdCandidate>) -> Vec<ValidatedCandidate> {
        candidates.into_iter().map(|c| self.validate(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_dns::DomainName;
    use darkdns_registry::universe::DomainId;

    fn candidate(domain: &str, detected_secs: u64) -> NrdCandidate {
        NrdCandidate {
            domain: DomainName::parse(domain).unwrap(),
            record: DomainId(0),
            detected_at: SimTime::from_secs(detected_secs),
        }
    }

    fn ok_response(created_secs: u64) -> Result<RdapResponse, RdapError> {
        Ok(RdapResponse {
            domain: DomainName::parse("a.com").unwrap(),
            created: SimTime::from_secs(created_secs),
            registrar: "GoDaddy".into(),
            registrar_iana: 146,
            statuses: vec![],
        })
    }

    #[test]
    fn latency_is_ct_minus_rdap() {
        let v = ValidatedCandidate {
            candidate: candidate("a.com", 10_000),
            queried_at: SimTime::from_secs(10_100),
            rdap: ok_response(8_000),
        };
        assert_eq!(v.detection_latency_secs(), Some(2_000));
    }

    #[test]
    fn failed_rdap_has_no_latency() {
        let v = ValidatedCandidate {
            candidate: candidate("a.com", 10_000),
            queried_at: SimTime::from_secs(10_100),
            rdap: Err(RdapError::NotFound),
        };
        assert_eq!(v.detection_latency_secs(), None);
        assert!(!v.is_misclassified(SimTime::from_secs(0)));
    }

    #[test]
    fn old_creation_date_is_misclassified() {
        let window_start = SimTime::from_days(400);
        let v = ValidatedCandidate {
            candidate: candidate("a.com", 400 * 86_400 + 10_000),
            queried_at: SimTime::from_secs(400 * 86_400 + 10_100),
            rdap: ok_response(100 * 86_400),
        };
        assert!(v.is_misclassified(window_start));
    }

    #[test]
    fn day_plus_latency_is_inconsistent_but_not_misclassified() {
        let window_start = SimTime::from_secs(0);
        let v = ValidatedCandidate {
            candidate: candidate("a.com", 3 * 86_400),
            queried_at: SimTime::from_secs(3 * 86_400 + 60),
            rdap: ok_response(86_400), // detected 2 days after creation
        };
        assert!(!v.is_misclassified(window_start));
        assert_eq!(v.detection_latency_secs(), Some(2 * 86_400));
    }

    #[test]
    fn negative_delta_clamps_to_zero() {
        // CT sighting before the RDAP-reported creation (registry clock
        // ahead): clamp rather than underflow.
        let v = ValidatedCandidate {
            candidate: candidate("a.com", 1_000),
            queried_at: SimTime::from_secs(1_100),
            rdap: ok_response(1_500),
        };
        assert_eq!(v.detection_latency_secs(), Some(0));
    }
}
