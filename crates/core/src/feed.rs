//! The public NRD feed's record format.
//!
//! The paper releases a public "zonestream" feed of newly registered
//! domains (reference 33 of the paper). A run's feed is read off its
//! artifacts — [`crate::experiment::RunArtifacts::zonestream`] — one
//! record per validated candidate, in detection order.

use darkdns_dns::DomainName;
use darkdns_sim::time::SimTime;
use serde::Serialize;

/// One record on the public newly-registered-domain feed ("zonestream").
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NrdFeedRecord {
    pub domain: DomainName,
    /// When the pipeline first saw the name in CT.
    pub detected_at: SimTime,
    /// RDAP-reported creation time, when collection succeeded.
    pub rdap_created: Option<SimTime>,
    /// Sponsoring registrar, when known.
    pub registrar: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_record_serializes() {
        let rec = NrdFeedRecord {
            domain: DomainName::parse("example.com").unwrap(),
            detected_at: SimTime::from_secs(100),
            rdap_created: Some(SimTime::from_secs(40)),
            registrar: Some("GoDaddy".into()),
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("example.com"));
        assert!(json.contains("GoDaddy"));
    }
}
