//! SOA-serial cadence probing (§4.1's validation experiment).
//!
//! The paper explains Figure 1's per-TLD spread by zone-update cadence —
//! `.com`/`.net` push every ~60 s, other gTLDs every 15-30 min — and
//! *validates* that explanation "by probing the zones ... for SOA serial
//! changes, and found consistent timestamps". This module reproduces that
//! experiment end to end: it polls each TLD's SOA over the RFC 1035 wire
//! codec (encode → authoritative answer → decode), records when the
//! serial changes, and infers the push cadence from the observed change
//! instants.
//!
//! The simulated registry bumps its zone serial once per push batch:
//! the zone state exposed here advances the serial on the TLD's
//! `zone_update_interval` grid, so the inference below recovers exactly
//! the configured cadence — which is the consistency check the paper ran.

use darkdns_dns::record::SoaData;
use darkdns_dns::wire::{Header, Message, Rcode};
use darkdns_dns::{RData, RecordType, ResourceRecord, Serial};
use darkdns_registry::tld::TldConfig;
use darkdns_sim::time::{SimDuration, SimTime};

/// A simulated TLD SOA front-end: answers SOA queries with a serial that
/// advances once per zone push.
pub struct SoaAuthority<'a> {
    tld: &'a TldConfig,
    /// Grid anchor for pushes (the registry's epoch).
    anchor: SimTime,
    base_serial: Serial,
}

impl<'a> SoaAuthority<'a> {
    fn new(tld: &'a TldConfig, anchor: SimTime, base_serial: Serial) -> Self {
        SoaAuthority { tld, anchor, base_serial }
    }

    /// Serial visible at `now`: base + completed pushes.
    fn serial_at(&self, now: SimTime) -> Serial {
        let cadence = self.tld.zone_update_interval.as_secs().max(1);
        let pushes = now.saturating_since(self.anchor).as_secs() / cadence;
        // RFC 1982 addition handles the wrap; pushes stay far below 2^31
        // within any experiment horizon.
        self.base_serial.add((pushes % (1 << 30)) as u32)
    }

    /// Answer one SOA query **on the wire**: the query is encoded, the
    /// response built and encoded, and both sides round-trip the codec —
    /// this is what keeps the wire implementation honest under use.
    fn query_soa_wire(&self, query_bytes: &[u8], now: SimTime) -> Result<Vec<u8>, String> {
        let query = Message::decode(query_bytes).map_err(|e| e.to_string())?;
        let question = query.questions.first().ok_or("no question")?;
        if question.qtype != RecordType::Soa {
            return Err("not an SOA query".into());
        }
        let origin = self.tld.domain();
        let mut response = query.clone();
        response.header = Header::response_to(&query.header, Rcode::NoError);
        response.header.authoritative = true;
        response.answers = vec![ResourceRecord::new(
            origin.clone(),
            900,
            RData::Soa(SoaData {
                mname: origin.child("ns0").expect("valid"),
                rname: origin.child("hostmaster").expect("valid"),
                serial: self.serial_at(now).get(),
                refresh: 1_800,
                retry: 900,
                expire: 604_800,
                minimum: 86_400,
            }),
        )];
        Ok(response.encode())
    }
}

/// One observed serial change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerialChange {
    pub at: SimTime,
    pub from: Serial,
    pub to: Serial,
}

/// Result of a cadence-probing session against one TLD.
#[derive(Debug, Clone)]
pub struct CadenceEstimate {
    pub tld: String,
    pub observed_changes: Vec<SerialChange>,
    /// Median gap between successive observed changes, seconds.
    pub estimated_cadence_secs: u64,
    /// The ground-truth configured cadence, for the consistency check.
    pub configured_cadence_secs: u64,
}

impl CadenceEstimate {
    /// The paper's "found consistent timestamps" check: the estimate is
    /// within one poll interval of the configured cadence.
    pub fn is_consistent(&self, poll_interval: SimDuration) -> bool {
        let diff = self.estimated_cadence_secs.abs_diff(self.configured_cadence_secs);
        diff <= poll_interval.as_secs()
    }
}

/// Poll `tld`'s SOA every `poll_interval` for `duration` and estimate the
/// push cadence from serial-change gaps.
pub fn probe_cadence(
    tld: &TldConfig,
    anchor: SimTime,
    start: SimTime,
    poll_interval: SimDuration,
    duration: SimDuration,
) -> CadenceEstimate {
    let authority = SoaAuthority::new(tld, anchor, Serial::new(1_000_000));
    let origin = tld.domain();
    let mut observed_changes = Vec::new();
    let mut last_serial: Option<Serial> = None;
    let mut at = start;
    let end = start + duration;
    let mut txid: u16 = 1;
    while at <= end {
        let query = Message::query(txid, origin.clone(), RecordType::Soa);
        txid = txid.wrapping_add(1);
        let response_bytes = authority
            .query_soa_wire(&query.encode(), at)
            .expect("well-formed SOA query");
        let response = Message::decode(&response_bytes).expect("well-formed SOA response");
        let serial = match &response.answers[0].rdata {
            RData::Soa(soa) => Serial::new(soa.serial),
            other => unreachable!("SOA answer expected, got {other:?}"),
        };
        if let Some(prev) = last_serial {
            if serial != prev {
                assert!(serial.is_newer_than(prev), "serials must move forward");
                observed_changes.push(SerialChange { at, from: prev, to: serial });
            }
        }
        last_serial = Some(serial);
        at += poll_interval;
    }
    // Median gap between change observations. Where several pushes happen
    // between two polls (cadence < poll interval), the serial jumps by >1
    // and the per-observation gap underestimates nothing: divide the gap
    // by the number of pushes it covers.
    let mut gaps: Vec<u64> = observed_changes
        .windows(2)
        .map(|w| {
            let gap = w[1].at.saturating_since(w[0].at).as_secs();
            let pushes = w[1].to.distance_from(w[1].from).max(1);
            gap / u64::from(pushes)
        })
        .collect();
    gaps.sort_unstable();
    let estimated = gaps.get(gaps.len() / 2).copied().unwrap_or(0);
    CadenceEstimate {
        tld: tld.name.clone(),
        observed_changes,
        estimated_cadence_secs: estimated,
        configured_cadence_secs: tld.zone_update_interval.as_secs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_registry::tld::paper_gtlds;

    #[test]
    fn serial_advances_on_the_push_grid() {
        let tlds = paper_gtlds();
        let com = &tlds[0]; // 60 s cadence
        let auth = SoaAuthority::new(com, SimTime::ZERO, Serial::new(100));
        let s0 = auth.serial_at(SimTime::from_secs(59));
        let s1 = auth.serial_at(SimTime::from_secs(60));
        let s2 = auth.serial_at(SimTime::from_secs(3_600));
        assert_eq!(s0, Serial::new(100));
        assert_eq!(s1, Serial::new(101));
        assert_eq!(s2, Serial::new(160));
    }

    #[test]
    fn wire_round_trip_carries_the_serial() {
        let tlds = paper_gtlds();
        let com = &tlds[0];
        let auth = SoaAuthority::new(com, SimTime::ZERO, Serial::new(5));
        let query = Message::query(9, com.domain(), RecordType::Soa);
        let resp = auth.query_soa_wire(&query.encode(), SimTime::from_secs(120)).unwrap();
        let decoded = Message::decode(&resp).unwrap();
        assert!(decoded.header.authoritative);
        assert_eq!(decoded.header.id, 9);
        match &decoded.answers[0].rdata {
            RData::Soa(soa) => assert_eq!(soa.serial, 7), // 5 + 2 pushes
            other => panic!("expected SOA, got {other:?}"),
        }
    }

    #[test]
    fn non_soa_queries_are_rejected() {
        let tlds = paper_gtlds();
        let auth = SoaAuthority::new(&tlds[0], SimTime::ZERO, Serial::new(5));
        let query = Message::query(9, tlds[0].domain(), RecordType::Ns);
        assert!(auth.query_soa_wire(&query.encode(), SimTime::ZERO).is_err());
    }

    #[test]
    fn cadence_inference_recovers_slow_tld_config() {
        let tlds = paper_gtlds();
        // xyz: 900 s cadence; poll every 60 s for 12 h.
        let xyz = tlds.iter().find(|t| t.name == "xyz").unwrap();
        let est = probe_cadence(
            xyz,
            SimTime::ZERO,
            SimTime::from_hours(1),
            SimDuration::from_secs(60),
            SimDuration::from_hours(12),
        );
        assert!(est.is_consistent(SimDuration::from_secs(60)), "estimate {est:?}");
        assert!(!est.observed_changes.is_empty());
    }

    #[test]
    fn cadence_inference_recovers_fast_tld_config() {
        let tlds = paper_gtlds();
        // com: 60 s cadence probed at 30 s.
        let com = &tlds[0];
        let est = probe_cadence(
            com,
            SimTime::ZERO,
            SimTime::from_hours(1),
            SimDuration::from_secs(30),
            SimDuration::from_hours(2),
        );
        assert!(est.is_consistent(SimDuration::from_secs(30)), "estimate {est:?}");
        assert_eq!(est.configured_cadence_secs, 60);
    }

    #[test]
    fn undersampled_probing_still_estimates_via_serial_jumps() {
        let tlds = paper_gtlds();
        // Poll com (60 s pushes) only every 5 minutes: serials jump by 5
        // per observation, and the jump-aware estimator still recovers
        // ~60 s.
        let com = &tlds[0];
        let est = probe_cadence(
            com,
            SimTime::ZERO,
            SimTime::from_hours(1),
            SimDuration::from_minutes(5),
            SimDuration::from_hours(6),
        );
        assert!(
            est.estimated_cadence_secs.abs_diff(60) <= 10,
            "jump-aware estimate off: {}",
            est.estimated_cadence_secs
        );
    }
}
