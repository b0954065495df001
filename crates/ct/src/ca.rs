//! The certificate-authority fleet.
//!
//! Two CA behaviours shape the paper's data:
//!
//! 1. **Issuance latency** — a domain can only pass Domain Validation once
//!    it is resolvable, i.e. after its TLD zone push; the CA then takes
//!    minutes to issue and log the precertificate. Per-CA log-normal
//!    latency plus the TLD cadence produces Figure 1's per-TLD curves.
//! 2. **DV-token reuse** — CA/Browser-Forum rules (§4.2.1) allow a CA to
//!    reuse cached validation material for up to 398 days. A CA holding a
//!    token may therefore issue for a domain that has since been deleted —
//!    the mechanism behind ghost certificates.

use crate::cert::CaId;
use darkdns_sim::dist::LogNormal;
use darkdns_sim::time::SimDuration;
use rand::Rng;
use serde::Serialize;

/// One CA's issuance profile.
#[derive(Debug, Clone, Serialize)]
pub struct CaProfile {
    pub id: CaId,
    pub name: String,
    /// Median seconds from "domain resolvable" to "precert logged".
    pub latency_median_secs: f64,
    pub latency_sigma: f64,
    /// Whether this CA reuses cached DV tokens (all three CAs the paper
    /// contacted — GlobalSign, Sectigo, Cloudflare — confirmed they do).
    pub reuses_dv_tokens: bool,
}

impl CaProfile {
    fn latency(&self) -> LogNormal {
        LogNormal::from_median(self.latency_median_secs, self.latency_sigma)
    }

    /// Sample the delay from resolvability to precert logging.
    pub fn sample_latency<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        SimDuration::from_secs(self.latency().sample(rng).clamp(5.0, 6.0 * 3_600.0) as u64)
    }
}

/// The CA population with issuance-share weights.
#[derive(Debug, Clone)]
pub struct CaFleet {
    profiles: Vec<CaProfile>,
    shares: darkdns_sim::dist::WeightedIndex,
}

impl CaFleet {
    /// A plausible fleet: one dominant automated CA (Let's-Encrypt-like,
    /// fast), a CDN-integrated CA, and two slower enterprise CAs.
    pub fn paper_fleet() -> Self {
        let profiles = vec![
            CaProfile {
                id: CaId(0),
                name: "AutoCert".to_owned(),
                latency_median_secs: 18.0 * 60.0,
                latency_sigma: 1.1,
                reuses_dv_tokens: true,
            },
            CaProfile {
                id: CaId(1),
                name: "EdgeTrust".to_owned(),
                latency_median_secs: 35.0 * 60.0,
                latency_sigma: 1.2,
                reuses_dv_tokens: true,
            },
            CaProfile {
                id: CaId(2),
                name: "GlobalSecure".to_owned(),
                latency_median_secs: 80.0 * 60.0,
                latency_sigma: 1.3,
                reuses_dv_tokens: true,
            },
            CaProfile {
                id: CaId(3),
                name: "LegacyTrust".to_owned(),
                latency_median_secs: 170.0 * 60.0,
                latency_sigma: 1.4,
                reuses_dv_tokens: false,
            },
        ];
        let shares = darkdns_sim::dist::WeightedIndex::new(&[55.0, 20.0, 15.0, 10.0]);
        CaFleet { profiles, shares }
    }

    /// Sample the issuing CA for a new certificate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &CaProfile {
        &self.profiles[self.shares.sample(rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fleet_shape() {
        let fleet = CaFleet::paper_fleet();
        assert_eq!(fleet.profiles.len(), 4);
        assert!(fleet.profiles.iter().enumerate().all(|(i, ca)| ca.id == CaId(i as u16)));
        assert!(fleet.profiles[0].reuses_dv_tokens);
        assert!(!fleet.profiles[3].reuses_dv_tokens);
    }

    #[test]
    fn latency_is_bounded_and_plausible() {
        let fleet = CaFleet::paper_fleet();
        let mut rng = SmallRng::seed_from_u64(1);
        for ca in &fleet.profiles {
            let mut total = 0u64;
            for _ in 0..2_000 {
                let l = ca.sample_latency(&mut rng).as_secs();
                assert!((5..=21_600).contains(&l));
                total += l;
            }
            let mean = total as f64 / 2_000.0;
            assert!(mean > 60.0, "{}: mean latency {mean} too low", ca.name);
        }
    }

    #[test]
    fn fast_ca_is_sampled_most() {
        let fleet = CaFleet::paper_fleet();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0u32; 4];
        for _ in 0..10_000 {
            counts[fleet.sample(&mut rng).id.0 as usize] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
    }

    #[test]
    fn median_latency_ordering_matches_profiles() {
        let fleet = CaFleet::paper_fleet();
        let mut rng = SmallRng::seed_from_u64(4);
        let median = |ca: &CaProfile, rng: &mut SmallRng| {
            let mut v: Vec<u64> = (0..4_001).map(|_| ca.sample_latency(rng).as_secs()).collect();
            v.sort_unstable();
            v[2_000]
        };
        let m0 = median(&fleet.profiles[0], &mut rng);
        let m3 = median(&fleet.profiles[3], &mut rng);
        assert!(m0 < m3, "fast CA median {m0} should beat slow CA {m3}");
    }
}
