//! The commercial passive-DNS NOD feed (DomainTools SIE).
//!
//! §4.4 compares one day of the paper's CT-based feed against the SIE
//! "Newly Observed Domains" feed. Passive DNS sees a domain when real
//! query traffic first touches the sensor network — a different (and
//! partially overlapping) aperture than certificate issuance. The paper's
//! measured relationship: the NOD feed held ≈5% more NRDs, the overlap was
//! ≈60%, and for transient domains the overlap dropped to 33% with NOD
//! seeing ≈10% more — i.e. the two feeds are *complementary*.
//!
//! The model: whether NOD observes a domain is correlated with certificate
//! presence (domains with TLS setup attract traffic), with separate
//! conditional probabilities for the transient population, calibrated to
//! reproduce the published overlap structure.

use darkdns_registry::universe::{CertTiming, DomainId, DomainKind, Universe};
use darkdns_sim::dist::LogNormal;
use darkdns_sim::rng::RngPool;
use darkdns_sim::time::{SimDuration, SimTime, SECS_PER_HOUR};
use rand::Rng;
use std::collections::HashMap;

/// Conditional observation probabilities.
#[derive(Debug, Clone)]
pub struct NodConfig {
    /// P(NOD observes | domain has a certificate), ordinary NRDs.
    pub p_given_cert: f64,
    /// P(NOD observes | no certificate), ordinary NRDs.
    pub p_given_no_cert: f64,
    /// Same pair for the transient population (much lower overlap, §4.4).
    pub p_transient_given_cert: f64,
    pub p_transient_given_no_cert: f64,
    /// Median seconds from zone insertion to first observed query.
    pub first_query_median_secs: f64,
    pub first_query_sigma: f64,
}

impl Default for NodConfig {
    fn default() -> Self {
        NodConfig {
            // Calibrated so NOD totals ≈ 1.05× the CT feed with ≈60%
            // overlap, and transient totals ≈ 1.1× with 33% overlap.
            p_given_cert: 0.80,
            p_given_no_cert: 0.17,
            p_transient_given_cert: 0.52,
            p_transient_given_no_cert: 0.42,
            first_query_median_secs: 1.5 * SECS_PER_HOUR as f64,
            first_query_sigma: 1.2,
        }
    }
}

/// The simulated NOD feed: domain → first observation time.
#[derive(Debug, Default)]
pub struct NodFeed {
    observations: HashMap<DomainId, SimTime>,
}

impl NodFeed {
    /// Simulate the feed over all registered domains in the window.
    /// Passive DNS cannot see a domain after it stops resolving, so an
    /// observation only lands if the sampled first-query time precedes
    /// removal.
    pub fn simulate(
        universe: &Universe,
        config: &NodConfig,
        window_start: SimTime,
        pool: &RngPool,
    ) -> Self {
        let mut rng = pool.stream("intel.nod");
        let mut observations = HashMap::new();
        let first_query =
            LogNormal::from_median(config.first_query_median_secs, config.first_query_sigma);
        for r in universe.iter() {
            if !r.kind.has_registration() || r.created < window_start {
                continue;
            }
            let has_cert = r.cert_timing != CertTiming::Never;
            let p = match (r.kind == DomainKind::Transient, has_cert) {
                (true, true) => config.p_transient_given_cert,
                (true, false) => config.p_transient_given_no_cert,
                (false, true) => config.p_given_cert,
                (false, false) => config.p_given_no_cert,
            };
            if rng.gen::<f64>() >= p {
                continue;
            }
            let at = r.zone_insert + SimDuration::from_secs(first_query.sample(&mut rng) as u64);
            let visible = match r.removed {
                Some(removed) => at < removed,
                None => true,
            };
            if visible {
                observations.insert(r.id, at);
            }
        }
        NodFeed { observations }
    }

    pub fn len(&self) -> usize {
        self.observations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    pub fn observed(&self, id: DomainId) -> bool {
        self.observations.contains_key(&id)
    }

    pub fn iter(&self) -> impl Iterator<Item = (DomainId, SimTime)> + '_ {
        self.observations.iter().map(|(&id, &t)| (id, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_registry::hosting::HostingLandscape;
    use darkdns_registry::registrar::RegistrarFleet;
    use darkdns_registry::czds::SnapshotSchedule;
    use darkdns_registry::tld::paper_gtlds;
    use darkdns_registry::workload::{UniverseBuilder, WorkloadConfig};

    fn build_universe() -> (Universe, SimTime) {
        let tlds = paper_gtlds();
        let fleet = RegistrarFleet::paper_fleet();
        let hosting = HostingLandscape::paper_landscape();
        let config = WorkloadConfig {
            scale: 0.02,
            window_days: 12,
            base_population_frac: 0.01,
            ..WorkloadConfig::default()
        };
        let pool = RngPool::new(6);
        let schedule = SnapshotSchedule::new(&pool, &tlds, config.window_start, config.window_days);
        let builder = UniverseBuilder { tlds: &tlds, fleet: &fleet, hosting: &hosting, schedule: &schedule, config: config.clone() };
        (builder.build(&pool), config.window_start)
    }

    #[test]
    fn feed_size_is_comparable_to_cert_population() {
        let (u, start) = build_universe();
        let feed = NodFeed::simulate(&u, &NodConfig::default(), start, &RngPool::new(1));
        let cert_count = u
            .iter()
            .filter(|r| {
                r.kind.has_registration()
                    && r.created >= start
                    && r.cert_timing != CertTiming::Never
            })
            .count();
        let ratio = feed.len() as f64 / cert_count as f64;
        // NOD sees ≈5% more than the CT method overall; generous band.
        assert!((0.8..1.4).contains(&ratio), "NOD/CT ratio {ratio}");
    }

    #[test]
    fn overlap_is_partial_not_total() {
        let (u, start) = build_universe();
        let feed = NodFeed::simulate(&u, &NodConfig::default(), start, &RngPool::new(2));
        let (mut both, mut ct_only, mut nod_only) = (0usize, 0usize, 0usize);
        for r in u.iter().filter(|r| r.kind.has_registration() && r.created >= start) {
            let ct = r.cert_timing != CertTiming::Never;
            let nod = feed.observed(r.id);
            match (ct, nod) {
                (true, true) => both += 1,
                (true, false) => ct_only += 1,
                (false, true) => nod_only += 1,
                _ => {}
            }
        }
        assert!(both > 0 && ct_only > 0 && nod_only > 0, "degenerate overlap: {both}/{ct_only}/{nod_only}");
        let union = both + ct_only + nod_only;
        let overlap = both as f64 / union as f64;
        assert!((0.35..0.75).contains(&overlap), "overlap {overlap}");
    }

    #[test]
    fn observations_never_postdate_removal() {
        let (u, start) = build_universe();
        let feed = NodFeed::simulate(&u, &NodConfig::default(), start, &RngPool::new(3));
        for (id, at) in feed.iter() {
            let r = u.get(id);
            if let Some(removed) = r.removed {
                assert!(at < removed, "{} observed after removal", r.name);
            }
        }
    }

    #[test]
    fn ghosts_are_never_observed() {
        let (u, start) = build_universe();
        let feed = NodFeed::simulate(&u, &NodConfig::default(), start, &RngPool::new(4));
        for r in u.iter().filter(|r| !r.kind.has_registration()) {
            assert!(!feed.observed(r.id), "ghost {} in NOD feed", r.name);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let (u, start) = build_universe();
        let a = NodFeed::simulate(&u, &NodConfig::default(), start, &RngPool::new(5));
        let b = NodFeed::simulate(&u, &NodConfig::default(), start, &RngPool::new(5));
        assert_eq!(a.len(), b.len());
        for (id, t) in a.iter() {
            assert_eq!(b.observations.get(&id), Some(&t));
        }
    }
}
