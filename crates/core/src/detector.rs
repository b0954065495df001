//! Step 1: infer newly registered domains from the certificate stream.
//!
//! For every precertificate entry, extract the registrable ("pay-level")
//! domain of each CN/SAN name via the Public Suffix List, and keep the
//! name iff it is *absent* from the zone view at that instant. Each
//! registrable domain is reported once, at its first CT appearance.
//!
//! The detector is generic over the zone view
//! ([`crate::membership::ZoneMembership`]): the paper's batch pipeline
//! runs it against the daily-snapshot oracle
//! ([`crate::membership::OracleMembership`]); streaming deployments run
//! the *same* detector against a push-fed view — in-process
//! ([`crate::broker_view::BrokerZoneView`]), over a socket
//! ([`crate::broker_view::RemoteZoneView`]), or the direct ground-truth
//! reference (`darkdns_registry::live::UniverseZoneView`). Identical
//! inputs through the push-cadence backends yield identical candidate
//! sets (`tests/membership_equivalence.rs`).

use crate::membership::ZoneMembership;
use darkdns_ct::stream::CertStreamEntry;
use darkdns_dns::hash::NameSet;
use darkdns_dns::{DomainName, PublicSuffixList};
use darkdns_registry::universe::{DomainId, Universe};
use darkdns_sim::time::SimTime;

/// A domain the pipeline believes to be newly registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NrdCandidate {
    pub domain: DomainName,
    /// Ground-truth backlink (resolution of the name against the
    /// registry; the pipeline itself only ever uses `domain` and
    /// `detected_at`).
    pub record: DomainId,
    /// Certstream-reported timestamp of the first sighting.
    pub detected_at: SimTime,
}

/// Statistics for the discard path (useful for sanity checks and the
/// pipeline-throughput bench).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DetectorStats {
    pub entries_seen: u64,
    pub names_seen: u64,
    pub discarded_in_zone: u64,
    pub discarded_duplicate: u64,
    pub discarded_unresolvable: u64,
    pub discarded_no_baseline: u64,
    pub candidates: u64,
}

/// The Step-1 detector, generic over where its zone view comes from.
pub struct Detector<'a, M: ZoneMembership> {
    psl: &'a PublicSuffixList,
    universe: &'a Universe,
    membership: M,
    seen: NameSet<DomainName>,
    stats: DetectorStats,
}

impl<'a, M: ZoneMembership> Detector<'a, M> {
    pub fn new(psl: &'a PublicSuffixList, universe: &'a Universe, membership: M) -> Self {
        Detector { psl, universe, membership, seen: NameSet::default(), stats: DetectorStats::default() }
    }

    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Mutable access to the zone view — harnesses use this to drive a
    /// push-fed backend (publish / pump / sync) between observations.
    pub fn membership_mut(&mut self) -> &mut M {
        &mut self.membership
    }

    /// Process one certstream entry, returning any new NRD candidates.
    /// The zone view is advanced to the entry's timestamp first, so
    /// membership answers are as fresh as the backend can be at that
    /// instant.
    pub fn observe(&mut self, entry: &CertStreamEntry) -> Vec<NrdCandidate> {
        self.stats.entries_seen += 1;
        self.membership.advance_to(entry.at);
        let mut out = Vec::new();
        for name in &entry.names {
            self.stats.names_seen += 1;
            let Some(registrable) = self.psl.registrable_domain(name) else {
                self.stats.discarded_unresolvable += 1;
                continue;
            };
            if self.seen.contains(&registrable) {
                self.stats.discarded_duplicate += 1;
                continue;
            }
            // Resolve the name against the registry's namespace. In the
            // real pipeline this resolution is implicit (the name *is* the
            // identity); here the universe is the namespace.
            let Some(record) = self.universe.lookup(&registrable) else {
                self.stats.discarded_unresolvable += 1;
                continue;
            };
            if !self.membership.baseline_ready(record.tld) {
                // No baseline for this TLD yet: "absent from the view"
                // is not assessable, so the name is not a candidate. (Do
                // not mark it seen — once the baseline lands a later
                // certificate can still qualify.)
                self.stats.discarded_no_baseline += 1;
                continue;
            }
            if self.membership.contains_record(record) {
                self.stats.discarded_in_zone += 1;
                // Cache the verdict: later certificates for this name
                // (renewals) would be discarded again anyway.
                self.seen.insert(registrable);
                continue;
            }
            self.seen.insert(registrable.clone());
            self.stats.candidates += 1;
            out.push(NrdCandidate { domain: registrable, record: record.id, detected_at: entry.at });
        }
        out
    }

    /// Run over a whole stream, collecting all candidates.
    pub fn run(&mut self, entries: &[CertStreamEntry]) -> Vec<NrdCandidate> {
        let mut out = Vec::new();
        for e in entries {
            out.extend(self.observe(e));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::OracleMembership;
    use darkdns_ct::ca::CaFleet;
    use darkdns_ct::stream::CertStream;
    use darkdns_registry::czds::{SnapshotOracle, SnapshotSchedule};
    use darkdns_registry::hosting::HostingLandscape;
    use darkdns_registry::registrar::RegistrarFleet;
    use darkdns_registry::tld::paper_gtlds;
    use darkdns_registry::universe::DomainKind;
    use darkdns_registry::workload::{UniverseBuilder, WorkloadConfig};
    use darkdns_sim::rng::RngPool;

    struct Fixture {
        universe: Universe,
        schedule: SnapshotSchedule,
        stream: CertStream,
        psl: PublicSuffixList,
    }

    fn fixture(seed: u64) -> Fixture {
        let tlds = paper_gtlds();
        let fleet = RegistrarFleet::paper_fleet();
        let hosting = HostingLandscape::paper_landscape();
        let config = WorkloadConfig {
            scale: 0.004,
            window_days: 10,
            base_population_frac: 0.05,
            ..WorkloadConfig::default()
        };
        let pool = RngPool::new(seed);
        let schedule = SnapshotSchedule::new(&pool, &tlds, config.window_start, config.window_days);
        let builder = UniverseBuilder { tlds: &tlds, fleet: &fleet, hosting: &hosting, schedule: &schedule, config };
        let universe = builder.build(&pool);
        let (stream, _) = CertStream::build(&universe, &schedule, &CaFleet::paper_fleet(), &pool);
        Fixture { universe, schedule, stream, psl: PublicSuffixList::builtin() }
    }

    #[test]
    fn detects_fresh_registrations_not_renewals() {
        let f = fixture(1);
        let oracle = SnapshotOracle::new(&f.schedule);
        let mut detector =
            Detector::new(&f.psl, &f.universe, OracleMembership::new(&oracle, &f.universe));
        let candidates = detector.run(f.stream.entries());
        assert!(!candidates.is_empty());
        let stats = detector.stats();
        assert!(stats.discarded_in_zone > 0, "no renewal was discarded: {stats:?}");
        // Base-population renewals must never appear as candidates.
        for c in &candidates {
            let r = f.universe.get(c.record);
            assert!(
                r.created >= f.schedule.window_start()
                    || !r.kind.has_registration()
                    || r.kind == DomainKind::ReRegistered,
                "pre-window live domain {} detected as NRD",
                r.name
            );
        }
    }

    #[test]
    fn dedupes_repeat_sightings() {
        let f = fixture(2);
        let oracle = SnapshotOracle::new(&f.schedule);
        let mut detector =
            Detector::new(&f.psl, &f.universe, OracleMembership::new(&oracle, &f.universe));
        let candidates = detector.run(f.stream.entries());
        let mut seen = std::collections::HashSet::new();
        for c in &candidates {
            assert!(seen.insert(c.domain.clone()), "{} reported twice", c.domain);
        }
        // www/mail SANs collapse onto the registrable domain.
        assert!(detector.stats().discarded_duplicate > 0);
    }

    #[test]
    fn transients_and_ghosts_become_candidates() {
        let f = fixture(3);
        let oracle = SnapshotOracle::new(&f.schedule);
        let mut detector =
            Detector::new(&f.psl, &f.universe, OracleMembership::new(&oracle, &f.universe));
        let candidates = detector.run(f.stream.entries());
        let kinds: Vec<DomainKind> =
            candidates.iter().map(|c| f.universe.get(c.record).kind).collect();
        assert!(kinds.iter().any(|k| *k == DomainKind::Transient), "no transient candidates");
        assert!(
            kinds.iter().any(|k| matches!(k, DomainKind::Ghost { .. })),
            "no ghost candidates"
        );
        assert!(kinds.iter().any(|k| *k == DomainKind::LongLived), "no ordinary NRD candidates");
    }

    #[test]
    fn detection_precedes_snapshot_membership() {
        // Every candidate was detected at a moment when the latest
        // available snapshot did not contain it (tautological from the
        // implementation, but this pins the invariant against refactors).
        let f = fixture(4);
        let oracle = SnapshotOracle::new(&f.schedule);
        let mut detector =
            Detector::new(&f.psl, &f.universe, OracleMembership::new(&oracle, &f.universe));
        for c in detector.run(f.stream.entries()) {
            let r = f.universe.get(c.record);
            assert!(!oracle.in_latest_available(r, c.detected_at));
        }
    }

    #[test]
    fn coverage_is_roughly_calibrated() {
        // The fraction of window NRDs detected should land near the
        // aggregate Table-1 coverage (42%), within a generous band.
        let f = fixture(5);
        let oracle = SnapshotOracle::new(&f.schedule);
        let mut detector =
            Detector::new(&f.psl, &f.universe, OracleMembership::new(&oracle, &f.universe));
        let candidates = detector.run(f.stream.entries());
        let start = f.schedule.window_start();
        let nrd_total = f.universe.count_where(|r| {
            matches!(r.kind, DomainKind::LongLived | DomainKind::EarlyRemoved) && r.created >= start
        });
        let nrd_detected = candidates
            .iter()
            .filter(|c| {
                let r = f.universe.get(c.record);
                matches!(r.kind, DomainKind::LongLived | DomainKind::EarlyRemoved)
            })
            .count();
        let coverage = nrd_detected as f64 / nrd_total as f64;
        assert!((0.30..0.55).contains(&coverage), "coverage {coverage}");
    }

    #[test]
    fn live_view_detector_runs_against_ground_truth() {
        // The same detector, compiled against the push-cadence direct
        // view: more NRDs are discarded as in-zone (push freshness beats
        // daily snapshots) and no candidate is ever view-resident at its
        // detection instant.
        use darkdns_registry::live::UniverseZoneView;
        use darkdns_registry::tld::TldId;
        use darkdns_sim::time::SimDuration;

        let f = fixture(6);
        let tld_ids: Vec<TldId> = (0..paper_gtlds().len() as u16).map(TldId).collect();
        let anchor = f.schedule.window_start();
        let view = UniverseZoneView::new(
            &f.universe,
            &tld_ids,
            anchor,
            SimDuration::from_minutes(5),
        );
        let mut detector = Detector::new(&f.psl, &f.universe, view);
        let entries: Vec<_> =
            f.stream.entries().iter().filter(|e| e.at >= anchor).cloned().collect();
        let candidates = detector.run(&entries);
        let stats = detector.stats();
        assert!(!candidates.is_empty());
        assert!(stats.discarded_in_zone > 0, "renewals must be view-resident: {stats:?}");
        assert_eq!(stats.candidates as usize, candidates.len());
        assert_eq!(
            stats.names_seen,
            stats.candidates
                + stats.discarded_in_zone
                + stats.discarded_duplicate
                + stats.discarded_unresolvable
                + stats.discarded_no_baseline
        );
        assert!(detector.membership_mut().sync_state().is_ready());
        // The live view also surfaces the zone-NRD log.
        let mut nrds = Vec::new();
        detector.membership_mut().drain_new_domains(&mut nrds);
        assert!(!nrds.is_empty());
    }
}
