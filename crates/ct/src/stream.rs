//! The certificate stream — the simulation's Certstream.
//!
//! Builds the time-ordered feed of precertificate entries implied by the
//! registry universe and the CA fleet's behaviour:
//!
//! * ordinary registrations with prompt certificates are validated once
//!   resolvable (after the TLD zone push) and logged after the CA's
//!   issuance latency;
//! * certificates racing a transient domain's removal are only issued if
//!   validation completes before the delegation disappears;
//! * ghost and re-registered names are issued on cached DV tokens at their
//!   scheduled (hinted) instants, with no liveness requirement;
//! * base-population renewals are issued at hinted instants (and are the
//!   bulk of a real Certstream — noise the pipeline must discard).

use crate::ca::CaFleet;
use crate::cert::Certificate;
use crate::log::CtLog;
use darkdns_dns::DomainName;
use darkdns_registry::universe::{CertTiming, DomainId, Universe};
use darkdns_registry::czds::SnapshotSchedule;
use darkdns_sim::rng::RngPool;
use darkdns_sim::time::{SimDuration, SimTime, SECS_PER_DAY};
use rand::Rng;

/// One streamed precertificate entry, as the pipeline sees it, plus the
/// ground-truth backlink used only by the evaluation harness.
#[derive(Debug, Clone)]
pub struct CertStreamEntry {
    /// Certstream-reported timestamp (= when the precert was logged; CT
    /// logs expose no insertion timestamp, paper footnote 4).
    pub at: SimTime,
    /// Names from CN + SAN.
    pub names: Vec<DomainName>,
    /// Ground-truth record (not available to the pipeline's inference —
    /// only to the evaluation).
    pub domain: DomainId,
}

/// The full, time-ordered certificate stream for an experiment.
#[derive(Debug, Default)]
pub struct CertStream {
    entries: Vec<CertStreamEntry>,
}

impl CertStream {
    /// Build the stream (and the backing CT log) from a universe.
    pub fn build(
        universe: &Universe,
        schedule: &SnapshotSchedule,
        fleet: &CaFleet,
        pool: &RngPool,
    ) -> (CertStream, CtLog) {
        let mut rng = pool.stream("ct.stream");
        let mut entries: Vec<CertStreamEntry> = Vec::new();
        for r in universe.iter() {
            let issue_at = match (r.cert_timing, r.cert_hint) {
                (CertTiming::Never, _) => continue,
                // Hinted issuance (renewals, ghosts, re-registered): the CA
                // holds a valid DV token, no liveness check.
                (_, Some(hint)) => hint,
                (CertTiming::Prompt, None) => {
                    let ca = fleet.sample(&mut rng);
                    let at = r.zone_insert + ca.sample_latency(&mut rng);
                    // Domain Validation needs the delegation to still exist.
                    match r.removed {
                        Some(removed) if at >= removed => continue,
                        _ => at,
                    }
                }
                (CertTiming::LateTail, None) => {
                    // The certificate lags 1-3 days behind registration; it
                    // still yields a detection only while the covering
                    // snapshot remains unpublished (the workload generator
                    // pairs LateTail with late snapshots).
                    let lag = rng.gen_range(SECS_PER_DAY..3 * SECS_PER_DAY);
                    let at = r.created + SimDuration::from_secs(lag);
                    let avail = schedule
                        .first_capture_at_or_after(r.tld, r.zone_insert)
                        .map(|d| schedule.available_at(r.tld, d));
                    let at = match avail {
                        // Clamp to just before publication so the entry is
                        // still a detection.
                        Some(a) if at >= a => a.saturating_sub(SimDuration::from_secs(
                            rng.gen_range(600..7_200),
                        )),
                        _ => at,
                    };
                    // Validation still requires a live delegation.
                    match r.removed {
                        Some(removed) if at >= removed => continue,
                        _ => at,
                    }
                }
            };
            let mut names = vec![r.name.clone()];
            if rng.gen::<f64>() < 0.8 {
                if let Ok(www) = r.name.child("www") {
                    names.push(www);
                }
            }
            if rng.gen::<f64>() < 0.15 {
                if let Ok(sub) = r.name.child("mail") {
                    names.push(sub);
                }
            }
            entries.push(CertStreamEntry { at: issue_at, names, domain: r.id });
        }
        entries.sort_by_key(|e| (e.at, e.domain));

        let mut log = CtLog::new();
        for (serial, e) in entries.iter().enumerate() {
            let ca = fleet.sample(&mut rng);
            log.append(
                e.at,
                Certificate {
                    serial: serial as u64,
                    ca: ca.id,
                    cn: e.names[0].clone(),
                    san: e.names.clone(),
                    issued_at: e.at,
                    precert: true,
                },
            );
        }
        (CertStream { entries }, log)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn entries(&self) -> &[CertStreamEntry] {
        &self.entries
    }

    pub fn iter(&self) -> impl Iterator<Item = &CertStreamEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_registry::hosting::HostingLandscape;
    use darkdns_registry::registrar::RegistrarFleet;
    use darkdns_registry::tld::paper_gtlds;
    use darkdns_registry::universe::DomainKind;
    use darkdns_registry::workload::{UniverseBuilder, WorkloadConfig};

    fn build_all() -> (Universe, SnapshotSchedule, CertStream, CtLog) {
        let tlds = paper_gtlds();
        let fleet = RegistrarFleet::paper_fleet();
        let hosting = HostingLandscape::paper_landscape();
        let config = WorkloadConfig {
            scale: 0.02,
            window_days: 10,
            base_population_frac: 0.02,
            ..WorkloadConfig::default()
        };
        let pool = RngPool::new(99);
        let schedule = SnapshotSchedule::new(&pool, &tlds, config.window_start, config.window_days);
        let builder = UniverseBuilder {
            tlds: &tlds,
            fleet: &fleet,
            hosting: &hosting,
            schedule: &schedule,
            config,
        };
        let universe = builder.build(&pool);
        let cas = CaFleet::paper_fleet();
        let (stream, log) = CertStream::build(&universe, &schedule, &cas, &pool);
        (universe, schedule, stream, log)
    }

    #[test]
    fn stream_is_time_ordered_and_nonempty() {
        let (_, _, stream, log) = build_all();
        assert!(stream.len() > 500, "stream too small: {}", stream.len());
        assert_eq!(stream.len(), log.len());
        for w in stream.entries().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn certs_never_issued_after_removal_for_registered_kinds() {
        let (universe, _, stream, _) = build_all();
        for e in stream.iter() {
            let r = universe.get(e.domain);
            if r.cert_hint.is_none() {
                if let Some(removed) = r.removed {
                    assert!(e.at < removed, "{}: cert at {} after removal {removed}", r.name, e.at);
                }
            }
        }
    }

    #[test]
    fn ghosts_and_rereg_get_certs_despite_being_dead() {
        let (universe, _, stream, _) = build_all();
        let ghost_entries = stream
            .iter()
            .filter(|e| !universe.get(e.domain).kind.has_registration())
            .count();
        let rereg_entries = stream
            .iter()
            .filter(|e| universe.get(e.domain).kind == DomainKind::ReRegistered)
            .count();
        assert!(ghost_entries > 0, "no ghost certs in stream");
        assert!(rereg_entries > 0, "no re-registered certs in stream");
    }

    #[test]
    fn entries_carry_registrable_apex_first() {
        let (universe, _, stream, _) = build_all();
        for e in stream.iter().take(500) {
            let r = universe.get(e.domain);
            assert_eq!(e.names[0], r.name);
            for n in &e.names[1..] {
                assert!(n.is_subdomain_of(&r.name));
            }
        }
    }

    #[test]
    fn deterministic_given_pool() {
        let (_, _, s1, _) = build_all();
        let (_, _, s2, _) = build_all();
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.domain, b.domain);
        }
    }

    #[test]
    fn inclusion_proofs_hold_for_streamed_entries() {
        let (_, _, _, log) = build_all();
        let root = log.root();
        for i in (0..log.len()).step_by(97) {
            let proof = log.prove(i);
            assert!(CtLog::verify(&log.get(i).certificate, &proof, root));
        }
    }

    #[test]
    fn transient_cert_latency_beats_lifetime() {
        // Detected transients: cert must precede death, with margin.
        let (universe, _, stream, _) = build_all();
        let mut count = 0;
        for e in stream.iter() {
            let r = universe.get(e.domain);
            if r.kind == DomainKind::Transient {
                assert!(e.at < r.removed.unwrap());
                count += 1;
            }
        }
        assert!(count > 10, "too few transient certs: {count}");
    }
}
