//! The experiment driver: substrates → pipeline → report.
//!
//! `Experiment::run` executes the reproduction end to end:
//!
//! 1. build the calibrated registry universe (workload generator);
//! 2. build the CZDS snapshot schedule and the certificate stream;
//! 3. run the five-step pipeline (detect → RDAP → monitor → validate →
//!    transient classification); the public NRD feed is read off the
//!    result ([`RunArtifacts::zonestream`]);
//! 4. simulate the comparison sources (blocklists, NOD, DZDB);
//! 5. assemble the [`Report`].
//!
//! Everything is deterministic in the config's seed.
//!
//! The pipeline stages consume zone membership through the
//! [`ZoneMembership`] contract. [`Experiment::run`] instantiates the
//! daily-snapshot [`OracleMembership`] backend (the paper's batch
//! shape) over a pipeline that is generic in the backend. For
//! *time-faithful* runs against the push-cadence
//! backends — where publishing must interleave with observation — use
//! [`LiveInputs`] + [`run_certstream_detection`], the harness the
//! cross-backend equivalence tests and the detection-latency bench are
//! built on.

use crate::config::ExperimentConfig;
use crate::detector::{Detector, DetectorStats, NrdCandidate};
use crate::feed::NrdFeedRecord;
use crate::membership::{OracleMembership, ZoneMembership};
use crate::monitor::{Monitor, MonitorZoneStats};
use crate::report::{self, Report, ReportInputs};
use crate::transient::{classify, ClassifiedCandidate};
use crate::validate::Validator;
use darkdns_broker::UniverseFeed;
use darkdns_ct::ca::CaFleet;
use darkdns_ct::stream::CertStream;
use darkdns_dns::{DomainName, PublicSuffixList};
use darkdns_intel::blocklist::BlocklistSet;
use darkdns_intel::dzdb::DzdbArchive;
use darkdns_intel::nod::NodFeed;
use darkdns_measure::worker::MonitorReport;
use darkdns_rdap::client::RdapClient;
use darkdns_rdap::server::RdapDirectory;
use darkdns_registry::czds::{SnapshotOracle, SnapshotSchedule};
use darkdns_registry::hosting::HostingLandscape;
use darkdns_registry::live::UniverseZoneView;
use darkdns_registry::registrar::RegistrarFleet;
use darkdns_registry::tld::TldId;
use darkdns_registry::universe::Universe;
use darkdns_registry::workload::UniverseBuilder;
use darkdns_sim::rng::RngPool;
use darkdns_sim::time::{SimDuration, SimTime};

/// A configured, runnable experiment.
pub struct Experiment {
    config: ExperimentConfig,
}

/// Everything a run produces (report plus the artifacts tests and the
/// paper binaries want to poke at).
pub struct RunArtifacts {
    pub report: Report,
    pub universe: Universe,
    pub schedule: SnapshotSchedule,
    pub classified: Vec<ClassifiedCandidate>,
    pub monitor_reports: Vec<MonitorReport>,
    /// The monitor's consumer-side zone-visibility accounting (how many
    /// candidates the membership backend confirmed within their
    /// monitoring window).
    pub monitor_zone: MonitorZoneStats,
}

impl RunArtifacts {
    /// The public zonestream feed the paper releases: one record per
    /// validated candidate, in detection order.
    pub fn zonestream(&self) -> impl Iterator<Item = NrdFeedRecord> + '_ {
        self.classified.iter().map(|c| {
            let v = &c.validated;
            let rdap = v.rdap.as_ref().ok();
            NrdFeedRecord {
                domain: v.candidate.domain.clone(),
                detected_at: v.candidate.detected_at,
                rdap_created: rdap.map(|r| r.created),
                registrar: rdap.map(|r| r.registrar.clone()),
            }
        })
    }
}

/// What [`Experiment::run_with_membership`] hands its factory: the
/// borrowed substrates a backend may need.
struct MembershipCtx<'a> {
    oracle: &'a SnapshotOracle<'a>,
    universe: &'a Universe,
}

/// The deterministic substrate set every run shape builds the same way.
/// One builder on purpose: the batch pipeline and the [`LiveInputs`]
/// harness draw from the seed's `RngPool` in exactly this order, which
/// is what makes "same config, same seed" mean "same universe and same
/// certstream" across run shapes — the property every cross-backend
/// comparison rests on.
struct Substrates {
    fleet: RegistrarFleet,
    landscape: HostingLandscape,
    schedule: SnapshotSchedule,
    universe: Universe,
    stream: CertStream,
    psl: PublicSuffixList,
}

fn build_substrates(cfg: &ExperimentConfig, pool: &RngPool) -> Substrates {
    let fleet = RegistrarFleet::paper_fleet();
    let landscape = HostingLandscape::paper_landscape();
    let schedule = SnapshotSchedule::new(
        pool,
        &cfg.tlds,
        cfg.workload.window_start,
        cfg.workload.window_days,
    );
    let universe = UniverseBuilder {
        tlds: &cfg.tlds,
        fleet: &fleet,
        hosting: &landscape,
        schedule: &schedule,
        config: cfg.workload.clone(),
    }
    .build(pool);
    let (stream, _ct_log) = CertStream::build(&universe, &schedule, &CaFleet::paper_fleet(), pool);
    Substrates { fleet, landscape, schedule, universe, stream, psl: PublicSuffixList::builtin() }
}

impl Experiment {
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment { config }
    }

    /// Run the full experiment and return just the report.
    pub fn run(self) -> Report {
        self.run_with_artifacts().report
    }

    /// Run the full experiment, keeping intermediate artifacts. Uses the
    /// paper's batch backend: daily-snapshot [`OracleMembership`].
    pub fn run_with_artifacts(self) -> RunArtifacts {
        self.run_with_membership(|ctx| Box::new(OracleMembership::new(ctx.oracle, ctx.universe)))
    }

    /// Run the full experiment with a caller-chosen [`ZoneMembership`]
    /// backend built from the run's substrates. The factory runs once
    /// the universe and schedule exist; the pipeline stages (detector
    /// discard test, monitor zone-visibility accounting) then consult
    /// whatever backend it returned.
    ///
    /// Push-fed backends (broker / socket views) run here too, but note
    /// the batch shape calls `advance_to` only as detection progresses —
    /// a backend whose *producer* must be driven in time order belongs
    /// in the [`run_certstream_detection`] harness instead.
    fn run_with_membership(
        self,
        make: impl for<'a> FnOnce(MembershipCtx<'a>) -> Box<dyn ZoneMembership + 'a>,
    ) -> RunArtifacts {
        let cfg = &self.config;
        let pool = RngPool::new(cfg.seed);

        // --- substrates ---------------------------------------------------
        let Substrates { fleet, landscape, schedule, universe, stream, psl } =
            build_substrates(cfg, &pool);
        let oracle = SnapshotOracle::new(&schedule);
        let mut membership = make(MembershipCtx { oracle: &oracle, universe: &universe });

        // --- step 1: detection --------------------------------------------
        let mut detector = Detector::new(&psl, &universe, &mut membership);
        let candidates = detector.run(stream.entries());
        drop(detector);

        // --- steps 2+4: RDAP ------------------------------------------------
        let mut directory = RdapDirectory::new(&universe, &fleet, cfg.rdap.clone(), &pool);
        let mut validator = Validator::new(
            &mut directory,
            RdapClient::paper_client(),
            cfg.rdap_queue_median_secs,
            pool.stream("core.validator"),
        );
        let validated = validator.validate_all(candidates);

        // --- step 3: monitoring ---------------------------------------------
        let mut monitor = Monitor::new(&universe, &landscape, &mut membership);
        let candidate_refs: Vec<_> = validated.iter().map(|v| v.candidate.clone()).collect();
        let monitor_reports = monitor.monitor_all(&candidate_refs);
        let monitor_zone = monitor.zone_stats();
        drop(monitor);
        drop(membership);

        // --- step 5: transient classification --------------------------------
        let classified = classify(
            &universe,
            &oracle,
            cfg.workload.window_start,
            validated,
            &monitor_reports,
        );

        // --- comparison sources ----------------------------------------------
        let blocklists = BlocklistSet::simulate(
            &universe,
            &cfg.blocklists,
            cfg.workload.window_end(),
            &pool,
        );
        let nod = NodFeed::simulate(&universe, &cfg.nod, cfg.workload.window_start, &pool);
        let dzdb = DzdbArchive::build(&universe, cfg.workload.window_start);

        // --- report -----------------------------------------------------------
        let report = report::build(&ReportInputs {
            config: cfg,
            universe: &universe,
            oracle: &oracle,
            landscape: &landscape,
            psl: &psl,
            classified: &classified,
            monitor_reports: &monitor_reports,
            blocklists: &blocklists,
            nod: &nod,
            dzdb: &dzdb,
        });
        RunArtifacts { report, universe, schedule, classified, monitor_reports, monitor_zone }
    }
}

// ---------------------------------------------------------------------------
// The live (push-cadence) harness: one set of inputs, any backend.
// ---------------------------------------------------------------------------

/// Substrates shared by every backend of a live detection run: one
/// deterministic universe + certstream, and the push grid every
/// backend's zone view is quantised to. Build once, run against the
/// direct view, an in-process broker view and a socket view — from
/// identical inputs.
pub struct LiveInputs {
    pub config: ExperimentConfig,
    pub universe: Universe,
    pub stream: CertStream,
    pub psl: PublicSuffixList,
    /// Every TLD of the config, in id order.
    pub tld_ids: Vec<TldId>,
    /// Push-grid anchor (the observation window start).
    pub anchor: SimTime,
    /// Push cadence (5 minutes = Verisign's historical RZU).
    pub cadence: SimDuration,
}

impl LiveInputs {
    /// Build the substrates for `config` at the given push cadence —
    /// via the same [`build_substrates`] sequence the batch pipeline
    /// uses, so an equal config + seed yields the identical universe
    /// and certstream in both run shapes.
    pub fn build(config: ExperimentConfig, cadence: SimDuration) -> Self {
        let pool = RngPool::new(config.seed);
        let Substrates { universe, stream, psl, .. } = build_substrates(&config, &pool);
        let tld_ids = (0..config.tlds.len() as u16).map(TldId).collect();
        let anchor = config.workload.window_start;
        LiveInputs { config, universe, stream, psl, tld_ids, anchor, cadence }
    }

    /// The direct-universe backend over these inputs.
    pub fn direct_view(&self) -> UniverseZoneView<'_> {
        UniverseZoneView::new(&self.universe, &self.tld_ids, self.anchor, self.cadence)
    }

    /// A publisher feed over these inputs (drive it into a broker with
    /// [`UniverseFeed::publish_until`] as detection progresses).
    pub fn feed(&self) -> UniverseFeed {
        UniverseFeed::build(&self.universe, &self.config.tlds, &self.tld_ids, self.anchor, self.cadence)
    }
}

/// What one live detection run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveDetection {
    pub candidates: Vec<NrdCandidate>,
    pub stats: DetectorStats,
    /// The backend's zone-NRD log (drained at the end of the run).
    pub zone_nrds: Vec<DomainName>,
}

/// Run certstream detection over `inputs` against any membership
/// backend. `sync` is the backend's producer driver, called with the
/// upcoming entry's timestamp *before* the entry is observed: the
/// direct view needs nothing (`|_, _| {}`); a broker backend publishes
/// the feed up to that instant; a socket backend additionally pumps
/// until the published heads crossed the wire. Entries before the push
/// anchor are skipped — no backend has a view to answer from yet.
pub fn run_certstream_detection<M: ZoneMembership>(
    inputs: &LiveInputs,
    membership: &mut M,
    mut sync: impl FnMut(&mut M, SimTime),
) -> LiveDetection {
    let mut detector = Detector::new(&inputs.psl, &inputs.universe, membership);
    let mut candidates = Vec::new();
    for entry in inputs.stream.entries() {
        if entry.at < inputs.anchor {
            continue;
        }
        sync(detector.membership_mut(), entry.at);
        candidates.extend(detector.observe(entry));
    }
    let stats = detector.stats();
    let mut zone_nrds = Vec::new();
    detector.membership_mut().drain_new_domains(&mut zone_nrds);
    LiveDetection { candidates, stats, zone_nrds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::TransientStatus;

    fn run_small(seed: u64) -> RunArtifacts {
        Experiment::new(ExperimentConfig::small(seed)).run_with_artifacts()
    }

    #[test]
    fn small_experiment_produces_sane_report() {
        let arts = run_small(7);
        let r = &arts.report;
        assert!(r.nrd_total > 100, "too few NRDs: {}", r.nrd_total);
        assert!(r.zone_nrd_total > r.nrd_total, "coverage cannot exceed 100%");
        assert!((20.0..70.0).contains(&r.coverage_pct), "coverage {}", r.coverage_pct);
        assert!(r.transients.candidates > 0);
        assert!(r.transients.confirmed <= r.transients.candidates);
        assert!(!r.table1.is_empty());
        assert!(!r.figure1.is_empty());
        // The monitor consulted the membership backend for every
        // monitored candidate.
        let zs = arts.monitor_zone;
        assert_eq!(zs.confirmed_in_view + zs.never_in_view, arts.monitor_reports.len() as u64);
        assert!(zs.confirmed_in_view > 0, "some candidates must become snapshot-visible");
        assert!(zs.never_in_view > 0, "transients must stay snapshot-invisible");
    }

    #[test]
    fn determinism() {
        let a = run_small(11).report;
        let b = run_small(11).report;
        assert_eq!(a.nrd_total, b.nrd_total);
        assert_eq!(a.transients.confirmed, b.transients.confirmed);
        assert_eq!(a.figure1_half_detected_within_secs, b.figure1_half_detected_within_secs);
        let c = run_small(12).report;
        assert_ne!(a.nrd_total, c.nrd_total);
    }

    #[test]
    fn transient_rdap_failure_rate_exceeds_nrd_rate() {
        let r = run_small(13).report;
        let rf = &r.rdap_failures;
        assert!(
            rf.transient_failure_pct > 3.0 * rf.nrd_failure_pct,
            "transient {} vs nrd {}",
            rf.transient_failure_pct,
            rf.nrd_failure_pct
        );
    }

    #[test]
    fn confirmed_transients_never_appear_in_snapshots() {
        let arts = run_small(17);
        let oracle = SnapshotOracle::new(&arts.schedule);
        for c in &arts.classified {
            if c.status == TransientStatus::Confirmed {
                let record = arts.universe.get(c.validated.candidate.record);
                assert!(!oracle.appeared_in_any(record));
            }
        }
    }

    #[test]
    fn feed_publishes_every_validated_candidate() {
        let arts = run_small(19);
        let records: Vec<_> = arts.zonestream().collect();
        assert_eq!(records.len(), arts.classified.len());
        let mut rdap_ok = 0;
        for (rec, c) in records.iter().zip(&arts.classified) {
            let v = &c.validated;
            assert_eq!(rec.domain, v.candidate.domain);
            assert_eq!(rec.detected_at, v.candidate.detected_at);
            match &v.rdap {
                Ok(r) => {
                    rdap_ok += 1;
                    assert_eq!(rec.rdap_created, Some(r.created));
                    assert_eq!(rec.registrar.as_deref(), Some(r.registrar.as_str()));
                }
                Err(_) => {
                    assert_eq!(rec.rdap_created, None);
                    assert_eq!(rec.registrar, None);
                }
            }
        }
        assert!(rdap_ok > 0 && rdap_ok < records.len(), "both RDAP outcomes are covered");
        let again: Vec<_> = run_small(19).zonestream().collect();
        assert_eq!(records, again, "same seed, same artifact");
    }

    #[test]
    fn render_text_contains_all_sections() {
        let r = run_small(23).report;
        let text = r.render_text();
        for needle in [
            "Table 1",
            "Table 2",
            "Figure 1",
            "Figure 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "NS stability",
            "RDAP failures",
            "blocklists",
            "NOD comparison",
            "ccTLD",
        ] {
            assert!(text.contains(needle), "missing section {needle}");
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let r = run_small(29).report;
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("table1"));
        assert!(json.contains("coverage_pct"));
    }

    #[test]
    fn experiment_runs_generically_over_a_live_backend() {
        // The whole batch pipeline — detector discard test and monitor
        // zone accounting included — driven by the push-cadence direct
        // view instead of the snapshot oracle. Fresher membership
        // discards more renewals, so coverage drops relative to the
        // snapshot run but the pipeline itself is backend-agnostic.
        let cfg = ExperimentConfig::small(7);
        let tld_count = cfg.tlds.len() as u16;
        let window_start = cfg.workload.window_start;
        let arts = Experiment::new(cfg).run_with_membership(|ctx| {
            let tlds: Vec<TldId> = (0..tld_count).map(TldId).collect();
            Box::new(UniverseZoneView::new(
                ctx.universe,
                &tlds,
                window_start,
                SimDuration::from_minutes(5),
            ))
        });
        assert!(arts.report.nrd_total > 0);
        let snapshot_run = run_small(7);
        assert!(
            arts.report.coverage_pct < snapshot_run.report.coverage_pct,
            "push-fresh membership must discard more than daily snapshots: {} vs {}",
            arts.report.coverage_pct,
            snapshot_run.report.coverage_pct
        );
    }

    #[test]
    fn live_inputs_direct_run_is_deterministic() {
        let inputs = LiveInputs::build(ExperimentConfig::small(31), SimDuration::from_minutes(5));
        let mut view_a = inputs.direct_view();
        let a = run_certstream_detection(&inputs, &mut view_a, |_, _| {});
        let mut view_b = inputs.direct_view();
        let b = run_certstream_detection(&inputs, &mut view_b, |_, _| {});
        assert!(!a.candidates.is_empty());
        assert!(!a.zone_nrds.is_empty());
        assert_eq!(a, b);
    }
}
