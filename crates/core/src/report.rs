//! Report assembly: every table and figure of the paper's evaluation.
//!
//! The [`Report`] is a serialisable record of paper-vs-measured artifacts:
//! Tables 1-5, Figures 1-2, and the section statistics (§4.1 NS
//! stability, §4.2 RDAP failures, §4.3 blocklists, §4.4 visibility gap and
//! ccTLD ground truth). `render_text()` prints the same rows the paper
//! reports; the paper binaries tee that output into `EXPERIMENTS.md`.

use crate::config::ExperimentConfig;
use crate::transient::{ClassifiedCandidate, TransientStatus};
use darkdns_dns::PublicSuffixList;
use darkdns_intel::blocklist::{BlocklistSet, ListingPhase};
use darkdns_intel::dzdb::DzdbArchive;
use darkdns_intel::nod::NodFeed;
use darkdns_measure::worker::MonitorReport;
use darkdns_registry::czds::SnapshotOracle;
use darkdns_registry::hosting::HostingLandscape;
use darkdns_registry::tld::{month_of_day, TldId};
use darkdns_registry::universe::{DomainKind, Universe};
use darkdns_sim::cdf::{figure2_edges_secs, Cdf, FIGURE1_EDGES_SECS};
use darkdns_sim::metrics::LabelledCounter;
use darkdns_sim::time::{SimDuration, SimTime, SECS_PER_DAY};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One row of Table 1 (NRD counts and zone coverage per TLD).
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    pub tld: String,
    pub monthly: [u64; 3],
    pub total: u64,
    pub zone_nrd: u64,
    /// `total / zone_nrd`, the paper's "Coverage NRD (%)".
    pub coverage_pct: f64,
}

/// One row of Table 2 (transient candidates per TLD per month).
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    pub tld: String,
    pub monthly: [u64; 3],
    pub total: u64,
}

/// A labelled share row (Tables 3-5).
#[derive(Debug, Clone, Serialize)]
pub struct ShareRow {
    pub label: String,
    pub count: u64,
    pub pct: f64,
}

/// One CDF series of Figure 1.
#[derive(Debug, Clone, Serialize)]
pub struct Figure1Series {
    pub tld: String,
    /// (edge seconds, fraction ≤ edge).
    pub series: Vec<(f64, f64)>,
    pub samples: u64,
}

/// §4.1 statistics.
#[derive(Debug, Clone, Serialize)]
pub struct NsStability {
    pub monitored: u64,
    pub changed_within_24h: u64,
    pub kept_pct: f64,
}

/// §4.2 RDAP failure statistics.
#[derive(Debug, Clone, Serialize)]
pub struct RdapFailureReport {
    pub nrd_queries: u64,
    pub nrd_failures: u64,
    pub nrd_failure_pct: f64,
    pub transient_queries: u64,
    pub transient_failures: u64,
    pub transient_failure_pct: f64,
    /// Failure counts by cause label.
    pub causes: Vec<(String, u64)>,
    /// Among transient-candidate failures, fraction with a DZDB history.
    pub failed_with_history_pct: f64,
}

/// §4.3 blocklist statistics for one population.
#[derive(Debug, Clone, Serialize)]
pub struct BlocklistPopulation {
    pub population: u64,
    pub flagged: u64,
    pub flagged_pct: f64,
    pub before_registration: u64,
    pub while_active: u64,
    pub after_deletion: u64,
    /// For transients: first listing on the registration day.
    pub same_day: u64,
}

#[derive(Debug, Clone, Serialize)]
pub struct BlocklistReport {
    pub early_removed: BlocklistPopulation,
    pub transient: BlocklistPopulation,
    pub early_removed_total: u64,
}

/// §4.4 one-day NOD comparison.
#[derive(Debug, Clone, Serialize)]
pub struct VisibilityReport {
    pub comparison_day: u64,
    pub ours_nrd: u64,
    pub nod_nrd: u64,
    pub both_nrd: u64,
    pub overlap_pct: f64,
    pub ours_transient: u64,
    pub nod_transient: u64,
    pub both_transient: u64,
    pub transient_union: u64,
    pub transient_overlap_pct: f64,
    /// Whole-window transient comparison (the scaled single-day counts
    /// are statistically thin; the window-wide overlap carries the same
    /// conclusion with usable sample sizes).
    pub window_ours_transient: u64,
    pub window_nod_transient: u64,
    pub window_both_transient: u64,
    pub window_transient_overlap_pct: f64,
}

/// §4.4 ccTLD ground truth.
#[derive(Debug, Clone, Serialize)]
pub struct CctldReport {
    pub tld: String,
    pub deleted_under_24h: u64,
    pub never_in_snapshot: u64,
    pub detected_by_pipeline: u64,
    pub recall_pct: f64,
}

/// Transient bookkeeping (§4.2's 68,042 → 42,358 funnel).
#[derive(Debug, Clone, Serialize)]
pub struct TransientSummary {
    pub candidates: u64,
    pub rdap_failed: u64,
    pub misclassified: u64,
    pub confirmed: u64,
    /// Ground truth: transients that existed but had no certificate (the
    /// blind spot the paper cannot see; the simulation can).
    pub invisible_ground_truth: u64,
}

/// The complete experiment report.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    pub seed: u64,
    pub scale: f64,
    pub window_days: u64,
    pub universe_size: u64,
    /// CT-detected NRD candidates (paper: 6.8M).
    pub nrd_total: u64,
    /// Ground-truth zone NRDs (paper: 16.3M).
    pub zone_nrd_total: u64,
    pub coverage_pct: f64,
    pub table1: Vec<Table1Row>,
    pub table2: Vec<Table2Row>,
    pub figure1: Vec<Figure1Series>,
    pub figure1_half_detected_within_secs: u64,
    pub figure2: Vec<(f64, f64)>,
    pub figure2_median_lifetime_hours: f64,
    pub table3: Vec<ShareRow>,
    pub table4: Vec<ShareRow>,
    pub table5: Vec<ShareRow>,
    pub ns_stability: NsStability,
    pub rdap_failures: RdapFailureReport,
    pub blocklists: BlocklistReport,
    pub visibility: VisibilityReport,
    pub cctld: Option<CctldReport>,
    pub transients: TransientSummary,
}

/// Everything report assembly needs.
pub struct ReportInputs<'a> {
    pub config: &'a ExperimentConfig,
    pub universe: &'a Universe,
    pub oracle: &'a SnapshotOracle<'a>,
    pub landscape: &'a HostingLandscape,
    pub psl: &'a PublicSuffixList,
    pub classified: &'a [ClassifiedCandidate],
    pub monitor_reports: &'a [MonitorReport],
    pub blocklists: &'a BlocklistSet,
    pub nod: &'a NodFeed,
    pub dzdb: &'a DzdbArchive,
}

fn is_nrd_kind(kind: DomainKind) -> bool {
    matches!(kind, DomainKind::LongLived | DomainKind::EarlyRemoved)
}

/// Month (0..3) of an absolute instant, relative to the window start.
fn month_of(window_start: SimTime, t: SimTime) -> usize {
    month_of_day(t.saturating_since(window_start).as_secs() / SECS_PER_DAY)
}

pub fn build(inputs: &ReportInputs<'_>) -> Report {
    let cfg = inputs.config;
    let universe = inputs.universe;
    let window_start = cfg.workload.window_start;
    let window_end = cfg.workload.window_end();

    // Display label per TLD: its own name, "Others" for aggregates; `None`
    // excludes the TLD from gTLD tables (the ccTLD).
    let tld_label: Vec<Option<String>> = cfg
        .tlds
        .iter()
        .map(|t| {
            if !t.in_czds {
                None
            } else if t.aggregate_as_other {
                Some("Others".to_owned())
            } else {
                Some(t.name.clone())
            }
        })
        .collect();
    let label_of = |tld: TldId| tld_label[tld.0 as usize].clone();

    // ---- Table 1 --------------------------------------------------------
    let mut t1_detected: HashMap<String, [u64; 3]> = HashMap::new();
    let mut t1_zone: HashMap<String, u64> = HashMap::new();
    for r in universe.iter() {
        if !is_nrd_kind(r.kind) || r.created < window_start {
            continue;
        }
        if let Some(label) = label_of(r.tld) {
            *t1_zone.entry(label).or_insert(0) += 1;
        }
    }
    for c in inputs.classified {
        let r = universe.get(c.validated.candidate.record);
        if let Some(label) = label_of(r.tld) {
            let m = month_of(window_start, c.validated.candidate.detected_at);
            t1_detected.entry(label).or_insert([0; 3])[m] += 1;
        }
    }
    let mut table1: Vec<Table1Row> = t1_detected
        .iter()
        .map(|(label, monthly)| {
            let total: u64 = monthly.iter().sum();
            let zone = t1_zone.get(label).copied().unwrap_or(0);
            Table1Row {
                tld: label.clone(),
                monthly: *monthly,
                total,
                zone_nrd: zone,
                coverage_pct: if zone == 0 { 0.0 } else { 100.0 * total as f64 / zone as f64 },
            }
        })
        .collect();
    table1.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.tld.cmp(&b.tld)));
    // "Others" goes last, as in the paper.
    table1.sort_by_key(|row| row.tld == "Others");
    let nrd_total: u64 = table1.iter().map(|r| r.total).sum();
    let zone_nrd_total: u64 = table1.iter().map(|r| r.zone_nrd).sum();

    // ---- Table 2 + transient funnel -------------------------------------
    let mut t2: HashMap<String, [u64; 3]> = HashMap::new();
    let mut funnel = TransientSummary {
        candidates: 0,
        rdap_failed: 0,
        misclassified: 0,
        confirmed: 0,
        invisible_ground_truth: 0,
    };
    for c in inputs.classified {
        if c.status == TransientStatus::AppearedInZone {
            continue;
        }
        funnel.candidates += 1;
        match c.status {
            TransientStatus::CandidateRdapFailed => funnel.rdap_failed += 1,
            TransientStatus::CandidateMisclassified => funnel.misclassified += 1,
            TransientStatus::Confirmed => funnel.confirmed += 1,
            TransientStatus::AppearedInZone => unreachable!("filtered above"),
        }
        let r = universe.get(c.validated.candidate.record);
        if let Some(label) = label_of(r.tld) {
            let m = month_of(window_start, c.validated.candidate.detected_at);
            t2.entry(label).or_insert([0; 3])[m] += 1;
        }
    }
    funnel.invisible_ground_truth = universe.count_where(|r| {
        r.kind == DomainKind::Transient
            && r.cert_timing == darkdns_registry::universe::CertTiming::Never
    }) as u64;
    let mut table2: Vec<Table2Row> = t2
        .iter()
        .map(|(label, monthly)| Table2Row {
            tld: label.clone(),
            monthly: *monthly,
            total: monthly.iter().sum(),
        })
        .collect();
    table2.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.tld.cmp(&b.tld)));
    table2.sort_by_key(|row| row.tld == "Others");

    // ---- Figure 1 --------------------------------------------------------
    let mut fig1_samples: HashMap<String, Vec<f64>> = HashMap::new();
    let mut fig1_all: Vec<f64> = Vec::new();
    for c in inputs.classified {
        if let Some(latency) = c.validated.detection_latency_secs() {
            let r = universe.get(c.validated.candidate.record);
            if let Some(label) = label_of(r.tld) {
                fig1_samples.entry(label).or_default().push(latency as f64);
                fig1_all.push(latency as f64);
            }
        }
    }
    let all_cdf = Cdf::from_samples(fig1_all.clone());
    let figure1_half = if all_cdf.is_empty() { 0 } else { all_cdf.median() as u64 };
    let mut figure1: Vec<Figure1Series> = fig1_samples
        .into_iter()
        .map(|(tld, samples)| {
            let n = samples.len() as u64;
            let cdf = Cdf::from_samples(samples);
            Figure1Series { tld, series: cdf.series(&FIGURE1_EDGES_SECS), samples: n }
        })
        .collect();
    figure1.sort_by(|a, b| a.tld.cmp(&b.tld));
    figure1.push(Figure1Series {
        tld: "All".to_owned(),
        series: all_cdf.series(&FIGURE1_EDGES_SECS),
        samples: all_cdf.len() as u64,
    });

    // ---- Figure 2 --------------------------------------------------------
    let lifetimes: Vec<f64> = inputs
        .classified
        .iter()
        .filter_map(|c| c.estimated_lifetime.map(|d| d.as_secs() as f64))
        .collect();
    let fig2_cdf = Cdf::from_samples(lifetimes);
    let figure2 = fig2_cdf.series(&figure2_edges_secs());
    let figure2_median_lifetime_hours =
        if fig2_cdf.is_empty() { 0.0 } else { fig2_cdf.median() / 3_600.0 };

    // ---- Tables 3-5 ------------------------------------------------------
    let mut registrars = LabelledCounter::new();
    let mut dns_hosts = LabelledCounter::new();
    let mut web_hosts = LabelledCounter::new();
    for (c, m) in inputs.classified.iter().zip(inputs.monitor_reports) {
        if c.status != TransientStatus::Confirmed {
            continue;
        }
        if let Ok(resp) = &c.validated.rdap {
            registrars.incr(&resp.registrar);
        }
        if let Some(first_set) = m.ns_sets_seen.first() {
            if let Some(host) = first_set.first() {
                if let Some(sld) = inputs.psl.registrable_domain(host) {
                    dns_hosts.incr(sld.as_str());
                }
            }
        }
        if let Some(addr) = m.web_addr {
            if let Some(asn) = inputs.landscape.asn_of_addr(addr) {
                let name = inputs
                    .landscape
                    .web_host_by_asn(asn)
                    .map(|w| w.name.clone())
                    .unwrap_or_else(|| format!("AS{asn}"));
                web_hosts.incr(&format!("{name} (AS{asn})"));
            }
        }
    }
    let share_rows = |counter: &LabelledCounter, top: usize| -> Vec<ShareRow> {
        let total = counter.total().max(1);
        let mut rows: Vec<ShareRow> = counter
            .top(top)
            .into_iter()
            .map(|(label, count)| ShareRow {
                label,
                count,
                pct: 100.0 * count as f64 / total as f64,
            })
            .collect();
        let others = counter.others_beyond_top(top);
        if others > 0 {
            rows.push(ShareRow {
                label: "Others".to_owned(),
                count: others,
                pct: 100.0 * others as f64 / total as f64,
            });
        }
        rows
    };
    let table3 = share_rows(&registrars, 10);
    let table4 = share_rows(&dns_hosts, 5);
    let table5 = share_rows(&web_hosts, 5);

    // ---- §4.1 NS stability ----------------------------------------------
    let mut monitored = 0u64;
    let mut changed = 0u64;
    for (c, m) in inputs.classified.iter().zip(inputs.monitor_reports) {
        let r = universe.get(c.validated.candidate.record);
        if is_nrd_kind(r.kind) && m.observed_alive() {
            monitored += 1;
            if m.ns_changed_within_24h {
                changed += 1;
            }
        }
    }
    let ns_stability = NsStability {
        monitored,
        changed_within_24h: changed,
        kept_pct: if monitored == 0 {
            100.0
        } else {
            100.0 * (monitored - changed) as f64 / monitored as f64
        },
    };

    // ---- §4.2 RDAP failures ----------------------------------------------
    let mut nrd_q = 0u64;
    let mut nrd_f = 0u64;
    let mut tr_q = 0u64;
    let mut tr_f = 0u64;
    let mut causes: HashMap<&'static str, u64> = HashMap::new();
    let mut failed_transients = 0u64;
    let mut failed_with_history = 0u64;
    for c in inputs.classified {
        // §4.2's failure analysis covers the gTLD populations.
        if label_of(universe.get(c.validated.candidate.record).tld).is_none() {
            continue;
        }
        let is_transient_candidate = c.status != TransientStatus::AppearedInZone;
        if is_transient_candidate {
            tr_q += 1;
        } else {
            nrd_q += 1;
        }
        if let Err(e) = &c.validated.rdap {
            *causes.entry(e.label()).or_insert(0) += 1;
            if is_transient_candidate {
                tr_f += 1;
                failed_transients += 1;
                if inputs.dzdb.contains(&c.validated.candidate.domain) {
                    failed_with_history += 1;
                }
            } else {
                nrd_f += 1;
            }
        }
    }
    let mut cause_rows: Vec<(String, u64)> =
        causes.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    cause_rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let rdap_failures = RdapFailureReport {
        nrd_queries: nrd_q,
        nrd_failures: nrd_f,
        nrd_failure_pct: pct(nrd_f, nrd_q),
        transient_queries: tr_q,
        transient_failures: tr_f,
        transient_failure_pct: pct(tr_f, tr_q),
        causes: cause_rows,
        failed_with_history_pct: pct(failed_with_history, failed_transients),
    };

    // ---- §4.3 blocklists --------------------------------------------------
    let mut early = BlocklistPopulation {
        population: 0,
        flagged: 0,
        flagged_pct: 0.0,
        before_registration: 0,
        while_active: 0,
        after_deletion: 0,
        same_day: 0,
    };
    let mut transient_pop = early.clone();
    let mut early_removed_total = 0u64;
    // Early-removed population: detected NRDs whose registration ended
    // before the window end (the paper's 555k).
    for c in inputs.classified {
        let r = universe.get(c.validated.candidate.record);
        match c.status {
            TransientStatus::AppearedInZone => {
                let deleted_early = matches!(r.removed, Some(rm) if rm < window_end);
                if !deleted_early {
                    continue;
                }
                early_removed_total += 1;
                early.population += 1;
                if inputs.blocklists.is_flagged(r) {
                    early.flagged += 1;
                    match inputs.blocklists.phase_of(r) {
                        Some(ListingPhase::BeforeRegistration) => early.before_registration += 1,
                        Some(ListingPhase::WhileActive) => early.while_active += 1,
                        Some(ListingPhase::AfterDeletion) => early.after_deletion += 1,
                        None => {}
                    }
                    if inputs.blocklists.listed_same_day(r) {
                        early.same_day += 1;
                    }
                }
            }
            TransientStatus::Confirmed => {
                transient_pop.population += 1;
                if inputs.blocklists.is_flagged(r) {
                    transient_pop.flagged += 1;
                    match inputs.blocklists.phase_of(r) {
                        Some(ListingPhase::BeforeRegistration) => {
                            transient_pop.before_registration += 1
                        }
                        Some(ListingPhase::WhileActive) => transient_pop.while_active += 1,
                        Some(ListingPhase::AfterDeletion) => transient_pop.after_deletion += 1,
                        None => {}
                    }
                    if inputs.blocklists.listed_same_day(r) {
                        transient_pop.same_day += 1;
                    }
                }
            }
            _ => {}
        }
    }
    early.flagged_pct = pct(early.flagged, early.population);
    transient_pop.flagged_pct = pct(transient_pop.flagged, transient_pop.population);
    let blocklists = BlocklistReport {
        early_removed: early,
        transient: transient_pop,
        early_removed_total,
    };

    // ---- §4.4 visibility --------------------------------------------------
    let day = cfg.nod_comparison_day;
    let day_start = window_start + SimDuration::from_days(day);
    let day_end = day_start + SimDuration::from_days(1);
    let in_day = |t: SimTime| t >= day_start && t < day_end;
    let mut ours_nrd = 0u64;
    let mut both_nrd = 0u64;
    let mut ours_tr = 0u64;
    let mut both_tr = 0u64;
    let mut window_ours_tr = 0u64;
    let mut window_both_tr = 0u64;
    for c in inputs.classified {
        let r = universe.get(c.validated.candidate.record);
        if label_of(r.tld).is_none() {
            continue; // gTLDs only, as in the paper
        }
        let Ok(resp) = &c.validated.rdap else { continue };
        let nod_sees = inputs.nod.observed(r.id);
        if c.status == TransientStatus::Confirmed {
            window_ours_tr += 1;
            if nod_sees {
                window_both_tr += 1;
            }
        }
        if !in_day(resp.created) {
            continue;
        }
        ours_nrd += 1;
        if nod_sees {
            both_nrd += 1;
        }
        if c.status == TransientStatus::Confirmed {
            ours_tr += 1;
            if nod_sees {
                both_tr += 1;
            }
        }
    }
    let mut nod_nrd = 0u64;
    let mut nod_tr = 0u64;
    let mut window_nod_tr = 0u64;
    for (id, _) in inputs.nod.iter() {
        let r = universe.get(id);
        if label_of(r.tld).is_none() {
            continue;
        }
        if r.kind == DomainKind::Transient {
            window_nod_tr += 1;
        }
        if !in_day(r.created) {
            continue;
        }
        nod_nrd += 1;
        if r.kind == DomainKind::Transient {
            nod_tr += 1;
        }
    }
    let union_nrd = ours_nrd + nod_nrd - both_nrd;
    let union_tr = ours_tr + nod_tr - both_tr;
    let window_union_tr = window_ours_tr + window_nod_tr - window_both_tr;
    let visibility = VisibilityReport {
        comparison_day: day,
        ours_nrd,
        nod_nrd,
        both_nrd,
        overlap_pct: pct(both_nrd, union_nrd),
        ours_transient: ours_tr,
        nod_transient: nod_tr,
        both_transient: both_tr,
        transient_union: union_tr,
        transient_overlap_pct: pct(both_tr, union_tr),
        window_ours_transient: window_ours_tr,
        window_nod_transient: window_nod_tr,
        window_both_transient: window_both_tr,
        window_transient_overlap_pct: pct(window_both_tr, window_union_tr),
    };

    // ---- §4.4 ccTLD ground truth ------------------------------------------
    let cctld = cfg
        .tlds
        .iter()
        .position(|t| !t.in_czds)
        .map(|idx| {
            let tld = TldId(idx as u16);
            let mut deleted_under_24h = 0u64;
            let mut never_in_snapshot = 0u64;
            for r in universe.in_tld(tld) {
                if !r.kind.has_registration() || r.created < window_start {
                    continue;
                }
                let short = matches!(r.lifetime(), Some(l) if l <= SimDuration::from_hours(24));
                if short && r.deleted_within(window_start, window_end) {
                    deleted_under_24h += 1;
                    if !inputs.oracle.appeared_in_any(r) {
                        never_in_snapshot += 1;
                    }
                }
            }
            let detected = inputs
                .classified
                .iter()
                .filter(|c| {
                    c.status != TransientStatus::AppearedInZone
                        && universe.get(c.validated.candidate.record).tld == tld
                        && universe.get(c.validated.candidate.record).kind
                            == DomainKind::Transient
                })
                .count() as u64;
            CctldReport {
                tld: cfg.tlds[idx].name.clone(),
                deleted_under_24h,
                never_in_snapshot,
                detected_by_pipeline: detected,
                recall_pct: pct(detected, never_in_snapshot),
            }
        });

    Report {
        seed: cfg.seed,
        scale: cfg.workload.scale,
        window_days: cfg.workload.window_days,
        universe_size: universe.len() as u64,
        nrd_total,
        zone_nrd_total,
        coverage_pct: pct(nrd_total, zone_nrd_total),
        table1,
        table2,
        figure1,
        figure1_half_detected_within_secs: figure1_half,
        figure2,
        figure2_median_lifetime_hours,
        table3,
        table4,
        table5,
        ns_stability,
        rdap_failures,
        blocklists,
        visibility,
        cctld,
        transients: funnel,
    }
}

fn pct(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        100.0 * num as f64 / denom as f64
    }
}

impl Report {
    /// Render all tables as aligned text, paper-style.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "DarkDNS reproduction — seed {} scale {} window {} days ({} records)",
            self.seed, self.scale, self.window_days, self.universe_size
        );
        let _ = writeln!(
            s,
            "\nCT-observed NRDs: {}   zone NRDs: {}   coverage: {:.1}%",
            self.nrd_total, self.zone_nrd_total, self.coverage_pct
        );

        let _ = writeln!(s, "\nTable 1: Top TLDs by newly registered domains (CT-observed)");
        let _ = writeln!(
            s,
            "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
            "TLD", "Nov", "Dec", "Jan", "Total", "Zone NRD", "Cov (%)"
        );
        for r in &self.table1 {
            let _ = writeln!(
                s,
                "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>8.1}%",
                r.tld, r.monthly[0], r.monthly[1], r.monthly[2], r.total, r.zone_nrd, r.coverage_pct
            );
        }

        let _ = writeln!(s, "\nTable 2: Transient domain candidates");
        let _ = writeln!(s, "{:<8} {:>7} {:>7} {:>7} {:>8}", "TLD", "Nov", "Dec", "Jan", "Total");
        for r in &self.table2 {
            let _ = writeln!(
                s,
                "{:<8} {:>7} {:>7} {:>7} {:>8}",
                r.tld, r.monthly[0], r.monthly[1], r.monthly[2], r.total
            );
        }
        let t = &self.transients;
        let _ = writeln!(
            s,
            "funnel: {} candidates → {} RDAP-failed, {} misclassified → {} confirmed \
             ({} cert-less transients invisible in ground truth)",
            t.candidates, t.rdap_failed, t.misclassified, t.confirmed, t.invisible_ground_truth
        );

        let _ = writeln!(s, "\nFigure 1: detection latency CDF (CT time − RDAP creation)");
        let _ = writeln!(
            s,
            "50% of domains detected within {} (paper: 45 min)",
            SimDuration::from_secs(self.figure1_half_detected_within_secs)
        );
        for series in &self.figure1 {
            let row: Vec<String> =
                series.series.iter().map(|(e, f)| format!("{}:{:.2}", fmt_secs(*e), f)).collect();
            let _ = writeln!(s, "  {:<8} [{} samples] {}", series.tld, series.samples, row.join(" "));
        }

        let _ = writeln!(s, "\nFigure 2: transient lifetime CDF");
        let _ = writeln!(
            s,
            "median lifetime {:.1} h (paper: >50% dead within 6 h)",
            self.figure2_median_lifetime_hours
        );
        let row: Vec<String> =
            self.figure2.iter().map(|(e, f)| format!("{}h:{:.2}", (*e as u64) / 3_600, f)).collect();
        let _ = writeln!(s, "  {}", row.join(" "));

        for (title, rows) in [
            ("Table 3: Transient registrar distribution", &self.table3),
            ("Table 4: Transient DNS hosting (NS SLD)", &self.table4),
            ("Table 5: Transient web hosting (A-record ASN)", &self.table5),
        ] {
            let _ = writeln!(s, "\n{title}");
            for r in rows {
                let _ = writeln!(s, "  {:<28} {:>7}  {:>5.1}%", r.label, r.count, r.pct);
            }
        }

        let ns = &self.ns_stability;
        let _ = writeln!(
            s,
            "\n§4.1 NS stability: {}/{} changed NS within 24 h → {:.1}% kept (paper: 97.5%)",
            ns.changed_within_24h, ns.monitored, ns.kept_pct
        );

        let rf = &self.rdap_failures;
        let _ = writeln!(
            s,
            "\n§4.2 RDAP failures: NRD {:.1}% ({}/{})  transient {:.1}% ({}/{})",
            rf.nrd_failure_pct, rf.nrd_failures, rf.nrd_queries, rf.transient_failure_pct,
            rf.transient_failures, rf.transient_queries
        );
        for (cause, count) in &rf.causes {
            let _ = writeln!(s, "    {cause}: {count}");
        }
        let _ = writeln!(
            s,
            "  failed transients with DZDB history: {:.1}% (paper: 97%)",
            rf.failed_with_history_pct
        );

        let bl = &self.blocklists;
        let _ = writeln!(
            s,
            "\n§4.3 blocklists — early-removed NRDs ({} deleted before window end):",
            bl.early_removed_total
        );
        let _ = writeln!(
            s,
            "  flagged {:.1}% ({}); before-reg {}, active {}, post-deletion {}",
            bl.early_removed.flagged_pct,
            bl.early_removed.flagged,
            bl.early_removed.before_registration,
            bl.early_removed.while_active,
            bl.early_removed.after_deletion
        );
        let _ = writeln!(
            s,
            "  transients: flagged {:.1}% ({}); same-day {}, before-reg {}, post-deletion {} ({:.0}%)",
            bl.transient.flagged_pct,
            bl.transient.flagged,
            bl.transient.same_day,
            bl.transient.before_registration,
            bl.transient.after_deletion,
            pct(bl.transient.after_deletion, bl.transient.flagged.max(1))
        );

        let v = &self.visibility;
        let _ = writeln!(
            s,
            "\n§4.4 NOD comparison (day {}): ours {} vs NOD {} NRDs, overlap {:.1}%; \
             transients ours {} vs NOD {}, union {}, both {:.1}%",
            v.comparison_day, v.ours_nrd, v.nod_nrd, v.overlap_pct, v.ours_transient,
            v.nod_transient, v.transient_union, v.transient_overlap_pct
        );
        let _ = writeln!(
            s,
            "      whole-window transients: ours {} vs NOD {}, both {:.1}% (paper: 33%)",
            v.window_ours_transient, v.window_nod_transient, v.window_transient_overlap_pct
        );

        if let Some(c) = &self.cctld {
            let _ = writeln!(
                s,
                "§4.4 ccTLD .{}: {} deleted <24 h, {} never in snapshots, {} detected → recall {:.1}% (paper: 29.6%)",
                c.tld, c.deleted_under_24h, c.never_in_snapshot, c.detected_by_pipeline, c.recall_pct
            );
        }
        s
    }
}

fn fmt_secs(e: f64) -> String {
    let secs = e as u64;
    if secs < 60 {
        format!("{secs}s")
    } else if secs < 3_600 {
        format!("{}m", secs / 60)
    } else if secs < 86_400 {
        format!("{}h", secs / 3_600)
    } else {
        format!("{}d", secs / 86_400)
    }
}
