//! Per-TLD configuration, calibrated to the paper's Tables 1 and 2.
//!
//! Each TLD carries the operational parameters the paper identifies as the
//! mechanisms behind its results:
//!
//! * **zone-update cadence** — `.com`/`.net` push zone changes every ~60 s,
//!   other gTLDs every 15-30 min (§4.1). The cadence is the dominant term
//!   in per-TLD detection latency (Figure 1) because a certificate can only
//!   be issued once the domain is resolvable.
//! * **monthly NRD volume** — newly registered domains entering the zone
//!   per observation month (Nov/Dec/Jan), from Table 1's `Zone NRD`
//!   implied by `Total / Coverage`.
//! * **CT coverage** — the fraction of NRDs that receive a certificate
//!   promptly (Table 1's `Coverage NRD (%)` column).
//! * **transient volume** — detected transient registrations per month
//!   (Table 2), from which the generator derives the underlying (cert-less
//!   included) transient population.

use darkdns_dns::DomainName;
use darkdns_sim::time::SimDuration;
use serde::Serialize;

/// Index of a TLD within an experiment's TLD table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TldId(pub u16);

/// Number of observation months the calibration tables cover
/// (Nov 2023, Dec 2023, Jan 2024).
const MONTHS: usize = 3;

/// Day index (from window start) on which each month begins, plus the end
/// sentinel: Nov = days 0..30, Dec = 30..61, Jan = 61..92.
pub const MONTH_STARTS: [u64; MONTHS + 1] = [0, 30, 61, 92];

/// Month index for a day within the window (clamped to the last month for
/// out-of-range days, which only occur in ±3-day slack handling).
pub fn month_of_day(day: u64) -> usize {
    match day {
        d if d < MONTH_STARTS[1] => 0,
        d if d < MONTH_STARTS[2] => 1,
        _ => 2,
    }
}

/// Configuration of one simulated TLD.
#[derive(Debug, Clone, Serialize)]
pub struct TldConfig {
    /// TLD label, e.g. `com`.
    pub name: String,
    /// Whether this TLD participates in CZDS (gTLDs do; the ground-truth
    /// ccTLD `.nl` does not, and is observed via CT only).
    pub in_czds: bool,
    /// Zone-update cadence: how often the registry pushes accumulated
    /// changes to the live zone.
    pub zone_update_interval: SimDuration,
    /// NRDs entering the zone per month (Nov, Dec, Jan), **unscaled**
    /// (paper-magnitude); the workload generator applies the experiment's
    /// scale factor.
    pub monthly_zone_nrd: [f64; MONTHS],
    /// Fraction of NRDs that obtain a certificate promptly after zone
    /// insertion (Table 1 coverage).
    pub ct_coverage: f64,
    /// CT-observed transient domains per month (Table 2), unscaled. This
    /// is the *detected* count; the generator divides by the transient
    /// cert coverage to obtain the underlying population.
    pub monthly_transient_detected: [f64; MONTHS],
    /// Fraction of transient registrations that obtain a certificate (and
    /// are therefore detectable at all). The paper's ccTLD ground truth
    /// measured 29.6% for `.nl`; gTLD coverage is assumed comparable to
    /// NRD coverage.
    pub transient_ct_coverage: f64,
    /// Whether this TLD's rows are folded into the "Others" bucket when
    /// rendering Table 1/2 (the paper's tables list the top 10 and
    /// aggregate the rest).
    pub aggregate_as_other: bool,
    /// Ground-truth ccTLD mode (§4.4): when set, the transient complex is
    /// replaced by an **unscaled**, emergent short-deleted population —
    /// registrations removed within 24 hours whose transient status
    /// depends on whether their lifetime crosses a snapshot capture, as
    /// recorded by the `.nl` registry (714 sub-24 h deletions, 334 of
    /// which fell between snapshots). The values are monthly totals of
    /// sub-24 h deletions.
    pub monthly_short_deleted: Option<[f64; MONTHS]>,
}

impl TldConfig {
    pub fn domain(&self) -> DomainName {
        DomainName::parse(&self.name).expect("TLD names in config are valid")
    }

    /// Total zone NRDs across the window (unscaled).
    pub fn total_zone_nrd(&self) -> f64 {
        self.monthly_zone_nrd.iter().sum()
    }
}

fn gtld(
    name: &str,
    cadence_secs: u64,
    monthly_zone_nrd: [f64; MONTHS],
    ct_coverage: f64,
    monthly_transient_detected: [f64; MONTHS],
    aggregate_as_other: bool,
) -> TldConfig {
    TldConfig {
        name: name.to_owned(),
        in_czds: true,
        zone_update_interval: SimDuration::from_secs(cadence_secs),
        monthly_zone_nrd,
        ct_coverage,
        monthly_transient_detected,
        transient_ct_coverage: ct_coverage,
        aggregate_as_other,
        monthly_short_deleted: None,
    }
}

/// The paper's gTLD table, calibrated from Tables 1 and 2.
///
/// `monthly_zone_nrd` is derived as `Table-1 monthly CT total / coverage`
/// (the paper reports CT-observed monthly counts and the aggregate
/// coverage). "Others" is represented by five synthetic mid-size TLDs that
/// share the Others volume, so the top-10 ranking emerges from counting
/// rather than being hardwired.
pub fn paper_gtlds() -> Vec<TldConfig> {
    let mut tlds = vec![
        gtld("com", 60, [2_551_420.0, 2_510_869.0, 3_405_077.0], 0.442, [9_363.0, 10_597.0, 21_232.0], false),
        gtld("xyz", 900, [240_214.0, 182_497.0, 225_870.0], 0.477, [321.0, 316.0, 624.0], false),
        gtld("shop", 1_200, [209_361.0, 272_295.0, 294_194.0], 0.366, [688.0, 497.0, 507.0], false),
        gtld("online", 1_500, [188_852.0, 188_899.0, 270_846.0], 0.406, [1_800.0, 2_369.0, 1_990.0], false),
        gtld("bond", 1_800, [91_631.0, 98_264.0, 102_777.0], 0.827, [0.0, 0.0, 0.0], false),
        gtld("top", 900, [183_067.0, 164_013.0, 185_480.0], 0.452, [213.0, 161.0, 276.0], false),
        gtld("net", 60, [217_057.0, 195_973.0, 229_755.0], 0.367, [702.0, 866.0, 1_544.0], false),
        gtld("org", 1_200, [140_097.0, 141_121.0, 200_525.0], 0.381, [595.0, 602.0, 1_176.0], false),
        gtld("site", 1_500, [135_741.0, 139_183.0, 191_282.0], 0.344, [1_578.0, 1_381.0, 890.0], false),
        gtld("store", 1_800, [106_264.0, 95_790.0, 124_453.0], 0.404, [422.0, 414.0, 377.0], false),
        // `.fun` has its own Table 2 row but falls inside Table 1's Others.
        gtld("fun", 1_200, [55_000.0, 55_000.0, 60_000.0], 0.35, [185.0, 175.0, 160.0], true),
    ];
    // The remaining Others volume (Table 1: 3,009,575 zone NRDs at 34.6%
    // coverage; Table 2: 6,021 transients) split across synthetic TLDs.
    let others = [
        ("info", 1_200, 0.30),
        ("icu", 900, 0.15),
        ("club", 1_500, 0.20),
        ("live", 1_200, 0.20),
        ("biz", 1_800, 0.15),
    ];
    let others_nrd_monthly = [949_624.0 - 55_000.0, 962_427.0 - 55_000.0, 1_099_858.0 - 60_000.0];
    let others_transient_monthly = [1_609.0 - 185.0, 1_958.0 - 175.0, 2_454.0 - 160.0];
    for (name, cadence, share) in others {
        tlds.push(gtld(
            name,
            cadence,
            [
                others_nrd_monthly[0] * share,
                others_nrd_monthly[1] * share,
                others_nrd_monthly[2] * share,
            ],
            0.346,
            [
                others_transient_monthly[0] * share,
                others_transient_monthly[1] * share,
                others_transient_monthly[2] * share,
            ],
            true,
        ));
    }
    tlds
}

/// A TLD fleet of exactly `count` entries for multi-TLD-universe runs:
/// the paper's gTLD table first, extended with synthetic mid- and
/// long-tail gTLDs whose volumes decay harmonically below the smallest
/// paper TLD and whose cadences cycle the observed 5–30-minute range.
/// This is the 10–100× universe driver input: the distribution broker's
/// per-shard layout is exercised honestly only when shard count is far
/// above core count and shard volumes are skewed (as real zone files
/// are).
///
/// # Panics
/// Panics if `count == 0`.
pub fn synthetic_fleet(count: usize) -> Vec<TldConfig> {
    assert!(count > 0, "a fleet needs at least one TLD");
    let mut tlds = paper_gtlds();
    let paper_len = tlds.len();
    tlds.truncate(count);
    let cadences = [300u64, 600, 900, 1_200, 1_800];
    for i in tlds.len()..count {
        let tail_rank = (i - paper_len) + 1;
        // Harmonic decay from ~40k NRDs/month: a long tail of small
        // zones, none rivalling the paper's top-10.
        let monthly = 40_000.0 / tail_rank as f64;
        tlds.push(gtld(
            &format!("g{i:03}"),
            cadences[i % cadences.len()],
            [monthly, monthly * 0.95, monthly * 1.1],
            0.35 + 0.1 * ((i % 5) as f64 / 5.0),
            [monthly * 0.002, monthly * 0.002, monthly * 0.003],
            true,
        ));
    }
    tlds
}

/// The `.nl` ground-truth ccTLD (§4.4): outside CZDS, with the registry's
/// internal view available to the experiment as ground truth. The
/// short-deleted population is paper-magnitude and **unscaled** (714
/// sub-24-hour deletions over the window, of which 334 fell between
/// snapshots; the CT method found 99, i.e. 29.6% recall).
pub fn nl_cctld() -> TldConfig {
    TldConfig {
        name: "nl".to_owned(),
        in_czds: false,
        zone_update_interval: SimDuration::from_minutes(30),
        // ~6.3M registered; roughly 60k new registrations per month.
        monthly_zone_nrd: [60_000.0, 58_000.0, 64_000.0],
        ct_coverage: 0.52,
        // Transient volume comes from `monthly_short_deleted` instead.
        monthly_transient_detected: [0.0, 0.0, 0.0],
        transient_ct_coverage: 0.296,
        aggregate_as_other: false,
        monthly_short_deleted: Some([235.0, 240.0, 239.0]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn month_boundaries() {
        assert_eq!(month_of_day(0), 0);
        assert_eq!(month_of_day(29), 0);
        assert_eq!(month_of_day(30), 1);
        assert_eq!(month_of_day(60), 1);
        assert_eq!(month_of_day(61), 2);
        assert_eq!(month_of_day(91), 2);
        assert_eq!(month_of_day(400), 2);
    }

    #[test]
    fn paper_totals_are_close_to_table1() {
        let tlds = paper_gtlds();
        // Total CT-observed NRDs = sum over TLDs of zone_nrd * coverage,
        // which should land near the paper's 6,835,849.
        let ct_total: f64 =
            tlds.iter().map(|t| t.total_zone_nrd() * t.ct_coverage).sum();
        assert!(
            (ct_total - 6_835_849.0).abs() / 6_835_849.0 < 0.02,
            "CT total {ct_total} too far from paper"
        );
        // Zone NRD total near 16,292,141.
        let zone_total: f64 = tlds.iter().map(|t| t.total_zone_nrd()).sum();
        assert!(
            (zone_total - 16_292_141.0).abs() / 16_292_141.0 < 0.02,
            "zone total {zone_total} too far from paper"
        );
    }

    #[test]
    fn paper_transients_are_close_to_table2() {
        let tlds = paper_gtlds();
        let transient_total: f64 = tlds.iter().flat_map(|t| t.monthly_transient_detected.iter()).sum();
        // Table 2 total is 68,042 but `.bond` shows none and we folded the
        // explicit rows; allow 5%.
        assert!(
            (transient_total - 68_042.0).abs() / 68_042.0 < 0.05,
            "transient total {transient_total} too far from paper"
        );
    }

    #[test]
    fn com_and_net_update_every_minute() {
        let tlds = paper_gtlds();
        for t in &tlds {
            let secs = t.zone_update_interval.as_secs();
            if t.name == "com" || t.name == "net" {
                assert_eq!(secs, 60);
            } else {
                assert!((900..=1_800).contains(&secs), "{}: {secs}", t.name);
            }
        }
    }

    #[test]
    fn com_is_the_largest_tld() {
        let tlds = paper_gtlds();
        let com = tlds.iter().find(|t| t.name == "com").unwrap();
        for t in &tlds {
            if t.name != "com" {
                assert!(com.total_zone_nrd() > t.total_zone_nrd());
            }
        }
    }

    #[test]
    fn nl_is_outside_czds_with_low_transient_coverage() {
        let nl = nl_cctld();
        assert!(!nl.in_czds);
        assert!((nl.transient_ct_coverage - 0.296).abs() < 1e-9);
        // Registry-recorded sub-24 h deletions total ≈ 714 (paper §4.4).
        let short_deleted: f64 = nl.monthly_short_deleted.unwrap().iter().sum();
        assert!((short_deleted - 714.0).abs() < 1.0, "short-deleted {short_deleted}");
        // gTLDs do not use ground-truth mode.
        for t in paper_gtlds() {
            assert!(t.monthly_short_deleted.is_none());
        }
    }

    #[test]
    fn tld_domains_parse() {
        for t in paper_gtlds() {
            assert_eq!(t.domain().as_str(), t.name);
        }
    }

    #[test]
    fn synthetic_fleet_scales_to_requested_count() {
        for count in [1, 10, 50, 100] {
            let fleet = synthetic_fleet(count);
            assert_eq!(fleet.len(), count);
            let mut names = std::collections::HashSet::new();
            for t in &fleet {
                assert!(names.insert(t.name.clone()), "duplicate TLD {}", t.name);
                assert_eq!(t.domain().as_str(), t.name);
                assert!(t.total_zone_nrd() > 0.0);
                let secs = t.zone_update_interval.as_secs();
                assert!((60..=1_800).contains(&secs), "{}: cadence {secs}", t.name);
            }
        }
        // The synthetic tail stays below every paper top-10 TLD.
        let fleet = synthetic_fleet(100);
        let smallest_paper =
            paper_gtlds().iter().map(|t| t.total_zone_nrd()).fold(f64::MAX, f64::min);
        for t in &fleet[paper_gtlds().len()..] {
            assert!(t.total_zone_nrd() < smallest_paper, "{} too large", t.name);
        }
    }
}
