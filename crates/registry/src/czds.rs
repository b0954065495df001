//! The CZDS snapshot schedule and membership oracle.
//!
//! CZDS shares one snapshot per zone per day. Two operational details of
//! that pipeline drive the paper's findings and are modelled explicitly:
//!
//! * **capture vs. availability** — a snapshot reflects the zone at its
//!   capture instant but only becomes *available* to consumers after a
//!   publication delay. Most snapshots appear within hours; occasionally a
//!   zone is published days late ("zone file publication may be delayed by
//!   days", §3), which both creates false "new domain" inferences and is
//!   why the transient classifier uses a ±3-day slack window.
//! * **the 24-hour gap** — anything registered and deleted strictly
//!   between two capture instants is invisible to every snapshot: the
//!   transient-domain blind spot.
//!
//! The [`SnapshotOracle`] answers the two questions the pipeline asks —
//! "is this domain in the latest snapshot available right now?" and "did
//! this domain appear in any snapshot over the window?" — directly from
//! the simulation ground truth. This is behaviourally identical to
//! materialising every daily [`darkdns_dns::ZoneSnapshot`] (a domain is in
//! a snapshot iff it was in the zone at the capture instant) but does not
//! require holding 92 days × N TLDs of million-entry tables in memory;
//! materialisation is still available for small universes via
//! [`SnapshotOracle::materialize`].

use crate::tld::{TldConfig, TldId};
use crate::universe::{DomainRecord, Universe};
use darkdns_dns::{Serial, ZoneSnapshot};
use darkdns_sim::rng::RngPool;
use darkdns_sim::time::{SimDuration, SimTime, SECS_PER_DAY};
use rand::Rng;

/// Per-TLD daily snapshot timing.
#[derive(Debug, Clone)]
pub struct SnapshotSchedule {
    tld_count: usize,
    /// Absolute time of window day 0 (the universe keeps several hundred
    /// days of pre-window history for RDAP/DZDB realism, so day 0 of the
    /// observation window is not second 0 of the simulation).
    window_start: SimTime,
    /// Days 0..=max_day have snapshots (max_day = window + slack).
    max_day: u64,
    /// Second-of-day at which each TLD's snapshot is captured.
    capture_second: Vec<u64>,
    /// Publication delay per (tld, day), seconds.
    delay: Vec<Vec<u64>>,
}

/// Days of slack the transient classifier allows for late publication.
const SLACK_DAYS: u64 = 3;

impl SnapshotSchedule {
    /// Build the schedule for `window_days` of observation starting at
    /// `window_start`. Publication delays are drawn from the pool's
    /// `czds.delay` stream: a few hours ordinarily, with periodic
    /// multi-day outages (roughly one snapshot in thirty is 2-4 days
    /// late).
    pub fn new(
        pool: &RngPool,
        tlds: &[TldConfig],
        window_start: SimTime,
        window_days: u64,
    ) -> Self {
        let max_day = window_days + SLACK_DAYS;
        let mut capture_second = Vec::with_capacity(tlds.len());
        let mut delay = Vec::with_capacity(tlds.len());
        for (i, _tld) in tlds.iter().enumerate() {
            // Capture shortly after midnight, staggered per TLD.
            capture_second.push((i as u64 * 97) % 1_800);
            let mut rng = pool.indexed_stream("czds.delay", i as u64);
            let mut days: Vec<u64> = Vec::with_capacity(max_day as usize + 1);
            let mut day = 0u64;
            while day <= max_day {
                if rng.gen::<f64>() < 1.0 / 45.0 {
                    // A publication outage: the pipeline for this zone is
                    // broken for `run` consecutive days and every snapshot
                    // captured meanwhile appears only once it recovers.
                    // (A single late day would not hide anything — the
                    // next day's on-time snapshot would cover the domain —
                    // so real visibility gaps come from runs.)
                    let run = rng.gen_range(2..=3u64);
                    let recovery_jitter = rng.gen_range(3_600..6 * 3_600);
                    for k in 0..run {
                        if day + k > max_day {
                            break;
                        }
                        days.push((run - k) * SECS_PER_DAY + recovery_jitter);
                    }
                    day += run;
                } else {
                    // 30 min - 6 h ordinary pipeline latency.
                    days.push(rng.gen_range(1_800..6 * 3_600));
                    day += 1;
                }
            }
            days.truncate(max_day as usize + 1);
            delay.push(days);
        }
        SnapshotSchedule { tld_count: tlds.len(), window_start, max_day, capture_second, delay }
    }

    pub fn max_day(&self) -> u64 {
        self.max_day
    }

    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    /// Capture instant of `tld`'s snapshot for window-relative `day`.
    ///
    /// # Panics
    /// Panics if `day > max_day` or the TLD is out of range.
    pub fn capture_time(&self, tld: TldId, day: u64) -> SimTime {
        assert!(day <= self.max_day, "no snapshot for day {day}");
        self.window_start
            + SimDuration::from_days(day)
            + SimDuration::from_secs(self.capture_second[tld.0 as usize])
    }

    /// When the snapshot for (`tld`, `day`) becomes available to consumers.
    pub fn available_at(&self, tld: TldId, day: u64) -> SimTime {
        self.capture_time(tld, day) + SimDuration::from_secs(self.delay[tld.0 as usize][day as usize])
    }

    /// True if the (tld, day) snapshot was published multi-day late.
    pub fn is_late(&self, tld: TldId, day: u64) -> bool {
        self.delay[tld.0 as usize][day as usize] >= SECS_PER_DAY
    }

    /// The newest snapshot day whose publication precedes `now`, if any.
    pub fn latest_available_day(&self, tld: TldId, now: SimTime) -> Option<u64> {
        if now < self.window_start {
            return None;
        }
        let mut day = now.saturating_since(self.window_start).as_secs() / SECS_PER_DAY;
        day = day.min(self.max_day);
        loop {
            if self.available_at(tld, day) <= now {
                return Some(day);
            }
            if day == 0 {
                return None;
            }
            day -= 1;
        }
    }

    /// First snapshot day whose capture instant is at or after `t`.
    /// Times before the window map to day 0 (the first snapshot).
    pub fn first_capture_at_or_after(&self, tld: TldId, t: SimTime) -> Option<u64> {
        let mut day = if t <= self.window_start {
            0
        } else {
            t.saturating_since(self.window_start).as_secs() / SECS_PER_DAY
        };
        while day <= self.max_day {
            if self.capture_time(tld, day) >= t {
                return Some(day);
            }
            day += 1;
        }
        None
    }

    pub fn tld_count(&self) -> usize {
        self.tld_count
    }
}

/// Membership oracle over the schedule plus the ground-truth universe.
pub struct SnapshotOracle<'a> {
    schedule: &'a SnapshotSchedule,
}

impl<'a> SnapshotOracle<'a> {
    pub fn new(schedule: &'a SnapshotSchedule) -> Self {
        SnapshotOracle { schedule }
    }

    pub fn schedule(&self) -> &SnapshotSchedule {
        self.schedule
    }

    /// Is `record` in the snapshot captured on `day`?
    pub fn in_snapshot(&self, record: &DomainRecord, day: u64) -> bool {
        record.in_zone_at(self.schedule.capture_time(record.tld, day))
    }

    /// Is `record` in the **latest available** snapshot of its TLD at
    /// `now`? This is the pipeline's Step-1 discard test. Returns `false`
    /// when no snapshot has been published yet.
    pub fn in_latest_available(&self, record: &DomainRecord, now: SimTime) -> bool {
        match self.schedule.latest_available_day(record.tld, now) {
            Some(day) => self.in_snapshot(record, day),
            None => false,
        }
    }

    /// Has any snapshot of `tld` been published by `now`? Until the first
    /// snapshot lands, the pipeline cannot distinguish "new" from "merely
    /// unseen" and must hold candidates back (the real deployment starts
    /// with the latest CZDS snapshots already downloaded).
    pub fn baseline_available(&self, tld: TldId, now: SimTime) -> bool {
        self.schedule.latest_available_day(tld, now).is_some()
    }

    /// Did `record` appear in *any* snapshot over the whole schedule
    /// (window plus the ±3-day slack)? `false` means the domain is
    /// transient from the zone-snapshot perspective.
    pub fn appeared_in_any(&self, record: &DomainRecord) -> bool {
        if !record.kind.has_registration() {
            return false;
        }
        let Some(first_day) = self.schedule.first_capture_at_or_after(record.tld, record.zone_insert)
        else {
            return false; // inserted after the last capture
        };
        let first_capture = self.schedule.capture_time(record.tld, first_day);
        match record.removed {
            None => true,
            Some(removed) => first_capture < removed,
        }
    }

    /// Materialise the full [`ZoneSnapshot`] of one TLD for one day — used
    /// by examples, tests and the diff benches on small universes.
    pub fn materialize(
        &self,
        universe: &Universe,
        tlds: &[TldConfig],
        tld: TldId,
        day: u64,
    ) -> ZoneSnapshot {
        let capture = self.schedule.capture_time(tld, day);
        // One synthetic NS pair per provider; the hosting landscape
        // supplies real host names in the full experiment. Parse each
        // provider's host once, not once per delegation.
        let mut provider_ns: darkdns_dns::hash::NameMap<u16, Vec<darkdns_dns::DomainName>> =
            Default::default();
        let entries: Vec<_> = universe
            .in_tld(tld)
            .filter(|r| r.in_zone_at(capture))
            .map(|r| {
                let ns = provider_ns.entry(r.dns_provider.0).or_insert_with(|| {
                    vec![darkdns_dns::DomainName::parse(&format!(
                        "ns1.provider{}.net",
                        r.dns_provider.0
                    ))
                    .expect("static name is valid")]
                });
                (r.name, ns.clone())
            })
            .collect();
        ZoneSnapshot::from_entries(
            tlds[tld.0 as usize].domain(),
            Serial::new(day as u32),
            capture,
            entries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::ProviderId;
    use crate::registrar::RegistrarId;
    use crate::tld::paper_gtlds;
    use crate::universe::{CertTiming, DomainId, DomainKind};
    use darkdns_dns::DomainName;

    /// Window starts 400 days into the simulation (history space for RDAP
    /// and DZDB realism).
    const START_DAY: u64 = 400;

    fn start() -> SimTime {
        SimTime::from_days(START_DAY)
    }

    /// Absolute time `d` days and `h` hours after window start.
    fn wt(d: u64, h: u64) -> SimTime {
        start() + SimDuration::from_days(d) + SimDuration::from_hours(h)
    }

    fn schedule() -> SnapshotSchedule {
        SnapshotSchedule::new(&RngPool::new(7), &paper_gtlds(), start(), 92)
    }

    fn record(tld: TldId, zone_insert: SimTime, removed: Option<SimTime>) -> DomainRecord {
        DomainRecord {
            id: DomainId(0),
            name: DomainName::parse("x.com").unwrap(),
            tld,
            kind: DomainKind::Transient,
            created: zone_insert,
            zone_insert,
            removed,
            registrar: RegistrarId(0),
            dns_provider: ProviderId(0),
            web_asn: 13_335,
            cert_timing: CertTiming::Prompt,
            cert_hint: None,
            ns_change_at: None,
            malicious: true,
        }
    }

    #[test]
    fn captures_are_daily_near_midnight() {
        let s = schedule();
        let tld = TldId(0);
        for day in 0..5 {
            let t = s.capture_time(tld, day);
            assert_eq!(t.day(), START_DAY + day);
            assert!(t.second_of_day() < 1_800);
        }
    }

    #[test]
    fn availability_follows_capture() {
        let s = schedule();
        for tld in 0..3u16 {
            for day in 0..10 {
                let cap = s.capture_time(TldId(tld), day);
                let avail = s.available_at(TldId(tld), day);
                assert!(avail > cap);
                assert!(avail.saturating_since(cap).as_secs() < 5 * SECS_PER_DAY);
            }
        }
    }

    #[test]
    fn some_snapshots_are_late() {
        let s = schedule();
        let mut late = 0;
        let mut total = 0;
        for tld in 0..s.tld_count() as u16 {
            for day in 0..=s.max_day() {
                total += 1;
                if s.is_late(TldId(tld), day) {
                    late += 1;
                }
            }
        }
        let frac = late as f64 / total as f64;
        assert!(frac > 0.01 && frac < 0.08, "late fraction {frac}");
    }

    #[test]
    fn latest_available_day_respects_delay() {
        let s = schedule();
        let tld = TldId(0);
        // Immediately after day-5 capture, day 5 is not yet available.
        let cap5 = s.capture_time(tld, 5);
        let latest = s.latest_available_day(tld, cap5 + SimDuration::from_secs(1)).unwrap();
        assert!(latest < 5);
        // Well after its availability instant, day 5 (or later) is.
        let after = s.available_at(tld, 5) + SimDuration::from_secs(1);
        assert!(s.latest_available_day(tld, after).unwrap() >= 5);
    }

    #[test]
    fn before_first_publication_there_is_no_snapshot() {
        let s = schedule();
        assert_eq!(s.latest_available_day(TldId(0), SimTime::ZERO), None);
    }

    #[test]
    fn transient_never_appears() {
        let s = schedule();
        let oracle = SnapshotOracle::new(&s);
        // Created 09:00 day 3, dead 15:00 day 3 — between captures.
        let r = record(TldId(0), wt(3, 9), Some(wt(3, 15)));
        assert!(!oracle.appeared_in_any(&r));
    }

    #[test]
    fn overnight_domain_appears() {
        let s = schedule();
        let oracle = SnapshotOracle::new(&s);
        // Created 23:00 day 3, dead 04:00 day 4 — crosses the capture.
        let r = record(TldId(0), wt(3, 23), Some(wt(4, 4)));
        assert!(oracle.appeared_in_any(&r));
    }

    #[test]
    fn long_lived_domain_appears_and_is_in_latest() {
        let s = schedule();
        let oracle = SnapshotOracle::new(&s);
        let r = record(TldId(0), wt(2, 0), None);
        assert!(oracle.appeared_in_any(&r));
        // Ten days later, the latest available snapshot contains it.
        assert!(oracle.in_latest_available(&r, wt(12, 0)));
        // The day before it was registered, it was not.
        assert!(!oracle.in_latest_available(&r, wt(1, 0)));
    }

    #[test]
    fn pre_window_registration_appears_in_day_zero_snapshot() {
        let s = schedule();
        let oracle = SnapshotOracle::new(&s);
        // Registered 100 days before the window, still alive: the day-0
        // snapshot captures it.
        let r = record(TldId(0), SimTime::from_days(START_DAY - 100), None);
        assert!(oracle.appeared_in_any(&r));
    }

    #[test]
    fn pre_window_deletion_never_appears() {
        let s = schedule();
        let oracle = SnapshotOracle::new(&s);
        // Registered and removed before the window: in no window snapshot.
        let r = record(
            TldId(0),
            SimTime::from_days(START_DAY - 100),
            Some(SimTime::from_days(START_DAY - 50)),
        );
        assert!(!oracle.appeared_in_any(&r));
    }

    #[test]
    fn ghost_never_appears() {
        let s = schedule();
        let oracle = SnapshotOracle::new(&s);
        let mut r = record(TldId(0), wt(1, 0), None);
        r.kind = DomainKind::Ghost { previously_registered: true };
        assert!(!oracle.appeared_in_any(&r));
        assert!(!oracle.in_latest_available(&r, wt(5, 0)));
    }

    #[test]
    fn insert_after_last_capture_never_appears() {
        let s = schedule();
        let oracle = SnapshotOracle::new(&s);
        let r = record(TldId(0), wt(s.max_day(), 12), None);
        assert!(!oracle.appeared_in_any(&r));
    }

    #[test]
    fn materialize_small_zone() {
        let tlds = paper_gtlds();
        let s = SnapshotSchedule::new(&RngPool::new(7), &tlds, start(), 10);
        let oracle = SnapshotOracle::new(&s);
        let mut universe = Universe::new();
        let mut alive = record(TldId(0), wt(1, 0), None);
        alive.name = DomainName::parse("alive.com").unwrap();
        universe.push(alive);
        let mut dead = record(TldId(0), wt(1, 0), Some(wt(2, 0)));
        dead.name = DomainName::parse("dead.com").unwrap();
        universe.push(dead);
        let day5 = oracle.materialize(&universe, &tlds, TldId(0), 5);
        assert!(day5.contains(&DomainName::parse("alive.com").unwrap()));
        assert!(!day5.contains(&DomainName::parse("dead.com").unwrap()));
        assert_eq!(day5.origin().as_str(), "com");
    }
}
