//! Simulated time.
//!
//! The simulation clock counts whole seconds from an arbitrary epoch
//! (second 0 is the start of the observation window, which the experiment
//! configuration maps onto 1 Nov 2023 when labelling output). One-second
//! resolution is sufficient: the finest-grained phenomenon in the paper is
//! the 60-second zone-update cadence of `.com`/`.net`, and the finest
//! reporting bucket in Figure 1 is 30 seconds.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in whole seconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of simulated time, in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

const SECS_PER_MINUTE: u64 = 60;
pub const SECS_PER_HOUR: u64 = 3_600;
pub const SECS_PER_DAY: u64 = 86_400;

impl SimTime {
    /// The simulation epoch (second zero).
    pub const ZERO: SimTime = SimTime(0);

    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * SECS_PER_HOUR)
    }

    pub const fn from_days(d: u64) -> Self {
        SimTime(d * SECS_PER_DAY)
    }

    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Zero-based day index containing this instant.
    pub const fn day(self) -> u64 {
        self.0 / SECS_PER_DAY
    }

    /// Seconds elapsed since the start of the containing day.
    pub const fn second_of_day(self) -> u64 {
        self.0 % SECS_PER_DAY
    }

    /// The elapsed duration since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    pub const fn from_minutes(m: u64) -> Self {
        SimDuration(m * SECS_PER_MINUTE)
    }

    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * SECS_PER_HOUR)
    }

    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * SECS_PER_DAY)
    }

    pub const fn as_secs(self) -> u64 {
        self.0
    }

    pub const fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            self.day(),
            self.second_of_day() / SECS_PER_HOUR,
            (self.second_of_day() % SECS_PER_HOUR) / SECS_PER_MINUTE,
            self.second_of_day() % SECS_PER_MINUTE
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s < SECS_PER_MINUTE {
            write!(f, "{s}s")
        } else if s < SECS_PER_HOUR {
            write!(f, "{}m{}s", s / SECS_PER_MINUTE, s % SECS_PER_MINUTE)
        } else if s < SECS_PER_DAY {
            write!(f, "{}h{}m", s / SECS_PER_HOUR, (s % SECS_PER_HOUR) / SECS_PER_MINUTE)
        } else {
            write!(f, "{}d{}h", s / SECS_PER_DAY, (s % SECS_PER_DAY) / SECS_PER_HOUR)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_hours(2), SimTime::from_secs(7_200));
        assert_eq!(SimTime::from_days(1), SimTime::from_secs(86_400));
        assert_eq!(SimDuration::from_days(3).as_secs(), 3 * 86_400);
    }

    #[test]
    fn day_arithmetic() {
        let t = SimTime::from_days(5) + SimDuration::from_hours(7);
        assert_eq!(t.day(), 5);
        assert_eq!(t.second_of_day(), 7 * 3_600);
    }

    #[test]
    fn midnight_belongs_to_the_new_day() {
        let t = SimTime::from_days(2);
        assert_eq!(t.day(), 2);
        assert_eq!(t.second_of_day(), 0);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_secs(40);
        assert_eq!(a.saturating_since(b), SimDuration::from_secs(60));
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(45).to_string(), "45s");
        assert_eq!(SimDuration::from_secs(125).to_string(), "2m5s");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3h0m");
        assert_eq!(SimDuration::from_days(2).to_string(), "2d0h");
        assert_eq!(
            (SimTime::from_days(1) + SimDuration::from_secs(3_661)).to_string(),
            "d1+01:01:01"
        );
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(
            SimTime::from_secs(10).saturating_sub(SimDuration::from_secs(4)),
            SimTime::from_secs(6)
        );
        assert_eq!(
            SimTime::from_secs(5).saturating_sub(SimDuration::from_secs(10)),
            SimTime::ZERO
        );
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
