//! A token bucket on simulated time.
//!
//! Registries rate-limit RDAP; the bucket is keyed per (registry, source
//! IP) by the server module. Tokens refill continuously at `rate_per_hour`
//! up to `capacity`.

use darkdns_sim::time::SimTime;

/// A continuous-refill token bucket.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    rate_per_sec: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// # Panics
    /// Panics unless `capacity > 0` and `rate_per_hour > 0`.
    pub fn new(capacity: u32, rate_per_hour: f64, now: SimTime) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(rate_per_hour > 0.0, "rate must be positive");
        TokenBucket {
            capacity: f64::from(capacity),
            rate_per_sec: rate_per_hour / 3_600.0,
            tokens: f64::from(capacity),
            last: now,
        }
    }

    fn refill(&mut self, now: SimTime) {
        // Time can only move forward; out-of-order calls refill nothing.
        if now > self.last {
            let dt = now.saturating_since(self.last).as_secs() as f64;
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.capacity);
            self.last = now;
        }
    }

    /// Take one token if available.
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_sim::time::SimDuration;

    #[test]
    fn starts_full_and_drains() {
        let now = SimTime::from_secs(0);
        let mut b = TokenBucket::new(3, 3_600.0, now);
        assert!(b.try_acquire(now));
        assert!(b.try_acquire(now));
        assert!(b.try_acquire(now));
        assert!(!b.try_acquire(now));
    }

    #[test]
    fn refills_at_rate() {
        let t0 = SimTime::from_secs(0);
        // 3600/h = 1 token/sec.
        let mut b = TokenBucket::new(2, 3_600.0, t0);
        b.try_acquire(t0);
        b.try_acquire(t0);
        assert!(!b.try_acquire(t0));
        let t1 = t0 + SimDuration::from_secs(1);
        assert!(b.try_acquire(t1));
        assert!(!b.try_acquire(t1));
    }

    #[test]
    fn never_exceeds_capacity() {
        let t0 = SimTime::from_secs(0);
        let mut b = TokenBucket::new(5, 3_600.0, t0);
        let much_later = t0 + SimDuration::from_days(1);
        // A day's refill tops out at the five the bucket holds.
        for _ in 0..5 {
            assert!(b.try_acquire(much_later));
        }
        assert!(!b.try_acquire(much_later));
    }

    #[test]
    fn centralnic_style_limit() {
        // 7,200/h refills 2 tokens/s; a burst of 100 queries in 10 s far
        // exceeds capacity 10 + ~20 refilled and must be mostly denied.
        let t0 = SimTime::from_secs(0);
        let mut b = TokenBucket::new(10, 7_200.0, t0);
        let mut denied = 0;
        for i in 0..100 {
            let now = t0 + SimDuration::from_secs(i / 10);
            if !b.try_acquire(now) {
                denied += 1;
            }
        }
        assert!((60..=80).contains(&denied), "denied {denied}, expected ~70");
    }

    #[test]
    fn time_going_backwards_is_tolerated() {
        let t0 = SimTime::from_secs(100);
        let mut b = TokenBucket::new(1, 3_600.0, t0);
        assert!(b.try_acquire(t0));
        // An out-of-order call neither panics nor mints tokens.
        assert!(!b.try_acquire(SimTime::from_secs(50)));
    }
}
