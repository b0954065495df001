//! Distribution samplers used by the ecosystem simulator.
//!
//! Implemented from first principles on top of `Rng::gen::<f64>()` rather
//! than pulling in `rand_distr`: the workspace only needs one continuous
//! family (log-normal, for latencies) and a weighted categorical, and
//! keeping them here lets the tests pin down the exact sampling algorithm
//! that the paper-reproduction numbers depend on.

use rand::Rng;

/// Log-normal distribution parameterised by the mean (`mu`) and standard
/// deviation (`sigma`) of the underlying normal, i.e. samples are
/// `exp(mu + sigma * Z)` with `Z ~ N(0,1)`.
///
/// Used for: CA issuance latency, RDAP sync lag, zone publication delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// # Panics
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0, "bad lognormal params");
        LogNormal { mu, sigma }
    }

    /// Construct from the desired *median* of the distribution (in the same
    /// unit as the samples) and `sigma`. The median of a log-normal is
    /// `exp(mu)`, which makes calibration against the paper's "50% within
    /// 45 minutes"-style statements direct.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }
}

/// One draw from N(0,1) via the Box–Muller transform. We deliberately use
/// the single-value form (discarding the second variate) so consumption of
/// the RNG stream is a fixed two draws per sample — simpler to reason about
/// for reproducibility than a cached-pair implementation.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0,1]: avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Weighted categorical sampler over `0..weights.len()` using cumulative
/// sums and binary search. Weights need not be normalised.
///
/// Used for: registrar market shares (Table 3), DNS-hosting shares
/// (Table 4), web-hosting ASN shares (Table 5), per-TLD volume shares
/// (Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// # Panics
    /// Panics if `weights` is empty, any weight is negative/non-finite, or
    /// all weights are zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty weight vector");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and non-negative");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "all weights are zero");
        WeightedIndex { cumulative, total }
    }

    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let x: f64 = rng.gen::<f64>() * self.total;
        // partition_point returns the first index whose cumulative weight
        // exceeds x, i.e. category i is chosen with probability w_i / total.
        self.cumulative.partition_point(|&c| c <= x).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xDEC0DE)
    }

    #[test]
    fn lognormal_median_calibration() {
        let d = LogNormal::from_median(45.0, 1.0);
        let mut r = rng();
        let mut below = 0;
        let n = 20_000;
        for _ in 0..n {
            if d.sample(&mut r) < 45.0 {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "median off: {frac}");
    }

    #[test]
    fn lognormal_is_positive() {
        let d = LogNormal::new(-2.0, 3.0);
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    fn weighted_index_distribution() {
        let w = WeightedIndex::new(&[1.0, 3.0, 6.0]);
        let mut counts = [0usize; 3];
        let mut r = rng();
        let n = 30_000;
        for _ in 0..n {
            counts[w.sample(&mut r)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.02);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.02);
        assert!((counts[2] as f64 / n as f64 - 0.6).abs() < 0.02);
    }

    #[test]
    fn weighted_index_zero_weight_category_never_sampled() {
        let w = WeightedIndex::new(&[0.0, 1.0]);
        let mut r = rng();
        for _ in 0..5_000 {
            assert_eq!(w.sample(&mut r), 1);
        }
    }

    #[test]
    #[should_panic(expected = "all weights are zero")]
    fn weighted_index_rejects_all_zero() {
        WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty weight vector")]
    fn weighted_index_rejects_empty() {
        WeightedIndex::new(&[]);
    }

    #[test]
    fn normal_sampler_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean off: {mean}");
        assert!((var - 1.0).abs() < 0.05, "var off: {var}");
    }
}
