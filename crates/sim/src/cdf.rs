//! Empirical cumulative distribution functions.
//!
//! Both headline figures of the paper are CDFs (Figure 1: detection latency;
//! Figure 2: transient lifetime), so the reproduction needs a small, exact
//! empirical-CDF type with quantile lookup and fixed-bucket rendering that
//! matches the paper's log-scale x-axes.

use serde::Serialize;

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Build from samples; non-finite values are rejected.
    ///
    /// # Panics
    /// Panics if any sample is NaN or infinite.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|x| x.is_finite()), "non-finite sample");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
        Cdf { sorted: samples }
    }

    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample");
        // Insertion keeping sort order; bulk use should prefer from_samples.
        let idx = self.sorted.partition_point(|&y| y <= x);
        self.sorted.insert(idx, x);
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`. Returns 0 for an empty CDF.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.partition_point(|&y| y <= x) as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (nearest-rank method), `0 < q <= 1`.
    ///
    /// # Panics
    /// Panics on an empty CDF or `q` outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!(q > 0.0 && q <= 1.0, "quantile order out of range");
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Evaluate the CDF at each of the given bucket edges, producing
    /// `(edge, fraction <= edge)` pairs — exactly the series needed to plot
    /// the paper's figures at their published tick marks.
    pub fn series(&self, edges: &[f64]) -> Vec<(f64, f64)> {
        edges.iter().map(|&e| (e, self.fraction_at_or_below(e))).collect()
    }
}

/// The x-axis tick marks of Figure 1 (detection latency), in seconds:
/// 30s, 1m, 2m, 5m, 15m, 30m, 1h, 2h, 3h, 6h, 12h, 1d, 2d.
pub const FIGURE1_EDGES_SECS: [f64; 13] = [
    30.0, 60.0, 120.0, 300.0, 900.0, 1_800.0, 3_600.0, 7_200.0, 10_800.0, 21_600.0, 43_200.0,
    86_400.0, 172_800.0,
];

/// The x-axis tick marks of Figure 2 (transient lifetime), in seconds:
/// every hour from 1h to 23h, then 1d.
pub fn figure2_edges_secs() -> Vec<f64> {
    let mut edges: Vec<f64> = (1..=23).map(|h| h as f64 * 3_600.0).collect();
    edges.push(86_400.0);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_and_quantile_agree() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(4.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.quantile(0.25), 1.0);
    }

    #[test]
    fn push_maintains_order() {
        let mut cdf = Cdf::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            cdf.push(x);
        }
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(5.0));
        assert_eq!(cdf.median(), 3.0);
    }

    #[test]
    fn series_is_monotone() {
        let cdf = Cdf::from_samples((0..1000).map(|i| i as f64).collect());
        let series = cdf.series(&FIGURE1_EDGES_SECS[..5]);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::new();
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(10.0), 0.0);
        assert_eq!(cdf.mean(), None);
        assert_eq!(cdf.min(), None);
    }

    #[test]
    #[should_panic(expected = "quantile of empty CDF")]
    fn quantile_of_empty_panics() {
        Cdf::new().quantile(0.5);
    }

    #[test]
    fn duplicates_count_fully() {
        let cdf = Cdf::from_samples(vec![2.0, 2.0, 2.0, 5.0]);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.75);
    }

    #[test]
    fn mean_of_known_samples() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0]);
        assert!((cdf.mean().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn figure_edges_are_increasing() {
        for w in FIGURE1_EDGES_SECS.windows(2) {
            assert!(w[1] > w[0]);
        }
        let f2 = figure2_edges_secs();
        assert_eq!(f2.len(), 24);
        for w in f2.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn rejects_nan() {
        Cdf::from_samples(vec![f64::NAN]);
    }
}
