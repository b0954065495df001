//! Order statistics for per-run values.
//!
//! Noise rule (c): every per-run value is the **median over equal
//! windows** of the per-window statistic, never the best window. The
//! best window is an extreme-value statistic — it gets better the longer
//! one looks, and says how quiet the host can be, not how fast the code
//! is.

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` in any order.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The `p`-quantile of `values` in any order.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// A per-run value with the spread of the windows it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Median over windows of the per-window statistic.
    pub median: f64,
    /// Interquartile range of the per-window statistics.
    pub iqr: f64,
    /// Windows that held at least one sample.
    pub windows: usize,
}

/// Summarise one statistic per window.
pub fn summarize_windows(per_window: &[f64]) -> WindowSummary {
    let s = sorted(per_window);
    WindowSummary {
        median: percentile(&s, 0.5),
        iqr: percentile(&s, 0.75) - percentile(&s, 0.25),
        windows: s.len(),
    }
}

/// Median over windows of each window's own `p`-quantile; windows with
/// no sample are skipped.
pub fn windowed_quantile<'a>(
    windows: impl IntoIterator<Item = &'a Vec<f64>>,
    p: f64,
) -> WindowSummary {
    let per_window: Vec<f64> = windows
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, p))
        .collect();
    summarize_windows(&per_window)
}
