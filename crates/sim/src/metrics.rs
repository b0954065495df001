//! Lightweight counters for experiment bookkeeping.
//!
//! These are plain single-threaded value types (the simulation kernel is
//! synchronous).

use serde::Serialize;
use std::collections::BTreeMap;

/// A counter keyed by string label — used for per-TLD / per-registrar /
/// per-provider tallies that become the paper's tables. `BTreeMap` keeps
/// iteration (and therefore report output) deterministic.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LabelledCounter {
    counts: BTreeMap<String, u64>,
}

impl LabelledCounter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn incr(&mut self, label: &str) {
        self.add(label, 1);
    }

    pub fn add(&mut self, label: &str, n: u64) {
        *self.counts.entry(label.to_owned()).or_insert(0) += n;
    }

    pub fn get(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }

    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Labels sorted by descending count (ties broken by label for
    /// determinism) — the "Top N" ranking used by Tables 1-5.
    pub fn top(&self, n: usize) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Sum of counts not in the top `n` — the "Others" row of the tables.
    pub fn others_beyond_top(&self, n: usize) -> u64 {
        let top_sum: u64 = self.top(n).iter().map(|(_, c)| c).sum();
        self.total() - top_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labelled_counter_top_and_others() {
        let mut lc = LabelledCounter::new();
        lc.add("com", 100);
        lc.add("net", 50);
        lc.add("org", 25);
        lc.add("xyz", 10);
        let top2 = lc.top(2);
        assert_eq!(top2, vec![("com".into(), 100), ("net".into(), 50)]);
        assert_eq!(lc.others_beyond_top(2), 35);
        assert_eq!(lc.total(), 185);
        assert_eq!(lc.get("missing"), 0);
    }

    #[test]
    fn labelled_counter_tie_break_is_deterministic() {
        let mut lc = LabelledCounter::new();
        lc.add("b", 5);
        lc.add("a", 5);
        lc.add("c", 5);
        assert_eq!(
            lc.top(3),
            vec![("a".into(), 5), ("b".into(), 5), ("c".into(), 5)]
        );
    }
}
