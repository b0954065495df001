//! Shared harness for the regeneration binaries and Criterion benches.
//!
//! Every table/figure binary runs the same paper-shaped experiment
//! (`ExperimentConfig::paper(seed)`, seed 42 unless overridden by the
//! first CLI argument) and prints its section. The experiment is
//! deterministic, so all binaries report slices of the same run.

use darkdns_core::config::ExperimentConfig;
use darkdns_core::experiment::{Experiment, RunArtifacts};

/// Default seed used across all regeneration binaries.
const DEFAULT_SEED: u64 = 42;

/// Seed from `argv[1]`, or the default.
pub fn seed_from_args() -> u64 {
    std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEED)
}

/// Run the paper-shaped experiment.
pub fn run_paper(seed: u64) -> RunArtifacts {
    Experiment::new(ExperimentConfig::paper(seed)).run_with_artifacts()
}

/// Build a synthetic pair of zone snapshots with `size` entries and
/// `churn` fraction added/removed/changed — the diff-bench workload.
pub mod synth {
    use darkdns_dns::{DomainName, Serial, ZoneSnapshot};
    use darkdns_sim::time::SimTime;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    pub fn snapshot_pair(size: usize, churn: f64, seed: u64) -> (ZoneSnapshot, ZoneSnapshot) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ns_a = DomainName::parse("ns1.cloudflare.com").unwrap();
        let ns_b = DomainName::parse("ns1.domaincontrol.com").unwrap();
        let origin = DomainName::parse("com").unwrap();
        let mut old = Vec::with_capacity(size);
        let mut new = Vec::with_capacity(size);
        for i in 0..size {
            let name = DomainName::parse(&format!("domain-{i:09}.com")).unwrap();
            let roll: f64 = rng.gen();
            if roll < churn / 3.0 {
                // removed: only in old
                old.push((name, vec![ns_a.clone()]));
            } else if roll < 2.0 * churn / 3.0 {
                // added: only in new
                new.push((name, vec![ns_a.clone()]));
            } else if roll < churn {
                // changed NS
                old.push((name.clone(), vec![ns_a.clone()]));
                new.push((name, vec![ns_b.clone()]));
            } else {
                old.push((name.clone(), vec![ns_a.clone()]));
                new.push((name, vec![ns_a.clone()]));
            }
        }
        (
            ZoneSnapshot::from_entries(origin.clone(), Serial::new(1), SimTime::ZERO, old),
            ZoneSnapshot::from_entries(origin, Serial::new(2), SimTime::from_days(1), new),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_dns::diff::sorted_merge_diff;

    #[test]
    fn synth_pair_has_requested_churn() {
        let (old, new) = synth::snapshot_pair(10_000, 0.03, 1);
        let delta = sorted_merge_diff(&old, &new);
        let churn_frac = delta.len() as f64 / 10_000.0;
        assert!((0.02..0.04).contains(&churn_frac), "churn {churn_frac}");
    }
}
