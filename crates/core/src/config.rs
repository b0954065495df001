//! Experiment configuration and presets.

use darkdns_intel::blocklist::BlocklistConfig;
use darkdns_intel::nod::NodConfig;
use darkdns_rdap::server::RdapConfig;
use darkdns_registry::tld::{nl_cctld, paper_gtlds, TldConfig};
use darkdns_registry::workload::WorkloadConfig;
use darkdns_sim::time::SimDuration;

/// Everything an [`crate::experiment::Experiment`] needs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed: two runs with equal configs and seeds are identical.
    pub seed: u64,
    pub tlds: Vec<TldConfig>,
    pub workload: WorkloadConfig,
    pub rdap: RdapConfig,
    pub blocklists: BlocklistConfig,
    pub nod: NodConfig,
    /// Delay between CT detection and the RDAP query being enqueued
    /// (stream consumer lag), median seconds.
    pub rdap_queue_median_secs: f64,
    /// Day (window-relative) used for the one-day NOD comparison (§4.4
    /// used 9 May 2024; any mid-window day works here).
    pub nod_comparison_day: u64,
}

impl ExperimentConfig {
    /// The paper-shaped experiment at 1% volume: 92 days, all gTLDs plus
    /// the `.nl` ground-truth ccTLD. Runs in seconds in release mode.
    pub fn paper(seed: u64) -> Self {
        let mut tlds = paper_gtlds();
        tlds.push(nl_cctld());
        ExperimentConfig {
            seed,
            tlds,
            workload: WorkloadConfig { scale: 0.01, ..WorkloadConfig::default() },
            rdap: RdapConfig::default(),
            blocklists: BlocklistConfig::default(),
            nod: NodConfig::default(),
            rdap_queue_median_secs: 300.0,
            nod_comparison_day: 46,
        }
    }

    /// A scaled-down universe for tests, doctests and quick examples:
    /// a handful of simulated days at reduced volume.
    pub fn small(seed: u64) -> Self {
        let mut cfg = Self::paper(seed);
        cfg.workload.scale = 0.004;
        cfg.workload.window_days = 12;
        cfg.workload.base_population_frac = 0.02;
        cfg.nod_comparison_day = 6;
        cfg
    }

    pub fn window_days(&self) -> u64 {
        self.workload.window_days
    }

    /// ±3-day transient slack plus the window itself — how long the
    /// simulation horizon must be.
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_days(self.workload.window_days + 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_includes_nl() {
        let cfg = ExperimentConfig::paper(1);
        assert!(cfg.tlds.iter().any(|t| t.name == "nl"));
        assert!(cfg.tlds.iter().any(|t| t.name == "com"));
        assert_eq!(cfg.window_days(), 92);
    }

    #[test]
    fn small_config_is_small() {
        let cfg = ExperimentConfig::small(1);
        assert!(cfg.window_days() < 20);
        assert!(cfg.workload.scale < 0.01);
        assert!(cfg.nod_comparison_day < cfg.window_days());
    }

    #[test]
    fn seeds_propagate() {
        assert_eq!(ExperimentConfig::paper(7).seed, 7);
    }
}
