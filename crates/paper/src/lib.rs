//! Shared harness for the paper's table and figure binaries.
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
