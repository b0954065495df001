//! Quickstart: run a scaled-down DarkDNS experiment end to end and print
//! every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release --example quickstart [seed]
//! ```
//!
//! For the full paper-shaped run (92 days, 1% of paper volume) use the
//! paper binaries, e.g. `cargo run --release -p darkdns-paper --bin
//! full_report`.

use darkdns::core::{Experiment, ExperimentConfig};

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let config = ExperimentConfig::small(seed);
    println!(
        "running the DarkDNS pipeline: {} TLDs, {} days, scale {} (seed {seed})\n",
        config.tlds.len(),
        config.window_days(),
        config.workload.scale
    );
    let report = Experiment::new(config).run();
    println!("{}", report.render_text());
}
