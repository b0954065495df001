//! The CZDS consumer workflow: materialise two daily snapshots of a TLD
//! zone, round-trip them through the on-disk zone-file format, diff
//! them, and verify the delta applies cleanly.
//!
//! This is the "diff yesterday's snapshot against today's" loop every
//! CZDS-based research pipeline (including the paper's Table 1 `Zone
//! NRD` column) runs at scale.
//!
//! ```sh
//! cargo run --release --example zone_diffing [seed]
//! ```

use darkdns::dns::diff::sorted_merge_diff;
use darkdns::dns::ZoneSnapshot;
use darkdns::registry::czds::{SnapshotOracle, SnapshotSchedule};
use darkdns::registry::hosting::HostingLandscape;
use darkdns::registry::registrar::RegistrarFleet;
use darkdns::registry::tld::{paper_gtlds, TldId};
use darkdns::registry::workload::{UniverseBuilder, WorkloadConfig};
use darkdns::sim::rng::RngPool;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let tlds = paper_gtlds();
    let fleet = RegistrarFleet::paper_fleet();
    let hosting = HostingLandscape::paper_landscape();
    let config = WorkloadConfig {
        scale: 0.002,
        window_days: 5,
        base_population_frac: 0.01,
        ..WorkloadConfig::default()
    };
    let pool = RngPool::new(seed);
    let schedule = SnapshotSchedule::new(&pool, &tlds, config.window_start, config.window_days);
    let universe = UniverseBuilder {
        tlds: &tlds,
        fleet: &fleet,
        hosting: &hosting,
        schedule: &schedule,
        config,
    }
    .build(&pool);
    let oracle = SnapshotOracle::new(&schedule);

    // Materialise two consecutive .com snapshots.
    let com = TldId(0);
    let yesterday = oracle.materialize(&universe, &tlds, com, 2);
    let today = oracle.materialize(&universe, &tlds, com, 3);
    println!(
        "materialised .com snapshots (seed {seed}): day 2 = {} delegations, day 3 = {}",
        yesterday.len(),
        today.len()
    );

    // Round-trip through the CZDS-style text format on disk.
    let dir = std::env::temp_dir().join("darkdns-zone-diffing");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("com-day2.zone");
    std::fs::write(&path, yesterday.to_text()).expect("write zone file");
    let reparsed = ZoneSnapshot::parse_text(&std::fs::read_to_string(&path).expect("read back"))
        .expect("parse zone file");
    assert_eq!(reparsed, yesterday, "on-disk round trip must be lossless");
    println!("zone file round trip OK ({})", path.display());

    let merge = sorted_merge_diff(&yesterday, &today);
    println!(
        "\nzone diff day 2 → day 3: +{} added, -{} removed, ~{} NS-changed",
        merge.added.len(),
        merge.removed.len(),
        merge.changed.len()
    );
    println!("sample additions (the `Zone NRD` population of Table 1):");
    for (domain, ns) in merge.added.iter().take(8) {
        println!("  {:<40} NS {}", domain.as_str(), ns[0]);
    }

    // Applying the delta to yesterday reproduces today exactly.
    let rebuilt = merge.apply(&yesterday, today.serial(), today.taken_at());
    assert_eq!(rebuilt, today, "apply(diff(a,b), a) == b");
    println!("\ndelta application verified: apply(diff(a,b), a) == b");
}
