//! Regenerates Table 1: top TLDs by CT-observed newly registered domains,
//! with per-month counts and zone-NRD coverage. Also prints the §4
//! headline aggregates (CT total vs zone-diff total, overall coverage —
//! paper: 6.8M / 16.3M / 42.0%).

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    let r = &arts.report;
    println!(
        "Table 1 (seed {seed}, scale {}, {} days)\n\
         CT-observed NRDs: {}   zone NRDs: {}   coverage: {:.1}% (paper: 42.0%)\n",
        r.scale, r.window_days, r.nrd_total, r.zone_nrd_total, r.coverage_pct
    );
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "TLD", "Nov", "Dec", "Jan", "Total", "Zone NRD", "Cov (%)"
    );
    for row in &r.table1 {
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>8.1}%",
            row.tld, row.monthly[0], row.monthly[1], row.monthly[2], row.total, row.zone_nrd,
            row.coverage_pct
        );
    }
}
