//! Regenerates Table 2: transient domain candidates per TLD per month
//! (paper total: 68,042 ≈ 1% of CT-observed NRDs), plus the §4.2 funnel
//! down to confirmed transients (paper: 42,358).

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    let r = &arts.report;
    println!("Table 2 (seed {seed}, scale {})\n", r.scale);
    println!("{:<8} {:>7} {:>7} {:>7} {:>8}", "TLD", "Nov", "Dec", "Jan", "Total");
    for row in &r.table2 {
        println!(
            "{:<8} {:>7} {:>7} {:>7} {:>8}",
            row.tld, row.monthly[0], row.monthly[1], row.monthly[2], row.total
        );
    }
    let t = &r.transients;
    println!(
        "\ntransient candidates: {} ({:.2}% of {} CT-observed NRDs; paper ≈1%)",
        t.candidates,
        100.0 * t.candidates as f64 / r.nrd_total.max(1) as f64,
        r.nrd_total
    );
    println!(
        "funnel: {} → RDAP-failed {} → misclassified {} → confirmed {} (paper: 68,042 → 42,358)",
        t.candidates, t.rdap_failed, t.misclassified, t.confirmed
    );
    println!(
        "ground truth also holds {} cert-less transients the pipeline cannot see (lower bound)",
        t.invisible_ground_truth
    );
}
