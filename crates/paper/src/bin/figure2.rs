//! Regenerates Figure 2: CDF of confirmed-transient lifetimes, estimated
//! as (last valid NS response − RDAP creation). Paper landmark: over 50%
//! of transient domains die within their first 6 hours.

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    let r = &arts.report;
    println!(
        "Figure 2 (seed {seed}): median transient lifetime {:.1} h (paper: <6 h)\n",
        r.figure2_median_lifetime_hours
    );
    println!("{:>6} {:>8}", "edge", "CDF");
    for (edge, frac) in &r.figure2 {
        println!("{:>5}h {:>8.3}", (*edge as u64) / 3_600, frac);
    }
    let under_6h = r
        .figure2
        .iter()
        .find(|(e, _)| (*e as u64) == 6 * 3_600)
        .map(|(_, f)| *f)
        .unwrap_or(0.0);
    println!("\ndead within 6h: {:.1}% (paper: >50%)", 100.0 * under_6h);
}
