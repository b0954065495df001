//! Regenerates the §4.4 one-day visibility-gap comparison against the
//! commercial passive-DNS NOD feed. Paper: NOD held ≈5% more NRDs with
//! ≈60% overlap; for transients 855 total across both feeds, only 33%
//! seen by both, NOD ≈10% larger — the feeds are complementary.

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    let v = &arts.report.visibility;
    println!("§4.4 visibility gap, one-day NOD comparison (seed {seed}, day {})\n", v.comparison_day);
    println!("NRDs registered that day:");
    println!("  our CT feed:  {}", v.ours_nrd);
    println!(
        "  SIE NOD feed: {} ({:+.1}% vs ours; paper ≈ +5%)",
        v.nod_nrd,
        100.0 * (v.nod_nrd as f64 - v.ours_nrd as f64) / v.ours_nrd.max(1) as f64
    );
    println!("  both:         {} (overlap {:.1}% of union; paper ≈60%)", v.both_nrd, v.overlap_pct);
    println!("\ntransients that day:");
    println!("  ours {} vs NOD {}; union {}", v.ours_transient, v.nod_transient, v.transient_union);
    println!(
        "  both: {} ({:.1}% of union; paper 33%)",
        v.both_transient, v.transient_overlap_pct
    );
    println!("\nwhole-window transients (for statistical weight at this scale):");
    println!(
        "  ours {} vs NOD {}; both {} ({:.1}% of union; paper 33%)",
        v.window_ours_transient,
        v.window_nod_transient,
        v.window_both_transient,
        v.window_transient_overlap_pct
    );
}
