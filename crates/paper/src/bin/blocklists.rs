//! Regenerates the §4.3 blocklist analysis: how often the ten monitored
//! blocklists flag early-removed NRDs (paper: 6.6%, 92% while active) and
//! transient domains (paper: 5% flagged, 94% only after deletion).

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    let bl = &arts.report.blocklists;
    println!("§4.3 blocklists (seed {seed})\n");
    let er = &bl.early_removed;
    println!("early-removed NRDs (deleted before window end): {}", bl.early_removed_total);
    println!(
        "  flagged: {} ({:.1}%; paper 6.6%)\n  before registration: {} ({:.1}%; paper 3%)\n  while active: {} ({:.1}%; paper 92%)\n  after deletion: {} ({:.1}%; paper 5%)",
        er.flagged,
        er.flagged_pct,
        er.before_registration,
        pct(er.before_registration, er.flagged),
        er.while_active,
        pct(er.while_active, er.flagged),
        er.after_deletion,
        pct(er.after_deletion, er.flagged),
    );
    let tr = &bl.transient;
    println!("\nconfirmed transients: {}", tr.population);
    println!(
        "  flagged: {} ({:.1}%; paper 5%)\n  same-day: {} ({:.1}%; paper 5%)\n  before registration: {} ({:.1}%; paper 1%)\n  after deletion: {} ({:.1}%; paper 94%)",
        tr.flagged,
        tr.flagged_pct,
        tr.same_day,
        pct(tr.same_day, tr.flagged),
        tr.before_registration,
        pct(tr.before_registration, tr.flagged),
        tr.after_deletion,
        pct(tr.after_deletion, tr.flagged),
    );
}

fn pct(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}
