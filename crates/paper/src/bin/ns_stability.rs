//! Regenerates the §4.1 NS-infrastructure stability statistic: the
//! fraction of monitored NRDs that kept their initial nameserver set over
//! the first 24 hours. Paper: 97.5% kept, 2.5% changed (changes a daily
//! snapshot diff can miss depending on timing).

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    let ns = &arts.report.ns_stability;
    println!("§4.1 NS stability (seed {seed})\n");
    println!("monitored NRDs:         {}", ns.monitored);
    println!("changed NS within 24 h: {}", ns.changed_within_24h);
    println!("kept initial NS:        {:.1}% (paper: 97.5%)", ns.kept_pct);
}
