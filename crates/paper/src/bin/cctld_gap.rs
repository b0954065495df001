//! Regenerates the §4.4 ccTLD ground-truth validation: against the `.nl`
//! registry's own records, the CT-based method recovered 99 of 334
//! never-in-snapshot transients (29.6%) — the paper's demonstration that
//! even the best public data leaves a large intra-day blind spot.

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    match &arts.report.cctld {
        Some(c) => {
            println!("§4.4 ccTLD ground truth (seed {seed}, .{})\n", c.tld);
            println!("registry-recorded deletions <24 h: {} (paper: 714)", c.deleted_under_24h);
            println!("never captured by any snapshot:    {} (paper: 334)", c.never_in_snapshot);
            println!("detected by the CT pipeline:       {} (paper: 99)", c.detected_by_pipeline);
            println!("recall: {:.1}% (paper: 29.6%)", c.recall_pct);
        }
        None => println!("no ccTLD configured in this run"),
    }
}
