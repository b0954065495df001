//! Regenerates the §4.2 RDAP failure analysis: failure rates for ordinary
//! NRDs (paper ≈3%) versus transient candidates (paper ≈34%), the cause
//! breakdown (too late / too early / never existed / operational), and
//! the DZDB check that most failed transients were previously registered
//! (paper: 97%).

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    let rf = &arts.report.rdap_failures;
    println!("§4.2 RDAP failures (seed {seed})\n");
    println!(
        "NRD queries:       {:>8}  failures {:>6} ({:.1}%; paper ≈3%)",
        rf.nrd_queries, rf.nrd_failures, rf.nrd_failure_pct
    );
    println!(
        "transient queries: {:>8}  failures {:>6} ({:.1}%; paper ≈34%)",
        rf.transient_queries, rf.transient_failures, rf.transient_failure_pct
    );
    println!("\nfailure causes:");
    for (cause, count) in &rf.causes {
        println!("  {cause:<14} {count}");
    }
    println!(
        "\nfailed transients with DZDB history: {:.1}% (paper: ≈97%)",
        rf.failed_with_history_pct
    );
}
