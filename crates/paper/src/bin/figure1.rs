//! Regenerates Figure 1: CDF of detection latency (CT sighting minus
//! RDAP creation time) per TLD and overall. Paper landmarks: 50% within
//! 45 min, ≈30% within 15 min, <2% beyond one day, `.com`/`.net`
//! (60-second zone cadence) fastest.

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    let r = &arts.report;
    println!(
        "Figure 1 (seed {seed}): 50% detected within {}s (paper: 45 min)\n",
        r.figure1_half_detected_within_secs
    );
    let edges = ["30s", "1m", "2m", "5m", "15m", "30m", "1h", "2h", "3h", "6h", "12h", "1d", "2d"];
    print!("{:<8} {:>8}", "TLD", "samples");
    for e in edges {
        print!(" {e:>5}");
    }
    println!();
    for series in &r.figure1 {
        print!("{:<8} {:>8}", series.tld, series.samples);
        for (_, frac) in &series.series {
            print!(" {frac:>5.2}");
        }
        println!();
    }
    let all = r.figure1.iter().find(|s| s.tld == "All").expect("All series present");
    let at = |label: &str| {
        let idx = edges.iter().position(|e| *e == label).unwrap();
        all.series[idx].1
    };
    println!(
        "\nlandmarks: ≤15m {:.1}% (paper ≈30%), ≤1h {:.1}%, >1d {:.1}% (paper <2%)",
        100.0 * at("15m"),
        100.0 * at("1h"),
        100.0 * (1.0 - at("1d"))
    );
}
