//! Runs the whole paper-shaped experiment once and prints every table,
//! figure and section statistic; also writes the machine-readable report
//! to `results/report-<seed>.json`.

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    println!("{}", arts.report.render_text());
    let json = serde_json::to_string_pretty(&arts.report).expect("report serializes");
    let path = format!("results/report-{seed}.json");
    if std::fs::create_dir_all("results").is_ok() && std::fs::write(&path, json).is_ok() {
        println!("\nmachine-readable report written to {path}");
    }
}
