//! Regenerates Table 5: web hosting (ASN of measured A records) of
//! confirmed transient domains. Paper: Cloudflare AS13335 36.2%,
//! Hostinger AS47583 14.0%, Amazon AS16509 7.6%.

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    println!("Table 5 (seed {seed}): transient web hosting (A-record ASN)\n");
    println!("{:<28} {:>8} {:>7}", "Network (ASN)", "Domains", "%");
    for row in &arts.report.table5 {
        println!("{:<28} {:>8} {:>6.1}%", row.label, row.count, row.pct);
    }
}
