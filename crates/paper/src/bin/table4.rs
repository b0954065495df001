//! Regenerates Table 4: DNS hosting (NS-record SLD) of confirmed transient
//! domains, from the active NS measurements. Paper: Cloudflare 49.5%,
//! Hostinger parking 8.7%, NS1 6.9%, Squarespace 6.9%, GoDaddy 5.5%.

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    println!("Table 4 (seed {seed}): transient DNS hosting (NS SLD)\n");
    println!("{:<28} {:>8} {:>7}", "NS Record SLD", "Domains", "%");
    for row in &arts.report.table4 {
        println!("{:<28} {:>8} {:>6.1}%", row.label, row.count, row.pct);
    }
}
