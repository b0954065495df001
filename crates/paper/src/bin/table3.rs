//! Regenerates Table 3: registrar distribution of confirmed transient
//! domains (via RDAP registrar data). Paper: GoDaddy 19.4%, Hostinger
//! 15.2%, NameCheap 9.9%, long tail of small registrars ≈21%.

fn main() {
    let seed = darkdns_paper::seed_from_args();
    let arts = darkdns_paper::run_paper(seed);
    println!("Table 3 (seed {seed}): transient registrar distribution\n");
    println!("{:<28} {:>8} {:>7}", "Registrar", "Domains", "%");
    for row in &arts.report.table3 {
        println!("{:<28} {:>8} {:>6.1}%", row.label, row.count, row.pct);
    }
    println!("\nconfirmed transients: {}", arts.report.transients.confirmed);
}
