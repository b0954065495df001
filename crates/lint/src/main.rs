//! `darkdns-lint` CLI: scan the workspace for violations of the
//! invariant catalogue (`docs/INVARIANTS.md`) and exit nonzero if any
//! are found. Usage: `darkdns-lint [workspace-root]` (default `.`).
//! The token rules run first, then the L7 pass, whose time and
//! reference counts are printed before the findings.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let root: PathBuf = std::env::args_os().nth(1).map(PathBuf::from).unwrap_or_else(|| ".".into());
    let scanned = darkdns_lint::scan_workspace(&root).and_then(|mut findings| {
        let started = Instant::now();
        let orphans = darkdns_lint::scan_orphans(&root)?;
        let refs: Vec<String> = orphans.references.iter().map(usize::to_string).collect();
        println!(
            "darkdns-lint: L7 pass took {} ms, {} references",
            started.elapsed().as_millis(),
            refs.join(" + ")
        );
        findings.extend(orphans.findings);
        Ok(findings)
    });
    let findings = match scanned {
        Ok(findings) => findings,
        Err(err) => {
            eprintln!("darkdns-lint: failed to scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!("darkdns-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("darkdns-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
