//! `darkdns-lint` CLI: scan the workspace for violations of the
//! invariant catalogue (`docs/INVARIANTS.md`) and exit nonzero if any
//! are found, or if the L7 orphan list has outgrown its ceiling.
//! Usage: `darkdns-lint [workspace-root]` (default `.`).

use darkdns_lint::ORPHAN_CEILING;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root: PathBuf = std::env::args_os().nth(1).map(PathBuf::from).unwrap_or_else(|| ".".into());
    let scanned = darkdns_lint::scan_workspace(&root)
        .and_then(|findings| Ok((findings, darkdns_lint::scan_workspace_orphans(&root)?)));
    let (findings, orphans) = match scanned {
        Ok(scanned) => scanned,
        Err(err) => {
            eprintln!("darkdns-lint: failed to scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    for finding in findings.iter().chain(&orphans) {
        println!("{finding}");
    }
    println!("darkdns-lint: {} orphan pub item(s), ceiling {ORPHAN_CEILING}", orphans.len());
    if orphans.len() < ORPHAN_CEILING {
        println!("darkdns-lint: lower ORPHAN_CEILING in crates/lint/src/lib.rs to {}", orphans.len());
    }
    if findings.is_empty() && orphans.len() <= ORPHAN_CEILING {
        println!("darkdns-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("darkdns-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
