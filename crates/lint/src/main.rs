//! `darkdns-lint` CLI: scan the workspace for violations of the
//! invariant catalogue (`docs/INVARIANTS.md`) and exit nonzero if any
//! are found. Usage: `darkdns-lint [workspace-root]` (default `.`).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root: PathBuf = std::env::args_os().nth(1).map(PathBuf::from).unwrap_or_else(|| ".".into());
    let findings = match darkdns_lint::scan_workspace(&root) {
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
