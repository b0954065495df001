//! Records the compiler version the harness was built with, for the
//! environment line every run prints.
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=RZU_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
