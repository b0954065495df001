//! The root package: like the repository's, a caller of the crates, not
//! surface L7 answers for — this item has no caller and is no finding.

pub fn root_package_helper() -> u64 {
    demo::report::total(&demo::meters::Counter(1))
}
