// A one-crate workspace with one L7 orphan, scanned from its root by
// tests/rules.rs through the `darkdns-lint` binary itself. Never
// compiled.

/// Called from `tests/uses.rs`: public surface with a caller.
pub fn reached_from_the_test_tree() -> u32 {
    7
}

/// Named by this file's unit test and by nothing else: the orphan.
pub fn only_its_test_calls_this() -> u32 {
    9
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::only_its_test_calls_this(), 9);
    }
}
