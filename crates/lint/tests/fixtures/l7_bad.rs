// Seeded L7 violations: public items no other file names. Scanned
// together with clean.rs, which calls `reached_from_clean` and nothing
// else here. Never compiled — scanned by tests/rules.rs.

/// Named nowhere, not even here: delete it.
pub fn nobody_calls_this() -> u32 {
    7
}

/// Named only by this file's own code: should not be `pub`.
pub const ONLY_USED_BELOW: usize = 4;

pub fn reached_from_clean(bytes: &[u8]) -> Option<Vec<u16>> {
    let counts = decode_counts(bytes.get(..ONLY_USED_BELOW)?)?;
    Some(counts)
}

/// Kept alive by this file's unit test alone.
pub const unsafe fn only_its_test_calls_this() -> u32 {
    9
}

// Not public surface: narrower visibility, a struct, a private fn.
pub(crate) fn crate_visible() {}
pub struct NotAnItemL7Tracks;
fn private() {}

#[cfg(test)]
mod tests {
    pub fn test_helpers_are_not_surface() {}

    #[test]
    fn t() {
        assert_eq!(unsafe { super::only_its_test_calls_this() }, 9);
    }
}
