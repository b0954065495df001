//! One item per L7 verdict, beside items L7 does not track.

/// Referenced nowhere: delete it.
pub fn nobody_calls_this() -> u32 {
    7
}

/// Referenced by this file's code and by its tests: the code wins,
/// narrow it.
pub const ONLY_USED_HERE: usize = 4;

pub fn reached_from_the_test_tree(bytes: &[u8]) -> usize {
    bytes.len().min(ONLY_USED_HERE)
}

/// Kept alive by this file's unit test alone.
pub fn only_its_test_calls_this() -> u32 {
    9
}

// Not surface L7 tracks: narrower visibility, a struct.
pub(crate) fn crate_visible() {}
pub struct NotAnItemL7Tracks;

#[cfg(test)]
mod tests {
    pub fn test_helpers_are_not_surface() {}

    #[test]
    fn t() {
        test_helpers_are_not_surface();
        super::crate_visible();
        assert_eq!(super::only_its_test_calls_this(), 9);
        assert_eq!(super::ONLY_USED_HERE, 4);
    }
}
