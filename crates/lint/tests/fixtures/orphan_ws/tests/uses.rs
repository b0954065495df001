//! The integration-test tree: a caller like any other file.

#[test]
fn callers() {
    assert_eq!(demo::verdicts::reached_from_the_test_tree(b"abcdef"), 4);
    assert_eq!(demo::report::total(&demo::meters::Counter(2)), 2);
    assert_eq!(demo::gated::held_count(), if cfg!(debug_assertions) { 1 } else { 0 });
}
