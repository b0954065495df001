// The caller side of the `orphan_ws` fixture: an integration-test tree
// keeps a crate's `pub` item alive. Never compiled.

#[test]
fn t() {
    assert_eq!(demo::reached_from_the_test_tree(), 7);
}
