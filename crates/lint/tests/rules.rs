//! Self-test: every rule fires on its seeded-violation fixture, and
//! the clean fixture passes all rules under the full profile. These are
//! the fixtures `scripts/lint.sh` counts on to prove the linter is
//! alive before trusting a clean workspace scan.

use std::path::{Path, PathBuf};

use darkdns_lint::{
    collect_global_decls, scan_level_table, scan_orphans, scan_source, DeclTable, Finding,
    Profile, Rule,
};

fn read_fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    (path, source)
}

fn scan_fixture(name: &str, profile: Profile) -> Vec<Finding> {
    let (path, source) = read_fixture(name);
    scan_source(&path, &source, profile, &DeclTable::new())
}

fn count(findings: &[Finding], rule: Rule) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn l1_fires_on_unannotated_decl_and_inverted_order() {
    let findings = scan_fixture("l1_bad.rs", Profile { lock_level: true, ..Profile::default() });
    assert!(
        count(&findings, Rule::LockLevel) >= 2,
        "expected an annotation finding and an order finding, got {findings:#?}"
    );
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("no `lock-level: N` annotation")), "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("strictly increase")), "{messages:?}");
}

/// L1 findings on a fixture scanned as a workspace of one file, so its
/// lock helpers resolve through the global table: `(line, message)`.
fn helper_findings(name: &str) -> Vec<(usize, String)> {
    let (path, source) = read_fixture(name);
    let global = collect_global_decls(&[(path.clone(), source.clone())]);
    let profile = Profile { lock_level: true, ..Profile::default() };
    let findings = scan_source(&path, &source, profile, &global);
    assert_eq!(count(&findings, Rule::LockLevel), findings.len(), "{findings:#?}");
    findings.into_iter().map(|f| (f.line, f.message)).collect()
}

#[test]
fn l1_sees_a_shard_lock_helper_called_under_a_queue_guard() {
    // The helper's call under the queue guard, and not the legal
    // shard → queue order, the temporary or the helper's own body.
    let found = helper_findings("l1_helper_shard_bad.rs");
    assert!(
        matches!(&found[..], [(19, m)]
            if m.contains("`lock_shard` (level 20)") && m.contains("`queue` (level 30)")),
        "{found:#?}"
    );
}

#[test]
fn l1_sees_a_pipe_half_helper_called_under_a_level_50_lock() {
    // The tuple-bound helper guard under the pending lock, and not the
    // reverse order.
    let found = helper_findings("l1_helper_half_bad.rs");
    assert!(
        matches!(&found[..], [(18, m)]
            if m.contains("`lock_half` (level 46)") && m.contains("`pending` (level 50)")),
        "{found:#?}"
    );
}

#[test]
fn l2_fires_on_unbounded_decode_allocation() {
    let findings = scan_fixture("l2_bad.rs", Profile { decode_bounds: true, ..Profile::default() });
    assert_eq!(count(&findings, Rule::DecodeBounds), 1, "{findings:#?}");
}

#[test]
fn l3_fires_on_panic_tokens_and_indexing_but_not_tests() {
    let findings = scan_fixture(
        "l3_bad.rs",
        Profile { panic_free: true, panic_index: true, ..Profile::default() },
    );
    // unwrap, slice index, panic!, expect — and nothing from the
    // #[cfg(test)] module.
    assert_eq!(count(&findings, Rule::PanicFree), 4, "{findings:#?}");
    let max_line = findings.iter().map(|f| f.line).max().unwrap_or(0);
    assert!(max_line < 13, "findings leaked into the test module: {findings:#?}");
}

#[test]
fn l4_fires_on_delta_reencode() {
    let findings = scan_fixture("l4_bad.rs", Profile { encode_once: true, ..Profile::default() });
    assert_eq!(count(&findings, Rule::EncodeOnce), 1, "{findings:#?}");
}

#[test]
fn l4_fires_on_chunk_train_encodes_off_the_cache_fill_site() {
    let findings =
        scan_fixture("l4_train_bad.rs", Profile { encode_once: true, ..Profile::default() });
    // The per-connection encode in `pump` and the second encode inside
    // `snapshot_train` — not the fill site itself.
    assert_eq!(count(&findings, Rule::EncodeOnce), 2, "{findings:#?}");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![7, 19], "{findings:#?}");
}

#[test]
fn l5_fires_on_a_second_event_loop() {
    let findings = scan_fixture("l5_bad.rs", Profile { one_reactor: true, ..Profile::default() });
    assert_eq!(count(&findings, Rule::OneReactor), 1, "{findings:#?}");
}

#[test]
fn l6_fires_on_a_second_dialer_and_on_a_clock_in_the_replica_set() {
    let findings = scan_fixture("l6_bad.rs", Profile { one_dialer: true, ..Profile::default() });
    // The relay's private salvaging dial, then `Instant::now()` and
    // `thread::sleep` inside `impl ReplicaSet` — and not the clock read
    // in the free function after the impl closes.
    assert_eq!(count(&findings, Rule::OneDialer), 3, "{findings:#?}");
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![6, 15, 18], "{findings:#?}");
}

#[test]
fn l6_bans_the_clock_in_the_broker_core_but_not_in_its_tests() {
    let (_, source) = read_fixture("l6_clock_bad.rs");
    let lines_as = |path: &str| -> Vec<usize> {
        let findings = scan_source(Path::new(path), &source, Profile::default(), &DeclTable::new());
        assert_eq!(count(&findings, Rule::OneDialer), findings.len(), "{findings:#?}");
        findings.iter().map(|f| f.line).collect()
    };
    // `Instant::now()` in the publish path and `thread::sleep` beside
    // it — not the test module's.
    assert_eq!(lines_as("crates/broker/src/broker.rs"), vec![6, 11]);
    assert_eq!(lines_as("crates/broker/src/shard.rs"), vec![6, 11]);
    // Elsewhere outside `impl ReplicaSet` the clock is legal.
    assert!(lines_as("crates/broker/src/feed.rs").is_empty());
}

/// Two lock classes and a test-only one, as `lockdep.rs` declares them.
const CLASSES: &str = r#"/// The root.
pub static OUTER: LockClass = LockClass::new("demo.outer", 10);
/// A leaf.
pub static LEAF: LockClass = LockClass::new("demo.leaf", 42);

#[cfg(test)]
mod tests {
    static ONLY: LockClass = LockClass::new("test.only", 1);
}
"#;

/// A level table documenting them, plus the rows the check skips: an
/// unbackticked class, an annotation-only one, and a row in another
/// section.
const TABLE: &str = "# Invariants

### The level table

| Level | Class | Where | Why there |
|-------|-------|-------|-----------|
| 0     | (internals)  | `lockdep.rs` | Private. |
| 10    | `demo.outer` | `lockdep.rs` | The root. |
| 42    | `demo.leaf`  | `lockdep.rs` | A leaf. |
| 75    | `demo.plan`  | `fault.rs`   | A plan (annotation only: std mutex). |

## Next

| 99    | `not.the.table` | `x.rs` | Elsewhere. |
";

fn level_table_findings(classes: &str, table: &str) -> Vec<(String, usize)> {
    let sources = [(PathBuf::from("lockdep.rs"), classes.to_string())];
    let findings = scan_level_table(&sources, Path::new("INVARIANTS.md"), table);
    assert_eq!(count(&findings, Rule::LockLevel), findings.len(), "{findings:#?}");
    findings.iter().map(|f| (f.file.display().to_string(), f.line)).collect()
}

#[test]
fn l1_level_table_and_lock_classes_agree() {
    assert!(level_table_findings(CLASSES, TABLE).is_empty());
}

#[test]
fn l1_fires_on_a_class_or_a_row_that_outlives_the_other() {
    let without_leaf = |text: &str| -> String {
        text.lines().filter(|l| !l.contains("demo.leaf")).map(|l| format!("{l}\n")).collect()
    };
    // The static deleted, its row kept: the row is the finding.
    assert_eq!(
        level_table_findings(&without_leaf(CLASSES), TABLE),
        vec![("INVARIANTS.md".to_string(), 9)]
    );
    // The row deleted, its static kept: the static is.
    assert_eq!(
        level_table_findings(CLASSES, &without_leaf(TABLE)),
        vec![("lockdep.rs".to_string(), 4)]
    );
    // Re-levelled on one side: both sides claim a class the other lacks.
    let relevelled = CLASSES.replace("\"demo.leaf\", 42", "\"demo.leaf\", 43");
    assert_eq!(
        level_table_findings(&relevelled, TABLE),
        vec![("lockdep.rs".to_string(), 4), ("INVARIANTS.md".to_string(), 9)]
    );
}

#[test]
fn l7_fires_on_pub_items_no_other_file_names() {
    let sources = [read_fixture("l7_bad.rs"), read_fixture("clean.rs")];
    let findings = scan_orphans(&sources, &|_| true);
    assert_eq!(count(&findings, Rule::OrphanPub), findings.len());
    // Every finding is in l7_bad.rs: clean.rs's one `pub fn` is called
    // from there. In line order: never named, named only by its own
    // code, named only by its own test — and not the item clean.rs
    // calls, the narrower-than-`pub` ones or the test module's helper.
    let found: Vec<(bool, usize, &str)> = findings
        .iter()
        .map(|f| (f.file.ends_with("l7_bad.rs"), f.line, f.message.as_str()))
        .collect();
    assert!(
        matches!(
            found[..],
            [(true, 6, delete), (true, 11, narrow), (true, 19, tested)]
                if delete.contains("`nobody_calls_this` is named nowhere else")
                    && narrow.contains("`ONLY_USED_BELOW` is named only inside its own file")
                    && tested.contains("`only_its_test_calls_this`")
                    && tested.contains("only by its own file's tests")
        ),
        "{findings:#?}"
    );
}

#[test]
fn l7_orphan_fails_a_workspace_scan_like_any_finding() {
    // The binary `scripts/lint.sh` runs, over a one-crate workspace
    // holding one orphan: the scan prints it and exits nonzero.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/orphan_ws");
    let scan = std::process::Command::new(env!("CARGO_BIN_EXE_darkdns-lint"))
        .arg(&root)
        .output()
        .expect("run darkdns-lint");
    let stdout = String::from_utf8_lossy(&scan.stdout);
    assert_eq!(scan.status.code(), Some(1), "{stdout}");
    let orphans: Vec<&str> = stdout.lines().filter(|l| l.contains("[orphan-pub]")).collect();
    assert!(
        matches!(orphans[..], [line] if line.contains("lib.rs:11:")
            && line.contains("`only_its_test_calls_this`")),
        "{stdout}"
    );
    assert!(stdout.ends_with("darkdns-lint: 1 finding(s)\n"), "{stdout}");
}

#[test]
fn l7_asks_nothing_of_files_outside_the_surface() {
    // The same two files with l7_bad.rs demoted to a caller (what
    // tests/, examples/ and rzu_bench/ are in a workspace scan): its
    // items are nobody's business, and it still keeps clean.rs's alive.
    let sources = [read_fixture("l7_bad.rs"), read_fixture("clean.rs")];
    let findings = scan_orphans(&sources, &|path| path.ends_with("clean.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn l8_fires_on_unexplained_unsafe_and_on_any_unsafe_outside_the_interner() {
    let interner = darkdns_lint::profile_for(Path::new("crates/dns/src/name.rs"));
    // As the interner: the block whose `Safety:` sits four lines up and
    // the one with none — not the explained one, nor the test module's.
    let findings = scan_fixture("l8_bad.rs", interner);
    assert_eq!(count(&findings, Rule::UnsafeConfined), findings.len());
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![12, 16], "{findings:#?}");
    assert!(findings.iter().all(|f| f.message.contains("`// Safety:`")), "{findings:#?}");
    // As any other file: every `unsafe`, explained or not.
    let elsewhere = Profile { unsafe_confined: true, ..Profile::default() };
    let findings = scan_fixture("l8_bad.rs", elsewhere);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![9, 12, 16], "{findings:#?}");
    assert!(findings.iter().all(|f| f.message.contains("outside `crates/dns/src/name.rs`")));
}

#[test]
fn l8_passes_explained_unsafe_in_the_interner_only() {
    let interner = darkdns_lint::profile_for(Path::new("crates/dns/src/name.rs"));
    let findings = scan_fixture("l8_good.rs", interner);
    assert!(findings.is_empty(), "{findings:#?}");
    let elsewhere = Profile { unsafe_confined: true, ..Profile::default() };
    let findings = scan_fixture("l8_good.rs", elsewhere);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![9, 13, 17], "{findings:#?}");
}

#[test]
fn clean_fixture_passes_every_rule() {
    let findings = scan_fixture("clean.rs", Profile::all());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn workspace_profiles_map_paths_to_rules() {
    let wire = darkdns_lint::profile_for(Path::new("crates/dns/src/wire.rs"));
    assert!(wire.decode_bounds && wire.panic_free && !wire.panic_index);

    let reactor = darkdns_lint::profile_for(Path::new("crates/broker/src/transport/reactor.rs"));
    assert!(reactor.panic_free && reactor.panic_index && reactor.encode_once);
    assert!(!reactor.one_reactor, "the one file that may create an epoll instance");

    let stream = darkdns_lint::profile_for(Path::new("crates/broker/src/transport/stream.rs"));
    assert!(stream.panic_free && stream.panic_index && stream.encode_once && stream.one_reactor);

    let relay = darkdns_lint::profile_for(Path::new("crates/broker/src/transport/relay.rs"));
    assert!(relay.panic_free && relay.one_dialer, "the relay drives the link, it does not dial");
    let link = darkdns_lint::profile_for(Path::new("crates/broker/src/transport/replica.rs"));
    assert!(link.panic_free && !link.panic_index);
    // The client assembles peer chunk trains under every consumer pump.
    let client = darkdns_lint::profile_for(Path::new("crates/broker/src/transport/client.rs"));
    assert!(client.panic_free && !client.panic_index && client.encode_once);
    for dialer in ["replica.rs", "client.rs"] {
        let path = format!("crates/broker/src/transport/{dialer}");
        assert!(!darkdns_lint::profile_for(Path::new(&path)).one_dialer, "{dialer}");
    }

    let edge = darkdns_lint::profile_for(Path::new("crates/edge/src/server.rs"));
    assert!(edge.panic_free && edge.panic_index && edge.encode_once && edge.one_reactor);

    let cold = darkdns_lint::profile_for(Path::new("crates/intel/src/lib.rs"));
    assert!(cold.lock_level && !cold.panic_free && !cold.encode_once);

    // One file may hold `unsafe`.
    assert!(!darkdns_lint::profile_for(Path::new("crates/dns/src/name.rs")).unsafe_confined);
    for file in ["crates/dns/src/wire.rs", "crates/broker/src/transport/reactor.rs", "src/lib.rs"] {
        assert!(darkdns_lint::profile_for(Path::new(file)).unsafe_confined, "{file}");
    }
}
