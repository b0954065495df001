//! Self-test: every rule fires on its seeded-violation fixture, and
//! the clean fixture passes all rules under the full profile. These are
//! the fixtures `scripts/lint.sh` counts on to prove the linter is
//! alive before trusting a clean workspace scan.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use darkdns_lint::{
    collect_global_decls, scan_level_table, scan_source, DeclTable, Finding, Profile, Rule,
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

/// Copy the tree at `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_tree(&path, &dest);
        } else {
            std::fs::copy(&path, &dest).unwrap();
        }
    }
}

/// Run the `darkdns-lint` binary `scripts/lint.sh` runs on the
/// workspace at `root`: its exit code and stdout.
fn lint_binary(root: &Path) -> (Option<i32>, String) {
    let scan = std::process::Command::new(env!("CARGO_BIN_EXE_darkdns-lint"))
        .arg(root)
        .output()
        .expect("run darkdns-lint");
    assert!(scan.stderr.is_empty(), "{}", String::from_utf8_lossy(&scan.stderr));
    (scan.status.code(), String::from_utf8_lossy(&scan.stdout).into_owned())
}

/// The `orphan_ws` fixture, copied under the test temp dir (so the L7
/// pass writes its annotated tree and build there) and scanned once for
/// every test that reads it: exit code, and each L7 finding as
/// `(file, line, message)` with the file relative to the copy.
fn orphan_ws_scan() -> &'static (Option<i32>, Vec<(String, usize, String)>) {
    static SCAN: OnceLock<(Option<i32>, Vec<(String, usize, String)>)> = OnceLock::new();
    SCAN.get_or_init(|| {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("orphan_ws");
        // A fresh copy: a file the fixture no longer holds must not linger.
        let _ = std::fs::remove_dir_all(&root);
        copy_tree(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/orphan_ws"), &root);
        let (code, stdout) = lint_binary(&root);
        let prefix = format!("{}/", root.display());
        let orphans = stdout
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix)?.split_once(": [orphan-pub] "))
            .map(|(at, message)| {
                let (file, line) = at.rsplit_once(':').unwrap();
                (file.to_string(), line.parse().unwrap(), message.to_string())
            })
            .collect();
        (code, orphans)
    })
}

#[test]
fn l7_finds_a_method_whose_name_another_type_calls() {
    // `Gauge::get` has no caller; `report.rs` calls `Counter::get`.
    // rustc resolves the call, so the spelling keeps nothing alive.
    let (_, orphans) = orphan_ws_scan();
    let in_meters: Vec<_> =
        orphans.iter().filter(|(file, _, _)| file == "crates/demo/src/meters.rs").collect();
    assert!(
        matches!(in_meters[..], [(_, 15, m)] if m == "`get` is named nowhere else: delete it"),
        "{orphans:#?}"
    );
}

#[test]
fn l7_fires_on_pub_items_no_other_file_names() {
    // The three verdicts, in line order: referenced nowhere (a doc link
    // and a string elsewhere are no callers); referenced by its own
    // code and its own tests — the code wins; referenced by its own
    // tests alone. Not the item the test tree calls, the narrower-than-
    // `pub` ones or the test module's helper.
    let (_, orphans) = orphan_ws_scan();
    let verdicts: Vec<(usize, &str)> = orphans
        .iter()
        .filter(|(file, _, _)| file == "crates/demo/src/verdicts.rs")
        .map(|(_, line, message)| (*line, message.as_str()))
        .collect();
    assert_eq!(
        verdicts,
        [
            (4, "`nobody_calls_this` is named nowhere else: delete it"),
            (
                10,
                "`ONLY_USED_HERE` is named only inside its own file: narrow it to `pub(crate)` or \
                 private"
            ),
            (
                17,
                "`only_its_test_calls_this` is named by no other file, only by its own file's \
                 tests: delete it with those assertions, or gate a test hook behind `#[cfg(test)]`"
            ),
        ],
        "{orphans:#?}"
    );
}

#[test]
fn l7_keeps_an_item_only_the_test_tree_calls() {
    // `reached_from_the_test_tree` and `report::total` are called from
    // the root package's `tests/` alone; so are the gated twins.
    let (_, orphans) = orphan_ws_scan();
    assert!(
        !orphans.iter().any(|(_, _, m)| m.contains("reached_from_the_test_tree")
            || m.contains("`total`")),
        "{orphans:#?}"
    );
}

#[test]
fn l7_does_not_probe_cfg_gated_twins_or_macro_bodies() {
    // The release-only `held_count` is dead to a debug check, and the
    // `cells!` body's `load` has no caller: neither is probed.
    let (_, orphans) = orphan_ws_scan();
    assert!(!orphans.iter().any(|(file, _, _)| file.ends_with("gated.rs")), "{orphans:#?}");
}

#[test]
fn l7_asks_nothing_of_files_outside_the_surface() {
    // The root package's `src/` and a crate's `src/bin/` each hold a
    // `pub fn` with no caller: callers' files, not surface. What is
    // left is exactly the four findings above, and they fail the scan.
    let (code, orphans) = orphan_ws_scan();
    assert_eq!(*code, Some(1), "{orphans:#?}");
    let files: Vec<&str> = orphans.iter().map(|(file, _, _)| file.as_str()).collect();
    assert_eq!(
        files,
        [
            "crates/demo/src/meters.rs",
            "crates/demo/src/verdicts.rs",
            "crates/demo/src/verdicts.rs",
            "crates/demo/src/verdicts.rs",
        ]
    );
}

#[test]
fn l7_orphan_fails_a_workspace_scan_like_any_finding() {
    // A one-crate workspace holding one orphan and nothing else: the
    // scan prints it and exits nonzero. No count is tolerated.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("one_orphan_ws");
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/one\"]\n");
    write("crates/one/Cargo.toml", "[package]\nname = \"one\"\nversion = \"0.1.0\"\nedition = \"2021\"\n");
    write("crates/one/src/lib.rs", "pub fn lonely() -> u8 {\n    1\n}\n");
    let (code, stdout) = lint_binary(&root);
    assert_eq!(code, Some(1), "{stdout}");
    let orphans: Vec<&str> = stdout.lines().filter(|l| l.contains("[orphan-pub]")).collect();
    assert!(
        matches!(orphans[..], [line] if line.contains("crates/one/src/lib.rs:1:")
            && line.contains("`lonely` is named nowhere else")),
        "{stdout}"
    );
    assert!(stdout.ends_with("darkdns-lint: 1 finding(s)\n"), "{stdout}");
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
