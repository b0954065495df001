//! `darkdns-lint`: a token-level scanner enforcing the workspace's
//! invariant catalogue (`docs/INVARIANTS.md`) as machine-checkable
//! rules. No `syn`, no dependencies — the same vendored-shim discipline
//! as the rest of the workspace, applied to the linter itself; L7 asks
//! rustc (through `cargo check`) instead.
//!
//! Eight rules:
//!
//! * **L1 `lock-level`** — every `Mutex`/`RwLock` declaration carries a
//!   `// lock-level: N` annotation (or `lock-level: class` for generic
//!   wrappers whose level is carried by a runtime [`LockClass`]), and no
//!   function textually acquires a class at a level less than or equal
//!   to one still in scope. An acquisition is a `.lock()` / `.read()` /
//!   `.write()` on a declared receiver, or a call to a *lock helper*: a
//!   non-test `fn` whose body calls `lockdep::acquire(&lockdep::NAME)`,
//!   acquired at `NAME`'s `LockClass::new` level (`lock_shard(`,
//!   `lock_half(`). The static pass sees same-function nestings;
//!   the runtime `lockdep` subsystem in `darkdns-broker` covers
//!   cross-function and cross-thread orders. And the classes agree with
//!   the documented level table ([`scan_level_table`]): every non-test
//!   `LockClass::new("name", N)` has its ``| N | `name` |`` row in
//!   `docs/INVARIANTS.md`, and every such row its static.
//! * **L2 `decode-bounds`** — inside `fn decode_*` bodies in the wire
//!   codec, every allocation sized from a decoded count
//!   (`with_capacity` / `reserve_exact`) must be preceded by a bound of
//!   that count against the bytes remaining (`checked_mul`, `remaining`,
//!   or `.min(`).
//! * **L3 `panic`** — no `.unwrap()` / `.expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` on non-test lines of
//!   declared hot-path modules; in the reactor-style modules (slab
//!   indexing), direct slice indexing `x[i]` is banned too. `assert!` /
//!   `debug_assert!` are deliberate invariant guards and stay legal.
//! * **L4 `encode-once`** — no `encode_delta_push(` call on relay /
//!   fan-out paths (the transport and the edge): deltas are encoded
//!   once by the publisher and fanned out as refcount-shared bytes.
//!   Bootstraps likewise: `encode_snapshot_chunks(` may appear there
//!   exactly once, inside `fn snapshot_train` — the broker stream
//!   handler's train-cache fill site — so no path can grow a per-connection
//!   O(zone) encode beside the cache.
//! * **L5 `one-reactor`** — `Epoll::new(` is legal only in
//!   `broker/src/transport/reactor.rs`: one event loop serves every
//!   protocol, and a second one starts with its own epoll instance.
//! * **L6 `one-dialer`** — the one HELLO-sending `TransportClient`
//!   constructor beyond plain `connect(`, `connect_salvaged(`, is called
//!   only from `broker/src/transport/replica.rs` (and defined in
//!   `client.rs`): one upstream-link driver dials, salvages and resumes
//!   for every consumer. And inside `impl ReplicaSet`, `thread::sleep`
//!   and `Instant::now()` are banned — the state machine under that
//!   driver takes its clock as an argument, which is what lets its
//!   contract be tested without threads or sleeps. The same ban covers
//!   the non-test code of the broker's `broker.rs` and `shard.rs`:
//!   publish and subscribe read no clock and never wait.
//! * **L7 `orphan-pub`** — a `pub fn` / `const` / `static` / `type` on a
//!   non-test line of `crates/*/src` that no other `.rs` file of the
//!   repository references is an orphan: public surface no caller
//!   reaches, and a finding like any other. A reference is a use rustc
//!   resolves to the item, not a spelling of its name: this is the one
//!   rule that builds the tree ([`scan_orphans`]). It has no
//!   `lint: allow` and no slack — delete the item, drop its `pub`, or
//!   gate a test hook behind `#[cfg(test)]`.
//! * **L8 `unsafe-confined`** — `unsafe` appears on non-test lines of
//!   one file only, the interner (`crates/dns/src/name.rs`), and every
//!   occurrence there carries a `// Safety:` comment on its line or
//!   within the two lines above it. No `lint: allow` either.
//!
//! Escape hatch: a comment `// lint: allow(<rule>) <justification>` on
//! the offending line (or the contiguous comment block above it)
//! suppresses that rule there; the justification is mandatory.
//! `#[cfg(test)]` items are skipped entirely.
//!
//! [`LockClass`]: https://docs.rs/ (see `darkdns_broker::lockdep`)

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    LockLevel,
    DecodeBounds,
    PanicFree,
    EncodeOnce,
    OneReactor,
    OneDialer,
    OrphanPub,
    UnsafeConfined,
}

impl Rule {
    /// The name used in reports and in `lint: allow(...)` annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockLevel => "lock-level",
            Rule::DecodeBounds => "decode-bounds",
            Rule::PanicFree => "panic",
            Rule::EncodeOnce => "encode-once",
            Rule::OneReactor => "one-reactor",
            Rule::OneDialer => "one-dialer",
            Rule::OrphanPub => "orphan-pub",
            Rule::UnsafeConfined => "unsafe-confined",
        }
    }
}

/// One lint finding: a rule violated at a file/line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Which rules apply to a file. Derived from the path for workspace
/// scans ([`profile_for`]); fixtures construct profiles directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile {
    /// L1: annotation + static acquisition-order checking.
    pub lock_level: bool,
    /// L2: decoded counts bounded before allocation.
    pub decode_bounds: bool,
    /// L3: panic-token ban.
    pub panic_free: bool,
    /// L3 extension: direct slice-indexing ban (reactor-style modules).
    pub panic_index: bool,
    /// L4: `encode_delta_push` ban, and `encode_snapshot_chunks` only at
    /// the train-cache fill site.
    pub encode_once: bool,
    /// L5: no `Epoll::new(` — every file but the shared reactor.
    pub one_reactor: bool,
    /// L6: no `TransportClient::connect_salvaged` calls — every file
    /// but the upstream-link driver and the definition site. (L6's clock
    /// ban needs no flag: it applies wherever an `impl ReplicaSet`
    /// appears and in the files [`CLOCK_FREE_FILES`] names.)
    pub one_dialer: bool,
    /// L8: no `unsafe` — every file but the interner. (L8's `Safety:`
    /// comment check needs no flag: it applies wherever `unsafe` is
    /// legal.)
    pub unsafe_confined: bool,
}

impl Profile {
    /// Every rule on — what the seeded-violation fixtures are scanned
    /// with.
    pub fn all() -> Profile {
        Profile {
            lock_level: true,
            decode_bounds: true,
            panic_free: true,
            panic_index: true,
            encode_once: true,
            one_reactor: true,
            one_dialer: true,
            unsafe_confined: true,
        }
    }
}

/// The rule set a workspace file gets, by path. See `docs/INVARIANTS.md`
/// for the module catalogue this encodes.
pub fn profile_for(path: &Path) -> Profile {
    let p = path.to_string_lossy().replace('\\', "/");
    let mut profile = Profile { lock_level: true, ..Profile::default() };
    // The wire codec: decode-bounds plus the panic ban. Indexing stays
    // legal there — decode paths go through the bounds-checked Decoder,
    // and encode paths backpatch length fields in buffers they sized.
    if p.ends_with("crates/dns/src/wire.rs") {
        profile.decode_bounds = true;
        profile.panic_free = true;
    }
    // Reactor-style hot modules: the panic ban plus the indexing ban
    // (slab/slot tables are exactly where a stale index aborts the
    // process).
    let hot = [
        "broker/src/transport/reactor.rs",
        "broker/src/transport/stream.rs",
        "broker/src/transport/ring.rs",
        "broker/src/transport/relay.rs",
        "broker/src/transport/pipe.rs",
        "edge/src/server.rs",
    ];
    if hot.iter().any(|h| p.ends_with(h)) {
        profile.panic_free = true;
        profile.panic_index = true;
    }
    // The upstream-link driver runs on the relay thread and under every
    // consumer pump: the panic ban, without the indexing ban — its
    // replica indices never come from a peer (`ReplicaSet` hands out
    // the only ones it later accepts). The client it drives decodes
    // and assembles peer frames under the same pumps, chunk by chunk:
    // the same ban; its one index is a partial it just looked up.
    if p.ends_with("broker/src/transport/replica.rs") || p.ends_with("broker/src/transport/client.rs")
    {
        profile.panic_free = true;
    }
    // Relay / fan-out paths must never re-encode a delta.
    if p.contains("broker/src/transport/") || p.contains("edge/src/") {
        profile.encode_once = true;
    }
    // One event loop in the workspace: only the shared reactor may own
    // an epoll instance.
    profile.one_reactor = !p.ends_with("broker/src/transport/reactor.rs");
    // One dialer: only the upstream-link driver calls the constructor
    // that carries resume progress (client.rs defines it).
    profile.one_dialer = !(p.ends_with("broker/src/transport/replica.rs")
        || p.ends_with("broker/src/transport/client.rs"));
    // One unsafe module: the interner's lock-free id → spelling table.
    profile.unsafe_confined = !p.ends_with(UNSAFE_HOME);
    profile
}

// ---------------------------------------------------------------------------
// Source cleaning: split each line into code and comment, with string
// and char literals blanked out of the code half.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Line {
    code: String,
    comment: String,
}

fn clean(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut block_depth = 0usize;
    for raw in source.lines() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0usize;
        while i < chars.len() {
            if block_depth > 0 {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    block_depth -= 1;
                    i += 2;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    block_depth += 1;
                    i += 2;
                } else {
                    comment.push(chars[i]);
                    i += 1;
                }
                continue;
            }
            match chars[i] {
                '/' if chars.get(i + 1) == Some(&'/') => {
                    comment.extend(&chars[i..]);
                    break;
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    block_depth += 1;
                    i += 2;
                }
                '"' => {
                    // Blank the string body; keep the quotes so tokens
                    // cannot be formed across a literal.
                    code.push('"');
                    i += 1;
                    while i < chars.len() {
                        if chars[i] == '\\' {
                            i += 2;
                        } else if chars[i] == '"' {
                            break;
                        } else {
                            i += 1;
                        }
                    }
                    code.push('"');
                    i += 1;
                }
                '\'' => {
                    // Char/byte literal vs lifetime: a literal closes
                    // within a few chars; a lifetime has no closing
                    // quote before a non-ident char.
                    if chars.get(i + 1) == Some(&'\\') {
                        code.push_str("' '");
                        i += 2; // skip the backslash
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                        i += 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        code.push_str("' '");
                        i += 3;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        out.push(Line { code, comment });
    }
    out
}

/// Mark every line belonging to a `#[cfg(test)]`-gated item (including
/// `#[cfg(all(test, ...))]`): the attribute line itself through the end
/// of the item it gates.
fn test_mask(lines: &[Line]) -> Vec<bool> {
    gated_mask(lines, |code| code.find("#[cfg(test)]").or_else(|| code.find("#[cfg(all(test")))
}

/// Mark every line in the extent of a gate `find_gate` finds (at that
/// byte of the line's code): from the gate to the `;` or the closing
/// brace that ends the item it gates.
fn gated_mask(lines: &[Line], find_gate: impl Fn(&str) -> Option<usize>) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        let Some(at) = find_gate(&lines[i].code) else {
            i += 1;
            continue;
        };
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        let mut from = at;
        'extent: while j < lines.len() {
            for c in lines[j].code[from..].chars() {
                match c {
                    '(' | '[' => depth += 1,
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    ')' | ']' | '}' => depth -= 1,
                    ';' if depth == 0 => break 'extent,
                    _ => {}
                }
                if opened && depth == 0 {
                    break 'extent;
                }
            }
            j += 1;
            from = 0;
        }
        let end = j.min(lines.len() - 1);
        mask[i..=end].iter_mut().for_each(|m| *m = true);
        i = end + 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// Annotations: `lock-level: N` and `lint: allow(rule) justification`,
// attached to a code line from its own trailing comment or the
// contiguous comment block immediately above it.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LevelAnn {
    /// A concrete level in the hierarchy.
    Num(u32),
    /// Level carried by the runtime `LockClass` (generic wrappers,
    /// lockdep's own raw internals).
    Class,
}

/// The comments attached to code line `idx`: its trailing comment plus
/// the contiguous run of comment-only lines directly above.
fn attached_comments(lines: &[Line], idx: usize) -> Vec<&str> {
    let mut comments = Vec::new();
    let mut j = idx;
    while j > 0 {
        let above = &lines[j - 1];
        if above.code.trim().is_empty() && !above.comment.trim().is_empty() {
            comments.push(above.comment.as_str());
            j -= 1;
        } else {
            break;
        }
    }
    comments.push(lines[idx].comment.as_str());
    comments
}

fn level_annotation(lines: &[Line], idx: usize) -> Option<LevelAnn> {
    for comment in attached_comments(lines, idx) {
        if let Some(pos) = comment.find("lock-level:") {
            let rest = comment[pos + "lock-level:".len()..].trim_start();
            let token: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if token == "class" {
                return Some(LevelAnn::Class);
            }
            if let Ok(n) = token.parse::<u32>() {
                return Some(LevelAnn::Num(n));
            }
        }
    }
    None
}

/// Rules allowed at code line `idx` via `lint: allow(rule) why`.
/// An allow with an empty justification does not count.
fn allows(lines: &[Line], idx: usize) -> Vec<String> {
    let mut allowed = Vec::new();
    for comment in attached_comments(lines, idx) {
        let mut rest: &str = comment;
        while let Some(pos) = rest.find("lint: allow(") {
            rest = &rest[pos + "lint: allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_string();
            let justification_here = !rest[close + 1..].trim().is_empty();
            // A block-comment allow may carry its justification on the
            // following comment line; accept any non-empty tail in the
            // attached block.
            if justification_here || comment.trim().len() > pos + "lint: allow(".len() + close + 1
            {
                allowed.push(rule);
            }
            rest = &rest[close + 1..];
        }
    }
    allowed
}

fn is_allowed(lines: &[Line], idx: usize, rule: Rule) -> bool {
    allows(lines, idx).iter().any(|r| r == rule.name())
}

// ---------------------------------------------------------------------------
// L1 declarations
// ---------------------------------------------------------------------------

/// Does this code line declare a lock (a `Mutex<` / `RwLock<` type
/// position)? Type *definitions* of the wrappers themselves are not
/// declarations.
fn is_lock_decl(code: &str) -> bool {
    let t = code.trim_start();
    if !(t.contains("Mutex<") || t.contains("RwLock<")) {
        return false;
    }
    for skip in ["struct ", "pub struct ", "impl ", "impl<", "enum ", "pub enum ", "trait "] {
        if t.starts_with(skip) {
            return false;
        }
    }
    true
}

/// The declared name on a lock-declaration line: the field/static name
/// before the `:`, or the function name for helper signatures.
fn decl_name(code: &str) -> Option<String> {
    let t = code.trim();
    if let Some(pos) = t.find("fn ") {
        let rest = &t[pos + 3..];
        let name: String =
            rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        return (!name.is_empty()).then_some(name);
    }
    let before_colon = t.split(':').next()?;
    let name = before_colon
        .split_whitespace()
        .last()?
        .trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
    (!name.is_empty()).then_some(name.to_string())
}

// ---------------------------------------------------------------------------
// The per-file scan
// ---------------------------------------------------------------------------

/// A lock declaration table: receiver name → hierarchy level. A lock
/// helper is keyed by its name plus `(` (`lock_shard(`), the way its
/// call sites spell it, so it never shadows a receiver.
pub type DeclTable = HashMap<String, u32>;

/// What makes a function a lock helper (L1): its body registers the
/// acquisition of the class `NAME` that follows.
const HELPER_ACQUIRE: &str = "lockdep::acquire(&lockdep::";

/// The global declaration table of a workspace: every file's annotated
/// declarations ([`collect_decls`]) and every lock helper, each helper
/// at the level of the `LockClass` static it acquires. A name declared
/// at two different levels is ambiguous and dropped — per-file tables
/// still resolve receivers locally.
pub fn collect_global_decls(sources: &[(PathBuf, String)]) -> DeclTable {
    let mut class_levels: HashMap<String, u32> = HashMap::new();
    for (_, source) in sources {
        class_levels.extend(lock_classes(source).into_iter().map(|(ident, c)| (ident, c.level)));
    }
    let mut global = DeclTable::new();
    let mut conflicted: Vec<String> = Vec::new();
    for (_, source) in sources {
        let helpers = lock_helpers(source).into_iter().filter_map(|(helper, class)| {
            class_levels.get(&class).map(|&level| (format!("{helper}("), level))
        });
        for (name, level) in collect_decls(source).into_iter().chain(helpers) {
            match global.get(&name) {
                Some(&existing) if existing != level => conflicted.push(name),
                _ => {
                    global.insert(name, level);
                }
            }
        }
    }
    for name in conflicted {
        global.remove(&name);
    }
    global
}

/// The lock helpers `source` defines: each non-test `fn` whose body
/// calls `lockdep::acquire(&lockdep::NAME)`, with that `NAME`.
fn lock_helpers(source: &str) -> Vec<(String, String)> {
    let lines = clean(source);
    let mask = test_mask(&lines);
    let mut helpers = Vec::new();
    let mut current: Option<String> = None;
    for (idx, line) in lines.iter().enumerate() {
        if mask[idx] {
            continue;
        }
        if let Some(name) = fn_header_name(&line.code) {
            current = Some(name);
        }
        let (Some(pos), Some(helper)) = (line.code.find(HELPER_ACQUIRE), &current) else {
            continue;
        };
        if let Some(class) = first_ident(&line.code[pos + HELPER_ACQUIRE.len()..]) {
            helpers.push((helper.clone(), class));
        }
    }
    helpers
}

/// Collect the `name → level` table from one file's annotated lock
/// declarations (the first pass of a workspace scan).
pub fn collect_decls(source: &str) -> DeclTable {
    let lines = clean(source);
    let mask = test_mask(&lines);
    let mut table = DeclTable::new();
    for (idx, line) in lines.iter().enumerate() {
        if mask[idx] || !is_lock_decl(&line.code) {
            continue;
        }
        if let Some(LevelAnn::Num(level)) = level_annotation(&lines, idx) {
            if let Some(name) = decl_name(&line.code) {
                table.insert(name, level);
            }
        }
    }
    table
}

/// One live guard in the static order check.
struct Guard {
    name: Option<String>,
    class: String,
    level: u32,
    depth: i64,
}

/// A function context (for L2's fn-scoped lookback and L4's fill-site
/// check).
struct FnCtx {
    name: String,
    entry_depth: i64,
    start_line: usize,
    /// The body's `{` has been seen. A signature wrapped over several
    /// lines sits at the entry depth until then without being over.
    opened: bool,
}

/// Scan one file. `file_decls` resolves lock receivers declared in this
/// file; `global_decls` resolves cross-file receivers whose names are
/// unambiguous workspace-wide.
pub fn scan_source(
    path: &Path,
    source: &str,
    profile: Profile,
    global_decls: &DeclTable,
) -> Vec<Finding> {
    let lines = clean(source);
    let mask = test_mask(&lines);
    let file_decls = collect_decls(source);
    let mut findings = Vec::new();
    let mut depth: i64 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    let mut fns: Vec<FnCtx> = Vec::new();
    let mut train_fill_sites = 0usize;
    // Brace depth at which an open `impl ReplicaSet` block was entered.
    let mut replica_set_impl: Option<i64> = None;
    let clock_free_file = CLOCK_FREE_FILES.iter().any(|f| path.ends_with(f));

    let push = |findings: &mut Vec<Finding>, idx: usize, rule: Rule, message: String| {
        if !is_allowed(&lines, idx, rule) {
            findings.push(Finding { file: path.to_path_buf(), line: idx + 1, rule, message });
        }
    };

    for idx in 0..lines.len() {
        let code = lines[idx].code.clone();
        if mask[idx] {
            // Still track braces so depth stays consistent across
            // skipped test modules.
            for c in code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            continue;
        }

        // Function headers (before brace counting: the header's `{`
        // belongs to the body).
        if let Some(fn_name) = fn_header_name(&code) {
            fns.push(FnCtx { name: fn_name, entry_depth: depth, start_line: idx, opened: false });
        }

        // L1a: annotated declarations.
        if profile.lock_level && is_lock_decl(&code) && level_annotation(&lines, idx).is_none() {
            push(
                &mut findings,
                idx,
                Rule::LockLevel,
                format!(
                    "lock declaration `{}` has no `lock-level: N` annotation",
                    decl_name(&code).unwrap_or_else(|| "?".into())
                ),
            );
        }

        // L1b: textual acquisitions, checked against in-scope guards.
        if profile.lock_level {
            for site in acquisition_sites(&code) {
                let level = file_decls
                    .get(&site.key)
                    .or_else(|| global_decls.get(&site.key))
                    .copied();
                let Some(level) = level else { continue };
                let class = site.key.trim_end_matches('(');
                for g in &guards {
                    if g.level >= level {
                        push(
                            &mut findings,
                            idx,
                            Rule::LockLevel,
                            format!(
                                "acquiring `{class}` (level {level}) while `{}` (level {}) \
                                 is still in scope; levels must strictly increase",
                                g.class, g.level
                            ),
                        );
                        break;
                    }
                }
                if let Some(bound) = guard_binding(&code, site.start, site.end) {
                    guards.push(Guard { name: Some(bound), class: class.to_string(), level, depth });
                }
            }
            // Explicit early release.
            if let Some(dropped) = drop_target(&code) {
                guards.retain(|g| g.name.as_deref() != Some(dropped.as_str()));
            }
        }

        // L2: decoded counts bounded before allocation.
        if profile.decode_bounds {
            if let Some(fn_ctx) = fns.last() {
                if fn_ctx.name.starts_with("decode") {
                    for alloc in ["with_capacity(", "reserve_exact(", "reserve("] {
                        let Some(pos) = code.find(alloc) else { continue };
                        let arg = paren_arg(&code, pos + alloc.len());
                        let Some(ident) = first_ident(&arg) else { continue };
                        // Bound expressions often span physical lines
                        // (`count\n.checked_mul(N)\n.is_none_or(...)`),
                        // so the lookback joins continuation lines into
                        // logical statements first.
                        let bounded =
                            logical_statements(&lines[fn_ctx.start_line..idx]).iter().any(|s| {
                                !s.contains(alloc)
                                    && ident_appears(s, &ident)
                                    && (s.contains("checked_mul")
                                        || s.contains("remaining")
                                        || s.contains(".min("))
                            });
                        if !bounded {
                            push(
                                &mut findings,
                                idx,
                                Rule::DecodeBounds,
                                format!(
                                    "allocation sized from untrusted `{ident}` with no \
                                     preceding bound against the remaining buffer"
                                ),
                            );
                        }
                    }
                }
            }
        }

        // L3: panic tokens and (for reactor-style modules) indexing.
        if profile.panic_free {
            for token in [".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"]
            {
                if code.contains(token) {
                    push(
                        &mut findings,
                        idx,
                        Rule::PanicFree,
                        format!("`{}` on a hot-path module's non-test line", token.trim_matches('.')),
                    );
                }
            }
            if profile.panic_index && has_slice_index(&code) {
                push(
                    &mut findings,
                    idx,
                    Rule::PanicFree,
                    "direct slice index on a hot-path module's non-test line (use `get`/`get_mut`)"
                        .into(),
                );
            }
        }

        // L4: encode-once on fan-out paths.
        if profile.encode_once && code.contains("encode_delta_push(") {
            push(
                &mut findings,
                idx,
                Rule::EncodeOnce,
                "`encode_delta_push` on a relay/fan-out path: deltas are encoded once by the \
                 publisher and fanned out as shared bytes"
                    .into(),
            );
        }

        // L4, bootstrap half: the one legal chunk-train encode is the
        // first one inside the train-cache fill function.
        if profile.encode_once && code.contains("encode_snapshot_chunks(") {
            let in_fill_fn = fns.last().is_some_and(|f| f.name == TRAIN_FILL_FN);
            if in_fill_fn {
                train_fill_sites += 1;
            }
            if !in_fill_fn || train_fill_sites > 1 {
                push(
                    &mut findings,
                    idx,
                    Rule::EncodeOnce,
                    format!(
                        "`encode_snapshot_chunks` outside the single train-cache fill site in \
                         `fn {TRAIN_FILL_FN}`: bootstraps are encoded once per checkpoint and \
                         staged as shared bytes"
                    ),
                );
            }
        }

        // L5: a second event loop starts with its own epoll instance.
        if profile.one_reactor && code.contains("Epoll::new(") {
            push(
                &mut findings,
                idx,
                Rule::OneReactor,
                "`Epoll::new` outside `broker/src/transport/reactor.rs`: a new protocol is a \
                 `Protocol` handler on the shared reactor, not another event loop"
                    .into(),
            );
        }

        // L6: one dialer, and a clock-injected replica-set state machine.
        if profile.one_dialer && code.contains("connect_salvaged(") {
            push(
                &mut findings,
                idx,
                Rule::OneDialer,
                "`connect_salvaged` outside `broker/src/transport/replica.rs`: dialling with \
                 salvaged progress is the upstream link's job — drive an `UpstreamLink` \
                 instead of growing another dialer"
                    .into(),
            );
        }
        if code.contains("impl ReplicaSet") {
            replica_set_impl = Some(depth);
        }
        if replica_set_impl.is_some() || clock_free_file {
            for token in ["thread::sleep", "Instant::now("] {
                if code.contains(token) {
                    let token = token.trim_end_matches('(');
                    let message = if replica_set_impl.is_some() {
                        format!(
                            "`{token}` inside `impl ReplicaSet`: the state machine is pure — take \
                             `now: Instant` as an argument and leave waiting to the driver"
                        )
                    } else {
                        format!(
                            "`{token}` in the broker's publish/subscribe core: it reads no clock \
                             and never waits — a policy that needs time takes it from its caller"
                        )
                    };
                    push(&mut findings, idx, Rule::OneDialer, message);
                }
            }
        }

        // L8: `unsafe` only in the interner, each one explained. Not
        // through `push`: the rule has no `lint: allow`.
        if ident_appears(&code, "unsafe") {
            let explained = lines[idx.saturating_sub(2)..=idx]
                .iter()
                .any(|l| l.comment.to_ascii_lowercase().contains("safety:"));
            // (One message per line: the line cleaner blanks a string
            // only up to the end of the line it opens on.)
            let message = if profile.unsafe_confined {
                Some(format!("`unsafe` outside `{UNSAFE_HOME}`, the workspace's one unsafe module"))
            } else if !explained {
                Some("`unsafe` with no `// Safety:` comment on its line or the two above".into())
            } else {
                None
            };
            if let Some(message) = message {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::UnsafeConfined,
                    message,
                });
            }
        }

        // Brace accounting, then scope-based releases.
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        guards.retain(|g| g.depth <= depth);
        if replica_set_impl.is_some_and(|entry| depth <= entry && code.contains('}')) {
            replica_set_impl = None;
        }
        if let Some(f) = fns.last_mut() {
            f.opened |= code.contains('{');
        }
        while let Some(f) = fns.last() {
            // Over when the body closed, or — for a bodiless trait
            // method — when the declaration's `;` arrived.
            let ended = if f.opened { depth <= f.entry_depth } else { code.trim_end().ends_with(';') };
            if ended {
                fns.pop();
            } else {
                break;
            }
        }
    }
    findings
}

/// The one file that may hold `unsafe` (L8).
const UNSAFE_HOME: &str = "crates/dns/src/name.rs";

/// Files whose non-test code L6 keeps clock-free, as path suffixes: the
/// broker's fan-out and journal, which every publish runs through.
const CLOCK_FREE_FILES: [&str; 2] = ["broker/src/broker.rs", "broker/src/shard.rs"];

/// The one function on a fan-out path that may call
/// `encode_snapshot_chunks`: the broker stream handler's train-cache fill.
const TRAIN_FILL_FN: &str = "snapshot_train";

/// The name of a function declared on this line, if any.
fn fn_header_name(code: &str) -> Option<String> {
    let pos = code.find("fn ")?;
    // Reject matches inside identifiers (e.g. `often `).
    if pos > 0 {
        let prev = code.as_bytes()[pos - 1] as char;
        if prev.is_ascii_alphanumeric() || prev == '_' {
            return None;
        }
    }
    let rest = &code[pos + 3..];
    let name: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    (!name.is_empty() && rest[name.len()..].trim_start().starts_with(['(', '<']))
        .then_some(name)
}

/// One textual lock acquisition on a code line.
struct Acquisition {
    /// The acquiring expression spans `start..end`: the receiver chain
    /// through `.lock()`, or the helper's name through its `)`.
    start: usize,
    end: usize,
    /// The [`DeclTable`] key its level is found under: the receiver's
    /// name, or the helper's name plus `(`.
    key: String,
}

/// Textual lock acquisitions, in line order: `.lock()`, `.read()`,
/// `.write()` with empty argument lists (I/O reads and writes always
/// pass a buffer) on a named receiver — the last path segment of the
/// identifier chain (`self.inner.threads.lock()` → `threads`); a call
/// result is unresolvable and left to the runtime lockdep — and every
/// free call `name(…)`, which is an acquisition when the tables hold
/// `name(` (a lock helper).
fn acquisition_sites(code: &str) -> Vec<Acquisition> {
    let ident_char = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut sites = Vec::new();
    for token in [".lock()", ".read()", ".write()"] {
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(token) {
            let pos = from + pos;
            from = pos + token.len();
            let chain_len =
                code[..pos].chars().rev().take_while(|&c| ident_char(c) || c == '.').count();
            let chain = &code[pos - chain_len..pos];
            let receiver = chain.rsplit('.').next().unwrap_or_default();
            if receiver.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
                let key = receiver.to_string();
                sites.push(Acquisition { start: pos - chain_len, end: from, key });
            }
        }
    }
    for (open, _) in code.match_indices('(') {
        let name_len = code[..open].chars().rev().take_while(|&c| ident_char(c)).count();
        let start = open - name_len;
        let head = code[..start].trim_end();
        if name_len == 0 || head.ends_with('.') || head.ends_with("fn") {
            continue;
        }
        let end = open + 1 + paren_arg(code, open + 1).len() + 1;
        sites.push(Acquisition { start, end: end.min(code.len()), key: code[start..=open].into() });
    }
    sites.sort_unstable_by_key(|site| site.start);
    sites
}

/// If the acquisition spanning `start..end` is bound to a named guard
/// (`let g = receiver.lock();`, `let (_held, g) = lock_half(h);`), the
/// guard's name — a tuple pattern's last. Temporaries (no binding, or a
/// trailing method chain that consumes the guard) return `None` and are
/// released at end of line.
fn guard_binding(code: &str, start: usize, end: usize) -> Option<String> {
    let t = code.trim_start();
    let indent = code.len() - t.len();
    if !t.starts_with("let ") {
        return None;
    }
    let eq = code.find('=')?;
    if eq > start {
        return None;
    }
    // Between `=` and the acquisition: only borrows/derefs.
    let between = code[eq + 1..start].trim();
    if !between.chars().all(|c| c == '&' || c == '*' || c.is_whitespace()) {
        return None;
    }
    // After the acquisition: `;`, or a poison-recovery combinator.
    let tail = code[end..].trim();
    if !(tail.is_empty() || tail.starts_with(';') || tail.starts_with(".unwrap_or_else(")) {
        return None;
    }
    // The bound name: `let [mut] name = ...`, or a tuple's last.
    let pattern = code[indent + 4..eq].trim();
    let pattern = pattern.strip_prefix('(').and_then(|p| p.strip_suffix(')')).unwrap_or(pattern);
    let binding = pattern.rsplit(',').next()?.trim().trim_start_matches("mut ").trim();
    (binding.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !binding.is_empty())
        .then(|| binding.to_string())
}

/// The argument of `drop(x)` when this line drops a named binding.
fn drop_target(code: &str) -> Option<String> {
    let pos = code.find("drop(")?;
    if pos > 0 {
        let prev = code.as_bytes()[pos - 1] as char;
        if prev.is_ascii_alphanumeric() || prev == '_' || prev == '.' {
            return None; // mem::drop is fine; method calls are not drops
        }
    }
    let arg = paren_arg(code, pos + "drop(".len());
    let name = arg.trim();
    (name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !name.is_empty())
        .then(|| name.to_string())
}

/// Join physical code lines into logical statements: a statement
/// accumulates until a line ends with `;`, `{`, `}`, or `,`. Good
/// enough for L2's "was this count bounded earlier?" lookback, where
/// the bound chain frequently wraps.
fn logical_statements(lines: &[Line]) -> Vec<String> {
    let mut stmts = Vec::new();
    let mut cur = String::new();
    for line in lines {
        let t = line.code.trim();
        if t.is_empty() {
            continue;
        }
        cur.push(' ');
        cur.push_str(t);
        if t.ends_with(';') || t.ends_with('{') || t.ends_with('}') || t.ends_with(',') {
            stmts.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        stmts.push(cur);
    }
    stmts
}

/// The text inside a parenthesized group starting at `open` (the byte
/// after the `(`), honouring nesting.
fn paren_arg(code: &str, open: usize) -> String {
    let mut depth = 1i64;
    let mut arg = String::new();
    for c in code[open..].chars() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        arg.push(c);
    }
    arg
}

/// The first identifier in an expression (skipping numeric literals).
fn first_ident(expr: &str) -> Option<String> {
    let mut chars = expr.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if c.is_ascii_alphabetic() || c == '_' {
            let ident: String = expr[i..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if ident == "as" || ident == "usize" || ident == "u32" || ident == "u64" {
                for _ in 0..ident.len().saturating_sub(1) {
                    chars.next();
                }
                continue;
            }
            return Some(ident);
        }
        if c.is_ascii_digit() {
            // Skip the rest of a numeric literal (incl. suffixes).
            while let Some(&(_, n)) = chars.peek() {
                if n.is_ascii_alphanumeric() || n == '_' {
                    chars.next();
                } else {
                    break;
                }
            }
        }
    }
    None
}

/// The identifier-shaped words of a code line (keywords and numeric
/// literals included — callers compare against a known name).
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// Does `ident` appear in `code` as a whole word?
fn ident_appears(code: &str, ident: &str) -> bool {
    idents(code).any(|w| w == ident)
}

/// Direct slice/array indexing: a `[` immediately following an
/// identifier character, `]`, or `)`. Attribute lines (`#[...]`),
/// array-type and array-literal brackets are not indexing.
fn has_slice_index(code: &str) -> bool {
    if code.trim_start().starts_with('#') {
        return false;
    }
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if prev.is_ascii_alphanumeric() || prev == '_' || prev == ']' || prev == ')' {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Directories the token rules never enter: vendored shims, build
/// output, the linter's own seeded-violation fixtures, and test support
/// trees.
fn never_scanned(name: &str) -> bool {
    matches!(name, "vendor" | "target" | "fixtures" | ".git" | "tests" | "benches" | "examples")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !never_scanned(&name) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file under `crates/` and `src/` of `root` (those that
/// exist), sorted, with its source text.
fn read_sources(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|file| std::fs::read_to_string(&file).map(|source| (file, source)))
        .collect()
}

/// Scan the workspace rooted at `root` with the token rules: every
/// non-vendored `.rs` file under `crates/*/src` and `src/`, with
/// path-derived profiles and a two-pass (declarations, then checks) so
/// cross-file receivers resolve when their names are workspace-unique.
/// L7 is its own pass, [`scan_orphans`]: it builds the tree.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let sources = read_sources(root)?;

    // Pass 1: the global declaration table.
    let global = collect_global_decls(&sources);

    // Pass 2: checks.
    let mut findings = Vec::new();
    for (file, source) in &sources {
        let profile = profile_for(file);
        findings.extend(scan_source(file, source, profile, &global));
    }
    let doc = root.join(LEVEL_TABLE_DOC);
    if doc.is_file() {
        findings.extend(scan_level_table(&sources, &doc, &std::fs::read_to_string(&doc)?));
    }
    Ok(findings)
}

// ---------------------------------------------------------------------------
// L1, cross-file half: the lock classes and the documented level table
// ---------------------------------------------------------------------------

/// The document holding the level table, relative to the workspace root.
const LEVEL_TABLE_DOC: &str = "docs/INVARIANTS.md";

/// A lock class as a static declares it or a table row documents it.
struct ClassSite {
    name: String,
    level: u32,
    line: usize,
}

/// `("name", N)` behind a raw line's `LockClass::new(`.
fn class_args(raw: &str) -> Option<(String, u32)> {
    const CTOR: &str = "LockClass::new(";
    let rest = raw[raw.find(CTOR)? + CTOR.len()..].trim_start().strip_prefix('"')?;
    let (name, rest) = rest.split_once('"')?;
    let rest = rest.trim_start().strip_prefix(',')?.trim_start();
    let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    Some((name.to_string(), rest[..digits].parse().ok()?))
}

/// Every non-test `LockClass::new("name", N)` in `source`, with the
/// identifier of the static it initialises (`SHARD` for
/// `static SHARD: LockClass = …`; empty when the line names none).
fn lock_classes(source: &str) -> Vec<(String, ClassSite)> {
    let lines = clean(source);
    let mask = test_mask(&lines);
    let mut classes = Vec::new();
    for ((idx, line), raw) in lines.iter().enumerate().zip(source.lines()) {
        // The cleaned code has the class name blanked: the raw line
        // carries it.
        if mask[idx] || !line.code.contains("LockClass::new(") {
            continue;
        }
        let Some((name, level)) = class_args(raw) else { continue };
        let ident = line
            .code
            .split_once("static ")
            .and_then(|(_, rest)| first_ident(rest))
            .unwrap_or_default();
        classes.push((ident, ClassSite { name, level, line: idx + 1 }));
    }
    classes
}

/// The rows of the level table (the `### The level table` section) whose
/// class cell is backticked, each with whether its Why cell says
/// "annotation only" — a documented level no `LockClass` carries.
fn level_table_rows(doc: &str) -> Vec<(ClassSite, bool)> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for (idx, line) in doc.lines().enumerate() {
        if line.starts_with('#') {
            in_table = line.trim() == "### The level table";
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if !in_table || cells.len() < 5 {
            continue;
        }
        let (Ok(level), Some(name)) = (
            cells[1].parse(),
            cells[2].strip_prefix('`').and_then(|c| c.strip_suffix('`')),
        ) else {
            continue;
        };
        let annotation_only = cells[4].to_ascii_lowercase().contains("annotation only");
        rows.push((ClassSite { name: name.to_string(), level, line: idx + 1 }, annotation_only));
    }
    rows
}

/// L1's cross-file half: every non-test `LockClass::new("name", N)` in
/// `sources` has a ``| N | `name` |`` row in the level table of `doc`
/// (read from `doc_path`), and every such row names a static declared
/// with exactly that name and level — unless its Why cell says
/// "annotation only". A class deleted, added or re-levelled on one side
/// alone is a finding on the side that still claims it.
pub fn scan_level_table(sources: &[(PathBuf, String)], doc_path: &Path, doc: &str) -> Vec<Finding> {
    let mut statics = Vec::new();
    for (path, source) in sources {
        statics.extend(lock_classes(source).into_iter().map(|(_, class)| (path, class)));
    }
    let rows = level_table_rows(doc);
    let same = |a: &ClassSite, b: &ClassSite| a.name == b.name && a.level == b.level;
    let mut findings = Vec::new();
    for (path, class) in &statics {
        if !rows.iter().any(|(row, _)| same(row, class)) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: class.line,
                rule: Rule::LockLevel,
                message: format!(
                    "lock class `{}` (level {}) has no row in {LEVEL_TABLE_DOC}'s level table",
                    class.name, class.level
                ),
            });
        }
    }
    for (row, annotation_only) in &rows {
        if !annotation_only && !statics.iter().any(|(_, class)| same(class, row)) {
            findings.push(Finding {
                file: doc_path.to_path_buf(),
                line: row.line,
                rule: Rule::LockLevel,
                message: format!(
                    "level-table row `{}` (level {}) names no `LockClass` static of that level; \
                     delete the row, or mark it \"annotation only\"",
                    row.name, row.level
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// L7: orphaned public items — the one cross-file rule, resolved by rustc
// ---------------------------------------------------------------------------

/// The name a `pub fn` / `const` / `static` / `type` item declares on
/// this line. `pub(crate)` and narrower are not public surface.
fn pub_item_name(code: &str) -> Option<&str> {
    let mut rest = code.trim_start().strip_prefix("pub ")?.trim_start();
    let mut is_item = false;
    loop {
        let word_len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let (word, tail) = rest.split_at(word_len);
        match word {
            // `const` doubles as a `fn` qualifier; either way the name
            // is the first word that is not a keyword.
            "fn" | "type" | "const" | "static" => is_item = true,
            "unsafe" | "async" | "mut" => {}
            _ => return (is_item && word != "_" && !word.is_empty()).then_some(word),
        }
        if !tail.starts_with(' ') {
            return None;
        }
        rest = tail.trim_start();
    }
}

/// Does this file (path relative to the workspace root) declare public
/// surface L7 answers for? Crate sources only — not the paper binaries
/// (no importer by construction) and not the linter itself.
fn declares_surface(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.starts_with("crates/") && p.contains("/src/") && !p.contains("/src/bin/") && !p.starts_with("crates/lint/")
}

/// Where the L7 pass writes, relative to the workspace root: the
/// annotated copy of the tree and the build of it.
const L7_DIR: &str = "target/l7";

/// The note every probed item carries in the copy, and the prefix a
/// rustc deprecation warning quotes it by.
const PROBE_NOTE: &str = "L7 ";

/// The `pub` items of one surface file L7 probes, as `(0-based line,
/// name)`: every `pub fn` / `const` / `static` / `type` that is not
/// under a `#[cfg(…)]` gate (`test` included) or inside a
/// `macro_rules!` body — what one check profile cannot see whole.
fn probes(lines: &[Line]) -> Vec<(usize, &str)> {
    let gated =
        gated_mask(lines, |code| code.find("#[cfg(").or_else(|| code.find("macro_rules!")));
    lines
        .iter()
        .enumerate()
        .filter(|(idx, _)| !gated[*idx])
        .filter_map(|(idx, line)| pub_item_name(&line.code).map(|name| (idx, name)))
        .collect()
}

/// `source` with `#[deprecated(note = "L7 <rel>:<line>")]` in front of
/// each probed item, on the item's own line so every line keeps its
/// number.
fn annotate(rel: &str, source: &str, probed: &[(usize, &str)]) -> String {
    let mut out = String::with_capacity(source.len() + probed.len() * 64);
    let mut next = probed.iter().map(|(idx, _)| *idx).peekable();
    for (idx, raw) in source.split_inclusive('\n').enumerate() {
        if next.next_if_eq(&idx).is_some() {
            let indent = raw.len() - raw.trim_start().len();
            out.push_str(&raw[..indent]);
            out.push_str(&format!("#[deprecated(note = \"{PROBE_NOTE}{rel}:{}\")] ", idx + 1));
            out.push_str(&raw[indent..]);
        } else {
            out.push_str(raw);
        }
    }
    out
}

/// One reference as rustc reports it: the use site and the probed item
/// it resolves to, both as workspace-relative paths and 1-based lines.
#[derive(Debug, PartialEq, Eq)]
struct Reference {
    at: (PathBuf, usize),
    item: (PathBuf, usize),
}

/// Read one line of `cargo check --message-format=short` output as a
/// reference, if it is a deprecation warning quoting an L7 note. The
/// use site is resolved against `cwd` (where cargo ran) and made
/// relative to `tree` (the copy's root); a site outside it is none.
fn parse_reference(line: &str, cwd: &Path, tree: &Path) -> Option<Reference> {
    let (site, message) = line.split_once(": warning: use of deprecated ")?;
    let (_, note) = message.rsplit_once(&format!(": {PROBE_NOTE}"))?;
    let (item_file, item_line) = note.trim_end().rsplit_once(':')?;
    let mut parts = site.rsplitn(3, ':');
    let (_col, at_line, at_file) = (parts.next()?, parts.next()?, parts.next()?);
    let mut at = PathBuf::new();
    for part in cwd.join(at_file).components() {
        match part {
            std::path::Component::ParentDir => {
                at.pop();
            }
            std::path::Component::CurDir => {}
            other => at.push(other),
        }
    }
    Some(Reference {
        at: (at.strip_prefix(tree).ok()?.to_path_buf(), at_line.parse().ok()?),
        item: (PathBuf::from(item_file), item_line.parse().ok()?),
    })
}

/// Write `bytes` to `path` unless it already holds them, so an
/// unchanged file keeps the mtime cargo fingerprints it by.
fn sync_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if std::fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, bytes)
}

/// Every file under `dir` (relative to `base`), skipping `.git` and
/// every `target` directory.
fn tree_files(base: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if !path.ends_with(".git") && !path.ends_with("target") {
                tree_files(base, &path, out)?;
            }
        } else if let Ok(rel) = path.strip_prefix(base) {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Run `cargo check --all-targets` on the manifest in `dir` and return
/// the references its warnings report. A failed check is an error: a
/// tree that does not build resolves nothing.
fn check_references(dir: &Path, tree: &Path, build: &Path) -> std::io::Result<Vec<Reference>> {
    let out = std::process::Command::new("cargo")
        .args(["check", "--offline", "--all-targets", "--message-format=short"])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", build)
        .env("RUSTFLAGS", "--cap-lints warn")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .output()?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        let errors: Vec<&str> = stderr.lines().filter(|l| l.contains("error")).take(20).collect();
        return Err(std::io::Error::other(format!(
            "cargo check failed in {}:\n{}",
            dir.display(),
            errors.join("\n")
        )));
    }
    Ok(stderr.lines().filter_map(|line| parse_reference(line, dir, tree)).collect())
}

/// The outcome of the L7 pass: its findings, and how many references
/// each `cargo check` reported (the workspace's, then `rzu_bench`'s).
#[derive(Debug, Default)]
pub struct OrphanScan {
    pub findings: Vec<Finding>,
    pub references: Vec<usize>,
}

/// L7 over the workspace rooted at `root`. The tree is mirrored into
/// `target/l7/tree` with every probed `pub` item of `crates/*/src`
/// marked `#[deprecated]`, then checked with all targets — the
/// workspace, and the standalone `rzu_bench/` package when there is
/// one — into `target/l7/build`. Each deprecation warning is one
/// reference, at its use site: rustc resolves the path, so a same-named
/// item of another type is no caller, and a doc link never is. An item
/// with a use in another file has a caller; otherwise its own file's
/// code (which wins) or tests decide the verdict.
pub fn scan_orphans(shown_root: &Path) -> std::io::Result<OrphanScan> {
    let root = &shown_root.canonicalize()?;
    let l7 = root.join(L7_DIR);
    let tree = l7.join("tree");
    let build = l7.join("build");

    let mut files = Vec::new();
    tree_files(root, root, &mut files)?;
    files.sort();
    // The surface files, in path order, with each one's test mask for
    // the verdict.
    let mut surface = Vec::new();
    for rel in &files {
        let bytes = std::fs::read(root.join(rel))?;
        let is_surface = rel.extension().is_some_and(|e| e == "rs") && declares_surface(rel);
        let source = match std::str::from_utf8(&bytes) {
            Ok(source) if is_surface => source,
            _ => {
                sync_file(&tree.join(rel), &bytes)?;
                continue;
            }
        };
        let lines = clean(source);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        sync_file(&tree.join(rel), annotate(&rel_str, source, &probes(&lines)).as_bytes())?;
        let mask = test_mask(&lines);
        surface.push((rel, lines, mask));
    }
    // A file the tree no longer holds must not build in the copy.
    let mut copied = Vec::new();
    if tree.is_dir() {
        tree_files(&tree, &tree, &mut copied)?;
    }
    let kept: HashSet<&PathBuf> = files.iter().collect();
    for stale in copied.iter().filter(|rel| !kept.contains(rel)) {
        std::fs::remove_file(tree.join(stale))?;
    }

    let mut scan = OrphanScan::default();
    let mut uses: HashMap<(PathBuf, usize), Vec<(PathBuf, usize)>> = HashMap::new();
    for dir in [tree.clone(), tree.join("rzu_bench")] {
        if !dir.join("Cargo.toml").is_file() {
            continue;
        }
        let refs = check_references(&dir, &tree, &build)?;
        scan.references.push(refs.len());
        for r in refs {
            uses.entry(r.item).or_default().push(r.at);
        }
    }

    for (path, lines, mask) in &surface {
        for (idx, name) in probes(lines) {
            let sites = uses.get(&(path.to_path_buf(), idx + 1)).map(Vec::as_slice).unwrap_or_default();
            if sites.iter().any(|(file, _)| file != *path) {
                continue;
            }
            // In-file uses from the code half, then from the test half.
            let own = |tests: bool| sites.iter().any(|(_, line)| mask.get(line - 1) == Some(&tests));
            let message = if own(false) {
                format!("`{name}` is named only inside its own file: narrow it to `pub(crate)` or private")
            } else if own(true) {
                format!(
                    "`{name}` is named by no other file, only by its own file's tests: delete it \
                     with those assertions, or gate a test hook behind `#[cfg(test)]`"
                )
            } else {
                format!("`{name}` is named nowhere else: delete it")
            };
            scan.findings.push(Finding {
                file: shown_root.join(path),
                line: idx + 1,
                rule: Rule::OrphanPub,
                message,
            });
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str, profile: Profile) -> Vec<Finding> {
        scan_source(Path::new("mem.rs"), src, profile, &DeclTable::new())
    }

    #[test]
    fn strings_and_comments_do_not_form_tokens() {
        let src = r#"
fn f() {
    let s = "contains .unwrap() and panic! in a string";
    // a comment mentioning .unwrap()
    let c = 'x';
}
"#;
        let findings = scan(src, Profile { panic_free: true, ..Profile::default() });
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = r#"
fn hot() {}

#[cfg(test)]
mod tests {
    fn t() {
        let x: Option<u8> = None;
        x.unwrap();
    }
}
"#;
        let findings = scan(src, Profile { panic_free: true, ..Profile::default() });
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_requires_justification() {
        let bare = "fn f() {\n    // lint: allow(panic)\n    x.unwrap();\n}\n";
        let findings = scan(bare, Profile { panic_free: true, ..Profile::default() });
        assert_eq!(findings.len(), 1, "bare allow must not suppress: {findings:?}");

        let justified =
            "fn f() {\n    // lint: allow(panic) startup-only, no peer yet\n    x.unwrap();\n}\n";
        let findings = scan(justified, Profile { panic_free: true, ..Profile::default() });
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lifetimes_do_not_eat_the_rest_of_the_line() {
        let src = "fn f<'a>(x: &'a [u8]) -> &'a [u8] { x }\nfn g() { y.unwrap(); }\n";
        let findings = scan(src, Profile { panic_free: true, ..Profile::default() });
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn wrapped_signatures_keep_their_function_context() {
        // L2 and L4 key on the enclosing function; a signature wrapped
        // over several lines must not end the context before the body.
        let src = "pub fn decode_rows(\n    bytes: &[u8],\n) -> Vec<u8> {\n    let count = bytes.len();\n    Vec::with_capacity(count)\n}\n";
        let findings = scan(src, Profile { decode_bounds: true, ..Profile::default() });
        assert_eq!(findings.len(), 1, "{findings:?}");
        // A bodiless trait method ends at its `;`, not at the next body.
        let src = "trait T {\n    fn decode_x(&self);\n    fn other(&self) {\n        let v = Vec::with_capacity(n);\n    }\n}\n";
        let findings = scan(src, Profile { decode_bounds: true, ..Profile::default() });
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn pub_item_names_skip_qualifiers_and_narrower_visibility() {
        for (code, name) in [
            ("pub fn plain(x: u8) {", Some("plain")),
            ("    pub const fn folded() -> u8 {", Some("folded")),
            ("pub async unsafe fn both<T>() {", Some("both")),
            ("pub const LIMIT: usize = 4;", Some("LIMIT")),
            ("pub static mut COUNTER: u64 = 0;", Some("COUNTER")),
            ("pub type Table<T> = Vec<T>;", Some("Table")),
            ("pub const _: () = ();", None),
            ("pub(crate) fn narrowed() {}", None),
            ("pub struct NotTracked;", None),
            ("pub use other::thing;", None),
            ("fn private() {}", None),
        ] {
            assert_eq!(pub_item_name(code), name, "{code}");
        }
    }

    #[test]
    fn l7_probes_skip_cfg_gated_items_and_macro_bodies() {
        let src = "pub fn kept() {}
#[cfg(not(debug_assertions))]
mod imp {
    pub fn twin() {}
}
#[cfg(debug_assertions)] pub const GATED: u8 = 1;
pub const AFTER: u8 = 2;
macro_rules! m {
    () => { pub fn load() {} };
}
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
        let lines = clean(src);
        assert_eq!(probes(&lines), [(0, "kept"), (6, "AFTER")]);
        // The note goes on the item's own line: every line keeps its number.
        let annotated = annotate("a/b.rs", src, &probes(&lines));
        assert_eq!(annotated.lines().count(), src.lines().count());
        assert!(annotated.starts_with("#[deprecated(note = \"L7 a/b.rs:1\")] pub fn kept() {}\n"));
    }

    #[test]
    fn l7_references_resolve_to_tree_relative_use_sites() {
        let tree = Path::new("/w/target/l7/tree");
        let line = "../crates/dns/src/wire.rs:13:21: warning: use of deprecated method \
                    `x::Y::get`: L7 crates/dns/src/zone.rs:10";
        assert_eq!(
            parse_reference(line, &tree.join("rzu_bench"), tree),
            Some(Reference {
                at: (PathBuf::from("crates/dns/src/wire.rs"), 13),
                item: (PathBuf::from("crates/dns/src/zone.rs"), 10),
            })
        );
        // Not a probe's note, or not a deprecation at all: no reference.
        let other = "src/a.rs:1:1: warning: use of deprecated function `f`: use g instead";
        assert_eq!(parse_reference(other, tree, tree), None);
        assert_eq!(parse_reference("src/a.rs:1:1: warning: unused variable: `L7 x:1`", tree, tree), None);
    }

    #[test]
    fn guard_binding_vs_temporary() {
        // A let-bound Arc::clone around a read guard is a temporary,
        // not a held guard.
        let bound = |code: &str| {
            let site = acquisition_sites(code).into_iter().find(|s| s.key == "current")?;
            guard_binding(code, site.start, site.end)
        };
        assert_eq!(bound("let cur = Arc::clone(&self.current.read());"), None);
        assert_eq!(bound("let mut cur = self.current.lock();"), Some("cur".to_string()));
        let helper = |code: &str| {
            let site = acquisition_sites(code).into_iter().find(|s| s.key == "lock_half(")?;
            guard_binding(code, site.start, site.end)
        };
        assert_eq!(helper("let (_held, mut st) = lock_half(&self.rx);"), Some("st".to_string()));
        assert_eq!(helper("let n = lock_half(&self.rx).1.buf.len();"), None);
    }
}
