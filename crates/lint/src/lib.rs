//! `darkdns-lint`: a token-level scanner enforcing the workspace's
//! invariant catalogue (`docs/INVARIANTS.md`) as machine-checkable
//! rules. No `syn`, no dependencies — the same vendored-shim discipline
//! as the rest of the workspace, applied to the linter itself.
//!
//! Eight rules:
//!
//! * **L1 `lock-level`** — every `Mutex`/`RwLock` declaration carries a
//!   `// lock-level: N` annotation (or `lock-level: class` for generic
//!   wrappers whose level is carried by a runtime [`LockClass`]), and no
//!   function textually acquires a class at a level less than or equal
//!   to one still in scope. The static pass sees same-function nestings;
//!   the runtime `lockdep` subsystem in `darkdns-broker` covers
//!   cross-function and cross-thread orders.
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
//!   contract be tested without threads or sleeps.
//! * **L7 `orphan-pub`** — a `pub fn` / `const` / `static` / `type` on a
//!   non-test line of `crates/*/src` whose name occurs as a whole word
//!   in the code of no other `.rs` file of the repository is an orphan:
//!   public surface no caller reaches, and a finding like any other.
//!   This is the one cross-file rule ([`scan_orphans`]); it has no
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
    /// but the upstream-link driver and the definition site. (L6's clock ban inside `impl ReplicaSet` needs no flag: it
    /// applies wherever such an impl appears.)
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
    // that carries resume progress or a scope (client.rs defines it).
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
/// of the braced item it gates.
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        let code = &lines[i].code;
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            let start = i;
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            for m in mask.iter_mut().take((j + 1).min(lines.len())).skip(start) {
                *m = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
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

/// A lock declaration table: receiver name → hierarchy level.
pub type DeclTable = HashMap<String, u32>;

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
            for (pos, kind) in acquisition_sites(&code) {
                let Some(receiver) = receiver_name(&code, pos) else { continue };
                let level = file_decls
                    .get(&receiver)
                    .or_else(|| global_decls.get(&receiver))
                    .copied();
                let Some(level) = level else { continue };
                for g in &guards {
                    if g.level >= level {
                        push(
                            &mut findings,
                            idx,
                            Rule::LockLevel,
                            format!(
                                "acquiring `{receiver}` (level {level}) while `{}` (level {}) \
                                 is still in scope; levels must strictly increase",
                                g.class, g.level
                            ),
                        );
                        break;
                    }
                }
                if let Some(bound) = guard_binding(&code, pos) {
                    guards.push(Guard {
                        name: Some(bound),
                        class: receiver.clone(),
                        level,
                        depth,
                    });
                }
                let _ = kind;
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
                 salvaged progress or a scope is the upstream link's job — drive an \
                 `UpstreamLink` instead of growing another dialer"
                    .into(),
            );
        }
        if code.contains("impl ReplicaSet") {
            replica_set_impl = Some(depth);
        }
        if replica_set_impl.is_some() {
            for token in ["thread::sleep", "Instant::now("] {
                if code.contains(token) {
                    push(
                        &mut findings,
                        idx,
                        Rule::OneDialer,
                        format!(
                            "`{}` inside `impl ReplicaSet`: the state machine is pure — take \
                             `now: Instant` as an argument and leave waiting to the driver",
                            token.trim_end_matches('(')
                        ),
                    );
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

/// Byte offsets (and token text) of textual lock acquisitions:
/// `.lock()`, `.read()`, `.write()` with empty argument lists (I/O
/// reads and writes always pass a buffer).
fn acquisition_sites(code: &str) -> Vec<(usize, &'static str)> {
    let mut sites = Vec::new();
    for token in [".lock()", ".read()", ".write()"] {
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(token) {
            sites.push((from + pos, token));
            from += pos + token.len();
        }
    }
    sites.sort_unstable();
    sites
}

/// The receiver of an acquisition at `pos`: the last path segment of
/// the identifier chain ending there (`self.inner.threads.lock()` →
/// `threads`). `None` when the receiver is a call result or otherwise
/// unresolvable — the runtime lockdep covers those sites.
fn receiver_name(code: &str, pos: usize) -> Option<String> {
    let head = &code[..pos];
    let chain: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    let last = chain.rsplit('.').next()?.trim();
    (!last.is_empty() && last.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_'))
        .then_some(last.to_string())
}

/// If the acquisition at `pos` is bound to a named guard
/// (`let g = receiver.lock();`), the guard's name. Temporaries (no
/// binding, or a trailing method chain that consumes the guard) return
/// `None` and are released at end of line.
fn guard_binding(code: &str, pos: usize) -> Option<String> {
    let t = code.trim_start();
    let indent = code.len() - t.len();
    if !t.starts_with("let ") {
        return None;
    }
    let eq = code.find('=')?;
    if eq > pos {
        return None;
    }
    // Between `=` and the receiver chain: only borrows/derefs.
    let chain_start = {
        let head = &code[..pos];
        let tail_len = head
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
            .count();
        pos - tail_len
    };
    let between = code[eq + 1..chain_start].trim();
    if !between.chars().all(|c| c == '&' || c == '*' || c.is_whitespace()) {
        return None;
    }
    // After the acquisition: `;`, or a poison-recovery combinator.
    let after = &code[pos..];
    let close = after.find(')')? + 1;
    let tail = after[close..].trim();
    if !(tail.is_empty()
        || tail.starts_with(';')
        || tail.starts_with(".unwrap_or_else("))
    {
        return None;
    }
    // The bound name: `let [mut] name = ...`.
    let binding = code[indent + 4..eq].trim().trim_start_matches("mut ").trim();
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

/// Directories no scan enters: vendored shims, build output, and the
/// linter's own seeded-violation fixtures.
fn never_scanned(name: &str) -> bool {
    matches!(name, "vendor" | "target" | "fixtures" | ".git")
}

/// Directories the per-file rules skip on top of [`never_scanned`]:
/// test support trees, which L7 alone reads (as callers).
fn test_support(name: &str) -> bool {
    matches!(name, "tests" | "benches" | "examples")
}

fn collect_rs_files(
    dir: &Path,
    skip: &dyn Fn(&str) -> bool,
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip(&name) {
                collect_rs_files(&path, skip, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file under the given top-level directories of `root`
/// (those that exist), sorted, with its source text.
fn read_sources(
    root: &Path,
    tops: &[&str],
    skip: &dyn Fn(&str) -> bool,
) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, skip, &mut files)?;
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|file| std::fs::read_to_string(&file).map(|source| (file, source)))
        .collect()
}

/// Scan the workspace rooted at `root`: every non-vendored `.rs` file
/// under `crates/*/src` and `src/`, with path-derived profiles and a
/// two-pass (declarations, then checks) so cross-file receivers resolve
/// when their names are workspace-unique; then the one cross-file rule,
/// L7, over every file that could name a `pub` item.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let sources =
        read_sources(root, &["crates", "src"], &|d| never_scanned(d) || test_support(d))?;

    // Pass 1: the global declaration table (names with conflicting
    // levels across files are ambiguous and dropped — per-file tables
    // still resolve them locally).
    let mut global = DeclTable::new();
    let mut conflicted: Vec<String> = Vec::new();
    for (_, source) in &sources {
        for (name, level) in collect_decls(source) {
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

    // Pass 2: checks.
    let mut findings = Vec::new();
    for (file, source) in &sources {
        let profile = profile_for(file);
        findings.extend(scan_source(file, source, profile, &global));
    }
    findings.extend(scan_workspace_orphans(root)?);
    Ok(findings)
}

// ---------------------------------------------------------------------------
// L7: orphaned public items — the one cross-file rule
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

/// L7 over an explicit file set. Every file is a caller of every other;
/// the files `is_surface` accepts have their non-test `pub` items
/// checked. Comments and string literals name nothing: a doc link is
/// not a caller.
pub fn scan_orphans(
    sources: &[(PathBuf, String)],
    is_surface: &dyn Fn(&Path) -> bool,
) -> Vec<Finding> {
    let cleaned: Vec<(Vec<Line>, Vec<bool>)> = sources
        .iter()
        .map(|(_, source)| {
            let lines = clean(source);
            let mask = test_mask(&lines);
            (lines, mask)
        })
        .collect();
    let words: Vec<HashSet<&str>> = cleaned
        .iter()
        .map(|(lines, _)| lines.iter().flat_map(|l| idents(&l.code)).collect())
        .collect();

    let mut findings = Vec::new();
    for (at, ((path, _), (lines, mask))) in sources.iter().zip(&cleaned).enumerate() {
        if !is_surface(path) {
            continue;
        }
        for (idx, line) in lines.iter().enumerate() {
            if mask[idx] {
                continue;
            }
            let Some(name) = pub_item_name(&line.code) else { continue };
            if words.iter().enumerate().any(|(other, w)| other != at && w.contains(name)) {
                continue;
            }
            // Mentions in this file's test half (`true`) or code half.
            let own = |tests: bool| -> usize {
                lines
                    .iter()
                    .zip(mask)
                    .filter(|(_, &masked)| masked == tests)
                    .map(|(l, _)| idents(&l.code).filter(|w| *w == name).count())
                    .sum()
            };
            let message = if own(true) > 0 {
                format!(
                    "`{name}` is named by no other file, only by its own file's tests: delete it \
                     with those assertions, or gate a test hook behind `#[cfg(test)]`"
                )
            } else if own(false) > 1 {
                format!("`{name}` is named only inside its own file: narrow it to `pub(crate)` or private")
            } else {
                format!("`{name}` is named nowhere else: delete it")
            };
            findings.push(Finding {
                file: path.clone(),
                line: idx + 1,
                rule: Rule::OrphanPub,
                message,
            });
        }
    }
    findings
}

/// L7 over the workspace rooted at `root`: `pub` items of `crates/*/src`
/// against every `.rs` file that could call them — crate sources, the
/// root package, examples, integration tests, benches and the
/// standalone benchmark package.
fn scan_workspace_orphans(root: &Path) -> std::io::Result<Vec<Finding>> {
    let sources = read_sources(
        root,
        &["crates", "src", "examples", "tests", "benches", "rzu_bench"],
        &never_scanned,
    )?;
    Ok(scan_orphans(&sources, &|path| declares_surface(path.strip_prefix(root).unwrap_or(path))))
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
    fn guard_binding_vs_temporary() {
        // A let-bound Arc::clone around a read guard is a temporary,
        // not a held guard.
        assert_eq!(guard_binding("let cur = Arc::clone(&self.current.read());", 25), None);
        let code = "let mut subs = self.subscribers.lock();";
        let pos = code.find(".lock()").unwrap();
        assert_eq!(guard_binding(code, pos), Some("subs".to_string()));
    }
}
