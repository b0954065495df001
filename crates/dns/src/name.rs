//! Domain names, interned and `Copy`-cheap.
//!
//! A [`DomainName`] is a validated, lowercase, dot-separated sequence of
//! LDH (letters-digits-hyphen) labels in presentation format without the
//! trailing root dot. The root zone itself is represented by
//! [`DomainName::root`], displayed as `"."`.
//!
//! # Representation
//!
//! `DomainName` is a fixed 23-byte `Copy` value with two layouts:
//!
//! * **inline** — names of at most [`INLINE_LEN`] (22) bytes are stored
//!   directly in the value (the tag byte is the length; length 0 is the
//!   root). At `.com` scale the overwhelming majority of delegated names
//!   fit inline, so cloning a snapshot entry or a diff record is a 23-byte
//!   copy with no allocator traffic.
//! * **interned** — longer names hold a `u32` id into the process-global
//!   [`NameTable`], an append-only interner. Interning happens once per
//!   unique spelling; every subsequent parse of the same name returns the
//!   same id. The spelling is stored once, length-prefixed, in a leaked
//!   64 KiB arena block that the id's slot points straight at, and the
//!   spelling → id index is a set of the 4-byte ids themselves: a new
//!   spelling of `len` bytes costs about `len + 17` bytes for the process
//!   lifetime, and no allocation of its own.
//!
//! Equality and hashing are O(1) byte/id comparisons in both layouts
//! (equal interned strings always share one id, and an inline name can
//! never equal an interned one because their lengths differ). Ordering is
//! lexicographic on the presentation bytes, identical to the previous
//! `String`-backed ordering; the fast path short-circuits on equality.
//!
//! Validation follows RFC 1035 §2.3.4 sizes (labels 1..=63 octets, name
//! ≤ 253 octets in presentation form) with the LDH rule of RFC 3696:
//! labels may not begin or end with a hyphen. `_` is accepted anywhere in
//! a label (`_dmarc` service labels, and the host names CT log entries
//! carry). Internationalised names are expected in their punycode (`xn--`)
//! form, as they appear in zone files and CT log entries.
//!
//! # One label rule, one pass
//!
//! That rule is spelled once, as a byte table (`fold_label`), and every
//! name is built through it in one pass: [`DomainName::parse`],
//! [`DomainName::child`] (and [`DomainName::from_labels`], through
//! `parse`) and the wire decoder all append labels to a `NameBuf`, which
//! checks and lowercases each label as it copies it, and the value is
//! built straight from those bytes. Only a refused label is looked at
//! again, to name the first check it fails.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock};

/// Maximum name length stored inline (without interning).
const INLINE_LEN: usize = 22;

/// Tag value marking the interned layout.
const TAG_INTERNED: u8 = 0xFF;

/// Reasons a string is not a valid domain name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// The name (in presentation format) exceeds 253 octets.
    TooLong(usize),
    /// A label is empty (consecutive dots, or leading dot in a non-root name).
    EmptyLabel,
    /// A label exceeds 63 octets.
    LabelTooLong(String),
    /// A label contains a character outside `[a-z0-9_-]` (after
    /// lowercasing). `_` may stand anywhere in a label.
    BadCharacter(char),
    /// A label begins or ends with a hyphen.
    HyphenEdge(String),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::TooLong(n) => write!(f, "name is {n} octets; max is 253"),
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(l) => write!(f, "label `{l}` exceeds 63 octets"),
            NameError::BadCharacter(c) => write!(f, "character `{c}` not allowed"),
            NameError::HyphenEdge(l) => write!(f, "label `{l}` begins or ends with a hyphen"),
        }
    }
}

impl std::error::Error for NameError {}

// Interner geometry: ids index a two-level table of spelling slots so
// that resolution is lock-free and existing slots are never moved. 4096
// chunks of 32768 slots (256 KiB each) bound the table at ~134M unique
// long names — comfortably above .com scale.
const CHUNK_BITS: u32 = 15;
const CHUNK_SLOTS: usize = 1 << CHUNK_BITS;
const MAX_CHUNKS: usize = 4096;

/// Bytes in one arena block. Spellings (at most 254 bytes with their
/// length prefix) are bump-allocated from the current block; the tail a
/// spelling does not fit in is abandoned with it.
const BLOCK_BYTES: usize = 64 << 10;

/// The process-global domain-name interner.
///
/// Append-only: names are interned once and live for the process lifetime
/// (their storage is intentionally leaked). A spelling is stored once, as
/// a length byte and its bytes, in a leaked 64 KiB arena block; its id's
/// slot points straight at it, and the spelling → id index is a set of
/// 4-byte ids hashed and compared by the spelling they resolve to. A new
/// spelling of `len` bytes therefore costs `len + 1` arena bytes, an
/// 8-byte slot and one id in the index (≈ 5–11 bytes at its load) — no
/// per-name allocation. Insertion takes the write lock; id-to-string
/// resolution is a pair of atomic loads, so the diff engines' comparison
/// hot paths never contend.
pub struct NameTable {
    /// The write side. Re-parsing an already-interned spelling (the
    /// common case once a universe is built) takes only the read lock. A
    /// leaf in the workspace hierarchy; `dns` sits below the broker in
    /// the crate graph, so the lock is annotated rather than
    /// runtime-tracked.
    // lock-level: 90
    index: RwLock<Index>,
    /// Two-level id → spelling table. Chunks are allocated on demand and
    /// published with release stores; slots likewise, each pointing at a
    /// length-prefixed spelling in the arena.
    chunks: [AtomicPtr<AtomicPtr<u8>>; MAX_CHUNKS],
    /// Number of interned names (ids are `0..len`).
    len: AtomicU32,
}

/// What [`NameTable`]'s lock guards.
#[derive(Default)]
struct Index {
    /// Spelling → id, as the set of ids itself.
    ids: std::collections::HashSet<NameId, crate::hash::FxBuildHasher>,
    arena: Arena,
}

/// Where spellings are stored: bump-allocated from leaked blocks.
#[derive(Default)]
struct Arena {
    /// The unused tail of the current block.
    free: &'static mut [u8],
}

impl Arena {
    /// Store `s` (at most 253 bytes) as its length byte and its bytes,
    /// for the process lifetime.
    fn store(&mut self, s: &str) -> &'static [u8] {
        let stored = 1 + s.len();
        if self.free.len() < stored {
            self.free = Box::leak(vec![0u8; BLOCK_BYTES].into_boxed_slice());
        }
        let (spelling, rest) = std::mem::take(&mut self.free).split_at_mut(stored);
        self.free = rest;
        spelling[0] = s.len() as u8;
        spelling[1..].copy_from_slice(s.as_bytes());
        spelling
    }
}

/// An interned id as a member of [`Index::ids`]: hashed and compared as
/// the spelling it resolves to, so the set is looked up by `&str`. Equal
/// ids are equal spellings and, the table being a bijection, the reverse.
#[derive(Clone, Copy, PartialEq, Eq)]
struct NameId(u32);

impl std::hash::Hash for NameId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::borrow::Borrow::<str>::borrow(self).hash(state);
    }
}

impl std::borrow::Borrow<str> for NameId {
    fn borrow(&self) -> &str {
        NameTable::global().resolve(self.0)
    }
}

impl NameTable {
    /// The global interner instance.
    pub fn global() -> &'static NameTable {
        static TABLE: OnceLock<NameTable> = OnceLock::new();
        TABLE.get_or_init(|| NameTable {
            index: RwLock::new(Index::default()),
            chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_CHUNKS],
            len: AtomicU32::new(0),
        })
    }

    /// Intern `s` (already validated, canonical lowercase), returning its id.
    fn intern(&self, s: &str) -> u32 {
        if let Some(&NameId(id)) =
            self.index.read().unwrap_or_else(|poison| poison.into_inner()).ids.get(s)
        {
            return id;
        }
        let mut index = self.index.write().unwrap_or_else(|poison| poison.into_inner());
        // Re-check: another thread may have interned between the locks.
        if let Some(&NameId(id)) = index.ids.get(s) {
            return id;
        }
        let id = self.len.load(Ordering::Relaxed);
        assert!(
            (id as usize) < MAX_CHUNKS * CHUNK_SLOTS,
            "NameTable capacity exhausted ({} names)",
            id
        );
        let spelling = index.arena.store(s);
        let chunk_idx = (id >> CHUNK_BITS) as usize;
        let slot_idx = (id as usize) & (CHUNK_SLOTS - 1);
        let mut chunk = self.chunks[chunk_idx].load(Ordering::Acquire);
        if chunk.is_null() {
            let fresh: Box<[AtomicPtr<u8>]> =
                (0..CHUNK_SLOTS).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect();
            chunk = Box::leak(fresh).as_mut_ptr();
            self.chunks[chunk_idx].store(chunk, Ordering::Release);
        }
        // Safety: `chunk` points at CHUNK_SLOTS live slots and slot_idx is
        // in range; all writers are serialized by the index lock.
        unsafe { &*chunk.add(slot_idx) }.store(spelling.as_ptr().cast_mut(), Ordering::Release);
        // Published before the insert, which hashes the id by its spelling.
        index.ids.insert(NameId(id));
        self.len.store(id + 1, Ordering::Release);
        id
    }

    /// Resolve an id handed out by [`NameTable::intern`].
    fn resolve(&self, id: u32) -> &'static str {
        let chunk = self.chunks[(id >> CHUNK_BITS) as usize].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "resolve of unknown name id {id}");
        // Safety: a live id implies its chunk and slot were published with
        // release stores before the id escaped the interner.
        let slot = unsafe { &*chunk.add((id as usize) & (CHUNK_SLOTS - 1)) };
        let spelling = slot.load(Ordering::Acquire).cast_const();
        debug_assert!(!spelling.is_null(), "resolve of unpublished name id {id}");
        // A length byte and that many ASCII bytes, in a leaked arena block.
        // Safety: written before the slot's release store, never again.
        unsafe {
            let len = usize::from(*spelling);
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(spelling.add(1), len))
        }
    }
}

/// A validated, fully-qualified domain name in lowercase presentation form.
///
/// A fixed-size `Copy` value: see the module docs for the inline/interned
/// layout. Cloning never allocates; equality and hashing are O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainName {
    /// Length of the inline name (0..=22; 0 is the root), or
    /// [`TAG_INTERNED`] when `data[..4]` holds the interner id.
    tag: u8,
    /// Inline name bytes (zero-padded), or the little-endian id.
    data: [u8; INLINE_LEN],
}

impl DomainName {
    /// The DNS root.
    pub fn root() -> Self {
        DomainName { tag: 0, data: [0; INLINE_LEN] }
    }

    /// Parse and validate a name. Accepts an optional trailing root dot and
    /// uppercase input (both normalised away).
    ///
    /// One pass: each label is checked by the label rule and lowercased
    /// as it is copied into a stack buffer, and the value is built from
    /// those bytes, with no heap allocation on the (dominant) inline path.
    /// A name over 253 bytes is refused first; otherwise the error is the
    /// first failed check (empty, longer than 63 bytes, a bad character, a
    /// hyphen at an edge) of the first label the rule refuses.
    pub fn parse(input: &str) -> Result<Self, NameError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Ok(DomainName::root());
        }
        if trimmed.len() > 253 {
            return Err(NameError::TooLong(trimmed.len()));
        }
        let mut name = NameBuf::new();
        let mut at = 0;
        // Split as bytes: `str::split('.')` costs more than the rule.
        for label in trimmed.as_bytes().split(|&b| b == b'.') {
            // The whole fits, so only the rule can refuse a label.
            if !name.push(label) {
                return Err(label_error(&trimmed[at..at + label.len()]));
            }
            at += label.len() + 1;
        }
        Ok(name.finish())
    }

    /// Build from an already-canonical (lowercase, validated, no trailing
    /// dot) spelling. The internal constructor for parse and the
    /// label-manipulation methods.
    fn from_canonical(name: &str) -> Self {
        debug_assert!(name.len() <= 253);
        if name.len() <= INLINE_LEN {
            let mut data = [0u8; INLINE_LEN];
            data[..name.len()].copy_from_slice(name.as_bytes());
            DomainName { tag: name.len() as u8, data }
        } else {
            let id = NameTable::global().intern(name);
            let mut data = [0u8; INLINE_LEN];
            data[..4].copy_from_slice(&id.to_le_bytes());
            DomainName { tag: TAG_INTERNED, data }
        }
    }

    /// Build a name from labels, most-specific first (`["www","example","com"]`).
    /// A label containing a dot is rejected rather than silently split
    /// into several labels.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut joined = String::new();
        for label in labels {
            let label = label.as_ref();
            if label.contains('.') {
                return Err(NameError::BadCharacter('.'));
            }
            if !joined.is_empty() {
                joined.push('.');
            }
            joined.push_str(label);
        }
        DomainName::parse(&joined)
    }

    /// The canonical spelling: empty for the root, otherwise the lowercase
    /// dotted name. (Internal: the public form is [`DomainName::as_str`],
    /// which renders the root as `"."`.) The wire encoder keys its
    /// compression table on suffixes of this string.
    #[inline]
    pub(crate) fn raw(&self) -> &str {
        if self.tag == TAG_INTERNED {
            let id = u32::from_le_bytes(self.data[..4].try_into().expect("4 id bytes"));
            NameTable::global().resolve(id)
        } else {
            // Safety: inline bytes are ASCII written by from_canonical.
            unsafe { std::str::from_utf8_unchecked(&self.data[..self.tag as usize]) }
        }
    }

    pub fn is_root(&self) -> bool {
        self.tag == 0
    }

    /// Presentation form without the trailing dot; `"."` for the root.
    ///
    /// For inline names the returned slice borrows from `self`; interned
    /// names resolve to the `'static` interner storage.
    pub fn as_str(&self) -> &str {
        if self.is_root() {
            "."
        } else {
            self.raw()
        }
    }

    /// Labels, most-specific first. Empty for the root.
    pub fn labels(&self) -> Vec<&str> {
        if self.is_root() {
            Vec::new()
        } else {
            self.raw().split('.').collect()
        }
    }

    pub fn label_count(&self) -> usize {
        if self.is_root() {
            0
        } else {
            self.raw().bytes().filter(|&b| b == b'.').count() + 1
        }
    }

    /// The name with its leftmost label removed; `None` for the root.
    pub fn parent(&self) -> Option<DomainName> {
        if self.is_root() {
            return None;
        }
        let raw = self.raw();
        match raw.find('.') {
            Some(i) => Some(DomainName::from_canonical(&raw[i + 1..])),
            None => Some(DomainName::root()),
        }
    }

    /// The last (rightmost) label — the TLD — or `None` for the root.
    pub fn tld(&self) -> Option<&str> {
        if self.is_root() {
            None
        } else {
            Some(self.raw().rsplit('.').next().expect("non-empty name has a label"))
        }
    }

    /// True if `self` is `other` or a descendant of `other`. Every name is
    /// a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        if other.is_root() {
            return true;
        }
        if self == other {
            return true;
        }
        let (a, b) = (self.raw(), other.raw());
        a.len() > b.len()
            && a.ends_with(b)
            && a.as_bytes()[a.len() - b.len() - 1] == b'.'
    }

    /// Prepend a label, producing `label.self`.
    pub fn child(&self, label: &str) -> Result<DomainName, NameError> {
        let mut name = NameBuf::new();
        if !name.push(label.as_bytes()) {
            return Err(label_error(label));
        }
        // The parent's labels obey the rule: only the length can refuse one.
        if !self.is_root() && !self.raw().as_bytes().split(|&b| b == b'.').all(|l| name.push(l)) {
            return Err(NameError::TooLong(label.len() + 1 + self.raw().len()));
        }
        Ok(name.finish())
    }

    /// Keep only the rightmost `n` labels (e.g. `n = 2` on
    /// `a.b.example.com` gives `example.com`). Returns the whole name when
    /// it has at most `n` labels; the root when `n == 0`.
    pub fn suffix(&self, n: usize) -> DomainName {
        let count = self.label_count();
        if n == 0 {
            return DomainName::root();
        }
        if n >= count {
            return *self;
        }
        let raw = self.raw();
        let mut idx = raw.len();
        for _ in 0..n {
            idx = raw[..idx].rfind('.').expect("label count checked");
        }
        DomainName::from_canonical(&raw[idx + 1..])
    }

    /// Length in octets of the uncompressed wire encoding (length-prefixed
    /// labels plus the terminating zero octet).
    pub fn wire_len(&self) -> usize {
        if self.is_root() {
            1
        } else {
            self.raw().len() + 2
        }
    }
}

/// The label rule's alphabet, indexed by byte: the byte lowercased if a
/// label may hold it (an ASCII letter or digit, `-` or `_`), else 0.
const FOLD: [u8; 256] = {
    let mut fold = [0u8; 256];
    let mut b = 0;
    while b < fold.len() {
        let c = b as u8;
        if c.is_ascii_alphanumeric() || c == b'-' || c == b'_' {
            fold[b] = c.to_ascii_lowercase();
        }
        b += 1;
    }
    fold
};

/// The label rule: 1..=63 bytes of `FOLD`'s alphabet, neither beginning
/// nor ending with `-`. `_` may stand anywhere in the label, as in
/// `_dmarc` and in the host names CT log entries carry. Copies `label`
/// lowercased into `dst` (of its length) and reports whether it obeys;
/// on `false`, `dst` holds garbage.
#[inline]
fn fold_label(label: &[u8], dst: &mut [u8]) -> bool {
    let (Some(&first), Some(&last)) = (label.first(), label.last()) else {
        return false;
    };
    if label.len() > 63 || first == b'-' || last == b'-' {
        return false;
    }
    let mut obeys = true;
    for (folded, &b) in dst.iter_mut().zip(label) {
        *folded = FOLD[usize::from(b)];
        obeys &= *folded != 0;
    }
    obeys
}

/// Why the label rule refuses `label`: the first check it fails, in the
/// order empty, longer than 63 bytes, a character outside the alphabet
/// (the first such, decoded), a hyphen at an edge.
#[cold]
fn label_error(label: &str) -> NameError {
    if label.is_empty() {
        NameError::EmptyLabel
    } else if label.len() > 63 {
        NameError::LabelTooLong(label.to_owned())
    } else if let Some(c) = label.chars().find(|&c| !c.is_ascii() || FOLD[c as usize] == 0) {
        NameError::BadCharacter(c)
    } else {
        NameError::HyphenEdge(label.to_owned())
    }
}

/// A name assembled label by label, most specific first, through the
/// label rule: each label is checked and lowercased as it is copied in,
/// so the bytes build a [`DomainName`] with no second look. The one pass
/// [`DomainName::parse`], [`DomainName::child`] and the wire decoder
/// build names through.
pub(crate) struct NameBuf {
    /// `bytes[..len]`: labels the rule passed, lowercased, joined by dots.
    bytes: [u8; 253],
    len: usize,
}

impl NameBuf {
    #[inline]
    pub(crate) fn new() -> Self {
        NameBuf { bytes: [0; 253], len: 0 }
    }

    /// Append `label` behind a dot, checked by the label rule and
    /// lowercased. `false`, with nothing appended, if the rule refuses it
    /// or it would take the name past 253 bytes.
    #[inline]
    pub(crate) fn push(&mut self, label: &[u8]) -> bool {
        let sep = usize::from(self.len > 0);
        let end = self.len + sep + label.len();
        let Some(dst) = self.bytes.get_mut(self.len..end) else {
            return false;
        };
        if !fold_label(label, &mut dst[sep..]) {
            return false;
        }
        if sep == 1 {
            dst[0] = b'.';
        }
        self.len = end;
        true
    }

    /// The name the pushed labels spell; the root if there were none.
    #[inline]
    pub(crate) fn finish(&self) -> DomainName {
        // Safety: `push` extends `len` only over bytes it wrote: `FOLD`'s
        // ASCII alphabet and dots.
        let spelling = unsafe { std::str::from_utf8_unchecked(&self.bytes[..self.len]) };
        DomainName::from_canonical(spelling)
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Equality (including interned-id equality) is a 23-byte compare;
        // only genuinely different names fall through to byte ordering.
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        self.raw().as_bytes().cmp(other.raw().as_bytes())
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DomainName").field(&self.as_str()).finish()
    }
}

impl serde::Serialize for DomainName {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(if self.is_root() { String::new() } else { self.raw().to_owned() })
    }
}

impl serde::Deserialize for DomainName {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => DomainName::parse(s).map_err(serde::Error::custom),
            _ => Err(serde::Error::custom("expected domain-name string")),
        }
    }
}

impl serde::DeserializeKey for DomainName {
    fn from_key(key: &str) -> Result<Self, serde::Error> {
        DomainName::parse(key).map_err(serde::Error::custom)
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for DomainName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalises_case_and_root_dot() {
        let n = DomainName::parse("WwW.Example.COM.").unwrap();
        assert_eq!(n.as_str(), "www.example.com");
    }

    #[test]
    fn root_parses_from_dot_and_empty() {
        assert!(DomainName::parse(".").unwrap().is_root());
        assert!(DomainName::parse("").unwrap().is_root());
        assert_eq!(DomainName::root().as_str(), ".");
        assert_eq!(DomainName::root().label_count(), 0);
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!(DomainName::parse("a..b"), Err(NameError::EmptyLabel));
        assert!(matches!(DomainName::parse("exa mple.com"), Err(NameError::BadCharacter(' '))));
        assert!(matches!(DomainName::parse("-x.com"), Err(NameError::HyphenEdge(_))));
        assert!(matches!(DomainName::parse("x-.com"), Err(NameError::HyphenEdge(_))));
        let long_label = "a".repeat(64);
        assert!(matches!(
            DomainName::parse(&format!("{long_label}.com")),
            Err(NameError::LabelTooLong(_))
        ));
    }

    #[test]
    fn rejects_overlong_names() {
        let name = vec!["a".repeat(63); 4].join(".");
        assert_eq!(name.len(), 255);
        assert!(matches!(DomainName::parse(&name), Err(NameError::TooLong(255))));
    }

    #[test]
    fn accepts_punycode_and_service_labels() {
        assert!(DomainName::parse("xn--bcher-kva.example").is_ok());
        assert!(DomainName::parse("_dmarc.example.com").is_ok());
    }

    #[test]
    fn underscore_is_accepted_anywhere_in_a_label() {
        // The wire decoders and the paper binaries depend on this: `_` is
        // not confined to a service label's first character.
        let example = DomainName::parse("example.com").unwrap();
        for accepted in ["a_b", "ab_", "_dmarc", "A_B"] {
            let name = DomainName::parse(&format!("{accepted}.example.com")).unwrap();
            assert_eq!(name.as_str(), format!("{}.example.com", accepted.to_ascii_lowercase()));
            assert_eq!(example.child(accepted), Ok(name));
        }
        assert_eq!(DomainName::parse("a b.example.com"), Err(NameError::BadCharacter(' ')));
    }

    #[test]
    fn a_labels_first_failed_check_is_its_error() {
        let err = |name: &str| DomainName::parse(name).unwrap_err();
        let long = |first: char, fill: char| format!("{first}{}", fill.to_string().repeat(63));
        // Empty, then too long, then a bad character, then a hyphen edge:
        // a label failing several reports the earliest of them.
        assert_eq!(err("a..b"), NameError::EmptyLabel);
        assert_eq!(err(".a"), NameError::EmptyLabel);
        let too_long_and_bad = long('-', '!');
        assert_eq!(err(&too_long_and_bad), NameError::LabelTooLong(too_long_and_bad.clone()));
        assert_eq!(err("-a!b?-.com"), NameError::BadCharacter('!'));
        assert_eq!(err("-é-.com"), NameError::BadCharacter('é'));
        assert_eq!(err("-Ab.com"), NameError::HyphenEdge("-Ab".into()));
        assert_eq!(err("Ab-.com"), NameError::HyphenEdge("Ab-".into()));
        // Labels are checked in order; the name's length before any.
        assert_eq!(err("-a.b!"), NameError::HyphenEdge("-a".into()));
        assert_eq!(err("a!.-b"), NameError::BadCharacter('!'));
        assert_eq!(
            err(&format!("{}.x!", vec!["a".repeat(63); 4].join("."))),
            NameError::TooLong(258)
        );
        // `child` checks its label by the same rule, before the length.
        let com = DomainName::parse("com").unwrap();
        assert_eq!(com.child(""), Err(NameError::EmptyLabel));
        assert_eq!(com.child("-X"), Err(NameError::HyphenEdge("-X".into())));
        assert_eq!(com.child("a.b"), Err(NameError::BadCharacter('.')));
        assert_eq!(com.child(&long('a', 'b')), Err(NameError::LabelTooLong(long('a', 'b'))));
        let wide = DomainName::parse(&vec!["a".repeat(63); 3].join(".")).unwrap();
        assert_eq!(wide.child(&"b".repeat(61)).unwrap().as_str().len(), 253);
        assert_eq!(wide.child(&"b".repeat(62)), Err(NameError::TooLong(254)));
    }

    #[test]
    fn labels_and_parent() {
        let n = DomainName::parse("a.b.example.com").unwrap();
        assert_eq!(n.labels(), vec!["a", "b", "example", "com"]);
        assert_eq!(n.label_count(), 4);
        assert_eq!(n.parent().unwrap().as_str(), "b.example.com");
        assert_eq!(n.tld(), Some("com"));
        let tld = DomainName::parse("com").unwrap();
        assert_eq!(tld.parent(), Some(DomainName::root()));
        assert_eq!(DomainName::root().parent(), None);
    }

    #[test]
    fn subdomain_relation() {
        let com = DomainName::parse("com").unwrap();
        let example = DomainName::parse("example.com").unwrap();
        let www = DomainName::parse("www.example.com").unwrap();
        let examplenet = DomainName::parse("example.net").unwrap();
        let notexample = DomainName::parse("notexample.com").unwrap();
        assert!(www.is_subdomain_of(&example));
        assert!(example.is_subdomain_of(&com));
        assert!(example.is_subdomain_of(&example));
        assert!(!example.is_subdomain_of(&www));
        assert!(!examplenet.is_subdomain_of(&com));
        // `notexample.com` must not be treated as under `example.com`.
        assert!(!notexample.is_subdomain_of(&example));
        assert!(notexample.is_subdomain_of(&com));
        assert!(com.is_subdomain_of(&DomainName::root()));
    }

    #[test]
    fn child_builds_and_validates() {
        let com = DomainName::parse("com").unwrap();
        assert_eq!(com.child("Example").unwrap().as_str(), "example.com");
        assert!(com.child("bad label").is_err());
        assert_eq!(DomainName::root().child("org").unwrap().as_str(), "org");
    }

    #[test]
    fn suffix_extraction() {
        let n = DomainName::parse("a.b.example.co.uk").unwrap();
        assert_eq!(n.suffix(1).as_str(), "uk");
        assert_eq!(n.suffix(2).as_str(), "co.uk");
        assert_eq!(n.suffix(3).as_str(), "example.co.uk");
        assert_eq!(n.suffix(5), n);
        assert_eq!(n.suffix(9), n);
        assert!(n.suffix(0).is_root());
    }

    #[test]
    fn wire_len_matches_encoding_rule() {
        assert_eq!(DomainName::root().wire_len(), 1);
        assert_eq!(DomainName::parse("com").unwrap().wire_len(), 5); // 1+3+1
        assert_eq!(DomainName::parse("example.com").unwrap().wire_len(), 13);
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut names = vec![
            DomainName::parse("b.com").unwrap(),
            DomainName::parse("a.com").unwrap(),
            DomainName::parse("a.net").unwrap(),
        ];
        names.sort();
        let strs: Vec<_> = names.iter().map(|n| n.as_str()).collect();
        assert_eq!(strs, vec!["a.com", "a.net", "b.com"]);
    }

    #[test]
    fn from_labels_round_trip() {
        let n = DomainName::from_labels(["www", "example", "com"]).unwrap();
        assert_eq!(n.as_str(), "www.example.com");
        assert_eq!(DomainName::from_labels(Vec::<&str>::new()).unwrap(), DomainName::root());
        // A dotted "label" must not smuggle in extra label boundaries.
        assert_eq!(DomainName::from_labels(["a.b", "com"]), Err(NameError::BadCharacter('.')));
    }

    // ---- interner-specific coverage ----

    /// Stored inline, not via the interner.
    fn is_inline(name: &DomainName) -> bool {
        name.tag != TAG_INTERNED
    }

    #[test]
    fn inline_boundary_at_22_bytes() {
        // 18 + 4 = 22 bytes: the longest inline form.
        let at = DomainName::parse("a23456789012345678.com").unwrap();
        assert_eq!(at.as_str().len(), INLINE_LEN);
        assert!(is_inline(&at));
        // 23 bytes: first interned form.
        let over = DomainName::parse("a2345678901234567890.cc").unwrap();
        assert_eq!(over.as_str().len(), INLINE_LEN + 1);
        assert!(!is_inline(&over));
        assert_eq!(over.as_str(), "a2345678901234567890.cc");
    }

    #[test]
    fn interned_names_share_one_id() {
        // Identity, not a count: sibling tests intern concurrently.
        let a = DomainName::parse("this-is-a-rather-long.example.com").unwrap();
        for reparse in [
            "THIS-IS-A-RATHER-LONG.Example.COM.",
            "this-is-a-rather-long.example.com.",
            "This-Is-A-Rather-Long.example.com",
        ] {
            let b = DomainName::parse(reparse).unwrap();
            assert_eq!(a, b, "{reparse}");
            assert_eq!(a.as_str().as_ptr(), b.as_str().as_ptr(), "{reparse} re-interned");
        }
    }

    /// A valid name of exactly `len` (23..=253) bytes whose first label
    /// is `tag` (10 bytes) and `i`: padded, then 50-byte labels.
    fn name_of_len(tag: &str, i: usize, len: usize) -> String {
        let first = format!("{tag}{i:07}");
        assert_eq!(first.len(), 10);
        let full = (len - first.len()) / 51;
        let mut name = format!("{first:x<width$}", width = len - 51 * full);
        for _ in 0..full {
            name.push('.');
            name.push_str(&"a".repeat(50));
        }
        assert_eq!(name.len(), len);
        name
    }

    #[test]
    fn arena_blocks_fill_exactly_and_spellings_span_them() {
        let mut arena = Arena::default();
        let mut stored: Vec<(String, &'static [u8])> = Vec::new();
        let mut blocks = 0;
        let mut lens = (23..=253).cycle();
        while blocks < 3 {
            // Close the first block with a spelling that fills it exactly.
            let free = arena.free.len();
            let len = match lens.next().unwrap() {
                _ if blocks == 1 && (24..=254).contains(&free) => free - 1,
                len if blocks == 1 && free > 254 => len.min(free - 25),
                len => len,
            };
            let s = name_of_len("arn", stored.len(), len);
            let opens = arena.free.len() < 1 + len;
            let bytes = arena.store(&s);
            if opens {
                // The first spelling of a block: the previous one was
                // exactly full when this block was the second to open.
                assert!(blocks != 1 || free == 0, "block 1 left {free} bytes");
                blocks += 1;
                assert_eq!(arena.free.len(), BLOCK_BYTES - (1 + len));
            }
            stored.push((s, bytes));
        }
        for (s, bytes) in &stored {
            assert_eq!(usize::from(bytes[0]), s.len());
            assert_eq!(&bytes[1..], s.as_bytes());
        }
    }

    #[test]
    fn long_spellings_resolve_across_blocks() {
        // Spellings of every length 23..=253, over twice a block's worth:
        // at least three blocks, however other tests interleave.
        let names: Vec<String> = (0..1200).map(|i| name_of_len("spn", i, 23 + i % 231)).collect();
        let stored: usize = names.iter().map(|s| 1 + s.len()).sum();
        assert!(stored > 2 * BLOCK_BYTES, "{stored} bytes");
        let parsed: Vec<DomainName> = names.iter().map(|s| DomainName::parse(s).unwrap()).collect();
        for (s, name) in names.iter().zip(&parsed) {
            assert!(!is_inline(name));
            assert_eq!(name.as_str(), s);
            let id = u32::from_le_bytes(name.data[..4].try_into().unwrap());
            assert_eq!(NameTable::global().resolve(id), s);
            assert_eq!(NameTable::global().intern(s), id);
        }
    }

    #[test]
    fn concurrent_interning_gives_one_id_per_spelling() {
        // Four threads over overlapping windows of one pool of spellings.
        let pool: Vec<String> = (0..400).map(|i| name_of_len("thr", i, 23 + i % 100)).collect();
        let pool = std::sync::Arc::new(pool);
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (pool, start) = (pool.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    (t * 50..t * 50 + 250)
                        .map(|i| (i, DomainName::parse(&pool[i]).unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen: Vec<Option<DomainName>> = vec![None; pool.len()];
        for h in handles {
            for (i, name) in h.join().unwrap() {
                assert_eq!(name.as_str(), pool[i]);
                let first = *seen[i].get_or_insert(name);
                assert_eq!(first, name, "{}", pool[i]);
                assert_eq!(first.as_str().as_ptr(), name.as_str().as_ptr());
            }
        }
        // Distinct spellings, distinct ids.
        let mut ids: Vec<u32> = seen
            .iter()
            .flatten()
            .map(|n| u32::from_le_bytes(n.data[..4].try_into().unwrap()))
            .collect();
        let interned = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), interned);
    }

    #[test]
    fn root_is_inline_and_copy_semantics_hold() {
        let root = DomainName::root();
        assert!(is_inline(&root));
        let copy = root;
        assert_eq!(copy, root);
        assert_eq!(copy.as_str(), ".");
    }

    #[test]
    fn sixtythree_octet_labels_intern_and_round_trip() {
        let label = "a".repeat(63);
        let name = DomainName::parse(&format!("{label}.com")).unwrap();
        assert!(!is_inline(&name));
        assert_eq!(name.labels()[0], label);
        assert_eq!(name.parent().unwrap().as_str(), "com");
        // Reparse from display form is identity.
        assert_eq!(DomainName::parse(name.as_str()).unwrap(), name);
    }

    #[test]
    fn punycode_long_names_intern_cleanly() {
        let n = DomainName::parse("xn--bcher-kva.xn--vermgensberatung-pwb").unwrap();
        assert!(!is_inline(&n));
        assert_eq!(n.tld(), Some("xn--vermgensberatung-pwb"));
        assert_eq!(n.suffix(1).as_str(), "xn--vermgensberatung-pwb");
    }

    #[test]
    fn ordering_is_consistent_across_layouts() {
        // Mixed inline/interned names sort exactly like their strings.
        let mut names = vec![
            DomainName::parse("zz.com").unwrap(),
            DomainName::parse("a-very-long-interned-name.com").unwrap(),
            DomainName::parse("a.com").unwrap(),
            DomainName::parse("a-very-long-interned-name.net").unwrap(),
        ];
        names.sort();
        let strs: Vec<_> = names.iter().map(|n| n.as_str().to_owned()).collect();
        let mut by_string = strs.clone();
        by_string.sort();
        assert_eq!(strs, by_string);
    }

    #[test]
    fn hash_is_consistent_with_eq_across_reparse() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(DomainName::parse("some-quite-long-name.example.org").unwrap());
        set.insert(DomainName::parse("short.org").unwrap());
        assert!(set.contains(&DomainName::parse("some-quite-long-name.example.org").unwrap()));
        assert!(set.contains(&DomainName::parse("SHORT.org.").unwrap()));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn interner_is_usable_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| {
                            DomainName::parse(&format!(
                                "shared-cross-thread-name-{}.example{t}.com",
                                i % 50
                            ))
                            .unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for n in h.join().unwrap() {
                assert!(n.as_str().starts_with("shared-cross-thread-name-"));
            }
        }
    }
}
