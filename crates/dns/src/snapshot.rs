//! Immutable zone snapshots — the CZDS artifact.
//!
//! A [`ZoneSnapshot`] is a point-in-time copy of a zone's delegations,
//! ordered by owner name, with the serial and capture time attached. The
//! CZDS publisher in `darkdns-registry` produces one per zone per day; the
//! diff engines in [`crate::diff`] consume pairs of them; and the pipeline
//! tests membership against the latest available snapshot set.
//!
//! # Layout
//!
//! A snapshot is persistent in the functional-data-structure sense: the
//! sorted entry sequence is cut into **segments** — a run of entries,
//! each a 23-byte `Copy` [`DomainName`] owner and its shared [`NsSet`]
//! (one pointer), 32 bytes an entry — each one `Arc`'d allocation, under
//! one small **top level** that is itself behind an `Arc`. With the
//! segment header and top-level row amortised over the span, a snapshot
//! holds just under 33 bytes per delegation beside its NS sets:
//!
//! * `fences[k]` is segment `k`'s first owner name. A lookup binary-
//!   searches the fences (dense, 23 bytes a step) for the one segment
//!   that can hold the name, then that segment's entries.
//! * `starts[k]` is the position of segment `k`'s first entry in the
//!   whole sequence, which is what positional access
//!   ([`Column`]'s `[i]`, [`ZoneSnapshot::entries_from`]) searches.
//! * `segs[k]` is the segment: pointer and length, so a scan crossing
//!   into it waits for one cache line, not a chain of them.
//!
//! Segments are cut at [`SEGMENT_SPAN`] entries when built and may drift
//! between half and twice that as deltas land in them: every segment
//! holds at most `2 * SEGMENT_SPAN` entries, and every segment but the
//! last at least `SEGMENT_SPAN / 2`; none is empty. The span is a
//! constant, not a knob: it trades entries copied per touched name
//! (∝ span) against top-level rows copied per apply (∝ zone / span).
//!
//! Nothing is mutated after construction — not a segment, not the top
//! level. [`crate::diff::ZoneDelta::apply`] builds a *new* top level
//! that refcount-shares every segment the delta does not route to and
//! rebuilds only the ones it does, so a 100-name delta on a
//! million-entry zone copies a few thousand entries, and the head, a
//! checkpoint and any pinned capture of one shard hold one copy of every
//! segment no delta between them touched. Capturing from a [`Zone`]
//! still copies 32 bytes per delegation and bumps one refcount per NS
//! set, and the diff engines still walk the entries without touching
//! the allocator.
//!
//! A snapshot that crosses the wire as an `RZUC` chunk train is
//! assembled as it arrives: each decoded chunk is
//! [`SnapshotBuilder::append`]ed — order-checked, its full spans cut
//! straight into segments — and dropped, so a bootstrap in flight holds
//! the segments built so far plus the chunk in hand, never a flat copy
//! of the train. The cuts fall where a one-piece build puts them.
//!
//! NS sets are shared the same way, across segments: however a snapshot
//! was built, equal host lists are one allocation. The wire decoders
//! memoise per frame, [`ZoneSnapshot::capture`] takes the zone's own
//! sets, and [`ZoneSnapshot::from_entries`] — raw host lists, the
//! root's and the text format's way in — freezes each *distinct* list
//! once, through a content-keyed memo that lives for the build only. A
//! shard over sixteen provider sets holds sixteen of them at any size.
//!
//! [`ZoneSnapshot::same_capture`] compares the top-level `Arc` by
//! pointer: it witnesses "this very value", which neither equal content
//! nor any amount of shared segments implies. Equality (`==`) is by
//! content and does not care where the segment cuts fall.
//!
//! Snapshots also round-trip through a zone-file-like text format so the
//! repository can materialise CZDS-style files on disk for the examples.

use crate::name::DomainName;
use crate::serial::Serial;
use crate::zone::{NsSet, Zone};
use darkdns_sim::time::SimTime;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Errors from parsing snapshot text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotParseError {
    /// Missing or malformed `; origin:` / `; serial:` / `; taken:` header.
    BadHeader(String),
    /// A record line did not have the expected 5 fields.
    BadLine(String),
    /// A name failed validation.
    BadName(String),
    /// Record type other than NS in the body.
    UnexpectedType(String),
}

impl fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotParseError::BadHeader(l) => write!(f, "bad header line: {l}"),
            SnapshotParseError::BadLine(l) => write!(f, "bad record line: {l}"),
            SnapshotParseError::BadName(e) => write!(f, "bad name: {e}"),
            SnapshotParseError::UnexpectedType(t) => write!(f, "unexpected record type: {t}"),
        }
    }
}

impl std::error::Error for SnapshotParseError {}

/// Entries a segment is cut at when built. A constant on purpose: at
/// 100k–1M delegations ~64 balances what an apply copies per touched
/// name (one segment) against what it copies regardless (one top-level
/// row per segment).
pub const SEGMENT_SPAN: usize = 64;
/// A rebuilt segment under this takes its successor with it.
pub(crate) const SEGMENT_MIN: usize = SEGMENT_SPAN / 2;
/// A run over this is cut.
const SEGMENT_MAX: usize = SEGMENT_SPAN * 2;

/// One delegation: the owner name and its NS set.
pub(crate) type Entry = (DomainName, NsSet);

/// One run of the sorted entry sequence. Never empty, never mutated.
pub(crate) type Segment = Arc<[Entry]>;

/// The top level: one row per segment, in entry order (module docs).
#[derive(Debug, Clone)]
struct Segments {
    fences: Vec<DomainName>,
    starts: Vec<u32>,
    segs: Vec<Segment>,
    /// Entries in all segments together.
    len: usize,
}

impl Segments {
    /// The entry for `domain`, if present.
    fn find(&self, domain: &DomainName) -> Option<&Entry> {
        match self.fences.binary_search(domain) {
            // A fence is its segment's first entry.
            Ok(k) => self.segs[k].first(),
            // The last fence before `domain` names the only segment that
            // can hold it, past that fence.
            Err(after) => {
                let rest = &self.segs[after.checked_sub(1)?][1..];
                rest.binary_search_by(|entry| entry.0.cmp(domain)).ok().map(|i| &rest[i])
            }
        }
    }

    /// The segment index and offset of position `i < len`.
    fn locate(&self, i: usize) -> (usize, usize) {
        assert!(i < self.len, "position {i} out of range for {} entries", self.len);
        let k = self.starts.partition_point(|&s| s as usize <= i) - 1;
        (k, i - self.starts[k] as usize)
    }
}

/// Assembles a snapshot front to back: segments taken over from another
/// snapshot are [`SnapshotBuilder::share`]d as they are, fresh entries
/// are [`SnapshotBuilder::push`]ed or [`SnapshotBuilder::append`]ed
/// onto a run that is cut into new segments. Everything must arrive in
/// strictly ascending owner order; `append`, the way in from outside
/// this crate, checks that it does.
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    top: Segments,
    run: Vec<Entry>,
}

/// Why [`SnapshotBuilder::append`] refused a run: some owner in it was
/// not strictly above the one before it (in the run, or already
/// appended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder;

/// An empty builder. Its top level grows with what is appended.
impl Default for SnapshotBuilder {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl SnapshotBuilder {
    /// A builder whose top level has room for `segments` rows.
    pub(crate) fn with_capacity(segments: usize) -> Self {
        SnapshotBuilder {
            top: Segments {
                fences: Vec::with_capacity(segments),
                starts: Vec::with_capacity(segments),
                segs: Vec::with_capacity(segments),
                len: 0,
            },
            // The run never outgrows this (`push` and `extend` cut it
            // first).
            run: Vec::with_capacity(SEGMENT_MAX + 1),
        }
    }

    /// Entries taken so far, cut or not.
    pub fn len(&self) -> usize {
        self.top.len + self.run.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take a run of entries — a decoded chunk of a train, say — that
    /// continues the snapshot: strictly ascending, and above every
    /// owner taken so far. Checked before anything moves; a run that
    /// breaks the order is refused whole and the builder is as it was.
    /// Full spans are cut straight out of `entries`, each entry moved
    /// once, into its segment; only what is left over waits in the run.
    pub fn append(&mut self, entries: Vec<(DomainName, NsSet)>) -> Result<(), OutOfOrder> {
        let last = self.run.last().or_else(|| self.top.segs.last().and_then(|seg| seg.last()));
        let continues = match (last, entries.first()) {
            (Some(last), Some(first)) => last.0 < first.0,
            _ => true,
        };
        if !continues || !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(OutOfOrder);
        }
        self.extend(entries.into_iter());
        Ok(())
    }

    /// Append one entry (ascending, unchecked) to the run: the cutting
    /// rule of [`SnapshotBuilder::extend`], one entry at a time — the
    /// delta apply's per-entry loop, kept free of iterator set-up.
    pub(crate) fn push(&mut self, domain: DomainName, ns: NsSet) {
        self.run.push((domain, ns));
        if self.run.len() > SEGMENT_MAX {
            self.seal(SEGMENT_SPAN);
        }
    }

    /// The cutting rule, for entries known to continue the order: while
    /// the run and what is still to come hold more than the upper span
    /// bound, their first [`SEGMENT_SPAN`] become a segment — taken
    /// straight from `entries` when the run is empty, else by topping
    /// the run up to a span and cutting it. So the run, and the copy a
    /// cut shifts down, stay bounded however much arrives, and where
    /// the cuts fall does not depend on how the entries were batched.
    fn extend(&mut self, mut entries: impl ExactSizeIterator<Item = Entry>) {
        while self.run.len() + entries.len() > SEGMENT_MAX {
            if self.run.is_empty() {
                let seg: Segment = entries.by_ref().take(SEGMENT_SPAN).collect();
                self.push_segment(seg);
            } else {
                let short = SEGMENT_SPAN.saturating_sub(self.run.len());
                self.run.extend(entries.by_ref().take(short));
                self.seal(SEGMENT_SPAN);
            }
        }
        self.run.extend(entries);
    }

    /// Entries pushed since the last cut.
    pub(crate) fn run_len(&self) -> usize {
        self.run.len()
    }

    /// Close the run: whatever it holds becomes one segment.
    pub(crate) fn flush(&mut self) {
        if !self.run.is_empty() {
            self.seal(self.run.len());
        }
    }

    /// Take `seg` over by refcount. The run must be flushed first.
    pub(crate) fn share(&mut self, seg: &Segment) {
        debug_assert!(self.run.is_empty(), "sharing a segment past an open run");
        self.push_segment(Arc::clone(seg));
    }

    fn seal(&mut self, n: usize) {
        let seg = self.run.drain(..n).collect();
        self.push_segment(seg);
    }

    fn push_segment(&mut self, seg: Segment) {
        self.top.fences.push(seg[0].0);
        // The wire formats carry entry counts as `u32` too.
        self.top.starts.push(u32::try_from(self.top.len).expect("snapshot positions fit in u32"));
        self.top.len += seg.len();
        self.top.segs.push(seg);
    }

    /// Close the run and stamp the header: the snapshot.
    pub fn finish(
        mut self,
        origin: DomainName,
        serial: Serial,
        taken_at: SimTime,
    ) -> ZoneSnapshot {
        self.flush();
        let top = self.top;
        debug_assert!(top.segs.iter().all(|s| s.windows(2).all(|w| w[0].0 < w[1].0)));
        debug_assert!(top
            .segs
            .windows(2)
            .all(|w| w[0].last().map(|e| e.0) < w[1].first().map(|e| e.0)));
        ZoneSnapshot { origin, serial, taken_at, top: Arc::new(top) }
    }
}

/// A point-in-time, immutable view of a TLD zone's delegations.
///
/// Entries are stored sorted by owner name; membership queries are binary
/// searches and the sorted order is what the merge diff engine exploits.
/// The segments and the top level over them are behind `Arc`s (module
/// docs), so snapshots can be shared between the publisher, the pipeline
/// and the diff engines without copying million-entry tables, and a
/// snapshot one delta away from another shares all but the touched
/// segments with it.
#[derive(Debug, Clone)]
pub struct ZoneSnapshot {
    origin: DomainName,
    serial: Serial,
    taken_at: SimTime,
    top: Arc<Segments>,
}

impl ZoneSnapshot {
    /// Capture the current state of `zone` at time `taken_at`.
    pub fn capture(zone: &Zone, taken_at: SimTime) -> Self {
        // BTreeMap iteration is already sorted by owner name; NS sets are
        // shared with the live zone, not copied.
        let entries = zone.iter().map(|(d, delegation)| (*d, delegation.ns_set().clone()));
        Self::from_sorted(*zone.origin(), zone.serial(), taken_at, entries)
    }

    /// Build from parts. Entries are sorted and deduplicated by domain
    /// (last occurrence wins). Each *distinct* host list is frozen once
    /// and equal lists share that storage, so the snapshot holds one
    /// allocation per provider set, as a wire-decoded one does, not one
    /// per entry. Nothing a reader can see depends on the sharing: the
    /// order within a list and its canonical flag are the given ones, so
    /// `==`, `Hash`, [`ZoneSnapshot::to_text`] and every diff are what
    /// they would be with a private copy per entry.
    pub fn from_entries(
        origin: DomainName,
        serial: Serial,
        taken_at: SimTime,
        mut entries: Vec<(DomainName, Vec<DomainName>)>,
    ) -> Self {
        sort_last_wins(&mut entries);
        // Content-keyed and dropped with the build. A hit clones the
        // pointer and frees the duplicate list; a miss freezes the list
        // as it always was and adds one table slot pointing at it, never
        // a second copy of the hosts. Default (keyed) hasher: the lists
        // may come from a zone file.
        let mut memo: HashSet<NsSet> = HashSet::new();
        // Frozen in entry order, which is the order every diff engine
        // walks the NS sets in.
        let frozen = entries.into_iter().map(|(d, hosts)| {
            let ns = match memo.get(hosts.as_slice()) {
                Some(shared) => shared.clone(),
                None => {
                    let ns = NsSet::from_raw(hosts);
                    memo.insert(ns.clone());
                    ns
                }
            };
            (d, ns)
        });
        Self::from_sorted(origin, serial, taken_at, frozen)
    }

    /// [`ZoneSnapshot::from_entries`] over already-frozen (typically
    /// shared) NS sets — what the wire decoders produce. A strictly
    /// ascending entry sequence, which is what every encoder emits, goes
    /// straight into segments; anything else is sorted and deduplicated
    /// by domain first (last occurrence wins).
    pub fn from_ns_entries(
        origin: DomainName,
        serial: Serial,
        taken_at: SimTime,
        mut entries: Vec<(DomainName, NsSet)>,
    ) -> Self {
        sort_last_wins(&mut entries);
        Self::from_sorted(origin, serial, taken_at, entries.into_iter())
    }

    /// Cut entries, already in strictly ascending owner order, into
    /// fresh segments — by the rule [`SnapshotBuilder::append`] cuts a
    /// chunk train by, so a snapshot's cuts do not depend on how its
    /// entries arrived.
    fn from_sorted(
        origin: DomainName,
        serial: Serial,
        taken_at: SimTime,
        entries: impl ExactSizeIterator<Item = (DomainName, NsSet)>,
    ) -> Self {
        let mut builder = SnapshotBuilder::with_capacity(entries.len() / SEGMENT_SPAN + 1);
        builder.extend(entries);
        builder.finish(origin, serial, taken_at)
    }

    /// True when `other` is this very capture: same header and the same
    /// top level by pointer (an O(1) witness, no entry is compared).
    /// Two equal-content snapshots built separately are *not* the same
    /// capture, however many segments they share — callers caching
    /// per-capture derived data fall back to recomputing, never to a
    /// stale hit.
    pub fn same_capture(&self, other: &ZoneSnapshot) -> bool {
        self.origin == other.origin
            && self.serial == other.serial
            && self.taken_at == other.taken_at
            && Arc::ptr_eq(&self.top, &other.top)
    }

    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    pub fn serial(&self) -> Serial {
        self.serial
    }

    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }

    pub fn len(&self) -> usize {
        self.top.len
    }

    pub fn is_empty(&self) -> bool {
        self.top.len == 0
    }

    pub fn contains(&self, domain: &DomainName) -> bool {
        self.top.find(domain).is_some()
    }

    /// NS set for `domain`, if present.
    pub fn ns_of(&self, domain: &DomainName) -> Option<&[DomainName]> {
        self.ns_set_of(domain).map(NsSet::as_slice)
    }

    /// Shared NS set for `domain`, if present (clone to carry it onward
    /// without copying hosts).
    pub fn ns_set_of(&self, domain: &DomainName) -> Option<&NsSet> {
        self.top.find(domain).map(|entry| &entry.1)
    }

    /// The sorted owner names, as one column across the segments.
    pub fn domain_column(&self) -> Column<'_, DomainName> {
        Column { top: &self.top, of: |entry| &entry.0 }
    }

    /// The NS sets, parallel to [`ZoneSnapshot::domain_column`].
    pub fn ns_column(&self) -> Column<'_, NsSet> {
        Column { top: &self.top, of: |entry| &entry.1 }
    }

    /// Iterate entries in owner-name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (DomainName, &NsSet)> + '_ {
        self.entries().map(|(domain, ns)| (*domain, ns))
    }

    /// [`ZoneSnapshot::iter`] by reference.
    pub fn entries(&self) -> Entries<'_> {
        self.entries_from(0)
    }

    /// [`ZoneSnapshot::entries`] from position `start` on (nothing when
    /// `start >= len`), found through the top level rather than by
    /// stepping there.
    pub fn entries_from(&self, start: usize) -> Entries<'_> {
        let mut entries = Entries { segs: [].iter(), chunk: &[], remaining: 0 };
        if start < self.len() {
            // Open the segment holding `start` whole, then step to it.
            let (k, offset) = self.top.locate(start);
            entries.segs = self.top.segs[k..].iter();
            entries.remaining = self.len() - (start - offset);
            entries.load_next_segment();
            entries.advance(offset);
        }
        entries
    }

    pub fn domains(&self) -> impl Iterator<Item = &DomainName> {
        self.domain_column().iter()
    }

    /// Entries per segment, in order (module docs: the span bounds).
    pub fn segment_lens(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.top.segs.iter().map(|seg| seg.len())
    }

    /// How many of this snapshot's segments are the very allocations
    /// `other` holds too — what a delta apply between the two left
    /// untouched.
    pub fn segments_shared_with(&self, other: &ZoneSnapshot) -> usize {
        let theirs: std::collections::HashSet<*const [Entry]> =
            other.top.segs.iter().map(Arc::as_ptr).collect();
        self.top.segs.iter().filter(|seg| theirs.contains(&Arc::as_ptr(seg))).count()
    }

    pub(crate) fn segments(&self) -> &[Segment] {
        &self.top.segs
    }

    /// Each segment's first owner name, parallel to
    /// [`ZoneSnapshot::segments`].
    pub(crate) fn fences(&self) -> &[DomainName] {
        &self.top.fences
    }

    /// Serialise to the CZDS-like text format:
    ///
    /// ```text
    /// ; origin: com
    /// ; serial: 12345
    /// ; taken: 86400
    /// example.com. 86400 IN NS ns1.cloudflare.com.
    /// ```
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.len() * 48);
        let _ = writeln!(out, "; origin: {}", self.origin);
        let _ = writeln!(out, "; serial: {}", self.serial);
        let _ = writeln!(out, "; taken: {}", self.taken_at.as_secs());
        for (domain, ns_set) in self.iter() {
            for ns in ns_set {
                let _ = writeln!(out, "{domain}. 86400 IN NS {ns}.");
            }
        }
        out
    }

    /// Parse the text format produced by [`ZoneSnapshot::to_text`].
    pub fn parse_text(text: &str) -> Result<Self, SnapshotParseError> {
        let mut origin: Option<DomainName> = None;
        let mut serial: Option<Serial> = None;
        let mut taken: Option<SimTime> = None;
        let mut by_domain: Vec<(DomainName, Vec<DomainName>)> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix(';') {
                let rest = rest.trim();
                if let Some(v) = rest.strip_prefix("origin:") {
                    origin = Some(
                        DomainName::parse(v.trim())
                            .map_err(|e| SnapshotParseError::BadName(e.to_string()))?,
                    );
                } else if let Some(v) = rest.strip_prefix("serial:") {
                    let n: u32 = v
                        .trim()
                        .parse()
                        .map_err(|_| SnapshotParseError::BadHeader(line.to_owned()))?;
                    serial = Some(Serial::new(n));
                } else if let Some(v) = rest.strip_prefix("taken:") {
                    let n: u64 = v
                        .trim()
                        .parse()
                        .map_err(|_| SnapshotParseError::BadHeader(line.to_owned()))?;
                    taken = Some(SimTime::from_secs(n));
                }
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(SnapshotParseError::BadLine(line.to_owned()));
            }
            if !fields[3].eq_ignore_ascii_case("NS") {
                return Err(SnapshotParseError::UnexpectedType(fields[3].to_owned()));
            }
            let domain = DomainName::parse(fields[0])
                .map_err(|e| SnapshotParseError::BadName(e.to_string()))?;
            let ns = DomainName::parse(fields[4])
                .map_err(|e| SnapshotParseError::BadName(e.to_string()))?;
            match by_domain.last_mut() {
                Some((d, set)) if *d == domain => set.push(ns),
                _ => by_domain.push((domain, vec![ns])),
            }
        }
        let origin = origin.ok_or_else(|| SnapshotParseError::BadHeader("missing origin".into()))?;
        let serial = serial.ok_or_else(|| SnapshotParseError::BadHeader("missing serial".into()))?;
        let taken = taken.ok_or_else(|| SnapshotParseError::BadHeader("missing taken".into()))?;
        // Sort NS sets for canonical equality.
        for (_, set) in by_domain.iter_mut() {
            set.sort_unstable();
            set.dedup();
        }
        Ok(ZoneSnapshot::from_entries(origin, serial, taken, by_domain))
    }
}

/// Bring `entries` into strictly ascending domain order, keeping the
/// last occurrence of a repeated domain. Already-ascending input — the
/// common case — is left untouched after one comparison pass.
fn sort_last_wins<T>(entries: &mut Vec<(DomainName, T)>) {
    if entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    // Sorted through a cached key: the name's first eight bytes as a
    // big-endian integer — which orders as the name does wherever two
    // prefixes differ — and then the name. Almost every comparison is
    // two integers side by side; a full `DomainName::cmp` (for an
    // interned name two dependent atomic loads and a string chase, per
    // side) is paid only between equal prefixes, and the entries move
    // once, at the end. Stable, which last-wins needs.
    let prefix = |domain: &DomainName| {
        let mut head = [0u8; 8];
        let bytes = domain.raw().as_bytes();
        let n = bytes.len().min(8);
        head[..n].copy_from_slice(&bytes[..n]);
        u64::from_be_bytes(head)
    };
    entries.sort_by_cached_key(|entry| (prefix(&entry.0), entry.0));
    entries.dedup_by(|later, earlier| {
        if later.0 == earlier.0 {
            // `dedup_by` removes `later` when true; keep the later value
            // by moving it into the retained (earlier) slot.
            std::mem::swap(&mut earlier.1, &mut later.1);
            true
        } else {
            false
        }
    });
}

impl PartialEq for ZoneSnapshot {
    /// By content: where the segment cuts fall does not matter.
    fn eq(&self, other: &Self) -> bool {
        self.origin == other.origin
            && self.serial == other.serial
            && self.taken_at == other.taken_at
            && (Arc::ptr_eq(&self.top, &other.top)
                || (self.len() == other.len() && self.iter().eq(other.iter())))
    }
}
impl Eq for ZoneSnapshot {}

/// Entries of a snapshot in owner-name order, from
/// [`ZoneSnapshot::entries`] / [`ZoneSnapshot::entries_from`].
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    /// Segments after the current one.
    segs: std::slice::Iter<'a, Segment>,
    /// The unread part of the current segment; empty only when the
    /// iterator is (segments never are).
    chunk: &'a [Entry],
    remaining: usize,
}

impl<'a> Entries<'a> {
    /// The unread rest of the current segment — empty only when nothing
    /// is left at all. For merges that want a plain indexed loop between
    /// segment boundaries.
    pub(crate) fn chunk(&self) -> &'a [Entry] {
        self.chunk
    }

    /// Consume the first `n` entries of [`Entries::chunk`].
    pub(crate) fn advance(&mut self, n: usize) {
        self.chunk = &self.chunk[n..];
        self.remaining -= n;
        if self.chunk.is_empty() {
            self.load_next_segment();
        }
    }

    fn load_next_segment(&mut self) {
        if let Some(seg) = self.segs.next() {
            self.chunk = seg;
        }
    }
}

impl<'a> Iterator for Entries<'a> {
    type Item = (&'a DomainName, &'a NsSet);

    fn next(&mut self) -> Option<Self::Item> {
        let (domain, ns) = self.chunk.first()?;
        self.advance(1);
        Some((domain, ns))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// One column of a snapshot — the owner names or the NS sets — borrowed
/// across its segments: positions count over the whole snapshot. What
/// [`ZoneSnapshot::domain_column`] and [`ZoneSnapshot::ns_column`]
/// return where a flat layout would hand out a slice. `[i]` searches
/// the top level on every use; walk with [`Column::iter`] (or
/// [`ZoneSnapshot::iter`]) instead of indexing in a loop.
pub struct Column<'a, T> {
    top: &'a Segments,
    of: fn(&Entry) -> &T,
}

impl<'a, T: 'a> Column<'a, T> {
    pub fn len(&self) -> usize {
        self.top.len
    }

    pub fn is_empty(&self) -> bool {
        self.top.len == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = &'a T> + 'a {
        self.top.segs.iter().flat_map(|seg| seg.iter()).map(self.of)
    }
}

impl<T> std::ops::Index<usize> for Column<'_, T> {
    type Output = T;

    /// # Panics
    /// Panics if `i >= len`, as a slice would.
    fn index(&self, i: usize) -> &T {
        let (k, offset) = self.top.locate(i);
        (self.of)(&self.top.segs[k][offset])
    }
}

impl<T: PartialEq> PartialEq for Column<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for Column<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Delegation;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn sample_zone() -> Zone {
        let mut z = Zone::new(name("com"), Serial::new(100));
        z.upsert(name("bravo.com"), Delegation::new(vec![name("ns1.x.net"), name("ns2.x.net")]));
        z.upsert(name("alpha.com"), Delegation::new(vec![name("ns1.cloudflare.com")]));
        z
    }

    #[test]
    fn capture_is_sorted_and_immutable() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::from_days(1));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.domain_column()[0], name("alpha.com"));
        assert!(snap.contains(&name("bravo.com")));
        assert!(!snap.contains(&name("charlie.com")));
        assert_eq!(snap.ns_of(&name("alpha.com")).unwrap(), &[name("ns1.cloudflare.com")]);
        assert_eq!(snap.ns_of(&name("missing.com")), None);
    }

    #[test]
    fn capture_shares_ns_sets_with_zone() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::ZERO);
        let zone_set = match z.lookup(&name("bravo.com")) {
            crate::zone::LookupOutcome::Delegated(d) => d.ns_set().clone(),
            other => panic!("expected delegation, got {other:?}"),
        };
        assert!(snap.ns_set_of(&name("bravo.com")).unwrap().ptr_eq(&zone_set));
    }

    #[test]
    fn capture_reflects_zone_serial_and_time() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::from_days(2));
        assert_eq!(snap.serial(), z.serial());
        assert_eq!(snap.taken_at(), SimTime::from_days(2));
        assert_eq!(snap.origin(), &name("com"));
    }

    #[test]
    fn text_round_trip() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::from_days(1));
        let text = snap.to_text();
        let parsed = ZoneSnapshot::parse_text(&text).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn text_format_contents() {
        let z = sample_zone();
        let text = ZoneSnapshot::capture(&z, SimTime::from_days(1)).to_text();
        assert!(text.contains("; origin: com"));
        assert!(text.contains("alpha.com. 86400 IN NS ns1.cloudflare.com."));
        // Multi-NS domains produce one line per NS.
        assert_eq!(text.matches("bravo.com.").count(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            ZoneSnapshot::parse_text("; origin: com\n; serial: 1\n; taken: 0\nnot a record\n"),
            Err(SnapshotParseError::BadLine(_))
        ));
        assert!(matches!(
            ZoneSnapshot::parse_text("; serial: 1\n; taken: 0\n"),
            Err(SnapshotParseError::BadHeader(_))
        ));
        assert!(matches!(
            ZoneSnapshot::parse_text(
                "; origin: com\n; serial: 1\n; taken: 0\na.com. 86400 IN A 1.2.3.4\n"
            ),
            Err(SnapshotParseError::UnexpectedType(_))
        ));
    }

    #[test]
    fn from_entries_sorts_and_dedups_last_wins() {
        let snap = ZoneSnapshot::from_entries(
            name("com"),
            Serial::new(1),
            SimTime::ZERO,
            vec![
                (name("b.com"), vec![name("ns.old.net")]),
                (name("a.com"), vec![name("ns.a.net")]),
                (name("b.com"), vec![name("ns.new.net")]),
            ],
        );
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.ns_of(&name("b.com")).unwrap(), &[name("ns.new.net")]);
    }

    #[test]
    fn unsorted_input_lands_in_full_name_order_whatever_the_first_eight_bytes() {
        // Names that agree on their first eight bytes (inline and
        // interned), names shorter than eight, a name that is another's
        // prefix, and a repeat whose later list must win.
        let spelled = [
            "shared-prefix-zz.com",
            "shared-prefix-aa.com",
            "b.com",
            "shared-p.com",
            "shared-prefix-past-the-inline-bound-zz.com",
            "a.com",
            "shared-prefix-past-the-inline-bound-aa.com",
            "ab.com",
            "shared-prefix-aa.com",
            "shared-pr.com",
        ];
        let entries: Vec<_> = spelled
            .iter()
            .enumerate()
            .map(|(i, s)| (name(s), vec![name(&format!("ns{i}.x.net"))]))
            .collect();
        let expect: std::collections::BTreeMap<_, _> = entries.iter().cloned().collect();
        let snap = ZoneSnapshot::from_entries(name("com"), Serial::new(1), SimTime::ZERO, entries);
        assert_eq!(snap.len(), spelled.len() - 1);
        assert!(snap.iter().map(|(d, ns)| (d, ns.to_vec())).eq(expect));
        assert_eq!(snap.ns_of(&name("shared-prefix-aa.com")).unwrap(), &[name("ns8.x.net")]);
    }

    #[test]
    fn from_entries_freezes_each_distinct_host_list_once() {
        let hosts = |p: usize| vec![name(&format!("ns2.p{p}.net")), name(&format!("ns1.p{p}.net"))];
        let entries = (0..300).map(|i| (name(&format!("d{i:03}.com")), hosts(i % 3))).collect();
        let snap = ZoneSnapshot::from_entries(name("com"), Serial::new(1), SimTime::ZERO, entries);
        assert!(snap.segment_lens().len() > 1);
        let first: Vec<&NsSet> = snap.ns_column().iter().take(3).collect();
        for (i, ns) in snap.ns_column().iter().enumerate() {
            // Shared across segments, in the order given (not sorted).
            assert!(ns.ptr_eq(first[i % 3]));
            assert_eq!(ns.as_slice(), hosts(i % 3));
        }
        assert!(!first[0].ptr_eq(first[1]) && !first[1].ptr_eq(first[2]));
    }

    #[test]
    fn from_ns_entries_shares_sets_and_takes_ascending_input_as_is() {
        let shared = NsSet::new(vec![name("ns1.x.net"), name("ns2.x.net")]);
        let ascending = vec![
            (name("a.com"), shared.clone()),
            (name("b.com"), shared.clone()),
            (name("c.com"), shared.clone()),
        ];
        let snap =
            ZoneSnapshot::from_ns_entries(name("com"), Serial::new(1), SimTime::ZERO, ascending);
        assert_eq!(snap.len(), 3);
        assert!(snap.ns_column().iter().all(|ns| ns.ptr_eq(&shared)));
        // Out-of-order input with a duplicate: sorted, last wins.
        let newer = NsSet::new(vec![name("ns.new.net")]);
        let shuffled = vec![
            (name("b.com"), shared.clone()),
            (name("a.com"), shared.clone()),
            (name("b.com"), newer.clone()),
        ];
        let snap =
            ZoneSnapshot::from_ns_entries(name("com"), Serial::new(1), SimTime::ZERO, shuffled);
        assert!(snap.domains().eq(&[name("a.com"), name("b.com")]));
        assert!(snap.ns_set_of(&name("b.com")).unwrap().ptr_eq(&newer));
    }

    #[test]
    fn same_capture_is_storage_identity_not_content_equality() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::ZERO);
        assert!(snap.same_capture(&snap.clone()));
        let rebuilt = ZoneSnapshot::capture(&z, SimTime::ZERO);
        assert_eq!(rebuilt, snap);
        assert!(!snap.same_capture(&rebuilt));
    }

    /// `count` delegations `d<i>.com`, `i` a multiple of ten — several
    /// segments, with room between neighbours for a delta to add to.
    fn wide_snapshot(count: usize) -> ZoneSnapshot {
        let ns = NsSet::new(vec![name("ns1.x.net")]);
        let entries = (0..count).map(|i| (name(&format!("d{:05}.com", i * 10)), ns.clone()));
        ZoneSnapshot::from_ns_entries(name("com"), Serial::new(1), SimTime::ZERO, entries.collect())
    }

    fn add_delta(domains: &[&str]) -> crate::diff::ZoneDelta {
        let ns = NsSet::new(vec![name("ns1.x.net")]);
        crate::diff::ZoneDelta {
            added: domains.iter().map(|d| (name(d), ns.clone())).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn a_fresh_build_cuts_full_spans_and_one_longer_tail() {
        let lens: Vec<usize> = wide_snapshot(1000).segment_lens().collect();
        assert_eq!(lens.len(), 1000 / SEGMENT_SPAN);
        let (tail, full) = lens.split_last().unwrap();
        assert!(full.iter().all(|&n| n == SEGMENT_SPAN));
        assert_eq!(*tail, 1000 - full.len() * SEGMENT_SPAN);
        // Under one span there is one short segment; under nothing, none.
        assert_eq!(wide_snapshot(5).segment_lens().collect::<Vec<_>>(), [5]);
        assert_eq!(wide_snapshot(0).segment_lens().len(), 0);
    }

    #[test]
    fn apply_shares_every_segment_the_delta_does_not_route_to() {
        let base = wide_snapshot(1000);
        // One name into the fourth segment, one past the last name.
        let fourth = base.fences()[3];
        let delta = add_delta(&[&format!("{}x.com", fourth.as_str().trim_end_matches(".com")), "zz.com"]);
        let applied = delta.apply(&base, Serial::new(2), SimTime::ZERO);
        assert_eq!(applied.len(), 1002);
        let last = base.segments().len() - 1;
        assert_eq!(applied.segments().len(), base.segments().len());
        for (k, (old, new)) in base.segments().iter().zip(applied.segments()).enumerate() {
            assert_eq!(Arc::ptr_eq(old, new), k != 3 && k != last, "segment {k}");
        }
        assert_eq!(applied.segments_shared_with(&base), base.segments().len() - 2);
        // The base is what it was.
        assert_eq!(base, wide_snapshot(1000));
    }

    #[test]
    fn apply_splits_an_overfull_segment_and_merges_a_remnant_forward() {
        let base = wide_snapshot(1000);
        // 200 names between the first two zone names: the first segment
        // is cut again, the rest shared.
        let block: Vec<String> = (0..200).map(|j| format!("d00000-{j:03}.com")).collect();
        let grow = add_delta(&block.iter().map(String::as_str).collect::<Vec<_>>());
        let grown = grow.apply(&base, Serial::new(2), SimTime::ZERO);
        let lens: Vec<usize> = grown.segment_lens().collect();
        assert_eq!(lens[..4], [SEGMENT_SPAN, SEGMENT_SPAN, SEGMENT_SPAN, 200 - 2 * SEGMENT_SPAN]);
        assert_eq!(grown.segments_shared_with(&base), base.segments().len() - 1);

        // Removing all but three names of the second segment leaves a
        // remnant under the lower bound: it takes the (untouched) third
        // segment with it rather than stand alone.
        let second = base.segments()[1].to_vec();
        let shrink = crate::diff::ZoneDelta {
            removed: second[3..].to_vec(),
            ..Default::default()
        };
        let shrunk = shrink.apply(&base, Serial::new(2), SimTime::ZERO);
        let lens: Vec<usize> = shrunk.segment_lens().collect();
        assert_eq!(lens[..2], [SEGMENT_SPAN, 3 + SEGMENT_SPAN]);
        assert_eq!(lens.len(), base.segments().len() - 1);
        assert_eq!(shrunk.segments_shared_with(&base), base.segments().len() - 2);
        // Removing a whole segment's names just drops the segment.
        let drop_second = crate::diff::ZoneDelta { removed: second, ..Default::default() };
        let dropped = drop_second.apply(&base, Serial::new(2), SimTime::ZERO);
        assert_eq!(dropped.segments_shared_with(&base), base.segments().len() - 1);
        assert_eq!(dropped.segment_lens().len(), base.segments().len() - 1);
    }

    #[test]
    fn equality_is_by_content_whatever_the_segment_cuts() {
        // The same 300 names: cut fresh, and grown from the last 200 by
        // a delta that lands the first 100 in front of them — the first
        // segment is re-cut, the others keep their old boundaries.
        let fresh = wide_snapshot(300);
        let all: Vec<_> = fresh.iter().map(|(d, ns)| (d, ns.clone())).collect();
        let back = ZoneSnapshot::from_ns_entries(
            name("com"),
            Serial::new(0),
            SimTime::ZERO,
            all[100..].to_vec(),
        );
        let front = crate::diff::ZoneDelta { added: all[..100].to_vec(), ..Default::default() };
        let grown = front.apply(&back, fresh.serial(), fresh.taken_at());
        assert_ne!(
            grown.segment_lens().collect::<Vec<_>>(),
            fresh.segment_lens().collect::<Vec<_>>()
        );
        assert_eq!(grown, fresh);
        assert_eq!(grown.domain_column(), fresh.domain_column());
        assert_eq!(grown.ns_column(), fresh.ns_column());
        // Lookups and positions do not care either.
        for (i, (d, _)) in all.iter().enumerate() {
            assert!(grown.contains(d));
            assert_eq!(grown.domain_column()[i], *d);
        }
        assert!(!grown.contains(&name("d00005.com")));
    }

    #[test]
    fn sharing_every_segment_is_still_not_the_same_capture() {
        let base = wide_snapshot(300);
        let applied =
            crate::diff::ZoneDelta::default().apply(&base, base.serial(), base.taken_at());
        assert_eq!(applied.segments_shared_with(&base), base.segments().len());
        assert_eq!(applied, base);
        assert!(!applied.same_capture(&base));
    }

    #[test]
    fn entries_from_starts_anywhere_without_stepping_there() {
        let snap = wide_snapshot(300);
        let all: Vec<DomainName> = snap.domains().copied().collect();
        for start in [0, 1, SEGMENT_SPAN - 1, SEGMENT_SPAN, SEGMENT_SPAN + 1, 299, 300, 301] {
            let rest = snap.entries_from(start);
            assert_eq!(rest.len(), 300usize.saturating_sub(start));
            assert!(rest.map(|(d, _)| *d).eq(all.iter().skip(start).copied()), "from {start}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_index_past_the_end_panics() {
        let _ = wide_snapshot(3).domain_column()[3];
    }

    #[test]
    fn empty_snapshot() {
        let snap = ZoneSnapshot::from_entries(name("com"), Serial::new(1), SimTime::ZERO, vec![]);
        assert!(snap.is_empty());
        let rt = ZoneSnapshot::parse_text(&snap.to_text()).unwrap();
        assert_eq!(rt, snap);
    }

    #[test]
    fn domains_iterator() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::ZERO);
        let names: Vec<_> = snap.domains().map(|d| d.as_str().to_owned()).collect();
        assert_eq!(names, vec!["alpha.com", "bravo.com"]);
    }

    #[test]
    fn snapshots_share_entries_cheaply() {
        let z = sample_zone();
        let snap = ZoneSnapshot::capture(&z, SimTime::ZERO);
        let clone = snap.clone();
        assert!(Arc::ptr_eq(&snap.top, &clone.top));
    }
}
