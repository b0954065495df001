//! The epoch/Arc-swap membership index: the edge's read path.
//!
//! # The epoch-swap read-path invariant
//!
//! Every query the edge answers runs against one [`EdgeEpoch`] — an
//! **immutable** value holding the per-TLD segmented snapshots and the
//! hot NRD-recency window. Readers obtain it by cloning an `Arc` out of
//! the index's epoch cell ([`EdgeIndex::load`]) and then answer
//! entirely lock-free: binary searches over `Arc`-shared snapshot
//! segments and hash probes into the window map, with no lock of any
//! kind held. Writers (the broker-subscription pump, a single logical
//! thread) build a **fresh** epoch off to the side and swap the cell's
//! `Arc` — the same swap-on-write idiom as the broker's shard
//! directory, so a reader mid-query keeps its epoch alive through the
//! refcount while new queries see the new one.
//!
//! In particular the read path **never touches the broker's shard
//! publish locks** (level 1 of the broker crate's lock hierarchy) —
//! queries proceed at full rate while the fleet publishes at full RZU
//! cadence. Debug builds assert this on every [`EdgeIndex::load`] and
//! every epoch query via
//! [`darkdns_broker::shard_locks_held_by_current_thread`]; the
//! concurrency test in this module hammers lookups against a publisher
//! to keep the assertion hot.
//!
//! The epoch cell itself is a lockdep-tracked `RwLock<Arc<EdgeEpoch>>`
//! (see [`darkdns_broker::lockdep`]): readers take the shared half for
//! the nanoseconds an `Arc::clone` costs, writers take the exclusive
//! half for a pointer store. The epoch *build* — the only O(index)
//! work — happens outside both halves, under a separate writer mutex
//! that exists purely to serialize concurrent writers. Both locks carry
//! classes in the workspace hierarchy (`docs/INVARIANTS.md`): the
//! writer mutex sits below the cell because it is held across the
//! cell's read-then-write swap sequence.

use darkdns_broker::lockdep::{LockClass, TrackedMutex, TrackedRwLock};
use darkdns_dns::hash::NameMap;
use darkdns_dns::wire::{LookupAnswer, LookupQuery, DeltaPush, LOOKUP_ANY_TLD};
use darkdns_dns::{DomainName, Serial, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

/// The writer-serialization mutex's class: held across an epoch build,
/// during which the epoch cell is read and then written — hence below
/// [`EDGE_CELL`] in level.
static EDGE_WRITER: LockClass = LockClass::new("edge.writer", 60);
/// The epoch cell itself: held for an `Arc` clone (read) or a pointer
/// store (write), never while acquiring anything else.
static EDGE_CELL: LockClass = LockClass::new("edge.cell", 62);

/// Edge index tuning.
#[derive(Debug, Clone, Copy)]
pub struct EdgeIndexConfig {
    /// Hot NRD-recency horizon in sim-seconds: a name's first-seen
    /// event is forgotten once it is older than this relative to the
    /// newest delta the index has applied.
    pub nrd_window_secs: u64,
    /// Hard cap on retained NRD records; the oldest are pruned first
    /// when the cap is hit, regardless of age.
    pub nrd_capacity: usize,
}

impl Default for EdgeIndexConfig {
    fn default() -> Self {
        EdgeIndexConfig { nrd_window_secs: 48 * 3600, nrd_capacity: 65_536 }
    }
}

/// One NRD event retained in the hot window: a name appeared in a
/// delta's `added` section at `first_seen` (the push's publisher-side
/// timestamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NrdRecord {
    tld: TldId,
    name: DomainName,
    first_seen: SimTime,
}

/// The hot NRD-recency window: an append-ordered ring of recent
/// `added` events plus a `(tld, name)`-keyed map for O(1) recency
/// probes. Immutable inside an epoch; the writer clones and extends it
/// per applied delta (both sides are bounded by
/// [`EdgeIndexConfig::nrd_capacity`], so the clone is bounded too).
#[derive(Debug, Clone, Default)]
struct NrdWindow {
    /// Events in arrival order (oldest at the front).
    ring: VecDeque<NrdRecord>,
    /// Latest first-seen per (TLD, name) among ring entries.
    by_name: NameMap<(TldId, DomainName), SimTime>,
    /// Newest event timestamp ever observed — the window's "now".
    newest: SimTime,
}

impl NrdWindow {
    /// Append the `added` section of one applied delta, then prune by
    /// age and capacity.
    fn extend_from_push(&mut self, tld: TldId, push: &DeltaPush, config: &EdgeIndexConfig) {
        for (name, _) in &push.delta.added {
            let record = NrdRecord { tld, name: *name, first_seen: push.pushed_at };
            self.ring.push_back(record);
            self.by_name.insert((tld, *name), push.pushed_at);
        }
        if push.pushed_at > self.newest {
            self.newest = push.pushed_at;
        }
        let horizon = self.newest.as_secs().saturating_sub(config.nrd_window_secs);
        while let Some(front) = self.ring.front().copied() {
            let expired = front.first_seen.as_secs() < horizon;
            if !expired && self.ring.len() <= config.nrd_capacity {
                break;
            }
            self.ring.pop_front();
            // Only forget the map entry if this ring record is still
            // the one the map points at; a newer re-add keeps it.
            if self.by_name.get(&(front.tld, front.name)) == Some(&front.first_seen) {
                self.by_name.remove(&(front.tld, front.name));
            }
        }
    }

    fn first_seen(&self, tld: TldId, name: &DomainName) -> Option<SimTime> {
        self.by_name.get(&(tld, *name)).copied()
    }
}

/// One immutable generation of the edge index. See the module docs for
/// the read-path invariant; every query method here asserts it in
/// debug builds.
#[derive(Debug, Default)]
pub struct EdgeEpoch {
    epoch: u64,
    shards: NameMap<TldId, ZoneSnapshot>,
    nrd: NrdWindow,
}

/// Debug-assert the epoch-swap read-path invariant: answering a query
/// must never happen while the calling thread holds a broker shard
/// publish lock. (In release builds the probe compiles to 0.)
#[inline]
fn assert_no_shard_locks() {
    debug_assert_eq!(
        darkdns_broker::shard_locks_held_by_current_thread(),
        0,
        "edge read path ran under a broker shard publish lock"
    );
}

impl EdgeEpoch {
    /// The generation counter: strictly increasing across swaps, so two
    /// loads returning the same epoch answered from identical state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The serial of `tld`'s snapshot, if the edge serves it.
    pub fn serial(&self, tld: TldId) -> Option<Serial> {
        assert_no_shard_locks();
        self.shards.get(&tld).map(|s| s.serial())
    }

    /// Is `name` currently delegated in `tld`? (Binary search over the
    /// `Arc`-shared snapshot segments: the fences, then one segment.)
    pub fn contains(&self, tld: TldId, name: &DomainName) -> bool {
        assert_no_shard_locks();
        self.shards.get(&tld).is_some_and(|s| s.contains(name))
    }

    /// Is `name` delegated in any TLD the edge serves?
    fn contains_anywhere(&self, name: &DomainName) -> bool {
        assert_no_shard_locks();
        self.shards.values().any(|s| s.contains(name))
    }

    /// The most recent in-window first-seen for `name` across every
    /// served TLD.
    fn nrd_first_seen_anywhere(&self, name: &DomainName) -> Option<SimTime> {
        assert_no_shard_locks();
        self.shards.keys().filter_map(|&tld| self.nrd.first_seen(tld, name)).max()
    }

    /// NRD events currently retained in the hot window.
    pub fn nrd_len(&self) -> usize {
        self.nrd.ring.len()
    }

    /// TLDs this epoch serves, ascending.
    pub fn tlds(&self) -> Vec<TldId> {
        let mut tlds: Vec<TldId> = self.shards.keys().copied().collect();
        tlds.sort_unstable_by_key(|t| t.0);
        tlds
    }

    /// Answer one wire query. The [`LOOKUP_ANY_TLD`] sentinel maps to
    /// [`EdgeEpoch::contains_anywhere`] (no per-shard serial in the
    /// answer); a TLD the edge does not serve answers absent with no
    /// serial, which is how a thin client discovers it asked the wrong
    /// edge.
    fn answer_one(&self, query: &LookupQuery) -> LookupAnswer {
        assert_no_shard_locks();
        if query.tld == LOOKUP_ANY_TLD {
            return LookupAnswer {
                present: self.contains_anywhere(&query.name),
                serial: None,
                first_seen: self.nrd_first_seen_anywhere(&query.name),
            };
        }
        let tld = TldId(query.tld);
        match self.shards.get(&tld) {
            Some(snapshot) => LookupAnswer {
                present: snapshot.contains(&query.name),
                serial: Some(snapshot.serial()),
                first_seen: self.nrd.first_seen(tld, &query.name),
            },
            None => LookupAnswer::default(),
        }
    }

    /// Answer a whole `RZUL` batch in request order, each answer beside
    /// its query's TLD: the key the `RZUA` encoder names a serial by.
    pub fn answer(&self, queries: &[LookupQuery]) -> Vec<(u16, LookupAnswer)> {
        queries.iter().map(|q| (q.tld, self.answer_one(q))).collect()
    }
}

/// The swap-on-write index cell. Writers go through
/// [`EdgeIndex::adopt_snapshot`] / [`EdgeIndex::apply_delta`]; readers
/// through [`EdgeIndex::load`]. See the module docs for the locking
/// story.
pub struct EdgeIndex {
    config: EdgeIndexConfig,
    /// The epoch cell: shared-half readers clone the `Arc`, the
    /// exclusive half is held for exactly one pointer store.
    // lock-level: 62
    current: TrackedRwLock<Arc<EdgeEpoch>>,
    /// Serializes writers so the read-build-swap sequence can run its
    /// O(index) build outside the epoch cell's lock.
    // lock-level: 60
    writer: TrackedMutex<()>,
}

impl Default for EdgeIndex {
    fn default() -> Self {
        Self::new(EdgeIndexConfig::default())
    }
}

impl EdgeIndex {
    pub fn new(config: EdgeIndexConfig) -> Self {
        EdgeIndex {
            config,
            current: TrackedRwLock::new(&EDGE_CELL, Arc::new(EdgeEpoch::default())),
            writer: TrackedMutex::new(&EDGE_WRITER, ()),
        }
    }

    /// The read path: clone the current epoch's `Arc` and answer from
    /// it lock-free. Two queries answered from one loaded epoch are
    /// mutually consistent; reload to observe writer progress.
    pub fn load(&self) -> Arc<EdgeEpoch> {
        assert_no_shard_locks();
        Arc::clone(&self.current.read())
    }

    /// The current generation counter (a `load` shorthand).
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Writer path: adopt `snapshot` as `tld`'s state (a bootstrap or
    /// rule-3 catch-up). Snapshot adoption does not feed the NRD window
    /// — a checkpoint's delegations are not *newly registered*, they
    /// are merely newly *known* to this edge.
    pub fn adopt_snapshot(&self, tld: TldId, snapshot: ZoneSnapshot) {
        self.swap_with(|next| {
            next.shards.insert(tld, snapshot);
        });
    }

    /// Writer path: install `tld`'s post-delta snapshot (already
    /// applied by the feed's zone view — `Arc`-shared, so the edge
    /// serves byte-identical state to a full replica at the same
    /// serial) and absorb the push's `added` section into the NRD
    /// window, stamped with the publisher-side `pushed_at`.
    pub fn apply_delta(&self, tld: TldId, snapshot: ZoneSnapshot, push: &DeltaPush) {
        let config = self.config;
        self.swap_with(|next| {
            next.shards.insert(tld, snapshot);
            next.nrd.extend_from_push(tld, push, &config);
        });
    }

    /// The swap-on-write engine: under the writer mutex, clone the
    /// current epoch's *contents* (cheap: snapshot values share their
    /// segments by `Arc`, the NRD window is capacity-bounded), mutate
    /// the clone, bump the generation, and swap the cell.
    fn swap_with(&self, build: impl FnOnce(&mut EdgeEpoch)) {
        let _writers = self.writer.lock();
        let cur = Arc::clone(&self.current.read());
        let mut next = EdgeEpoch {
            epoch: cur.epoch + 1,
            shards: cur.shards.clone(),
            nrd: cur.nrd.clone(),
        };
        build(&mut next);
        *self.current.write() = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_dns::ZoneDelta;
    use darkdns_dns::zone::NsSet;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn snap(origin: &str, serial: u32, names: &[&str]) -> ZoneSnapshot {
        let entries = names
            .iter()
            .map(|n| (name(n), vec![name("ns1.provider0.net")]))
            .collect();
        ZoneSnapshot::from_entries(name(origin), Serial::new(serial), SimTime::ZERO, entries)
    }

    fn push_for(added: &[&str], from: u32, to: u32, at: u64) -> DeltaPush {
        let mut delta = ZoneDelta::default();
        for n in added {
            delta.added.push((name(n), NsSet::new(vec![name("ns1.provider0.net")])));
        }
        DeltaPush {
            origin: name("com"),
            from_serial: Serial::new(from),
            to_serial: Serial::new(to),
            pushed_at: SimTime::from_secs(at),
            delta,
        }
    }

    #[test]
    fn epoch_advances_and_readers_keep_their_generation() {
        let index = EdgeIndex::default();
        assert_eq!(index.epoch(), 0);
        let before = index.load();
        index.adopt_snapshot(TldId(0), snap("com", 1, &["a.com"]));
        assert_eq!(index.epoch(), 1);
        // The pre-swap reader still answers from its own generation.
        assert!(!before.contains(TldId(0), &name("a.com")));
        let after = index.load();
        assert!(after.contains(TldId(0), &name("a.com")));
        assert_eq!(after.serial(TldId(0)), Some(Serial::new(1)));
    }

    #[test]
    fn delta_feeds_nrd_window_and_snapshot_does_not() {
        let index = EdgeIndex::default();
        index.adopt_snapshot(TldId(0), snap("com", 1, &["old.com"]));
        let epoch = index.load();
        assert_eq!(epoch.nrd_len(), 0, "bootstrap names are not NRDs");
        assert_eq!(epoch.nrd.first_seen(TldId(0), &name("old.com")), None);

        let push = push_for(&["fresh.com"], 1, 2, 1000);
        let next = push.delta.apply(epoch.shards.get(&TldId(0)).unwrap(), push.to_serial, push.pushed_at);
        index.apply_delta(TldId(0), next, &push);
        let epoch = index.load();
        assert!(epoch.contains(TldId(0), &name("fresh.com")));
        assert_eq!(
            epoch.nrd.first_seen(TldId(0), &name("fresh.com")),
            Some(SimTime::from_secs(1000))
        );
        assert_eq!(epoch.nrd_first_seen_anywhere(&name("fresh.com")), Some(SimTime::from_secs(1000)));
        assert_eq!(epoch.nrd_len(), 1);
    }

    #[test]
    fn nrd_window_prunes_by_age_and_capacity() {
        let index = EdgeIndex::new(EdgeIndexConfig { nrd_window_secs: 100, nrd_capacity: 4 });
        index.adopt_snapshot(TldId(0), snap("com", 0, &[]));
        let mut state = index.load().shards.get(&TldId(0)).unwrap().clone();
        let mut serial = 0u32;
        let mut apply = |names: &[&str], at: u64, index: &EdgeIndex, state: &mut ZoneSnapshot| {
            let push = push_for(names, serial, serial + 1, at);
            serial += 1;
            *state = push.delta.apply(state, push.to_serial, push.pushed_at);
            index.apply_delta(TldId(0), state.clone(), &push);
        };
        apply(&["a.com"], 10, &index, &mut state);
        apply(&["b.com"], 70, &index, &mut state);
        apply(&["c.com"], 160, &index, &mut state);
        let epoch = index.load();
        // a.com (at 10) fell off the 100s window once c.com (160) landed.
        assert_eq!(epoch.nrd.first_seen(TldId(0), &name("a.com")), None);
        assert!(epoch.contains(TldId(0), &name("a.com")), "pruned from NRD, still delegated");
        assert_eq!(epoch.nrd.first_seen(TldId(0), &name("b.com")), Some(SimTime::from_secs(70)));
        assert_eq!(epoch.nrd_len(), 2);

        // Capacity cap: 5 adds in-window keep only the newest 4.
        apply(&["d.com", "e.com", "f.com", "g.com", "h.com"], 170, &index, &mut state);
        let epoch = index.load();
        assert_eq!(epoch.nrd_len(), 4);
        assert_eq!(epoch.nrd.first_seen(TldId(0), &name("b.com")), None, "oldest evicted by cap");
        assert_eq!(epoch.nrd.first_seen(TldId(0), &name("h.com")), Some(SimTime::from_secs(170)));
    }

    #[test]
    fn any_tld_queries_scan_every_shard() {
        let index = EdgeIndex::default();
        index.adopt_snapshot(TldId(0), snap("com", 3, &["a.com"]));
        index.adopt_snapshot(TldId(7), snap("net", 9, &["b.net"]));
        let epoch = index.load();
        let hit = epoch.answer_one(&LookupQuery { tld: LOOKUP_ANY_TLD, name: name("b.net") });
        assert!(hit.present);
        assert_eq!(hit.serial, None, "anywhere answers carry no single-shard serial");
        let scoped = epoch.answer_one(&LookupQuery { tld: 7, name: name("b.net") });
        assert!(scoped.present);
        assert_eq!(scoped.serial, Some(Serial::new(9)));
        let unknown = epoch.answer_one(&LookupQuery { tld: 3, name: name("b.net") });
        assert!(!unknown.present);
        assert_eq!(unknown.serial, None, "unserved TLD answers absent with no serial");
    }

    #[test]
    fn concurrent_lookups_race_a_full_cadence_writer() {
        // The epoch-swap concurrency pin: reader threads hammer the
        // read path (with its debug no-shard-lock assertions) while a
        // writer applies deltas at full cadence. Readers must always
        // observe an internally consistent epoch: the NRD window never
        // mentions a name the snapshot does not contain.
        let index = Arc::new(EdgeIndex::default());
        index.adopt_snapshot(TldId(0), snap("com", 0, &[]));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let index = Arc::clone(&index);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last_epoch = 0;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let epoch = index.load();
                        assert!(epoch.epoch() >= last_epoch, "epochs are monotonic");
                        last_epoch = epoch.epoch();
                        for i in 0..200u32 {
                            let n = name(&format!("d{i}.com"));
                            if epoch.nrd.first_seen(TldId(0), &n).is_some() {
                                assert!(
                                    epoch.contains(TldId(0), &n),
                                    "NRD window ahead of the snapshot inside one epoch"
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        let mut state = index.load().shards.get(&TldId(0)).unwrap().clone();
        for i in 0..200u32 {
            let push = push_for(&[&format!("d{i}.com")], i, i + 1, 10 + i as u64);
            state = push.delta.apply(&state, push.to_serial, push.pushed_at);
            index.apply_delta(TldId(0), state.clone(), &push);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for reader in readers {
            reader.join().unwrap();
        }
        let epoch = index.load();
        assert_eq!(epoch.epoch(), 201);
        assert_eq!(epoch.serial(TldId(0)), Some(Serial::new(200)));
    }
}
