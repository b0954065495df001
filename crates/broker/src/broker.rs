//! The fan-out broker: per-shard locks over per-TLD journal + subscriber
//! state, routed through a swap-on-write shard directory.
//!
//! Concurrency architecture (the crate docs hold the full lock
//! hierarchy): every TLD owns a [`ShardHandle`] — one mutex guarding that
//! shard's [`JournalShard`] *and* its subscriber registry — so publishers
//! of different TLDs never touch the same lock. Routing from `TldId` to
//! handle goes through an immutable `Arc`-shared directory map that is
//! swapped wholesale on (rare) shard registration; the publish/subscribe
//! read path takes no exclusive lock to resolve a shard.
//!
//! `publish` seals a delta once (one wire encode) and clones the
//! resulting refcount-shared [`Bytes`] frame into every queue registered
//! with that shard — fan-out cost is one `VecDeque` push per subscriber,
//! independent of the delta size. `subscribe` computes each shard's
//! snapshot-vs-delta catch-up plan (crate docs) and registers the
//! subscriber under that same shard's lock, so a publisher on the shard
//! can never slip a push between the plan and the registration: per
//! shard, the subscriber misses nothing and double-sees nothing.

use crate::lockdep::{self, TrackedMutex, TrackedRwLock};
use crate::shard::{CatchUp, JournalShard, RetentionConfig, SealedDelta};
use bytes::Bytes;
use darkdns_dns::hash::NameMap;
pub use darkdns_dns::wire::ShardStats;
use darkdns_dns::{Serial, ZoneDelta, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Broker tuning. Catch-up has no knob: every subscription is brought
/// to the head by the one decision rule (crate docs), bootstrap
/// included, and the publish path reads no clock. Overflow has none
/// either: a publish that finds a subscriber's live buffer full drops
/// the message for that subscriber and counts it
/// ([`BrokerSubscription::dropped_count`]); the subscriber lags and
/// heals the gap by resubscribing with its claims.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    pub retention: RetentionConfig,
    /// Live-push buffer bound per subscriber (catch-up messages are
    /// exempt; their depth is bounded by the retention ring instead).
    pub subscriber_capacity: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            retention: RetentionConfig::default(),
            subscriber_capacity: 1024,
        }
    }
}

/// A message on a subscriber queue.
#[derive(Debug, Clone)]
pub enum BrokerMessage {
    /// Catch-up bootstrap: adopt this snapshot as the shard state.
    /// Delivered in-process as an `Arc`-shared snapshot — no
    /// serialization.
    Snapshot { tld: TldId, snapshot: ZoneSnapshot },
    /// One delta push, as the shared `RZU4` wire frame; decode with
    /// [`darkdns_dns::decode_delta_push`].
    Delta { tld: TldId, frame: Bytes },
}

/// Aggregate broker counters: the sum of every shard's [`ShardStats`]
/// (monotonic except `subscribers`, which is the live distinct count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Distinct live subscribers currently registered on any shard.
    pub subscribers: usize,
    /// Wire frames encoded (exactly one per published delta).
    pub frames_encoded: u64,
    /// Total bytes of encoded frames (before sharing).
    pub frame_bytes_encoded: u64,
    /// Messages enqueued to subscriber buffers.
    pub deliveries: u64,
    /// Messages dropped because a subscriber buffer was full.
    pub lagged_messages: u64,
    /// Catch-ups answered with a checkpoint snapshot (rule 3).
    pub snapshot_catchups: u64,
    /// Catch-ups answered with a delta replay (rule 2).
    pub delta_catchups: u64,
}

/// Per-shard monotonic counters, mutated under the shard lock (plain
/// integers: the lock already serialises writers, so no atomics).
#[derive(Debug, Default)]
struct ShardCounters {
    pushes: u64,
    frame_bytes: u64,
    deliveries: u64,
    lagged_messages: u64,
    snapshot_catchups: u64,
    delta_catchups: u64,
}

/// One queued item: the message plus whether it belongs to the catch-up
/// backlog (exempt from the live capacity bound; retired from
/// `catchup_pending` exactly when popped, regardless of how live pushes
/// interleave with a multi-shard catch-up).
#[derive(Debug)]
struct QueuedMessage {
    msg: BrokerMessage,
    catchup: bool,
}

/// Cross-thread readiness callback a reactor installs on a subscription
/// ([`BrokerSubscription::set_waker`]): invoked on every enqueue.
type SubWaker = Arc<dyn Fn() + Send + Sync>;

/// Queue state shared between the broker and one subscription handle.
struct SubShared {
    id: u64,
    // lock-level: 30
    queue: TrackedMutex<VecDeque<QueuedMessage>>,
    /// Readiness hook for consumers that multiplex many subscriptions on
    /// one thread (the transport reactor): fired on every enqueue — the
    /// only wake path there is. The callback runs under the subscriber
    /// queue lock and must only touch leaf state (the reactor's pending
    /// list and wakeup fd) — see the crate-level lock hierarchy.
    // lock-level: 40
    waker: TrackedMutex<Option<SubWaker>>,
    /// Catch-up messages still queued; their depth is bounded by the
    /// retention ring, so they are exempt from the live-push capacity
    /// bound.
    catchup_pending: AtomicU64,
    dropped: AtomicU64,
    closed: AtomicBool,
}

impl SubShared {
    fn is_live(&self) -> bool {
        !self.closed.load(Ordering::Relaxed)
    }

    /// Retire `n` popped catch-up messages. Nothing clears a queue, so
    /// every catch-up message is counted in under the queue lock that
    /// queues it and counted out once, after its own pop: the counter
    /// never underflows. It may run ahead of the queued catch-up
    /// messages while a pop is in flight, which the publish path's
    /// `saturating_sub` absorbs.
    fn retire_catchup(&self, n: u64) {
        if n > 0 {
            let before = self.catchup_pending.fetch_sub(n, Ordering::Relaxed);
            debug_assert!(before >= n, "retired {n} catch-up messages of {before} counted");
        }
    }

    /// Fire the installed reactor waker, if any.
    fn wake(&self) {
        if let Some(waker) = self.waker.lock().as_ref() {
            waker();
        }
    }
}

/// One shard's registry entry: a refcount on the shared queue state.
struct SubEntry {
    shared: Arc<SubShared>,
}

/// Consumer handle returned by [`Broker::subscribe`]. Dropping it
/// deregisters the subscriber at each shard's next publish.
pub struct BrokerSubscription {
    shared: Arc<SubShared>,
}

impl BrokerSubscription {
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Non-blocking poll.
    pub fn try_next(&self) -> Option<BrokerMessage> {
        let item = self.shared.queue.lock().pop_front()?;
        if item.catchup {
            self.shared.retire_catchup(1);
        }
        Some(item.msg)
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<BrokerMessage> {
        let drained: Vec<QueuedMessage> = {
            let mut q = self.shared.queue.lock();
            q.drain(..).collect()
        };
        let catchups = drained.iter().filter(|m| m.catchup).count() as u64;
        self.shared.retire_catchup(catchups);
        drained.into_iter().map(|m| m.msg).collect()
    }

    /// Live pushes dropped for this subscriber because its buffer was
    /// full.
    pub fn dropped_count(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Install (or clear) a readiness waker: a callback fired whenever
    /// a message is enqueued. This is how a reactor multiplexes
    /// thousands of subscriptions on one thread: each queue pokes the
    /// shared event loop. The callback runs under the subscriber queue
    /// lock (itself possibly under a shard lock) and must only touch
    /// leaf state; anything already queued before installation is NOT
    /// re-signalled, so install the waker first and then drain once.
    pub fn set_waker(&self, waker: Option<SubWaker>) {
        *self.shared.waker.lock() = waker;
    }

    /// A cheap introspection handle for monitoring this subscription
    /// from another thread (the transport's per-subscriber stats rows):
    /// shares the queue state, delivers nothing.
    pub fn probe(&self) -> SubscriberProbe {
        SubscriberProbe { shared: Arc::clone(&self.shared) }
    }
}

/// Read-only view of one subscription's queue state, cloneable across
/// threads. Holding a probe does not keep the subscription alive for
/// delivery purposes — only the owning [`BrokerSubscription`] does.
#[derive(Clone)]
pub struct SubscriberProbe {
    shared: Arc<SubShared>,
}

impl SubscriberProbe {
    /// Messages queued right now.
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// Live pushes dropped because the buffer was full.
    pub fn dropped_count(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for BrokerSubscription {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
    }
}

/// Everything one TLD owns, guarded by a single per-shard mutex: the
/// journal state and the subscribers registered with this shard.
struct ShardShared {
    shard: JournalShard,
    subs: Vec<SubEntry>,
    counters: ShardCounters,
}

/// One TLD's concurrency unit. The `contended` and `coalesced` counters
/// live outside the mutex: `contended` so the uncontended fast path
/// (`try_lock` succeeds) is observable, `coalesced` so the transport's
/// reactor thread — which sits strictly below the shard locks in the
/// hierarchy — can report batching without ever acquiring a shard lock.
struct ShardHandle {
    // lock-level: 20 (acquired via `lock_shard`, which registers the
    // acquisition with `lockdep::SHARD`)
    state: Mutex<ShardShared>,
    contended: AtomicU64,
    coalesced: AtomicU64,
}

/// The routing map: `TldId` → shard handle. Immutable once published;
/// [`Broker::add_shard`] swaps in a rebuilt map under a writer lock
/// while readers clone the `Arc` and resolve shards with no exclusive
/// lock held.
type ShardDirectory = NameMap<TldId, Arc<ShardHandle>>;

/// RAII guard for a shard lock. In debug builds the carried lockdep
/// token enforces the crate's documented lock hierarchy: a thread holds
/// at most one shard lock at a time (shard → subscriber queue, never
/// shard → shard), and any lock-order cycle through the shard class is
/// reported with both acquisition sites (see [`crate::lockdep`]).
struct ShardGuard<'a> {
    guard: MutexGuard<'a, ShardShared>,
    _held: lockdep::Held,
}

impl Deref for ShardGuard<'_> {
    type Target = ShardShared;
    fn deref(&self) -> &ShardShared {
        &self.guard
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardShared {
        &mut self.guard
    }
}

/// Acquire a shard lock, (in debug builds) registering the acquisition
/// with [`crate::lockdep`] — which enforces that shard locks never nest
/// (shard → subscriber queue only, never shard → shard) and that no
/// lower-level lock is already held. `count_contention` is set only on
/// the publish path, so `ShardStats::lock_contentions` measures exactly
/// the acceptance property — publishers contending on a shard — and is
/// never polluted by monitor reads or subscribe traffic taking a busy
/// shard's lock.
#[track_caller]
fn lock_shard(handle: &ShardHandle, count_contention: bool) -> ShardGuard<'_> {
    let held = lockdep::acquire(&lockdep::SHARD);
    let guard = match handle.state.try_lock() {
        Some(guard) => guard,
        None => {
            if count_contention {
                handle.contended.fetch_add(1, Ordering::Relaxed);
            }
            handle.state.lock()
        }
    };
    ShardGuard { guard, _held: held }
}

/// Shard publish locks held by the calling thread. Always `0` in
/// release builds, where the debug-only lockdep tracking compiles out.
/// Exposed so code that promises a publish-lock-free read path — the
/// edge index's epoch-swap query answering — can debug-assert the
/// promise at every lookup instead of relying on review.
pub fn shard_locks_held_by_current_thread() -> usize {
    lockdep::held_count(&lockdep::SHARD)
}

/// The sharded RZU distribution broker. Cheap to clone (`Arc`-shared);
/// clones publish into and subscribe from the same state. `Send + Sync`:
/// publishers of disjoint TLDs run fully in parallel (see
/// [`crate::feed::UniverseFeed::publish_all_concurrent`]).
#[derive(Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

struct BrokerInner {
    config: BrokerConfig,
    // lock-level: 10
    directory: TrackedRwLock<Arc<ShardDirectory>>,
    next_id: AtomicU64,
}

impl Broker {
    pub fn new(config: BrokerConfig) -> Self {
        Broker {
            inner: Arc::new(BrokerInner {
                config,
                directory: TrackedRwLock::new(&lockdep::DIRECTORY, Arc::new(ShardDirectory::default())),
                next_id: AtomicU64::new(0),
            }),
        }
    }

    /// The current routing map: a cheap `Arc` clone taken under a brief
    /// shared read lock, then used entirely lock-free.
    fn directory(&self) -> Arc<ShardDirectory> {
        Arc::clone(&self.inner.directory.read())
    }

    fn handle(&self, tld: TldId) -> Arc<ShardHandle> {
        self.directory()
            .get(&tld)
            .unwrap_or_else(|| panic!("no shard for {tld:?}"))
            .clone()
    }

    /// Register a TLD shard starting at `initial`. Swaps a rebuilt
    /// directory map in place: readers that already cloned the `Arc`
    /// keep the old map; new lookups block only for the O(shards)
    /// clone+insert under the writer lock — registration is a rare,
    /// deployment-time operation, so the steady-state publish path never
    /// sees a writer.
    ///
    /// # Panics
    /// Panics if the TLD already has a shard.
    pub fn add_shard(&self, tld: TldId, initial: ZoneSnapshot) {
        let handle = Arc::new(ShardHandle {
            state: Mutex::new(ShardShared {
                shard: JournalShard::new(tld, initial),
                subs: Vec::new(),
                counters: ShardCounters::default(),
            }),
            contended: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        });
        let mut dir = self.inner.directory.write();
        let mut next: ShardDirectory = (**dir).clone();
        let prev = next.insert(tld, handle);
        assert!(prev.is_none(), "duplicate shard for {tld:?}");
        *dir = Arc::new(next);
    }

    /// Registered shard count.
    pub fn shard_count(&self) -> usize {
        self.directory().len()
    }

    /// True when `tld` has a registered shard. The transport handshake
    /// validates untrusted subscriber claims with this before calling
    /// [`Broker::subscribe_with`] (which panics on unknown TLDs, a
    /// contract meant for in-process callers).
    pub fn has_shard(&self, tld: TldId) -> bool {
        self.directory().get(&tld).is_some()
    }

    /// Current head snapshot of a shard (an `Arc`-shared clone).
    pub fn head(&self, tld: TldId) -> Option<ZoneSnapshot> {
        let dir = self.directory();
        let handle = dir.get(&tld)?;
        let head = lock_shard(handle, false).shard.head().clone();
        Some(head)
    }

    /// Distinct live subscribers across all shards (pruning closed
    /// registrations as a side effect).
    pub fn subscriber_count(&self) -> usize {
        let dir = self.directory();
        let mut ids = std::collections::HashSet::new();
        for handle in dir.values() {
            let mut st = lock_shard(handle, false);
            st.subs.retain(|e| e.shared.is_live());
            ids.extend(st.subs.iter().map(|e| e.shared.id));
        }
        ids.len()
    }

    /// Subscribe to `tlds`, claiming `from_serial` for each (None = no
    /// prior state). Serials are per-shard, so a uniform claim only
    /// makes sense for fresh joins or single-TLD subscribers; a resuming
    /// multi-TLD consumer should use [`Broker::subscribe_with`] with its
    /// actual per-TLD serials.
    ///
    /// # Panics
    /// Panics if any TLD has no shard.
    pub fn subscribe(&self, tlds: &[TldId], from_serial: Option<Serial>) -> BrokerSubscription {
        let claims: Vec<(TldId, Option<Serial>)> =
            tlds.iter().map(|&t| (t, from_serial)).collect();
        self.subscribe_with(&claims)
    }

    /// Subscribe with an explicit per-TLD serial claim (None = no prior
    /// state for that shard). Shards are visited one at a time; for each,
    /// the catch-up plan is enqueued and the subscriber registered under
    /// that shard's lock, so per shard the stream has no gap or overlap.
    /// Under concurrent publishers, a shard visited later may deliver a
    /// live push before an earlier-visited shard's — messages are tagged
    /// by TLD and per-shard order is all the replay contract needs.
    ///
    /// # Panics
    /// Panics if any TLD has no shard.
    pub fn subscribe_with(&self, claims: &[(TldId, Option<Serial>)]) -> BrokerSubscription {
        let shared = Arc::new(SubShared {
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            queue: TrackedMutex::new(&lockdep::SUB_QUEUE, VecDeque::new()),
            waker: TrackedMutex::new(&lockdep::SUB_WAKER, None),
            catchup_pending: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let dir = self.directory();
        let mut seen: Vec<TldId> = Vec::with_capacity(claims.len());
        for &(tld, claim) in claims {
            if seen.contains(&tld) {
                // Duplicate claim: first wins. Registering twice on one
                // shard would double every live delivery.
                continue;
            }
            seen.push(tld);
            let handle = dir.get(&tld).unwrap_or_else(|| panic!("no shard for {tld:?}"));
            // Plan + enqueue + register atomically per shard: a publisher
            // on this shard cannot slip a push between the plan and the
            // registration.
            let mut st = lock_shard(handle, false);
            let plan = st.shard.catch_up(claim);
            let backlog = plan.message_count() as u64;
            let mut queue = shared.queue.lock();
            match plan {
                CatchUp::UpToDate => {}
                CatchUp::Deltas(deltas) => {
                    st.counters.delta_catchups += 1;
                    for d in deltas {
                        queue.push_back(QueuedMessage {
                            msg: BrokerMessage::Delta { tld, frame: d.frame.clone() },
                            catchup: true,
                        });
                    }
                }
                CatchUp::SnapshotThenDeltas { snapshot, deltas } => {
                    st.counters.snapshot_catchups += 1;
                    queue.push_back(QueuedMessage {
                        msg: BrokerMessage::Snapshot { tld, snapshot },
                        catchup: true,
                    });
                    for d in deltas {
                        queue.push_back(QueuedMessage {
                            msg: BrokerMessage::Delta { tld, frame: d.frame.clone() },
                            catchup: true,
                        });
                    }
                }
            }
            if backlog > 0 {
                shared.catchup_pending.fetch_add(backlog, Ordering::Relaxed);
            }
            drop(queue);
            st.subs.push(SubEntry { shared: Arc::clone(&shared) });
        }
        BrokerSubscription { shared }
    }

    /// Publish a delta into `tld`'s shard and fan the sealed frame out
    /// to every live subscriber of that TLD. The frame is encoded once;
    /// subscribers receive refcount-shared clones. Only `tld`'s shard
    /// lock is taken: publishers of different TLDs run in parallel.
    ///
    /// # Panics
    /// Panics if no shard is registered for `tld` or the serial/delta
    /// does not apply (publisher bug).
    pub fn publish(
        &self,
        tld: TldId,
        delta: ZoneDelta,
        new_serial: Serial,
        pushed_at: SimTime,
    ) -> Arc<SealedDelta> {
        self.publish_inner(tld, delta, new_serial, pushed_at, None)
    }

    /// [`Broker::publish`] with the `RZU4` frame supplied instead of
    /// encoded: the relay ingest path. A relay broker decodes its
    /// upstream's delta envelope to maintain its local journal, then
    /// re-serves the *received* frame bytes verbatim — the root's one
    /// encode survives every hop, and a leaf can pin byte-identity
    /// against the root's sealed frame. The frame must be the `RZU4`
    /// encoding of `delta` (the relay got `delta` by decoding it).
    ///
    /// # Panics
    /// Same contract as [`Broker::publish`].
    pub fn publish_frame(
        &self,
        tld: TldId,
        delta: ZoneDelta,
        new_serial: Serial,
        pushed_at: SimTime,
        frame: Bytes,
    ) -> Arc<SealedDelta> {
        self.publish_inner(tld, delta, new_serial, pushed_at, Some(frame))
    }

    /// Adopt `snapshot` as the authoritative state of `tld`'s shard: the
    /// relay bootstrap/resync path, called when this broker's *upstream*
    /// served a snapshot (so the local journal is no longer contiguous
    /// with the new head). Registers the shard if this TLD is new;
    /// otherwise resets it ([`JournalShard::reset_to`]) and fans the
    /// snapshot out to every live local subscriber as a catch-up
    /// message (exempt from the live capacity bound, like any
    /// bootstrap): each downstream consumer resyncs exactly once per
    /// upstream resync, and never double-applies a delta across the
    /// reset because nothing older than the snapshot survives in the
    /// ring.
    pub fn install_snapshot(&self, tld: TldId, snapshot: ZoneSnapshot) {
        if !self.has_shard(tld) {
            self.add_shard(tld, snapshot);
            return;
        }
        let handle = self.handle(tld);
        let mut st = lock_shard(&handle, true);
        let ShardShared { shard, subs, counters } = &mut *st;
        shard.reset_to(snapshot.clone());
        subs.retain(|entry| {
            let sub = &entry.shared;
            if !sub.is_live() {
                return false;
            }
            let mut queue = sub.queue.lock();
            queue.push_back(QueuedMessage {
                msg: BrokerMessage::Snapshot { tld, snapshot: snapshot.clone() },
                catchup: true,
            });
            sub.catchup_pending.fetch_add(1, Ordering::Relaxed);
            counters.deliveries += 1;
            counters.snapshot_catchups += 1;
            drop(queue);
            sub.wake();
            true
        });
    }

    /// The `RZUC` frames that take a peer holding the first `start`
    /// entries of `snapshot` to its end, at `chunk_bytes` a chunk — from
    /// the shard's cached train when `snapshot` is its checkpoint (that
    /// very capture) and `start` is one of the train's chunk boundaries,
    /// otherwise from `encode`, which must produce exactly those frames.
    ///
    /// The shard lock is held to clone frame refcounts and to store a
    /// whole train (`start == 0`), never across `encode`: two bootstraps
    /// racing on an empty slot may both encode, and a train whose
    /// checkpoint was refreshed meanwhile is returned but not kept. An
    /// unknown `tld` is encoded and not kept.
    pub fn snapshot_train(
        &self,
        tld: TldId,
        snapshot: &ZoneSnapshot,
        start: usize,
        chunk_bytes: usize,
        encode: impl FnOnce() -> Vec<Bytes>,
    ) -> Vec<Bytes> {
        let dir = self.directory();
        let Some(handle) = dir.get(&tld) else { return encode() };
        if let Some(tail) =
            lock_shard(handle, false).shard.checkpoint_train(snapshot, chunk_bytes, start)
        {
            return tail.to_vec();
        }
        let frames = encode();
        if start == 0 {
            lock_shard(handle, false).shard.store_checkpoint_train(snapshot, chunk_bytes, &frames);
        }
        frames
    }

    /// Seal and fan out. `delta` is only borrowed by the shard: it is
    /// this call's to drop, after the shard guard is released.
    fn publish_inner(
        &self,
        tld: TldId,
        delta: ZoneDelta,
        new_serial: Serial,
        pushed_at: SimTime,
        frame: Option<Bytes>,
    ) -> Arc<SealedDelta> {
        let handle = self.handle(tld);
        let retention = self.inner.config.retention;
        let capacity = self.inner.config.subscriber_capacity;
        // Seal and fan out under the shard lock (subscriber queues nest
        // inside it, same order as subscribe): releasing the shard before
        // fan-out would let a subscriber compute a catch-up plan that
        // already includes this delta, register, and then receive it a
        // second time from the fan-out below.
        let mut st = lock_shard(&handle, true);
        let ShardShared { shard, subs, counters } = &mut *st;
        let sealed = match frame {
            Some(frame) => shard.publish_with_frame(&delta, new_serial, pushed_at, frame, &retention),
            None => shard.publish(&delta, new_serial, pushed_at, &retention),
        };
        counters.pushes += 1;
        counters.frame_bytes += sealed.frame.len() as u64;
        subs.retain(|entry| {
            let sub = &entry.shared;
            if !sub.is_live() {
                return false;
            }
            let mut queue = sub.queue.lock();
            // Only *live* pushes count against the capacity bound; an
            // undrained catch-up backlog (bounded by the retention ring)
            // must not get a fresh subscriber lagged.
            let catchup = sub.catchup_pending.load(Ordering::Relaxed) as usize;
            let live_len = queue.len().saturating_sub(catchup);
            if live_len < capacity {
                queue.push_back(QueuedMessage {
                    msg: BrokerMessage::Delta { tld, frame: sealed.frame.clone() },
                    catchup: false,
                });
                counters.deliveries += 1;
                sub.wake();
            } else {
                sub.dropped.fetch_add(1, Ordering::Relaxed);
                counters.lagged_messages += 1;
            }
            true
        });
        sealed
    }

    /// A point-in-time copy of one shard's accounting.
    pub fn shard_stats(&self, tld: TldId) -> Option<ShardStats> {
        let dir = self.directory();
        let handle = dir.get(&tld)?;
        Some(Self::snapshot_shard(tld, handle))
    }

    /// Every shard's accounting, ascending by TLD.
    pub fn all_shard_stats(&self) -> Vec<ShardStats> {
        let dir = self.directory();
        let mut stats: Vec<ShardStats> =
            dir.iter().map(|(&tld, handle)| Self::snapshot_shard(tld, handle)).collect();
        stats.sort_unstable_by_key(|s| s.tld);
        stats
    }

    fn snapshot_shard(tld: TldId, handle: &ShardHandle) -> ShardStats {
        Self::snapshot_shard_with(tld, handle, &mut |_| {})
    }

    /// Credit one frame per entry of `tlds` delivered inside a coalesced
    /// transport write. Lock-free (an atomic on the shard handle): the
    /// reactor's subscriber stream calls this from strictly below the
    /// shard locks, so the lock hierarchy is untouched. Unknown TLDs are
    /// ignored (the frame was validated long before it reached a
    /// connection's ring). One directory snapshot for the whole run, so
    /// a 32-frame batch costs one brief shared read lock instead of one
    /// per frame.
    pub fn record_coalesced_frames<I: IntoIterator<Item = TldId>>(&self, tlds: I) {
        let dir = self.directory();
        for tld in tlds {
            if let Some(handle) = dir.get(&tld) {
                handle.coalesced.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One-lock shard snapshot; `on_subscriber` sees every live
    /// subscriber id under the same guard the counters are read under.
    fn snapshot_shard_with(
        tld: TldId,
        handle: &ShardHandle,
        on_subscriber: &mut dyn FnMut(u64),
    ) -> ShardStats {
        let contentions = handle.contended.load(Ordering::Relaxed);
        let coalesced = handle.coalesced.load(Ordering::Relaxed);
        let mut st = lock_shard(handle, false);
        st.subs.retain(|e| e.shared.is_live());
        for e in &st.subs {
            on_subscriber(e.shared.id);
        }
        let retained_deltas = st.shard.retained().len() as u64;
        let c = &st.counters;
        ShardStats {
            tld: tld.0,
            head_serial: st.shard.head().serial(),
            subscribers: st.subs.len() as u64,
            pushes: c.pushes,
            frame_bytes: c.frame_bytes,
            checkpoints: st.shard.checkpoints(),
            retained_deltas,
            retired_deltas: st.shard.dropped_deltas(),
            deliveries: c.deliveries,
            lagged_messages: c.lagged_messages,
            evictions: 0,
            snapshot_catchups: c.snapshot_catchups,
            delta_catchups: c.delta_catchups,
            lock_contentions: contentions,
            coalesced_frames: coalesced,
        }
    }

    /// The aggregate counters: every shard's [`ShardStats`] summed, plus
    /// the distinct live subscriber count. Shards are visited one at a
    /// time (never two shard locks at once), so the aggregate is a
    /// consistent per-shard — not cross-shard — snapshot.
    pub fn stats(&self) -> BrokerStats {
        let dir = self.directory();
        let mut agg = BrokerStats::default();
        let mut ids = std::collections::HashSet::new();
        for (&tld, handle) in dir.iter() {
            let shard = Self::snapshot_shard_with(tld, handle, &mut |id| {
                ids.insert(id);
            });
            agg.frames_encoded += shard.pushes;
            agg.frame_bytes_encoded += shard.frame_bytes;
            agg.deliveries += shard.deliveries;
            agg.lagged_messages += shard.lagged_messages;
            agg.snapshot_catchups += shard.snapshot_catchups;
            agg.delta_catchups += shard.delta_catchups;
        }
        agg.subscribers = ids.len();
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_dns::{decode_delta_push, DomainName, NsSet, Zone};

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn empty_snap() -> ZoneSnapshot {
        ZoneSnapshot::from_entries(name("com"), Serial::new(0), SimTime::ZERO, vec![])
    }

    fn add_delta(domain: &str) -> ZoneDelta {
        let mut d = ZoneDelta::default();
        d.added.push((name(domain), NsSet::new(vec![name("ns1.provider0.net")])));
        d
    }

    fn broker_with_com(config: BrokerConfig) -> Broker {
        let broker = Broker::new(config);
        broker.add_shard(TldId(0), empty_snap());
        broker
    }

    /// Apply every queued message to a snapshot view and return it.
    fn replay(sub: &BrokerSubscription, mut state: ZoneSnapshot) -> ZoneSnapshot {
        for msg in sub.drain() {
            match msg {
                BrokerMessage::Snapshot { snapshot, .. } => state = snapshot,
                BrokerMessage::Delta { frame, .. } => {
                    let push = decode_delta_push(&frame).unwrap();
                    assert_eq!(push.from_serial, state.serial(), "gap in delta stream");
                    state = push.delta.apply(&state, push.to_serial, push.pushed_at);
                }
            }
        }
        state
    }

    #[test]
    fn live_subscriber_converges_to_head() {
        let broker = broker_with_com(BrokerConfig::default());
        let sub = broker.subscribe(&[TldId(0)], Some(Serial::new(0)));
        for i in 1..=5u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
        }
        let state = replay(&sub, empty_snap());
        assert_eq!(state, broker.head(TldId(0)).unwrap());
        // The replayed view is a real zone.
        assert_eq!(Zone::from_snapshot(&state).len(), 5);
    }

    #[test]
    fn fan_out_shares_one_frame_across_subscribers() {
        let broker = broker_with_com(BrokerConfig::default());
        let subs: Vec<_> =
            (0..8).map(|_| broker.subscribe(&[TldId(0)], Some(Serial::new(0)))).collect();
        let sealed = broker.publish(TldId(0), add_delta("a.com"), Serial::new(1), SimTime::ZERO);
        for sub in &subs {
            match sub.try_next().unwrap() {
                BrokerMessage::Delta { frame, .. } => assert!(frame.ptr_eq(&sealed.frame)),
                other => panic!("expected delta, got {other:?}"),
            }
        }
        let stats = broker.stats();
        assert_eq!(stats.frames_encoded, 1, "frame must be encoded exactly once");
        assert_eq!(stats.deliveries, 8);
    }

    #[test]
    fn mid_stream_join_catches_up_via_deltas() {
        let broker = broker_with_com(BrokerConfig::default());
        for i in 1..=4u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
        }
        let sub = broker.subscribe(&[TldId(0)], Some(Serial::new(2)));
        for i in 5..=6u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
        }
        // Subscriber replays from its own serial-2 state.
        let mut base = empty_snap();
        for i in 1..=2u32 {
            base = add_delta(&format!("d{i}.com")).apply(&base, Serial::new(i), SimTime::ZERO);
        }
        assert_eq!(replay(&sub, base), broker.head(TldId(0)).unwrap());
        assert_eq!(broker.stats().delta_catchups, 1);
    }

    #[test]
    fn ancient_join_catches_up_via_snapshot() {
        let config = BrokerConfig {
            retention: RetentionConfig::new(4, 2),
            ..BrokerConfig::default()
        };
        let broker = broker_with_com(config);
        for i in 1..=20u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
        }
        let sub = broker.subscribe(&[TldId(0)], None);
        // Starting state is irrelevant: the snapshot message replaces it.
        let state = replay(&sub, empty_snap());
        assert_eq!(state, broker.head(TldId(0)).unwrap());
        assert_eq!(broker.stats().snapshot_catchups, 1);
    }

    #[test]
    fn multi_tld_subscription_only_sees_its_tlds() {
        let broker = broker_with_com(BrokerConfig::default());
        broker.add_shard(
            TldId(1),
            ZoneSnapshot::from_entries(name("net"), Serial::new(0), SimTime::ZERO, vec![]),
        );
        let com_only = broker.subscribe(&[TldId(0)], Some(Serial::new(0)));
        let both = broker.subscribe(&[TldId(0), TldId(1)], Some(Serial::new(0)));
        broker.publish(TldId(0), add_delta("a.com"), Serial::new(1), SimTime::ZERO);
        let mut net_delta = ZoneDelta::default();
        net_delta.added.push((name("b.net"), NsSet::new(vec![name("ns1.provider0.net")])));
        broker.publish(TldId(1), net_delta, Serial::new(1), SimTime::ZERO);
        assert_eq!(com_only.drain().len(), 1);
        assert_eq!(both.drain().len(), 2);
    }

    #[test]
    fn lag_policy_counts_drops() {
        let config = BrokerConfig { subscriber_capacity: 2, ..BrokerConfig::default() };
        let broker = broker_with_com(config);
        let slow = broker.subscribe(&[TldId(0)], Some(Serial::new(0)));
        // A second subscriber that keeps up is never dropped: a full
        // buffer lags only its own subscriber.
        let fast = broker.subscribe(&[TldId(0)], Some(Serial::new(0)));
        let mut state = empty_snap();
        for i in 1..=5u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
            state = replay(&fast, state);
        }
        assert_eq!(slow.probe().queued(), 2);
        assert_eq!(slow.dropped_count(), 3);
        assert_eq!(fast.dropped_count(), 0);
        assert_eq!(state, broker.head(TldId(0)).unwrap());
        assert_eq!(broker.subscriber_count(), 2, "a lagging subscriber stays registered");
        assert_eq!(broker.stats().lagged_messages, 3);
    }

    #[test]
    fn catch_up_backlog_is_exempt_from_the_live_capacity_bound() {
        // A fresh subscriber with a catch-up backlog larger than its
        // live capacity must not be lagged by the next push.
        let config = BrokerConfig {
            retention: RetentionConfig::new(16, 16),
            subscriber_capacity: 2,
        };
        let broker = broker_with_com(config);
        for i in 1..=10u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
        }
        // Backlog: snapshot + 10 deltas = 11 messages >> capacity 2.
        let sub = broker.subscribe(&[TldId(0)], None);
        assert_eq!(sub.probe().queued(), 11);
        broker.publish(TldId(0), add_delta("live1.com"), Serial::new(11), SimTime::ZERO);
        broker.publish(TldId(0), add_delta("live2.com"), Serial::new(12), SimTime::ZERO);
        assert_eq!(sub.probe().queued(), 13, "both live pushes queue behind the backlog");
        assert_eq!(sub.dropped_count(), 0, "catch-up backlog must not count as lag");
        // A third live push exceeds the live bound and is dropped.
        broker.publish(TldId(0), add_delta("live3.com"), Serial::new(13), SimTime::ZERO);
        assert_eq!(sub.probe().queued(), 13);
        assert_eq!(sub.dropped_count(), 1);
    }

    #[test]
    fn waker_fires_on_delivery() {
        let config = BrokerConfig { subscriber_capacity: 1, ..BrokerConfig::default() };
        let broker = broker_with_com(config);
        let sub = broker.subscribe(&[TldId(0)], Some(Serial::new(0)));
        let fired = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&fired);
        sub.set_waker(Some(Arc::new(move || {
            counter.fetch_add(1, Ordering::Relaxed);
        })));
        broker.publish(TldId(0), add_delta("d1.com"), Serial::new(1), SimTime::ZERO);
        assert_eq!(fired.load(Ordering::Relaxed), 1, "delivery must fire the waker");
        // Second publish overflows the un-drained queue: it is dropped
        // and counted, and there is nothing new to wake the consumer for.
        broker.publish(TldId(0), add_delta("d2.com"), Serial::new(2), SimTime::ZERO);
        assert_eq!(fired.load(Ordering::Relaxed), 1, "a dropped push must not fire the waker");
        // A probe sees the same state without consuming anything.
        let probe = sub.probe();
        assert_eq!(probe.queued(), 1);
        assert_eq!(probe.dropped_count(), 1);
        sub.set_waker(None);
    }

    #[test]
    fn snapshot_train_encodes_once_per_checkpoint_and_never_keeps_a_raced_capture() {
        use darkdns_dns::wire::encode_snapshot_chunks;
        const CHUNK: usize = 256;
        let config = BrokerConfig {
            retention: RetentionConfig::new(4, 2),
            ..BrokerConfig::default()
        };
        let broker = broker_with_com(config);
        for i in 1..=200u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i:03}.com")), Serial::new(i), SimTime::ZERO);
        }
        // The checkpoint, as a bootstrapping subscriber is handed it.
        let checkpoint = |broker: &Broker| match broker.subscribe(&[TldId(0)], None).try_next() {
            Some(BrokerMessage::Snapshot { snapshot, .. }) => snapshot,
            other => panic!("expected a bootstrap, got {other:?}"),
        };
        let encodes = std::cell::Cell::new(0);
        let train = |snapshot: &ZoneSnapshot, start: usize, during: &dyn Fn()| {
            broker.snapshot_train(TldId(0), snapshot, start, CHUNK, || {
                encodes.set(encodes.get() + 1);
                during();
                encode_snapshot_chunks(0, snapshot, start, CHUNK)
            })
        };

        // Two bootstraps of one capture: one encode, shared frames.
        let capture = checkpoint(&broker);
        let first = train(&capture, 0, &|| {});
        let second = train(&capture, 0, &|| {});
        assert!(first.len() >= 3, "the train must be several chunks");
        assert_eq!(encodes.get(), 1);
        assert!(first.iter().zip(&second).all(|(a, b)| a.ptr_eq(b)));
        // A resume on a chunk boundary is the cached tail; one between
        // boundaries is encoded for that caller and not kept.
        let boundary =
            darkdns_dns::wire::peek_snapshot_chunk_offset(&first[1]).unwrap() as usize;
        let tail = train(&capture, boundary, &|| {});
        assert!(tail.iter().zip(&first[1..]).all(|(a, b)| a.ptr_eq(b)));
        assert_eq!(tail.len(), first.len() - 1);
        train(&capture, boundary + 1, &|| {});
        assert_eq!(encodes.get(), 2);

        // The checkpoint refreshes while its train is being encoded
        // (outside the lock, so nothing stops it): the caller gets its
        // frames, the shard keeps nothing — not for the old capture...
        let publish_two = || {
            let next = broker.head(TldId(0)).unwrap().serial().0 + 1;
            for i in next..next + 2 {
                broker.publish(TldId(0), add_delta(&format!("d{i:03}.com")), Serial::new(i), SimTime::ZERO);
            }
        };
        publish_two();
        let raced = checkpoint(&broker);
        assert!(!raced.same_capture(&capture));
        let served = train(&raced, 0, &publish_two);
        assert_eq!(encodes.get(), 3);
        assert_eq!(served, encode_snapshot_chunks(0, &raced, 0, CHUNK));
        train(&raced, 0, &|| {});
        assert_eq!(encodes.get(), 4, "a capture the checkpoint moved on from is never stored");
        // ...and not under the new one's name.
        let current = checkpoint(&broker);
        assert!(!current.same_capture(&raced));
        assert_eq!(train(&current, 0, &|| {}), encode_snapshot_chunks(0, &current, 0, CHUNK));
        assert_eq!(encodes.get(), 5);
        train(&current, 0, &|| {});
        assert_eq!(encodes.get(), 5);
    }

    #[test]
    fn coalesced_frames_report_per_shard() {
        let broker = broker_with_com(BrokerConfig::default());
        // TLD 9 is unknown: ignored.
        broker.record_coalesced_frames([TldId(0), TldId(0), TldId(9)]);
        assert_eq!(broker.shard_stats(TldId(0)).unwrap().coalesced_frames, 2);
    }

    #[test]
    fn has_shard_reports_registration() {
        let broker = broker_with_com(BrokerConfig::default());
        assert!(broker.has_shard(TldId(0)));
        assert!(!broker.has_shard(TldId(9)));
    }

    #[test]
    fn dropped_handles_are_pruned() {
        let broker = broker_with_com(BrokerConfig::default());
        {
            let _sub = broker.subscribe(&[TldId(0)], Some(Serial::new(0)));
        }
        broker.publish(TldId(0), add_delta("a.com"), Serial::new(1), SimTime::ZERO);
        assert_eq!(broker.subscriber_count(), 0);
        assert_eq!(broker.stats().deliveries, 0);
    }

    #[test]
    fn duplicate_tld_claims_register_once() {
        let broker = broker_with_com(BrokerConfig::default());
        let sub = broker.subscribe(&[TldId(0), TldId(0), TldId(0)], Some(Serial::new(0)));
        broker.publish(TldId(0), add_delta("a.com"), Serial::new(1), SimTime::ZERO);
        assert_eq!(sub.probe().queued(), 1, "duplicate claims must not double deliveries");
        let stats = broker.shard_stats(TldId(0)).unwrap();
        assert_eq!(stats.subscribers, 1);
        assert_eq!(stats.deliveries, 1);
    }

    #[test]
    fn per_shard_stats_isolate_and_sum_to_aggregate() {
        let broker = broker_with_com(BrokerConfig::default());
        broker.add_shard(
            TldId(1),
            ZoneSnapshot::from_entries(name("net"), Serial::new(0), SimTime::ZERO, vec![]),
        );
        let _com_sub = broker.subscribe(&[TldId(0)], Some(Serial::new(0)));
        let _both_sub = broker.subscribe(&[TldId(0), TldId(1)], Some(Serial::new(0)));
        for i in 1..=3u32 {
            broker.publish(TldId(0), add_delta(&format!("d{i}.com")), Serial::new(i), SimTime::ZERO);
        }
        let mut net_delta = ZoneDelta::default();
        net_delta.added.push((name("b.net"), NsSet::new(vec![name("ns1.provider0.net")])));
        broker.publish(TldId(1), net_delta, Serial::new(1), SimTime::ZERO);

        let com = broker.shard_stats(TldId(0)).unwrap();
        let net = broker.shard_stats(TldId(1)).unwrap();
        assert_eq!(com.pushes, 3);
        assert_eq!(com.subscribers, 2);
        assert_eq!(com.deliveries, 6);
        assert_eq!(net.pushes, 1);
        assert_eq!(net.subscribers, 1);
        assert_eq!(net.deliveries, 1);
        assert_eq!(com.head_serial, Serial::new(3));

        // The aggregate is exactly the per-shard sum (distinct subs).
        let agg = broker.stats();
        let all = broker.all_shard_stats();
        assert_eq!(all.len(), 2);
        assert_eq!(agg.frames_encoded, all.iter().map(|s| s.pushes).sum::<u64>());
        assert_eq!(agg.frame_bytes_encoded, all.iter().map(|s| s.frame_bytes).sum::<u64>());
        assert_eq!(agg.deliveries, all.iter().map(|s| s.deliveries).sum::<u64>());
        assert_eq!(agg.subscribers, 2, "multi-TLD subscriber counted once");
    }

    #[test]
    fn disjoint_tld_publishers_never_contend() {
        // The acceptance pin: two publishers pushing different TLDs never
        // touch the same mutex. With one publisher thread per shard, every
        // try_lock must succeed, so the per-shard contention counters
        // stay exactly zero.
        const SHARDS: usize = 4;
        const PUSHES: u32 = 200;
        let broker = Broker::new(BrokerConfig::default());
        for t in 0..SHARDS {
            broker.add_shard(
                TldId(t as u16),
                ZoneSnapshot::from_entries(
                    name(&format!("tld{t}")),
                    Serial::new(0),
                    SimTime::ZERO,
                    vec![],
                ),
            );
        }
        std::thread::scope(|scope| {
            for t in 0..SHARDS {
                let broker = &broker;
                scope.spawn(move || {
                    let tld = TldId(t as u16);
                    for i in 1..=PUSHES {
                        broker.publish(
                            tld,
                            add_delta(&format!("d{i}.tld{t}")),
                            Serial::new(i),
                            SimTime::ZERO,
                        );
                    }
                });
            }
        });
        for stats in broker.all_shard_stats() {
            assert_eq!(
                stats.lock_contentions, 0,
                "publisher of {:?} contended on a shard lock",
                stats.tld
            );
            assert_eq!(stats.pushes, u64::from(PUSHES));
            assert_eq!(stats.head_serial, Serial::new(PUSHES));
        }
    }

    #[test]
    fn contention_counter_registers_a_held_lock() {
        // Proof the zero-contention assertion above is not vacuous: hold
        // a shard's lock directly while a publisher thread pushes into
        // it, and the contention counter must move.
        let broker = broker_with_com(BrokerConfig::default());
        let handle = broker.handle(TldId(0));
        let guard = handle.state.lock();
        let publisher = {
            let broker = broker.clone();
            std::thread::spawn(move || {
                broker.publish(TldId(0), add_delta("a.com"), Serial::new(1), SimTime::ZERO);
            })
        };
        // Deterministic: the publisher bumps the counter on its failed
        // try_lock *before* blocking, so holding the guard until the
        // counter moves cannot race, however slowly the thread schedules.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while handle.contended.load(Ordering::Relaxed) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "publisher never attempted the held shard lock"
            );
            std::thread::yield_now();
        }
        drop(guard);
        publisher.join().unwrap();
        assert!(
            handle.contended.load(Ordering::Relaxed) >= 1,
            "publish against a held shard lock must count as contention"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn lock_hierarchy_assertion_rejects_nested_shard_locks() {
        let broker = broker_with_com(BrokerConfig::default());
        broker.add_shard(
            TldId(1),
            ZoneSnapshot::from_entries(name("net"), Serial::new(0), SimTime::ZERO, vec![]),
        );
        let a = broker.handle(TldId(0));
        let b = broker.handle(TldId(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ga = lock_shard(&a, false);
            let _gb = lock_shard(&b, false); // hierarchy violation: must panic
        }));
        assert!(caught.is_err(), "nested shard locks must trip the hierarchy assertion");
        // The guard rail resets: a fresh single acquisition still works.
        let _ok = lock_shard(&a, false);
    }
}
