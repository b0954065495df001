//! The RZU distribution broker — snapshot-plus-delta fan-out at scale.
//!
//! The paper's §5 / Appendix B argument is that a Rapid Zone Update
//! service pushing accumulated zone changes every few minutes closes the
//! visibility gap daily zone files leave open. The registry side of that
//! service already exists in this repository (`darkdns_registry::rzu`
//! batches events onto a push grid; `darkdns_dns::diff::ZoneJournal`
//! synthesises net deltas). What was missing is *distribution*: getting
//! each push to many concurrent subscribers without per-subscriber work
//! proportional to the push size, and getting late joiners back to the
//! head without replaying history from the beginning of time.
//!
//! This crate provides that layer:
//!
//! * [`shard::JournalShard`] — one per TLD, retaining a bounded ring of
//!   sealed deltas plus a periodic checkpoint
//!   [`darkdns_dns::ZoneSnapshot`]. Snapshots are persistent —
//!   `Arc`'d segments under an `Arc`'d top level — so a checkpoint costs
//!   one pointer copy, and a publish copies the segments its delta
//!   touches, not a million-entry table. A sealed delta is its `RZU1`
//!   frame and nothing else: the ring keeps the bytes it will serve
//!   again, never the decoded delta beside them. What a tier retains is
//!   its zone, shared by refcount, plus those bytes — at most
//!   `max_deltas` frames per shard and one encoded bootstrap train per
//!   live checkpoint (`docs/INVARIANTS.md`, "What a tier retains").
//! * [`broker::Broker`] — `subscribe(tlds, from_serial)` answers with a
//!   catch-up plan and a live bounded buffer; `publish` seals each delta
//!   into a wire frame **once** ([`darkdns_dns::wire::encode_delta_push`])
//!   and fans the refcount-shared bytes out to every subscriber. Slow
//!   subscribers lag (counted) or are evicted, per [`OverflowPolicy`] —
//!   the policy `darkdns-core`'s in-process `Topic` bounds its
//!   subscribers with too. Per-shard accounting comes back as one
//!   [`broker::ShardStats`] struct per TLD.
//! * [`feed`] — glue that materialises a multi-TLD universe's RZU pushes
//!   as zone deltas and drives them through a broker, sequentially or
//!   with independent-TLD batches fanned across scoped worker threads
//!   ([`UniverseFeed::publish_all_concurrent`]); with per-shard locking
//!   this scales publishing with shard count when cores allow.
//! * [`transport`] — the socket layer: [`transport::BrokerServer`]
//!   accepts length-prefixed frame connections (TCP, or an in-memory
//!   duplex pipe in tests), answers the `RZUH` handshake with the same
//!   snapshot-vs-delta catch-up plan in-process subscribers get, and
//!   streams live pushes from a **single reactor thread** — an epoll
//!   event loop over non-blocking sockets with a per-connection
//!   outbound ring, woken through an eventfd by the subscriber queue's
//!   waker callback ([`BrokerSubscription::set_waker`]). Clients keep
//!   the blocking [`transport::FrameConn`] trait:
//!   [`transport::TransportClient`] decodes the stream and tracks
//!   per-TLD claimed serials for reconnect-with-claims
//!   (`darkdns_core::broker_view::RemoteZoneView` drives the loop).
//!
//! # Frame protocol and handshake
//!
//! Transport frames are `u32`-length-prefixed; payload lengths are
//! untrusted and bounded before any allocation. Payload kinds (codecs
//! in `darkdns_dns::wire`): `RZUH` — the client's per-TLD serial
//! claims; `RZUS` — the monolithic snapshot push, retired in PR 22 —
//! reserved, refused; `RZUC` — a snapshot *continuation chunk*, the
//! unit the server ships a checkpoint bootstrap in so a
//! 500k-delegation checkpoint traverses the frame bound as a resumable
//! chunk train rather than one enormous frame;
//! `RZUD` — a TLD tag plus the shard's refcount-shared `RZU1` frame
//! written verbatim (the encode-once guarantee crosses the socket
//! boundary intact); `RZUE` — an explicit eviction notice, after which
//! the server closes and the client reconnects claiming the serials it
//! verifiably reached; empty — an idle heartbeat doubling as dead-peer
//! detection. A reconnect HELLO may additionally carry per-TLD
//! *chunk-resume* rows (serial + entries already received), so a
//! connection cut mid-bootstrap resumes the chunk train at its offset
//! instead of restarting it.
//!
//! A HELLO may end with one optional **subscription-scope** byte
//! (`darkdns_dns::wire::HelloScope`), strictly additive to the legacy
//! layout: absent (or `0`, which is never emitted alone — a Full-scope
//! frame is byte-identical to the legacy encoding) means *Full*, the
//! bootstrap-then-deltas contract above; `1` means *DeltaOnly* — the
//! server downgrades any snapshot-bootstrap plan to "start at the live
//! head", so a tap that only wants future churn never pays for (or
//! receives) a checkpoint. Scope composes with claims: the claimed
//! TLD set is the **shard filter** — frames for unclaimed shards never
//! enter the connection's queue, which is what lets a relay subscribe
//! to a TLD subset and pay upstream bandwidth only for that subset.
//! Unknown scope values are a handshake rejection, not a silent
//! default.
//!
//! # Relay trees: tiered fan-out
//!
//! A [`transport::BrokerServer`] can itself subscribe to another broker
//! ([`transport::BrokerServer::attach_upstream`]), turning the flat
//! root → subscribers star into a **tree**: root → regional relays →
//! edge brokers, each tier re-serving the stream to the next. Two
//! invariants make an N-deep tree behave like one broker (details in
//! [`transport`]'s relay module):
//!
//! * **Verbatim re-serve.** A relay publishes each upstream delta's
//!   embedded `RZU1` bytes with [`broker::Broker::publish_frame`] — no
//!   re-encode at any tier, so a leaf at depth N receives frames
//!   byte-identical to the root's single encoding, and per-link
//!   bandwidth per delta is flat in depth (`tests/relay_faults.rs`
//!   pins the bytes; the `relay` bench pins the bandwidth).
//! * **One resync per fault, at the faulted tier.** A relay redials
//!   with its local broker's head serials (plus mid-snapshot chunk
//!   progress), healing as a delta replay; replayed frames that do not
//!   chain on the local head are skipped, never double-published, and
//!   downstream connections stay up through the upstream fault.
//!
//! A relay subscribes **shard-filtered**: its HELLO claims exactly its
//! subscribed TLD set, so the upstream's queue filter keeps every
//! other shard's frames off the link — a relay carrying 10% of the
//! universe costs 10% of the mirror bandwidth, and a fault heals by
//! replaying (and re-serving) only the subscribed subset.
//!
//! The relay runs as a blocking client thread *outside* the reactor
//! and touches the local broker only through the public
//! publish/install surface, so the two-level lock hierarchy below is
//! untouched at every tree depth. The multi-broker consumer side — a
//! TLD-partitioned, replica-failover fleet client — lives in
//! `darkdns_core::broker_view` (`EndpointMap`, `RoutedZoneView`) and
//! `darkdns_edge::RoutedEdgeFeed`; `examples/relay_fleet.rs` runs the
//! whole tree over loopback TCP with a mid-stream relay kill.
//!
//! # Live topology: endpoint updates, drains, health routing
//!
//! The routed consumer's `EndpointMap` carries a **generation
//! counter**; `RoutedZoneView::apply_endpoint_update` (and the thin
//! client's `EdgeClient::apply_endpoint_update`) accept a replacement
//! map only at a strictly newer generation, so duplicated or reordered
//! control-plane updates can never roll a fleet back. Per route the
//! update is a small state machine:
//!
//! * **replica added** — the live connection is untouched; the new
//!   endpoint becomes a failover/probe candidate immediately;
//! * **connected replica drained** — the route enters a *draining*
//!   state: it keeps pumping the old connection until no snapshot
//!   chunk train is in flight, then releases it cleanly and redials a
//!   successor carrying its claims. A drain is a planned handoff — it
//!   counts in `drains_completed`, never as a resync, and the serial
//!   stream stays gapless across it;
//! * **draining connection dies** — the drain degrades to the normal
//!   fault path: salvage chunk progress, reconnect-with-claims, at
//!   most one resync.
//!
//! Replica *selection* is health-based: when a route has more than one
//! live candidate, each is probed with an `RZUQ` stats round trip
//! (tight deadline) and candidates are ranked by the head serials of
//! the route's own TLDs — failover lands on the freshest replica, not
//! the next in rotation; ties keep rotation order. Endpoints whose
//! dial, handshake, or probe fails are sidelined with doubling bounded
//! backoff (one ladder for every consumer, 50 ms → 2 s, in
//! `transport::replica`), as are replicas whose bootstrap answer is
//! refused as stale (their next answer would be the same checkpoint —
//! redialling buys nothing until their head advances). Ordinary stream faults are
//! *not* sidelined — a cut connection redials immediately to resume
//! its chunk train — so a dead endpoint costs a bounded dial rate
//! instead of one dial per pump while a mid-train cut still heals at
//! full speed.
//! `tests/routing_faults.rs` is the fault matrix pinning all of the
//! above.
//!
//! # Concurrency architecture and lock hierarchy
//!
//! The broker has **no global lock on the publish path**. Each TLD owns
//! one shard unit — a single mutex guarding that TLD's journal state
//! *and* its subscriber registry — and a routing directory maps `TldId`
//! to shard units. The directory is an immutable `Arc`-shared map,
//! rebuilt and swapped wholesale on (rare) shard registration; lookups
//! clone the `Arc` under a brief shared read lock and then resolve
//! shards with no exclusive lock at all. Two publishers pushing
//! different TLDs therefore never touch the same mutex (pinned by the
//! `disjoint_tld_publishers_never_contend` test via per-shard
//! publish-path contention counters, which
//! `ShardStats::lock_contentions` exposes; monitor reads and subscribe
//! traffic do not count toward them).
//!
//! The lock order is strict and two-level:
//!
//! 1. **shard lock** (one TLD's journal + subscriber registry), then
//! 2. **subscriber queue lock** (one subscriber's message buffer).
//!
//! Queue locks nest inside the owning shard's lock on the publish and
//! subscribe paths; consumers take queue locks alone. **Never** does a
//! thread hold two shard locks at once — cross-shard operations
//! (aggregate stats, subscriber counting, multi-TLD subscription) visit
//! shards one at a time — and never is a shard lock acquired while a
//! queue lock is held. Debug builds enforce the whole hierarchy — not
//! just the no-two-shard-locks rule — through the [`lockdep`] runtime:
//! every tracked acquisition checks its class's level against the
//! thread's held set and feeds a global acquisition-order graph with
//! cycle detection, so an inversion anywhere in the workspace panics
//! with both acquisition sites. Release builds pay nothing for it. The
//! full level catalogue (including the transport, edge and core
//! classes) lives in `docs/INVARIANTS.md`, and `darkdns-lint` checks
//! the same hierarchy statically from the `// lock-level: N`
//! annotations on every lock declaration.
//!
//! The **transport reactor sits entirely at level 2**: one thread for
//! *all* subscriber connections, which services a connection by
//! draining its queue with non-blocking `try_next` calls (queue mutex
//! only) into that connection's bounded outbound ring, then writing
//! the ring to the socket without ever blocking. The reactor never
//! takes a shard lock — the handshake's `subscribe_with` call is a
//! connection's one brush with level 1, before it streams. Wakeups
//! flow the other way through leaf state only: the waker a connection
//! installs ([`BrokerSubscription::set_waker`]) runs under that
//! subscriber's queue lock (level 2, possibly under its shard's level
//! 1 lock) and touches nothing but an atomic flag, the reactor's
//! pending-list mutex and an eventfd — so publisher → reactor
//! signalling can never invert the hierarchy. A wedged socket fills
//! its ring, which stops its queue drain, which back-pressures only
//! its own queue — where the overflow policy (lag or evict, signalled
//! explicitly through [`BrokerSubscription::is_evicted`] and an `RZUE`
//! notice) bounds the damage to that subscriber.
//!
//! The edge tier (`darkdns-edge`) extends this map with a rule rather
//! than a new level: its lookup path holds **no lock from either
//! level** — an edge feed (an ordinary level-2 consumer) builds each
//! index generation off to the side and swaps an `Arc`, so thin-client
//! queries resolve against immutable epochs and publish-side contention
//! cannot reach them. The [`shard_locks_held_by_current_thread`]
//! counter (backed by [`lockdep`]'s per-thread held set) is exported
//! precisely so the edge crate can debug-assert that epoch-swap
//! invariant on every query.
//!
//! # The snapshot-vs-delta catch-up decision rule
//!
//! A subscriber arrives claiming serial `s` for a shard whose head is `h`
//! and whose retained delta ring spans `(r₀, h]`:
//!
//! 1. `s == h` — up to date; nothing to send.
//! 2. `s ∈ [r₀, h)` and a retained delta starts exactly at `s` — the ring
//!    covers the gap: replay the delta suffix from `s`. Cost is
//!    proportional to the *churn* the subscriber missed, independent of
//!    zone size — the computational argument for RZU feeds.
//! 3. otherwise (`s` too old, in the future, or unknown) — the subscriber
//!    is beyond delta repair: send the latest checkpoint snapshot plus
//!    the deltas sealed after it. The shard maintains the invariant that
//!    the ring always covers `(checkpoint, h]`, so this plan always
//!    reconstructs the head exactly.
//!
//! Rule 3 is why checkpoints exist: without them, a subscriber that
//! sleeps past the retention horizon could never recover, and retention
//! would have to be unbounded (an OOM with extra steps, at zone scale).

pub mod broker;
pub mod feed;
pub mod lockdep;
pub mod shard;
pub mod transport;

pub use broker::{
    shard_locks_held_by_current_thread, Broker, BrokerConfig, BrokerMessage, BrokerStats,
    BrokerSubscription, OverflowPolicy, ShardStats, SubscribeMode,
};
pub use feed::UniverseFeed;
pub use shard::{CatchUp, JournalShard, RetentionConfig, SealedDelta};
pub use transport::{
    BrokerServer, ClientEvent, FrameConn, ServedConn, TransportClient, TransportConfig,
    TransportError,
};
