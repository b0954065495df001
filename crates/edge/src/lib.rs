//! `darkdns-edge`: the read-optimized membership lookup tier.
//!
//! A full replica ([`darkdns_core::broker_view::BrokerZoneView`] /
//! `RemoteZoneView`) holds every delegation of every subscribed TLD —
//! the right trade for detection pipelines that touch the whole zone.
//! Most consumers of rapid zone updates ask a much smaller question:
//! *is this name delegated right now, and did it appear recently?* The
//! edge tier serves exactly that question to thousands of concurrent
//! thin clients, from state that is provably as fresh as a full replica
//! at the same serial:
//!
//! * [`EdgeFeed`] (in-process) / [`RoutedEdgeFeed`] (across a socket)
//!   subscribe to a broker like any consumer and mirror every applied
//!   message into the index. A one-route [`RoutedEdgeFeed`] *is* the
//!   socket-deployed single-upstream feed — there is no separate type
//!   for it, because the dial / failover / resume machinery is one
//!   shared driver under every consumer;
//! * [`EdgeIndex`] holds the per-TLD snapshots plus a hot NRD-recency
//!   window as immutable [`EdgeEpoch`] generations behind an Arc-swap
//!   cell;
//! * [`EdgeServer`] answers batched `RZUL` lookups and `RZUQ` stats
//!   scrapes on one reactor thread; [`EdgeClient`] is the blocking
//!   thin-client side.
//!
//! # The epoch-swap invariant, and where it sits in the lock hierarchy
//!
//! The broker crate orders its locks in two levels — shard publish
//! locks (level 1) above subscriber queue locks (level 2), leaves below
//! — and the transport reactor sits underneath, touching level 1 only
//! during a handshake's `subscribe_with`. The edge extends that map
//! with a rule rather than a level: **the query path takes no lock in
//! the broker's hierarchy at all.** A lookup clones the current
//! [`EdgeEpoch`]'s `Arc` (a lockdep-tracked `RwLock` read held for the
//! clone — an edge-local leaf, never held across any call into the
//! broker; class `edge.cell` in `docs/INVARIANTS.md`) and then runs
//! entirely over immutable data. Writers build
//! the next generation off to the side and swap the pointer. So a
//! publisher holding a shard lock at full RZU cadence and an edge
//! answering 10k queries/s never contend: the only synchronization
//! between them is the broker queue the feed drains, which is the
//! level-2 boundary every subscriber already crosses.
//!
//! Debug builds enforce the rule mechanically: every index load and
//! every epoch query asserts
//! [`darkdns_broker::shard_locks_held_by_current_thread`]` == 0`.

pub mod client;
pub mod feed;
pub mod index;
pub mod server;

pub use client::{EdgeClient, MAX_LOOKUP_BATCH};
pub use feed::{EdgeFeed, RoutedEdgeFeed};
pub use index::{EdgeEpoch, EdgeIndex, EdgeIndexConfig};
pub use server::{EdgeConfig, EdgeServer, EdgeServerStats};
