//! The broker's socket transport: RZU fan-out over real connections.
//!
//! The transport is split down the middle of the connection:
//!
//! * **Server side — readiness-driven.** [`BrokerServer`] owns exactly
//!   one reactor thread (an epoll event loop over the vendored
//!   `mio_shim`) that services every listener and every subscriber
//!   connection: non-blocking sockets, a per-connection outbound ring
//!   of composed frames drained with vectored writes, broker-queue
//!   wakeups delivered through an eventfd. Thread count and idle cost
//!   are flat in the subscriber count — 10,000 connections are one
//!   thread, not 10,000 (see [`BrokerServer::transport_threads`]).
//!   The loop itself (`reactor`) is protocol-neutral: it is generic
//!   over a [`Protocol`] handler, and the broker's subscriber stream
//!   (`stream`) is one such handler. `darkdns-edge` runs its `RZUL`
//!   lookup answerer on the same loop through [`ReactorHandle`] — there
//!   is no second event loop in the workspace (`docs/INVARIANTS.md`
//!   L5).
//! * **Client side — blocking.** Consumers keep the simple
//!   [`FrameConn`] trait: a blocking, bidirectional, whole-frame
//!   connection over TCP ([`tcp_connect`]) or the in-memory [`pipe`]
//!   duplex. Both sides share one framing state machine
//!   (`FrameAssembler`), so the bytes the reactor's ring produces are
//!   decoded by exactly the code the blocking client uses.
//!
//! The in-memory pipe speaks both dialects — blocking for clients,
//! non-blocking with readiness hooks for the reactor — which is what
//! keeps the deterministic fault-injection harness
//! (`tests/transport_faults.rs`) on the production code path:
//! [`FaultInjectedConn`] scripts mid-frame cuts, corrupt and duplicated
//! frames, and the reactor applies the script as it stages frames
//! into the ring, while the client exercises the same framing state
//! machine and decoders as a production socket.
//!
//! # Protocol
//!
//! Frames are length-prefixed (`u32` big-endian payload length, bounded
//! on receive before any allocation). Payloads are tagged by 4-byte
//! magics, encoded/decoded in `darkdns_dns::wire`:
//!
//! | magic  | direction        | meaning                                   |
//! |--------|------------------|-------------------------------------------|
//! | `RZUH` | client → server  | HELLO: per-TLD serial claims (the claimed |
//! |        |                  | set doubles as the shard filter), plus    |
//! |        |                  | optional chunk-resume rows (serial +      |
//! |        |                  | entries already received) on reconnect,   |
//! |        |                  | plus an optional trailing subscription-   |
//! |        |                  | scope byte (`HelloScope`): Full = legacy  |
//! |        |                  | bootstrap-then-deltas (byte-identical to  |
//! |        |                  | the scope-less frame), DeltaOnly = join   |
//! |        |                  | at the live head, never bootstrap         |
//! | `RZUS` | —                | monolithic snapshot push: retired in      |
//! |        |                  | PR 22 — reserved, refused (`BadMagic`)    |
//! | `RZUC` | server → client  | snapshot bootstrap (catch-up rule 3) as a |
//! |        |                  | train of continuation chunks, so a        |
//! |        |                  | 500k-entry checkpoint stays under the     |
//! |        |                  | frame bound and resumes mid-train on      |
//! |        |                  | reconnect (never restarts from entry 0);  |
//! |        |                  | the train is encoded once per checkpoint  |
//! |        |                  | and shared by every joiner (train cache)  |
//! | `RZUD` | server → client  | TLD tag + embedded `RZU1` delta frame     |
//! | `RZUE` | server → client  | evicted: reconnect with your claims       |
//! | `RZUQ` | both             | stats round trip: bare magic queries, the |
//! |        |                  | reply carries a [`StatsReport`]: the      |
//! |        |                  | [`ServerStats`] row, a [`ShardStats`] row |
//! |        |                  | per shard, a row per live subscriber      |
//! |        |                  | ([`fetch_stats`])                         |
//! | empty  | server → client  | idle heartbeat / dead-peer probe          |
//!
//! The `RZUQ` reply carries the transport counters, per-shard rows, and
//! one row per live subscriber connection (queue depth, lag drops,
//! coalesced frames, buffered ring bytes, per-TLD claims) — every
//! length field bounded before allocation, as for all untrusted input.
//! Which counters a row carries, and in what order, is one field list
//! per row type, declared beside the codec (`darkdns_dns::wire`,
//! `counter_set!`): [`ServerStats`] there is also the struct
//! [`BrokerServer::stats`] returns and the cells the handler bumps, so
//! a new counter is one declaration line and its increment.
//!
//! Consecutive messages found queued when a connection's ring is pumped
//! are coalesced into a single vectored write; framing on the wire is
//! unchanged, and the saved syscalls are counted in [`ServerStats`]
//! (`coalesced_writes` / `coalesced_frames`) and per-shard in
//! `ShardStats::coalesced_frames`.
//!
//! The handshake *is* the catch-up entry point: the server validates the
//! claims, calls `Broker::subscribe_with`, and the broker enqueues the
//! snapshot-vs-delta plan atomically per shard — the wire stream starts
//! gap-free and overlap-free exactly like an in-process subscription.
//! Delta frames are the shard's refcount-shared `RZU1` bytes written
//! verbatim behind a 6-byte envelope header: publishing still encodes
//! once per push, regardless of subscriber count.
//!
//! Bootstraps are encode-once too. Beside its checkpoint, and for
//! exactly as long, a shard keeps that checkpoint's `RZUC` train at the
//! server's default chunk size (the **train cache**: at most one train
//! per live checkpoint, emptied when the checkpoint is refreshed or
//! reset, no knob; the stream handler itself holds no snapshot and no
//! train between calls). A fresh joiner of that checkpoint, and a
//! resume whose claimed entry count is a chunk boundary of that train —
//! which is where a client cut mid-train always stands — is staged from
//! refcount-shared clones of the cached frames: N concurrent joiners
//! hold one copy of the bytes and none of them makes the single
//! transport thread re-encode the zone. The tail of a train from one of
//! its boundaries is byte-identical to a train encoded from that entry
//! (chunks compress and pack independently), so the wire cannot tell
//! the difference. A connection with its own frame bound (hence chunk
//! size), a resume off the cached boundaries (a client failing over
//! from a replica configured differently) or a snapshot whose
//! checkpoint has since been refreshed is encoded for that connection
//! alone, always outside the shard lock. [`ServerStats`]
//! `snapshot_trains_encoded` counts encodes; it is in-process only.
//!
//! # Reconnection
//!
//! [`TransportClient`] tracks the serial it has verifiably reached per
//! TLD. On any fault — mid-frame disconnect, corrupt frame, eviction —
//! the consumer reconnects carrying those claims, and the catch-up rule
//! turns the outage into a delta replay of the missed churn (or a
//! checkpoint bootstrap if it slept past the retention ring). The
//! driver side of that loop is written once, in [`replica`]: an
//! [`UpstreamLink`] (the connection, salvaged chunk progress, heal and
//! drain accounting) over a pure [`ReplicaSet`] (candidate order, the
//! backoff ladder, the endpoint-update gate). The relay thread drives
//! one here; `darkdns_core::broker_view::{RemoteZoneView,
//! RoutedZoneView}` drive one per upstream; `darkdns_edge::EdgeClient`
//! uses the set alone.

mod client;
mod fault;
mod frame;
pub mod pipe;
mod reactor;
mod relay;
pub mod replica;
mod ring;
mod server;
mod stream;

pub use client::{fetch_stats, fetch_stats_deadline, ClientEvent, SnapshotProgress, TransportClient};
pub use relay::{RelayHandle, RelayStats};
pub use replica::{ReplicaSet, UpstreamLink};
// The `RZUQ` report and its rows are declared beside their codec; the
// server row is the transport's own `ServerStats`.
pub use darkdns_dns::wire::{ServerStats, ShardStats, StatsReport, WireSubscriberStats};
pub use bytes::Bytes;
pub use fault::{FaultInjectedConn, FaultScript, FrameFault};
pub use frame::{
    tcp_connect, ByteIo, FrameConn, LengthPrefixed, TcpFrameConn, TransportError, MAX_FRAME_LEN,
};
pub use pipe::{duplex, PipeCutHandle, PipeEnd};
// The reactor's handler surface: what a second protocol (the edge's
// lookup answerer) implements to be served by the same event loop.
pub use reactor::{CloseWhy, Conn, Protocol, ReactorHandle, ServedConn, TransportConfig};
pub use ring::MAX_RING_FRAMES;
pub use server::BrokerServer;
