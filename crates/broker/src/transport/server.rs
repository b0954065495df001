//! The push side of the transport: a reactor-fronted [`BrokerServer`].
//!
//! [`BrokerServer`] accepts frame connections (TCP or in-memory) and
//! hands every one of them to a single readiness-driven reactor thread
//! (the shared loop in [`super::reactor`], running the broker's
//! protocol handler from [`super::stream`]). The handler runs the
//! `RZUH` handshake, registers the subscriber with the broker — which
//! enqueues the snapshot-vs-delta catch-up plan under the shard locks,
//! exactly as for in-process subscribers — and the reactor then drives
//! the connection's outbound ring off queue wakeups and socket
//! writability. Thread count is **flat**: one reactor serves every
//! listener and every connection, whether the fleet is 8 subscribers or
//! 10,000 ([`BrokerServer::transport_threads`] exposes the count for
//! tests and benches to assert on).
//!
//! This type keeps the cross-thread surface: construction, connection
//! hand-off ([`BrokerServer::spawn_conn`] — the name survives from the
//! writer-thread era; today it *stages* rather than spawns),
//! listeners, stats, and shutdown. All of it reaches the reactor
//! through its [`ReactorHandle`], never by touching connection state
//! directly.

use super::reactor::{ReactorHandle, ServedConn, TransportConfig};
use super::stream::{ConnStatsEntry, SubscriberStream};
use crate::broker::{Broker, ShardStats};
use crate::lockdep::{self, TrackedMutex};
use darkdns_dns::wire::{
    StatsReport, TldClaim, WireServerStats, WireShardStats, WireSubscriberStats,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic transport-side counters (a point-in-time copy comes back
/// from [`BrokerServer::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections registered with the reactor.
    pub accepted: u64,
    /// Handshakes that produced a live subscription.
    pub handshakes: u64,
    /// Connections dropped during the handshake (timeout, bad frame,
    /// unknown TLD claim).
    pub rejected_hellos: u64,
    /// Delta envelopes fully flushed (each wraps the shard's shared
    /// `RZU1` frame verbatim — never re-encoded per subscriber).
    pub deltas_sent: u64,
    /// Snapshot bootstraps fully flushed.
    pub snapshots_sent: u64,
    /// `RZUE` eviction notices composed (connection drains and closes).
    pub evict_notices: u64,
    /// Connections that died mid-stream (peer gone, write stall).
    pub disconnects: u64,
    /// Vectored writes that carried more than one message frame
    /// (several queued messages coalesced into one syscall).
    pub coalesced_writes: u64,
    /// Frames that rode in a vectored write behind another frame — each
    /// is one write syscall saved at fan-out.
    pub coalesced_frames: u64,
    /// `RZUQ` stats queries answered (scrape connections).
    pub stats_queries: u64,
    /// `RZUC` chunk trains encoded — cache fills plus bootstraps the
    /// shard's cached train could not serve (own chunk size,
    /// off-boundary resume, a checkpoint refreshed meanwhile). N joiners
    /// of one checkpoint move this by one. In-process only: not part of
    /// the `RZUQ` wire report.
    pub snapshot_trains_encoded: u64,
}

#[derive(Default)]
pub(super) struct StatsInner {
    pub(super) accepted: AtomicU64,
    pub(super) handshakes: AtomicU64,
    pub(super) rejected_hellos: AtomicU64,
    pub(super) deltas_sent: AtomicU64,
    pub(super) snapshots_sent: AtomicU64,
    pub(super) evict_notices: AtomicU64,
    pub(super) disconnects: AtomicU64,
    pub(super) coalesced_writes: AtomicU64,
    pub(super) coalesced_frames: AtomicU64,
    pub(super) stats_queries: AtomicU64,
    pub(super) snapshot_trains_encoded: AtomicU64,
}

pub(super) struct ServerInner {
    pub(super) broker: Broker,
    pub(super) config: TransportConfig,
    pub(super) stats: StatsInner,
    /// Live subscriber connections by subscriber id (sorted, so the
    /// report rows come out in a stable order).
    // lock-level: 14 (held while probing subscriber queues, hence
    // *below* them in the hierarchy)
    pub(super) conns: TrackedMutex<BTreeMap<u64, Arc<ConnStatsEntry>>>,
}

/// A transport frontend over one [`Broker`]. Cheap to clone; all clones
/// share the reactor, stats and shutdown flag.
#[derive(Clone)]
pub struct BrokerServer {
    pub(super) inner: Arc<ServerInner>,
    pub(super) reactor: ReactorHandle,
}

impl BrokerServer {
    /// Build the server and start its reactor thread. The reactor is
    /// the server's *only* transport thread, shared by every listener
    /// and connection.
    pub fn new(broker: Broker, config: TransportConfig) -> Self {
        let inner = Arc::new(ServerInner {
            broker,
            config,
            stats: StatsInner::default(),
            conns: TrackedMutex::new(&lockdep::CONNS, BTreeMap::new()),
        });
        let reactor = ReactorHandle::spawn(SubscriberStream::new(Arc::clone(&inner)), config);
        BrokerServer { inner, reactor }
    }

    /// Hand one already-established in-memory connection to the reactor
    /// (the path tests and the fault harness use; TCP connections
    /// arrive via [`BrokerServer::listen_tcp`] instead). The name is a
    /// holdover from the writer-thread transport: nothing is spawned —
    /// the connection is staged in the reactor's mailbox and serviced
    /// on its thread.
    pub fn spawn_conn(&self, conn: impl Into<ServedConn>) {
        self.reactor.serve_conn(conn.into());
    }

    /// Bind a TCP listener and register it with the reactor, which
    /// accepts subscribers until [`BrokerServer::shutdown`]. Returns
    /// the bound address (bind to port 0 for an ephemeral one).
    pub fn listen_tcp(&self, addr: &str) -> std::io::Result<SocketAddr> {
        self.reactor.listen_tcp(addr)
    }

    /// How many OS threads the transport currently owns. The reactor
    /// model's headline invariant: this is `1` regardless of listener
    /// or connection count (it was `listeners + connections` in the
    /// writer-thread transport), and `0` after shutdown.
    pub fn transport_threads(&self) -> usize {
        self.reactor.threads()
    }

    /// A point-in-time copy of the transport counters.
    pub fn stats(&self) -> ServerStats {
        let s = &self.inner.stats;
        ServerStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            handshakes: s.handshakes.load(Ordering::Relaxed),
            rejected_hellos: s.rejected_hellos.load(Ordering::Relaxed),
            deltas_sent: s.deltas_sent.load(Ordering::Relaxed),
            snapshots_sent: s.snapshots_sent.load(Ordering::Relaxed),
            evict_notices: s.evict_notices.load(Ordering::Relaxed),
            disconnects: s.disconnects.load(Ordering::Relaxed),
            coalesced_writes: s.coalesced_writes.load(Ordering::Relaxed),
            coalesced_frames: s.coalesced_frames.load(Ordering::Relaxed),
            stats_queries: s.stats_queries.load(Ordering::Relaxed),
            snapshot_trains_encoded: s.snapshot_trains_encoded.load(Ordering::Relaxed),
        }
    }

    /// The `RZUQ` payload: transport counters, one row per shard, and
    /// one row per live subscriber connection — what a scrape
    /// connection receives, and what in-process monitors can read
    /// without a socket.
    pub fn stats_report(&self) -> StatsReport {
        build_stats_report(&self.inner)
    }

    /// The broker this server fronts.
    pub fn broker(&self) -> &Broker {
        &self.inner.broker
    }

    /// Stop the reactor and join it: every connection and listener
    /// closes when the reactor drops its slot table. Bounded even with
    /// wedged peers — the reactor never blocks in a write.
    pub fn shutdown(&self) {
        self.reactor.shutdown();
        self.inner.conns.lock().clear();
    }
}

/// Build the `RZUQ` report payload from the server's counters, every
/// shard's accounting, and every live subscriber connection's row.
pub(super) fn build_stats_report(inner: &ServerInner) -> StatsReport {
    let s = &inner.stats;
    let server = WireServerStats {
        accepted: s.accepted.load(Ordering::Relaxed),
        handshakes: s.handshakes.load(Ordering::Relaxed),
        rejected_hellos: s.rejected_hellos.load(Ordering::Relaxed),
        deltas_sent: s.deltas_sent.load(Ordering::Relaxed),
        snapshots_sent: s.snapshots_sent.load(Ordering::Relaxed),
        evict_notices: s.evict_notices.load(Ordering::Relaxed),
        disconnects: s.disconnects.load(Ordering::Relaxed),
        coalesced_writes: s.coalesced_writes.load(Ordering::Relaxed),
        coalesced_frames: s.coalesced_frames.load(Ordering::Relaxed),
        stats_queries: s.stats_queries.load(Ordering::Relaxed),
    };
    let shards = inner.broker.all_shard_stats().iter().map(wire_shard_stats).collect();
    let subs = inner
        .conns
        .lock()
        .iter()
        .map(|(&id, entry)| WireSubscriberStats {
            id,
            queue_depth: entry.probe.queued() as u64,
            lag_drops: entry.probe.dropped_count(),
            coalesced_frames: entry.coalesced_frames.load(Ordering::Relaxed),
            buffered_bytes: entry.buffered_bytes.load(Ordering::Relaxed),
            claims: entry
                .claims
                .lock()
                .iter()
                .map(|(&tld, &from_serial)| TldClaim { tld, from_serial })
                .collect(),
        })
        .collect();
    StatsReport { server, shards, subs }
}

/// Project one shard's accounting onto the wire struct.
fn wire_shard_stats(s: &ShardStats) -> WireShardStats {
    WireShardStats {
        tld: s.tld.0,
        head_serial: s.head_serial,
        subscribers: s.subscribers as u64,
        pushes: s.pushes,
        frame_bytes: s.frame_bytes,
        checkpoints: s.checkpoints,
        retained_deltas: s.retained_deltas as u64,
        retired_deltas: s.retired_deltas,
        deliveries: s.deliveries,
        lagged_messages: s.lagged_messages,
        evictions: s.evictions,
        snapshot_catchups: s.snapshot_catchups,
        delta_catchups: s.delta_catchups,
        lock_contentions: s.lock_contentions,
        coalesced_frames: s.coalesced_frames,
    }
}
