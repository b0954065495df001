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
//! tests and the benchmark to assert on).
//!
//! This type keeps the cross-thread surface: construction, connection
//! hand-off ([`BrokerServer::serve_conn`]), listeners, stats, and
//! shutdown. All of it reaches the reactor through its
//! [`ReactorHandle`], never by touching connection state directly.

use super::reactor::{ReactorHandle, ServedConn, TransportConfig};
use super::stream::{ConnStatsEntry, SubscriberStream};
use crate::broker::Broker;
use crate::lockdep::{self, TrackedMutex};
use darkdns_dns::wire::{ServerCells, ServerStats, StatsReport, TldClaim, WireSubscriberStats};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(super) struct ServerInner {
    pub(super) broker: Broker,
    pub(super) config: TransportConfig,
    pub(super) stats: ServerCells,
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
            stats: ServerCells::default(),
            conns: TrackedMutex::new(&lockdep::CONNS, BTreeMap::new()),
        });
        let reactor = ReactorHandle::spawn(SubscriberStream::new(Arc::clone(&inner)), config);
        BrokerServer { inner, reactor }
    }

    /// Hand one already-established in-memory connection to the reactor
    /// (the path tests and the fault harness use; TCP connections
    /// arrive via [`BrokerServer::listen_tcp`] instead): it is staged in
    /// the reactor's mailbox and serviced on its thread.
    pub fn serve_conn(&self, conn: impl Into<ServedConn>) {
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
    /// or connection count, and `0` after shutdown.
    pub fn transport_threads(&self) -> usize {
        self.reactor.threads()
    }

    /// A point-in-time copy of the transport counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.load()
    }

    /// The `RZUQ` payload: transport counters, one row per shard, and
    /// one row per live subscriber connection — what a scrape
    /// connection receives, and what in-process monitors can read
    /// without a socket.
    pub fn stats_report(&self) -> StatsReport {
        build_stats_report(&self.inner)
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
    let server = inner.stats.load();
    let shards = inner.broker.all_shard_stats();
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
