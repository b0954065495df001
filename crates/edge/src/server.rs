//! The query-serving front of the edge: one reactor thread answering
//! `RZUL` batches for thousands of thin clients.
//!
//! [`EdgeServer`] runs on the broker transport's event loop
//! ([`darkdns_broker::transport::ReactorHandle`]) — the same slab,
//! accept burst, ring flush, heartbeat and write-stall sweep that serve
//! the broker's subscriber stream, here driving this module's
//! [`Protocol`] handler. What lives here is protocol only: what an
//! inbound frame means, and how the edge's counters map onto the
//! `RZUQ` report. Because lookups are answered into the connection's
//! bounded outbound ring, the loop's read gate is what bounds a peer
//! that pipelines requests and never reads: it is parked at a full ring
//! and closed by the write-stall bound.
//!
//! The protocol is simpler than the broker's — there is **no
//! handshake**: a connection is usable from its first byte and every
//! inbound frame stands alone.
//!
//! | frame  | meaning                                                  |
//! |--------|----------------------------------------------------------|
//! | `RZUL` | batched lookup → `RZUA` reply, connection stays open     |
//! | `RZUQ` | stats scrape → report reply, then drain and close        |
//! | empty  | client keepalive, ignored (the server sends its own)     |
//!
//! Anything else — bad magic, a frame that fails validation — closes
//! the connection: a thin client speaking garbage is indistinguishable
//! from a corrupt stream.
//!
//! Every `RZUL` batch is answered from **one** loaded [`EdgeEpoch`]
//! (`index.load()` → `answer` → `encode_lookup_response`), so the
//! answers in a reply are mutually consistent and the reply's `epoch`
//! field names the generation they came from — which is also why each
//! TLD's serial is spelled once per reply. Per the epoch-swap
//! invariant (see [`crate::index`]), the whole service path runs
//! without touching any broker shard publish lock — debug builds assert
//! it on every load and every answered query.
//!
//! # The `RZUQ` report, edge dialect
//!
//! The edge answers stats scrapes with the same [`StatsReport`] wire
//! payload the broker uses — the broker's row types, the broker's
//! layout (`tests/golden/rzuq_edge.hex`) — so [`fetch_stats`] and the
//! fleet monitor work unchanged against either endpoint. The edge's own
//! counters ([`EdgeServerStats`]) are not a wire row; they are *mapped*
//! onto the broker's, and a monitor scraping an edge should render edge
//! labels:
//!
//! * `server.handshakes` carries **lookup batches answered**,
//! * `server.deltas_sent` carries **names answered**,
//! * `server.rejected_hellos` carries **bad frames**,
//! * `server.accepted` / `disconnects` / `stats_queries` keep their
//!   transport meaning;
//! * one shard row per TLD the current epoch serves: `head_serial` is
//!   the epoch's serial for that TLD, `subscribers` the live connection
//!   count, and `pushes` carries the index **epoch generation** (the
//!   same value in every row).
//!
//! The mapping is a policy and is written out once, in this module's
//! `build_stats_report`; every counter it does not name is zero, and
//! there are no subscriber rows. In-process callers get the unmapped
//! counters from [`EdgeServer::stats`].

use crate::index::{EdgeEpoch, EdgeIndex};
use darkdns_broker::transport::{
    Bytes, CloseWhy, Conn, Protocol, ReactorHandle, ServerStats, ShardStats,
    StatsReport, TransportConfig,
};
use darkdns_dns::wire::{
    decode_lookup_request, encode_lookup_response, encode_stats_report, is_stats_query,
    LOOKUP_REQUEST_MAGIC,
};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Edge transport tuning. The receive bound is
/// [`MAX_FRAME_LEN`](darkdns_broker::transport::MAX_FRAME_LEN).
#[derive(Debug, Clone, Copy)]
pub struct EdgeConfig {
    /// Idle tick: the reactor's epoll-wait bound, and how long a quiet
    /// connection stays silent before it gets a heartbeat frame.
    pub writer_tick: Duration,
    /// How long a connection's outbound ring may sit non-empty without
    /// the peer accepting a byte before it is declared dead.
    pub write_timeout: Duration,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            writer_tick: Duration::from_millis(50),
            write_timeout: Duration::from_secs(10),
        }
    }
}

darkdns_dns::counter_set! {
    /// Monotonic edge-server counters (a point-in-time copy comes back
    /// from [`EdgeServer::stats`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EdgeServerStats, cells EdgeServerCells {
        local {
            /// Connections registered with the reactor.
            accepted,
            /// Connections currently open (a gauge, not a counter).
            open_conns,
            /// `RZUL` batches answered.
            lookup_batches,
            /// Individual names answered across all batches.
            lookup_names,
            /// `RZUQ` scrapes answered.
            stats_queries,
            /// Frames that failed validation (connection closed).
            bad_frames,
            /// Connections that died mid-stream (peer gone, write stall,
            /// bad frame).
            disconnects,
        }
    }
}

struct EdgeInner {
    index: Arc<EdgeIndex>,
    stats: EdgeServerCells,
}

/// The edge query server: cheap to clone, all clones share the reactor.
#[derive(Clone)]
pub struct EdgeServer {
    inner: Arc<EdgeInner>,
    reactor: ReactorHandle,
}

impl EdgeServer {
    /// Build the server over `index` and start its reactor thread.
    pub fn new(index: Arc<EdgeIndex>, config: EdgeConfig) -> Self {
        let inner = Arc::new(EdgeInner { index, stats: EdgeServerCells::default() });
        let transport = TransportConfig {
            writer_tick: config.writer_tick,
            write_timeout: config.write_timeout,
            ..TransportConfig::default()
        };
        let reactor = ReactorHandle::spawn(LookupAnswerer { inner: Arc::clone(&inner) }, transport);
        EdgeServer { inner, reactor }
    }

    /// Bind a TCP listener and register it with the reactor. Returns
    /// the bound address (bind to port 0 for an ephemeral one).
    pub fn listen_tcp(&self, addr: &str) -> std::io::Result<SocketAddr> {
        self.reactor.listen_tcp(addr)
    }

    /// Hand one already-established in-memory connection to the reactor
    /// (the pipe-driven tests; thin clients arrive via
    /// [`EdgeServer::listen_tcp`]).
    #[cfg(test)]
    fn serve_conn(&self, conn: impl Into<darkdns_broker::transport::ServedConn>) {
        self.reactor.serve_conn(conn.into());
    }

    /// A point-in-time copy of the edge counters.
    pub fn stats(&self) -> EdgeServerStats {
        self.inner.stats.load()
    }

    /// Stop the reactor and join it: every connection and listener
    /// closes when the reactor drops its slot table.
    pub fn shutdown(&self) {
        self.reactor.shutdown();
    }
}

/// Project the edge counters and the current epoch onto the broker's
/// `RZUQ` report shape. The mapping below *is* the edge dialect (module
/// docs): what is not named is zero.
fn build_stats_report(inner: &EdgeInner, epoch: &EdgeEpoch) -> StatsReport {
    let s = inner.stats.load();
    let server = ServerStats {
        accepted: s.accepted,
        handshakes: s.lookup_batches,
        rejected_hellos: s.bad_frames,
        deltas_sent: s.lookup_names,
        disconnects: s.disconnects,
        stats_queries: s.stats_queries,
        ..Default::default()
    };
    let shards = epoch
        .tlds()
        .into_iter()
        .map(|tld| ShardStats {
            tld: tld.0,
            head_serial: epoch.serial(tld).unwrap_or_default(),
            subscribers: s.open_conns,
            pushes: epoch.epoch(),
            ..Default::default()
        })
        .collect();
    StatsReport { server, shards, subs: Vec::new() }
}

/// The edge's protocol on the shared reactor: every inbound frame
/// stands alone, and nothing streams ([`Protocol::fill`] stays empty).
struct LookupAnswerer {
    inner: Arc<EdgeInner>,
}

impl Protocol for LookupAnswerer {
    type State = ();
    const HANDSHAKE: bool = false;

    fn open(&mut self) {
        self.inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.open_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// One inbound frame, no handshake context: lookups stay open,
    /// scrapes drain, garbage closes.
    fn on_frame(&mut self, conn: &mut Conn<()>, frame: Bytes) -> Option<CloseWhy> {
        let stats = &self.inner.stats;
        if conn.is_closing() {
            // The peer has its reply coming and this connection is done;
            // late frames are ignored while the ring drains.
            return None;
        }
        if frame.is_empty() {
            return None; // client keepalive
        }
        if is_stats_query(&frame) {
            // Count first so the reply's counters include this query.
            stats.stats_queries.fetch_add(1, Ordering::Relaxed);
            let epoch = self.inner.index.load();
            conn.close_after_flush(CloseWhy::Quiet);
            return conn.reply(encode_stats_report(&build_stats_report(&self.inner, &epoch)));
        }
        if frame.starts_with(LOOKUP_REQUEST_MAGIC) {
            let Ok((request_id, queries)) = decode_lookup_request(&frame) else {
                stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                return Some(CloseWhy::Disconnect);
            };
            // One loaded epoch answers the whole batch — the reply is
            // internally consistent and never sees a broker lock.
            let epoch = self.inner.index.load();
            let answers = epoch.answer(&queries);
            stats.lookup_batches.fetch_add(1, Ordering::Relaxed);
            stats.lookup_names.fetch_add(queries.len() as u64, Ordering::Relaxed);
            return conn.reply(encode_lookup_response(request_id, epoch.epoch(), &answers));
        }
        stats.bad_frames.fetch_add(1, Ordering::Relaxed);
        Some(CloseWhy::Disconnect)
    }

    /// A thin client hanging up between frames is orderly.
    fn on_eof(&mut self, _conn: &Conn<()>, clean: bool) -> CloseWhy {
        if clean {
            CloseWhy::Quiet
        } else {
            CloseWhy::Disconnect
        }
    }

    fn closed(&mut self, (): (), why: CloseWhy) {
        if why == CloseWhy::Disconnect {
            self.inner.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::EdgeClient;
    use crate::feed::EdgeFeed;
    use crate::index::EdgeIndexConfig;
    use darkdns_broker::transport::{
        duplex, fetch_stats, tcp_connect, FrameConn, LengthPrefixed, MAX_RING_FRAMES,
    };
    use darkdns_broker::{Broker, BrokerConfig};
    use darkdns_dns::wire::{
        decode_lookup_response, encode_lookup_request, LookupQuery, LOOKUP_ANY_TLD,
    };
    use darkdns_dns::{DomainName, Serial, ZoneDelta, ZoneSnapshot};
    use darkdns_dns::zone::NsSet;
    use darkdns_registry::tld::TldId;
    use darkdns_sim::time::SimTime;
    use std::time::Instant;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn snap(origin: &str, serial: u32, names: &[&str]) -> ZoneSnapshot {
        let entries =
            names.iter().map(|n| (name(n), vec![name("ns1.provider0.net")])).collect();
        ZoneSnapshot::from_entries(name(origin), Serial::new(serial), SimTime::ZERO, entries)
    }

    fn quick_server(index: Arc<EdgeIndex>) -> (EdgeServer, SocketAddr) {
        let server = EdgeServer::new(
            index,
            EdgeConfig { writer_tick: Duration::from_millis(10), ..EdgeConfig::default() },
        );
        let addr = server.listen_tcp("127.0.0.1:0").unwrap();
        (server, addr)
    }

    #[test]
    fn lookup_round_trip_over_tcp() {
        let index = Arc::new(EdgeIndex::default());
        index.adopt_snapshot(TldId(0), snap("com", 7, &["a.com", "b.com"]));
        index.adopt_snapshot(TldId(1), snap("net", 3, &["c.net"]));
        let (server, addr) = quick_server(Arc::clone(&index));

        let mut client = EdgeClient::connect_tcp(addr).unwrap();
        let queries = [
            LookupQuery { tld: 0, name: name("a.com") },
            LookupQuery { tld: 0, name: name("missing.com") },
            LookupQuery { tld: LOOKUP_ANY_TLD, name: name("c.net") },
            LookupQuery { tld: 9, name: name("c.net") },
        ];
        let response = client.lookup(&queries).unwrap();
        assert_eq!(response.epoch, index.epoch());
        assert_eq!(response.answers.len(), 4);
        assert!(response.answers[0].present);
        assert_eq!(response.answers[0].serial, Some(Serial::new(7)));
        assert!(!response.answers[1].present);
        assert!(response.answers[2].present, "ANY-TLD scan finds c.net");
        assert!(!response.answers[3].present, "unserved TLD answers absent");

        // The connection is persistent: a second batch on the same
        // socket, answered after a writer swap, reports the new epoch.
        index.adopt_snapshot(TldId(0), snap("com", 8, &["a.com", "b.com", "d.com"]));
        let response = client.lookup(&[LookupQuery { tld: 0, name: name("d.com") }]).unwrap();
        assert!(response.answers[0].present);
        assert_eq!(response.answers[0].serial, Some(Serial::new(8)));

        let stats = server.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.lookup_batches, 2);
        assert_eq!(stats.lookup_names, 5);
        assert_eq!(stats.disconnects, 0);
        server.shutdown();
    }

    #[test]
    fn stats_scrape_speaks_the_broker_dialect() {
        let index = Arc::new(EdgeIndex::default());
        index.adopt_snapshot(TldId(2), snap("org", 5, &["x.org"]));
        let (server, addr) = quick_server(Arc::clone(&index));

        let mut client = EdgeClient::connect_tcp(addr).unwrap();
        client.lookup(&[LookupQuery { tld: 2, name: name("x.org") }]).unwrap();

        let report = fetch_stats(tcp_connect(addr).unwrap()).unwrap();
        assert_eq!(report.server.handshakes, 1, "lookup batches ride the handshakes counter");
        assert_eq!(report.server.deltas_sent, 1, "names answered ride deltas_sent");
        assert_eq!(report.server.stats_queries, 1);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].tld, 2);
        assert_eq!(report.shards[0].head_serial, Serial::new(5));
        assert_eq!(report.shards[0].pushes, index.epoch(), "epoch rides the pushes counter");
        assert!(report.subs.is_empty());
        server.shutdown();
    }

    #[test]
    fn bad_frame_closes_the_connection() {
        let index = Arc::new(EdgeIndex::default());
        let (server, addr) = quick_server(Arc::clone(&index));
        let mut conn = tcp_connect(addr).unwrap();
        conn.send_frame(&[b"JUNK-frame"]).unwrap();
        // The server closes; the next receive errors out (EOF).
        assert!(conn.recv_frame().is_err());
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().bad_frames == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = server.stats();
        assert_eq!(stats.bad_frames, 1);
        assert_eq!(stats.disconnects, 1);
        server.shutdown();
    }

    #[test]
    fn live_feed_serves_fresh_answers_under_full_cadence() {
        // The tentpole wiring, end to end: broker -> feed -> index ->
        // server -> thin client, with the publisher pushing deltas the
        // whole time.
        let broker = Broker::new(BrokerConfig::default());
        broker.add_shard(TldId(0), snap("com", 0, &[]));
        let index = Arc::new(EdgeIndex::new(EdgeIndexConfig::default()));
        let mut feed = EdgeFeed::subscribe(&broker, &[TldId(0)], Arc::clone(&index));
        let (server, addr) = quick_server(Arc::clone(&index));
        let mut client = EdgeClient::connect_tcp(addr).unwrap();

        for i in 0..50u32 {
            let mut delta = ZoneDelta::default();
            delta.added.push((
                name(&format!("d{i}.com")),
                NsSet::new(vec![name("ns1.provider0.net")]),
            ));
            broker.publish(TldId(0), delta, Serial::new(i + 1), SimTime::from_secs(100 + i as u64));
            feed.pump();
        }
        assert!(feed.pump_until_serials(&[(TldId(0), Serial::new(50))], Duration::from_secs(5)));

        let response = client
            .lookup(&[LookupQuery { tld: 0, name: name("d49.com") }])
            .unwrap();
        assert!(response.answers[0].present);
        assert_eq!(response.answers[0].serial, Some(Serial::new(50)));
        assert_eq!(
            response.answers[0].first_seen,
            Some(SimTime::from_secs(149)),
            "NRD recency crosses the wire"
        );
        server.shutdown();
    }

    fn a_com() -> [LookupQuery; 1] {
        [LookupQuery { tld: 0, name: name("a.com") }]
    }

    #[test]
    fn never_reading_pipeliner_is_answered_a_bounded_number_of_times() {
        let index = Arc::new(EdgeIndex::default());
        index.adopt_snapshot(TldId(0), snap("com", 7, &["a.com"]));
        let server = EdgeServer::new(
            Arc::clone(&index),
            EdgeConfig {
                writer_tick: Duration::from_millis(10),
                write_timeout: Duration::from_millis(200),
                ..EdgeConfig::default()
            },
        );
        let cap = 1024;
        let (client, served) = duplex(cap);
        server.serve_conn(served);
        // Pipeline far more batches than pipe and ring can hold, never
        // reading a reply. Once the server stops reading, the pipe backs
        // up and the send times out.
        let mut client = LengthPrefixed::new(client);
        client.set_send_timeout(Some(Duration::from_millis(50))).unwrap();
        for id in 1..=5000 {
            if client.send_frame(&[&encode_lookup_request(id, &a_com())]).is_err() {
                break;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().disconnects == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = server.stats();
        assert_eq!(stats.disconnects, 1, "the write-stall bound closes the parked peer");
        assert_eq!(stats.open_conns, 0);
        // What was answered sits in the pipe (whole replies, plus one
        // partly flushed) or in the ring — nowhere else.
        let answers = index.load().answer(&a_com());
        let reply_len = 4 + encode_lookup_response(1, 1, &answers).len();
        let bound = (MAX_RING_FRAMES + cap / reply_len + 1) as u64;
        let answered = stats.lookup_batches;
        assert!(answered <= bound, "{answered} batches answered, bound {bound}");
        server.shutdown();
    }

    #[test]
    fn well_behaved_pipeliner_gets_every_reply_in_order() {
        let index = Arc::new(EdgeIndex::default());
        index.adopt_snapshot(TldId(0), snap("com", 7, &["a.com"]));
        let (server, _addr) = quick_server(index);
        // 40 batches — more than the ring holds — written before the
        // server sees the connection, so one service meets them all: it
        // must stop at a full ring, flush, and come back for the rest.
        let (client, served) = duplex(4096);
        let mut client = LengthPrefixed::new(client);
        for id in 1..=40 {
            client.send_frame(&[&encode_lookup_request(id, &a_com())]).unwrap();
        }
        server.serve_conn(served);
        for id in 1..=40 {
            let response = decode_lookup_response(&client.recv_frame().unwrap()).unwrap();
            assert_eq!(response.request_id, id);
            assert!(response.answers[0].present);
        }
        assert_eq!(server.stats().lookup_batches, 40);
        server.shutdown();
    }
}
