//! The thin-client side: a blocking `RZUL`/`RZUR` round trip over any
//! [`FrameConn`].
//!
//! This is the whole point of the edge tier: a consumer that wants
//! membership answers but not a zone replica holds one TCP connection
//! and a few hundred bytes of state — no snapshots, no delta chain, no
//! resync logic. Batching is the client's lever: one `RZUL` frame
//! carries up to [`MAX_LOOKUP_BATCH`] names and one `RZUR` answers them
//! all from a single index epoch.
//!
//! In a tiered deployment the same answers are served by several edge
//! nodes (replicas of one index, or siblings fed by different relays of
//! the same root), so the client can hold a **replica list** instead of
//! one endpoint ([`EdgeClient::connect_replicas`]). Which replica to
//! dial, in what order, which to leave alone for how long, and whether
//! a live replica-list update applies are all the broker transport's
//! [`ReplicaSet`] — the same state machine under every full-replica
//! consumer, here without the stream half (a thin client has no claims
//! to carry). A connect or stream error rotates to the next live
//! replica and the lookup is retried there, at most one cycle through
//! the list per call; an unreachable replica is sidelined on the shared
//! backoff ladder rather than slept on, so `lookup` never blocks on a
//! timer. [`EdgeClient::failover_count`] counts the switches.

use darkdns_broker::transport::replica::Update;
use darkdns_broker::transport::{tcp_connect, FrameConn, ReplicaSet, TransportError};
use darkdns_dns::wire::WireError;
use darkdns_dns::wire::{
    decode_lookup_response, encode_lookup_request, LookupQuery, LookupResponse,
    LOOKUP_RESPONSE_MAGIC,
};
use std::time::{Duration, Instant};

/// Cap on names per `RZUL` batch — far below the `u16` wire bound, so a
/// batch always fits the frame limit even with incompressible names.
pub const MAX_LOOKUP_BATCH: usize = 4096;

/// How the client obtains a connection to replica `i`.
type ReplicaDial = Box<dyn FnMut(usize) -> Result<Box<dyn FrameConn>, TransportError> + Send>;

/// A connected edge thin client.
pub struct EdgeClient {
    conn: Option<Box<dyn FrameConn>>,
    next_id: u64,
    /// Replica redial machinery; `None` for single-connection clients
    /// ([`EdgeClient::new`]), which surface errors instead of failing
    /// over.
    dial: Option<ReplicaDial>,
    /// Cursor, rotation, sidelining and the update generation gate.
    replicas: ReplicaSet,
    recv_timeout: Option<Duration>,
}

impl EdgeClient {
    /// Wrap an established frame connection (TCP or an in-memory pipe).
    /// No failover: any connection error is the caller's to handle.
    pub fn new(conn: impl FrameConn + 'static) -> Self {
        EdgeClient {
            conn: Some(Box::new(conn)),
            next_id: 1,
            dial: None,
            replicas: ReplicaSet::new(1, 0),
            recv_timeout: None,
        }
    }

    /// Dial an edge server over TCP.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        Ok(Self::new(tcp_connect(addr)?))
    }

    /// Build a failover client over `replica_count` interchangeable
    /// endpoints: `dial(i)` establishes a connection to replica `i`.
    /// Replica 0 is preferred; each connect or stream error advances to
    /// the next (wrapping), and a replica that refuses a dial sits out a
    /// backoff window. Errors only when no replica is reachable at
    /// construction time.
    pub fn connect_replicas(
        replica_count: usize,
        dial: impl FnMut(usize) -> Result<Box<dyn FrameConn>, TransportError> + Send + 'static,
    ) -> Result<Self, TransportError> {
        let mut client = EdgeClient {
            conn: None,
            next_id: 1,
            dial: Some(Box::new(dial)),
            replicas: ReplicaSet::new(replica_count, 0),
            recv_timeout: None,
        };
        client.redial()?;
        Ok(client)
    }

    /// Bound how long a lookup waits for its reply. Survives failover:
    /// a redialled connection inherits the bound.
    pub fn set_recv_timeout(
        &mut self,
        timeout: Option<std::time::Duration>,
    ) -> Result<(), TransportError> {
        self.recv_timeout = timeout;
        match self.conn.as_mut() {
            Some(conn) => conn.set_recv_timeout(timeout),
            None => Ok(()),
        }
    }

    /// Replica switches so far: every time a connect or stream error
    /// moved this client to the next endpoint in its list.
    pub fn failover_count(&self) -> u64 {
        self.replicas.failovers()
    }

    /// Live replica-set update for a failover client, without
    /// restarting it: `generation` gates the update (only strictly
    /// newer generations apply — duplicated or reordered control-plane
    /// updates are no-ops, returning `false`) and `replica_count`
    /// becomes the index range the dial closure is asked for. The
    /// current connection is kept when its replica index is still in
    /// range; a connection to a drained (now out-of-range) replica is
    /// dropped, and the next lookup redials inside the new set — the
    /// thin client holds no stream state, so its drain *is* a redial.
    /// Single-connection clients ([`EdgeClient::new`]) have no dial
    /// closure and ignore updates.
    pub fn apply_endpoint_update(&mut self, generation: u64, replica_count: usize) -> bool {
        if self.dial.is_none() {
            return false;
        }
        let cursor = self.replicas.cursor();
        let kept = (cursor < replica_count).then_some(cursor);
        match self.replicas.update(generation, replica_count, kept) {
            Update::Stale => false,
            Update::Kept(_) => true,
            Update::Drained => {
                self.conn = None;
                true
            }
        }
    }

    /// Dial the live replicas in rotation order from the cursor,
    /// counting a failover past (and sidelining) each unreachable one —
    /// at most one cycle, and none at all while every replica sits out
    /// a backoff window.
    fn redial(&mut self) -> Result<(), TransportError> {
        let Some(dial) = self.dial.as_mut() else {
            return Err(TransportError::Closed);
        };
        let (now, timeout) = (Instant::now(), self.recv_timeout);
        let conn = self.replicas.dial_in_order(&self.replicas.live(now), now, |at| {
            let mut conn = dial(at)?;
            conn.set_recv_timeout(timeout)?;
            Ok(conn)
        })?;
        self.conn = Some(conn);
        Ok(())
    }

    /// Answer a batch of membership queries: one request frame, one
    /// reply frame, answers in request order. Server heartbeats (empty
    /// frames) and replies to requests this client has already given up
    /// on (stale ids) are skipped; a reply with the wrong answer count
    /// or an id from the future closes the book on the connection.
    ///
    /// A replica-list client ([`EdgeClient::connect_replicas`]) heals
    /// connection errors by failing over to the next endpoint and
    /// retrying there — at most one full cycle through the list, never
    /// sleeping between switches. Timeouts are returned to the
    /// caller unchanged (the reply may still be in flight; switching
    /// replicas would not make a slow index faster).
    pub fn lookup(&mut self, queries: &[LookupQuery]) -> Result<LookupResponse, TransportError> {
        assert!(queries.len() <= MAX_LOOKUP_BATCH, "batch exceeds MAX_LOOKUP_BATCH");
        let mut switches = 0;
        loop {
            if self.conn.is_none() {
                self.redial()?;
            }
            match self.lookup_once(queries) {
                Ok(response) => return Ok(response),
                Err(TransportError::TimedOut) => return Err(TransportError::TimedOut),
                Err(e) => {
                    self.conn = None;
                    switches += 1;
                    if self.dial.is_none() || switches >= self.replicas.count() {
                        return Err(e);
                    }
                    self.replicas.faulted();
                }
            }
        }
    }

    /// One request/reply round trip on the current connection.
    fn lookup_once(&mut self, queries: &[LookupQuery]) -> Result<LookupResponse, TransportError> {
        let conn = self.conn.as_mut().ok_or(TransportError::Closed)?;
        let request_id = self.next_id;
        self.next_id += 1;
        conn.send_frame(&[&encode_lookup_request(request_id, queries)])?;
        loop {
            let frame = conn.recv_frame()?;
            if frame.is_empty() {
                continue; // server heartbeat
            }
            if frame.len() < 4 || &frame[..4] != LOOKUP_RESPONSE_MAGIC {
                return Err(WireError::BadMagic.into());
            }
            let response = decode_lookup_response(&frame)?;
            if response.request_id < request_id {
                continue; // a reply this client timed out on earlier
            }
            if response.request_id > request_id || response.answers.len() != queries.len() {
                // The stream is out of step with the request sequence;
                // nothing on it can be trusted any more.
                return Err(TransportError::Closed);
            }
            return Ok(response);
        }
    }
}
