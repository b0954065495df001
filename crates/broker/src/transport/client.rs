//! The subscriber side of the transport.
//!
//! [`TransportClient`] sends the `RZUH` handshake, then decodes the
//! server's frame stream into typed [`ClientEvent`]s — validated at the
//! trust boundary, so everything past `next_event` works with checked
//! values. The client tracks its **per-TLD claimed serials** as frames
//! chain: a snapshot adopts the shard serial outright, a delta advances
//! the claim only when its `from_serial` matches (a replayed or gapped
//! frame leaves the claim untouched). On disconnect or a serial gap those
//! claims are exactly what the next HELLO should carry, so reconnection
//! costs a delta replay of the missed churn, not a snapshot bootstrap —
//! the paper's rapid-update economics, preserved across faults.

use super::frame::{FrameConn, TransportError};
use bytes::Bytes;
use darkdns_dns::wire::{
    decode_delta_envelope, decode_snapshot_chunk, decode_stats_report,
    encode_hello, encode_stats_query, DeltaPush, HelloFrame, SnapshotChunk,
    SnapshotResume, StatsReport, TldClaim, DELTA_ENVELOPE_MAGIC, SNAPSHOT_CHUNK_MAGIC,
    WireError,
};
use darkdns_dns::snapshot::SnapshotBuilder;
use darkdns_dns::{DomainName, Serial, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::time::Duration;

/// One decoded step of the subscription stream.
#[derive(Debug)]
pub enum ClientEvent {
    /// Adopt this snapshot as the shard state (catch-up rule 3).
    Snapshot { tld: TldId, snapshot: ZoneSnapshot },
    /// Apply one validated delta push. `frame` is the embedded `RZU4`
    /// bytes exactly as the publisher encoded them — a refcount-shared
    /// slice of the received envelope, so a relay can re-serve the delta
    /// downstream without re-encoding it (and a leaf can pin
    /// byte-identity against the root's encoding).
    Delta { tld: TldId, push: DeltaPush, frame: Bytes },
    /// No frame within the receive timeout; the stream is still up.
    Idle,
    /// The connection is unusable (peer closed, i/o failure, or a frame
    /// that failed validation — a corrupt stream is never applied).
    Closed(TransportError),
}

/// Accumulated progress of a chunked snapshot bootstrap (`RZUC`
/// frames), already in segments: each chunk is appended to the builder
/// as it arrives and dropped, so a bootstrap in flight holds what the
/// finished snapshot will plus the chunk in hand — never a flat copy of
/// the train. The builder's top level grows with what has arrived; it
/// is never reserved from the peer's declared `total`. Lives inside
/// [`TransportClient`] while the sequence is in flight; on disconnect
/// [`TransportClient::take_snapshot_progress`] extracts it so the
/// reconnect HELLO can carry a [`SnapshotResume`] claim and the server
/// can resume from the last received chunk boundary instead of
/// restarting the bootstrap.
#[derive(Debug, Clone)]
pub struct SnapshotProgress {
    tld: TldId,
    origin: DomainName,
    serial: Serial,
    taken_at: SimTime,
    total: u32,
    assembled: SnapshotBuilder,
}

impl SnapshotProgress {
    /// A train that `chunk` (at offset 0) starts.
    fn start(tld: TldId, chunk: &SnapshotChunk) -> Self {
        SnapshotProgress {
            tld,
            origin: chunk.origin,
            serial: chunk.serial,
            taken_at: chunk.taken_at,
            total: chunk.total,
            assembled: SnapshotBuilder::default(),
        }
    }

    /// True when `chunk` is the next chunk of this very train: the same
    /// header throughout, at the boundary reached so far.
    fn continued_by(&self, chunk: &SnapshotChunk) -> bool {
        chunk.origin == self.origin
            && chunk.serial == self.serial
            && chunk.taken_at == self.taken_at
            && chunk.total == self.total
            && chunk.offset as usize == self.assembled.len()
    }

    /// The TLD this partial bootstrap belongs to.
    pub fn tld(&self) -> TldId {
        self.tld
    }

    /// Entries received so far (a chunk boundary by construction).
    pub fn entries_received(&self) -> usize {
        self.assembled.len()
    }

    /// The HELLO resume claim this progress corresponds to.
    fn resume_claim(&self) -> SnapshotResume {
        SnapshotResume { serial: self.serial, entries: self.assembled.len() as u32 }
    }
}

/// A connected transport subscriber.
pub struct TransportClient {
    conn: Box<dyn FrameConn>,
    claims: Vec<(TldId, Option<Serial>)>,
    partials: Vec<SnapshotProgress>,
    chunks_received: u64,
}

impl TransportClient {
    /// Send the HELLO carrying `claims` (`None` = bootstrap me) over an
    /// established frame connection.
    pub fn connect(
        conn: impl FrameConn + 'static,
        claims: &[(TldId, Option<Serial>)],
    ) -> Result<Self, TransportError> {
        Self::connect_salvaged(conn, claims, &mut Vec::new())
    }

    /// [`TransportClient::connect`], additionally carrying mid-snapshot
    /// progress salvaged from a previous connection
    /// ([`TransportClient::take_snapshot_progress`]). The HELLO asks the
    /// server to resume each partial bootstrap at its last received
    /// chunk boundary; if the server's checkpoint has moved on it
    /// restarts the sequence at offset 0 and the stale partial is
    /// discarded on arrival of that first chunk.
    ///
    /// The caller keeps the salvaged progress when the dial dies:
    /// `partials` is emptied into the new client only once the HELLO
    /// carrying its resume claims is on the wire. A connection that
    /// accepts the dial and fails the write leaves `partials` untouched,
    /// so the next candidate still resumes the chunk train instead of
    /// restarting it from entry 0.
    pub fn connect_salvaged(
        mut conn: impl FrameConn + 'static,
        claims: &[(TldId, Option<Serial>)],
        partials: &mut Vec<SnapshotProgress>,
    ) -> Result<Self, TransportError> {
        let hello = HelloFrame {
            claims: claims
                .iter()
                .map(|&(tld, from_serial)| TldClaim { tld: tld.0, from_serial })
                .collect(),
            resume: partials.iter().map(|p| (p.tld.0, p.resume_claim())).collect(),
        };
        conn.send_frame(&[&encode_hello(&hello)])?;
        Ok(TransportClient {
            conn: Box::new(conn),
            claims: claims.to_vec(),
            partials: std::mem::take(partials),
            chunks_received: 0,
        })
    }

    /// Bound how long [`TransportClient::next_event`] blocks before
    /// returning [`ClientEvent::Idle`].
    pub fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.conn.set_recv_timeout(timeout)
    }

    /// The serial this client has verifiably reached per TLD — the
    /// claims a reconnect HELLO should carry.
    pub fn claimed_serials(&self) -> &[(TldId, Option<Serial>)] {
        &self.claims
    }

    /// Extract any in-flight chunked-bootstrap progress, for
    /// transplanting into [`TransportClient::connect_salvaged`] on the
    /// next dial. Leaves this (dead) client with no partial state.
    pub fn take_snapshot_progress(&mut self) -> Vec<SnapshotProgress> {
        std::mem::take(&mut self.partials)
    }

    /// True while a chunked snapshot bootstrap is in flight on this
    /// connection — the signal a *drain* waits on: a replica being
    /// removed from an endpoint map keeps pumping until its chunk train
    /// completes, so the successor inherits a whole-snapshot claim
    /// instead of restarting the bootstrap from entry 0.
    pub fn has_snapshot_in_flight(&self) -> bool {
        !self.partials.is_empty()
    }

    /// Snapshot continuation chunks decoded on this connection (a
    /// resumed bootstrap receives only the tail of the sequence — this
    /// is how tests pin that resumption actually skipped work).
    pub fn snapshot_chunks_received(&self) -> u64 {
        self.chunks_received
    }

    /// Block for the next frame and decode it. A heartbeat (empty
    /// frame) reports as [`ClientEvent::Idle`], same as a receive
    /// timeout: both mean "the stream is healthy and has nothing for
    /// you", and returning (rather than waiting for the next real
    /// frame) keeps a pump loop's control inversion honest — the caller
    /// regains control at least once per heartbeat interval.
    ///
    /// A non-final snapshot continuation chunk is appended to the
    /// in-flight [`SnapshotProgress`] — cut into segments and dropped —
    /// and the loop keeps reading: the caller only sees the assembled
    /// [`ClientEvent::Snapshot`] when the final chunk lands (claims
    /// advance at that point, never mid-sequence). A chunk that does not
    /// continue the train — another header, the wrong offset, owners out
    /// of order — closes the stream with [`WireError::BadChunk`], the
    /// partial kept at its last good boundary. A receive timeout
    /// mid-sequence returns `Idle` with the partial progress retained.
    pub fn next_event(&mut self) -> ClientEvent {
        loop {
            let frame = match self.conn.recv_frame() {
                Ok(frame) => frame,
                Err(TransportError::TimedOut) => return ClientEvent::Idle,
                Err(e) => return ClientEvent::Closed(e),
            };
            if frame.is_empty() {
                return ClientEvent::Idle; // heartbeat
            }
            if frame.len() < 4 {
                return ClientEvent::Closed(WireError::Truncated.into());
            }
            match &frame[..4] {
                magic if magic == SNAPSHOT_CHUNK_MAGIC => match decode_snapshot_chunk(&frame) {
                    Ok(chunk) => {
                        self.chunks_received += 1;
                        let tld = TldId(chunk.tld);
                        match self.ingest_chunk(tld, chunk) {
                            Ok(Some(snapshot)) => {
                                self.claim_set(tld, snapshot.serial());
                                return ClientEvent::Snapshot { tld, snapshot };
                            }
                            Ok(None) => continue, // mid-sequence; keep reading
                            Err(e) => return ClientEvent::Closed(e),
                        }
                    }
                    Err(e) => return ClientEvent::Closed(e.into()),
                },
                magic if magic == DELTA_ENVELOPE_MAGIC => match decode_delta_envelope(&frame) {
                    Ok((tld, push)) => {
                        let tld = TldId(tld);
                        self.claim_advance(tld, &push);
                        // Skip the 6-byte envelope header: the rest is
                        // the publisher's RZU4 frame, refcount-shared.
                        let push_frame = frame.slice(6..);
                        return ClientEvent::Delta { tld, push, frame: push_frame };
                    }
                    Err(e) => return ClientEvent::Closed(e.into()),
                },
                _ => return ClientEvent::Closed(WireError::BadMagic.into()),
            }
        }
    }

    /// Append one continuation chunk to the per-TLD partial state.
    /// Returns the assembled snapshot on the final chunk. A chunk at
    /// offset 0 (re)starts the sequence — that is how the server signals
    /// it could not honour a resume claim; any other offset must extend
    /// the existing partial exactly (same origin, serial, capture time
    /// and total, offset at the current boundary), and every chunk's
    /// owners must continue the strictly ascending order, otherwise the
    /// stream is corrupt. A refused chunk leaves the partial at its last
    /// good boundary.
    fn ingest_chunk(
        &mut self,
        tld: TldId,
        chunk: SnapshotChunk,
    ) -> Result<Option<ZoneSnapshot>, TransportError> {
        let bad = WireError::BadChunk {
            offset: chunk.offset,
            count: chunk.entries.len() as u32,
            total: chunk.total,
        };
        let at = self.partials.iter().position(|p| p.tld == tld);
        let idx = match at {
            Some(i) if self.partials[i].continued_by(&chunk) => i,
            _ if chunk.offset != 0 => return Err(bad.into()),
            Some(i) => {
                self.partials[i] = SnapshotProgress::start(tld, &chunk);
                i
            }
            None => {
                self.partials.push(SnapshotProgress::start(tld, &chunk));
                self.partials.len() - 1
            }
        };
        if self.partials[idx].assembled.append(chunk.entries).is_err() {
            return Err(bad.into());
        }
        if chunk.last {
            let p = self.partials.swap_remove(idx);
            Ok(Some(p.assembled.finish(p.origin, p.serial, p.taken_at)))
        } else {
            Ok(None)
        }
    }

    /// A snapshot replaces the claim unconditionally.
    fn claim_set(&mut self, tld: TldId, serial: Serial) {
        match self.claims.iter_mut().find(|(t, _)| *t == tld) {
            Some((_, claim)) => *claim = Some(serial),
            None => self.claims.push((tld, Some(serial))),
        }
    }

    /// A delta advances the claim only when it chains: replays and gaps
    /// leave it where it was, so a reconnect never skips past unapplied
    /// history.
    fn claim_advance(&mut self, tld: TldId, push: &DeltaPush) {
        if let Some((_, claim)) = self.claims.iter_mut().find(|(t, _)| *t == tld) {
            if *claim == Some(push.from_serial) {
                *claim = Some(push.to_serial);
            }
        }
    }
}

/// How long [`fetch_stats`] waits for the report.
const FETCH_STATS_DEADLINE: Duration = Duration::from_secs(30);

/// Scrape a broker server's stats over a fresh frame connection: send
/// the `RZUQ` query instead of a HELLO, decode the report, done — the
/// server closes the connection after answering. This is the operator
/// path for reading per-shard `ShardStats` and transport `ServerStats`
/// through the same framing, bounds and dial machinery subscribers use.
///
/// Whatever receive timeout `conn` came with is replaced: each receive
/// waits for what is left of an overall 30 s deadline, so the
/// subscriber dial pattern — which configures millisecond receive
/// timeouts — works unchanged for scraping, and a peer that accepts the
/// query and then says nothing is given up on at the deadline.
pub fn fetch_stats(conn: impl FrameConn) -> Result<StatsReport, TransportError> {
    fetch_stats_deadline(conn, FETCH_STATS_DEADLINE)
}

/// [`fetch_stats`] with an explicit overall deadline. Health probes use
/// this with a tight bound: a replica picker comparing head freshness
/// across candidates must not hang the failover path for 30 s on one
/// wedged endpoint — a probe that misses its deadline reports
/// [`TransportError::TimedOut`] and the picker treats the replica as
/// unscorable.
pub fn fetch_stats_deadline(
    mut conn: impl FrameConn,
    deadline: Duration,
) -> Result<StatsReport, TransportError> {
    conn.send_frame(&[&encode_stats_query()])?;
    let deadline = std::time::Instant::now() + deadline;
    // The deadline bounds every turn, whatever the turn brings: a peer
    // that answers with heartbeats for ever is caught by the check
    // between receives, a peer that says nothing at all by the receive
    // timeout, which is whatever is left of the deadline.
    loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return Err(TransportError::TimedOut);
        }
        conn.set_recv_timeout(Some(left))?;
        match conn.recv_frame() {
            Ok(frame) if frame.is_empty() => {} // heartbeat; the report is still coming
            Ok(frame) => return Ok(decode_stats_report(&frame)?),
            Err(TransportError::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}
