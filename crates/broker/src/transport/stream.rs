//! The broker's protocol on the shared reactor: the subscriber stream.
//!
//! [`SubscriberStream`] is the [`Protocol`] handler [`BrokerServer`]
//! runs on [`super::reactor`]. Per connection it is the protocol the
//! writer threads once spoke: the handshake (`RZUH` →
//! subscribe-with-claims, `RZUQ` → stats reply and close), the
//! subscriber-queue → ring transfer with the chunked, encode-once
//! snapshot bootstrap, eviction notices, and completion accounting
//! (sent counters, per-connection claims, coalescing credits). The
//! loop, the ring flush, heartbeats, deadlines and fault scripts are
//! the reactor's.
//!
//! # Lock hierarchy
//!
//! The handler runs on the reactor thread, **below** the broker's
//! two-level hierarchy, exactly where writer threads sat. It takes
//! subscriber queue locks (level 2, via `try_next`/`is_evicted`) and
//! its own leaf state (the stats-row table, a row's claim map); it
//! reaches level 1 twice, each time holding nothing else: the
//! handshake's `subscribe_scoped` call, before the connection streams,
//! and [`Broker::snapshot_train`] when a bootstrap is staged. The waker
//! it installs on a subscription runs under that subscriber's queue lock
//! (possibly under a shard lock) and touches only the reactor's pending
//! mailbox and eventfd — leaves under level 2. The handler itself holds
//! no snapshot and no train across calls: an encoded train lives in its
//! shard, beside the checkpoint it encodes.
//!
//! [`Broker::snapshot_train`]: crate::broker::Broker::snapshot_train
//!
//! [`BrokerServer`]: super::BrokerServer

use super::reactor::{CloseWhy, Conn, Protocol};
use super::ring::{CompletedFrame, FrameKind};
use super::server::{build_stats_report, ServerInner};
use crate::broker::{BrokerMessage, BrokerSubscription, SubscribeMode, SubscriberProbe};
use crate::lockdep::{self, TrackedMutex};
use bytes::Bytes;
use darkdns_dns::wire::{
    decode_hello, delta_envelope_header, encode_evict_notice, encode_snapshot_chunks,
    encode_stats_report, is_stats_query, peek_delta_push_serials, HelloScope, SnapshotResume,
};
use darkdns_dns::{Serial, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One live subscriber connection's stats surface: what the `RZUQ`
/// report's per-subscriber rows are built from. The probe reads the
/// broker queue's own accounting; the rest is transport-side state the
/// handler maintains (lock-free counters plus a leaf mutex over the
/// claim map).
pub(super) struct ConnStatsEntry {
    pub(super) probe: SubscriberProbe,
    pub(super) coalesced_frames: AtomicU64,
    pub(super) buffered_bytes: AtomicU64,
    /// Per-TLD serials this connection has *verifiably* streamed past:
    /// seeded from the HELLO claims, advanced only when a delta's last
    /// byte reaches the stream.
    // lock-level: 44
    pub(super) claims: TrackedMutex<BTreeMap<u16, Option<Serial>>>,
}

/// A connection past its handshake: queue→ring transfer plus
/// heartbeats. Before the handshake, and once the stream has ended
/// (stats reply, eviction notice or scripted tear draining), the
/// connection's state is `None`.
pub(super) struct Subscriber {
    sub: BrokerSubscription,
    entry: Arc<ConnStatsEntry>,
    /// Mid-snapshot resume claims from the HELLO, consumed when the
    /// matching shard's bootstrap snapshot is chunked out.
    resume: BTreeMap<u16, SnapshotResume>,
}

pub(super) struct SubscriberStream {
    inner: Arc<ServerInner>,
}

impl Protocol for SubscriberStream {
    type State = Option<Subscriber>;
    const HANDSHAKE: bool = true;

    fn open(&mut self) -> Option<Subscriber> {
        self.inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn on_frame(&mut self, conn: &mut Conn<Self::State>, frame: Bytes) -> Option<CloseWhy> {
        // Post-handshake inbound frames have no meaning in the
        // protocol; they are drained and ignored, as the writer-thread
        // server (which never read after the handshake) effectively did.
        if conn.is_handshaking() {
            self.classify_first_frame(conn, frame)
        } else {
            None
        }
    }

    /// Transfer queued broker messages into the outbound ring while it
    /// has room. The ring caps are the backpressure valve: a stalled
    /// peer stops the transfer here and the broker's overflow policy
    /// handles the rest at the queue.
    fn fill(&mut self, conn: &mut Conn<Self::State>) -> Option<CloseWhy> {
        loop {
            if conn.is_closing() {
                // A scripted tear just ended the stream.
                self.end_streaming(&mut conn.state);
            }
            if !conn.has_room() {
                return None;
            }
            let Some(subscriber) = &mut conn.state else { return None };
            let Some(msg) = subscriber.sub.try_next() else {
                if subscriber.sub.is_evicted() {
                    // The explicit slow-subscriber signal: tell the
                    // peer, flush, close — it reconnects with claims.
                    self.inner.stats.evict_notices.fetch_add(1, Ordering::Relaxed);
                    self.end_streaming(&mut conn.state);
                    conn.close_after_flush(CloseWhy::Quiet);
                    return conn.stage(None, encode_evict_notice(), FrameKind::Evict);
                }
                return None;
            };
            let close = match msg {
                BrokerMessage::Snapshot { tld, snapshot } => {
                    // Chunked bootstrap: the snapshot is encoded as a
                    // sequence of `RZUC` frames, each under the
                    // connection's frame bound, so a checkpoint of any
                    // size traverses the bound instead of producing an
                    // oversized write. A HELLO resume claim that still
                    // matches the served serial starts the sequence at
                    // the peer's last received chunk boundary. All
                    // chunks of one bootstrap stage together (the
                    // ring's byte cap gates admission of *further*
                    // messages, same backpressure the single monolithic
                    // frame produced). The frames themselves come from
                    // the shard's cached train whenever they can: see
                    // `snapshot_train`.
                    let start = subscriber
                        .resume
                        .remove(&tld.0)
                        .filter(|r| r.serial == snapshot.serial())
                        .map(|r| r.entries as usize)
                        .unwrap_or(0);
                    let chunks = self.snapshot_train(tld.0, &snapshot, start, conn.max_frame());
                    let total = chunks.len();
                    let mut close = None;
                    for (i, chunk) in chunks.into_iter().enumerate() {
                        let kind = FrameKind::Snapshot { tld: tld.0, last: i + 1 == total };
                        close = conn.stage(None, chunk, kind);
                        if close.is_some() || conn.is_closing() {
                            break;
                        }
                    }
                    close
                }
                BrokerMessage::Delta { tld, frame } => {
                    // Allocation-free peek: the serial this frame
                    // advances the peer to, recorded when it completes.
                    let to_serial =
                        peek_delta_push_serials(&frame).map(|(_, to)| to.0).unwrap_or(0);
                    conn.stage(
                        Some(delta_envelope_header(tld.0)),
                        frame,
                        FrameKind::Delta { tld: tld.0, to_serial },
                    )
                }
            };
            if close.is_some() {
                return close;
            }
        }
    }

    /// Completion accounting. Frames sharing a `write_seq` left in one
    /// vectored write: if that write carried k ≥ 2 counted message
    /// frames, it saved k-1 syscalls over frame-at-a-time writing —
    /// credited to the server counters, the connection's stats row, and
    /// each ridden-along frame's shard.
    fn flushed(&mut self, conn: &mut Conn<Self::State>, completed: &[CompletedFrame]) {
        let stats = &self.inner.stats;
        let entry = conn.state.as_ref().map(|s| &s.entry);
        let mut rest = completed;
        while let Some(first) = rest.first() {
            let seq = first.write_seq;
            let run_len = rest.iter().take_while(|f| f.write_seq == seq).count();
            let (run, tail) = rest.split_at(run_len);
            rest = tail;
            let mut messages = 0u64;
            let mut ride_along: Vec<TldId> = Vec::new();
            for frame in run.iter().filter(|f| f.counted) {
                let tld = match frame.kind {
                    FrameKind::Snapshot { tld, last } => {
                        // Bootstraps are counted per snapshot, not per
                        // continuation chunk.
                        if last {
                            stats.snapshots_sent.fetch_add(1, Ordering::Relaxed);
                        }
                        tld
                    }
                    FrameKind::Delta { tld, to_serial } => {
                        stats.deltas_sent.fetch_add(1, Ordering::Relaxed);
                        if let Some(entry) = entry {
                            entry.claims.lock().insert(tld, Some(Serial(to_serial)));
                        }
                        tld
                    }
                    FrameKind::Evict | FrameKind::Heartbeat | FrameKind::Reply | FrameKind::Torn => {
                        continue
                    }
                };
                if messages > 0 {
                    ride_along.push(TldId(tld));
                }
                messages += 1;
            }
            if messages >= 2 {
                stats.coalesced_writes.fetch_add(1, Ordering::Relaxed);
                stats.coalesced_frames.fetch_add(messages - 1, Ordering::Relaxed);
                if let Some(entry) = entry {
                    entry.coalesced_frames.fetch_add(messages - 1, Ordering::Relaxed);
                }
                self.inner.broker.record_coalesced_frames(ride_along);
            }
        }
        if let Some(entry) = entry {
            entry.buffered_bytes.store(conn.unsent_bytes() as u64, Ordering::Relaxed);
        }
    }

    fn closed(&mut self, mut state: Option<Subscriber>, why: CloseWhy) {
        let stats = &self.inner.stats;
        match why {
            CloseWhy::Rejected => {
                stats.rejected_hellos.fetch_add(1, Ordering::Relaxed);
            }
            CloseWhy::Disconnect => {
                stats.disconnects.fetch_add(1, Ordering::Relaxed);
            }
            CloseWhy::Quiet => {}
        }
        self.end_streaming(&mut state);
    }
}

impl SubscriberStream {
    pub(super) fn new(inner: Arc<ServerInner>) -> Self {
        SubscriberStream { inner }
    }

    /// The handshake: an `RZUQ` scrape gets the stats report and
    /// drains; an `RZUH` with validated claims becomes a subscriber;
    /// anything else is rejected.
    fn classify_first_frame(
        &mut self,
        conn: &mut Conn<Option<Subscriber>>,
        frame: Bytes,
    ) -> Option<CloseWhy> {
        if is_stats_query(&frame) {
            // Count first so the reply's counters include this query.
            self.inner.stats.stats_queries.fetch_add(1, Ordering::Relaxed);
            conn.close_after_flush(CloseWhy::Quiet);
            return conn.reply(encode_stats_report(&build_stats_report(&self.inner)));
        }
        let Ok(hello) = decode_hello(&frame) else {
            return Some(CloseWhy::Rejected);
        };
        let wire_claims = hello.claims;
        let mut claims = Vec::with_capacity(wire_claims.len());
        for claim in &wire_claims {
            let tld = TldId(claim.tld);
            // Untrusted claim: `subscribe_with` panics on unknown TLDs
            // (an in-process caller bug); a remote peer just gets
            // rejected.
            if !self.inner.broker.has_shard(tld) {
                return Some(CloseWhy::Rejected);
            }
            claims.push((tld, claim.from_serial));
        }
        // Resume claims are kept only for TLDs the peer actually
        // claimed (bounding the map by the validated claim set); they
        // are consumed when the matching bootstrap snapshot is served.
        let resume = hello
            .resume
            .into_iter()
            .filter(|(tld, _)| claims.iter().any(|(t, _)| t.0 == *tld))
            .collect();
        // Registers under each shard's lock (the connection's one brush
        // with hierarchy level 1): catch-up plan and live registration
        // are atomic per shard, so the stream starts gap-free. The
        // HELLO's scope picks the catch-up contract: a delta-only
        // partial subscription never gets a checkpoint bootstrap — a
        // claim beyond delta repair starts at the live head.
        let mode = match hello.scope {
            HelloScope::Full => SubscribeMode::Full,
            HelloScope::DeltaOnly => SubscribeMode::DeltaOnly,
        };
        let sub = self.inner.broker.subscribe_scoped(&claims, mode);
        self.inner.stats.handshakes.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(ConnStatsEntry {
            probe: sub.probe(),
            coalesced_frames: AtomicU64::new(0),
            buffered_bytes: AtomicU64::new(0),
            claims: TrackedMutex::new(
                &lockdep::CONN_CLAIMS,
                wire_claims.iter().map(|c| (c.tld, c.from_serial)).collect::<BTreeMap<_, _>>(),
            ),
        });
        self.inner.conns.lock().insert(sub.id(), Arc::clone(&entry));
        // Waker before drain: nothing enqueued before installation is
        // re-signalled, but this service call fills from the queue right
        // after the frame is classified.
        sub.set_waker(Some(conn.waker()));
        conn.state = Some(Subscriber { sub, entry, resume });
        conn.establish();
        None
    }

    /// The chunk byte target for a connection whose frame bound is
    /// `max_frame`: half the bound leaves headroom for the one-entry
    /// overshoot `encode_snapshot_chunks` allows.
    fn chunk_bytes_for(&self, max_frame: usize) -> usize {
        self.inner.config.snapshot_chunk_bytes.min(max_frame / 2).max(512)
    }

    /// The `RZUC` frames that take a peer holding the first `start`
    /// entries of `snapshot` to its end — encoded at most once per
    /// checkpoint for the common case.
    ///
    /// Chunks are independently decodable and packed greedily from
    /// their first entry, so the tail of a train from any of its chunk
    /// boundaries is byte-identical to a train encoded from that entry.
    /// The shard therefore keeps, beside its checkpoint and for exactly
    /// as long, that checkpoint's whole train at the server's default
    /// chunk size ([`Broker::snapshot_train`]), and every later
    /// bootstrap of that capture — and every resume that lands on one of
    /// its chunk boundaries, which is where a client cut mid-train
    /// always resumes — stages refcount-shared clones: N joiners hold
    /// one copy, and none of them waits on an O(zone) encode on the
    /// fleet's only transport thread. Anything else (a connection with
    /// its own frame bound, hence its own chunk size; a resume offset
    /// that is not a boundary of the cached train; a snapshot the
    /// checkpoint has already moved on from) is encoded for that
    /// connection alone, as every bootstrap used to be.
    ///
    /// This is the only `encode_snapshot_chunks` call the transport may
    /// contain (`docs/INVARIANTS.md` L4); it runs with no lock held.
    ///
    /// [`Broker::snapshot_train`]: crate::broker::Broker::snapshot_train
    fn snapshot_train(
        &self,
        tld: u16,
        snapshot: &ZoneSnapshot,
        start: usize,
        max_frame: usize,
    ) -> Vec<Bytes> {
        let chunk_bytes = self.chunk_bytes_for(max_frame);
        let encode = || {
            self.inner.stats.snapshot_trains_encoded.fetch_add(1, Ordering::Relaxed);
            encode_snapshot_chunks(tld, snapshot, start, chunk_bytes)
        };
        if chunk_bytes != self.chunk_bytes_for(self.inner.config.max_frame_len) {
            return encode();
        }
        self.inner.broker.snapshot_train(TldId(tld), snapshot, start, chunk_bytes, encode)
    }

    /// Leave the streaming state: deregister the stats row and drop the
    /// subscription (the broker reaps it at the next publish).
    fn end_streaming(&self, state: &mut Option<Subscriber>) {
        if let Some(subscriber) = state.take() {
            self.inner.conns.lock().remove(&subscriber.sub.id());
        }
    }
}
