//! The readiness-driven event loop: every transport connection on one
//! thread.
//!
//! The previous transport spent one OS thread per subscriber blocking
//! in `next_wait`, plus an acceptor thread sleep-polling `accept` every
//! 2 ms. This module replaces all of it with a single reactor thread
//! multiplexed over an epoll instance (vendored shim: `mio_shim`):
//!
//! * **TCP connections** are non-blocking fds registered for read
//!   readiness; write readiness (`EPOLLOUT`) is registered only while a
//!   connection's outbound ring holds unsent bytes, so an idle fleet
//!   costs zero wakeups.
//! * **Pipe connections** (tests, fault harness) have no fd. Their
//!   readiness arrives through the pipe's ready hook
//!   ([`PipeEnd::set_ready_hook`]), which enqueues the connection token
//!   and pokes the reactor's [`WakeupFd`] — the same path a broker
//!   subscription's waker ([`BrokerSubscription::set_waker`]) uses when
//!   a message lands on a queue.
//! * **TCP listeners** are registered like any other readable fd; an
//!   accept burst is drained to `WouldBlock` in the event handler — the
//!   2 ms accept poll is gone.
//!
//! Per connection the reactor runs the same protocol the writer threads
//! did: handshake (`RZUH` → subscribe-with-claims, `RZUQ` → stats reply
//! and close), queue→ring transfer with per-frame fault-script
//! consultation, vectored ring flush, idle heartbeats on the writer
//! tick, eviction notices, and a write-stall bound
//! ([`TransportConfig::write_timeout`]) for wedged-but-open peers.
//!
//! # Lock hierarchy
//!
//! The reactor sits **below** the broker's two-level hierarchy, exactly
//! where writer threads sat. While servicing connections it takes only
//! subscriber queue locks (level 2, via `try_next`/`is_evicted`) and
//! its own leaf state (the pending list, a connection's fault script,
//! stats-entry claim maps); the one brush with level 1 is the
//! handshake's `subscribe_with` call, before the connection streams.
//! Conversely, the waker and ready hooks that *publishers* fire run
//! under a subscriber queue lock (possibly under a shard lock) and
//! touch only the pending-list mutex and the wakeup eventfd — leaves
//! under level 2, never a lock the reactor holds while blocking.

use super::fault::{FaultScript, FrameFault};
use super::frame::{FrameAssembler, FrameProgress};
use super::pipe::PipeEnd;
use super::ring::{CompletedFrame, FlushStatus, FrameKind, OutRing, RingFrame};
use super::server::{build_stats_report, ConnStatsEntry, ServerInner};
use crate::broker::{BrokerMessage, BrokerSubscription, SubWaker, SubscribeMode};
use bytes::Bytes;
use darkdns_dns::wire::{
    decode_hello_frame, delta_envelope_header, encode_evict_notice, encode_snapshot_chunks,
    encode_stats_report, is_stats_query, peek_delta_push_serials, peek_snapshot_chunk_offset,
    HelloScope, SnapshotResume,
};
use darkdns_dns::{Serial, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use crate::lockdep::{self, TrackedMutex};
use mio_shim::{Epoll, Events, Interest, Token, WakeupFd};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The wakeup eventfd's reserved token (slot tokens are slab indices).
const WAKE_TOKEN: usize = usize::MAX;

/// Cross-thread announcement channel into the reactor: work is staged
/// under the pending mutex (a leaf lock — safe to take from waker and
/// ready-hook context) and the eventfd interrupts the epoll wait.
pub(super) struct ReactorShared {
    // lock-level: 50
    pub(super) pending: TrackedMutex<Pending>,
    pub(super) wakeup: WakeupFd,
    pub(super) stop: AtomicBool,
}

impl ReactorShared {
    pub(super) fn new() -> std::io::Result<ReactorShared> {
        Ok(ReactorShared {
            pending: TrackedMutex::new(&lockdep::REACTOR_PENDING, Pending::default()),
            wakeup: WakeupFd::new()?,
            stop: AtomicBool::new(false),
        })
    }

    /// Stage work and poke the loop.
    pub(super) fn announce(&self, stage: impl FnOnce(&mut Pending)) {
        stage(&mut self.pending.lock());
        self.wakeup.wake();
    }
}

#[derive(Default)]
pub(super) struct Pending {
    pub(super) conns: Vec<NewPipeConn>,
    pub(super) listeners: Vec<TcpListener>,
    pub(super) woken: Vec<usize>,
}

/// A pipe-backed connection handed over by `BrokerServer::serve_conn`.
pub(super) struct NewPipeConn {
    pub(super) end: PipeEnd,
    pub(super) max_frame_len: Option<usize>,
    pub(super) script: Option<FaultScript>,
}

/// Spawn target: the reactor loop for one server.
pub(super) fn run(inner: Arc<ServerInner>) {
    let Ok(epoll) = Epoll::new() else { return };
    let shared = Arc::clone(&inner.reactor);
    if epoll.register(shared.wakeup.raw_fd(), Token(WAKE_TOKEN), Interest::READABLE).is_err() {
        return;
    }
    Reactor {
        inner,
        shared,
        epoll,
        slots: Vec::new(),
        free: Vec::new(),
        completed: Vec::new(),
        trains: BTreeMap::new(),
    }
    .run();
}

enum Slot {
    Free,
    Listener(TcpListener),
    Conn(Box<Conn>),
}

/// Both byte-stream shapes a connection can have; pipes are fd-less and
/// readiness-driven through hooks instead of epoll.
enum ConnIo {
    Tcp(TcpStream),
    Pipe(PipeEnd),
}

impl Read for ConnIo {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ConnIo::Tcp(s) => s.read(buf),
            ConnIo::Pipe(p) => p.read(buf),
        }
    }
}

impl Write for ConnIo {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ConnIo::Tcp(s) => s.write(buf),
            ConnIo::Pipe(p) => p.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            ConnIo::Tcp(s) => s.write_vectored(bufs),
            ConnIo::Pipe(p) => p.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ConnIo::Tcp(s) => s.flush(),
            ConnIo::Pipe(p) => p.flush(),
        }
    }
}

enum Stage {
    /// Waiting for the first frame (bounded by the handshake timeout).
    Handshaking { deadline: Instant },
    /// A live subscriber: queue→ring transfer plus heartbeats.
    Streaming { sub: BrokerSubscription, entry: Arc<ConnStatsEntry> },
    /// Flush the ring, then close (stats replies, eviction notices,
    /// fault-severed connections).
    Draining,
}

/// Why a connection is being closed — maps onto the server counters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CloseWhy {
    /// Handshake never completed acceptably.
    RejectedHello,
    /// A live connection died (peer gone, write error, write stall,
    /// scripted cut).
    Disconnect,
    /// Orderly end of a drained connection; no counter.
    Quiet,
}

struct Conn {
    io: ConnIo,
    assembler: FrameAssembler,
    ring: OutRing,
    stage: Stage,
    script: Option<FaultScript>,
    /// This connection's frame bound (mirrors the assembler's): no
    /// composed frame may declare more — the peer would reject it.
    max_frame: usize,
    /// Mid-snapshot resume claims from the HELLO, consumed when the
    /// matching shard's bootstrap snapshot is chunked out.
    resume: BTreeMap<u16, SnapshotResume>,
    /// Wake-dedup flag shared with this connection's waker/ready hook:
    /// set on signal, cleared when the reactor services the token.
    queued: Arc<AtomicBool>,
    /// Heartbeat clock: last byte received or frame composed.
    last_io: Instant,
    /// Write-stall clock: last time the stream accepted ring bytes
    /// (reset when the ring goes from empty to non-empty).
    last_progress: Instant,
    /// Whether `EPOLLOUT` is currently registered (TCP only).
    want_write: bool,
    /// A torn-frame fault flushed: sever instead of closing cleanly.
    sever_after_flush: bool,
}

impl Conn {
    /// Push a composed frame, arming the write-stall clock when the
    /// ring transitions from empty.
    fn push_frame(&mut self, frame: RingFrame, now: Instant) {
        if self.ring.is_empty() {
            self.last_progress = now;
        }
        self.last_io = now;
        self.ring.push(frame);
    }

    fn next_fault(&self) -> FrameFault {
        self.script.as_ref().map(FaultScript::next_fault).unwrap_or(FrameFault::Deliver)
    }
}

/// What composing one protocol frame did to the connection.
enum Composed {
    /// Frame staged (possibly twice); keep going.
    Staged,
    /// A fault turned the connection terminal (torn frame staged or
    /// immediate cut); `Some` means close now with this reason.
    Terminal(Option<CloseWhy>),
}

/// One shard's bootstrap, already encoded: the `RZUC` train of the
/// checkpoint this server last served at its default chunk size.
struct CachedTrain {
    /// The capture the chunks encode, held to recognise it again by
    /// storage identity ([`ZoneSnapshot::same_capture`]) — normally the
    /// very columns the broker's checkpoint holds, so no extra copy.
    snapshot: ZoneSnapshot,
    /// The whole train, from entry 0.
    frames: Vec<Bytes>,
}

struct Reactor {
    inner: Arc<ServerInner>,
    shared: Arc<ReactorShared>,
    epoll: Epoll,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Scratch for flush completion records (reused across services).
    completed: Vec<CompletedFrame>,
    /// Encode-once bootstraps: one cached train per shard, replaced when
    /// a newer checkpoint is served. Reactor-thread state — every
    /// connection is serviced here, so it needs no lock.
    trains: BTreeMap<u16, CachedTrain>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        let tick = self.inner.config.writer_tick;
        // The sweep walks every slot (deadlines, heartbeats, write
        // stalls). Under fan-out load the loop turns over far faster
        // than the tick; pace the O(connections) walk so a 10k-conn
        // fleet pays for it on the tick clock, not per event batch.
        let sweep_every = tick / 4;
        let mut last_sweep = Instant::now();
        loop {
            if self.shared.stop.load(Ordering::Relaxed) {
                return; // dropping self closes every conn and listener
            }
            let _ = self.epoll.wait(&mut events, Some(tick));
            if self.shared.stop.load(Ordering::Relaxed) {
                return;
            }
            let mut fd_work: Vec<(usize, bool, bool)> = Vec::new();
            for event in events.iter() {
                if event.token().0 == WAKE_TOKEN {
                    self.shared.wakeup.drain();
                } else {
                    fd_work.push((event.token().0, event.is_readable(), event.is_writable()));
                }
            }
            for (idx, readable, writable) in fd_work {
                match self.slots.get(idx) {
                    Some(Slot::Listener(_)) => self.accept_burst(idx),
                    Some(Slot::Conn(_)) => self.service(idx, readable, writable),
                    _ => {}
                }
            }
            let staged = {
                let mut pending = self.shared.pending.lock();
                std::mem::take(&mut *pending)
            };
            for listener in staged.listeners {
                self.add_listener(listener);
            }
            for conn in staged.conns {
                self.add_pipe_conn(conn);
            }
            for idx in staged.woken {
                if matches!(self.slots.get(idx), Some(Slot::Conn(_))) {
                    self.service(idx, false, false);
                }
            }
            if last_sweep.elapsed() >= sweep_every {
                self.sweep();
                last_sweep = Instant::now();
            }
        }
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(idx) = self.free.pop() {
            idx
        } else {
            self.slots.push(Slot::Free);
            self.slots.len().saturating_sub(1)
        }
    }

    /// Bounds-checked slot store (the reactor is a declared panic-free
    /// module — rule L3 — so no indexed assignment on the hot path).
    /// Tokens come from `alloc_slot`, so the index is always in range;
    /// an out-of-range store is silently ignored rather than panicking
    /// the whole fleet's event loop.
    fn set_slot(&mut self, idx: usize, slot: Slot) {
        if let Some(entry) = self.slots.get_mut(idx) {
            *entry = slot;
        }
    }

    /// Bounds-checked slot take: replaces the slot with `Free` and
    /// returns the previous value (`Free` for out-of-range tokens).
    fn take_slot(&mut self, idx: usize) -> Slot {
        match self.slots.get_mut(idx) {
            Some(entry) => std::mem::replace(entry, Slot::Free),
            None => Slot::Free,
        }
    }

    fn add_listener(&mut self, listener: TcpListener) {
        let idx = self.alloc_slot();
        if self.epoll.register(listener.as_raw_fd(), Token(idx), Interest::READABLE).is_err() {
            self.free.push(idx);
            return;
        }
        self.set_slot(idx, Slot::Listener(listener));
    }

    /// Drain an accept burst to `WouldBlock` — the sleep-poll acceptor,
    /// folded into the event loop.
    fn accept_burst(&mut self, listener_idx: usize) {
        loop {
            let accepted = match self.slots.get(listener_idx) {
                Some(Slot::Listener(listener)) => listener.accept(),
                _ => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    let idx = self.alloc_slot();
                    if self
                        .epoll
                        .register(stream.as_raw_fd(), Token(idx), Interest::READABLE)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    let conn = Box::new(self.new_conn(ConnIo::Tcp(stream), None));
                    self.set_slot(idx, Slot::Conn(conn));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn add_pipe_conn(&mut self, new: NewPipeConn) {
        let NewPipeConn { mut end, max_frame_len, script } = new;
        self.inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
        end.set_nonblocking(true);
        let idx = self.alloc_slot();
        let mut conn = self.new_conn(ConnIo::Pipe(end), max_frame_len);
        conn.script = script;
        // Hook before first service: anything the client wrote before
        // (or writes after) this point is either seen by the immediate
        // service below or signals the hook — no lost readiness.
        if let ConnIo::Pipe(end) = &conn.io {
            end.set_ready_hook(Some(self.make_waker(idx, &conn.queued)));
        }
        self.set_slot(idx, Slot::Conn(Box::new(conn)));
        self.service(idx, true, true);
    }

    fn new_conn(&self, io: ConnIo, max_frame_len: Option<usize>) -> Conn {
        let now = Instant::now();
        let max_frame = max_frame_len.unwrap_or(self.inner.config.max_frame_len);
        Conn {
            io,
            assembler: FrameAssembler::new(max_frame),
            ring: OutRing::new(),
            stage: Stage::Handshaking { deadline: now + self.inner.config.handshake_timeout },
            script: None,
            max_frame,
            resume: BTreeMap::new(),
            queued: Arc::new(AtomicBool::new(false)),
            last_io: now,
            last_progress: now,
            want_write: false,
            sever_after_flush: false,
        }
    }

    /// The token-enqueue callback shared by broker-subscription wakers
    /// and pipe ready hooks: collapse signal storms through the
    /// connection's `queued` flag, then stage the token and poke the
    /// eventfd. Runs under a subscriber queue lock or a pipe-half lock;
    /// touches only leaf state.
    fn make_waker(&self, idx: usize, queued: &Arc<AtomicBool>) -> SubWaker {
        let shared = Arc::clone(&self.shared);
        let queued = Arc::clone(queued);
        Arc::new(move || {
            if !queued.swap(true, Ordering::AcqRel) {
                shared.pending.lock().woken.push(idx);
                shared.wakeup.wake();
            }
        })
    }

    /// Drive one connection: inbound frames, queue→ring transfer, ring
    /// flush, drain-close.
    fn service(&mut self, idx: usize, readable: bool, writable: bool) {
        let mut conn = match self.take_slot(idx) {
            Slot::Conn(conn) => conn,
            other => {
                self.set_slot(idx, other);
                return;
            }
        };
        conn.queued.store(false, Ordering::Release);
        // Pipes carry no per-direction readiness detail — their hook
        // fires for any transition — so always poll their inbound side.
        let read_side = readable || matches!(conn.io, ConnIo::Pipe(_));
        let _ = writable; // flushing is unconditional below
        let mut close = if read_side { self.read_inbound(&mut conn, idx) } else { None };
        if close.is_none() {
            close = self.pump(&mut conn);
        }
        if close.is_none() {
            close = self.flush(&mut conn, idx);
        }
        match close {
            Some(why) => self.finalize_close(idx, conn, why),
            None => self.set_slot(idx, Slot::Conn(conn)),
        }
    }

    /// Read inbound bytes through the shared framing state machine.
    fn read_inbound(&mut self, conn: &mut Conn, idx: usize) -> Option<CloseWhy> {
        loop {
            match conn.assembler.read_from(&mut conn.io) {
                Ok(FrameProgress::Frame(frame)) => {
                    conn.last_io = Instant::now();
                    if let Stage::Handshaking { .. } = conn.stage {
                        if let Some(why) = self.classify_first_frame(conn, idx, frame) {
                            return Some(why);
                        }
                    }
                    // Post-handshake inbound frames have no meaning in
                    // the protocol; they are drained and ignored, as
                    // the writer-thread server (which never read after
                    // the handshake) effectively did.
                }
                Ok(FrameProgress::Pending) => return None,
                Ok(FrameProgress::Closed) | Err(_) => {
                    return Some(match conn.stage {
                        Stage::Handshaking { .. } => CloseWhy::RejectedHello,
                        Stage::Streaming { .. } => CloseWhy::Disconnect,
                        Stage::Draining => CloseWhy::Quiet,
                    });
                }
            }
        }
    }

    /// The handshake: an `RZUQ` scrape gets the stats report and
    /// drains; an `RZUH` with validated claims becomes a subscriber;
    /// anything else is rejected.
    fn classify_first_frame(
        &mut self,
        conn: &mut Conn,
        idx: usize,
        frame: Bytes,
    ) -> Option<CloseWhy> {
        if is_stats_query(&frame) {
            // Count first so the reply's counters include this query.
            self.inner.stats.stats_queries.fetch_add(1, Ordering::Relaxed);
            let report = encode_stats_report(&build_stats_report(&self.inner));
            conn.stage = Stage::Draining;
            return match self.compose(conn, None, report, FrameKind::Stats) {
                Composed::Terminal(why) => why,
                Composed::Staged => None,
            };
        }
        let Ok(hello) = decode_hello_frame(&frame) else {
            return Some(CloseWhy::RejectedHello);
        };
        let wire_claims = hello.claims;
        let mut claims = Vec::with_capacity(wire_claims.len());
        for claim in &wire_claims {
            let tld = TldId(claim.tld);
            // Untrusted claim: `subscribe_with` panics on unknown TLDs
            // (an in-process caller bug); a remote peer just gets
            // rejected.
            if !self.inner.broker.has_shard(tld) {
                return Some(CloseWhy::RejectedHello);
            }
            claims.push((tld, claim.from_serial));
        }
        // Resume claims are kept only for TLDs the peer actually
        // claimed (bounding the map by the validated claim set); they
        // are consumed when the matching bootstrap snapshot is served.
        conn.resume = hello
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
            coalesced_frames: std::sync::atomic::AtomicU64::new(0),
            buffered_bytes: std::sync::atomic::AtomicU64::new(0),
            claims: TrackedMutex::new(
                &lockdep::CONN_CLAIMS,
                wire_claims.iter().map(|c| (c.tld, c.from_serial)).collect::<BTreeMap<_, _>>(),
            ),
        });
        self.inner.conns.lock().insert(sub.id(), Arc::clone(&entry));
        // Waker before drain: nothing enqueued before installation is
        // re-signalled, but this service call drains the queue right
        // after classify returns.
        sub.set_waker(Some(self.make_waker(idx, &conn.queued)));
        conn.stage = Stage::Streaming { sub, entry };
        None
    }

    /// Transfer queued broker messages into the outbound ring while it
    /// has room — the readiness-model replacement for the writer
    /// thread's `next_wait` + batch drain. The ring caps are the
    /// backpressure valve: a stalled peer stops the transfer here and
    /// the broker's overflow policy handles the rest at the queue.
    fn pump(&mut self, conn: &mut Conn) -> Option<CloseWhy> {
        loop {
            let Stage::Streaming { sub, .. } = &conn.stage else { return None };
            if !conn.ring.has_room() {
                return None;
            }
            let Some(msg) = sub.try_next() else {
                if sub.is_evicted() {
                    // The explicit slow-subscriber signal: tell the
                    // peer, flush, close — it reconnects with claims.
                    self.inner.stats.evict_notices.fetch_add(1, Ordering::Relaxed);
                    self.end_streaming(conn);
                    return match self.compose(
                        conn,
                        None,
                        encode_evict_notice(),
                        FrameKind::Evict,
                    ) {
                        Composed::Terminal(why) => why,
                        Composed::Staged => None,
                    };
                }
                return None;
            };
            let composed = match msg {
                BrokerMessage::Snapshot { tld, snapshot } => {
                    // Chunked bootstrap: the snapshot is encoded as a
                    // sequence of `RZUC` frames, each under the
                    // connection's frame bound (half the bound as the
                    // byte target leaves headroom for the one-entry
                    // overshoot `encode_snapshot_chunks` allows), so a
                    // checkpoint of any size traverses the bound
                    // instead of producing an oversized write. A HELLO
                    // resume claim that still matches the served serial
                    // starts the sequence at the peer's last received
                    // chunk boundary. All chunks of one bootstrap stage
                    // together (the ring's byte cap gates admission of
                    // *further* messages, same backpressure the single
                    // monolithic frame produced). The frames themselves
                    // come from the per-shard train cache whenever they
                    // can: see `snapshot_train`.
                    let start = conn
                        .resume
                        .remove(&tld.0)
                        .filter(|r| r.serial == snapshot.serial())
                        .map(|r| r.entries as usize)
                        .unwrap_or(0);
                    let chunks = self.snapshot_train(tld.0, &snapshot, start, conn.max_frame);
                    let total = chunks.len();
                    let mut outcome = Composed::Staged;
                    for (i, chunk) in chunks.into_iter().enumerate() {
                        let kind = FrameKind::Snapshot { tld: tld.0, last: i + 1 == total };
                        outcome = self.compose(conn, None, chunk, kind);
                        if matches!(outcome, Composed::Terminal(_)) {
                            break;
                        }
                    }
                    outcome
                }
                BrokerMessage::Delta { tld, frame } => {
                    // Allocation-free peek: the serial this frame
                    // advances the peer to, recorded when it completes.
                    let to_serial =
                        peek_delta_push_serials(&frame).map(|(_, to)| to.0).unwrap_or(0);
                    self.compose(
                        conn,
                        Some(delta_envelope_header(tld.0)),
                        frame,
                        FrameKind::Delta { tld: tld.0, to_serial },
                    )
                }
            };
            match composed {
                Composed::Staged => {}
                Composed::Terminal(why) => return why,
            }
        }
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
    /// The reactor therefore keeps, per shard, the whole train of the
    /// checkpoint it last served at the server's default chunk size, and
    /// every later bootstrap of that capture — and every resume that
    /// lands on one of its chunk boundaries, which is where a client cut
    /// mid-train always resumes — stages refcount-shared clones: N
    /// joiners hold one copy, and none of them waits on an O(zone)
    /// encode on the fleet's only transport thread. Anything else (a
    /// connection with its own frame bound, hence its own chunk size; a
    /// resume offset that is not a boundary of the cached train) is
    /// encoded for that connection alone, as every bootstrap used to be.
    ///
    /// This is the only `encode_snapshot_chunks` call the transport may
    /// contain (`docs/INVARIANTS.md` L4).
    fn snapshot_train(
        &mut self,
        tld: u16,
        snapshot: &ZoneSnapshot,
        start: usize,
        max_frame: usize,
    ) -> Vec<Bytes> {
        let chunk_bytes = self.chunk_bytes_for(max_frame);
        let shareable = chunk_bytes == self.chunk_bytes_for(self.inner.config.max_frame_len);
        if shareable {
            let tail = self
                .trains
                .get(&tld)
                .filter(|train| train.snapshot.same_capture(snapshot))
                .and_then(|train| {
                    let starts_here = |frame: &Bytes| {
                        peek_snapshot_chunk_offset(frame).is_ok_and(|at| at as usize == start)
                    };
                    train.frames.get(train.frames.iter().position(starts_here)?..)
                });
            if let Some(tail) = tail {
                return tail.to_vec();
            }
        }
        let frames = encode_snapshot_chunks(tld, snapshot, start, chunk_bytes);
        self.inner.stats.snapshot_trains_encoded.fetch_add(1, Ordering::Relaxed);
        if shareable && start == 0 {
            let train = CachedTrain { snapshot: snapshot.clone(), frames: frames.clone() };
            self.trains.insert(tld, train);
        }
        frames
    }

    /// Stage one protocol frame, consulting the connection's fault
    /// script (heartbeats bypass scripts and are pushed directly by the
    /// idle sweep). Mirrors the wire behaviour of the writer-thread
    /// fault harness: duplicates deliver twice but count once; a
    /// corrupt frame flips one byte of the whole payload (envelope
    /// included); a truncating fault promises the full length, delivers
    /// a strict prefix, then severs; `CutBefore` severs without
    /// sending.
    fn compose(
        &mut self,
        conn: &mut Conn,
        envelope: Option<[u8; 6]>,
        payload: Bytes,
        kind: FrameKind,
    ) -> Composed {
        let now = Instant::now();
        // Never stage a frame the peer's assembler is guaranteed to
        // reject: an oversized write would desynchronize the stream
        // (the peer reads garbage lengths from the middle of it).
        // Snapshots are chunked under the bound before they get here,
        // so this trips only for a single delta larger than the frame
        // bound — the blocking transport returns `FrameTooLarge` for
        // the same condition; the reactor's equivalent of that typed
        // error is a counted disconnect, after which the peer resyncs
        // via a (chunked, bound-respecting) snapshot.
        if envelope.map_or(0, |e| e.len()) + payload.len() > conn.max_frame {
            self.end_streaming(conn);
            return Composed::Terminal(Some(CloseWhy::Disconnect));
        }
        let make = |payload: Bytes, counted: bool| match envelope {
            Some(env) => RingFrame::with_envelope(&env, payload, kind, counted),
            None => RingFrame::plain(payload, kind, counted),
        };
        match conn.next_fault() {
            FrameFault::Deliver => {
                conn.push_frame(make(payload, true), now);
                Composed::Staged
            }
            FrameFault::Duplicate => {
                conn.push_frame(make(payload.clone(), true), now);
                conn.push_frame(make(payload, false), now);
                Composed::Staged
            }
            FrameFault::CorruptByte(i) => {
                let mut whole: Vec<u8> =
                    Vec::with_capacity(envelope.map_or(0, |e| e.len()) + payload.len());
                if let Some(env) = envelope {
                    whole.extend_from_slice(&env);
                }
                whole.extend_from_slice(&payload);
                if !whole.is_empty() {
                    let at = i % whole.len();
                    if let Some(byte) = whole.get_mut(at) {
                        *byte ^= 0xFF;
                    }
                }
                conn.push_frame(RingFrame::plain(Bytes::from(whole), kind, true), now);
                Composed::Staged
            }
            FrameFault::TruncateAndCut(n) => {
                let mut whole: Vec<u8> =
                    Vec::with_capacity(envelope.map_or(0, |e| e.len()) + payload.len());
                if let Some(env) = envelope {
                    whole.extend_from_slice(&env);
                }
                whole.extend_from_slice(&payload);
                // Promise the whole payload, deliver a strict prefix,
                // then partition: the peer is left mid-frame.
                let keep = n.min(whole.len().saturating_sub(1));
                let declared = whole.len();
                whole.truncate(keep);
                conn.push_frame(RingFrame::torn(declared, Bytes::from(whole)), now);
                conn.sever_after_flush = true;
                self.end_streaming(conn);
                Composed::Terminal(None)
            }
            FrameFault::CutBefore => {
                Self::sever(conn);
                Composed::Terminal(Some(CloseWhy::Disconnect))
            }
        }
    }

    /// Hard-sever the connection the way the scripted faults demand:
    /// pipes cut both directions (in-flight bytes drain, then reset);
    /// TCP connections simply close on drop.
    fn sever(conn: &mut Conn) {
        if let ConnIo::Pipe(end) = &conn.io {
            end.cut_handle().cut();
        }
    }

    /// Leave `Streaming`: deregister the stats row and drop the
    /// subscription (the broker reaps it at the next publish).
    fn end_streaming(&mut self, conn: &mut Conn) {
        if let Stage::Streaming { sub, .. } =
            std::mem::replace(&mut conn.stage, Stage::Draining)
        {
            self.inner.conns.lock().remove(&sub.id());
        }
    }

    /// Flush the ring and account for everything that reached the
    /// stream: sent counters, per-connection claims, and coalescing
    /// credits (frames sharing one vectored write).
    fn flush(&mut self, conn: &mut Conn, idx: usize) -> Option<CloseWhy> {
        if conn.ring.is_empty() {
            self.set_want_write(conn, idx, false);
            return match conn.stage {
                Stage::Draining => Some(self.drain_done(conn)),
                _ => None,
            };
        }
        let before = conn.ring.unsent_bytes();
        self.completed.clear();
        let mut completed = std::mem::take(&mut self.completed);
        let status = conn.ring.flush_into(&mut conn.io, &mut completed);
        let now = Instant::now();
        if conn.ring.unsent_bytes() < before {
            conn.last_progress = now;
        }
        self.account(conn, &completed);
        completed.clear();
        self.completed = completed;
        if let Stage::Streaming { entry, .. } = &conn.stage {
            entry.buffered_bytes.store(conn.ring.unsent_bytes() as u64, Ordering::Relaxed);
        }
        match status {
            Err(_) => Some(match conn.stage {
                Stage::Streaming { .. } => CloseWhy::Disconnect,
                Stage::Handshaking { .. } => CloseWhy::RejectedHello,
                Stage::Draining => {
                    if conn.sever_after_flush {
                        // The torn frame's tail never got out; the peer
                        // is mid-frame anyway. Sever as scripted.
                        Self::sever(conn);
                        CloseWhy::Disconnect
                    } else {
                        CloseWhy::Quiet
                    }
                }
            }),
            Ok(FlushStatus::Drained) => {
                self.set_want_write(conn, idx, false);
                match conn.stage {
                    Stage::Draining => Some(self.drain_done(conn)),
                    _ => None,
                }
            }
            Ok(FlushStatus::Blocked) => {
                self.set_want_write(conn, idx, true);
                None
            }
        }
    }

    /// A draining connection's ring is empty: finish it. A scripted
    /// sever counts as a disconnect (the write path used to surface
    /// `Closed` there); orderly drains (stats replies, eviction
    /// notices) close quietly.
    fn drain_done(&mut self, conn: &mut Conn) -> CloseWhy {
        if conn.sever_after_flush {
            Self::sever(conn);
            CloseWhy::Disconnect
        } else {
            CloseWhy::Quiet
        }
    }

    /// Completion accounting. Frames sharing a `write_seq` left in one
    /// vectored write: if that write carried k ≥ 2 counted message
    /// frames, it saved k-1 syscalls over frame-at-a-time writing —
    /// credited to the server counters, the connection's stats row, and
    /// each ridden-along frame's shard.
    fn account(&mut self, conn: &mut Conn, completed: &[CompletedFrame]) {
        let stats = &self.inner.stats;
        let entry = match &conn.stage {
            Stage::Streaming { entry, .. } => Some(entry),
            _ => None,
        };
        let mut rest = completed;
        while let Some(first) = rest.first() {
            let seq = first.write_seq;
            let run_len = rest.iter().take_while(|f| f.write_seq == seq).count();
            let (run, tail) = rest.split_at(run_len);
            rest = tail;
            let mut messages = 0u64;
            let mut ride_along: Vec<TldId> = Vec::new();
            for &frame in run {
                match frame.kind {
                    FrameKind::Snapshot { tld, last } => {
                        if frame.counted {
                            // Bootstraps are counted per snapshot, not
                            // per continuation chunk.
                            if last {
                                stats.snapshots_sent.fetch_add(1, Ordering::Relaxed);
                            }
                            if messages > 0 {
                                ride_along.push(TldId(tld));
                            }
                            messages += 1;
                        }
                    }
                    FrameKind::Delta { tld, to_serial } => {
                        if frame.counted {
                            stats.deltas_sent.fetch_add(1, Ordering::Relaxed);
                            if let Some(entry) = entry {
                                entry.claims.lock().insert(tld, Some(Serial(to_serial)));
                            }
                            if messages > 0 {
                                ride_along.push(TldId(tld));
                            }
                            messages += 1;
                        }
                    }
                    FrameKind::Torn => conn.sever_after_flush = true,
                    FrameKind::Evict | FrameKind::Heartbeat | FrameKind::Stats => {}
                }
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
    }

    /// Toggle `EPOLLOUT` interest to track ring occupancy (TCP only;
    /// pipe writability arrives via the ready hook regardless).
    fn set_want_write(&self, conn: &mut Conn, idx: usize, want: bool) {
        if conn.want_write == want {
            return;
        }
        conn.want_write = want;
        if let ConnIo::Tcp(stream) = &conn.io {
            let interest = if want {
                Interest::READABLE.add(Interest::WRITABLE)
            } else {
                Interest::READABLE
            };
            let _ = self.epoll.modify(stream.as_raw_fd(), Token(idx), interest);
        }
    }

    /// Time-based duties, once per loop iteration: handshake deadlines,
    /// idle heartbeats on the writer tick, and the write-stall bound.
    fn sweep(&mut self) {
        let now = Instant::now();
        let tick = self.inner.config.writer_tick;
        let stall = self.inner.config.write_timeout;
        let mut closes: Vec<(usize, CloseWhy)> = Vec::new();
        let mut flushes: Vec<usize> = Vec::new();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Slot::Conn(conn) = slot else { continue };
            match conn.stage {
                Stage::Handshaking { deadline } => {
                    if now >= deadline {
                        closes.push((idx, CloseWhy::RejectedHello));
                    }
                }
                Stage::Streaming { .. } => {
                    if !conn.ring.is_empty() {
                        if now.duration_since(conn.last_progress) >= stall {
                            // A wedged-but-open peer: the old writer's
                            // send timeout, readiness-style.
                            closes.push((idx, CloseWhy::Disconnect));
                        }
                    } else if now.duration_since(conn.last_io) >= tick {
                        // Idle heartbeat: an empty frame the client
                        // skips; its failure is how the server notices
                        // a silently dead peer. Bypasses fault scripts.
                        conn.push_frame(RingFrame::heartbeat(), now);
                        flushes.push(idx);
                    }
                }
                Stage::Draining => {
                    if !conn.ring.is_empty() && now.duration_since(conn.last_progress) >= stall {
                        closes.push((idx, CloseWhy::Disconnect));
                    }
                }
            }
        }
        for (idx, why) in closes {
            if let Slot::Conn(conn) = self.take_slot(idx) {
                self.finalize_close(idx, conn, why);
            }
        }
        for idx in flushes {
            self.service(idx, false, true);
        }
    }

    fn finalize_close(&mut self, idx: usize, mut conn: Box<Conn>, why: CloseWhy) {
        match why {
            CloseWhy::RejectedHello => {
                self.inner.stats.rejected_hellos.fetch_add(1, Ordering::Relaxed);
            }
            CloseWhy::Disconnect => {
                self.inner.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            }
            CloseWhy::Quiet => {}
        }
        self.end_streaming(&mut conn);
        if let ConnIo::Tcp(stream) = &conn.io {
            let _ = self.epoll.deregister(stream.as_raw_fd());
        }
        // Dropping the conn closes the fd / pipe end: the peer sees EOF
        // (or the scripted reset, if a sever already hit the pipe).
        drop(conn);
        self.set_slot(idx, Slot::Free);
        self.free.push(idx);
    }
}
