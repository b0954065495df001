//! The readiness-driven event loop: every connection of one server on
//! one thread, whatever protocol it speaks.
//!
//! This is the workspace's **only** event loop (`docs/INVARIANTS.md`
//! L5). It is generic over a small per-protocol handler — [`Protocol`],
//! statically dispatched — and owns everything that is not protocol:
//!
//! * **TCP connections** are non-blocking fds on an epoll instance
//!   (vendored shim: `mio_shim`). Write readiness (`EPOLLOUT`) is
//!   registered only while a connection's outbound ring holds unsent
//!   bytes, so an idle fleet costs zero wakeups; read readiness is
//!   dropped while the ring is full (the read gate, below).
//! * **Pipe connections** (tests, fault harness) have no fd. Their
//!   readiness arrives through the pipe's ready hook
//!   ([`PipeEnd::set_ready_hook`]), which enqueues the connection token
//!   and pokes the reactor's [`WakeupFd`] — the same path a protocol's
//!   own wake source uses ([`Conn::waker`]; the broker installs it on a
//!   subscription queue).
//! * **TCP listeners** are registered like any other readable fd; an
//!   accept burst is drained to `WouldBlock` in the event handler.
//!
//! One connection service is `read → fill → flush`: inbound frames go
//! to [`Protocol::on_frame`], [`Protocol::fill`] tops the ring up from
//! whatever the protocol streams, and the ring is flushed with vectored
//! writes, completions reported to [`Protocol::flushed`]. On the tick
//! clock a sweep enforces the handshake deadline, sends idle heartbeats
//! (established ∧ not closing ∧ ring empty ∧ idle ≥ tick) and closes
//! peers whose ring made no progress for
//! [`TransportConfig::write_timeout`]. Every close ends in
//! [`Protocol::closed`] with one [`CloseWhy`].
//!
//! # The read gate
//!
//! The ring is the only per-connection buffer, and it is bounded
//! ([`OutRing::has_room`]). A request/response protocol answers into
//! it, so the loop stops pulling inbound frames while the ring is full
//! and resumes once a flush makes room: a peer that pipelines requests
//! and never reads is parked at a full ring and closed by the
//! write-stall bound, instead of growing the ring without limit.
//! `FrameAssembler` reads exact frame lengths, so nothing is stranded
//! in user space while the gate is shut.
//!
//! The same bound stops [`Protocol::fill`]: a streaming protocol with
//! more queued than the ring holds is cut off at a full ring, and its
//! wake source has already fired for what is still queued. So one
//! service re-enters `read → fill → flush` whenever the ring was left
//! full — by the gate or by `fill` — and the flush made room, until the
//! socket blocks or the source runs dry; otherwise the rest of the
//! queue would wait for the next enqueue or the idle sweep, one
//! `writer_tick` per ring-full.
//!
//! # Lock hierarchy
//!
//! The loop itself takes one lock: the pending mailbox (level 50), a
//! leaf that wakers and ready hooks fill under a subscriber queue lock
//! or a pipe-half lock and that the loop empties holding nothing else.
//! The join-handle registry (70) is touched only at start, relay attach
//! and shutdown. Whatever a handler locks (the broker's handshake is
//! the transport's one brush with the shard level) it locks from the
//! reactor thread with no reactor lock held.

use super::fault::{FaultInjectedConn, FaultScript, FrameFault};
use super::frame::{FrameAssembler, FrameProgress, LengthPrefixed, MAX_FRAME_LEN};
use super::pipe::{PipeEnd, ReadyHook};
use super::ring::{CompletedFrame, FrameKind, OutRing, RingFrame};
use crate::lockdep::{self, TrackedMutex};
use bytes::Bytes;
use mio_shim::{Epoll, Events, Interest, Token, WakeupFd};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The wakeup eventfd's reserved token (slot tokens are slab indices).
const WAKE_TOKEN: usize = usize::MAX;

/// How long a fresh connection of a handshaking protocol may take to
/// send its HELLO.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Transport tuning. The receive bound is [`MAX_FRAME_LEN`] unless a
/// [`ServedConn`] carries its own.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Idle tick: the reactor's epoll-wait bound, and how long a quiet
    /// connection stays silent before it gets a heartbeat frame (an
    /// empty frame the client skips, which doubles as dead-peer
    /// detection while a subscriber is quiet).
    pub writer_tick: Duration,
    /// How long a connection's outbound ring may sit non-empty without
    /// the peer accepting a single byte before the reactor declares the
    /// connection dead. This bounds the damage of a wedged-but-open
    /// peer: its ring (and, upstream, its broker queue, which lags and
    /// counts) cannot be held hostage forever, and
    /// [`ReactorHandle::shutdown`] never waits on it.
    pub write_timeout: Duration,
    /// Target payload size for one `RZUC` snapshot chunk. Bootstraps
    /// are always chunked: a checkpoint larger than the peer's frame
    /// bound crosses the wire as a resumable chunk train instead of one
    /// oversized frame. The broker's handler clamps this to half the
    /// connection's frame bound so a chunk that overshoots by one entry
    /// still fits.
    pub snapshot_chunk_bytes: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            writer_tick: Duration::from_millis(50),
            write_timeout: Duration::from_secs(10),
            snapshot_chunk_bytes: 1 << 20,
        }
    }
}

/// Why a connection closed — handlers map it onto their counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseWhy {
    /// The handshake never completed acceptably (deadline, bad first
    /// frame, peer gone before it).
    Rejected,
    /// A live connection died: peer gone, write error, write stall,
    /// protocol violation, scripted cut.
    Disconnect,
    /// Orderly end (a drained reply, a clean hangup); no counter.
    Quiet,
}

/// What a wire protocol contributes to the loop. The handler is owned
/// by the reactor thread (`&mut self` everywhere), so its state needs
/// no lock.
pub trait Protocol: Send + 'static {
    /// Per-connection protocol state ([`Conn::state`]).
    type State: Send + 'static;

    /// Whether a fresh connection must complete a handshake
    /// ([`Conn::establish`]) within
    /// [`HANDSHAKE_TIMEOUT`]. Until it does it gets no
    /// heartbeats and its failures count as [`CloseWhy::Rejected`].
    const HANDSHAKE: bool;

    /// A connection was accepted (TCP) or handed over (pipe).
    fn open(&mut self) -> Self::State;

    /// One complete inbound frame; `Some` closes the connection now.
    fn on_frame(&mut self, conn: &mut Conn<Self::State>, frame: Bytes) -> Option<CloseWhy>;

    /// The inbound side ended: clean EOF between frames (`clean`) or a
    /// read error. The default is the phase rule write failures follow
    /// too; a protocol where hanging up between requests is orderly
    /// overrides it.
    fn on_eof(&mut self, conn: &Conn<Self::State>, clean: bool) -> CloseWhy {
        let _ = clean;
        conn.lost()
    }

    /// Top the ring up from whatever this protocol streams, while
    /// [`Conn::has_room`]. Request/response protocols have nothing to
    /// add.
    fn fill(&mut self, conn: &mut Conn<Self::State>) -> Option<CloseWhy> {
        let _ = conn;
        None
    }

    /// Frames whose last byte just reached the stream, in wire order.
    fn flushed(&mut self, conn: &mut Conn<Self::State>, completed: &[CompletedFrame]) {
        let _ = (conn, completed);
    }

    /// The connection is gone; `state` is what [`Protocol::open`] made
    /// of it since.
    fn closed(&mut self, state: Self::State, why: CloseWhy);
}

/// A connection ready to hand to a reactor: the server end of a pipe
/// plus optional per-connection framing bound and fault script. All
/// supported connection shapes convert [`Into`] this — TCP streams
/// never appear here, they arrive through a registered listener.
pub struct ServedConn {
    end: PipeEnd,
    max_frame_len: Option<usize>,
    script: Option<FaultScript>,
}

impl From<PipeEnd> for ServedConn {
    fn from(end: PipeEnd) -> Self {
        ServedConn { end, max_frame_len: None, script: None }
    }
}

impl From<LengthPrefixed<PipeEnd>> for ServedConn {
    fn from(conn: LengthPrefixed<PipeEnd>) -> Self {
        let max = conn.max_frame_len();
        ServedConn { end: conn.into_inner(), max_frame_len: Some(max), script: None }
    }
}

impl From<FaultInjectedConn> for ServedConn {
    fn from(conn: FaultInjectedConn) -> Self {
        ServedConn {
            end: conn.end,
            max_frame_len: Some(conn.max_frame_len),
            script: Some(conn.script),
        }
    }
}

/// Cross-thread state of one reactor: work is staged under the pending
/// mutex (a leaf lock — safe to take from waker and ready-hook context)
/// and the eventfd interrupts the epoll wait.
struct ReactorShared {
    // lock-level: 50
    pending: TrackedMutex<Pending>,
    wakeup: WakeupFd,
    stop: AtomicBool,
    // lock-level: 70
    threads: TrackedMutex<Vec<JoinHandle<()>>>,
}

impl ReactorShared {
    /// Stage work and poke the loop.
    fn announce(&self, stage: impl FnOnce(&mut Pending)) {
        stage(&mut self.pending.lock());
        self.wakeup.wake();
    }
}

#[derive(Default)]
struct Pending {
    conns: Vec<ServedConn>,
    listeners: Vec<TcpListener>,
    woken: Vec<usize>,
}

/// The cross-thread surface of a running reactor: connection and
/// listener hand-off, the thread registry, shutdown. Cheap to clone;
/// all clones address the same loop.
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<ReactorShared>,
}

impl ReactorHandle {
    /// Start a reactor thread running `handler`'s protocol.
    pub fn spawn<P: Protocol>(handler: P, config: TransportConfig) -> ReactorHandle {
        let (mut reactor, handle) = Reactor::new(handler, config);
        let thread = std::thread::spawn(move || reactor.run());
        handle.adopt_thread(thread);
        handle
    }

    /// Stage one in-memory connection; it is serviced on the reactor
    /// thread.
    pub fn serve_conn(&self, conn: ServedConn) {
        self.shared.announce(|pending| pending.conns.push(conn));
    }

    /// Bind a TCP listener and register it with the reactor, which
    /// accepts until [`ReactorHandle::shutdown`]. Returns the bound
    /// address (bind to port 0 for an ephemeral one).
    pub fn listen_tcp(&self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Non-blocking is load-bearing: the reactor drains accept
        // bursts to `WouldBlock` inside the event loop.
        listener.set_nonblocking(true)?;
        self.shared.announce(|pending| pending.listeners.push(listener));
        Ok(local)
    }

    /// Register a helper thread (a relay) to be joined by
    /// [`ReactorHandle::shutdown`]; it must poll
    /// [`ReactorHandle::is_stopping`].
    pub fn adopt_thread(&self, thread: JoinHandle<()>) {
        self.shared.threads.lock().push(thread);
    }

    /// True once [`ReactorHandle::shutdown`] has begun.
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Threads this reactor owns: `1` plus adopted helpers, whatever
    /// the listener or connection count; `0` after shutdown.
    pub fn threads(&self) -> usize {
        self.shared.threads.lock().len()
    }

    /// Stop the loop and join every registered thread: each connection
    /// and listener closes when the reactor drops its slot table.
    /// Bounded even with wedged peers — the loop never blocks in a
    /// write.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.wakeup.wake();
        let drained: Vec<JoinHandle<()>> = self.shared.threads.lock().drain(..).collect();
        for handle in drained {
            let _ = handle.join();
        }
    }
}

enum Slot<S> {
    Free,
    Listener(TcpListener),
    Conn(Box<Conn<S>>),
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

/// One connection as its protocol handler sees it: the protocol's own
/// [`state`](Conn::state) plus the narrow set of things a handler may
/// do to the transport underneath.
pub struct Conn<S> {
    /// What [`Protocol::open`] returned, the handler's to mutate.
    pub state: S,
    io: ConnIo,
    assembler: FrameAssembler,
    ring: OutRing,
    script: Option<FaultScript>,
    /// This connection's frame bound (mirrors the assembler's): no
    /// staged frame may declare more — the peer would reject it.
    max_frame: usize,
    /// Slab index, which is also the epoll token and the wake token.
    token: usize,
    shared: Arc<ReactorShared>,
    /// Wake-dedup flag shared with this connection's wakers: set on
    /// signal, cleared when the reactor services the token.
    queued: Arc<AtomicBool>,
    /// `Some` until the handshake completes (never, for protocols
    /// without one).
    handshake_deadline: Option<Instant>,
    /// Flush the ring, then close with this reason.
    closing: Option<CloseWhy>,
    /// Heartbeat clock: last frame received or staged.
    last_io: Instant,
    /// Write-stall clock: last time the stream accepted ring bytes
    /// (reset when the ring goes from empty to non-empty).
    last_progress: Instant,
    /// What epoll currently watches this fd for (TCP only).
    interest: Interest,
}

impl<S> Conn<S> {
    /// The handshake completed: heartbeats start, and failures count as
    /// disconnects from here on.
    pub fn establish(&mut self) {
        self.handshake_deadline = None;
    }

    /// Still waiting for an acceptable first frame.
    pub fn is_handshaking(&self) -> bool {
        self.handshake_deadline.is_some() && self.closing.is_none()
    }

    /// Flush what is staged, then close with `why`. A drain that ends
    /// in [`CloseWhy::Disconnect`] severs (a pipe is cut both ways, so
    /// the peer sees a reset mid-stream rather than an orderly EOF).
    pub fn close_after_flush(&mut self, why: CloseWhy) {
        self.closing = Some(why);
    }

    /// A drain-then-close is under way; inbound frames no longer matter.
    pub fn is_closing(&self) -> bool {
        self.closing.is_some()
    }

    /// Whether the ring admits more — the backpressure valve for
    /// [`Protocol::fill`], and the read gate's condition.
    pub fn has_room(&self) -> bool {
        self.ring.has_room()
    }

    /// Bytes staged but not yet accepted by the stream.
    pub fn unsent_bytes(&self) -> usize {
        self.ring.unsent_bytes()
    }

    /// This connection's frame bound.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// A callback that gets this connection serviced from any thread —
    /// what a handler installs on its own wake source, and what the
    /// pipe ready hook is. Signal storms collapse through the `queued`
    /// flag; the callback touches only the pending mailbox and the
    /// eventfd, so it is safe under a subscriber queue or pipe-half
    /// lock. A waker that outlives its connection wakes whatever reuses
    /// the slot, which is a harmless extra service.
    pub fn waker(&self) -> ReadyHook {
        let shared = Arc::clone(&self.shared);
        let queued = Arc::clone(&self.queued);
        let token = self.token;
        Arc::new(move || {
            if !queued.swap(true, Ordering::AcqRel) {
                shared.announce(|pending| pending.woken.push(token));
            }
        })
    }

    /// Stage a request's reply (an `RZUQ` report, an `RZUA` answer).
    pub fn reply(&mut self, payload: Bytes) -> Option<CloseWhy> {
        self.stage(None, payload, FrameKind::Reply)
    }

    /// Stage one protocol frame, consulting the connection's fault
    /// script (heartbeats bypass scripts and are pushed directly by the
    /// idle sweep): duplicates deliver twice but count once; a corrupt
    /// frame flips one byte of the whole payload (envelope included); a
    /// truncating fault promises the full length, delivers a strict
    /// prefix, then severs; `CutBefore` severs without sending. `Some`
    /// closes the connection now; after a truncating fault the
    /// connection [`is_closing`](Conn::is_closing).
    pub(super) fn stage(
        &mut self,
        envelope: Option<[u8; 6]>,
        payload: Bytes,
        kind: FrameKind,
    ) -> Option<CloseWhy> {
        let now = Instant::now();
        let whole_len = envelope.map_or(0, |e| e.len()) + payload.len();
        // Never stage a frame the peer's assembler is guaranteed to
        // reject: an oversized write would desynchronize the stream
        // (the peer reads garbage lengths from the middle of it).
        // Snapshots are chunked under the bound before they get here,
        // so this trips only for a single message larger than the frame
        // bound — the blocking transport returns `FrameTooLarge` for
        // the same condition; the reactor's equivalent of that typed
        // error is a counted disconnect, after which a subscriber
        // resyncs via a (chunked, bound-respecting) snapshot.
        if whole_len > self.max_frame {
            return Some(CloseWhy::Disconnect);
        }
        let make = |payload: Bytes, counted: bool| match envelope {
            Some(env) => RingFrame::with_envelope(&env, payload, kind, counted),
            None => RingFrame::plain(payload, kind, counted),
        };
        let whole = || {
            let mut whole: Vec<u8> = Vec::with_capacity(whole_len);
            if let Some(env) = envelope {
                whole.extend_from_slice(&env);
            }
            whole.extend_from_slice(&payload);
            whole
        };
        let fault = self.script.as_ref().map_or(FrameFault::Deliver, FaultScript::next_fault);
        match fault {
            FrameFault::Deliver => self.push_frame(make(payload, true), now),
            FrameFault::Duplicate => {
                self.push_frame(make(payload.clone(), true), now);
                self.push_frame(make(payload, false), now);
            }
            FrameFault::CorruptByte(i) => {
                let mut whole = whole();
                if !whole.is_empty() {
                    let at = i % whole.len();
                    if let Some(byte) = whole.get_mut(at) {
                        *byte ^= 0xFF;
                    }
                }
                self.push_frame(RingFrame::plain(Bytes::from(whole), kind, true), now);
            }
            FrameFault::TruncateAndCut(n) => {
                // Promise the whole payload, deliver a strict prefix,
                // then partition: the peer is left mid-frame.
                let mut whole = whole();
                whole.truncate(n.min(whole_len.saturating_sub(1)));
                self.push_frame(RingFrame::torn(whole_len, Bytes::from(whole)), now);
                self.close_after_flush(CloseWhy::Disconnect);
            }
            FrameFault::CutBefore => {
                self.sever();
                return Some(CloseWhy::Disconnect);
            }
        }
        None
    }

    /// Push a composed frame, arming the write-stall clock when the
    /// ring transitions from empty.
    fn push_frame(&mut self, frame: RingFrame, now: Instant) {
        if self.ring.is_empty() {
            self.last_progress = now;
        }
        self.last_io = now;
        self.ring.push(frame);
    }

    /// Hard-sever the connection the way the scripted faults demand:
    /// pipes cut both directions (in-flight bytes drain, then reset);
    /// TCP connections simply close on drop.
    fn sever(&self) {
        if let ConnIo::Pipe(end) = &self.io {
            end.cut_handle().cut();
        }
    }

    /// The phase rule for a connection lost to an I/O failure: a
    /// closing connection was done anyway, a handshaking one never made
    /// it, anything else was live.
    fn lost(&self) -> CloseWhy {
        if self.closing.is_some() {
            CloseWhy::Quiet
        } else if self.handshake_deadline.is_some() {
            CloseWhy::Rejected
        } else {
            CloseWhy::Disconnect
        }
    }
}

struct Reactor<P: Protocol> {
    handler: P,
    config: TransportConfig,
    shared: Arc<ReactorShared>,
    epoll: Epoll,
    slots: Vec<Slot<P::State>>,
    free: Vec<usize>,
    /// Scratch for flush completion records (reused across services).
    completed: Vec<CompletedFrame>,
}

impl<P: Protocol> Reactor<P> {
    fn new(handler: P, config: TransportConfig) -> (Reactor<P>, ReactorHandle) {
        let created = WakeupFd::new().and_then(|wakeup| {
            let epoll = Epoll::new()?;
            epoll.register(wakeup.raw_fd(), Token(WAKE_TOKEN), Interest::READABLE)?;
            Ok((wakeup, epoll))
        });
        // lint: allow(panic) startup-only: one epoll instance and one
        // eventfd per server, created on the constructing thread before
        // the reactor thread or any traffic exists.
        let (wakeup, epoll) = created.expect("create reactor epoll instance and wakeup eventfd");
        let shared = Arc::new(ReactorShared {
            pending: TrackedMutex::new(&lockdep::REACTOR_PENDING, Pending::default()),
            wakeup,
            stop: AtomicBool::new(false),
            threads: TrackedMutex::new(&lockdep::THREADS, Vec::new()),
        });
        let reactor = Reactor {
            handler,
            config,
            shared: Arc::clone(&shared),
            epoll,
            slots: Vec::new(),
            free: Vec::new(),
            completed: Vec::new(),
        };
        (reactor, ReactorHandle { shared })
    }

    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        let tick = self.config.writer_tick;
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
            // The mailbox is drained after the whole batch, so work
            // staged while a token is serviced is taken whichever side
            // of that token the wakeup event falls.
            for event in events.iter() {
                let idx = event.token().0;
                if idx == WAKE_TOKEN {
                    self.shared.wakeup.drain();
                    continue;
                }
                match self.slots.get(idx) {
                    Some(Slot::Listener(_)) => self.accept_burst(idx),
                    Some(Slot::Conn(_)) => self.service(idx, event.is_readable()),
                    _ => {}
                }
            }
            self.drain_mailbox();
            if last_sweep.elapsed() >= sweep_every {
                self.sweep(Instant::now());
                last_sweep = Instant::now();
            }
        }
    }

    /// Take what other threads staged: new listeners, new pipe
    /// connections, and the tokens wakers asked to have serviced.
    fn drain_mailbox(&mut self) {
        let staged = std::mem::take(&mut *self.shared.pending.lock());
        for listener in staged.listeners {
            self.add_listener(listener);
        }
        for conn in staged.conns {
            self.add_pipe_conn(conn);
        }
        for idx in staged.woken {
            self.service(idx, false);
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

    /// Bounds-checked slot store (this is a declared panic-free module
    /// — rule L3 — so no indexed assignment on the hot path). Tokens
    /// come from `alloc_slot`, so the index is always in range; an
    /// out-of-range store is silently ignored rather than panicking the
    /// whole fleet's event loop.
    fn set_slot(&mut self, idx: usize, slot: Slot<P::State>) {
        if let Some(entry) = self.slots.get_mut(idx) {
            *entry = slot;
        }
    }

    /// Bounds-checked slot take: replaces the slot with `Free` and
    /// returns the previous value (`Free` for out-of-range tokens).
    fn take_slot(&mut self, idx: usize) -> Slot<P::State> {
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

    /// Drain an accept burst to `WouldBlock`.
    fn accept_burst(&mut self, listener_idx: usize) {
        loop {
            let accepted = match self.slots.get(listener_idx) {
                Some(Slot::Listener(listener)) => listener.accept(),
                _ => return,
            };
            let Ok((stream, _peer)) = accepted else { return };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let idx = self.alloc_slot();
            let registered = self.epoll.register(stream.as_raw_fd(), Token(idx), Interest::READABLE);
            let conn = self.new_conn(ConnIo::Tcp(stream), idx, None, None);
            match registered {
                Ok(()) => self.set_slot(idx, Slot::Conn(conn)),
                Err(_) => self.finalize_close(*conn, CloseWhy::Quiet),
            }
        }
    }

    fn add_pipe_conn(&mut self, served: ServedConn) {
        let ServedConn { mut end, max_frame_len, script } = served;
        end.set_nonblocking(true);
        let idx = self.alloc_slot();
        let conn = self.new_conn(ConnIo::Pipe(end), idx, max_frame_len, script);
        // Hook before first service: anything the client wrote before
        // (or writes after) this point is either seen by the immediate
        // service below or signals the hook — no lost readiness.
        if let ConnIo::Pipe(end) = &conn.io {
            end.set_ready_hook(Some(conn.waker()));
        }
        self.set_slot(idx, Slot::Conn(conn));
        self.service(idx, true);
    }

    fn new_conn(
        &mut self,
        io: ConnIo,
        token: usize,
        max_frame_len: Option<usize>,
        script: Option<FaultScript>,
    ) -> Box<Conn<P::State>> {
        let now = Instant::now();
        let max_frame = max_frame_len.unwrap_or(MAX_FRAME_LEN);
        Box::new(Conn {
            state: self.handler.open(),
            io,
            assembler: FrameAssembler::new(max_frame),
            ring: OutRing::new(),
            script,
            max_frame,
            token,
            shared: Arc::clone(&self.shared),
            queued: Arc::new(AtomicBool::new(false)),
            handshake_deadline: P::HANDSHAKE.then(|| now + HANDSHAKE_TIMEOUT),
            closing: None,
            last_io: now,
            last_progress: now,
            interest: Interest::READABLE,
        })
    }

    /// Drive one connection: inbound frames, ring top-up, ring flush,
    /// drain-close. A token whose slot holds no connection (a stale
    /// wake, a listener) is left alone.
    fn service(&mut self, idx: usize, readable: bool) {
        let mut conn = match self.take_slot(idx) {
            Slot::Conn(conn) => conn,
            other => return self.set_slot(idx, other),
        };
        conn.queued.store(false, Ordering::Release);
        // Pipes carry no per-direction readiness detail — their hook
        // fires for any transition — so always poll their inbound side.
        let read_side = readable || matches!(conn.io, ConnIo::Pipe(_));
        let close = loop {
            let read = if read_side { self.read_inbound(&mut conn) } else { None };
            let close = read.or_else(|| self.handler.fill(&mut conn));
            // Reading stops at a dry stream and `fill` at a dry source,
            // each with room left: a full ring here means one of them
            // stopped at the bound, with more perhaps waiting.
            let full = !conn.ring.has_room();
            let close = close.or_else(|| self.flush(&mut conn));
            // Full, and the flush made room: pull what the peer
            // pipelined, or the protocol queued, meanwhile. No readiness
            // event will say so — for a pipe the bytes already arrived,
            // and a queue wakes the loop per enqueue, not per message
            // still waiting.
            if close.is_some() || !full || !conn.ring.has_room() {
                break close;
            }
        };
        match close {
            Some(why) => self.finalize_close(*conn, why),
            None => {
                self.sync_interest(&mut conn);
                self.set_slot(idx, Slot::Conn(conn));
            }
        }
    }

    /// Read inbound frames through the shared framing state machine
    /// while the ring has room for what they may be answered with (the
    /// read gate).
    fn read_inbound(&mut self, conn: &mut Conn<P::State>) -> Option<CloseWhy> {
        while conn.ring.has_room() {
            match conn.assembler.read_from(&mut conn.io) {
                Ok(FrameProgress::Frame(frame)) => {
                    conn.last_io = Instant::now();
                    if let Some(why) = self.handler.on_frame(conn, frame) {
                        return Some(why);
                    }
                }
                Ok(FrameProgress::Pending) => return None,
                Ok(FrameProgress::Closed) => return Some(self.handler.on_eof(conn, true)),
                Err(_) => return Some(self.handler.on_eof(conn, false)),
            }
        }
        None
    }

    /// Flush the ring, report what reached the stream, and finish a
    /// drain-then-close whose ring emptied.
    fn flush(&mut self, conn: &mut Conn<P::State>) -> Option<CloseWhy> {
        if !conn.ring.is_empty() {
            let before = conn.ring.unsent_bytes();
            let mut completed = std::mem::take(&mut self.completed);
            completed.clear();
            let status = conn.ring.flush_into(&mut conn.io, &mut completed);
            if conn.ring.unsent_bytes() < before {
                conn.last_progress = Instant::now();
            }
            self.handler.flushed(conn, &completed);
            self.completed = completed;
            if status.is_err() && conn.closing != Some(CloseWhy::Disconnect) {
                return Some(conn.lost());
            }
            if status.is_ok() && !conn.ring.is_empty() {
                return None; // blocked: wait for writability
            }
        }
        // Drained — or a scripted tear whose tail never got out; the
        // peer is mid-frame either way.
        let why = conn.closing?;
        if why == CloseWhy::Disconnect {
            conn.sever();
        }
        Some(why)
    }

    /// Make epoll watch a TCP connection for what can currently move:
    /// `EPOLLOUT` only while the ring holds unsent bytes, `EPOLLIN` only
    /// while the ring has room (level-triggered epoll would spin on a
    /// gated connection otherwise). A full ring is never empty, so the
    /// set is never empty. Pipe readiness arrives via the ready hook
    /// regardless.
    fn sync_interest(&self, conn: &mut Conn<P::State>) {
        let ConnIo::Tcp(stream) = &conn.io else { return };
        let interest = match (conn.ring.has_room(), conn.ring.is_empty()) {
            (true, true) => Interest::READABLE,
            (true, false) => Interest::READABLE.add(Interest::WRITABLE),
            (false, _) => Interest::WRITABLE,
        };
        if interest != conn.interest {
            conn.interest = interest;
            let _ = self.epoll.modify(stream.as_raw_fd(), Token(conn.token), interest);
        }
    }

    /// Time-based duties on the tick clock: the write-stall bound,
    /// handshake deadlines, idle heartbeats.
    fn sweep(&mut self, now: Instant) {
        let tick = self.config.writer_tick;
        let stall = self.config.write_timeout;
        let mut closes: Vec<(usize, CloseWhy)> = Vec::new();
        let mut flushes: Vec<usize> = Vec::new();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Slot::Conn(conn) = slot else { continue };
            if !conn.ring.is_empty() {
                if now.duration_since(conn.last_progress) >= stall {
                    // A wedged-but-open peer.
                    closes.push((idx, CloseWhy::Disconnect));
                }
            } else if let Some(deadline) = conn.handshake_deadline {
                if now >= deadline {
                    closes.push((idx, CloseWhy::Rejected));
                }
            } else if conn.closing.is_none() && now.duration_since(conn.last_io) >= tick {
                // Idle heartbeat: an empty frame the client skips; its
                // failure is how the server notices a silently dead
                // peer. Bypasses fault scripts.
                conn.push_frame(RingFrame::heartbeat(), now);
                flushes.push(idx);
            }
        }
        for (idx, why) in closes {
            if let Slot::Conn(conn) = self.take_slot(idx) {
                self.finalize_close(*conn, why);
            }
        }
        for idx in flushes {
            self.service(idx, false);
        }
    }

    fn finalize_close(&mut self, conn: Conn<P::State>, why: CloseWhy) {
        let Conn { state, io, token, .. } = conn;
        self.handler.closed(state, why);
        if let ConnIo::Tcp(stream) = &io {
            let _ = self.epoll.deregister(stream.as_raw_fd());
        }
        // Dropping the io closes the fd / pipe end: the peer sees EOF
        // (or the scripted reset, if a sever already hit the pipe).
        drop(io);
        self.set_slot(token, Slot::Free);
        self.free.push(token);
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::{tcp_connect, FrameConn};
    use super::super::pipe::duplex;
    use super::super::ring::MAX_RING_FRAMES;
    use super::*;
    use std::sync::Mutex;

    /// The smallest protocol that exercises the whole handler surface:
    /// `hello` completes the handshake, `bye` / `tear` are answered and
    /// then drain-close quietly / with a sever, anything else is echoed.
    struct Echo {
        closes: Arc<Mutex<Vec<CloseWhy>>>,
    }

    impl Protocol for Echo {
        type State = ();
        const HANDSHAKE: bool = true;

        fn open(&mut self) {}

        fn on_frame(&mut self, conn: &mut Conn<()>, frame: Bytes) -> Option<CloseWhy> {
            match &frame[..] {
                b"hello" => conn.establish(),
                _ if conn.is_handshaking() => return Some(CloseWhy::Rejected),
                b"bye" => conn.close_after_flush(CloseWhy::Quiet),
                b"tear" => conn.close_after_flush(CloseWhy::Disconnect),
                _ => {}
            }
            conn.reply(frame)
        }

        fn closed(&mut self, (): (), why: CloseWhy) {
            self.closes.lock().unwrap().push(why);
        }
    }

    const TICK: Duration = Duration::from_millis(10);
    const STALL: Duration = Duration::from_secs(10);

    fn config() -> TransportConfig {
        TransportConfig {
            writer_tick: TICK,
            write_timeout: STALL,
            ..TransportConfig::default()
        }
    }

    /// A reactor driven by hand on the test thread — no loop thread, no
    /// sleeps: `turn` is one mailbox pass, `sweep` takes its clock.
    struct Rig {
        reactor: Reactor<Echo>,
        handle: ReactorHandle,
        closes: Arc<Mutex<Vec<CloseWhy>>>,
    }

    impl Rig {
        fn new() -> Rig {
            let closes = Arc::new(Mutex::new(Vec::new()));
            let (reactor, handle) = Reactor::new(Echo { closes: Arc::clone(&closes) }, config());
            Rig { reactor, handle, closes }
        }

        /// Serve the far end of a fresh pipe; returns the client end.
        fn connect(&mut self, capacity: usize) -> PipeEnd {
            let (client, server) = duplex(capacity);
            self.handle.serve_conn(server.into());
            self.turn();
            client
        }

        fn turn(&mut self) {
            self.reactor.drain_mailbox();
        }

        fn closes(&self) -> Vec<CloseWhy> {
            self.closes.lock().unwrap().clone()
        }

        fn conn(&self, idx: usize) -> &Conn<()> {
            match self.reactor.slots.get(idx) {
                Some(Slot::Conn(conn)) => conn,
                _ => panic!("slot {idx} holds no connection"),
            }
        }

        /// Bytes the peer has written that the server has not read.
        fn inbound_backlog(&self, idx: usize) -> usize {
            match &self.conn(idx).io {
                ConnIo::Pipe(end) => end.readable_bytes(),
                ConnIo::Tcp(_) => panic!("slot {idx} is not a pipe"),
            }
        }
    }

    fn send(client: &mut PipeEnd, payload: &[u8]) {
        client.write_all(&framed(payload)).unwrap();
    }

    /// Everything the server has put on the wire so far, as raw bytes.
    fn drain(client: &mut PipeEnd) -> Vec<u8> {
        let mut bytes = vec![0; client.readable_bytes()];
        client.read_exact(&mut bytes).unwrap();
        bytes
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        [&(payload.len() as u32).to_be_bytes()[..], payload].concat()
    }

    #[test]
    fn closed_slot_is_reused_and_a_stale_waker_is_a_harmless_service() {
        let mut rig = Rig::new();
        let mut first = rig.connect(1024);
        send(&mut first, b"hello");
        rig.turn();
        let stale = rig.conn(0).waker();
        drop(first);
        rig.turn();
        assert_eq!(rig.closes(), [CloseWhy::Disconnect]);
        assert_eq!(rig.reactor.free, [0]);

        let mut second = rig.connect(1024);
        assert_eq!(rig.reactor.slots.len(), 1, "the freed slot is recycled");
        // The dead connection's waker now names the new one's slot.
        stale();
        rig.turn();
        assert_eq!(rig.closes().len(), 1, "the recycled slot's tenant is untouched");
        send(&mut second, b"hello");
        send(&mut second, b"ping");
        rig.turn();
        assert_eq!(drain(&mut second), [framed(b"hello"), framed(b"ping")].concat());
    }

    #[test]
    fn handshake_deadline_rejects_a_silent_peer() {
        let mut rig = Rig::new();
        let mut client = rig.connect(1024);
        let opened = Instant::now();
        rig.reactor.sweep(opened + TICK);
        assert!(rig.closes().is_empty(), "well before the deadline");
        rig.reactor.sweep(opened + HANDSHAKE_TIMEOUT + TICK);
        assert_eq!(rig.closes(), [CloseWhy::Rejected]);
        assert_eq!(client.read(&mut [0; 1]).unwrap(), 0, "the peer sees EOF");
    }

    #[test]
    fn heartbeat_only_when_established_idle_and_empty() {
        let mut rig = Rig::new();
        let mut client = rig.connect(16);
        rig.reactor.sweep(Instant::now() + TICK);
        assert_eq!(client.readable_bytes(), 0, "no heartbeat before the handshake");

        send(&mut client, b"hello");
        rig.turn();
        assert_eq!(drain(&mut client), framed(b"hello"));
        rig.reactor.sweep(Instant::now());
        assert_eq!(client.readable_bytes(), 0, "not idle for a tick yet");
        rig.reactor.sweep(Instant::now() + TICK);
        assert_eq!(drain(&mut client), framed(b""), "idle, established, empty: one heartbeat");

        // Wedge a reply in the ring: the pipe holds 16 bytes, two
        // 12-byte replies do not fit.
        send(&mut client, b"12345678");
        rig.turn();
        send(&mut client, b"abcdefgh");
        rig.turn();
        let staged = rig.conn(0).unsent_bytes();
        assert!(staged > 0);
        rig.reactor.sweep(Instant::now() + TICK);
        assert_eq!(rig.conn(0).unsent_bytes(), staged, "no heartbeat behind unsent bytes");
    }

    #[test]
    fn write_stall_closes_a_peer_that_stopped_reading() {
        let mut rig = Rig::new();
        let mut client = rig.connect(16);
        send(&mut client, b"hello");
        rig.turn();
        send(&mut client, b"12345678");
        rig.turn();
        assert!(rig.conn(0).unsent_bytes() > 0, "the pipe is full; the reply waits in the ring");
        rig.reactor.sweep(Instant::now() + STALL / 2);
        assert!(rig.closes().is_empty());
        rig.reactor.sweep(Instant::now() + STALL);
        assert_eq!(rig.closes(), [CloseWhy::Disconnect]);
    }

    /// Read the wire dry, turning the reactor between reads so a
    /// blocked ring keeps flushing into the space the reads free.
    fn drain_to_end(rig: &mut Rig, client: &mut PipeEnd) -> Vec<u8> {
        let mut wire = Vec::new();
        loop {
            rig.turn();
            let chunk = drain(client);
            if chunk.is_empty() {
                return wire;
            }
            wire.extend(chunk);
        }
    }

    #[test]
    fn drain_then_close_flushes_first_and_severs_when_asked() {
        for (last, why, reset) in
            [(&b"bye"[..], CloseWhy::Quiet, false), (&b"tear"[..], CloseWhy::Disconnect, true)]
        {
            let mut rig = Rig::new();
            // 12 bytes of pipe, 9 of them taken by the unread `hello`
            // reply: the last reply cannot flush in one go.
            let mut client = rig.connect(12);
            send(&mut client, b"hello");
            rig.turn();
            send(&mut client, last);
            rig.turn();
            assert!(rig.closes().is_empty(), "still draining: the reply is not out yet");
            let wire = drain_to_end(&mut rig, &mut client);
            assert_eq!(wire, [framed(b"hello"), framed(last)].concat(), "flushed in full");
            assert_eq!(rig.closes(), [why]);
            let after = client.read(&mut [0; 1]);
            if reset {
                assert!(after.is_err(), "a severed pipe resets: {after:?}");
            } else {
                assert_eq!(after.unwrap(), 0, "an orderly close is EOF");
            }
        }
    }

    #[test]
    fn read_gate_parks_a_never_reading_pipeliner_and_resumes_in_order() {
        let mut rig = Rig::new();
        let cap = 256;
        let mut client = rig.connect(cap);
        send(&mut client, b"hello");
        rig.turn();
        // Pipeline 8-byte requests without reading a reply for as long
        // as the pipe takes them. The replies fill the pipe, then the
        // ring; then the server must stop reading, so the requests back
        // up in the pipe until it is full too.
        let mut requests = Vec::new();
        while rig.inbound_backlog(0) + 8 <= cap {
            assert!(requests.len() < 1000, "the server never stopped reading");
            let request = format!("{:04}", requests.len());
            send(&mut client, request.as_bytes());
            requests.push(request);
            rig.turn();
        }
        let staged = rig.conn(0).unsent_bytes();
        assert!(staged > 0 && staged <= MAX_RING_FRAMES * 8, "ring bounded: {staged} bytes");
        assert!(requests.len() <= 2 * cap / 8 + MAX_RING_FRAMES);
        // The peer starts reading: the gate lifts and every request is
        // answered, in order.
        let mut expected = framed(b"hello");
        expected.extend(requests.iter().flat_map(|r| framed(r.as_bytes())));
        assert_eq!(drain_to_end(&mut rig, &mut client), expected);
        assert!(rig.closes().is_empty());
    }

    #[test]
    fn listener_handed_over_after_start_accepts() {
        let closes = Arc::new(Mutex::new(Vec::new()));
        let handle = ReactorHandle::spawn(Echo { closes }, config());
        assert_eq!(handle.threads(), 1);
        let addr = handle.listen_tcp("127.0.0.1:0").unwrap();
        let mut client = tcp_connect(addr).unwrap();
        client.send_frame(&[b"hello"]).unwrap();
        client.send_frame(&[b"over tcp"]).unwrap();
        assert_eq!(&client.recv_frame().unwrap()[..], b"hello");
        assert_eq!(&client.recv_frame().unwrap()[..], b"over tcp");
        handle.shutdown();
        assert_eq!(handle.threads(), 0);
    }

    #[test]
    fn shutdown_joins_with_a_wedged_peer() {
        let closes = Arc::new(Mutex::new(Vec::new()));
        let handle = ReactorHandle::spawn(Echo { closes }, config());
        let (mut client, server) = duplex(16);
        handle.serve_conn(server.into());
        send(&mut client, b"hello");
        // Never read: the replies wedge in the 16-byte pipe and the
        // ring. The stall bound is 10 s away; shutdown must not wait.
        client.set_nonblocking(true);
        let _ = client.write(&framed(b"12345678"));
        let started = Instant::now();
        handle.shutdown();
        assert!(started.elapsed() < STALL / 2, "shutdown waited on the wedged peer");
        assert_eq!(handle.threads(), 0);
    }
}
