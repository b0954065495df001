//! An in-memory, bounded duplex byte pipe (blocking or readiness-style).
//!
//! [`duplex`] returns two [`PipeEnd`]s joined by a pair of directional
//! byte buffers; each end implements `Read + Write` with the same
//! semantics a socket has. In the default blocking mode reads block
//! until data, EOF or a timeout; writes block while the peer's buffer
//! is full (the bounded capacity is what lets the fault harness script
//! a *stalled reader*: stop reading one end and the writer wedges
//! exactly like a full TCP send buffer). With
//! [`PipeEnd::set_nonblocking`] both directions instead return
//! `WouldBlock` immediately — the shape the reactor's readiness loop
//! expects — and [`PipeEnd::set_ready_hook`] plays the role epoll plays
//! for real sockets: the hook fires whenever this end *becomes* ready
//! (bytes arrived, send-buffer space freed, peer closed, pipe cut), so
//! a fd-less pipe connection can be driven by the same wakeup
//! machinery as a TCP one. Wrapped in
//! [`crate::transport::LengthPrefixed`], a pipe end is a
//! [`crate::transport::FrameConn`] running the very same framing state
//! machine as the TCP path, so deterministic in-memory tests exercise
//! production decode logic.
//!
//! [`PipeCutHandle::cut`] is the fault switch: it severs both
//! directions at once — in-flight reads fail with `ConnectionReset`,
//! writes with `BrokenPipe` — modelling a hard network partition
//! mid-frame. A dropped end is the orderly version: the peer drains
//! whatever was buffered, then sees EOF.
//!
//! Blocked-thread accounting (the test-only `peer_read_waiters` /
//! `peer_write_waiters`) exists so this file's tests can *handshake*
//! with a thread that is provably parked instead of sleeping and
//! hoping it got there.

use super::frame::ByteIo;
use crate::lockdep;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A readiness callback: invoked at every wakeup-worthy transition on
/// the half it is registered with. Runs with that half's state lock
/// held, so it must only touch leaf state (the reactor's pending list
/// and wakeup fd qualify; broker shard or subscriber locks do not).
pub type ReadyHook = Arc<dyn Fn() + Send + Sync>;

/// One direction's shared buffer.
struct HalfState {
    buf: VecDeque<u8>,
    /// Writer side is gone: reads drain the buffer, then return EOF.
    closed: bool,
    /// Hard fault: both sides error immediately, buffered data is lost.
    cut: bool,
    /// Fired when the *reader* of this half may make progress (bytes
    /// arrived, closed, cut).
    read_hook: Option<ReadyHook>,
    /// Fired when the *writer* into this half may make progress (space
    /// freed, closed, cut).
    write_hook: Option<ReadyHook>,
}

impl HalfState {
    fn fire_read_hook(&self) {
        if let Some(hook) = &self.read_hook {
            hook();
        }
    }

    fn fire_write_hook(&self) {
        if let Some(hook) = &self.write_hook {
            hook();
        }
    }
}

struct Half {
    // lock-level: 46 (acquired via `lock_half`, which registers the
    // acquisition with `lockdep::PIPE_HALF`)
    state: Mutex<HalfState>,
    cond: Condvar,
    /// Threads currently parked in `read` on this half.
    read_waiters: AtomicUsize,
    /// Threads currently parked in `write` on this half.
    write_waiters: AtomicUsize,
}

/// Lock one half's state, registering the acquisition with the
/// broker's lockdep runtime (`transport.pipe_half`). Ready hooks run
/// under this lock and may stage reactor work, which is why the pipe
/// half sits *below* the reactor's pending mailbox in the documented
/// hierarchy (46 < 50).
#[track_caller]
fn lock_half(half: &Half) -> (lockdep::Held, std::sync::MutexGuard<'_, HalfState>) {
    let held = lockdep::acquire(&lockdep::PIPE_HALF);
    (held, half.state.lock().unwrap_or_else(|p| p.into_inner()))
}

impl Half {
    fn new() -> Arc<Half> {
        Arc::new(Half {
            state: Mutex::new(HalfState {
                buf: VecDeque::new(),
                closed: false,
                cut: false,
                read_hook: None,
                write_hook: None,
            }),
            cond: Condvar::new(),
            read_waiters: AtomicUsize::new(0),
            write_waiters: AtomicUsize::new(0),
        })
    }
}

/// One end of an in-memory duplex pipe. Reads from one half, writes to
/// the other; the peer end holds the halves swapped.
pub struct PipeEnd {
    /// The half this end reads from (the peer writes into it).
    rx: Arc<Half>,
    /// The half this end writes into (the peer reads from it).
    tx: Arc<Half>,
    capacity: usize,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    nonblocking: bool,
}

/// A detached fault switch for one pipe: severs both directions.
/// Cloneable and callable from any thread, including while a reader or
/// writer is blocked mid-frame.
#[derive(Clone)]
pub struct PipeCutHandle {
    halves: [Arc<Half>; 2],
}

impl PipeCutHandle {
    /// Hard-cut the pipe: writes fail immediately; reads first drain
    /// whatever was already in flight (bytes a kernel would have
    /// delivered to the receive buffer before the reset), then fail.
    /// This is what leaves a peer stranded *mid-frame*: it consumes the
    /// delivered prefix of a promised payload and then hits the reset.
    pub fn cut(&self) {
        for half in &self.halves {
            let (_held, mut st) = lock_half(half);
            st.cut = true;
            half.cond.notify_all();
            // A cut is a readiness event for both roles: blocked or
            // readiness-driven peers must observe the failure.
            st.fire_read_hook();
            st.fire_write_hook();
        }
    }
}

/// Build a connected pair of pipe ends whose per-direction buffers hold
/// at most `capacity` bytes.
pub fn duplex(capacity: usize) -> (PipeEnd, PipeEnd) {
    assert!(capacity > 0, "a zero-capacity pipe can never transfer a byte");
    let a_to_b = Half::new();
    let b_to_a = Half::new();
    let a = PipeEnd {
        rx: Arc::clone(&b_to_a),
        tx: Arc::clone(&a_to_b),
        capacity,
        read_timeout: None,
        write_timeout: None,
        nonblocking: false,
    };
    let b = PipeEnd {
        rx: a_to_b,
        tx: b_to_a,
        capacity,
        read_timeout: None,
        write_timeout: None,
        nonblocking: false,
    };
    (a, b)
}

impl PipeEnd {
    /// A fault switch covering both directions of this pipe.
    pub fn cut_handle(&self) -> PipeCutHandle {
        PipeCutHandle { halves: [Arc::clone(&self.rx), Arc::clone(&self.tx)] }
    }

    /// Switch this end between blocking (socket-default) and
    /// readiness-style semantics: when non-blocking, a read with no
    /// bytes buffered and a write with no space both return
    /// `WouldBlock` immediately instead of parking the thread.
    pub fn set_nonblocking(&mut self, nonblocking: bool) {
        self.nonblocking = nonblocking;
    }

    /// Install (or clear) the readiness callback for this end. The hook
    /// fires whenever this end may make progress it previously could
    /// not: bytes arrive in its inbound buffer, space frees in its
    /// outbound buffer, the peer closes, or the pipe is cut. It is this
    /// end's epoll stand-in — the reactor registers one per pipe
    /// connection and treats a firing exactly like an epoll readiness
    /// event (edge-ish: re-check both directions, don't trust more).
    ///
    /// The hook runs with the relevant half's lock held; it must only
    /// touch leaf state (see [`ReadyHook`]).
    pub fn set_ready_hook(&self, hook: Option<ReadyHook>) {
        {
            let (_held, mut st) = lock_half(&self.rx);
            st.read_hook = hook.clone();
        }
        let (_held, mut st) = lock_half(&self.tx);
        st.write_hook = hook;
    }

    /// Bytes currently buffered toward this end (readable without
    /// blocking).
    pub fn readable_bytes(&self) -> usize {
        lock_half(&self.rx).1.buf.len()
    }

    /// Threads currently parked in `read` on the peer end — i.e.
    /// waiting for bytes this end has not yet written. Test handshake:
    /// poll this before injecting a fault that must hit a *blocked*
    /// reader.
    #[cfg(test)]
    fn peer_read_waiters(&self) -> usize {
        self.tx.read_waiters.load(Ordering::Acquire)
    }

    /// Threads currently parked in `write` on the peer end — i.e.
    /// blocked on this end's undrained inbound buffer. Test handshake:
    /// poll this to prove bounded-capacity backpressure engaged before
    /// draining.
    #[cfg(test)]
    fn peer_write_waiters(&self) -> usize {
        self.rx.write_waiters.load(Ordering::Acquire)
    }
}

/// Park on `cond` until re-checked, maintaining the half's waiter
/// counter and the caller's optional deadline. Returns the reacquired
/// guard, or `None` when the deadline has already passed.
fn wait_on<'a>(
    half: &'a Half,
    waiters: &AtomicUsize,
    guard: std::sync::MutexGuard<'a, HalfState>,
    deadline: Option<Instant>,
) -> Option<std::sync::MutexGuard<'a, HalfState>> {
    waiters.fetch_add(1, Ordering::AcqRel);
    let reacquired = match deadline {
        None => Some(half.cond.wait(guard).unwrap_or_else(|p| p.into_inner())),
        Some(deadline) => {
            match deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero()) {
                None => None,
                Some(remaining) => Some(
                    half.cond
                        .wait_timeout(guard, remaining)
                        .unwrap_or_else(|p| p.into_inner())
                        .0,
                ),
            }
        }
    };
    waiters.fetch_sub(1, Ordering::AcqRel);
    reacquired
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline = self.read_timeout.map(|t| Instant::now() + t);
        let (_held, mut st) = lock_half(&self.rx);
        loop {
            if !st.buf.is_empty() {
                let n = st.buf.len().min(buf.len());
                for slot in buf.iter_mut().take(n) {
                    if let Some(byte) = st.buf.pop_front() {
                        *slot = byte;
                    }
                }
                // Space opened up: wake a writer blocked on capacity
                // and tell a readiness-driven peer it can write again.
                self.rx.cond.notify_all();
                st.fire_write_hook();
                return Ok(n);
            }
            if st.cut {
                return Err(ErrorKind::ConnectionReset.into());
            }
            if st.closed {
                return Ok(0);
            }
            if self.nonblocking {
                return Err(ErrorKind::WouldBlock.into());
            }
            st = match wait_on(&self.rx, &self.rx.read_waiters, st, deadline) {
                Some(guard) => guard,
                None => return Err(ErrorKind::WouldBlock.into()),
            };
        }
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline = self.write_timeout.map(|t| Instant::now() + t);
        let (_held, mut st) = lock_half(&self.tx);
        loop {
            if st.cut || st.closed {
                return Err(ErrorKind::BrokenPipe.into());
            }
            let space = self.capacity - st.buf.len();
            if space > 0 {
                let n = space.min(buf.len());
                // lint: allow(panic) n == space.min(buf.len()), so the
                // range is in-bounds by construction.
                st.buf.extend(&buf[..n]);
                // Bytes arrived: wake a reader blocked on empty and
                // tell a readiness-driven peer it has input.
                self.tx.cond.notify_all();
                st.fire_read_hook();
                return Ok(n);
            }
            if self.nonblocking {
                return Err(ErrorKind::WouldBlock.into());
            }
            // Buffer full: block until the peer drains (the stalled-
            // reader backpressure the fault tests rely on), up to the
            // write timeout (a socket's wedged-peer bound).
            st = match wait_on(&self.tx, &self.tx.write_waiters, st, deadline) {
                Some(guard) => guard,
                None => return Err(ErrorKind::WouldBlock.into()),
            };
        }
    }

    /// True vectored write semantics (what `writev` gives a socket):
    /// one call moves bytes from as many slices as fit in the free
    /// capacity. The reactor's ring flush counts frames completed per
    /// call for its coalescing accounting, so the pipe must not
    /// degrade to one-slice-per-call like the `Write` default does.
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if total == 0 {
            return Ok(0);
        }
        let deadline = self.write_timeout.map(|t| Instant::now() + t);
        let (_held, mut st) = lock_half(&self.tx);
        loop {
            if st.cut || st.closed {
                return Err(ErrorKind::BrokenPipe.into());
            }
            let space = self.capacity - st.buf.len();
            if space > 0 {
                let mut n = 0;
                'fill: for buf in bufs {
                    for &byte in buf.iter() {
                        if n == space {
                            break 'fill;
                        }
                        st.buf.push_back(byte);
                        n += 1;
                    }
                }
                self.tx.cond.notify_all();
                st.fire_read_hook();
                return Ok(n);
            }
            if self.nonblocking {
                return Err(ErrorKind::WouldBlock.into());
            }
            st = match wait_on(&self.tx, &self.tx.write_waiters, st, deadline) {
                Some(guard) => guard,
                None => return Err(ErrorKind::WouldBlock.into()),
            };
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl ByteIo for PipeEnd {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.write_timeout = timeout;
        Ok(())
    }
}

impl Drop for PipeEnd {
    fn drop(&mut self) {
        // Orderly close: the peer drains buffered bytes, then sees EOF
        // on reads; peer writes fail immediately (no one will read them).
        // Both transitions are readiness events.
        {
            let (_held, mut st) = lock_half(&self.tx);
            st.closed = true;
            self.tx.cond.notify_all();
            st.fire_read_hook();
        }
        let (_held, mut st) = lock_half(&self.rx);
        st.closed = true;
        self.rx.cond.notify_all();
        st.fire_write_hook();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Spin (yielding) until `cond` holds. The conditions used here are
    /// all monotonic ("a thread has parked", "a hook has fired"), so
    /// this terminates as soon as the other thread gets scheduled — no
    /// fixed sleep, no timing assumption.
    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn bytes_flow_and_eof_after_drop() {
        let (mut a, mut b) = duplex(8);
        a.write_all(b"hi").unwrap();
        drop(a);
        let mut out = Vec::new();
        b.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"hi");
    }

    #[test]
    fn bounded_capacity_blocks_writer_until_reader_drains() {
        let (mut a, mut b) = duplex(4);
        let writer = std::thread::spawn(move || {
            a.write_all(b"0123456789").unwrap(); // > capacity: must block
            a
        });
        // Handshake: the writer is provably parked on the full buffer
        // (waiter accounting increments before the condvar wait) before
        // we start draining — backpressure engaged, deterministically.
        wait_until(|| b.peer_write_waiters() == 1);
        assert_eq!(b.readable_bytes(), 4, "writer filled exactly the capacity before parking");
        let mut buf = [0u8; 10];
        let mut got = 0;
        while got < 10 {
            got += b.read(&mut buf[got..]).unwrap();
        }
        assert_eq!(&buf, b"0123456789");
        writer.join().unwrap();
    }

    #[test]
    fn cut_fails_blocked_reader_and_writer() {
        let (mut a, mut b) = duplex(4);
        let cut = a.cut_handle();
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            b.read(&mut buf)
        });
        // Handshake: cut only once the reader is provably parked, so
        // the fault demonstrably lands on a *blocked* read.
        wait_until(|| a.peer_read_waiters() == 1);
        cut.cut();
        let err = reader.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
        assert_eq!(a.write(b"x").unwrap_err().kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn read_timeout_elapses_without_data() {
        let (_a, mut b) = duplex(4);
        b.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap_err().kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn peer_write_after_reader_drop_is_broken_pipe() {
        let (a, mut b) = duplex(4);
        drop(a);
        assert_eq!(b.write(b"x").unwrap_err().kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn nonblocking_mode_returns_wouldblock_instead_of_parking() {
        let (mut a, mut b) = duplex(4);
        b.set_nonblocking(true);
        let mut buf = [0u8; 4];
        // Empty inbound buffer: immediate WouldBlock, no timeout needed.
        assert_eq!(b.read(&mut buf).unwrap_err().kind(), ErrorKind::WouldBlock);
        a.write_all(b"ab").unwrap();
        assert_eq!(b.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ab");
        // Fill the outbound buffer, then the next byte won't fit.
        b.write_all(b"wxyz").unwrap();
        assert_eq!(b.write(b"!").unwrap_err().kind(), ErrorKind::WouldBlock);
        // EOF and cut still report like the blocking mode.
        drop(a);
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn ready_hook_fires_on_data_space_close_and_cut() {
        let (mut a, mut b) = duplex(4);
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        b.set_ready_hook(Some(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })));
        let take = |n: usize| {
            // Consume exactly the events we expect, so each assertion
            // below is about the *next* transition, not a residue.
            assert_eq!(fired.swap(0, Ordering::SeqCst), n);
        };

        a.write_all(b"hi").unwrap(); // data arrived → readable
        take(1);
        let mut buf = [0u8; 8];
        b.read(&mut buf).unwrap(); // b's own read doesn't signal b
        take(0);

        // Fill b's outbound buffer; the peer draining it frees space.
        b.write_all(b"wxyz").unwrap();
        take(0);
        a.read(&mut buf).unwrap(); // space freed → writable
        take(1);

        let cut = a.cut_handle();
        cut.cut(); // both directions sever → readable + writable
        take(2);
    }

    #[test]
    fn ready_hook_fires_on_peer_drop() {
        let (a, b) = duplex(4);
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        b.set_ready_hook(Some(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })));
        drop(a); // closes both directions: readable (EOF) + writable (error)
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }
}
