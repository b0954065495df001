//! Per-connection outbound ring: composed frames awaiting the socket.
//!
//! The reactor never blocks in `write`. Instead each connection owns an
//! [`OutRing`] of fully composed frames — head bytes (length prefix,
//! plus the 6-byte delta envelope when applicable) alongside the
//! refcount-shared payload `Bytes`, so a queued delta still costs no
//! copy of the shard's encoded frame. A flush pass gathers up to
//! [`MAX_COALESCE`] frames into one vectored write (`writev` on a
//! socket, the pipe's equivalent in tests) and advances through partial
//! acceptance byte by byte; `WouldBlock` parks the ring until the next
//! writability event.
//!
//! The ring is deliberately small ([`MAX_RING_FRAMES`] frames /
//! [`MAX_RING_BYTES`] unsent bytes): it is a *staging* buffer, not a
//! second queue. When it fills, the reactor stops transferring from the
//! subscriber's broker queue, so a stalled peer backs pressure up into
//! the queue where the broker's overflow policy (lag or evict) — not
//! unbounded transport memory — absorbs the damage.
//!
//! Completion accounting rides out of [`OutRing::flush_into`] as
//! [`CompletedFrame`] records tagged with a per-write sequence number:
//! frames sharing a `write_seq` left in the same syscall, which is what
//! the server's coalescing counters (and per-shard credits) are defined
//! over.

use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Write};

/// Most frames one vectored write carries. Bounds the latency of the
/// frame behind a long run and the `IoSlice` gather array.
const MAX_COALESCE: usize = 32;

/// Frame-count capacity of one connection's ring.
pub const MAX_RING_FRAMES: usize = 32;

/// Unsent-byte capacity of one connection's ring. A frame already
/// accepted by the ring is never refused mid-flush; the cap gates new
/// admissions ([`OutRing::has_room`]).
const MAX_RING_BYTES: usize = 4 << 20;

/// What a ring frame was, replayed to the caller when the frame's last
/// byte reaches the stream so counters and claims advance exactly once,
/// and exactly for bytes the kernel (or pipe) actually accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// One frame of a snapshot bootstrap for `tld` (one `RZUC`
    /// continuation chunk). `last` marks the frame that completes the
    /// bootstrap — the sent-counter counts bootstraps, not chunks, so
    /// only the final frame increments it.
    Snapshot { tld: u16, last: bool },
    /// A delta envelope for `tld`; the connection's claim for that TLD
    /// advances to `to_serial` on completion.
    Delta { tld: u16, to_serial: u32 },
    /// An `RZUE` eviction notice — the connection drains and closes.
    Evict,
    /// An idle heartbeat (empty frame).
    Heartbeat,
    /// A request's reply: an `RZUQ` stats report, an `RZUR` lookup
    /// answer.
    Reply,
    /// A fault-injected torn frame (full-length prefix over a partial
    /// payload): on completion the connection is severed mid-frame.
    Torn,
}

/// One composed frame: up to 10 head bytes (4-byte big-endian length
/// prefix, optionally followed by the 6-byte delta envelope header)
/// and the payload, shared not copied.
pub struct RingFrame {
    head: [u8; 10],
    head_len: u8,
    payload: Bytes,
    kind: FrameKind,
    /// Whether completion increments sent-counters. A duplicated fault
    /// copy delivers on the wire but must count once, so its second
    /// copy carries `counted: false`.
    counted: bool,
}

/// Build the ≤10-byte head: the `u32` length prefix followed by the
/// envelope bytes, written bounds-checked. The ring is a declared
/// panic-free module (lint rule L3), so the head is assembled without
/// slice-index expressions; the fixed 10-byte array always has room for
/// 4 prefix bytes plus the ≤6-byte envelope the callers assert.
fn build_head(declared_len: u32, envelope: &[u8]) -> ([u8; 10], u8) {
    let mut head = [0u8; 10];
    let mut n = 0usize;
    for b in declared_len.to_be_bytes().into_iter().chain(envelope.iter().copied()) {
        if let Some(slot) = head.get_mut(n) {
            *slot = b;
            n += 1;
        }
    }
    (head, n as u8)
}

impl RingFrame {
    /// A frame whose payload goes out as-is behind its length prefix.
    ///
    /// The declared length must fit the `u32` prefix — a silent
    /// wrap-around here would promise the peer a tiny frame and then
    /// stream gigabytes of desynchronized bytes after it, so it is a
    /// hard assertion. (The reactor additionally checks composed frames
    /// against the connection's configured frame bound before staging;
    /// this assert is the last line of defence against the cast.)
    pub fn plain(payload: Bytes, kind: FrameKind, counted: bool) -> Self {
        assert!(payload.len() <= u32::MAX as usize, "frame length exceeds the u32 prefix");
        let (head, head_len) = build_head(payload.len() as u32, &[]);
        RingFrame { head, head_len, payload, kind, counted }
    }

    /// A frame with extra head bytes between the prefix and the shared
    /// payload (the delta envelope): the length prefix covers both.
    pub fn with_envelope(
        envelope: &[u8],
        payload: Bytes,
        kind: FrameKind,
        counted: bool,
    ) -> Self {
        assert!(envelope.len() <= 6, "envelope exceeds the reserved head bytes");
        assert!(
            payload.len() <= u32::MAX as usize - envelope.len(),
            "frame length exceeds the u32 prefix"
        );
        let (head, head_len) = build_head((envelope.len() + payload.len()) as u32, envelope);
        RingFrame { head, head_len, payload, kind, counted }
    }

    /// An idle heartbeat: the empty frame.
    pub fn heartbeat() -> Self {
        RingFrame::plain(Bytes::new(), FrameKind::Heartbeat, false)
    }

    /// A deliberately torn frame: the prefix declares `declared_len`
    /// bytes but only `partial` follows. After this frame flushes, the
    /// reactor severs the connection — the peer is left mid-frame,
    /// exactly what a TCP disconnect under an in-flight frame leaves.
    pub fn torn(declared_len: usize, partial: Bytes) -> Self {
        debug_assert!(partial.len() < declared_len);
        let (head, head_len) = build_head(declared_len as u32, &[]);
        RingFrame { head, head_len, payload: partial, kind: FrameKind::Torn, counted: false }
    }

    fn len(&self) -> usize {
        self.head_len as usize + self.payload.len()
    }
}

/// One frame's completion record.
#[derive(Debug, Clone, Copy)]
pub struct CompletedFrame {
    pub kind: FrameKind,
    pub counted: bool,
    /// Frames sharing a `write_seq` reached the stream in the same
    /// vectored write — the unit the coalescing counters are over.
    pub write_seq: u64,
}

/// Outcome of one flush pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStatus {
    /// The ring is empty; nothing left to write.
    Drained,
    /// The stream stopped accepting bytes (`WouldBlock`): wait for
    /// writability, frames and partial progress are retained.
    Blocked,
}

/// The per-connection outbound staging ring. See the module docs.
pub struct OutRing {
    frames: VecDeque<RingFrame>,
    /// Bytes of the front frame already accepted by the stream.
    front_sent: usize,
    /// Unsent bytes across all frames.
    unsent: usize,
    /// Monotonic vectored-write counter (never reset: completion
    /// records from different flush passes stay distinguishable).
    write_seq: u64,
}

impl OutRing {
    pub fn new() -> Self {
        OutRing { frames: VecDeque::new(), front_sent: 0, unsent: 0, write_seq: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unsent bytes staged in the ring (the `buffered_bytes` a stats
    /// row reports for this connection).
    pub fn unsent_bytes(&self) -> usize {
        self.unsent
    }

    /// Whether the ring admits more. The caps gate the two places
    /// backpressure must bite: a handler's fill (the broker-queue
    /// drain) and the reactor's inbound reads, whose replies land here.
    /// A frame the transport itself owes the peer (evict notice,
    /// heartbeat, the reply to a frame already read) is pushed
    /// regardless.
    pub fn has_room(&self) -> bool {
        self.frames.len() < MAX_RING_FRAMES && self.unsent < MAX_RING_BYTES
    }

    pub fn push(&mut self, frame: RingFrame) {
        self.unsent += frame.len();
        self.frames.push_back(frame);
    }

    /// Write as much of the ring as the stream accepts, gathering up to
    /// [`MAX_COALESCE`] frames per vectored write. Completed frames are
    /// appended to `completed` (in wire order). `Interrupted` retries;
    /// `WouldBlock`/`TimedOut` parks with state intact; other errors
    /// surface (the connection is dead — undelivered frames are moot).
    pub fn flush_into(
        &mut self,
        stream: &mut impl Write,
        completed: &mut Vec<CompletedFrame>,
    ) -> std::io::Result<FlushStatus> {
        loop {
            if self.frames.is_empty() {
                return Ok(FlushStatus::Drained);
            }
            let wrote = {
                // Gather [front_sent..] of the front frame plus whole
                // follow-on frames. Slices borrow the frames, so the
                // write happens before any ring mutation.
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2 * MAX_COALESCE.min(self.frames.len()));
                for (i, frame) in self.frames.iter().take(MAX_COALESCE).enumerate() {
                    let head =
                        frame.head.get(..frame.head_len as usize).unwrap_or_default();
                    let skip = if i == 0 { self.front_sent } else { 0 };
                    if skip < head.len() {
                        slices.push(IoSlice::new(head.get(skip..).unwrap_or_default()));
                        if !frame.payload.is_empty() {
                            slices.push(IoSlice::new(&frame.payload));
                        }
                    } else if let Some(rest) =
                        frame.payload.get(skip.saturating_sub(head.len())..)
                    {
                        if !rest.is_empty() {
                            slices.push(IoSlice::new(rest));
                        }
                    }
                    // (a fully sent front frame never stays in the ring)
                }
                match stream.write_vectored(&slices) {
                    Ok(0) => return Err(ErrorKind::WriteZero.into()),
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        return Ok(FlushStatus::Blocked)
                    }
                    Err(e) => return Err(e),
                }
            };
            self.write_seq += 1;
            self.unsent -= wrote;
            let mut remaining = wrote;
            while remaining > 0 {
                // Bytes accepted imply a front frame; if the invariant
                // ever broke, stopping the accounting loop beats
                // panicking the reactor (rule L3: this module is
                // panic-free outside tests).
                let Some(front) = self.frames.front() else {
                    debug_assert!(false, "bytes accepted imply a frame");
                    break;
                };
                let front_left = front.len().saturating_sub(self.front_sent);
                if remaining >= front_left {
                    remaining -= front_left;
                    self.front_sent = 0;
                    if let Some(frame) = self.frames.pop_front() {
                        completed.push(CompletedFrame {
                            kind: frame.kind,
                            counted: frame.counted,
                            write_seq: self.write_seq,
                        });
                    }
                } else {
                    self.front_sent += remaining;
                    remaining = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that accepts at most `cap` bytes per call, then blocks.
    struct Throttled {
        out: Vec<u8>,
        per_call: usize,
        budget: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let mut room = self.per_call.min(self.budget);
            let mut n = 0;
            for buf in bufs {
                let take = room.min(buf.len());
                self.out.extend_from_slice(&buf[..take]);
                n += take;
                room -= take;
                if room == 0 {
                    break;
                }
            }
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut v = (payload.len() as u32).to_be_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn coalesces_whole_ring_into_one_write_and_reports_shared_seq() {
        let mut ring = OutRing::new();
        ring.push(RingFrame::plain(Bytes::copy_from_slice(b"aa"), FrameKind::Reply, true));
        ring.push(RingFrame::with_envelope(
            b"RZUDxx",
            Bytes::copy_from_slice(b"bb"),
            FrameKind::Delta { tld: 7, to_serial: 3 },
            true,
        ));
        ring.push(RingFrame::heartbeat());
        let mut sink = Throttled { out: Vec::new(), per_call: usize::MAX, budget: usize::MAX };
        let mut completed = Vec::new();
        assert!(matches!(ring.flush_into(&mut sink, &mut completed).unwrap(), FlushStatus::Drained));
        let mut expect = frame_bytes(b"aa");
        expect.extend_from_slice(&frame_bytes(b"RZUDxxbb"));
        expect.extend_from_slice(&frame_bytes(b""));
        assert_eq!(sink.out, expect);
        assert_eq!(completed.len(), 3);
        assert!(completed.windows(2).all(|w| w[0].write_seq == w[1].write_seq));
        assert!(ring.is_empty());
        assert_eq!(ring.unsent_bytes(), 0);
    }

    #[test]
    fn partial_acceptance_resumes_mid_frame_across_blocked_flushes() {
        let mut ring = OutRing::new();
        ring.push(RingFrame::plain(Bytes::copy_from_slice(b"0123456789"), FrameKind::Reply, true));
        // 3 bytes per call, 6 bytes before the sink blocks: the first
        // flush pass strands the ring mid-frame (2 bytes into the
        // payload).
        let mut sink = Throttled { out: Vec::new(), per_call: 3, budget: 6 };
        let mut completed = Vec::new();
        assert!(matches!(ring.flush_into(&mut sink, &mut completed).unwrap(), FlushStatus::Blocked));
        assert!(completed.is_empty());
        assert!(!ring.is_empty());
        assert_eq!(ring.unsent_bytes(), 14 - 6);
        // "Writability returns": the rest goes out and completion fires
        // exactly once.
        sink.budget = usize::MAX;
        assert!(matches!(ring.flush_into(&mut sink, &mut completed).unwrap(), FlushStatus::Drained));
        assert_eq!(sink.out, frame_bytes(b"0123456789"));
        assert_eq!(completed.len(), 1);
        assert!(matches!(completed[0].kind, FrameKind::Reply));
    }

    #[test]
    fn ring_admission_caps_engage_and_release() {
        let mut ring = OutRing::new();
        for _ in 0..MAX_RING_FRAMES {
            assert!(ring.has_room());
            ring.push(RingFrame::plain(Bytes::copy_from_slice(b"x"), FrameKind::Reply, true));
        }
        assert!(!ring.has_room(), "frame cap must refuse further queue transfer");
        let mut sink = Throttled { out: Vec::new(), per_call: usize::MAX, budget: usize::MAX };
        let mut completed = Vec::new();
        ring.flush_into(&mut sink, &mut completed).unwrap();
        assert!(ring.has_room(), "a drained ring accepts again");
        assert_eq!(completed.len(), MAX_RING_FRAMES);
    }

    #[test]
    fn torn_frame_promises_more_than_it_carries() {
        let mut ring = OutRing::new();
        ring.push(RingFrame::torn(10, Bytes::copy_from_slice(b"abc")));
        let mut sink = Throttled { out: Vec::new(), per_call: usize::MAX, budget: usize::MAX };
        let mut completed = Vec::new();
        assert!(matches!(ring.flush_into(&mut sink, &mut completed).unwrap(), FlushStatus::Drained));
        let mut expect = 10u32.to_be_bytes().to_vec();
        expect.extend_from_slice(b"abc");
        assert_eq!(sink.out, expect);
        assert!(matches!(completed[0].kind, FrameKind::Torn));
        assert!(!completed[0].counted);
    }
}
