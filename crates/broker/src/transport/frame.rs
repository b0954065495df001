//! The frame layer: length-prefixed framing over any byte stream.
//!
//! [`FrameConn`] is the transport's unit of abstraction — everything
//! above it (handshake, catch-up service, live push loop, reconnect)
//! works in whole frames and never sees bytes. [`LengthPrefixed`]
//! implements it over anything `Read + Write` (plus a read-timeout
//! hook): a [`std::net::TcpStream`] in deployments and examples, the
//! in-memory [`crate::transport::pipe`] duplex in tests. Because both
//! run the *same* framing state machine, the fault harness's byte-level
//! injections (mid-frame cuts, truncations) exercise exactly the decode
//! paths a real socket would.
//!
//! Wire layout per frame: a `u32` big-endian payload length, then the
//! payload. The length is untrusted on receive: anything above the
//! configured bound is rejected *before* a buffer is sized from it.

use bytes::Bytes;
use darkdns_dns::wire::WireError;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default bound on a received frame's payload length (64 MiB —
/// comfortably above any checkpoint snapshot the examples ship, far
/// below anything an adversarial length field could use to balloon the
/// receiver).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Transport-layer failures.
#[derive(Debug)]
pub enum TransportError {
    /// The underlying byte stream failed.
    Io(std::io::Error),
    /// A frame arrived but its payload did not decode.
    Wire(WireError),
    /// A received length prefix exceeded the configured bound.
    FrameTooLarge { declared: usize, max: usize },
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// No complete frame arrived within the configured read timeout
    /// (partial progress is retained; the next receive resumes).
    TimedOut,
    /// The peer's handshake was rejected.
    Handshake(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Wire(e) => write!(f, "transport frame did not decode: {e}"),
            TransportError::FrameTooLarge { declared, max } => {
                write!(f, "frame length {declared} exceeds bound {max}")
            }
            TransportError::Closed => write!(f, "peer closed the connection"),
            TransportError::TimedOut => write!(f, "no frame within the read timeout"),
            TransportError::Handshake(reason) => write!(f, "handshake rejected: {reason}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            // Both kinds mean "read timeout" depending on platform.
            ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::TimedOut,
            _ => TransportError::Io(e),
        }
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// A bidirectional, blocking, whole-frame connection.
///
/// `send_frame` takes the payload as a slice of parts so the delta fast
/// path can compose "envelope header + refcount-shared `RZU1` bytes"
/// without an intermediate allocation per subscriber message layer;
/// implementations concatenate the parts into one frame.
pub trait FrameConn: Send {
    /// Write one frame whose payload is the concatenation of `parts`.
    /// Fails with [`TransportError::FrameTooLarge`] when the payload
    /// exceeds the connection's bound — the send side enforces the same
    /// limit the receive side does, so an oversized frame is an explicit
    /// local error instead of a guaranteed rejection at the peer.
    fn send_frame(&mut self, parts: &[&[u8]]) -> Result<(), TransportError>;

    /// Write several complete frames as one coalesced batch — the
    /// writer-side syscall saver: when a subscriber's queue holds
    /// several consecutive deltas at wakeup, the whole run goes out in
    /// one buffer/one write instead of one syscall per frame. Each
    /// element of `frames` is one frame's `parts` (as for `send_frame`);
    /// framing on the wire is identical, so the receiver cannot tell a
    /// batch from individual sends. The default writes frame by frame;
    /// [`LengthPrefixed`] overrides it with a single buffered write.
    /// No server path calls it since the reactor's ring took over
    /// coalescing; it stays because the `FrameConn` wrappers in
    /// `rzu_bench/src/link.rs` and `benches/relay.rs` forward it.
    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> Result<(), TransportError> {
        for parts in frames {
            self.send_frame(parts)?;
        }
        Ok(())
    }

    /// Read the next frame payload. `Err(Closed)` is a clean EOF between
    /// frames; EOF *inside* a frame (a mid-frame disconnect) is an
    /// `Err(Io)`. `Err(TimedOut)` keeps partial progress for the next
    /// call.
    fn recv_frame(&mut self) -> Result<Bytes, TransportError>;

    /// Bound how long `recv_frame` blocks (None = forever).
    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError>;

    /// Bound how long `send_frame` may block on a peer that is not
    /// draining (None = forever). A timed-out send leaves the stream
    /// mid-frame — the connection must be treated as dead afterwards.
    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError>;
}

/// Boxed connections are connections too — dial closures that pick a
/// transport at runtime (TCP vs in-memory pipe, replica failover) all
/// return `Box<dyn FrameConn>` and hand it straight to
/// [`super::TransportClient::connect`].
impl FrameConn for Box<dyn FrameConn> {
    fn send_frame(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        (**self).send_frame(parts)
    }

    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> Result<(), TransportError> {
        (**self).send_frames(frames)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        (**self).recv_frame()
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        (**self).set_recv_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        (**self).set_send_timeout(timeout)
    }
}

/// The byte streams [`LengthPrefixed`] can frame: blocking read/write
/// plus read/write-timeout knobs.
pub trait ByteIo: Read + Write + Send {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl ByteIo for TcpStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

/// Where the incremental receive state machine currently is.
enum RecvState {
    /// Collecting the 4-byte length prefix (`have` bytes so far).
    Header { buf: [u8; 4], have: usize },
    /// Collecting a `len`-byte payload (`have` bytes so far).
    Payload { buf: Vec<u8>, have: usize },
}

/// What one [`FrameAssembler::read_from`] pass produced.
#[derive(Debug)]
pub enum FrameProgress {
    /// One complete frame payload.
    Frame(Bytes),
    /// The stream has no bytes to give right now (`WouldBlock` on a
    /// non-blocking stream, or a read timeout on a blocking one).
    /// Partial progress is retained; the next pass resumes.
    Pending,
    /// Clean EOF at a frame boundary.
    Closed,
}

/// The incremental receive state machine behind [`LengthPrefixed`],
/// factored out so readiness-driven (non-blocking) readers — the
/// reactor's connection driver — run the exact same header/payload
/// accumulation and length-bound enforcement as the blocking path.
///
/// One `read_from` pass pulls bytes from the stream until a frame
/// completes, the stream dries up (`Pending`), or the peer goes away.
/// EOF classification matches [`FrameConn::recv_frame`]: EOF exactly at
/// a frame boundary is [`FrameProgress::Closed`]; EOF with a torn
/// header or part of a promised payload is an `UnexpectedEof` I/O
/// error. Oversized length prefixes are rejected *before* any buffer
/// is sized from them.
pub struct FrameAssembler {
    max_frame_len: usize,
    state: RecvState,
}

impl FrameAssembler {
    pub fn new(max_frame_len: usize) -> Self {
        FrameAssembler { max_frame_len, state: RecvState::Header { buf: [0; 4], have: 0 } }
    }

    /// True while a frame is partially received — an EOF now would be a
    /// mid-frame cut rather than an orderly close.
    #[cfg(test)]
    pub fn mid_frame(&self) -> bool {
        match &self.state {
            RecvState::Header { have, .. } => *have > 0,
            RecvState::Payload { .. } => true,
        }
    }

    /// Pull bytes from `stream` until one of the [`FrameProgress`]
    /// outcomes. `Interrupted` reads are retried; `WouldBlock` /
    /// `TimedOut` surface as `Pending` (the caller decides whether that
    /// means "wait for readiness" or "report a timeout").
    pub fn read_from<S: Read + ?Sized>(
        &mut self,
        stream: &mut S,
    ) -> Result<FrameProgress, TransportError> {
        loop {
            match &mut self.state {
                RecvState::Header { buf, have } => {
                    let n = match read_some(stream, &mut buf[*have..]) {
                        Ok(n) => n,
                        Err(ReadSomeError::Dry) => return Ok(FrameProgress::Pending),
                        Err(ReadSomeError::Io(e)) => return Err(TransportError::Io(e)),
                    };
                    if n == 0 {
                        // EOF with zero header bytes is a clean close;
                        // EOF with a torn header is a mid-frame cut.
                        return if *have == 0 {
                            Ok(FrameProgress::Closed)
                        } else {
                            Err(TransportError::Io(ErrorKind::UnexpectedEof.into()))
                        };
                    }
                    *have += n;
                    if *have < 4 {
                        continue;
                    }
                    let declared = u32::from_be_bytes(*buf) as usize;
                    if declared > self.max_frame_len {
                        // Reject before sizing anything from the length.
                        return Err(TransportError::FrameTooLarge {
                            declared,
                            max: self.max_frame_len,
                        });
                    }
                    if declared == 0 {
                        self.state = RecvState::Header { buf: [0; 4], have: 0 };
                        return Ok(FrameProgress::Frame(Bytes::new()));
                    }
                    self.state = RecvState::Payload { buf: vec![0; declared], have: 0 };
                }
                RecvState::Payload { buf, have } => {
                    let n = match read_some(stream, &mut buf[*have..]) {
                        Ok(n) => n,
                        Err(ReadSomeError::Dry) => return Ok(FrameProgress::Pending),
                        Err(ReadSomeError::Io(e)) => return Err(TransportError::Io(e)),
                    };
                    if n == 0 {
                        // The length prefix promised more: mid-frame cut.
                        return Err(TransportError::Io(ErrorKind::UnexpectedEof.into()));
                    }
                    *have += n;
                    if *have == buf.len() {
                        let payload = std::mem::take(buf);
                        self.state = RecvState::Header { buf: [0; 4], have: 0 };
                        return Ok(FrameProgress::Frame(Bytes::from(payload)));
                    }
                }
            }
        }
    }
}

enum ReadSomeError {
    /// `WouldBlock` / `TimedOut`: the stream has nothing right now.
    Dry,
    Io(std::io::Error),
}

fn read_some<S: Read + ?Sized>(stream: &mut S, buf: &mut [u8]) -> Result<usize, ReadSomeError> {
    loop {
        match stream.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(ReadSomeError::Dry)
            }
            Err(e) => return Err(ReadSomeError::Io(e)),
        }
    }
}

/// Length-prefixed framing over a byte stream.
///
/// Receive progress survives timeouts: a `TimedOut` mid-header or
/// mid-payload stashes the partial bytes and the next `recv_frame`
/// resumes where it left off, so a slow writer never corrupts the
/// stream for a timeout-polling reader.
pub struct LengthPrefixed<S: ByteIo> {
    stream: S,
    max_frame_len: usize,
    recv: FrameAssembler,
    send_buf: Vec<u8>,
}

impl<S: ByteIo> LengthPrefixed<S> {
    pub fn new(stream: S) -> Self {
        Self::with_max(stream, MAX_FRAME_LEN)
    }

    /// Frame `stream` with a custom payload-length bound (tests shrink
    /// it to prove the bound is enforced before allocation).
    ///
    /// # Panics
    /// Panics if the bound cannot be represented in the `u32` length
    /// prefix.
    pub fn with_max(stream: S, max_frame_len: usize) -> Self {
        assert!(max_frame_len <= u32::MAX as usize, "frame bound exceeds the u32 length prefix");
        LengthPrefixed {
            stream,
            max_frame_len,
            recv: FrameAssembler::new(max_frame_len),
            send_buf: Vec::new(),
        }
    }

    /// Write raw bytes beneath the framing layer: the fault tests' hook
    /// for emitting deliberately short frames. Production paths always
    /// go through `send_frame`.
    #[cfg(test)]
    fn send_raw(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// The payload-length bound this connection enforces on both sides.
    pub fn max_frame_len(&self) -> usize {
        self.max_frame_len
    }

    /// Surrender the underlying stream (e.g. to hand a handshaken pipe
    /// end to the reactor, which frames it with its own
    /// [`FrameAssembler`]). Any partially received frame is discarded —
    /// callers convert before the first receive.
    pub fn into_inner(self) -> S {
        self.stream
    }
}

impl<S: ByteIo> FrameConn for LengthPrefixed<S> {
    fn send_frame(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > self.max_frame_len {
            // Mirror of the receive bound: sending a frame the peer is
            // guaranteed to reject (e.g. a snapshot bootstrap of a zone
            // larger than the bound — chunked bootstraps are the
            // eventual fix) fails loudly here instead.
            return Err(TransportError::FrameTooLarge { declared: len, max: self.max_frame_len });
        }
        // One contiguous buffer, one write: the copy is cheap next to
        // per-part syscalls, and the reused buffer amortises to zero
        // allocations at steady state.
        self.send_buf.clear();
        self.send_buf.reserve(4 + len);
        self.send_buf.extend_from_slice(&(len as u32).to_be_bytes());
        for part in parts {
            self.send_buf.extend_from_slice(part);
        }
        self.stream.write_all(&self.send_buf)?;
        self.stream.flush()?;
        Ok(())
    }

    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> Result<(), TransportError> {
        // Bound each frame individually (the receiver enforces the limit
        // per frame, not per batch), then emit the whole run with one
        // buffered write.
        let mut total = 0usize;
        for parts in frames {
            let len: usize = parts.iter().map(|p| p.len()).sum();
            if len > self.max_frame_len {
                return Err(TransportError::FrameTooLarge {
                    declared: len,
                    max: self.max_frame_len,
                });
            }
            total += 4 + len;
        }
        self.send_buf.clear();
        self.send_buf.reserve(total);
        for parts in frames {
            let len: usize = parts.iter().map(|p| p.len()).sum();
            self.send_buf.extend_from_slice(&(len as u32).to_be_bytes());
            for part in *parts {
                self.send_buf.extend_from_slice(part);
            }
        }
        self.stream.write_all(&self.send_buf)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        // On a blocking stream the assembler's `Pending` can only mean
        // the configured read timeout elapsed.
        match self.recv.read_from(&mut self.stream)? {
            FrameProgress::Frame(payload) => Ok(payload),
            FrameProgress::Pending => Err(TransportError::TimedOut),
            FrameProgress::Closed => Err(TransportError::Closed),
        }
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }
}

/// The TCP shape of the transport connection.
pub type TcpFrameConn = LengthPrefixed<TcpStream>;

/// Dial a broker transport endpoint over TCP (Nagle disabled: RZU
/// frames are latency-sensitive and already batched by the publisher's
/// push cadence).
pub fn tcp_connect(addr: std::net::SocketAddr) -> std::io::Result<TcpFrameConn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(LengthPrefixed::new(stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::pipe::duplex;

    #[test]
    fn frames_round_trip_with_multi_part_sends() {
        let (a, b) = duplex(1 << 16);
        let mut tx = LengthPrefixed::new(a);
        let mut rx = LengthPrefixed::new(b);
        tx.send_frame(&[b"hello ", b"world"]).unwrap();
        tx.send_frame(&[b""]).unwrap();
        tx.send_frame(&[b"x"]).unwrap();
        assert_eq!(&rx.recv_frame().unwrap()[..], b"hello world");
        assert_eq!(&rx.recv_frame().unwrap()[..], b"");
        assert_eq!(&rx.recv_frame().unwrap()[..], b"x");
    }

    #[test]
    fn coalesced_batches_are_indistinguishable_from_individual_sends() {
        let (a, b) = duplex(1 << 16);
        let mut tx = LengthPrefixed::new(a);
        let mut rx = LengthPrefixed::new(b);
        // Multi-part frames inside a batch, plus an empty frame.
        tx.send_frames(&[&[b"first ", b"frame"], &[b""], &[b"third"]]).unwrap();
        assert_eq!(&rx.recv_frame().unwrap()[..], b"first frame");
        assert_eq!(&rx.recv_frame().unwrap()[..], b"");
        assert_eq!(&rx.recv_frame().unwrap()[..], b"third");
        // A batch member over the bound fails loudly, like send_frame.
        let (c, _d) = duplex(1 << 16);
        let mut bounded = LengthPrefixed::with_max(c, 4);
        match bounded.send_frames(&[&[b"ok"], &[b"too large"]]) {
            Err(TransportError::FrameTooLarge { declared, max }) => {
                assert_eq!(declared, 9);
                assert_eq!(max, 4);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let (a, b) = duplex(1 << 16);
        let mut tx = LengthPrefixed::new(a);
        // Claim a 3 GiB payload; the receiver's bound is 1 KiB.
        tx.send_raw(&(3u32 << 30).to_be_bytes()).unwrap();
        let mut rx = LengthPrefixed::with_max(b, 1024);
        match rx.recv_frame() {
            Err(TransportError::FrameTooLarge { declared, max }) => {
                assert_eq!(declared, 3 << 30);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_between_frames_is_closed_mid_frame_is_io() {
        let (a, b) = duplex(1 << 16);
        let mut tx = LengthPrefixed::new(a);
        tx.send_frame(&[b"full frame"]).unwrap();
        drop(tx); // peer gone: EOF after the complete frame
        let mut rx = LengthPrefixed::new(b);
        assert_eq!(&rx.recv_frame().unwrap()[..], b"full frame");
        assert!(matches!(rx.recv_frame(), Err(TransportError::Closed)));

        let (a, b) = duplex(1 << 16);
        let mut tx = LengthPrefixed::new(a);
        // A torn frame: the prefix promises 8 bytes, only 3 arrive.
        tx.send_raw(&8u32.to_be_bytes()).unwrap();
        tx.send_raw(b"abc").unwrap();
        drop(tx);
        let mut rx = LengthPrefixed::new(b);
        match rx.recv_frame() {
            Err(TransportError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
            other => panic!("expected mid-frame EOF error, got {other:?}"),
        }
    }

    #[test]
    fn assembler_resumes_across_wouldblock_on_a_nonblocking_stream() {
        let (a, mut b) = duplex(1 << 16);
        let mut tx = LengthPrefixed::new(a);
        b.set_nonblocking(true);
        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        // Nothing buffered: a readiness-driven reader parks, it doesn't
        // error.
        assert!(matches!(asm.read_from(&mut b).unwrap(), FrameProgress::Pending));
        assert!(!asm.mid_frame());
        // Half a frame arrives; the assembler keeps the partial state
        // across the dry spell.
        tx.send_raw(&10u32.to_be_bytes()).unwrap();
        tx.send_raw(b"01234").unwrap();
        assert!(matches!(asm.read_from(&mut b).unwrap(), FrameProgress::Pending));
        assert!(asm.mid_frame());
        tx.send_raw(b"56789").unwrap();
        match asm.read_from(&mut b).unwrap() {
            FrameProgress::Frame(p) => assert_eq!(&p[..], b"0123456789"),
            other => panic!("expected a complete frame, got {other:?}"),
        }
        assert!(!asm.mid_frame());
        drop(tx);
        assert!(matches!(asm.read_from(&mut b).unwrap(), FrameProgress::Closed));
    }

    #[test]
    fn timeout_preserves_partial_frame_progress() {
        let (a, b) = duplex(1 << 16);
        let mut tx = LengthPrefixed::new(a);
        let mut rx = LengthPrefixed::new(b);
        rx.set_recv_timeout(Some(Duration::from_millis(5))).unwrap();
        // First half of a frame, then a pause the reader times out on.
        tx.send_raw(&10u32.to_be_bytes()).unwrap();
        tx.send_raw(b"01234").unwrap();
        assert!(matches!(rx.recv_frame(), Err(TransportError::TimedOut)));
        tx.send_raw(b"56789").unwrap();
        assert_eq!(&rx.recv_frame().unwrap()[..], b"0123456789");
    }
}
