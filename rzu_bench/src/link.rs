//! The harness's [`FrameConn`] wrapper: one per inter-tier link.
//!
//! It counts what crossed the link (bytes with their 4-byte prefixes,
//! heartbeats) and what did not (receive timeouts), and with
//! tracing on records one span per received frame — the time inside
//! `recv_frame`, ending at the frame's arrival — stamped with the op in
//! flight. Counting is always on: it is what `wire_bytes_per_op` and the
//! in-op-timeout check read.

use crate::trace::TraceCtl;
use darkdns_broker::transport::{Bytes, FrameConn, TransportError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Noise rule (b): consumers block in `recv_frame` for up to this long
/// and never poll. An op that ends through this timeout did not finish;
/// it waited out a timer, and counts as failed.
pub const RECV_TIMEOUT: Duration = Duration::from_millis(250);

/// Counters of one link, shared by every connection dialled over it.
pub struct Link {
    /// Span name of this link's arrivals (`link1.recv`, ...).
    pub name: &'static str,
    rx_bytes: AtomicU64,
    heartbeats: AtomicU64,
    timeouts: AtomicU64,
    ctl: Arc<TraceCtl>,
}

impl Link {
    pub fn new(name: &'static str, ctl: &Arc<TraceCtl>) -> Arc<Link> {
        Arc::new(Link {
            name,
            rx_bytes: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            ctl: Arc::clone(ctl),
        })
    }

    /// Bytes received, heartbeats and length prefixes included.
    pub fn rx_bytes(&self) -> u64 {
        self.rx_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of non-empty frames only: what a verbatim re-serve must
    /// reproduce on every tier (heartbeats are per-link idle filler).
    pub fn payload_bytes(&self) -> u64 {
        self.rx_bytes() - 4 * self.heartbeats.load(Ordering::Relaxed)
    }

    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Wrap `inner` so its traffic is accounted to this link.
    pub fn wrap<C: FrameConn>(self: &Arc<Self>, inner: C) -> LinkConn<C> {
        LinkConn {
            inner,
            link: Arc::clone(self),
        }
    }
}

/// A connection whose received frames are accounted to a [`Link`].
pub struct LinkConn<C> {
    inner: C,
    link: Arc<Link>,
}

impl<C: FrameConn> FrameConn for LinkConn<C> {
    fn send_frame(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        self.inner.send_frame(parts)
    }

    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> Result<(), TransportError> {
        self.inner.send_frames(frames)
    }

    fn recv_frame(&mut self) -> Result<Bytes, TransportError> {
        let link = &self.link;
        let start = if link.ctl.is_on() {
            link.ctl.now_ns()
        } else {
            0
        };
        match self.inner.recv_frame() {
            Ok(frame) => {
                // Relaxed throughout: plain statistics, read after the
                // op that produced them has completed on this thread or
                // been joined.
                link.rx_bytes
                    .fetch_add(4 + frame.len() as u64, Ordering::Relaxed);
                if frame.is_empty() {
                    link.heartbeats.fetch_add(1, Ordering::Relaxed);
                } else {
                    if start != 0 {
                        link.ctl.record_remote(link.name, start, link.ctl.now_ns());
                    }
                }
                Ok(frame)
            }
            Err(e) => {
                if matches!(e, TransportError::TimedOut) {
                    link.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_recv_timeout(timeout)
    }

    fn set_send_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_send_timeout(timeout)
    }
}
