//! Scriptable fault injection at the frame boundary.
//!
//! [`FaultInjectedConn`] bundles the server side of a pipe with a
//! [`FaultScript`]; the reactor consults the script as it composes each
//! outgoing protocol frame into the connection's ring (idle heartbeats
//! bypass the script — faults are scripted against the protocol frame
//! sequence, which must stay deterministic under timing-dependent
//! heartbeat interleavings). Faults are expressed in the transport's
//! own vocabulary — truncate this frame and cut, flip a byte, deliver
//! it twice, drop the link — so a test reads as a network incident
//! report rather than a byte-twiddling exercise. The injected damage
//! still travels through the real ring flush and the client's real
//! framing layer and decoders: a truncated frame is produced by
//! flushing a short payload under a full-length prefix (exactly what a
//! mid-frame TCP disconnect leaves behind), not by handing the client a
//! pre-broken in-process value.

use super::pipe::PipeEnd;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// What to do to the next outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Pass the frame through untouched.
    Deliver,
    /// Write the full-length prefix but only the first `n` payload
    /// bytes, then hard-cut the pipe: the peer sees a mid-frame
    /// disconnect (its framing layer hits EOF/reset inside a payload).
    TruncateAndCut(usize),
    /// Deliver the frame with payload byte `i % len` flipped: framing
    /// succeeds, the payload decoder must reject it cleanly.
    CorruptByte(usize),
    /// Deliver the frame twice: the consumer must detect the replayed
    /// serial and must not apply the delta a second time.
    Duplicate,
    /// Hard-cut the pipe without sending anything.
    CutBefore,
}

/// A shared, thread-safe queue of planned faults. Frames pop the front;
/// an exhausted script delivers everything untouched.
#[derive(Clone, Default)]
pub struct FaultScript {
    // lock-level: 75 (leaf: consulted per composed frame with no other
    // tracked lock held; test harness only, not runtime-registered)
    plan: Arc<Mutex<VecDeque<FrameFault>>>,
}

impl FaultScript {
    pub fn new(faults: impl IntoIterator<Item = FrameFault>) -> Self {
        FaultScript { plan: Arc::new(Mutex::new(faults.into_iter().collect())) }
    }

    /// Pop the fault for the next protocol frame.
    pub(super) fn next_fault(&self) -> FrameFault {
        self.plan
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_front()
            .unwrap_or(FrameFault::Deliver)
    }
}

/// The server-side test double: a pipe-backed connection whose outgoing
/// frames suffer scripted faults. Hand it to
/// [`BrokerServer::serve_conn`](super::BrokerServer::serve_conn) — the
/// reactor applies the script where the old per-connection writer
/// thread used to, at the frame boundary.
pub struct FaultInjectedConn {
    pub(super) end: PipeEnd,
    pub(super) max_frame_len: usize,
    pub(super) script: FaultScript,
}

impl FaultInjectedConn {
    /// Wrap the server end of a pipe. `TruncateAndCut` / `CutBefore`
    /// sever through the pipe's own cut handle.
    pub fn new(end: PipeEnd, max_frame_len: usize, script: FaultScript) -> Self {
        FaultInjectedConn { end, max_frame_len, script }
    }
}
