//! The four workloads, and what each owes the runner.
//!
//! Every workload drives the stack only through its public functions,
//! with the default `BrokerConfig`, `TransportConfig`, `EdgeConfig` and
//! `EdgeIndexConfig`: a benchmark that tunes `writer_tick` measures a
//! system nobody runs.

pub mod cold_catchup;
pub mod edge_lookup;
pub mod edge_visibility;
pub mod relay_chain;

use crate::link::{Link, LinkConn, RECV_TIMEOUT};
use crate::trace::{TraceCtl, Tracer};
use darkdns_broker::transport::{tcp_connect, FrameConn, TcpFrameConn, TransportError};
use darkdns_dns::hash::FxHasher;
use darkdns_dns::wire::LookupQuery;
use darkdns_dns::{ZoneDelta, ZoneSnapshot};
use darkdns_edge::EdgeIndex;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An op still running after this long has failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);
/// Delegations a block delta adds (odd serial) or removes (even).
pub const BLOCK: usize = 100;

/// One shard's worth of the workload's own inputs, for the side loops
/// that time a single layer directly.
pub struct SideInputs {
    pub tld: u16,
    pub snapshot: ZoneSnapshot,
    pub add: ZoneDelta,
    pub remove: ZoneDelta,
    pub batch: Vec<LookupQuery>,
    /// The index the workload serves `batch` from, where the batch spans
    /// more shards than `tld`; `None` has the side loop answer it from
    /// its own one-shard index.
    pub served_by: Option<Arc<EdgeIndex>>,
}

/// What the runner needs from a workload. An *op* is one unit of user-
/// visible work, verified before it returns: `Err` is a failed op.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Open-loop rate of the paced phase (about 20 % of capacity);
    /// `None` runs the whole measured time closed-loop.
    const PACED_RATE: Option<f64>;
    /// Ops the warm-up completes at least, so bounded state (the edge's
    /// NRD window) is at its steady size before anything is measured.
    const WARM_OPS: u64;

    /// Build inputs from `seed`, start every tier, bootstrap, verify.
    fn setup(seed: u64, ctl: &Arc<TraceCtl>) -> Result<Self, String>;
    /// One verified op; spans it records are children of `parent`.
    fn op(&mut self, tr: &mut Tracer, parent: u32) -> Result<(), String>;
    /// Bytes received so far on the consumer side (prefixes included).
    fn rx_bytes(&self) -> u64;
    /// Monotonic layer counters by metric stem (`relay.frames_relayed`).
    fn counters(&self) -> Vec<(&'static str, f64)>;
    fn side_inputs(&self) -> SideInputs;
    /// The end-of-run correctness gate.
    fn verify_final(&mut self) -> Result<(), String>;
    /// Stop every tier and join its threads.
    fn teardown(self);
}

/// Dial `addr` over loopback TCP with the harness's blocking receive
/// timeout, accounted to `link`.
pub fn dial(addr: SocketAddr, link: &Arc<Link>) -> Result<LinkConn<TcpFrameConn>, TransportError> {
    let mut conn = link.wrap(tcp_connect(addr).map_err(TransportError::Io)?);
    conn.set_recv_timeout(Some(RECV_TIMEOUT))?;
    Ok(conn)
}

/// Set-up only: wait for a condition no tier offers a blocking wait
/// for. Sleeps between checks; never used inside a measured op.
pub(crate) fn wait_until(what: &str, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        if Instant::now() >= deadline {
            return Err(format!("set-up timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// Order-sensitive hash of a snapshot's serial and full contents.
pub fn content_hash(snapshot: &ZoneSnapshot) -> u64 {
    let mut h = FxHasher::default();
    snapshot.serial().get().hash(&mut h);
    snapshot.len().hash(&mut h);
    for (domain, ns) in snapshot.iter() {
        domain.hash(&mut h);
        ns.hash(&mut h);
    }
    h.finish()
}

/// Field-by-field equality of two snapshots of one shard.
pub(crate) fn same_state(a: &ZoneSnapshot, b: &ZoneSnapshot) -> bool {
    a.serial() == b.serial()
        && a.domain_column() == b.domain_column()
        && a.ns_column() == b.ns_column()
}

/// The op-loop guard shared by every pump loop: an in-op receive
/// timeout or an overlong op is a failure, not a sample.
pub(crate) fn check_progress(
    link: &Link,
    timeouts_at_start: u64,
    started: Instant,
) -> Result<(), String> {
    if link.timeouts() != timeouts_at_start {
        return Err(format!("receive timeout on {} inside an op", link.name));
    }
    if started.elapsed() > OP_TIMEOUT {
        return Err(format!("op exceeded {} s", OP_TIMEOUT.as_secs()));
    }
    Ok(())
}
