//! Relay tier: a [`BrokerServer`] that subscribes to another broker.
//!
//! [`BrokerServer::attach_upstream`] turns a server into a **relay
//! node** of a fan-out tree: it dials an upstream broker over the same
//! frame transport subscribers use, folds the upstream stream into its
//! own local broker, and re-serves it to its own subscribers — which
//! may themselves be relays. Two invariants make the tree behave like
//! one broker:
//!
//! * **Verbatim re-serve.** A delta crosses every tier as the *same*
//!   `RZU1` bytes the root publisher sealed. The upstream client hands
//!   the relay the embedded `RZU1` slice of each `RZUD` envelope
//!   ([`ClientEvent::Delta`]'s `frame`), and the relay publishes it
//!   with [`Broker::publish_frame`] — no re-encode, and within one
//!   process no copy (the slice refcount-shares the received buffer).
//!   A leaf at depth N receives frames byte-identical to the root's
//!   encoding; the relay fault tests pin exactly that.
//! * **One resync per fault, at the faulted tier only.** The relay
//!   tracks per-TLD serials exactly like any subscriber: on a fault it
//!   redials carrying its local broker's head serials (plus any
//!   mid-snapshot chunk progress), so the upstream heals it with a
//!   delta replay whenever its retention ring covers the outage.
//!   Downstream subscribers never notice — their connections to this
//!   relay stayed up, and replayed upstream deltas that do not chain
//!   on the local head are skipped, never double-published. Only when
//!   the upstream answers with a *snapshot* (the relay outslept the
//!   ring) does the relay reset its shard and fan that snapshot to its
//!   own subscribers ([`Broker::install_snapshot`]), cascading exactly
//!   one resync per affected consumer.
//!
//! The relay thread sits **outside** the reactor: it is a blocking
//! transport client like any other subscriber, and it talks to the
//! local broker only through the public publish/install surface — the
//! documented lock hierarchy (shard → subscriber queue, reactor below)
//! is untouched at every tree depth.
//!
//! # Shard-filtered relays
//!
//! The `tlds` argument of [`BrokerServer::attach_upstream`] is a real
//! wire-level filter, not a local convenience: the relay's HELLO claims
//! exactly those shards, the upstream registers the subscription on
//! those shard queues *only*, and its reactor therefore never composes
//! a non-matching shard's frame toward this connection. A regional
//! relay subscribing to 10% of the root's TLDs costs 10% of the
//! per-link bytes (the `relay/filtered` bench gauges this), and the
//! verbatim re-serve invariant holds unchanged for the subscribed
//! subset — leaves below a filtered relay still see the root's exact
//! `RZU1` bytes for every TLD the relay carries. A fault on a filtered
//! link heals with claims for the subscribed subset alone: the resync
//! never touches shards the relay does not carry.
//!
//! Relays always subscribe with the full catch-up scope. The wire's
//! delta-only partial subscription
//! ([`darkdns_dns::wire::HelloScope::DeltaOnly`]) is for stateless
//! *tap* consumers (an NRD watcher that only cares about churn going
//! forward): a relay must be able to re-serve bootstraps, and a
//! delta-only relay with no local state would gap forever.

use super::frame::{FrameConn, TransportError};
use super::server::BrokerServer;
use crate::broker::Broker;
use crate::transport::{ClientEvent, TransportClient};
use darkdns_registry::tld::TldId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long the relay blocks per receive before checking the stop flag.
const RELAY_RECV_TIMEOUT: Duration = Duration::from_millis(50);
/// Redial backoff bounds: doubling from the floor to the ceiling, reset
/// on every successful connect.
const BACKOFF_FLOOR: Duration = Duration::from_millis(5);
const BACKOFF_CEIL: Duration = Duration::from_millis(200);

/// Monotonic counters for one upstream attachment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayStats {
    /// Upstream connections established (the first is the bootstrap).
    pub connects: u64,
    /// Faults healed by a reconnect-with-claims (successful redials
    /// after a dead connection; failed dial attempts are not counted).
    pub resyncs: u64,
    /// Upstream `RZU1` frames re-published verbatim into the local
    /// broker.
    pub frames_relayed: u64,
    /// Replayed upstream deltas skipped because they did not advance
    /// the local head (duplicate deliveries after a reconnect).
    pub frames_skipped: u64,
    /// Upstream snapshots adopted via [`Broker::install_snapshot`]
    /// (bootstraps and ring-overrun resyncs).
    pub snapshots_installed: u64,
    /// Snapshot continuation chunks received from upstream (pins that
    /// a resumed bootstrap skipped the chunks it already had).
    pub snapshot_chunks: u64,
    /// Dial attempts that failed outright (connection refused, dead
    /// endpoint) — the "why" behind a slow resync: many dial failures
    /// with few resyncs means the upstream was unreachable, not that
    /// the stream was faulty.
    pub dial_failures: u64,
    /// Established streams that died (peer closed, eviction, corrupt
    /// frame, or a gap that forced a redial) — each precedes at most
    /// one resync.
    pub stream_faults: u64,
}

#[derive(Default)]
struct RelayShared {
    connects: AtomicU64,
    resyncs: AtomicU64,
    frames_relayed: AtomicU64,
    frames_skipped: AtomicU64,
    snapshots_installed: AtomicU64,
    snapshot_chunks: AtomicU64,
    dial_failures: AtomicU64,
    stream_faults: AtomicU64,
    connected: AtomicBool,
}

/// Observer handle for one [`BrokerServer::attach_upstream`] call.
/// Cloneable; the relay thread itself is owned by the server and joins
/// on [`BrokerServer::shutdown`].
#[derive(Clone)]
pub struct RelayHandle {
    shared: Arc<RelayShared>,
}

impl RelayHandle {
    /// A point-in-time copy of the relay counters.
    pub fn stats(&self) -> RelayStats {
        let s = &self.shared;
        RelayStats {
            connects: s.connects.load(Ordering::Relaxed),
            resyncs: s.resyncs.load(Ordering::Relaxed),
            frames_relayed: s.frames_relayed.load(Ordering::Relaxed),
            frames_skipped: s.frames_skipped.load(Ordering::Relaxed),
            snapshots_installed: s.snapshots_installed.load(Ordering::Relaxed),
            snapshot_chunks: s.snapshot_chunks.load(Ordering::Relaxed),
            dial_failures: s.dial_failures.load(Ordering::Relaxed),
            stream_faults: s.stream_faults.load(Ordering::Relaxed),
        }
    }

    /// True while the upstream connection is established (it may still
    /// be found dead on the next receive).
    pub fn is_connected(&self) -> bool {
        self.shared.connected.load(Ordering::Relaxed)
    }
}

impl BrokerServer {
    /// Attach this server to an upstream broker: subscribe to `tlds`
    /// over the connection `dial` produces and fold the stream into the
    /// local broker, re-serving each delta's `RZU1` bytes verbatim (see
    /// the module docs for the tree invariants). `dial` is called for
    /// the initial connect and again after every fault, with doubling
    /// bounded backoff between failed attempts; each HELLO carries the
    /// local broker's current head serials and any mid-snapshot chunk
    /// progress, so recovery is a delta replay (or a resumed chunk
    /// train), not a fresh bootstrap.
    ///
    /// The relay runs on its own thread, owned by the server and joined
    /// by [`BrokerServer::shutdown`] — so a relay node's
    /// [`BrokerServer::transport_threads`] is `1 + attachments`, not
    /// `1`. TLDs the local broker does not know yet are registered when
    /// the upstream's bootstrap snapshot arrives.
    pub fn attach_upstream<D>(&self, tlds: Vec<TldId>, mut dial: D) -> RelayHandle
    where
        D: FnMut() -> Result<Box<dyn FrameConn>, TransportError> + Send + 'static,
    {
        let shared = Arc::new(RelayShared::default());
        let handle = RelayHandle { shared: Arc::clone(&shared) };
        let broker = self.inner.broker.clone();
        let reactor = self.reactor.clone();
        let thread = std::thread::spawn(move || {
            let mut partials = Vec::new();
            let mut backoff = BACKOFF_FLOOR;
            // Faults since the last successful connect: the first
            // connect is a bootstrap, every later one heals a fault.
            let mut healing = false;
            while !reactor.is_stopping() {
                // Claim the serials this node has *durably* reached —
                // its own broker heads. The dead client's claims are
                // always identical: a claim advances exactly when the
                // frame is published locally.
                let claims: Vec<(TldId, Option<darkdns_dns::Serial>)> =
                    tlds.iter().map(|&t| (t, broker.head(t).map(|h| h.serial()))).collect();
                let conn = match dial() {
                    Ok(conn) => conn,
                    Err(_) => {
                        shared.dial_failures.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_CEIL);
                        continue;
                    }
                };
                let mut client =
                    match TransportClient::connect_resuming(conn, &claims, std::mem::take(&mut partials)) {
                        Ok(client) => client,
                        Err(_) => {
                            shared.dial_failures.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(BACKOFF_CEIL);
                            continue;
                        }
                    };
                if client.set_recv_timeout(Some(RELAY_RECV_TIMEOUT)).is_err() {
                    continue;
                }
                backoff = BACKOFF_FLOOR;
                shared.connects.fetch_add(1, Ordering::Relaxed);
                if healing {
                    shared.resyncs.fetch_add(1, Ordering::Relaxed);
                }
                shared.connected.store(true, Ordering::Relaxed);
                let mut last_chunks = 0;
                while !reactor.is_stopping() {
                    match client.next_event() {
                        ClientEvent::Idle => continue,
                        ClientEvent::Snapshot { tld, snapshot } => {
                            broker.install_snapshot(tld, snapshot);
                            shared.snapshots_installed.fetch_add(1, Ordering::Relaxed);
                        }
                        ClientEvent::Delta { tld, push, frame } => {
                            match relay_decision(&broker, tld, &push) {
                                Relayed::Published => {
                                    // Count before publishing: the frame
                                    // is downstream-visible the instant
                                    // it lands in the broker, and stats()
                                    // readers must never observe a
                                    // delivered frame the counter has
                                    // not reached yet.
                                    shared.frames_relayed.fetch_add(1, Ordering::Relaxed);
                                    broker.publish_frame(
                                        tld,
                                        push.delta.clone(),
                                        push.to_serial,
                                        push.pushed_at,
                                        frame,
                                    );
                                }
                                Relayed::Replay => {
                                    shared.frames_skipped.fetch_add(1, Ordering::Relaxed);
                                }
                                Relayed::Gap => break, // corrupt stream: redial
                            }
                        }
                        ClientEvent::Evicted | ClientEvent::Closed(_) => break,
                    }
                    let chunks = client.snapshot_chunks_received();
                    shared.snapshot_chunks.fetch_add(chunks - last_chunks, Ordering::Relaxed);
                    last_chunks = chunks;
                }
                shared.connected.store(false, Ordering::Relaxed);
                // Salvage mid-snapshot progress for the reconnect HELLO.
                partials = client.take_snapshot_progress();
                let chunks = client.snapshot_chunks_received();
                shared.snapshot_chunks.fetch_add(chunks - last_chunks, Ordering::Relaxed);
                healing = !reactor.is_stopping();
                if healing {
                    // The established stream died (as opposed to a dial
                    // that never connected): record the failover reason.
                    shared.stream_faults.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        self.reactor.adopt_thread(thread);
        handle
    }
}

/// How one upstream delta should land in the local broker.
enum Relayed {
    Published,
    Replay,
    Gap,
}

/// Chain-check an upstream delta against the local head: `Published`
/// means it advances and the caller should re-publish the received
/// frame verbatim (the caller publishes — not this check — so the
/// relayed-frame counter can be bumped before the frame becomes
/// downstream-visible). The upstream guarantees a gap-free per-shard
/// stream, so `Gap` means the connection corrupted — the caller redials
/// rather than ever publishing out of order.
fn relay_decision(broker: &Broker, tld: TldId, push: &darkdns_dns::wire::DeltaPush) -> Relayed {
    let Some(head) = broker.head(tld) else {
        // Delta before the bootstrap snapshot: only possible on a
        // corrupt stream.
        return Relayed::Gap;
    };
    if push.from_serial == head.serial() {
        Relayed::Published
    } else if !push.to_serial.is_newer_than(head.serial()) {
        // A replayed delta from before the reconnect point: the local
        // journal already has it (and so do downstream subscribers).
        Relayed::Replay
    } else {
        Relayed::Gap
    }
}
