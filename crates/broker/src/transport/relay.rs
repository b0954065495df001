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
//! * **One resync per fault, at the faulted tier only.** The relay is a
//!   driver of the shared upstream link ([`super::replica`]), exactly
//!   like any subscriber: on a fault the link retires the connection
//!   and redials carrying the local broker's head serials (plus any
//!   mid-snapshot chunk progress it salvaged), so the upstream heals it
//!   with a delta replay whenever its retention ring covers the outage.
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
//! What is *this module's* is only what to do with an upstream event:
//! install a snapshot, re-publish a chaining delta verbatim, skip a
//! replay, treat a gap as a fault. Dialling, the backoff ladder, heal
//! accounting and chunk-progress salvage are the link's — the same
//! [`UpstreamLink`] + one-replica [`ReplicaSet`] a `RemoteZoneView`
//! runs. A dead upstream is therefore dialled at the workspace's one
//! bounded rate (50 ms doubling to 2 s), and the thread waits a backoff
//! window out in slices no longer than its stop-flag poll, so
//! [`BrokerServer::shutdown`] never sits through one.
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
use super::replica::{ReplicaSet, UpstreamLink};
use super::server::BrokerServer;
use crate::broker::Broker;
use crate::transport::ClientEvent;
use darkdns_registry::tld::TldId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the relay blocks per receive before checking the stop flag.
const RELAY_RECV_TIMEOUT: Duration = Duration::from_millis(50);

darkdns_dns::counter_set! {
    /// Monotonic counters for one upstream attachment.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RelayStats, cells RelayCells {
        local {
            /// Upstream connections established (the first is the
            /// bootstrap).
            connects,
            /// Faults healed by a reconnect-with-claims (successful
            /// redials after a dead connection; failed dial attempts are
            /// not counted).
            resyncs,
            /// Upstream `RZU1` frames re-published verbatim into the
            /// local broker.
            frames_relayed,
            /// Replayed upstream deltas skipped because they did not
            /// advance the local head (duplicate deliveries after a
            /// reconnect).
            frames_skipped,
            /// Upstream snapshots adopted via [`Broker::install_snapshot`]
            /// (bootstraps and ring-overrun resyncs). Bumped with
            /// `Release`, after `snapshot_chunks` is stored and declared
            /// before it: a reader that sees an install counted sees the
            /// chunks of the train that delivered it.
            snapshots_installed,
            /// Snapshot continuation chunks received from upstream (pins
            /// that a resumed bootstrap skipped the chunks it already
            /// had).
            snapshot_chunks,
            /// Dial attempts that failed outright (connection refused,
            /// dead endpoint, or a HELLO that could not be written) — the
            /// "why" behind a slow resync: many dial failures with few
            /// resyncs means the upstream was unreachable, not that the
            /// stream was faulty.
            dial_failures,
            /// Established streams that died (peer closed, eviction,
            /// corrupt frame, or a gap that forced a redial) — each
            /// precedes at most one resync.
            stream_faults,
        }
    }
}

#[derive(Default)]
struct RelayShared {
    counters: RelayCells,
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
        self.shared.counters.load()
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
    /// the initial connect and again after every fault, a refused dial
    /// sidelining the upstream on the shared backoff ladder; each HELLO
    /// carries the local broker's current head serials and any
    /// mid-snapshot chunk progress, so recovery is a delta replay (or a
    /// resumed chunk train), not a fresh bootstrap.
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
            let mut link = UpstreamLink::new(ReplicaSet::new(1, 0));
            let counters = &shared.counters;
            // What this node has *durably* reached — its own broker
            // heads — is both the HELLO's claims and what the link's
            // lockstep check compares a dying client's claims against:
            // a claim advances exactly when the frame is published
            // locally.
            let heads = || -> Vec<(TldId, Option<darkdns_dns::Serial>)> {
                tlds.iter().map(|&t| (t, broker.head(t).map(|h| h.serial()))).collect()
            };
            while !reactor.is_stopping() {
                if !link.is_connected() {
                    let healed = link.connect(&heads(), |_| dial());
                    counters.dial_failures.store(link.replicas().dial_failures(), Ordering::Relaxed);
                    let Ok(healed) = healed else {
                        // Wait out the backoff window, in slices no
                        // longer than the stop-flag poll.
                        let wait = link.replicas().retry_at().map_or(RELAY_RECV_TIMEOUT, |at| {
                            at.saturating_duration_since(Instant::now()).min(RELAY_RECV_TIMEOUT)
                        });
                        std::thread::sleep(wait);
                        continue;
                    };
                    if link.set_recv_timeout(Some(RELAY_RECV_TIMEOUT)).is_err() {
                        link.retire(&heads());
                        continue;
                    }
                    counters.connects.fetch_add(1, Ordering::Relaxed);
                    if healed {
                        counters.resyncs.fetch_add(1, Ordering::Relaxed);
                    }
                    shared.connected.store(true, Ordering::Relaxed);
                }
                let faulted = match link.next_event() {
                    ClientEvent::Idle => false,
                    ClientEvent::Snapshot { tld, snapshot } => {
                        broker.install_snapshot(tld, snapshot);
                        // The train that delivered it first: a stats()
                        // reader that sees the install counted must see
                        // its chunks counted (Release here, and `load`
                        // reads installs before chunks, with Acquire).
                        counters
                            .snapshot_chunks
                            .store(link.snapshot_chunks_received(), Ordering::Relaxed);
                        counters.snapshots_installed.fetch_add(1, Ordering::Release);
                        false
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
                                counters.frames_relayed.fetch_add(1, Ordering::Relaxed);
                                broker.publish_frame(
                                    tld,
                                    push.delta,
                                    push.to_serial,
                                    push.pushed_at,
                                    frame,
                                );
                                false
                            }
                            Relayed::Replay => {
                                counters.frames_skipped.fetch_add(1, Ordering::Relaxed);
                                false
                            }
                            Relayed::Gap => true, // corrupt stream: redial
                        }
                    }
                    ClientEvent::Evicted | ClientEvent::Closed(_) => true,
                };
                counters.snapshot_chunks.store(link.snapshot_chunks_received(), Ordering::Relaxed);
                if faulted {
                    shared.connected.store(false, Ordering::Relaxed);
                    link.retire(&heads());
                    counters.stream_faults.store(link.stream_faults(), Ordering::Relaxed);
                }
            }
            shared.connected.store(false, Ordering::Relaxed);
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
