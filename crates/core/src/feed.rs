//! The in-memory topic bus and the public NRD feed.
//!
//! The paper's measurement infrastructure glues its stages together with
//! Kafka topics; the reproduction uses an in-process broadcast topic built
//! on crossbeam channels. The same machinery implements the paper's
//! released artifact — the public "zonestream" feed of newly
//! registered domains (reference 33 of the paper) — which the repository's examples subscribe to.
//!
//! Topics are **bounded**: every subscriber has a channel of fixed
//! capacity, and a publisher never blocks on a slow consumer. On
//! overflow the topic either drops the message for that subscriber
//! (counted — [`Subscription::dropped_count`]) or evicts the subscriber
//! outright, per [`OverflowPolicy`]. This replaces the earlier unbounded
//! semantics, under which one stalled consumer grew its queue without
//! limit — at zone scale, an OOM with extra steps. The same policy
//! vocabulary is used by the RZU distribution broker
//! (`darkdns_broker`), which additionally offers snapshot catch-up for
//! subscribers that fell behind.

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use darkdns_broker::lockdep::{LockClass, TrackedMutex};
use darkdns_dns::DomainName;
use darkdns_sim::time::SimTime;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The topic subscriber registry's lock class: a leaf — `publish`
/// try-sends on crossbeam channels under it but never takes another
/// tracked lock. Level from `docs/INVARIANTS.md`.
static TOPIC_SUBS: LockClass = LockClass::new("core.topic_subs", 80);

/// What a topic does with a subscriber whose channel is full — the same
/// policy vocabulary the RZU distribution broker uses.
pub use darkdns_broker::OverflowPolicy;

/// Default per-subscriber channel capacity.
const DEFAULT_TOPIC_CAPACITY: usize = 4096;

struct TopicSubscriber<T> {
    tx: Sender<T>,
    dropped: Arc<AtomicU64>,
}

/// A broadcast topic: every subscriber receives every message published
/// after it subscribed, up to its bounded buffer.
pub struct Topic<T: Clone> {
    // lock-level: 80
    subscribers: Arc<TrackedMutex<Vec<TopicSubscriber<T>>>>,
    capacity: usize,
    overflow: OverflowPolicy,
}

impl<T: Clone> Default for Topic<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Clone for Topic<T> {
    fn clone(&self) -> Self {
        Topic {
            subscribers: Arc::clone(&self.subscribers),
            capacity: self.capacity,
            overflow: self.overflow,
        }
    }
}

impl<T: Clone> Topic<T> {
    /// A topic with the default capacity and the Lag overflow policy.
    pub fn new() -> Self {
        Topic::with_config(DEFAULT_TOPIC_CAPACITY, OverflowPolicy::Lag)
    }

    /// A topic with explicit per-subscriber capacity and overflow policy.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_config(capacity: usize, overflow: OverflowPolicy) -> Self {
        assert!(capacity > 0, "topic capacity must be positive");
        Topic {
            subscribers: Arc::new(TrackedMutex::new(&TOPIC_SUBS, Vec::new())),
            capacity,
            overflow,
        }
    }

    /// Subscribe; messages published from now on are delivered, up to
    /// the topic's per-subscriber capacity.
    pub fn subscribe(&self) -> Subscription<T> {
        let (tx, rx) = bounded(self.capacity);
        let dropped = Arc::new(AtomicU64::new(0));
        self.subscribers.lock().push(TopicSubscriber { tx, dropped: Arc::clone(&dropped) });
        Subscription { rx, dropped }
    }

    /// Publish to all live subscribers. Dropped subscribers are pruned;
    /// full subscribers lag or are evicted per the overflow policy.
    pub fn publish(&self, message: T) {
        let mut subs = self.subscribers.lock();
        let overflow = self.overflow;
        subs.retain(|sub| match sub.tx.try_send(message.clone()) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => match overflow {
                OverflowPolicy::Lag => {
                    sub.dropped.fetch_add(1, Ordering::Relaxed);
                    true
                }
                OverflowPolicy::Evict => false,
            },
            Err(TrySendError::Disconnected(_)) => false,
        });
    }

    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().len()
    }

    /// Messages dropped across all *current* subscribers (evicted ones
    /// no longer count). A publisher that must not lose records checks
    /// this after the run instead of trusting silence.
    pub fn dropped_total(&self) -> u64 {
        self.subscribers.lock().iter().map(|s| s.dropped.load(Ordering::Relaxed)).sum()
    }

    /// Per-subscriber channel capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A consumer handle for a [`Topic`].
pub struct Subscription<T> {
    rx: Receiver<T>,
    dropped: Arc<AtomicU64>,
}

impl<T> Subscription<T> {
    /// Non-blocking poll.
    pub fn try_next(&self) -> Option<T> {
        match self.rx.try_recv() {
            Ok(v) => Some(v),
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => None,
        }
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = self.try_next() {
            out.push(v);
        }
        out
    }

    /// Messages this subscriber missed because its buffer was full.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// One record on the public newly-registered-domain feed ("zonestream").
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NrdFeedRecord {
    pub domain: DomainName,
    /// When the pipeline first saw the name in CT.
    pub detected_at: SimTime,
    /// RDAP-reported creation time, when collection succeeded.
    pub rdap_created: Option<SimTime>,
    /// Sponsoring registrar, when known.
    pub registrar: Option<String>,
}

/// The public feed the paper releases: a topic of [`NrdFeedRecord`]s.
pub type NrdFeed = Topic<NrdFeedRecord>;

/// Capacity for archive-shaped feeds whose consumers drain once at the
/// end of a run (the experiment's released zonestream artifact): large
/// enough to hold every NRD of a paper-scale window, while still
/// bounding a runaway publisher. Live consumers that poll as they go
/// are fine with [`DEFAULT_TOPIC_CAPACITY`].
pub const ARTIFACT_FEED_CAPACITY: usize = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_subscribe_round_trip() {
        let topic: Topic<u32> = Topic::new();
        let sub = topic.subscribe();
        topic.publish(1);
        topic.publish(2);
        assert_eq!(sub.drain(), vec![1, 2]);
    }

    #[test]
    fn subscribers_only_see_messages_after_joining() {
        let topic: Topic<u32> = Topic::new();
        topic.publish(1);
        let sub = topic.subscribe();
        topic.publish(2);
        assert_eq!(sub.drain(), vec![2]);
    }

    #[test]
    fn multiple_subscribers_each_get_everything() {
        let topic: Topic<&'static str> = Topic::new();
        let a = topic.subscribe();
        let b = topic.subscribe();
        topic.publish("x");
        assert_eq!(a.drain(), vec!["x"]);
        assert_eq!(b.drain(), vec!["x"]);
        assert_eq!(topic.subscriber_count(), 2);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let topic: Topic<u32> = Topic::new();
        {
            let _sub = topic.subscribe();
        }
        topic.publish(5); // send fails; subscriber pruned
        assert_eq!(topic.subscriber_count(), 0);
    }

    #[test]
    fn try_next_on_empty_is_none() {
        let topic: Topic<u32> = Topic::new();
        let sub = topic.subscribe();
        assert_eq!(sub.try_next(), None);
    }

    #[test]
    fn full_subscriber_lags_and_counts_drops() {
        let topic: Topic<u32> = Topic::with_config(3, OverflowPolicy::Lag);
        let sub = topic.subscribe();
        for i in 0..10 {
            topic.publish(i);
        }
        // The first 3 fit; the rest were dropped for this subscriber.
        assert_eq!(sub.drain(), vec![0, 1, 2]);
        assert_eq!(sub.dropped_count(), 7);
        assert_eq!(topic.subscriber_count(), 1, "lagging subscriber stays registered");
    }

    #[test]
    fn draining_heals_a_lagging_subscriber() {
        let topic: Topic<u32> = Topic::with_config(2, OverflowPolicy::Lag);
        let sub = topic.subscribe();
        topic.publish(1);
        topic.publish(2);
        topic.publish(3); // dropped
        assert_eq!(sub.drain(), vec![1, 2]);
        topic.publish(4); // fits again after the drain
        assert_eq!(sub.drain(), vec![4]);
        assert_eq!(sub.dropped_count(), 1);
    }

    #[test]
    fn evict_policy_removes_slow_subscribers() {
        let topic: Topic<u32> = Topic::with_config(1, OverflowPolicy::Evict);
        let slow = topic.subscribe();
        let fast = topic.subscribe();
        topic.publish(1);
        fast.drain();
        topic.publish(2); // slow still holds 1 -> evicted
        assert_eq!(topic.subscriber_count(), 1);
        assert_eq!(slow.drain(), vec![1], "evicted subscriber keeps what it had");
        assert_eq!(fast.drain(), vec![2]);
        topic.publish(3);
        assert_eq!(slow.try_next(), None, "nothing delivered after eviction");
        assert_eq!(fast.drain(), vec![3]);
    }

    #[test]
    fn independent_drop_counters_per_subscriber() {
        let topic: Topic<u32> = Topic::with_config(1, OverflowPolicy::Lag);
        let busy = topic.subscribe();
        let idle = topic.subscribe();
        topic.publish(1);
        busy.drain();
        topic.publish(2); // idle is full, busy is not
        assert_eq!(busy.dropped_count(), 0);
        assert_eq!(idle.dropped_count(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Topic::<u32>::with_config(0, OverflowPolicy::Lag);
    }

    #[test]
    fn feed_record_serializes() {
        let rec = NrdFeedRecord {
            domain: DomainName::parse("example.com").unwrap(),
            detected_at: SimTime::from_secs(100),
            rdap_created: Some(SimTime::from_secs(40)),
            registrar: Some("GoDaddy".into()),
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("example.com"));
        assert!(json.contains("GoDaddy"));
    }
}
