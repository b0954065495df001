//! Per-TLD journal shards with bounded retention and checkpoints.
//!
//! A [`JournalShard`] is the publisher-side state for one TLD: the live
//! head snapshot, a periodic checkpoint snapshot, a bounded ring of
//! [`SealedDelta`]s — each one RZU push as the wire frame it was encoded
//! into, and nothing else — and at most one encoded bootstrap train of
//! the checkpoint. What a shard retains is therefore zone state shared
//! by refcount (head and checkpoint hold one copy of every segment no
//! delta between them touched) plus bytes it will serve again; the
//! decoded [`ZoneDelta`] of a push is borrowed for the encode and the
//! apply and stays the caller's. The shard is single-threaded by design:
//! it owns no lock of its own and is always driven under its owner's
//! per-shard mutex (`broker::Broker` wraps one `JournalShard` per TLD in
//! its shard handle, so publishers of different TLDs never serialise
//! against each other — the multi-TLD collection that earlier revisions
//! locked as one unit is gone).
//!
//! Retention invariant: the delta ring always covers the serial range
//! `(checkpoint, head]`. Trimming never drops a delta newer than the
//! checkpoint, so the snapshot-plus-delta catch-up plan (crate docs,
//! rule 3) can always reconstruct the head exactly.

use bytes::Bytes;
use darkdns_dns::wire::{encode_delta_push, peek_snapshot_chunk_offset};
use darkdns_dns::{Serial, ZoneDelta, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

/// How much history a shard keeps.
#[derive(Debug, Clone, Copy)]
pub struct RetentionConfig {
    /// Maximum sealed deltas retained per shard (the ring bound).
    pub max_deltas: usize,
    /// Refresh the checkpoint snapshot every this many publishes.
    pub checkpoint_every: usize,
}

impl RetentionConfig {
    /// # Panics
    /// Panics unless `1 <= checkpoint_every <= max_deltas` — a checkpoint
    /// cadence coarser than the ring would break the retention invariant.
    pub fn new(max_deltas: usize, checkpoint_every: usize) -> Self {
        assert!(checkpoint_every >= 1, "checkpoint_every must be at least 1");
        assert!(
            checkpoint_every <= max_deltas,
            "checkpoint_every ({checkpoint_every}) must not exceed max_deltas ({max_deltas})"
        );
        RetentionConfig { max_deltas, checkpoint_every }
    }
}

impl Default for RetentionConfig {
    fn default() -> Self {
        RetentionConfig::new(64, 16)
    }
}

/// One published delta, sealed: its serial range and the wire frame,
/// encoded exactly once. The frame is all of it — what a subscriber is
/// sent, in-process or remote, and what it decodes
/// ([`darkdns_dns::decode_delta_push`]) to get the net changes; the ring
/// keeps no parsed copy beside the bytes. Shared via `Arc` between the
/// shard's retention ring and whoever published it.
#[derive(Debug)]
pub struct SealedDelta {
    pub tld: TldId,
    pub from_serial: Serial,
    pub to_serial: Serial,
    pub pushed_at: SimTime,
    /// The `RZU1` wire frame; clones share storage.
    pub frame: Bytes,
}

/// A subscriber catch-up plan (crate docs: the decision rule).
#[derive(Debug, Clone)]
pub enum CatchUp {
    /// Subscriber is at the head already.
    UpToDate,
    /// The retained ring covers the gap: replay these deltas' frames in
    /// order.
    Deltas(Vec<Arc<SealedDelta>>),
    /// Too far behind (or unknown): bootstrap from the checkpoint
    /// snapshot, then apply the frames sealed after it.
    SnapshotThenDeltas { snapshot: ZoneSnapshot, deltas: Vec<Arc<SealedDelta>> },
}

impl CatchUp {
    /// Number of messages this plan will enqueue.
    pub fn message_count(&self) -> usize {
        match self {
            CatchUp::UpToDate => 0,
            CatchUp::Deltas(d) => d.len(),
            CatchUp::SnapshotThenDeltas { deltas, .. } => 1 + deltas.len(),
        }
    }
}

/// The checkpoint's bootstrap, already encoded: its whole `RZUC` train
/// at one chunk size.
#[derive(Debug)]
struct CheckpointTrain {
    chunk_bytes: usize,
    frames: Vec<Bytes>,
}

/// Publisher-side state for one TLD.
#[derive(Debug)]
pub struct JournalShard {
    tld: TldId,
    head: ZoneSnapshot,
    checkpoint: ZoneSnapshot,
    /// The encoded train of `checkpoint` — of that very capture, so the
    /// slot is emptied wherever `checkpoint` is assigned and a train
    /// never outlives the snapshot it encodes.
    train: Option<CheckpointTrain>,
    deltas: VecDeque<Arc<SealedDelta>>,
    publishes_since_checkpoint: usize,
    dropped_deltas: u64,
    checkpoints: u64,
}

impl JournalShard {
    /// Start a shard at `initial` (which doubles as the first checkpoint).
    pub fn new(tld: TldId, initial: ZoneSnapshot) -> Self {
        JournalShard {
            tld,
            checkpoint: initial.clone(),
            head: initial,
            train: None,
            deltas: VecDeque::new(),
            publishes_since_checkpoint: 0,
            dropped_deltas: 0,
            checkpoints: 0,
        }
    }

    pub fn tld(&self) -> TldId {
        self.tld
    }

    pub fn head(&self) -> &ZoneSnapshot {
        &self.head
    }

    pub fn checkpoint(&self) -> &ZoneSnapshot {
        &self.checkpoint
    }

    /// Sealed deltas currently retained, oldest first.
    pub fn retained(&self) -> impl ExactSizeIterator<Item = &Arc<SealedDelta>> {
        self.deltas.iter()
    }

    /// Deltas dropped from the ring so far (served only via checkpoint).
    pub fn dropped_deltas(&self) -> u64 {
        self.dropped_deltas
    }

    /// Checkpoint snapshot refreshes since the shard started.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Advance the head by `delta`, sealing it into a shareable frame.
    /// The delta is borrowed: encoded, applied, and left with the caller
    /// — the ring keeps the frame only.
    ///
    /// # Panics
    /// Panics if `new_serial` is not newer than the head serial, or if
    /// the delta does not apply to the head (a publisher bug).
    pub fn publish(
        &mut self,
        delta: &ZoneDelta,
        new_serial: Serial,
        pushed_at: SimTime,
        retention: &RetentionConfig,
    ) -> Arc<SealedDelta> {
        let frame =
            encode_delta_push(self.head.origin(), self.head.serial(), new_serial, pushed_at, delta);
        self.publish_with_frame(delta, new_serial, pushed_at, frame, retention)
    }

    /// [`JournalShard::publish`] with the `RZU1` frame supplied by the
    /// caller instead of encoded here. This is the relay ingest path:
    /// a downstream broker seals the exact bytes it received from its
    /// upstream, so one encode at the root survives any number of relay
    /// hops (the crate's encode-once invariant, tier-deep).
    ///
    /// # Panics
    /// Same contract as [`JournalShard::publish`]; the frame is trusted
    /// to be the encoding of `delta` (relays decoded it to get `delta`
    /// in the first place).
    pub fn publish_with_frame(
        &mut self,
        delta: &ZoneDelta,
        new_serial: Serial,
        pushed_at: SimTime,
        frame: Bytes,
        retention: &RetentionConfig,
    ) -> Arc<SealedDelta> {
        let from_serial = self.head.serial();
        assert!(
            new_serial.is_newer_than(from_serial),
            "shard serials must advance: {from_serial} -> {new_serial}"
        );
        let new_head = delta.apply(&self.head, new_serial, pushed_at);
        self.head = new_head;
        let sealed = Arc::new(SealedDelta {
            tld: self.tld,
            from_serial,
            to_serial: new_serial,
            pushed_at,
            frame,
        });
        self.deltas.push_back(Arc::clone(&sealed));
        self.publishes_since_checkpoint += 1;
        if self.publishes_since_checkpoint >= retention.checkpoint_every {
            // A checkpoint is one `Arc` clone of the head's top level,
            // not a table copy — and as the head moves on, the two keep
            // sharing every segment no later delta routes to.
            self.checkpoint = self.head.clone();
            self.train = None;
            self.publishes_since_checkpoint = 0;
            self.checkpoints += 1;
        }
        while self.deltas.len() > retention.max_deltas {
            let oldest = self.deltas.front().expect("non-empty ring");
            if oldest.to_serial.is_newer_than(self.checkpoint.serial()) {
                // Still needed to rebuild head from the checkpoint.
                break;
            }
            self.deltas.pop_front();
            self.dropped_deltas += 1;
        }
        sealed
    }

    /// Replace the shard's entire state with `snapshot`: head and
    /// checkpoint both become the snapshot and the delta ring is
    /// cleared. This is the relay bootstrap path — when an upstream
    /// broker serves a snapshot (because the relay was too far behind
    /// for delta repair), the relay's local history is no longer
    /// contiguous with its head, so retaining it would hand downstream
    /// subscribers deltas that do not chain. Local subscribers are
    /// resynced by the owning broker (it fans the same snapshot out to
    /// them).
    pub fn reset_to(&mut self, snapshot: ZoneSnapshot) {
        self.checkpoint = snapshot.clone();
        self.train = None;
        self.head = snapshot;
        self.deltas.clear();
        self.publishes_since_checkpoint = 0;
    }

    /// The cached frames that take a peer holding the first `start`
    /// entries of `snapshot` to its end, if `snapshot` is the checkpoint
    /// (this very capture), its train was stored at `chunk_bytes` and
    /// `start` is one of that train's chunk boundaries: chunks are packed
    /// greedily from their first entry, so the train's tail from a
    /// boundary is the train from that entry.
    pub fn checkpoint_train(
        &self,
        snapshot: &ZoneSnapshot,
        chunk_bytes: usize,
        start: usize,
    ) -> Option<&[Bytes]> {
        let train = self.train.as_ref().filter(|t| t.chunk_bytes == chunk_bytes)?;
        if !self.checkpoint.same_capture(snapshot) {
            return None;
        }
        let starts_here =
            |frame: &Bytes| peek_snapshot_chunk_offset(frame).is_ok_and(|at| at as usize == start);
        train.frames.get(train.frames.iter().position(starts_here)?..)
    }

    /// Keep `frames` — the whole train of `snapshot` at `chunk_bytes` —
    /// for the next bootstrap, unless the checkpoint has moved on from
    /// that capture since it was handed out or already has a train: one
    /// train per checkpoint, so servers with different chunk sizes over
    /// one broker share the slot first come, and the others encode per
    /// bootstrap.
    pub fn store_checkpoint_train(
        &mut self,
        snapshot: &ZoneSnapshot,
        chunk_bytes: usize,
        frames: &[Bytes],
    ) {
        if self.train.is_none() && self.checkpoint.same_capture(snapshot) {
            self.train = Some(CheckpointTrain { chunk_bytes, frames: frames.to_vec() });
        }
    }

    /// Compute the catch-up plan for a subscriber claiming `from`.
    pub fn catch_up(&self, from: Option<Serial>) -> CatchUp {
        if let Some(s) = from {
            if s == self.head.serial() {
                return CatchUp::UpToDate;
            }
            if let Some(start) = self.deltas.iter().position(|d| d.from_serial == s) {
                return CatchUp::Deltas(self.deltas.iter().skip(start).cloned().collect());
            }
        }
        // Beyond delta repair: checkpoint + everything sealed after it.
        let cp_serial = self.checkpoint.serial();
        let start = self.deltas.iter().position(|d| d.from_serial == cp_serial).unwrap_or(self.deltas.len());
        CatchUp::SnapshotThenDeltas {
            snapshot: self.checkpoint.clone(),
            deltas: self.deltas.iter().skip(start).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darkdns_dns::{DomainName, NsSet};

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn nsset(hosts: &[&str]) -> NsSet {
        NsSet::new(hosts.iter().map(|h| name(h)).collect())
    }

    fn empty_snap() -> ZoneSnapshot {
        ZoneSnapshot::from_entries(name("com"), Serial::new(0), SimTime::ZERO, vec![])
    }

    fn add_delta(domain: &str) -> ZoneDelta {
        let mut d = ZoneDelta::default();
        d.added.push((name(domain), nsset(&["ns1.provider0.net"])));
        d
    }

    /// Publish n single-add deltas with serials 1..=n.
    fn publish_n(shard: &mut JournalShard, retention: &RetentionConfig, n: u32) {
        publish_n_from(shard, retention, 1, n);
    }

    /// Publish single-add deltas with serials first..=last.
    fn publish_n_from(shard: &mut JournalShard, retention: &RetentionConfig, first: u32, last: u32) {
        for i in first..=last {
            shard.publish(
                &add_delta(&format!("d{i:04}.com")),
                Serial::new(i),
                SimTime::from_secs(u64::from(i) * 300),
                retention,
            );
        }
    }

    #[test]
    fn head_tracks_applied_deltas() {
        let retention = RetentionConfig::new(8, 4);
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        publish_n(&mut shard, &retention, 3);
        assert_eq!(shard.head().len(), 3);
        assert_eq!(shard.head().serial(), Serial::new(3));
        assert!(shard.head().contains(&name("d0002.com")));
    }

    #[test]
    fn frames_are_encoded_once_and_shared() {
        let retention = RetentionConfig::default();
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        let delta = add_delta("a.com");
        let sealed = shard.publish(&delta, Serial::new(1), SimTime::ZERO, &retention);
        let from_ring = shard.retained().next().unwrap();
        assert!(sealed.frame.ptr_eq(&from_ring.frame));
        let decoded = darkdns_dns::decode_delta_push(&sealed.frame).unwrap();
        assert_eq!(decoded.delta, delta);
        assert_eq!(decoded.to_serial, Serial::new(1));
    }

    #[test]
    fn ring_is_bounded_and_checkpoint_covers_head() {
        let retention = RetentionConfig::new(6, 3);
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        publish_n(&mut shard, &retention, 40);
        assert!(shard.retained().len() <= 6, "ring grew past bound");
        assert!(shard.dropped_deltas() > 0);
        // Invariant: ring covers (checkpoint, head].
        let cp = shard.checkpoint().serial();
        let mut at = cp;
        for d in shard.retained().skip_while(|d| d.from_serial != cp) {
            assert_eq!(d.from_serial, at);
            at = d.to_serial;
        }
        assert_eq!(at, shard.head().serial());
    }

    #[test]
    fn catch_up_rule_1_up_to_date() {
        let retention = RetentionConfig::default();
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        publish_n(&mut shard, &retention, 5);
        assert!(matches!(shard.catch_up(Some(Serial::new(5))), CatchUp::UpToDate));
    }

    #[test]
    fn catch_up_rule_2_delta_replay() {
        let retention = RetentionConfig::new(16, 8);
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        publish_n(&mut shard, &retention, 10);
        match shard.catch_up(Some(Serial::new(7))) {
            CatchUp::Deltas(deltas) => {
                assert_eq!(deltas.len(), 3);
                assert_eq!(deltas[0].from_serial, Serial::new(7));
                assert_eq!(deltas.last().unwrap().to_serial, Serial::new(10));
            }
            other => panic!("expected delta replay, got {other:?}"),
        }
    }

    #[test]
    fn catch_up_rule_3_snapshot_for_ancient_or_unknown() {
        let retention = RetentionConfig::new(4, 2);
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        publish_n(&mut shard, &retention, 30);
        for from in [None, Some(Serial::new(1)), Some(Serial::new(9999))] {
            match shard.catch_up(from) {
                CatchUp::SnapshotThenDeltas { snapshot, deltas } => {
                    // Snapshot + deltas must land exactly on the head.
                    let mut state = snapshot;
                    for d in &deltas {
                        assert_eq!(d.from_serial, state.serial());
                        let push = darkdns_dns::decode_delta_push(&d.frame).unwrap();
                        state = push.delta.apply(&state, d.to_serial, d.pushed_at);
                    }
                    assert_eq!(state, *shard.head());
                }
                other => panic!("expected snapshot plan for {from:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn checkpoints_share_columns_with_head() {
        let retention = RetentionConfig::new(4, 1); // checkpoint every publish
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        publish_n(&mut shard, &retention, 3);
        // checkpoint_every=1: checkpoint *is* the head, refcount-shared.
        assert_eq!(shard.checkpoint(), shard.head());
    }

    #[test]
    fn head_and_checkpoint_share_all_but_the_segments_touched_since() {
        let retention = RetentionConfig::new(8, 4);
        let entries =
            (0..1000).map(|i| (name(&format!("d{i:04}.com")), vec![name("ns1.provider0.net")])).collect();
        let initial = ZoneSnapshot::from_entries(name("com"), Serial::new(0), SimTime::ZERO, entries);
        let segments = initial.segment_lens().len();
        assert!(segments >= 10);
        let mut shard = JournalShard::new(TldId(0), initial);
        // `checkpoint_every` publishes refresh the checkpoint: it *is*
        // the head, whole.
        for (serial, domain) in (1..=4).zip(["d0100x.com", "d0300x.com", "d0500x.com", "d0700x.com"]) {
            shard.publish(&add_delta(domain), Serial::new(serial), SimTime::ZERO, &retention);
        }
        assert_eq!(shard.checkpoint().serial(), Serial::new(4));
        assert!(shard.checkpoint().same_capture(shard.head()));
        // Two more, into two other segments: the head is a new value,
        // but only those two segments are its own.
        shard.publish(&add_delta("d0200x.com"), Serial::new(5), SimTime::ZERO, &retention);
        shard.publish(&add_delta("d0900x.com"), Serial::new(6), SimTime::ZERO, &retention);
        assert_eq!(shard.checkpoint().serial(), Serial::new(4));
        assert!(!shard.checkpoint().same_capture(shard.head()));
        assert_eq!(shard.head().segment_lens().len(), segments);
        assert_eq!(shard.head().segments_shared_with(shard.checkpoint()), segments - 2);
    }

    #[test]
    fn a_train_is_kept_for_its_checkpoint_only_and_dies_with_it() {
        let retention = RetentionConfig::new(8, 4);
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        publish_n(&mut shard, &retention, 2);
        let capture = shard.checkpoint().clone();
        let frames = darkdns_dns::wire::encode_snapshot_chunks(0, &capture, 0, 4096);
        assert!(shard.checkpoint_train(&capture, 4096, 0).is_none());
        shard.store_checkpoint_train(&capture, 4096, &frames);
        let cached = shard.checkpoint_train(&capture, 4096, 0).expect("stored");
        assert!(cached.iter().zip(&frames).all(|(a, b)| a.ptr_eq(b)));
        // Another chunk size, or an equal snapshot that is not this
        // capture, misses — and the slot is taken: a second train of the
        // same checkpoint is not kept beside (or instead of) the first.
        assert!(shard.checkpoint_train(&capture, 8192, 0).is_none());
        assert!(shard.checkpoint_train(&empty_snap(), 4096, 0).is_none());
        shard.store_checkpoint_train(&capture, 8192, &frames);
        assert!(shard.checkpoint_train(&capture, 8192, 0).is_none());
        assert!(shard.checkpoint_train(&capture, 4096, 0).is_some());

        // A periodic refresh empties the slot, and a train of the old
        // capture arriving late (encoded outside the lock while the
        // checkpoint moved on) is not stored.
        publish_n_from(&mut shard, &retention, 3, 4);
        assert_eq!(shard.checkpoints(), 1);
        assert!(shard.checkpoint_train(&capture, 4096, 0).is_none());
        shard.store_checkpoint_train(&capture, 4096, &frames);
        let refreshed = shard.checkpoint().clone();
        assert!(shard.checkpoint_train(&refreshed, 4096, 0).is_none());

        // So does a reset.
        let frames = darkdns_dns::wire::encode_snapshot_chunks(0, &refreshed, 0, 4096);
        shard.store_checkpoint_train(&refreshed, 4096, &frames);
        assert!(shard.checkpoint_train(&refreshed, 4096, 0).is_some());
        shard.reset_to(capture.clone());
        assert!(shard.checkpoint_train(&refreshed, 4096, 0).is_none());
        assert!(shard.checkpoint_train(&capture, 4096, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "serials must advance")]
    fn stale_serial_rejected() {
        let retention = RetentionConfig::default();
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        publish_n(&mut shard, &retention, 2);
        shard.publish(&add_delta("x.com"), Serial::new(2), SimTime::ZERO, &retention);
    }

    #[test]
    fn checkpoint_refreshes_are_counted() {
        let retention = RetentionConfig::new(8, 4);
        let mut shard = JournalShard::new(TldId(0), empty_snap());
        assert_eq!(shard.checkpoints(), 0);
        publish_n(&mut shard, &retention, 9);
        assert_eq!(shard.checkpoints(), 2, "one refresh per 4 publishes");
    }

    #[test]
    #[should_panic(expected = "checkpoint_every")]
    fn retention_rejects_checkpoint_coarser_than_ring() {
        RetentionConfig::new(4, 8);
    }
}
