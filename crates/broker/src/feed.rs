//! Glue from the simulated registry to the broker: materialise a
//! universe's per-TLD RZU pushes as zone deltas and drive them through a
//! [`Broker`] in global push-time order.

use crate::broker::Broker;
use darkdns_dns::par::{available_workers, scoped_map};
use darkdns_registry::rzu::{RzuZonePush, RzuZoneStream};
use darkdns_registry::tld::{TldConfig, TldId};
use darkdns_registry::universe::Universe;
use darkdns_sim::time::{SimDuration, SimTime};

/// A multi-TLD publisher: one [`RzuZoneStream`] per TLD plus a cursor,
/// so pushes can be fed to a broker incrementally (subscribers may join
/// between steps) or all at once.
pub struct UniverseFeed {
    streams: Vec<RzuZoneStream>,
    /// Next un-published push index per stream.
    cursors: Vec<usize>,
}

impl UniverseFeed {
    /// Materialise the streams for `tld_ids` (indices into `tlds`).
    ///
    /// Stream materialisation (event-log scan + journaled zone replay)
    /// is per-TLD independent and dominates fleet start-up, so the
    /// streams are built on scoped worker threads
    /// ([`darkdns_dns::par::scoped_map`]: round-robin lanes, one per
    /// core — the primitive [`UniverseFeed::publish_all_concurrent`]
    /// runs on too). Output is identical to a sequential build: each
    /// stream depends only on its own TLD's slice of the universe.
    pub fn build(
        universe: &Universe,
        tlds: &[TldConfig],
        tld_ids: &[TldId],
        anchor: SimTime,
        cadence: SimDuration,
    ) -> Self {
        let streams = scoped_map(tld_ids.to_vec(), available_workers(), |tld| {
            RzuZoneStream::from_universe(
                universe,
                tlds[tld.0 as usize].domain(),
                tld,
                anchor,
                cadence,
            )
        });
        let cursors = vec![0; streams.len()];
        UniverseFeed { streams, cursors }
    }

    pub fn streams(&self) -> &[RzuZoneStream] {
        &self.streams
    }

    /// Register one shard per stream, starting at the stream's anchor
    /// snapshot.
    pub fn register_shards(&self, broker: &Broker) {
        for stream in &self.streams {
            broker.add_shard(stream.tld, stream.start.clone());
        }
    }

    /// Publish the globally earliest pending push (across all TLDs).
    /// Returns the TLD published, or `None` when every stream is drained.
    /// Pushes that carry no serial movement (all-no-op event windows) are
    /// skipped.
    pub fn publish_next(&mut self, broker: &Broker) -> Option<TldId> {
        loop {
            let next = self
                .streams
                .iter()
                .zip(&self.cursors)
                .enumerate()
                .filter_map(|(i, (s, &c))| s.pushes.get(c).map(|p| (i, p.pushed_at)))
                .min_by_key(|&(_, at)| at)?;
            let (i, _) = next;
            let stream = &self.streams[i];
            let push = &stream.pushes[self.cursors[i]];
            self.cursors[i] += 1;
            if push.to_serial == push.from_serial {
                continue; // no-op window; nothing for subscribers
            }
            broker.publish(stream.tld, push.delta.clone(), push.to_serial, push.pushed_at);
            return Some(stream.tld);
        }
    }

    /// Publish every pending push with `pushed_at <= upto`, in global
    /// push-time order, and stop there — the driver of a time-faithful
    /// consumer run (publish the broker up to a certstream entry's
    /// timestamp, then observe the entry). No-op windows are skipped
    /// without being counted, exactly as in
    /// [`UniverseFeed::publish_next`], but never at the cost of
    /// publishing a later-than-`upto` push. Returns the number of
    /// pushes published.
    pub fn publish_until(&mut self, broker: &Broker, upto: SimTime) -> usize {
        let mut published = 0;
        loop {
            let Some((i, at)) = self
                .streams
                .iter()
                .zip(&self.cursors)
                .enumerate()
                .filter_map(|(i, (s, &c))| s.pushes.get(c).map(|p| (i, p.pushed_at)))
                .min_by_key(|&(_, at)| at)
            else {
                break;
            };
            if at > upto {
                break;
            }
            let stream = &self.streams[i];
            let push = &stream.pushes[self.cursors[i]];
            self.cursors[i] += 1;
            if push.to_serial != push.from_serial {
                broker.publish(stream.tld, push.delta.clone(), push.to_serial, push.pushed_at);
                published += 1;
            }
        }
        published
    }

    /// Publish everything still pending, in global push-time order.
    /// Returns the number of pushes published.
    pub fn publish_all(&mut self, broker: &Broker) -> usize {
        let mut published = 0;
        while self.publish_next(broker).is_some() {
            published += 1;
        }
        published
    }

    /// Publish everything still pending on scoped worker threads, one
    /// per-TLD batch per shard (round-robin lanes, which balance skewed
    /// per-TLD volumes — `.com` dwarfs everything): each TLD's pushes
    /// stay in serial order on one worker while different TLDs publish
    /// concurrently. Global push-time order across TLDs is deliberately
    /// abandoned — shards are independent concurrency units and
    /// subscribers replay per shard. Returns the number of pushes
    /// published (no-op windows are skipped, as in
    /// [`UniverseFeed::publish_next`]).
    ///
    /// # Panics
    /// Propagates a worker panic (no shard, serial regression — a
    /// publisher bug).
    pub fn publish_all_concurrent(&mut self, broker: &Broker) -> usize {
        // Workers publish straight out of the borrowed streams — each
        // delta is cloned one at a time at its publish, never the whole
        // backlog up front.
        let mut spans: Vec<(TldId, &[RzuZonePush])> = Vec::new();
        for (stream, cursor) in self.streams.iter().zip(&mut self.cursors) {
            let span = &stream.pushes[*cursor..];
            *cursor = stream.pushes.len();
            if span.iter().any(|p| p.to_serial != p.from_serial) {
                spans.push((stream.tld, span));
            }
        }
        scoped_map(spans, available_workers(), |(tld, span)| {
            let mut published = 0;
            for push in span {
                if push.to_serial == push.from_serial {
                    continue; // no-op window; nothing for subscribers
                }
                broker.publish(tld, push.delta.clone(), push.to_serial, push.pushed_at);
                published += 1;
            }
            published
        })
        .into_iter()
        .sum()
    }

    /// Pushes not yet published, across all streams.
    pub fn pending(&self) -> usize {
        self.streams.iter().zip(&self.cursors).map(|(s, &c)| s.pushes.len() - c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{BrokerConfig, BrokerMessage};
    use darkdns_dns::{decode_delta_push, Serial, Zone};
    use darkdns_registry::czds::SnapshotSchedule;
    use darkdns_registry::hosting::HostingLandscape;
    use darkdns_registry::registrar::RegistrarFleet;
    use darkdns_registry::tld::paper_gtlds;
    use darkdns_registry::workload::{UniverseBuilder, WorkloadConfig};
    use darkdns_sim::rng::RngPool;

    fn small_universe(seed: u64) -> (Universe, Vec<TldConfig>, SimTime) {
        let tlds = paper_gtlds();
        let fleet = RegistrarFleet::paper_fleet();
        let hosting = HostingLandscape::paper_landscape();
        let config = WorkloadConfig {
            scale: 0.001,
            window_days: 2,
            base_population_frac: 0.003,
            ..WorkloadConfig::default()
        };
        let pool = RngPool::new(seed);
        let schedule =
            SnapshotSchedule::new(&pool, &tlds, config.window_start, config.window_days);
        let window_start = config.window_start;
        let universe = UniverseBuilder {
            tlds: &tlds,
            fleet: &fleet,
            hosting: &hosting,
            schedule: &schedule,
            config,
        }
        .build(&pool);
        (universe, tlds, window_start)
    }

    #[test]
    fn universe_feed_drives_subscribers_to_stream_heads() {
        let (universe, tlds, anchor) = small_universe(11);
        let tld_ids = [TldId(0), TldId(1), TldId(2)];
        let mut feed = UniverseFeed::build(
            &universe,
            &tlds,
            &tld_ids,
            anchor,
            SimDuration::from_minutes(5),
        );
        let broker = Broker::new(BrokerConfig::default());
        feed.register_shards(&broker);
        let sub = broker.subscribe(&tld_ids, Some(Serial::new(0)));
        let published = feed.publish_all(&broker);
        assert!(published > 0, "expected a non-trivial universe");
        assert_eq!(feed.pending(), 0);

        // Replay each TLD's frames over its start snapshot.
        let mut states: Vec<_> = feed.streams().iter().map(|s| s.start.clone()).collect();
        for msg in sub.drain() {
            match msg {
                BrokerMessage::Delta { tld, frame } => {
                    let push = decode_delta_push(&frame).unwrap();
                    let i = tld_ids.iter().position(|&t| t == tld).unwrap();
                    assert_eq!(push.from_serial, states[i].serial());
                    states[i] = push.delta.apply(&states[i], push.to_serial, push.pushed_at);
                }
                BrokerMessage::Snapshot { .. } => panic!("live subscriber got a snapshot"),
            }
        }
        for (state, stream) in states.iter().zip(feed.streams()) {
            assert_eq!(state.serial(), broker.head(stream.tld).unwrap().serial());
            assert_eq!(state, &broker.head(stream.tld).unwrap());
            // And the reconstructed state is a well-formed zone.
            let zone = Zone::from_snapshot(state);
            assert_eq!(zone.len(), state.len());
        }
    }

    #[test]
    fn concurrent_publish_matches_sequential_heads() {
        let (universe, tlds, anchor) = small_universe(11);
        let tld_ids = [TldId(0), TldId(1), TldId(2)];
        let mut feed = UniverseFeed::build(
            &universe,
            &tlds,
            &tld_ids,
            anchor,
            SimDuration::from_minutes(5),
        );
        let broker = Broker::new(BrokerConfig::default());
        feed.register_shards(&broker);
        let sub = broker.subscribe(&tld_ids, Some(Serial::new(0)));
        let published = feed.publish_all_concurrent(&broker);
        assert!(published > 0);
        assert_eq!(feed.pending(), 0);

        // Per-TLD replay converges to each stream's head, exactly as the
        // sequential path does; only the cross-TLD arrival order differs.
        let mut states: Vec<_> = feed.streams().iter().map(|s| s.start.clone()).collect();
        for msg in sub.drain() {
            match msg {
                BrokerMessage::Delta { tld, frame } => {
                    let push = decode_delta_push(&frame).unwrap();
                    let i = tld_ids.iter().position(|&t| t == tld).unwrap();
                    assert_eq!(push.from_serial, states[i].serial(), "gap within a shard");
                    states[i] = push.delta.apply(&states[i], push.to_serial, push.pushed_at);
                }
                BrokerMessage::Snapshot { .. } => panic!("live subscriber got a snapshot"),
            }
        }
        for (state, stream) in states.iter().zip(feed.streams()) {
            assert_eq!(state, &broker.head(stream.tld).unwrap());
            // Each shard took its own stream's pushes, all of them, and
            // ended on the stream's head serial.
            assert_eq!(state.serial(), stream.head.serial());
            let moved = stream.pushes.iter().filter(|p| p.to_serial != p.from_serial).count();
            assert_eq!(broker.shard_stats(stream.tld).unwrap().pushes, moved as u64);
        }
        // Accounting: per-shard pushes sum to the published total.
        let total: u64 = broker.all_shard_stats().iter().map(|s| s.pushes).sum();
        assert_eq!(total, published as u64);
    }

    #[test]
    fn publish_until_stops_at_the_boundary_and_resumes() {
        let (universe, tlds, anchor) = small_universe(11);
        let tld_ids = [TldId(0), TldId(1), TldId(2)];
        let mut incremental = UniverseFeed::build(
            &universe,
            &tlds,
            &tld_ids,
            anchor,
            SimDuration::from_minutes(5),
        );
        let broker = Broker::new(BrokerConfig::default());
        incremental.register_shards(&broker);

        // Drive the same streams through a second broker all at once —
        // the incremental path must publish exactly the same pushes.
        let mut oneshot = UniverseFeed::build(
            &universe,
            &tlds,
            &tld_ids,
            anchor,
            SimDuration::from_minutes(5),
        );
        let reference = Broker::new(BrokerConfig::default());
        oneshot.register_shards(&reference);
        let total = oneshot.publish_all(&reference);

        // Advance in bounded steps; nothing beyond `upto` may publish.
        let mut published = 0;
        let mut upto = anchor;
        while incremental.pending() > 0 {
            upto = upto + SimDuration::from_hours(3);
            published += incremental.publish_until(&broker, upto);
            for &tld in &tld_ids {
                let head = broker.head(tld).unwrap();
                assert!(
                    head.taken_at() <= upto,
                    "published a push beyond the boundary: {:?} > {upto:?}",
                    head.taken_at()
                );
            }
        }
        assert_eq!(published, total);
        for &tld in &tld_ids {
            assert_eq!(broker.head(tld).unwrap(), reference.head(tld).unwrap());
        }
    }

    #[test]
    fn stream_serial_ranges_chain() {
        let (universe, tlds, anchor) = small_universe(5);
        let stream = RzuZoneStream::from_universe(
            &universe,
            tlds[0].domain(),
            TldId(0),
            anchor,
            SimDuration::from_minutes(5),
        );
        let mut at = stream.start.serial();
        for push in &stream.pushes {
            assert_eq!(push.from_serial, at);
            at = push.to_serial;
        }
        assert_eq!(at, stream.head.serial());
        // Applying every delta in order reproduces the head exactly.
        let mut state = stream.start.clone();
        for push in &stream.pushes {
            if push.to_serial == push.from_serial {
                continue;
            }
            state = push.delta.apply(&state, push.to_serial, push.pushed_at);
        }
        assert_eq!(state.domain_column(), stream.head.domain_column());
    }
}
