//! `edge_lookup`: thin-client batched lookups. The **read** use of the
//! edge layer.
//!
//! 4 shards × 50 000 delegations behind an in-process `EdgeFeed`; a
//! churn thread publishes one 200-change NS flip per shard per second,
//! a shard every quarter second, and folds it into the index. One `EdgeClient` sends 64-name batches
//! (7/8 per-TLD, 1/8 `LOOKUP_ANY_TLD`, every 13th never registered) and
//! checks every answer against the generator's model.
//!
//! Why: the edge reactor, the index probe and the `RZUL`/`RZUR` codec do
//! all the work here; broker, transport and view do almost none. It is
//! the workload a lookup optimisation should move, and
//! `edge_visibility` is where its cost would show.

use super::{dial, SideInputs, Workload};
use crate::gen::{self, LookupBatch};
use crate::link::{Link, RECV_TIMEOUT};
use crate::trace::{TraceCtl, Tracer};
use darkdns_broker::{Broker, BrokerConfig};
use darkdns_dns::wire::LOOKUP_ANY_TLD;
use darkdns_dns::{Serial, ZoneDelta, ZoneSnapshot};
use darkdns_edge::{EdgeClient, EdgeConfig, EdgeFeed, EdgeIndex, EdgeIndexConfig, EdgeServer};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub const SHARDS: u16 = 4;
pub const SHARD_SIZE: usize = 50_000;
/// Delegations each churn push re-points.
const CHURN: usize = 200;
/// Distinct batches the client cycles through.
const BATCHES: usize = 64;
const CHURN_PERIOD: Duration = Duration::from_secs(1);

pub struct EdgeLookup {
    broker: Broker,
    index: Arc<EdgeIndex>,
    edge: EdgeServer,
    client: EdgeClient,
    client_link: Arc<Link>,
    batches: Vec<LookupBatch>,
    next_batch: usize,
    /// Highest serial seen per shard: answers never go back in time.
    seen: Vec<u32>,
    stop: Arc<AtomicBool>,
    /// Returns how many pushes the churn thread folded into the index.
    churn: JoinHandle<Result<u64, String>>,
    shard0: ZoneSnapshot,
    flips0: (ZoneDelta, ZoneDelta),
}

/// The background load: every period, flip each shard's NS sets forward
/// or back and fold the push into the index, the shards spread evenly
/// over the period — all of them at once would put a burst of 8 % of a
/// measurement window into every second window and none into the rest.
/// It waits parked between pushes (it is load, not the generator) and is
/// unparked to stop.
fn churn_loop(
    broker: Broker,
    mut feed: EdgeFeed,
    flips: Vec<(ZoneDelta, ZoneDelta)>,
    stop: Arc<AtomicBool>,
    ctl: Arc<TraceCtl>,
) -> Result<u64, String> {
    let mut folded = 0u64;
    // Acquire pairs with the Release store in `teardown`.
    for step in 0u32.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let shard = (step % u32::from(SHARDS)) as usize;
        let round = step / u32::from(SHARDS) + 1;
        let (forward, backward) = &flips[shard];
        let delta = if round % 2 == 1 { forward } else { backward }.clone();
        let start = ctl.now_ns();
        broker.publish(
            TldId(shard as u16),
            delta,
            Serial::new(round),
            SimTime::from_hours(u64::from(round)),
        );
        let published = ctl.now_ns();
        ctl.record_remote("broker.publish", start, published);
        folded += feed.pump() as u64;
        ctl.record_remote("edge.feed_pump", published, ctl.now_ns());
        if feed.view().lost_sync() {
            return Err("the churn feed lost sync".to_owned());
        }
        std::thread::park_timeout(CHURN_PERIOD / u32::from(SHARDS));
    }
    Ok(folded)
}

impl Workload for EdgeLookup {
    const NAME: &'static str = "edge_lookup";
    const PACED_RATE: Option<f64> = Some(2000.0);
    const WARM_OPS: u64 = 1000;

    fn setup(seed: u64, ctl: &Arc<TraceCtl>) -> Result<Self, String> {
        let tlds: Vec<TldId> = (0..SHARDS).map(TldId).collect();
        let broker = Broker::new(BrokerConfig::default());
        let mut flips = Vec::new();
        let mut shard0 = None;
        for &tld in &tlds {
            let snapshot = gen::shard_snapshot(seed, tld.0, SHARD_SIZE);
            flips.push(gen::flip_deltas(&snapshot, CHURN));
            shard0.get_or_insert_with(|| snapshot.clone());
            broker.add_shard(tld, snapshot);
        }
        let index = Arc::new(EdgeIndex::new(EdgeIndexConfig::default()));
        let mut feed = EdgeFeed::subscribe(&broker, &tlds, Arc::clone(&index));
        if feed.pump() != tlds.len() || index.load().tlds().len() != tlds.len() {
            return Err("the edge feed did not bootstrap every shard".to_owned());
        }
        let edge = EdgeServer::new(Arc::clone(&index), EdgeConfig::default());
        let addr = edge.listen_tcp("127.0.0.1:0").map_err(|e| e.to_string())?;
        let client_link = Link::new("lookup.recv", ctl);
        let mut client = EdgeClient::new(dial(addr, &client_link).map_err(|e| e.to_string())?);
        client
            .set_recv_timeout(Some(RECV_TIMEOUT))
            .map_err(|e| e.to_string())?;

        let stop = Arc::new(AtomicBool::new(false));
        let flips0 = flips[0].clone();
        let churn = {
            let (broker, stop, ctl) = (broker.clone(), Arc::clone(&stop), Arc::clone(ctl));
            std::thread::spawn(move || churn_loop(broker, feed, flips, stop, ctl))
        };
        let mut workload = EdgeLookup {
            broker,
            index,
            edge,
            client,
            client_link,
            batches: gen::lookup_batches(seed, SHARDS, SHARD_SIZE, BATCHES),
            next_batch: 0,
            seen: vec![0; tlds.len()],
            stop,
            churn,
            shard0: shard0.ok_or("no shards")?,
            flips0,
        };
        // Verified bootstrap: every distinct batch answers as modelled.
        for _ in 0..BATCHES {
            workload.lookup_next()?;
        }
        Ok(workload)
    }

    fn op(&mut self, tr: &mut Tracer, parent: u32) -> Result<(), String> {
        let span = tr.begin();
        let result = self.lookup_next();
        tr.finish("edge.lookup", span, parent);
        result
    }

    fn rx_bytes(&self) -> u64 {
        self.client_link.rx_bytes()
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let broker = self.broker.stats();
        vec![
            ("broker.frames_encoded", broker.frames_encoded as f64),
            ("broker.frame_bytes", broker.frame_bytes_encoded as f64),
            ("edge.epochs", self.index.epoch() as f64),
            ("edge.bad_frames", self.edge.stats().bad_frames as f64),
        ]
    }

    fn side_inputs(&self) -> SideInputs {
        SideInputs {
            tld: 0,
            snapshot: self.shard0.clone(),
            add: self.flips0.0.clone(),
            remove: self.flips0.1.clone(),
            batch: self.batches[0].queries.clone(),
            served_by: Some(Arc::clone(&self.index)),
        }
    }

    fn verify_final(&mut self) -> Result<(), String> {
        if self.churn.is_finished() {
            return Err("the churn thread stopped before the run ended".to_owned());
        }
        let served = self.index.load();
        for shard in 0..SHARDS {
            let head = self
                .broker
                .head(TldId(shard))
                .ok_or("broker lost a shard")?;
            // The churn thread may be mid-round: the index trails the
            // head by at most the push it is folding right now.
            let serial = served.serial(TldId(shard)).map_or(0, Serial::get);
            if head.serial().get() - serial > 1 || head.len() != SHARD_SIZE {
                return Err(format!(
                    "shard {shard}: edge at {serial}, head {:?}",
                    head.serial()
                ));
            }
        }
        if self.edge.stats().bad_frames != 0 {
            return Err("the edge saw a bad frame".to_owned());
        }
        Ok(())
    }

    fn teardown(self) {
        drop(self.client);
        self.stop.store(true, Ordering::Release);
        self.churn.thread().unpark();
        if let Err(why) = self.churn.join().expect("churn thread panicked") {
            eprintln!("rzu_bench: {why}");
        }
        self.edge.shutdown();
    }
}

impl EdgeLookup {
    fn lookup_next(&mut self) -> Result<(), String> {
        let batch = &self.batches[self.next_batch % BATCHES];
        self.next_batch += 1;
        let response = self
            .client
            .lookup(&batch.queries)
            .map_err(|e| format!("lookup: {e}"))?;
        for ((query, answer), &present) in batch
            .queries
            .iter()
            .zip(&response.answers)
            .zip(&batch.present)
        {
            let serial_ok = if query.tld == LOOKUP_ANY_TLD {
                answer.serial.is_none()
            } else {
                let seen = &mut self.seen[usize::from(query.tld)];
                let ok = answer.serial.is_some_and(|s| s.get() >= *seen);
                *seen = answer.serial.map_or(*seen, Serial::get).max(*seen);
                ok
            };
            if answer.present != present || !serial_ok {
                return Err(format!(
                    "{} in tld {}: edge answered {answer:?}",
                    query.name, query.tld
                ));
            }
        }
        Ok(())
    }
}
