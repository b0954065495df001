//! `cold_catchup`: a fresh consumer joins and reaches the head.
//!
//! 1 shard × 100 000 delegations with 6 sealed deltas past the
//! checkpoint. One op dials a fresh `RemoteZoneView` with no claims,
//! pumps to the head serial, checks length, serial and content hash
//! against the root's head, and drops the connection. Closed loop only:
//! a joining consumer waits for its own bootstrap, so latency and
//! throughput come from the same samples.
//!
//! Why: the largest messages. Snapshot chunk encode and decode, ring
//! back-pressure and snapshot install do the work; per-message costs
//! are negligible. This is catch-up entries per second.

use super::{check_progress, content_hash, dial, SideInputs, Workload, BLOCK};
use crate::gen;
use crate::link::Link;
use crate::trace::{TraceCtl, Tracer};
use darkdns_broker::transport::TransportClient;
use darkdns_broker::{Broker, BrokerConfig, BrokerServer, TransportConfig};
use darkdns_core::broker_view::RemoteZoneView;
use darkdns_dns::wire::LookupQuery;
use darkdns_dns::{Serial, ZoneDelta, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

pub const SHARD_SIZE: usize = 100_000;
/// Sealed deltas between the checkpoint and the head.
pub const DELTAS_PAST_CHECKPOINT: u32 = 6;
const TLD: TldId = TldId(0);

pub struct ColdCatchup {
    root: Broker,
    server: BrokerServer,
    addr: SocketAddr,
    link: Arc<Link>,
    head: ZoneSnapshot,
    head_hash: u64,
    initial: ZoneSnapshot,
    add: ZoneDelta,
    remove: ZoneDelta,
    side_batch: Vec<LookupQuery>,
}

impl Workload for ColdCatchup {
    const NAME: &'static str = "cold_catchup";
    const PACED_RATE: Option<f64> = None;
    const WARM_OPS: u64 = 3;

    fn setup(seed: u64, ctl: &Arc<TraceCtl>) -> Result<Self, String> {
        let initial = gen::shard_snapshot(seed, TLD.0, SHARD_SIZE);
        let (add, remove) = gen::block_deltas(seed, TLD.0, BLOCK);
        let root = Broker::new(BrokerConfig::default());
        root.add_shard(TLD, initial.clone());
        for serial in 1..=DELTAS_PAST_CHECKPOINT {
            let delta = if serial % 2 == 1 {
                add.clone()
            } else {
                remove.clone()
            };
            root.publish(
                TLD,
                delta,
                Serial::new(serial),
                SimTime::from_hours(u64::from(serial)),
            );
        }
        let head = root.head(TLD).ok_or("root lost its shard")?;
        let server = BrokerServer::new(root.clone(), TransportConfig::default());
        let addr = server
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| e.to_string())?;
        let mut workload = ColdCatchup {
            root,
            server,
            addr,
            link: Link::new("link1.recv", ctl),
            head_hash: content_hash(&head),
            head,
            initial,
            add,
            remove,
            side_batch: gen::lookup_batches(seed, 1, SHARD_SIZE, 1)
                .remove(0)
                .queries,
        };
        // Verified bootstrap: one full catch-up, checked like any op.
        workload.catch_up(&mut Tracer::new(Arc::clone(ctl)), 0)?;
        Ok(workload)
    }

    fn op(&mut self, tr: &mut Tracer, parent: u32) -> Result<(), String> {
        self.catch_up(tr, parent)
    }

    fn rx_bytes(&self) -> u64 {
        self.link.rx_bytes()
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let broker = self.root.stats();
        let transport = self.server.stats();
        vec![
            ("broker.frames_encoded", broker.frames_encoded as f64),
            ("broker.frame_bytes", broker.frame_bytes_encoded as f64),
            (
                "transport.coalesced_frames",
                transport.coalesced_frames as f64,
            ),
            ("transport.deltas_sent", transport.deltas_sent as f64),
        ]
    }

    fn side_inputs(&self) -> SideInputs {
        SideInputs {
            tld: TLD.0,
            snapshot: self.initial.clone(),
            add: self.add.clone(),
            remove: self.remove.clone(),
            batch: self.side_batch.clone(),
            served_by: None,
        }
    }

    fn verify_final(&mut self) -> Result<(), String> {
        // Nothing publishes during the run: the head every op was
        // checked against is still the root's.
        let head = self.root.head(TLD).ok_or("root lost its shard")?;
        if content_hash(&head) != self.head_hash {
            return Err("the root head moved during the run".to_owned());
        }
        Ok(())
    }

    fn teardown(self) {
        self.server.shutdown();
    }
}

impl ColdCatchup {
    fn catch_up(&mut self, tr: &mut Tracer, parent: u32) -> Result<(), String> {
        let (timeouts, started) = (self.link.timeouts(), Instant::now());
        let (addr, link) = (self.addr, Arc::clone(&self.link));

        let span = tr.begin();
        let mut view = RemoteZoneView::connect(&[TLD], move |claims| {
            TransportClient::connect(dial(addr, &link)?, claims)
        })
        .map_err(|e| format!("connect: {e}"))?;
        tr.finish("view.connect", span, parent);

        let span = tr.begin();
        while view.view().serial(TLD) != Some(self.head.serial()) {
            view.pump(1);
            check_progress(&self.link, timeouts, started)?;
        }
        tr.finish("view.pump", span, parent);

        let span = tr.begin();
        let got = view
            .view()
            .snapshot(TLD)
            .ok_or("no snapshot after catch-up")?;
        let same = got.len() == self.head.len()
            && got.serial() == self.head.serial()
            && content_hash(got) == self.head_hash;
        tr.finish("harness.verify", span, parent);
        if !same || view.view().resync_count() != 0 {
            return Err("caught-up view differs from the root head".to_owned());
        }
        Ok(())
    }
}
