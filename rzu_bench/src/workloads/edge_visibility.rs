//! `edge_visibility`: publish → a thin client sees it. The **write** use
//! of the edge layer.
//!
//! 1 shard × 100 000 delegations; root `BrokerServer` → `RoutedEdgeFeed`
//! (one route, one replica, so the routed pump path is what is measured)
//! → `EdgeIndex` → `EdgeServer` → `EdgeClient`. One op publishes a
//! 100-name delta, pumps the feed until its serial, and looks 8 of the
//! names up: the answer must say `present == added` at `serial ==
//! target`.
//!
//! Why: one hop, large state. The O(zone) journal and view applies and
//! the epoch build/swap dominate; transport is a few percent. A lookup
//! speed-up bought with heavier epochs shows here as a loss.

use super::{check_progress, dial, SideInputs, Workload, BLOCK};
use crate::gen;
use crate::link::{Link, RECV_TIMEOUT};
use crate::trace::{TraceCtl, Tracer};
use darkdns_broker::transport::{FrameConn, TransportError};
use darkdns_broker::{Broker, BrokerConfig, BrokerServer, TransportConfig};
use darkdns_core::broker_view::EndpointMap;
use darkdns_dns::wire::LookupQuery;
use darkdns_dns::{Serial, ZoneDelta, ZoneSnapshot};
use darkdns_edge::{
    EdgeClient, EdgeConfig, EdgeIndex, EdgeIndexConfig, EdgeServer, RoutedEdgeFeed,
};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

pub const SHARD_SIZE: usize = 100_000;
const TLD: TldId = TldId(0);
/// Names of the block each op looks up.
const PROBES: usize = 8;

type FeedDial = Box<dyn FnMut(&SocketAddr) -> Result<Box<dyn FrameConn>, TransportError>>;

pub struct EdgeVisibility {
    root: Broker,
    server: BrokerServer,
    feed: RoutedEdgeFeed<SocketAddr, FeedDial>,
    edge: EdgeServer,
    client: EdgeClient,
    feed_link: Arc<Link>,
    client_link: Arc<Link>,
    add: ZoneDelta,
    remove: ZoneDelta,
    probes: Vec<LookupQuery>,
    serial: u32,
    initial: ZoneSnapshot,
}

impl Workload for EdgeVisibility {
    const NAME: &'static str = "edge_visibility";
    const PACED_RATE: Option<f64> = Some(20.0);
    // 48 sim-hours of one-hour pushes fill the NRD window: past that
    // every epoch carries the same number of records.
    const WARM_OPS: u64 = 100;

    fn setup(seed: u64, ctl: &Arc<TraceCtl>) -> Result<Self, String> {
        let initial = gen::shard_snapshot(seed, TLD.0, SHARD_SIZE);
        let (add, remove) = gen::block_deltas(seed, TLD.0, BLOCK);
        let root = Broker::new(BrokerConfig::default());
        root.add_shard(TLD, initial.clone());
        let server = BrokerServer::new(root.clone(), TransportConfig::default());
        let addr = server
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| e.to_string())?;

        let index = Arc::new(EdgeIndex::new(EdgeIndexConfig::default()));
        let feed_link = Link::new("link1.recv", ctl);
        let link = Arc::clone(&feed_link);
        let feed_dial: FeedDial =
            Box::new(move |addr| Ok(Box::new(dial(*addr, &link)?) as Box<dyn FrameConn>));
        let mut map = EndpointMap::new();
        map.add_route(vec![TLD], vec![addr]);
        let mut feed = RoutedEdgeFeed::connect(map, feed_dial, Arc::clone(&index))
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        while feed.view().serial(TLD) != Some(Serial::new(0)) {
            feed.pump(1);
            check_progress(&feed_link, 0, started)?;
        }

        let edge = EdgeServer::new(index, EdgeConfig::default());
        let edge_addr = edge.listen_tcp("127.0.0.1:0").map_err(|e| e.to_string())?;
        let client_link = Link::new("lookup.recv", ctl);
        let mut client = EdgeClient::new(dial(edge_addr, &client_link).map_err(|e| e.to_string())?);
        client
            .set_recv_timeout(Some(RECV_TIMEOUT))
            .map_err(|e| e.to_string())?;

        let probes: Vec<LookupQuery> = add
            .added
            .iter()
            .take(PROBES)
            .map(|(name, _)| LookupQuery {
                tld: TLD.0,
                name: *name,
            })
            .collect();
        // Verified bootstrap: a zone name is served, at serial 0.
        let known = LookupQuery {
            tld: TLD.0,
            name: initial.domain_column()[SHARD_SIZE / 2],
        };
        let answer = client.lookup(&[known]).map_err(|e| e.to_string())?.answers[0];
        if !answer.present || answer.serial != Some(Serial::new(0)) {
            return Err(format!("edge bootstrap answered {answer:?}"));
        }
        Ok(EdgeVisibility {
            root,
            server,
            feed,
            edge,
            client,
            feed_link,
            client_link,
            add,
            remove,
            probes,
            serial: 0,
            initial,
        })
    }

    fn op(&mut self, tr: &mut Tracer, parent: u32) -> Result<(), String> {
        self.serial += 1;
        let adding = self.serial % 2 == 1;
        let delta = if adding {
            self.add.clone()
        } else {
            self.remove.clone()
        };
        let target = Serial::new(self.serial);
        let (timeouts, started) = (self.feed_link.timeouts(), Instant::now());

        let span = tr.begin();
        // One sim-hour per push, so the edge's 48 h NRD window holds a
        // fixed number of blocks however long the run is.
        self.root.publish(
            TLD,
            delta,
            target,
            SimTime::from_hours(u64::from(self.serial)),
        );
        tr.finish("broker.publish", span, parent);

        let span = tr.begin();
        while self.feed.view().serial(TLD) != Some(target) {
            self.feed.pump(1);
            check_progress(&self.feed_link, timeouts, started)?;
        }
        tr.finish("edge.feed_pump", span, parent);

        let span = tr.begin();
        let response = self
            .client
            .lookup(&self.probes)
            .map_err(|e| format!("lookup: {e}"))?;
        tr.finish("edge.lookup", span, parent);
        for answer in &response.answers {
            if answer.present != adding || answer.serial != Some(target) {
                return Err(format!("serial {}: edge answered {answer:?}", self.serial));
            }
        }
        Ok(())
    }

    fn rx_bytes(&self) -> u64 {
        self.feed_link.rx_bytes() + self.client_link.rx_bytes()
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
            ("view.resyncs", self.feed.view().resync_count() as f64),
            ("edge.epochs", self.feed.index().epoch() as f64),
            ("edge.bad_frames", self.edge.stats().bad_frames as f64),
        ]
    }

    fn side_inputs(&self) -> SideInputs {
        SideInputs {
            tld: TLD.0,
            snapshot: self.initial.clone(),
            add: self.add.clone(),
            remove: self.remove.clone(),
            batch: self.probes.clone(),
            served_by: None,
        }
    }

    fn verify_final(&mut self) -> Result<(), String> {
        let head = self.root.head(TLD).ok_or("root lost its shard")?;
        let served = self.feed.index().load();
        if served.serial(TLD) != Some(head.serial()) {
            return Err(format!(
                "edge serves {:?}, root head is {:?}",
                served.serial(TLD),
                head.serial()
            ));
        }
        if !self
            .feed
            .view()
            .snapshot(TLD)
            .is_some_and(|s| super::same_state(s, &head))
        {
            return Err("feed view differs from the root head".to_owned());
        }
        if self.feed.view().resync_count() != 0 || self.edge.stats().bad_frames != 0 {
            return Err("the feed resynced or the edge saw a bad frame".to_owned());
        }
        Ok(())
    }

    fn teardown(self) {
        drop(self.client);
        self.edge.shutdown();
        drop(self.feed);
        self.server.shutdown();
    }
}
