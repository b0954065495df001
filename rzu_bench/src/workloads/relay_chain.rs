//! `relay_chain`: publish → NRD detected, through the relay fabric.
//!
//! 32 TLD shards × 2 000 delegations; root → relay → relay →
//! `RemoteZoneView` leaf over loopback TCP. One op publishes one
//! 100-add (odd serial) or 100-remove (even serial) delta, TLDs round-
//! robin, and completes when the leaf has applied it and
//! `drain_new_domains` returned exactly its 100 names.
//!
//! Why: the smallest state and the most hops. Anything O(zone) is
//! invisible here; the per-message costs — seal, reactor wake, ring
//! flush, relay decode + `publish_frame`, client decode — do most of the
//! work, three times over.

use super::{check_progress, dial, same_state, wait_until, SideInputs, Workload, BLOCK};
use crate::gen;
use crate::link::Link;
use crate::trace::{TraceCtl, Tracer};
use darkdns_broker::transport::{FrameConn, RelayHandle, TransportClient, TransportError};
use darkdns_broker::{Broker, BrokerConfig, BrokerServer, TransportConfig};
use darkdns_core::broker_view::RemoteZoneView;
use darkdns_dns::wire::LookupQuery;
use darkdns_dns::{DomainName, Serial, ZoneDelta, ZoneSnapshot};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use std::sync::Arc;
use std::time::Instant;

pub const SHARDS: u16 = 32;
pub const SHARD_SIZE: usize = 2_000;
/// Relay tiers between the root and the leaf.
const RELAYS: usize = 2;

type LeafDial =
    Box<dyn FnMut(&[(TldId, Option<Serial>)]) -> Result<TransportClient, TransportError>>;

pub struct RelayChain {
    root: Broker,
    /// Root first, then each relay.
    servers: Vec<BrokerServer>,
    relays: Vec<RelayHandle>,
    /// `link1` root→relay, `link2` relay→relay, `link3` relay→leaf.
    links: Vec<Arc<Link>>,
    /// Each link's payload bytes when set-up finished.
    link_base: Vec<u64>,
    leaf: RemoteZoneView<LeafDial>,
    tlds: Vec<TldId>,
    deltas: Vec<(ZoneDelta, ZoneDelta)>,
    serials: Vec<u32>,
    next_op: usize,
    nrds: Vec<DomainName>,
    shard0: ZoneSnapshot,
    side_batch: Vec<LookupQuery>,
}

impl Workload for RelayChain {
    const NAME: &'static str = "relay_chain";
    const PACED_RATE: Option<f64> = Some(200.0);
    const WARM_OPS: u64 = 64;

    fn setup(seed: u64, ctl: &Arc<TraceCtl>) -> Result<Self, String> {
        let tlds: Vec<TldId> = (0..SHARDS).map(TldId).collect();
        let root = Broker::new(BrokerConfig::default());
        let mut shard0 = None;
        for &tld in &tlds {
            let snapshot = gen::shard_snapshot(seed, tld.0, SHARD_SIZE);
            shard0.get_or_insert_with(|| snapshot.clone());
            root.add_shard(tld, snapshot);
        }
        let deltas = tlds
            .iter()
            .map(|t| gen::block_deltas(seed, t.0, BLOCK))
            .collect();

        let root_server = BrokerServer::new(root.clone(), TransportConfig::default());
        let mut upstream = root_server
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| e.to_string())?;
        let mut servers = vec![root_server];
        let mut relays = Vec::new();
        let mut links = Vec::new();
        for name in ["link1.recv", "link2.recv"].into_iter().take(RELAYS) {
            let link = Link::new(name, ctl);
            let server = BrokerServer::new(
                Broker::new(BrokerConfig::default()),
                TransportConfig::default(),
            );
            let (addr, relay_link) = (upstream, Arc::clone(&link));
            // The relay thread sets its own receive timeout.
            let relay = server.attach_upstream(tlds.clone(), move || {
                Ok(Box::new(dial(addr, &relay_link)?) as Box<dyn FrameConn>)
            });
            // The next tier can subscribe only once this one knows
            // every shard.
            wait_until("a relay's bootstrap", || {
                relay.stats().snapshots_installed == u64::from(SHARDS)
            })?;
            upstream = server
                .listen_tcp("127.0.0.1:0")
                .map_err(|e| e.to_string())?;
            servers.push(server);
            relays.push(relay);
            links.push(link);
        }

        let leaf_link = Link::new("link3.recv", ctl);
        let (addr, link) = (upstream, Arc::clone(&leaf_link));
        let leaf_dial: LeafDial =
            Box::new(move |claims| TransportClient::connect(dial(addr, &link)?, claims));
        let mut leaf = RemoteZoneView::connect(&tlds, leaf_dial).map_err(|e| e.to_string())?;
        links.push(leaf_link);
        let started = Instant::now();
        while tlds
            .iter()
            .any(|&t| leaf.view().serial(t) != Some(Serial::new(0)))
        {
            leaf.pump(1);
            check_progress(&links[RELAYS], 0, started)?;
        }
        for &tld in &tlds {
            let head = root.head(tld).ok_or("root lost a shard")?;
            if !leaf
                .view()
                .snapshot(tld)
                .is_some_and(|s| same_state(s, &head))
            {
                return Err(format!(
                    "leaf bootstrap of shard {} differs from the root",
                    tld.0
                ));
            }
        }
        let link_base = links.iter().map(|l| l.payload_bytes()).collect();
        Ok(RelayChain {
            root,
            servers,
            relays,
            links,
            link_base,
            leaf,
            serials: vec![0; tlds.len()],
            tlds,
            deltas,
            next_op: 0,
            nrds: Vec::with_capacity(BLOCK),
            shard0: shard0.ok_or("no shards")?,
            // Over shard 0 alone: the side loops index one shard.
            side_batch: gen::lookup_batches(seed, 1, SHARD_SIZE, 1)
                .remove(0)
                .queries,
        })
    }

    fn op(&mut self, tr: &mut Tracer, parent: u32) -> Result<(), String> {
        let shard = self.next_op % self.tlds.len();
        self.next_op += 1;
        self.serials[shard] += 1;
        let serial = self.serials[shard];
        let adding = serial % 2 == 1;
        let (add, remove) = &self.deltas[shard];
        let delta = if adding { add.clone() } else { remove.clone() };
        let (tld, target) = (self.tlds[shard], Serial::new(serial));
        let leaf_link = &self.links[RELAYS];
        let (timeouts, started) = (leaf_link.timeouts(), Instant::now());

        let span = tr.begin();
        self.root
            .publish(tld, delta, target, SimTime::from_hours(u64::from(serial)));
        tr.finish("broker.publish", span, parent);

        let span = tr.begin();
        while self.leaf.view().serial(tld) != Some(target) {
            self.leaf.pump(1);
            check_progress(leaf_link, timeouts, started)?;
        }
        tr.finish("view.pump", span, parent);

        let span = tr.begin();
        self.nrds.clear();
        self.leaf.view_mut().drain_new_domains(&mut self.nrds);
        tr.finish("view.drain", span, parent);

        let expected = if adding { &add.added[..] } else { &[] };
        if !self
            .nrds
            .iter()
            .eq(expected.iter().map(|(domain, _)| domain))
        {
            return Err(format!(
                "shard {} serial {serial}: drained {} NRDs, expected {}",
                tld.0,
                self.nrds.len(),
                expected.len()
            ));
        }
        Ok(())
    }

    fn rx_bytes(&self) -> u64 {
        self.links[RELAYS].rx_bytes()
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let broker = self.root.stats();
        let (mut coalesced, mut deltas_sent) = (0, 0);
        for server in &self.servers {
            let stats = server.stats();
            coalesced += stats.coalesced_frames;
            deltas_sent += stats.deltas_sent;
        }
        let (mut relayed, mut skipped) = (0, 0);
        for relay in &self.relays {
            let stats = relay.stats();
            relayed += stats.frames_relayed;
            skipped += stats.frames_skipped;
        }
        vec![
            ("broker.frames_encoded", broker.frames_encoded as f64),
            ("broker.frame_bytes", broker.frame_bytes_encoded as f64),
            ("transport.coalesced_frames", coalesced as f64),
            ("transport.deltas_sent", deltas_sent as f64),
            ("relay.frames_relayed", relayed as f64),
            ("relay.frames_skipped", skipped as f64),
            ("view.resyncs", self.leaf.view().resync_count() as f64),
        ]
    }

    fn side_inputs(&self) -> SideInputs {
        SideInputs {
            tld: 0,
            snapshot: self.shard0.clone(),
            add: self.deltas[0].0.clone(),
            remove: self.deltas[0].1.clone(),
            batch: self.side_batch.clone(),
            served_by: None,
        }
    }

    fn verify_final(&mut self) -> Result<(), String> {
        for &tld in &self.tlds {
            let head = self.root.head(tld).ok_or("root lost a shard")?;
            if !self
                .leaf
                .view()
                .snapshot(tld)
                .is_some_and(|s| same_state(s, &head))
            {
                return Err(format!(
                    "leaf state of shard {} differs from the root head",
                    tld.0
                ));
            }
        }
        if self.leaf.view().resync_count() != 0 {
            return Err(format!(
                "leaf resynced {} times",
                self.leaf.view().resync_count()
            ));
        }
        // Verbatim re-serve: every tier forwarded exactly the bytes it
        // received.
        let carried: Vec<u64> = self
            .links
            .iter()
            .zip(&self.link_base)
            .map(|(l, base)| l.payload_bytes() - base)
            .collect();
        if carried.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!(
                "per-link byte totals differ across tiers: {carried:?}"
            ));
        }
        Ok(())
    }

    fn teardown(self) {
        drop(self.leaf);
        // Leaf to root, so no tier redials a vanished upstream.
        for server in self.servers.into_iter().rev() {
            server.shutdown();
        }
    }
}
