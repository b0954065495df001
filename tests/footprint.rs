//! The fleet-level bounded-memory contract: what a tier keeps is its
//! zone plus the bytes it will serve again.
//!
//! Root → relay → leaf, three brokers on pipe transports, four shards
//! of 2 000 delegations each. Once every tier has bootstrapped, the
//! root publishes add-block / remove-block deltas — the zone ends each
//! pair the size it began — and the process's live heap is read after
//! three and after six ring-fulls. The contract:
//!
//! * growth since "bootstrapped" is at most, per broker and shard, the
//!   bytes of the frames its ring retains plus a fixed slack — a
//!   100-name delta is ≈ 2.4 KB of frame and was ≈ 5 KB more as the
//!   decoded tree every ring once kept beside it, which is what this
//!   bound is sized to reject;
//! * three more ring-fulls add nothing: no slope.
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`. The count is one process-wide atomic, not per
//! thread as in `alloc_budget.rs`: reactor and relay threads allocate
//! what the publishing thread's frames turn into.

use darkdns::broker::transport::{duplex, FrameConn, LengthPrefixed, TransportError};
use darkdns::broker::{Broker, BrokerConfig, BrokerServer, TransportConfig};
use darkdns::dns::{DomainName, NsSet, Serial, ZoneDelta, ZoneSnapshot};
use darkdns::registry::tld::TldId;
use darkdns::sim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

struct LiveBytes;

/// Bytes allocated and not yet freed, process-wide. `Relaxed`: a
/// statistic, read only once the fleet is quiescent.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is an atomic add that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const SHARDS: u16 = 4;
const ZONE: usize = 2_000;
const BLOCK: usize = 100;
const PROVIDERS: usize = 16;
const BROKERS: usize = 3;
/// Per broker and shard, beside the retained frames: a header per ring
/// slot, the segments head and checkpoint do not share, queue and
/// buffer capacity that a burst grew.
const SLACK: usize = 32 << 10;

fn name(s: &str) -> DomainName {
    DomainName::parse(s).unwrap()
}

fn host_lists() -> Vec<Vec<DomainName>> {
    (0..PROVIDERS)
        .map(|p| {
            vec![
                name(&format!("ns1.provider-{p:02}.footprint-hosting.net")),
                name(&format!("ns2.provider-{p:02}.footprint-hosting.net")),
            ]
        })
        .collect()
}

fn shard_zone(shard: u16, lists: &[Vec<DomainName>]) -> ZoneSnapshot {
    let entries = (0..ZONE)
        .map(|i| (name(&format!("owner-{i:06}.t{shard:02}")), lists[(i * 7 + i / 13) % PROVIDERS].clone()))
        .collect();
    ZoneSnapshot::from_entries(name(&format!("t{shard:02}")), Serial::new(0), SimTime::ZERO, entries)
}

/// The add-block / remove-block pair of one shard.
fn block_deltas(shard: u16, lists: &[Vec<DomainName>]) -> [ZoneDelta; 2] {
    let sets: Vec<NsSet> = lists.iter().map(|hosts| NsSet::new(hosts.clone())).collect();
    let block: Vec<(DomainName, NsSet)> = (0..BLOCK)
        .map(|j| (name(&format!("zz-nrd-{j:04}.t{shard:02}")), sets[j % PROVIDERS].clone()))
        .collect();
    [
        ZoneDelta { added: block.clone(), ..ZoneDelta::default() },
        ZoneDelta { removed: block, ..ZoneDelta::default() },
    ]
}

fn server_over(broker: &Broker) -> BrokerServer {
    let config = TransportConfig { writer_tick: Duration::from_millis(5), ..TransportConfig::default() };
    BrokerServer::new(broker.clone(), config)
}

fn dialer(
    upstream: &BrokerServer,
) -> impl FnMut() -> Result<Box<dyn FrameConn>, TransportError> + Send + 'static {
    let upstream = upstream.clone();
    move || {
        let (client_end, server_end) = duplex(1 << 16);
        upstream.spawn_conn(LengthPrefixed::new(server_end));
        Ok(Box::new(LengthPrefixed::new(client_end)))
    }
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn all_heads_at(broker: &Broker, serial: u32) -> bool {
    (0..SHARDS).all(|s| broker.head(TldId(s)).is_some_and(|h| h.serial() == Serial::new(serial)))
}

#[test]
fn a_fleet_retains_its_zones_and_its_rings_frames_and_does_not_grow() {
    let ring = BrokerConfig::default().retention.max_deltas as u32;
    let lists = host_lists();
    let deltas: Vec<[ZoneDelta; 2]> = (0..SHARDS).map(|s| block_deltas(s, &lists)).collect();
    let tlds: Vec<TldId> = (0..SHARDS).map(TldId).collect();

    let root = Broker::new(BrokerConfig::default());
    for shard in 0..SHARDS {
        root.add_shard(TldId(shard), shard_zone(shard, &lists));
    }
    let root_server = server_over(&root);
    let relay = Broker::new(BrokerConfig::default());
    let relay_server = server_over(&relay);
    relay_server.attach_upstream(tlds.clone(), dialer(&root_server));
    let leaf = Broker::new(BrokerConfig::default());
    let leaf_server = server_over(&leaf);
    leaf_server.attach_upstream(tlds.clone(), dialer(&relay_server));
    wait_for("every tier bootstrapped", || all_heads_at(&leaf, 0));

    // Publish `rings` ring-fulls per shard past `from`, a ring-full at a
    // time so no subscriber queue overflows, and return the bytes of the
    // frames each broker's rings hold once the leaf has them all.
    let publish_rings = |from: u32, rings: u32| -> usize {
        let mut retained_bytes = 0;
        for round in 0..rings {
            let first = from + round * ring + 1;
            retained_bytes = 0;
            for serial in first..first + ring {
                for (shard, pair) in deltas.iter().enumerate() {
                    let delta = pair[(serial as usize + 1) % 2].clone();
                    let at = SimTime::from_secs(u64::from(serial));
                    let sealed = root.publish(TldId(shard as u16), delta, Serial::new(serial), at);
                    retained_bytes += sealed.frame.len();
                }
            }
            wait_for("the leaf to reach the root's heads", || all_heads_at(&leaf, first + ring - 1));
        }
        retained_bytes
    };

    let bootstrapped = LIVE.load(Ordering::Relaxed);
    let retained_bytes = publish_rings(0, 3);
    let after_three = LIVE.load(Ordering::Relaxed) - bootstrapped;
    assert_eq!(publish_rings(3 * ring, 3), retained_bytes);
    let after_six = LIVE.load(Ordering::Relaxed) - bootstrapped;

    for broker in [&root, &relay, &leaf] {
        let stats = broker.all_shard_stats();
        assert!(stats.iter().all(|s| s.retained_deltas == u64::from(ring)), "{stats:?}");
        assert_eq!(broker.head(TldId(0)).unwrap().len(), ZONE);
    }
    // `retained_bytes` is one broker's, all its shards together.
    let budget = (BROKERS * (retained_bytes + SHARDS as usize * SLACK)) as isize;
    assert!(retained_bytes > SHARDS as usize * ring as usize * BLOCK);
    assert!(
        after_three <= budget,
        "live heap grew {after_three} bytes past bootstrap; {BROKERS} brokers retain \
         {retained_bytes} frame bytes each, budget {budget}"
    );
    assert!(after_six <= budget, "live heap grew {after_six} bytes after six ring-fulls");
    let slope = after_six - after_three;
    assert!(
        slope.unsigned_abs() <= SLACK,
        "three more ring-fulls moved the live heap by {slope} bytes ({after_three} -> {after_six})"
    );

    leaf_server.shutdown();
    relay_server.shutdown();
    root_server.shutdown();
}
