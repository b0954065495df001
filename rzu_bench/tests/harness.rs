//! Self-tests of the harness: the properties its numbers rest on.

use darkdns_broker::transport::{
    duplex, FrameConn, LengthPrefixed, TransportClient, TransportError,
};
use darkdns_broker::{Broker, BrokerConfig, BrokerServer, TransportConfig};
use darkdns_core::broker_view::RemoteZoneView;
use darkdns_dns::wire::{encode_delta_push, encode_lookup_request, encode_snapshot_chunks};
use darkdns_dns::Serial;
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use rzu_bench::link::{Link, RECV_TIMEOUT};
use rzu_bench::run::{self, RunArgs};
use rzu_bench::stats::{median, percentile, summarize_windows, windowed_quantile};
use rzu_bench::trace::{TraceCtl, Tracer};
use rzu_bench::workloads::relay_chain::RelayChain;
use rzu_bench::workloads::{dial, SideInputs, Workload};
use rzu_bench::{gen, host};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn percentile_and_median_on_known_inputs() {
    let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_eq!(percentile(&sorted, 0.0), 1.0);
    assert_eq!(percentile(&sorted, 0.5), 3.0);
    assert_eq!(percentile(&sorted, 1.0), 5.0);
    assert_eq!(percentile(&sorted, 0.25), 2.0);
    assert!((percentile(&sorted, 0.9) - 4.6).abs() < 1e-9);
    assert_eq!(percentile(&[], 0.5), 0.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    // Any order in, and an even count interpolates.
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn run_value_is_the_median_window_not_the_best() {
    // Nineteen windows at 100 and one quiet window at 10: the best
    // window says 10, the run says 100.
    let mut per_window = vec![100.0; 19];
    per_window.push(10.0);
    let s = summarize_windows(&per_window);
    assert_eq!(s.median, 100.0);
    assert_eq!(s.iqr, 0.0);
    assert_eq!(s.windows, 20);

    // Per-window p50 first, then the median over windows; an empty
    // window is skipped, not counted as zero.
    let windows = vec![
        vec![1.0, 2.0, 3.0],
        vec![],
        vec![10.0, 20.0, 30.0],
        vec![5.0],
    ];
    let s = windowed_quantile(&windows, 0.5);
    assert_eq!(s.windows, 3);
    assert_eq!(s.median, 5.0);
    assert_eq!(s.iqr, (12.5 - 3.5));
}

/// The encoded form of everything a seed generates, frame by frame.
fn encoded_inputs(seed: u64) -> Vec<Vec<u8>> {
    let snapshot = gen::shard_snapshot(seed, 3, 5_000);
    let (add, remove) = gen::block_deltas(seed, 3, 100);
    let (forward, _) = gen::flip_deltas(&snapshot, 200);
    let origin = gen::origin(3);
    let mut frames: Vec<Vec<u8>> = encode_snapshot_chunks(3, &snapshot, 0, 64 << 10)
        .iter()
        .map(|c| c.to_vec())
        .collect();
    for delta in [&add, &remove, &forward] {
        let frame = encode_delta_push(
            &origin,
            Serial::new(0),
            Serial::new(1),
            SimTime::ZERO,
            delta,
        );
        frames.push(frame.to_vec());
    }
    for batch in gen::lookup_batches(seed, 4, 5_000, 3) {
        frames.push(encode_lookup_request(1, &batch.queries).to_vec());
    }
    frames
}

#[test]
fn same_seed_same_bytes_other_seed_other_names_of_the_same_sizes() {
    let (a, again, b) = (encoded_inputs(1), encoded_inputs(1), encoded_inputs(2));
    assert_eq!(
        a, again,
        "the same seed must generate byte-identical inputs"
    );
    assert_eq!(a.len(), b.len(), "frame count must not depend on the seed");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.len(), y.len(), "frame {i} changes size with the seed");
        assert_ne!(x, y, "frame {i} does not depend on the seed");
    }
}

#[test]
fn link_counts_prefixes_heartbeats_and_timeouts() {
    let ctl = TraceCtl::new();
    let link = Link::new("link1.recv", &ctl);
    let (a, b) = duplex(1 << 16);
    let mut tx = LengthPrefixed::new(a);
    let mut rx = link.wrap(LengthPrefixed::new(b));
    rx.set_recv_timeout(Some(Duration::from_millis(5))).unwrap();
    tx.send_frame(&[b"hello ", b"world"]).unwrap();
    tx.send_frame(&[b""]).unwrap();
    assert_eq!(&rx.recv_frame().unwrap()[..], b"hello world");
    assert!(rx.recv_frame().unwrap().is_empty());
    assert!(matches!(rx.recv_frame(), Err(TransportError::TimedOut)));
    assert_eq!(link.rx_bytes(), 4 + 11 + 4);
    assert_eq!(link.payload_bytes(), 4 + 11);
    assert_eq!(link.timeouts(), 1);
}

#[test]
fn no_op_completes_through_a_receive_timeout() {
    // The shortest timer in the stack is the tiers' 50 ms idle tick, the
    // longest the harness's own 250 ms receive timeout. An op that
    // completed because one of them fired would read as a multiple of
    // it; an op that works reads far below both.
    let ctl = TraceCtl::new();
    let mut tracer = Tracer::new(Arc::clone(&ctl));
    let mut chain = RelayChain::setup(7, &ctl).expect("relay chain sets up");
    let mut samples_ms = Vec::new();
    for _ in 0..200 {
        let start = Instant::now();
        chain
            .op(&mut tracer, 0)
            .expect("every op completes and verifies");
        samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    chain
        .verify_final()
        .expect("leaf equals root, no resync, links carried equal bytes");
    chain.teardown();
    let worst = samples_ms.iter().copied().fold(0.0, f64::max);
    assert!(
        worst < RECV_TIMEOUT.as_secs_f64() * 1e3,
        "an op took {worst} ms: it waited out a timeout"
    );
    let p50 = median(&samples_ms);
    assert!(
        p50 < 25.0,
        "p50 of {p50} ms is within reach of the 50 ms idle tick"
    );
}

#[test]
fn a_blocked_consumer_does_not_spin() {
    // One idle second with every tier up: the consumer sits in
    // `recv_frame` (woken only by the server's heartbeats) and must use
    // next to no CPU of its own.
    let tld = TldId(0);
    let broker = Broker::new(BrokerConfig::default());
    broker.add_shard(tld, gen::shard_snapshot(1, 0, 1_000));
    let server = BrokerServer::new(broker, TransportConfig::default());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let ctl = TraceCtl::new();
    let link = Link::new("link1.recv", &ctl);
    let dial_link = Arc::clone(&link);
    let mut view = RemoteZoneView::connect(&[tld], move |claims| {
        TransportClient::connect(dial(addr, &dial_link)?, claims)
    })
    .unwrap();
    while view.view().serial(tld) != Some(Serial::new(0)) {
        view.pump(1);
    }
    let (cpu, start) = (host::thread_cpu_ns(), Instant::now());
    while start.elapsed() < Duration::from_secs(1) {
        assert_eq!(view.pump(1), 0, "nothing was published");
    }
    let share = (host::thread_cpu_ns() - cpu) as f64 / start.elapsed().as_nanos() as f64;
    drop(view);
    server.shutdown();
    assert!(
        share < 0.02,
        "the idle consumer used {:.1} % of a CPU",
        share * 100.0
    );
}

/// A workload whose op does nothing but account the wait before it: gaps
/// of 10 ms and more only occur between paced ops (20 ms apart at 50
/// ops/s); the closed-loop phases run ops back to back.
struct Gaps {
    last: (Instant, u64),
}

static WAITED_NS: AtomicU64 = AtomicU64::new(0);
static BURNED_NS: AtomicU64 = AtomicU64::new(0);

impl Workload for Gaps {
    const NAME: &'static str = "gaps";
    const PACED_RATE: Option<f64> = Some(50.0);
    const WARM_OPS: u64 = 1;

    fn setup(_seed: u64, _ctl: &Arc<TraceCtl>) -> Result<Self, String> {
        Ok(Gaps {
            last: (Instant::now(), host::thread_cpu_ns()),
        })
    }

    fn op(&mut self, _tr: &mut Tracer, _parent: u32) -> Result<(), String> {
        let now = (Instant::now(), host::thread_cpu_ns());
        let gap = now.0 - self.last.0;
        if gap >= Duration::from_millis(10) {
            WAITED_NS.fetch_add(gap.as_nanos() as u64, Ordering::Relaxed);
            BURNED_NS.fetch_add(now.1 - self.last.1, Ordering::Relaxed);
        }
        self.last = now;
        Ok(())
    }

    fn rx_bytes(&self) -> u64 {
        0
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn side_inputs(&self) -> SideInputs {
        unreachable!("an untraced run times no side loop")
    }

    fn verify_final(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn teardown(self) {}
}

#[test]
fn the_generator_does_not_spin_between_paced_ops() {
    let report = run::run::<Gaps>(&RunArgs {
        seed: 1,
        seconds: 2.0,
        trace: false,
    })
    .unwrap();
    assert!(report.correct);
    let waited = WAITED_NS.load(Ordering::Relaxed);
    assert!(
        waited >= 500_000_000,
        "the paced phase must have run (waited {waited} ns)"
    );
    let share = BURNED_NS.load(Ordering::Relaxed) as f64 / waited as f64;
    assert!(
        share < 0.02,
        "waiting for due times used {:.1} % of a CPU",
        share * 100.0
    );
}
