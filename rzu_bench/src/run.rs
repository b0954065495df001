//! The run shape every workload shares.
//!
//! Set-up five times in-process (the fifth is kept), a closed-loop
//! warm-up, a **paced** phase (open loop at a fixed rate, latency timed
//! from each op's due time), a **saturate** phase (closed loop, one op
//! in flight), and five more set-ups once the kept one is torn down, so
//! `setup_s` is a median over both ends of the run. Both measured phases
//! are cut into [`WINDOWS`] equal windows and every per-run value is the
//! median over windows of the per-window statistic.
//!
//! The generator is one thread. It never spins: between paced ops it
//! sleeps to the next due time, and inside an op it blocks in the
//! consumer's `recv_frame`.

use crate::alloc;
use crate::host;
use crate::layers;
use crate::stats::{median, quantile, summarize_windows, windowed_quantile, WindowSummary};
use crate::trace::{Span, TraceCtl, Tracer};
use crate::workloads::Workload;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed before the measured phases (the last is kept) and
/// again after them; the reported `setup_s` is the median of them all.
/// The host's speed wanders over tens of seconds, so set-ups from one
/// end of the run alone repeat less well.
pub const SETUPS_PER_END: usize = 5;
/// Equal windows per measured phase.
pub const WINDOWS: usize = 20;
const WARM_UP: Duration = Duration::from_secs(1);

pub struct RunArgs {
    pub seed: u64,
    /// Measured seconds, split evenly between the paced and the
    /// saturate phase (all of it saturate when the workload has no
    /// paced phase).
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Interquartile range of the windows behind `value`, where it is a
    /// median of windows.
    pub window_iqr: Option<f64>,
}

pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure reasons, for the human-readable output.
    pub failures: Vec<String>,
    /// The gated metrics: what an untraced run reports.
    pub end_to_end: Vec<Metric>,
    /// The time-based end-to-end figures. They do not repeat within a
    /// tenth on a shared host, so they are per-layer metrics: printed by
    /// every run, reported by a traced one (from its untraced windows).
    pub timing: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
}

/// Ops attempted and failed so far; the count attempted is also the id
/// of the op in flight.
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Run one op under a root span; `true` when it succeeded.
    fn op<W: Workload>(&mut self, w: &mut W, tr: &mut Tracer) -> bool {
        self.attempted += 1;
        let root = tr.begin();
        tr.ctl.set_op(self.attempted, root.0);
        let result = w.op(tr, root.0);
        tr.finish("op", root, 0);
        match result {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(format!("op {}: {why}", self.attempted));
                }
                false
            }
        }
    }
}

struct PacedPhase {
    /// Latency from due time, µs, per window (by due time). A traced run
    /// traces the odd windows, as the saturate phase does.
    latency_us: Vec<Vec<f64>>,
    /// How late each op started after its due time, µs.
    late_us: Vec<f64>,
    /// Op ids `[first, last)`.
    ops: (u64, u64),
}

fn paced<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    tally: &mut Tally,
    rate: f64,
    dur: Duration,
    trace: bool,
) -> PacedPhase {
    let mut phase = PacedPhase {
        latency_us: vec![Vec::new(); WINDOWS],
        late_us: Vec::new(),
        ops: (tally.attempted + 1, 0),
    };
    let interval = Duration::from_secs_f64(1.0 / rate);
    let window = dur / WINDOWS as u32;
    let start = Instant::now();
    for i in 0u32.. {
        let offset = interval * i;
        if offset >= dur {
            break;
        }
        let due = start + offset;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        phase.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        let slot = ((offset.as_nanos() / window.as_nanos()) as usize).min(WINDOWS - 1);
        tr.ctl.set_on(trace && slot % 2 == 1);
        if tally.op(w, tr) {
            phase.latency_us[slot].push(due.elapsed().as_secs_f64() * 1e6);
        }
    }
    tr.ctl.set_on(false);
    phase.ops.1 = tally.attempted + 1;
    phase
}

#[derive(Default)]
struct SatWindow {
    traced: bool,
    ops: u64,
    elapsed_s: f64,
    cpu_ns: u64,
    rx_bytes: u64,
    allocs: u64,
    alloc_bytes: u64,
    op_us: Vec<f64>,
    calib_us: f64,
}

struct SaturatePhase {
    windows: Vec<SatWindow>,
    ops: (u64, u64),
    elapsed_s: f64,
}

/// Closed loop, one op in flight. A window closes at the first op
/// completion past its end, and its rates use the time it really
/// covered. A traced run alternates traced and untraced windows, so the
/// two kinds see the same host and their ratio is the tracing overhead.
fn saturate<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    tally: &mut Tally,
    dur: Duration,
    trace: bool,
) -> SaturatePhase {
    let first_op = tally.attempted + 1;
    let window = dur / WINDOWS as u32;
    let mut windows = Vec::with_capacity(WINDOWS);
    let phase_start = Instant::now();
    for k in 0..WINDOWS {
        let mut win = SatWindow {
            traced: trace && k % 2 == 1,
            ..SatWindow::default()
        };
        if trace {
            // Outside the window's clock: the reference spin is a
            // reading of the host, not part of the workload.
            win.calib_us = host::calib_spin_us();
        }
        tr.ctl.set_on(win.traced);
        alloc::set_counting(win.traced);
        let (allocs, alloc_bytes) = alloc::counters();
        let (cpu, rx) = (host::process_cpu_ns(), w.rx_bytes());
        let start = Instant::now();
        loop {
            let op_start = Instant::now();
            if tally.op(w, tr) {
                win.ops += 1;
                win.op_us.push(op_start.elapsed().as_secs_f64() * 1e6);
            }
            if start.elapsed() >= window {
                break;
            }
        }
        win.elapsed_s = start.elapsed().as_secs_f64();
        win.cpu_ns = host::process_cpu_ns() - cpu;
        win.rx_bytes = w.rx_bytes() - rx;
        let (allocs_now, alloc_bytes_now) = alloc::counters();
        win.allocs = allocs_now - allocs;
        win.alloc_bytes = alloc_bytes_now - alloc_bytes;
        windows.push(win);
    }
    tr.ctl.set_on(false);
    alloc::set_counting(false);
    SaturatePhase {
        windows,
        ops: (first_op, tally.attempted + 1),
        elapsed_s: phase_start.elapsed().as_secs_f64(),
    }
}

fn per_window(windows: &[&SatWindow], f: impl Fn(&SatWindow) -> f64) -> WindowSummary {
    let values: Vec<f64> = windows.iter().filter(|w| w.ops > 0).map(|w| f(w)).collect();
    summarize_windows(&values)
}

fn metric(name: &'static str, unit: &'static str, s: WindowSummary) -> Metric {
    Metric {
        name,
        value: s.median,
        unit,
        window_iqr: Some(s.iqr),
    }
}

fn plain(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit,
        window_iqr: None,
    }
}

/// Run `W` once: set-ups, warm-up, measured phases, correctness gate.
pub fn run<W: Workload>(args: &RunArgs) -> Result<Report, String> {
    let ctl = TraceCtl::new();
    let mut tr = Tracer::new(Arc::clone(&ctl));
    if args.trace {
        tr.reserve();
    }

    // Timed up to "bootstrapped and verified". Tear-down is left out:
    // it waits for each tier's 50 ms idle tick, a timer, not work.
    let timed_setup = |setup_s: &mut Vec<f64>| -> Result<W, String> {
        let start = Instant::now();
        let built = W::setup(args.seed, &ctl)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok(built)
    };
    let mut setup_s = Vec::with_capacity(2 * SETUPS_PER_END);
    for _ in 1..SETUPS_PER_END {
        timed_setup(&mut setup_s)?.teardown();
    }
    let mut w = timed_setup(&mut setup_s)?;
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    let warm_start = Instant::now();
    let mut warm_ops = 0;
    while warm_start.elapsed() < WARM_UP || warm_ops < W::WARM_OPS {
        tally.op(&mut w, &mut tr);
        warm_ops += 1;
        if tally.failed > 16 {
            break;
        }
    }

    let steal_start = host::steal_and_total_ticks();
    let measured = Duration::from_secs_f64(args.seconds);
    let paced_phase = W::PACED_RATE
        .map(|rate| paced(&mut w, &mut tr, &mut tally, rate, measured / 2, args.trace));
    let sat_dur = if paced_phase.is_some() {
        measured / 2
    } else {
        measured
    };
    let counters_start = w.counters();
    let switches_start = if args.trace {
        host::voluntary_switches()
    } else {
        0
    };
    let sat = saturate(&mut w, &mut tr, &mut tally, sat_dur, args.trace);
    let switches = if args.trace {
        host::voluntary_switches() - switches_start
    } else {
        0
    };
    let counters_end = w.counters();
    let steal_end = host::steal_and_total_ticks();

    // End-to-end values. A traced run keeps only its untraced windows
    // for them.
    let untraced = |k: usize| !(args.trace && k % 2 == 1);
    let latency = match &paced_phase {
        Some(phase) => windowed_quantile(
            phase
                .latency_us
                .iter()
                .enumerate()
                .filter(|(k, _)| untraced(*k))
                .map(|(_, w)| w),
            0.5,
        ),
        None => windowed_quantile(
            sat.windows.iter().filter(|w| !w.traced).map(|w| &w.op_us),
            0.5,
        ),
    };
    let e2e_windows: Vec<&SatWindow> = sat.windows.iter().filter(|w| !w.traced).collect();
    let wire_bytes_per_op = metric(
        "wire_bytes_per_op",
        "B",
        per_window(&e2e_windows, |w| w.rx_bytes as f64 / w.ops as f64),
    );
    let timing = vec![
        metric("latency_p50_us", "us", latency),
        metric(
            "ops_per_s",
            "1/s",
            per_window(&e2e_windows, |w| w.ops as f64 / w.elapsed_s),
        ),
        metric(
            "cpu_ms_per_op",
            "ms",
            per_window(&e2e_windows, |w| w.cpu_ns as f64 / 1e6 / w.ops as f64),
        ),
    ];

    // Tracing is off from here on: the spans are complete.
    let dropped_spans = ctl.dropped();
    let spans = tr.into_spans();
    let mut per_layer = Vec::new();
    if args.trace {
        // All tiers up, nothing published: what the stack burns idle.
        let cpu = host::process_cpu_ns();
        let idle = Instant::now();
        std::thread::sleep(Duration::from_secs(1));
        let idle_cpu_share =
            (host::process_cpu_ns() - cpu) as f64 / idle.elapsed().as_nanos() as f64;
        let layer_times = layers::run(&w.side_inputs());
        per_layer = per_layer_metrics(PerLayerInputs {
            spans: &spans,
            span_ops: paced_phase.as_ref().map_or(sat.ops, |p| p.ops),
            paced: paced_phase.as_ref(),
            sat: &sat,
            counters: (&counters_start, &counters_end),
            switches,
            steal: (steal_start, steal_end),
            idle_cpu_share,
            layer_times,
            setup_cold_s: setup_s[0],
        });
    }

    let verdict = w.verify_final();
    w.teardown();
    if let Err(why) = &verdict {
        tally.failures.push(format!("final check: {why}"));
    }
    for _ in 0..SETUPS_PER_END {
        timed_setup(&mut setup_s)?.teardown();
    }
    let end_to_end = vec![
        plain("setup_s", "s", median(&setup_s)),
        wire_bytes_per_op,
        plain("peak_rss_mb", "MiB", host::peak_rss_mib()),
    ];
    Ok(Report {
        workload: W::NAME,
        correct: tally.failed == 0 && verdict.is_ok(),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        end_to_end,
        timing,
        per_layer,
        spans,
        dropped_spans,
    })
}

/// One monotonic layer counter: metric stem and reading.
type Counter = (&'static str, f64);

struct PerLayerInputs<'a> {
    spans: &'a [Span],
    /// Op ids whose spans the span-derived p50s are taken over: the
    /// paced phase, or the saturate phase where there is none.
    span_ops: (u64, u64),
    paced: Option<&'a PacedPhase>,
    sat: &'a SaturatePhase,
    /// Layer counters at the start and at the end of the saturate phase.
    counters: (&'a [Counter], &'a [Counter]),
    switches: u64,
    steal: ((u64, u64), (u64, u64)),
    idle_cpu_share: f64,
    layer_times: layers::LayerTimes,
    setup_cold_s: f64,
}

/// Spans of one op, by name.
#[derive(Default)]
struct OpSpans<'a> {
    by_name: HashMap<&'static str, Vec<&'a Span>>,
}

impl<'a> OpSpans<'a> {
    fn first(&self, name: &str) -> Option<&'a Span> {
        self.by_name.get(name).and_then(|v| v.first().copied())
    }

    fn all(&self, name: &str) -> &[&'a Span] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

const LINK_NAMES: [&str; 3] = ["link1.recv", "link2.recv", "link3.recv"];

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn per_layer_metrics(inp: PerLayerInputs<'_>) -> Vec<Metric> {
    let PerLayerInputs {
        spans,
        span_ops,
        paced,
        sat,
        counters,
        ..
    } = &inp;
    let mut ops: HashMap<u64, OpSpans<'_>> = HashMap::new();
    for span in spans
        .iter()
        .filter(|s| s.op >= span_ops.0 && s.op < span_ops.1)
    {
        ops.entry(span.op)
            .or_default()
            .by_name
            .entry(span.name)
            .or_default()
            .push(span);
    }
    let durations = |name: &str| -> Vec<f64> {
        ops.values()
            .flat_map(|op| op.all(name).iter().map(|s| s.dur_us()))
            .collect()
    };

    // Per-op quantities that need more than one span.
    let (mut hop, mut residency, mut apply) = (Vec::new(), Vec::new(), Vec::new());
    for op in ops.values() {
        let links: Vec<&[&Span]> = LINK_NAMES
            .iter()
            .map(|n| op.all(n))
            .filter(|s| !s.is_empty())
            .collect();
        // Frame arrivals: publish return (or op start, where the op
        // publishes nothing) → first frame on the first link.
        let sent = op
            .first("broker.publish")
            .map(|s| s.end_ns)
            .or(op.first("op").map(|s| s.start_ns));
        if let (Some(sent), Some(first)) = (sent, links.first().and_then(|l| l.first())) {
            hop.push((first.end_ns as f64 - sent as f64) / 1e3);
        }
        for pair in links.windows(2) {
            if let (Some(up), Some(down)) = (pair[0].last(), pair[1].last()) {
                residency.push((down.end_ns as f64 - up.end_ns as f64) / 1e3);
            }
        }
        // Time in the consumer's pump not spent inside `recv_frame`:
        // decode and apply.
        let pump = op.first("view.pump").or(op.first("edge.feed_pump"));
        if let (Some(pump), Some(last)) = (pump, links.last()) {
            let in_recv: u64 = last
                .iter()
                .filter(|s| s.start_ns >= pump.start_ns && s.end_ns <= pump.end_ns)
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            apply.push(((pump.end_ns - pump.start_ns) - in_recv) as f64 / 1e3);
        }
    }

    let sat_ops: u64 = sat.windows.iter().map(|w| w.ops).sum();
    let per_op = |stem: &str| -> f64 {
        let read = |set: &[Counter]| {
            set.iter()
                .find(|(name, _)| *name == stem)
                .map_or(0.0, |(_, v)| *v)
        };
        (read(counters.1) - read(counters.0)) / sat_ops.max(1) as f64
    };
    let total = |stem: &str| -> f64 {
        counters
            .1
            .iter()
            .find(|(name, _)| *name == stem)
            .map_or(0.0, |(_, v)| *v)
    };

    let traced: Vec<&SatWindow> = sat
        .windows
        .iter()
        .filter(|w| w.traced && w.ops > 0)
        .collect();
    let untraced: Vec<&SatWindow> = sat
        .windows
        .iter()
        .filter(|w| !w.traced && w.ops > 0)
        .collect();
    let traced_ops: u64 = traced.iter().map(|w| w.ops).sum();
    let time_per_op = |ws: &[&SatWindow]| {
        p50(&ws
            .iter()
            .map(|w| w.elapsed_s / w.ops as f64)
            .collect::<Vec<_>>())
    };
    let overhead = match (time_per_op(&traced), time_per_op(&untraced)) {
        (t, u) if u > 0.0 && t > 0.0 => t / u - 1.0,
        _ => 0.0,
    };

    let latencies: Vec<f64> = match paced {
        Some(phase) => phase.latency_us.iter().flatten().copied().collect(),
        None => sat
            .windows
            .iter()
            .flat_map(|w| w.op_us.iter().copied())
            .collect(),
    };
    let late = paced.map_or(0.0, |p| {
        if p.late_us.is_empty() {
            0.0
        } else {
            quantile(&p.late_us, 0.99)
        }
    });
    let ((steal0, total0), (steal1, total1)) = inp.steal;
    let lt = &inp.layer_times;
    let lookup_rtt = p50(&durations("edge.lookup"));

    vec![
        plain("broker.publish_us", "us", p50(&durations("broker.publish"))),
        plain(
            "broker.frames_encoded_per_op",
            "count",
            per_op("broker.frames_encoded"),
        ),
        plain(
            "broker.frame_bytes_per_op",
            "B",
            per_op("broker.frame_bytes"),
        ),
        plain("wire.encode_delta_us", "us", lt.encode_delta_us),
        plain("wire.decode_delta_us", "us", lt.decode_delta_us),
        plain("wire.snapshot_encode_us", "us", lt.snapshot_encode_us),
        plain("wire.snapshot_decode_us", "us", lt.snapshot_decode_us),
        plain("wire.lookup_codec_us", "us", lt.lookup_codec_us),
        plain("zone.apply_us", "us", lt.zone_apply_us),
        plain("transport.hop_us", "us", p50(&hop)),
        plain(
            "transport.coalesced_frames_per_op",
            "count",
            per_op("transport.coalesced_frames"),
        ),
        plain(
            "transport.deltas_sent_per_op",
            "count",
            per_op("transport.deltas_sent"),
        ),
        plain("transport.idle_cpu_share", "share", inp.idle_cpu_share),
        plain("relay.residency_us", "us", p50(&residency)),
        plain(
            "relay.frames_relayed_per_op",
            "count",
            per_op("relay.frames_relayed"),
        ),
        plain(
            "relay.frames_skipped",
            "count",
            total("relay.frames_skipped"),
        ),
        plain("view.apply_us", "us", p50(&apply)),
        plain("view.drain_us", "us", p50(&durations("view.drain"))),
        plain("view.resyncs", "count", total("view.resyncs")),
        plain("edge.feed_pump_us", "us", p50(&durations("edge.feed_pump"))),
        plain("edge.epoch_apply_us", "us", lt.epoch_apply_us),
        plain("edge.index_answer_us", "us", lt.index_answer_us),
        plain(
            "edge.epochs_per_s",
            "1/s",
            per_op("edge.epochs") * sat_ops as f64 / sat.elapsed_s,
        ),
        plain("edge.lookup_rtt_us", "us", lookup_rtt),
        plain(
            "edge.server_us",
            "us",
            if lookup_rtt > 0.0 {
                lookup_rtt - lt.index_answer_us
            } else {
                0.0
            },
        ),
        plain("edge.bad_frames", "count", total("edge.bad_frames")),
        plain(
            "alloc.count_per_op",
            "count",
            traced.iter().map(|w| w.allocs).sum::<u64>() as f64 / traced_ops.max(1) as f64,
        ),
        plain(
            "alloc.bytes_per_op",
            "B",
            traced.iter().map(|w| w.alloc_bytes).sum::<u64>() as f64 / traced_ops.max(1) as f64,
        ),
        plain(
            "sched.voluntary_switches_per_op",
            "count",
            inp.switches as f64 / sat_ops.max(1) as f64,
        ),
        plain("gen.late_p99_us", "us", late),
        plain(
            "host.steal_share",
            "share",
            (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
        ),
        plain(
            "host.calib_us",
            "us",
            p50(&sat.windows.iter().map(|w| w.calib_us).collect::<Vec<_>>()),
        ),
        plain("trace.overhead_share", "share", overhead),
        plain("trace.op_p50_us", "us", p50(&durations("op"))),
        plain(
            "tail.latency_p90_us",
            "us",
            if latencies.is_empty() {
                0.0
            } else {
                quantile(&latencies, 0.90)
            },
        ),
        plain(
            "tail.latency_p99_us",
            "us",
            if latencies.len() >= 1000 {
                quantile(&latencies, 0.99)
            } else {
                0.0
            },
        ),
        plain("setup.cold_s", "s", inp.setup_cold_s),
    ]
}
