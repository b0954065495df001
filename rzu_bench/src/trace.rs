//! In-memory spans, recorded by the harness around each public call it
//! makes and by its [`crate::link`] wrapper on every inter-tier link.
//!
//! Spans of one op share its id; a span names the span that caused it.
//! Everything stays in memory while the run measures and is written out
//! once at exit. With tracing off every recording call is one relaxed
//! load and a branch.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept per recorder; later ones are counted as dropped, not kept
/// (the buffers are reserved up front so recording never reallocates).
const SPAN_CAP: usize = 1 << 18;

/// One recorded interval. `parent` is 0 for a root span, else the
/// parent's `id`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Shared switch and clock: the generator flips `on` per window and
/// stamps the op in flight; link wrappers on other threads read both.
pub struct TraceCtl {
    on: AtomicBool,
    op: AtomicU64,
    /// Root span of the op in flight: the parent of what other threads
    /// record while it runs.
    op_span: AtomicU64,
    t0: Instant,
    next_id: AtomicU64,
    /// Spans recorded off the generator thread (link arrivals, the churn
    /// thread's publishes).
    remote: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl TraceCtl {
    pub fn new() -> Arc<TraceCtl> {
        Arc::new(TraceCtl {
            on: AtomicBool::new(false),
            op: AtomicU64::new(0),
            op_span: AtomicU64::new(0),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            remote: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    pub fn is_on(&self) -> bool {
        // Relaxed: the flag publishes no other data; a span more or
        // fewer at a window edge is harmless.
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Stamp the op in flight and its root span.
    pub fn set_op(&self, op: u64, span: u32) {
        self.op.store(op, Ordering::Relaxed);
        self.op_span.store(u64::from(span), Ordering::Relaxed);
    }

    pub fn current_op(&self) -> u64 {
        self.op.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Record a span from a thread other than the generator, as a child
    /// of the op in flight.
    pub fn record_remote(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.is_on() {
            return;
        }
        let mut spans = self.remote.lock().expect("trace buffer lock");
        if spans.len() >= SPAN_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let id = self.fresh_id();
        let parent = self.op_span.load(Ordering::Relaxed) as u32;
        spans.push(Span {
            id,
            parent,
            name,
            op: self.current_op(),
            start_ns,
            end_ns,
        });
    }

    pub fn take_remote(&self) -> Vec<Span> {
        std::mem::take(&mut *self.remote.lock().expect("trace buffer lock"))
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The generator thread's own recorder.
pub struct Tracer {
    pub ctl: Arc<TraceCtl>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(ctl: Arc<TraceCtl>) -> Tracer {
        Tracer {
            ctl,
            spans: Vec::new(),
        }
    }

    /// Reserve the span buffers; called once, only by a traced run.
    pub fn reserve(&mut self) {
        self.spans.reserve(SPAN_CAP);
        self.ctl
            .remote
            .lock()
            .expect("trace buffer lock")
            .reserve(SPAN_CAP);
    }

    /// Open a span: its id (so children can name it before it closes)
    /// and start stamp. `(0, 0)`, and no clock read, with tracing off.
    #[inline]
    pub fn begin(&self) -> (u32, u64) {
        if self.ctl.is_on() {
            (self.ctl.fresh_id(), self.ctl.now_ns())
        } else {
            (0, 0)
        }
    }

    /// Close a span opened with [`Tracer::begin`].
    #[inline]
    pub fn finish(&mut self, name: &'static str, (id, start_ns): (u32, u64), parent: u32) {
        if id == 0 {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.ctl.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (op, end_ns) = (self.ctl.current_op(), self.ctl.now_ns());
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
    }

    /// Every span of the run, generator's and remote threads', by start.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans;
        spans.extend(self.ctl.take_remote());
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Render the trace file: run header, metrics, then one span per line.
pub fn render_json(
    workload: &str,
    seed: u64,
    env_line: &str,
    metrics: &[(&str, f64, &str)],
    spans: &[Span],
    dropped: u64,
) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"env\":\"{}\",\"dropped_spans\":{dropped},\n\"metrics\":{{",
        env_line.replace('"', "'")
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  \"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("\n},\n\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  {{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            s.parent,
            s.op,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        );
    }
    out.push_str("\n]}\n");
    out
}
