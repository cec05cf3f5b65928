//! A span recorder around calls into the system's public functions.
//!
//! Spans live in memory and are summarised (or written as JSON lines)
//! when the run ends. With tracing off, [`Tracer::span`] only calls its
//! closure, so the untraced runs that produce the end-to-end numbers pay
//! one branch per span site.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::quantile;

/// One timed call. `parent` indexes the enclosing span in the same
/// recording; `req` numbers the workload operation that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Threads of one run share an epoch so
/// their recordings can be merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    req: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Starts a new workload operation: later spans carry its number.
    pub fn next_request(&mut self) {
        self.req += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the current one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req: self.req,
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Moves another thread's spans into this recording.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Nanoseconds one recorded span costs, measured on a throwaway
/// recorder: the basis of the `trace.overhead_frac` estimate.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut t = Tracer::new(true, Instant::now());
    let start = Instant::now();
    for _ in 0..N {
        t.span("calibrate", |_| ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Aggregates of all spans sharing a name.
#[derive(Clone, Debug, Default)]
pub struct SpanSummary {
    pub count: u64,
    pub busy_ns: u64,
    /// Busy time not covered by direct child spans.
    pub self_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.busy_ns += s.duration_ns();
        e.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
        durations
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64);
    }
    for (name, d) in durations {
        let e = out.get_mut(name).expect("summarised above");
        e.p50_ns = quantile(&d, 0.5);
        e.p99_ns = quantile(&d, 0.99);
    }
    out
}
