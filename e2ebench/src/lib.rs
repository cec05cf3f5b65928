//! End-to-end benchmark of the integration pipeline and the store that
//! serves its view.
//!
//! Four workloads ([`WORKLOADS`]) each drive the system through its
//! public API in a closed loop and report the metrics named in
//! `BENCHMARK.json`; a traced run additionally splits the time across
//! layers ([`PER_LAYER`]). See `README.md` in this directory for the
//! workloads, metrics and how to run them.

pub mod churn;
pub mod compare;
pub mod inputs;
pub mod integrate;
pub mod json;
pub mod metrics;
pub mod serve;
pub mod speed;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use metrics::Better::{self, Higher, Lower};
use metrics::{Metric, SetupTime};
use trace::{Span, Tracer};

/// The workloads, in the order `--workload all` runs them. Why each
/// exists is in `BENCHMARK.json` and `README.md`.
pub const WORKLOADS: [&str; 4] = ["integrate_wide", "integrate_deep", "serve_read", "churn"];

/// Every per-layer metric of a traced run: name, unit, better. Span
/// metrics (`_us`, `_ms`) are the median duration of the span of that
/// name; the rest are counts and ratios the workloads set. A layer a
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str, Better); 41] = [
    ("lang.parse_us", "us", Lower),
    ("analyze.preflight_us", "us", Lower),
    ("conform.conform_ms", "ms", Lower),
    ("merge.merge_ms", "ms", Lower),
    ("core.subjectivity_us", "us", Lower),
    ("core.classify_us", "us", Lower),
    ("core.implied_us", "us", Lower),
    ("core.derive_ms", "ms", Lower),
    ("core.conflict_ms", "ms", Lower),
    ("core.repair_us", "us", Lower),
    ("merge.materialize_ms", "ms", Lower),
    ("storage.load_ms", "ms", Lower),
    ("storage.optimize.plan_us", "us", Lower),
    ("storage.optimize.key_us", "us", Lower),
    ("storage.optimize.pair_us", "us", Lower),
    ("storage.optimize.range_us", "us", Lower),
    ("storage.optimize.pruned_us", "us", Lower),
    ("storage.optimize.broad_us", "us", Lower),
    ("storage.store.update_us", "us", Lower),
    ("storage.mvcc.begin_us", "us", Lower),
    ("storage.mvcc.first_write_us", "us", Lower),
    ("storage.mvcc.publish_us", "us", Lower),
    ("storage.wal.ack_wait_us", "us", Lower),
    ("storage.mvcc.drain_us", "us", Lower),
    ("core.incremental.apply_us", "us", Lower),
    ("storage.store.open_ms", "ms", Lower),
    ("core.derived_count", "count", Higher),
    ("core.conflict_count", "count", Lower),
    ("merge.global_objects", "count", Lower),
    ("storage.optimize.rows_per_read", "count", Lower),
    ("storage.optimize.pruned_frac", "ratio", Higher),
    ("storage.optimize.scan_frac", "ratio", Lower),
    ("storage.store.rejected_writes", "count", Higher),
    ("storage.store.cached_structures", "count", Lower),
    ("storage.store.composites_admitted", "count", Higher),
    ("core.incremental.touched_per_sync", "count", Lower),
    ("storage.wal.segments", "count", Lower),
    ("storage.snapshot.files", "count", Lower),
    ("storage.dir_mb", "MB", Lower),
    ("integrate.unattributed_frac", "ratio", Lower),
    ("trace.overhead_frac", "ratio", Lower),
];

/// Input sizes: the benchmark's, or a toy scale for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Operations started in the measured phase.
    pub attempted: u64,
    /// Operations that failed unexpectedly (expected rejections are not
    /// failures).
    pub failed: u64,
    /// `BENCHMARK.json`'s end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Workload-specific metrics (result file and `e2e compare` only).
    pub detail: Vec<Metric>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            ..Default::default()
        }
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Every per-layer metric, in [`PER_LAYER`] order: the span median
    /// of that name, unless the workload set the value directly.
    pub fn per_layer(&self) -> Vec<Metric> {
        let summary = trace::summarize(&self.spans);
        PER_LAYER
            .iter()
            .map(|&(name, unit, better)| {
                let span = summary.get(name).map_or(0.0, |s| {
                    s.p50_ns
                        / match unit {
                            "ms" => 1e6,
                            "us" => 1e3,
                            _ => 1.0,
                        }
                });
                let value = self.layers.get(name).copied().unwrap_or(span);
                Metric::once(name, unit, better, value)
            })
            .collect()
    }

    /// Sets `trace.overhead_frac`: recorded spans times the measured cost
    /// of one span, over the busy time of `threads` client threads.
    pub fn note_trace_overhead(&mut self, seconds: f64, threads: f64) {
        let spans = self.spans.len() as f64;
        let frac = spans * trace::span_cost_ns() / (seconds * threads * 1e9);
        self.layers.insert("trace.overhead_frac", frac);
    }
}

/// Runs one workload in this process.
pub fn run(workload: &str, opts: RunOpts) -> Result<Report, String> {
    let epoch = Instant::now();
    let tracer = Tracer::new(opts.trace, epoch);
    match workload {
        "integrate_wide" => integrate::run(integrate::Shape::Wide, opts, tracer),
        "integrate_deep" => integrate::run(integrate::Shape::Deep, opts, tracer),
        "serve_read" => serve::run(opts, tracer),
        "churn" => churn::run(opts, tracer),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Runs `setup` at least [`SETUPS`] times, and at full scale until
/// the set-ups have taken [`SETUP_BUDGET_S`], and returns the last
/// result with the median set-up time: work moved into set-up shows in
/// `setup_s`. Each set-up is followed by [`SETUP_PROBES`] probes, and its
/// time adjusted by their median, as the windows of the measured phase
/// are (see [`speed`]).
pub fn timed_setup<T>(
    scale: Scale,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, SetupTime), String> {
    let budget = match scale {
        Scale::Full => SETUP_BUDGET_S,
        Scale::Toy => 0.0,
    };
    let mut probe = speed::Probe::new();
    let (mut wall, mut adjusted) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut i = 0;
    while i < SETUPS || wall.iter().sum::<f64>() < budget {
        drop(last.take());
        let start = Instant::now();
        let value = setup(i)?;
        let s = start.elapsed().as_secs_f64();
        wall.push(s);
        adjusted.push(s * speed::REF_US / probe.median_of(SETUP_PROBES));
        last = Some(value);
        i += 1;
    }
    let value = last.ok_or("no set-up ran")?;
    let time = SetupTime {
        adjusted_s: metrics::median(&adjusted),
        wall_s: metrics::median(&wall),
    };
    Ok((value, time))
}

/// Fewest set-ups per run.
pub const SETUPS: usize = 5;

/// At full scale, set-ups repeat until they have taken this long.
pub const SETUP_BUDGET_S: f64 = 2.0;

/// Probes after each set-up.
pub const SETUP_PROBES: usize = 3;

/// Warm-up before a serving workload's measured phase, as a share of
/// the measured phase.
pub const WARMUP_SHARE: f64 = 0.15;
