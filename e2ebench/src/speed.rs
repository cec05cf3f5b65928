//! How fast the shared machine runs, measured between operations.
//!
//! Other tenants of a shared host slow the same code by up to twice, for
//! seconds to minutes at a time, and nothing in the guest's accounting
//! shows it: steal time stays near zero and the process keeps its CPU. A
//! run of tens of seconds can fall entirely inside a slow stretch, so no
//! reading of a run's own timings removes it. Not all code slows alike: a
//! latency-bound ALU loop keeps its speed to within 10%, and random writes
//! over a few MB slow far less than the workloads, while code that
//! allocates, clones and frees small objects slows with them.
//!
//! [`Probe`] is a fixed piece of that kind of work: it clones about a
//! thousand small boxed trees with shared strings, as the system clones
//! formulas and values, and frees them. It is this benchmark's own code,
//! so no change to the system changes it. The workloads time it at most
//! every 20 ms, between operations, and the gated metrics
//! scale each window's operation time by [`REF_US`] over the probe's
//! median time in that window (see [`crate::metrics::headline`]).

use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{median, Series};

/// A round figure near the probe's time, in µs, beside the integrate
/// workloads on the machine of `README.md`'s measured spread. Adjusted
/// times are stated for a machine on which the probe takes this long. It
/// sets their scale only: the probe's time depends on the workload beside
/// it, so an adjusted time compares only with the same metric of the same
/// workload.
pub const REF_US: f64 = 250.0;

/// Seconds between probes while a workload runs.
const PROBE_EVERY_S: f64 = 0.02;

/// Copies of the tree set one probe makes.
const COPIES: usize = 64;

/// Size of the buffer a probe writes through before it starts, in
/// 8-byte words: 4 MB, twice a core's L2 cache.
const FLUSH_WORDS: usize = 1 << 19;

const WORDS_PER_LINE: usize = 8;

/// A formula-like tree. Its fields are there to be cloned, not read.
#[allow(dead_code)]
#[derive(Clone)]
enum Node {
    Leaf(Arc<str>, f64),
    Cmp(Arc<str>, Box<Node>),
    And(Box<Node>, Box<Node>),
}

pub struct Probe {
    trees: Vec<Node>,
    flush: Vec<u64>,
    last: Option<Instant>,
    /// `(seconds since the phase began, probe µs)`.
    pub samples: Series,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    pub fn new() -> Probe {
        let names: Vec<Arc<str>> = ["key", "price", "score", "grade"]
            .into_iter()
            .map(Arc::from)
            .collect();
        let trees = (0..17)
            .map(|i| {
                let name = |k: usize| names[(i + k) % names.len()].clone();
                Node::And(
                    Box::new(Node::Cmp(name(0), Box::new(Node::Leaf(name(1), i as f64)))),
                    Box::new(Node::Leaf(name(2), 1.0)),
                )
            })
            .collect();
        Probe {
            trees,
            flush: vec![0; FLUSH_WORDS],
            last: None,
            samples: Series::default(),
        }
    }

    /// Runs the probe once; returns its duration in µs. It first writes
    /// one word per cache line of a buffer larger than a core's private
    /// caches, untimed, so the timed work starts from the same cache
    /// state whatever the workload touched before it.
    pub fn measure(&mut self) -> f64 {
        for i in (0..self.flush.len()).step_by(WORDS_PER_LINE) {
            self.flush[i] = self.flush[i].wrapping_add(1);
        }
        std::hint::black_box(&self.flush);
        let start = Instant::now();
        let copies: Vec<Vec<Node>> = (0..COPIES).map(|_| self.trees.clone()).collect();
        std::hint::black_box(&copies);
        drop(copies);
        start.elapsed().as_secs_f64() * 1e6
    }

    /// The median of `n` probes.
    pub fn median_of(&mut self, n: usize) -> f64 {
        median(&(0..n).map(|_| self.measure()).collect::<Vec<_>>())
    }

    /// Probes if `PROBE_EVERY_S` has passed since the last probe, and
    /// records the sample at `at` seconds into the phase.
    pub fn tick(&mut self, at: f64) {
        let now = Instant::now();
        if self
            .last
            .is_some_and(|t| (now - t).as_secs_f64() < PROBE_EVERY_S)
        {
            return;
        }
        let us = self.measure();
        self.samples.push(at, us);
        self.last = Some(Instant::now());
    }

    /// Forgets the samples taken so far (those of a warm-up).
    pub fn reset(&mut self) {
        self.samples = Series::default();
        self.last = None;
    }
}
