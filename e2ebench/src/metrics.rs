//! Metric records, windowed statistics and the `/proc` readers.

use std::time::Instant;

use crate::speed::REF_US;

/// How many equal windows a measured phase is split into.
pub const WINDOWS: usize = 10;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported number, with the per-window values it was read from
/// (empty for metrics measured once per run).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    pub windows: Vec<f64>,
}

impl Metric {
    pub fn once(name: &'static str, unit: &'static str, better: Better, value: f64) -> Metric {
        Metric {
            name,
            unit,
            better,
            value,
            windows: Vec::new(),
        }
    }

    /// A metric read as the median of its per-window values.
    pub fn windowed(
        name: &'static str,
        unit: &'static str,
        better: Better,
        windows: Vec<f64>,
    ) -> Metric {
        Metric {
            name,
            unit,
            better,
            value: median(&windows),
            windows,
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so spreads read the same here and in a notebook.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let (n, m) = (4usize, v.len() + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m - j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Timestamped samples of one quantity over a measured phase.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// `(seconds since the phase started, value)`.
    points: Vec<(f64, f64)>,
}

impl Series {
    pub fn push(&mut self, at: f64, value: f64) {
        self.points.push((at, value));
    }

    /// How many samples were taken.
    pub fn count(&self) -> usize {
        self.points.len()
    }

    /// The points falling in each of the [`WINDOWS`] windows of a phase
    /// lasting `seconds`.
    fn split(&self, seconds: f64) -> Vec<Vec<(f64, f64)>> {
        let mut out = vec![Vec::new(); WINDOWS];
        let width = seconds / WINDOWS as f64;
        for &p in &self.points {
            out[((p.0 / width) as usize).min(WINDOWS - 1)].push(p);
        }
        out
    }

    /// The `q`-quantile of each window that holds samples.
    pub fn window_quantiles(&self, seconds: f64, q: f64) -> Vec<f64> {
        self.split(seconds)
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(&values(w), q))
            .collect()
    }

    /// Samples per second in each window that holds samples.
    pub fn window_rates(&self, seconds: f64) -> Vec<f64> {
        let width = seconds / WINDOWS as f64;
        self.split(seconds)
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| rate(w, width))
            .collect()
    }
}

fn values(window: &[(f64, f64)]) -> Vec<f64> {
    window.iter().map(|p| p.1).collect()
}

/// Samples per second in a window `width` seconds wide, timed from its
/// first sample to its last: a count per window would be quantised to
/// steps of one sample, which for slow operations is several percent.
fn rate(window: &[(f64, f64)], width: f64) -> f64 {
    match (window.first(), window.last()) {
        (Some(first), Some(last)) if last.0 > first.0 => {
            (window.len() - 1) as f64 / (last.0 - first.0)
        }
        _ => window.len() as f64 / width,
    }
}

/// Per window, the factor that brings a time measured in it to a machine
/// on which the probe takes [`REF_US`]: `REF_US` over the window's median
/// probe. A window without probes takes the whole phase's median.
fn speed_factors(probe: &Series, seconds: f64) -> Vec<f64> {
    let whole = median(&values(&probe.points));
    probe
        .split(seconds)
        .iter()
        .map(|w| {
            let us = if w.is_empty() {
                whole
            } else {
                median(&values(w))
            };
            if us > 0.0 {
                REF_US / us
            } else {
                1.0
            }
        })
        .collect()
}

/// A set-up time, as measured and adjusted to the reference machine
/// speed (see [`crate::timed_setup`]).
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    pub adjusted_s: f64,
    pub wall_s: f64,
}

/// A measured phase: its start and length.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub start: Instant,
    pub seconds: f64,
}

impl Phase {
    pub fn begin(seconds: f64) -> Phase {
        Phase {
            start: Instant::now(),
            seconds,
        }
    }

    /// Seconds since the phase began at `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_secs_f64()
    }

    pub fn over(&self, t: Instant) -> bool {
        self.at(t) >= self.seconds
    }
}

/// The metrics every workload reports (`BENCHMARK.json`'s `end_to_end`)
/// from the latencies of its unit operation (`ops`) and the probes taken
/// beside them (`probe`). Each window's median latency and throughput
/// are adjusted by that window's speed factor, and the metric is the
/// median of the adjusted windows.
pub fn headline(
    setup: SetupTime,
    ops: &Series,
    probe: &Series,
    seconds: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let width = seconds / WINDOWS as f64;
    let (mut latency, mut throughput) = (Vec::new(), Vec::new());
    for (w, factor) in ops.split(seconds).iter().zip(speed_factors(probe, seconds)) {
        if !w.is_empty() {
            latency.push(median(&values(w)) * factor);
            throughput.push(rate(w, width) / factor);
        }
    }
    vec![
        Metric::once("setup_s", "s", Better::Lower, setup.adjusted_s),
        Metric::windowed("latency_p50_ms", "ms", Better::Lower, latency),
        Metric::windowed("ops_per_s", "1/s", Better::Higher, throughput),
        Metric::once("peak_rss_mb", "MB", Better::Lower, peak_rss_mb),
    ]
}

/// The detail every workload adds to its own metrics: the gated times as
/// measured, without the speed adjustment, the probe's own time, the
/// unit operation's tail and the sample count. None is in
/// `BENCHMARK.json`: on a shared machine they move between runs by more
/// than a bound can allow.
pub fn detail(setup: SetupTime, ops: &Series, probe: &Series, seconds: f64) -> Vec<Metric> {
    let q = |q| ops.window_quantiles(seconds, q);
    vec![
        Metric::once("wall_setup_s", "s", Better::Lower, setup.wall_s),
        Metric::windowed("wall_latency_p50_ms", "ms", Better::Lower, q(0.5)),
        Metric::windowed(
            "wall_ops_per_s",
            "1/s",
            Better::Higher,
            ops.window_rates(seconds),
        ),
        Metric::windowed(
            "probe_us",
            "us",
            Better::Lower,
            probe.window_quantiles(seconds, 0.5),
        ),
        Metric::windowed("latency_p90_ms", "ms", Better::Lower, q(0.9)),
        Metric::windowed("latency_p99_ms", "ms", Better::Lower, q(0.99)),
        Metric::once("samples", "count", Better::Higher, ops.count() as f64),
    ]
}

fn proc_field(path: &str, key: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("{path}: no {key} field"))
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(proc_field("/proc/self/status", "VmHWM:")? as f64 / 1024.0)
}

/// Bytes this process has passed to `write` so far (`wchar`).
pub fn bytes_written() -> Result<u64, String> {
    proc_field("/proc/self/io", "wchar:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_slowed_with_the_probe_read_as_unslowed() {
        // Ten 1 s windows; in the first six the machine runs at half speed,
        // which doubles both the operation and the probe.
        let (mut ops, mut probe) = (Series::default(), Series::default());
        for i in 0..100 {
            let at = i as f64 * 0.1;
            let slow = if at < 6.0 { 2.0 } else { 1.0 };
            ops.push(at, 4.0 * slow);
            probe.push(at, REF_US * slow);
        }
        let setup = SetupTime {
            adjusted_s: 1.0,
            wall_s: 2.0,
        };
        let gated = headline(setup, &ops, &probe, 10.0, 1.0);
        assert_eq!(gated[0].value, 1.0);
        assert_eq!(gated[1].name, "latency_p50_ms");
        assert_eq!(gated[1].windows, vec![4.0; WINDOWS]);
        assert_eq!(gated[1].value, 4.0);
        let wall = detail(setup, &ops, &probe, 10.0);
        assert_eq!(wall[0].value, 2.0);
        assert_eq!(wall[1].name, "wall_latency_p50_ms");
        assert_eq!(wall[1].value, 8.0);
    }

    #[test]
    fn a_window_without_probes_takes_the_whole_phase_median() {
        let (mut ops, mut probe) = (Series::default(), Series::default());
        ops.push(0.5, 3.0);
        ops.push(1.5, 3.0);
        probe.push(0.5, REF_US / 2.0);
        assert_eq!(speed_factors(&probe, 2.0)[..2], [2.0, 2.0]);
        let setup = SetupTime {
            adjusted_s: 1.0,
            wall_s: 1.0,
        };
        assert_eq!(headline(setup, &ops, &probe, 2.0, 1.0)[1].value, 6.0);
    }
}
