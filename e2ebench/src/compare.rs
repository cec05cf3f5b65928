//! `e2e compare A B`: two sets of runs, metric by metric, against the
//! bounds in `BENCHMARK.json`.
//!
//! A and B are result files (`--out`), one JSON line per run. For each
//! workload and metric the comparison prints each side's median and
//! quartiles and, for metrics with a bound, a verdict:
//!
//! * `missing`: one side has no run reporting the metric, as when a
//!   workload crashed or stopped reporting it;
//! * `worse`: B's median is worse than A's by more than the bound;
//! * `unresolved`: either side's spread (quartile distance over median)
//!   exceeds the bound, and B does not beat A on every run;
//! * `ok`: otherwise.
//!
//! The comparison fails on `missing` and `worse`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::metrics::quartiles;

/// Values of one metric across a set of runs, by `(workload, metric)`.
type Runs = BTreeMap<(String, String), (String, Vec<f64>)>;

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        for (name, m) in rec.get("metrics").map_or(&[][..], Json::as_object) {
            let (Some(v), Some(unit)) = (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str),
            ) else {
                continue;
            };
            runs.entry((workload.to_owned(), name.clone()))
                .or_insert_with(|| (unit.to_owned(), Vec::new()))
                .1
                .push(v);
        }
    }
    Ok(runs)
}

/// `name → (bound, lower_is_better)`.
type Bounds = BTreeMap<String, (f64, bool)>;

/// The bounds of `BENCHMARK.json`'s `end_to_end` list.
fn load_bounds(path: &str) -> Result<Bounds, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").map_or(&[][..], Json::as_array) {
        let (Some(name), Some(bound), Some(better)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
            m.get("better").and_then(Json::as_str),
        ) else {
            return Err(format!("{path}: malformed end_to_end entry"));
        };
        out.insert(name.to_owned(), (bound, better == "lower"));
    }
    Ok(out)
}

fn spread((q1, q2, q3): (f64, f64, f64)) -> f64 {
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The verdict for one metric, given both sides' runs.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_better: bool) -> &'static str {
    if a.is_empty() || b.is_empty() {
        return "missing";
    }
    let (qa, qb) = (quartiles(a), quartiles(b));
    let worse_by = if qa.1 == 0.0 {
        0.0
    } else if lower_better {
        (qb.1 - qa.1) / qa.1.abs()
    } else {
        (qa.1 - qb.1) / qa.1.abs()
    };
    let b_always_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| if lower_better { y < x } else { y > x }));
    if (spread(qa) > bound || spread(qb) > bound) && !b_always_better {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Prints the comparison; returns whether any bounded metric got worse
/// or is missing from one side.
pub fn compare(a_path: &str, b_path: &str, bounds_path: &str) -> Result<bool, String> {
    let (a, b) = (load_runs(a_path)?, load_runs(b_path)?);
    let (out, failed) = table(&a, &b, &load_bounds(bounds_path)?);
    print!("{out}");
    Ok(failed)
}

/// The comparison table, and whether it fails.
fn table(a: &Runs, b: &Runs, bounds: &Bounds) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    let mut workload = "";
    let keys: BTreeSet<&(String, String)> = a.keys().chain(b.keys()).collect();
    for key @ (w, name) in keys {
        let (ra, rb) = (a.get(key), b.get(key));
        let unit = ra.or(rb).map_or("", |r| r.0.as_str());
        let (av, bv) = (ra.map_or(&[][..], |r| &r.1), rb.map_or(&[][..], |r| &r.1));
        if w != workload {
            workload = w;
            let _ = writeln!(out, "\n{w}  (A: {} runs, B: {} runs)", av.len(), bv.len());
            let _ = writeln!(
                out,
                "  {:<34} {:>30} {:>30}  verdict",
                "metric", "A median [q1, q3]", "B median [q1, q3]"
            );
        }
        let v = match bounds.get(name) {
            Some(&(bound, lower)) => {
                let v = verdict(av, bv, bound, lower);
                failed |= v == "worse" || v == "missing";
                format!("{v} (bound {bound})")
            }
            None => "-".to_owned(),
        };
        let show = |runs: &[f64]| match runs {
            [] => "no runs".to_owned(),
            _ => {
                let q = quartiles(runs);
                format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2)
            }
        };
        let _ = writeln!(
            out,
            "  {:<34} {:>30} {:>30}  {v}",
            format!("{name} ({unit})"),
            show(av),
            show(bv)
        );
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&a, &[10.2, 10.3, 10.1, 10.2, 10.25], 0.1, true),
            "ok"
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], 0.1, true),
            "worse"
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], 0.1, false),
            "ok"
        );
        let noisy = [5.0, 15.0, 8.0, 20.0, 12.0];
        assert_eq!(verdict(&a, &noisy, 0.1, true), "unresolved");
        // Every B run beats every A run: resolved despite the spread.
        assert_eq!(
            verdict(&[20.0, 30.0, 40.0], &[1.0, 2.0, 3.0], 0.1, true),
            "ok"
        );
        // A side without runs, as when a workload crashed.
        assert_eq!(verdict(&a, &[], 0.1, true), "missing");
        assert_eq!(verdict(&[], &a, 0.1, false), "missing");
    }

    #[test]
    fn a_workload_missing_from_one_side_fails_the_comparison() {
        let runs = |workloads: &[&str]| -> Runs {
            workloads
                .iter()
                .flat_map(|w| {
                    ["setup_s", "samples"].map(|m| {
                        let key = ((*w).to_owned(), m.to_owned());
                        (key, ("s".to_owned(), vec![1.0, 1.01, 0.99]))
                    })
                })
                .collect()
        };
        let bounds: Bounds = [("setup_s".to_owned(), (0.25, true))].into();
        let (a, b) = (runs(&["churn", "serve_read"]), runs(&["serve_read"]));
        assert!(!table(&a, &a, &bounds).1);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let (text, failed) = table(x, y, &bounds);
            assert!(failed, "{text}");
            assert!(text.contains("missing"), "{text}");
        }
        // A metric without a bound is shown but does not fail.
        let mut c = a.clone();
        c.remove(&("churn".to_owned(), "samples".to_owned()));
        assert!(!table(&a, &c, &bounds).1);
    }
}
