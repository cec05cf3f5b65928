//! The `e2e` runner.
//!
//! ```text
//! e2e [run] [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--trace-out FILE]
//! e2e compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! `run` prints every metric by name with its unit, then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). `--workload all` runs each workload in its own child process,
//! so peak memory is measured per workload. `--out` appends one result
//! line per run for `compare`; `--trace-out` appends the spans.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::{Command, ExitCode};

use interop_e2e::json::{write_num, write_str};
use interop_e2e::metrics::Metric;
use interop_e2e::{compare, run, trace, Report, RunOpts, Scale, WORKLOADS};

const USAGE: &str = "usage: e2e [run] [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--trace-out FILE]\n       e2e compare A.json B.json [--bounds FILE]";

struct Args {
    workload: String,
    opts: RunOpts,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        opts: RunOpts {
            seed: 42,
            seconds: 20.0,
            trace: false,
            scale: Scale::Full,
        },
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.opts.seconds.is_nan() || a.opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => a.out = Some(value()?),
            "--trace-out" => a.trace_out = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    Ok(a)
}

fn metrics_json(out: &mut String, metrics: &[Metric], full: bool) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(out, m.name);
        out.push_str(": {\"value\": ");
        write_num(out, m.value);
        out.push_str(", \"unit\": ");
        write_str(out, m.unit);
        if full {
            out.push_str(", \"better\": ");
            write_str(out, m.better.as_str());
            out.push_str(", \"windows\": [");
            for (j, w) in m.windows.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_num(out, *w);
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push('}');
}

/// The run's record: `full` adds the workload, checks, metric directions
/// and window values that the result file keeps for `compare`.
fn record(r: &Report, a: &Args, metrics: &[Metric], full: bool) -> String {
    let mut s = String::from("{");
    if full {
        s.push_str("\"workload\": ");
        write_str(&mut s, r.workload);
        let _ = write!(
            s,
            ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"checks\": {{",
            a.opts.seed, a.opts.seconds, a.opts.trace as u8
        );
        for (i, (name, ok)) in r.checks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write_str(&mut s, name);
            let _ = write!(s, ": {ok}");
        }
        s.push_str("}, ");
    }
    let _ = write!(
        s,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
        r.correct(),
        r.attempted,
        r.failed
    );
    metrics_json(&mut s, metrics, full);
    s.push('}');
    s
}

fn append(path: &str, text: &str) -> Result<(), String> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

fn print_report(r: &Report, a: &Args) -> Result<(), String> {
    println!(
        "workload {} (seed {}, {} s measured, trace {})",
        r.workload, a.opts.seed, a.opts.seconds, a.opts.trace as u8
    );
    for (name, ok) in &r.checks {
        println!("  check {:<52} {}", name, if *ok { "ok" } else { "FAILED" });
    }
    println!("  attempted {}  failed {}", r.attempted, r.failed);
    let shown: Vec<Metric> = if a.opts.trace {
        r.per_layer()
    } else {
        r.end_to_end.iter().chain(&r.detail).cloned().collect()
    };
    for m in &shown {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if a.opts.trace {
        println!(
            "  {:<36} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "span", "count", "busy_ms", "self_ms", "p50_us", "p99_us"
        );
        for (name, s) in trace::summarize(&r.spans) {
            println!(
                "  {:<36} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                name,
                s.count,
                s.busy_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.p50_ns / 1e3,
                s.p99_ns / 1e3
            );
        }
    }
    if let Some(path) = &a.out {
        append(path, &(record(r, a, &shown, true) + "\n"))?;
    }
    if let Some(path) = &a.trace_out {
        let mut lines = String::new();
        for s in &r.spans {
            lines.push_str("{\"workload\": ");
            write_str(&mut lines, r.workload);
            let _ = write!(lines, ", \"req\": {}, \"name\": ", s.req);
            write_str(&mut lines, s.name);
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                lines,
                ", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.start_ns, s.end_ns
            );
        }
        append(path, &lines)?;
    }
    let headline = if a.opts.trace {
        r.per_layer()
    } else {
        r.end_to_end.clone()
    };
    println!("{}", record(r, a, &headline, false));
    Ok(())
}

fn run_one(a: &Args) -> ExitCode {
    match run(&a.workload, a.opts) {
        Ok(report) => {
            if let Err(e) = print_report(&report, a) {
                eprintln!("e2e: {e}");
                return ExitCode::from(2);
            }
            if report.correct() && report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2e: {}: {e}", a.workload);
            ExitCode::from(2)
        }
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = vec!["run".into()];
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--workload" {
                it.next();
            } else {
                child_args.push(arg.clone());
            }
        }
        child_args.extend(["--workload".into(), workload.into()]);
        let code = match Command::new(&exe).args(&child_args).status() {
            Ok(s) => s.code().map_or(2, |c| c.clamp(0, 255) as u8),
            Err(e) => {
                eprintln!("e2e: cannot start {workload}: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let (mut files, mut bounds) = (Vec::new(), "BENCHMARK.json".to_owned());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => match it.next() {
                Some(b) => bounds = b.clone(),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            f => files.push(f.to_owned()),
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match compare::compare(a, b, &bounds) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_cmd(args: &[String]) -> ExitCode {
    match parse_run(args) {
        Ok(a) if a.workload == "all" => run_all(args),
        Ok(a) => run_one(&a),
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        _ => run_cmd(&args),
    }
}
