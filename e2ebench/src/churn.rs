//! `churn`: a writer commits seeded transactions to a durable MVCC store
//! while a maintainer folds them into the integrated view through the
//! incremental pipeline.
//!
//! The local source lives in `DurabilityMode::WalWithSnapshots` with the
//! default snapshot cadence and the default group-commit policy (one
//! `sync_data` per commit), so every `commit()` returns durably
//! acknowledged. After the measured phase the store is shut down and
//! reopened from disk.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use interop_bench::SyntheticConfig;
use interop_conform::conform;
use interop_constraint::Catalog;
use interop_core::IncrementalPipeline;
use interop_merge::{merge, MergeOptions};
use interop_model::{Database, ObjectId, Schema, Value};
use interop_storage::{DurabilityMode, MvccStore, MvccTxn, Store, StoreError};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use crate::inputs::{digest, pick, remove_scratch, scratch_dir, synthetic_source};
use crate::metrics::{self, median, Better, Metric, Phase, Series};
use crate::speed::Probe;
use crate::trace::Tracer;
use crate::{timed_setup, Report, RunOpts, Scale, WARMUP_SHARE};

/// Reopenings timed after the run (`recover_s` is their median).
const REOPENS: usize = 9;

/// The writer's own inserts kept alive at most; removes of them balance
/// its inserts so the store stays within ±1% of its initial size.
const OWN_INSERTS_MAX: usize = 50;

/// 5k objects per side. Commit cost is linear in the store's size at any
/// size. Interleaved on a shared machine, 20k-object runs spread 15 to 35%
/// between runs, and 5k-object runs 5 to 20%.
fn config(opts: RunOpts) -> SyntheticConfig {
    let n = match opts.scale {
        Scale::Full => 5_000,
        Scale::Toy => 200,
    };
    SyntheticConfig {
        local_n: n,
        remote_n: n,
        match_ratio: 0.5,
        constraints_per_side: 4,
        seed: opts.seed,
    }
}

/// Removes the durable directory when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        remove_scratch(&self.0);
    }
}

/// Field order matters: the store and pipeline drop before the
/// directory they live in is removed.
struct Prepared {
    mvcc: MvccStore,
    pipe: IncrementalPipeline,
    schema: Schema,
    catalog: Catalog,
    remote: Database,
    remote_catalog: Catalog,
    spec: interop_spec::Spec,
    /// The local ids present at start (never removed).
    base_ids: Vec<ObjectId>,
    /// The `(grade, score)` of every object present at start. The
    /// generator made each pair satisfy the local catalog, so new objects
    /// reuse them.
    templates: Vec<(Value, Value)>,
    dir: ScratchDir,
}

fn setup(opts: RunOpts, i: usize) -> Result<Prepared, String> {
    let src = synthetic_source(config(opts))?;
    let fx = src.fixture;
    let dir = ScratchDir(scratch_dir(&format!("churn-{i}"))?);
    let schema = (*fx.local_db.schema).clone();
    let base_ids: Vec<ObjectId> = fx.local_db.objects().map(|o| o.id).collect();
    let templates = fx
        .local_db
        .objects()
        .map(|o| {
            (
                o.get(&"grade".into()).clone(),
                o.get(&"score".into()).clone(),
            )
        })
        .collect();
    // A fresh directory takes the populated database as bootstrap state,
    // which only a snapshot makes durable.
    let mut store = Store::open(
        fx.local_db,
        fx.local_catalog.clone(),
        &dir.0,
        DurabilityMode::WalWithSnapshots,
    )
    .map_err(|e| e.to_string())?;
    store.snapshot_now().map_err(|e| e.to_string())?;
    let mvcc = MvccStore::new(store);
    // Bring the store to the steady state of a long-running one: commit
    // tracking keeps a version per object ever written, and its cost per
    // commit grows with that count until every object has been written.
    let mut t = mvcc.begin();
    for &id in &base_ids {
        let price = t.get(id).map(|o| o.get(&"price".into()).clone());
        t.update(id, "price", price.unwrap_or(Value::Null))
            .map_err(|e| e.to_string())?;
    }
    t.commit().map_err(|e| e.to_string())?;
    mvcc.track_touched(true);
    let pipe = IncrementalPipeline::new(
        mvcc.read_view().db(),
        &fx.local_catalog,
        &fx.remote_db,
        &fx.remote_catalog,
        &fx.spec,
        MergeOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok(Prepared {
        mvcc,
        pipe,
        schema,
        catalog: fx.local_catalog,
        remote: fx.remote_db,
        remote_catalog: fx.remote_catalog,
        spec: fx.spec,
        base_ids,
        templates,
        dir,
    })
}

/// The writer's seeded transaction mix: 50% single updates, 20%
/// inserts, 20% removes of its own inserts, 10% multi-op transactions
/// (two updates and an insert).
struct Writer {
    rng: StdRng,
    base: Vec<ObjectId>,
    templates: Vec<(Value, Value)>,
    own: Vec<ObjectId>,
    serial: u64,
}

impl Writer {
    fn update(&mut self, t: &mut MvccTxn) -> Result<(), StoreError> {
        let id = *pick(&mut self.rng, &self.base);
        t.update(id, "price", Value::real(self.rng.gen_range(1.0..500.0)))
    }

    /// Inserts a new object with a fresh key, a random price and the
    /// grade and score of a random object present at start.
    fn insert(&mut self, t: &mut MvccTxn) -> Result<ObjectId, StoreError> {
        self.serial += 1;
        let (grade, score) = pick(&mut self.rng, &self.templates).clone();
        t.create(
            "LProd",
            vec![
                ("key", Value::str(format!("w{}", self.serial))),
                ("price", Value::real(self.rng.gen_range(1.0..500.0))),
                ("score", score),
                ("grade", grade),
            ],
        )
    }

    /// Fills `t` with the next transaction's operations (the first one
    /// under its own span: it pays the overlay clone); returns the ids
    /// it inserted.
    fn fill(&mut self, t: &mut MvccTxn, tr: &mut Tracer) -> Result<Vec<ObjectId>, StoreError> {
        let roll = self.rng.gen_range(0..10);
        let mut inserted = Vec::new();
        let insert_first = roll < 2 && self.own.len() < OWN_INSERTS_MAX;
        let remove_first = (2..4).contains(&roll) && !self.own.is_empty();
        tr.span("storage.mvcc.first_write_us", |_| {
            if insert_first {
                inserted.push(self.insert(t)?);
            } else if remove_first {
                let id = self.own.swap_remove(self.rng.gen_range(0..self.own.len()));
                t.remove(id)?;
            } else {
                self.update(t)?;
            }
            Ok::<_, StoreError>(())
        })?;
        if roll == 9 {
            self.update(t)?;
            if self.own.len() + inserted.len() < OWN_INSERTS_MAX {
                inserted.push(self.insert(t)?);
            }
        }
        Ok(inserted)
    }
}

/// Commits `t`; the traced run splits `commit()` into the two calls it
/// makes, `commit_pipelined` and an immediate `wait`.
fn commit(t: MvccTxn, tr: &mut Tracer) -> Result<u64, String> {
    if !tr.is_on() {
        return t.commit().map_err(|e| e.to_string());
    }
    let ticket = tr
        .span("storage.mvcc.publish_us", |_| t.commit_pipelined())
        .map_err(|e| e.to_string())?;
    tr.span("storage.wal.ack_wait_us", |_| ticket.wait())
        .map_err(|e| e.to_string())
}

/// Folds everything committed so far into the view; the traced run
/// splits `sync_shared_local` into `drain_touched` + `apply_local` and
/// returns how many ids it drained.
fn sync(
    pipe: &mut IncrementalPipeline,
    mvcc: &MvccStore,
    tr: &mut Tracer,
) -> Result<usize, String> {
    if !tr.is_on() {
        pipe.sync_shared_local(mvcc).map_err(|e| e.to_string())?;
        return Ok(0);
    }
    let (snapshot, touched) = tr.span("storage.mvcc.drain_us", |_| mvcc.drain_touched());
    tr.span("core.incremental.apply_us", |_| {
        pipe.apply_local(snapshot.db(), &touched).map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    Ok(touched.len())
}

/// What the writer thread observed.
#[derive(Default)]
struct WriterLog {
    /// `(commit acknowledged, begin → ack in ms)`.
    commits: Vec<(Instant, f64)>,
    attempted: u64,
    failed: u64,
}

/// What the maintainer thread observed.
#[derive(Default)]
struct MaintainerLog {
    /// `(drain started, sync finished)`.
    syncs: Vec<(Instant, Instant)>,
    touched: Vec<usize>,
    failed: u64,
}

/// Commits transactions until `until`, probing the machine's speed
/// between them (timestamps in seconds since `phase`).
fn writer_loop(
    mvcc: &MvccStore,
    w: &mut Writer,
    (phase, until): (Instant, Instant),
    probe: &mut Probe,
    tr: &mut Tracer,
) -> WriterLog {
    let mut log = WriterLog::default();
    while Instant::now() < until {
        probe.tick((Instant::now() - phase).as_secs_f64());
        tr.next_request();
        log.attempted += 1;
        let start = Instant::now();
        let result = tr.span("churn.txn", |tr| {
            let mut t = tr.span("storage.mvcc.begin_us", |_| mvcc.begin());
            let inserted = w.fill(&mut t, tr).map_err(|e| e.to_string())?;
            commit(t, tr)?;
            Ok::<_, String>(inserted)
        });
        let end = Instant::now();
        match result {
            Ok(inserted) => {
                w.own.extend(inserted);
                log.commits.push((end, (end - start).as_secs_f64() * 1e3));
            }
            Err(_) => log.failed += 1,
        }
    }
    log
}

fn maintainer_loop(
    pipe: &mut IncrementalPipeline,
    mvcc: &MvccStore,
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> MaintainerLog {
    let mut log = MaintainerLog::default();
    let mut seen = mvcc.last_commit_ts();
    while !stop.load(Ordering::Acquire) {
        let ts = mvcc.last_commit_ts();
        if ts == seen {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        seen = ts;
        tr.next_request();
        let start = Instant::now();
        match tr.span("churn.sync", |tr| sync(pipe, mvcc, tr)) {
            Ok(n) => {
                log.syncs.push((start, Instant::now()));
                log.touched.push(n);
            }
            Err(_) => log.failed += 1,
        }
    }
    log
}

/// Runs writer and maintainer over `span`, `(phase start, end)`; returns
/// both logs.
fn run_threads(
    p: &mut Prepared,
    w: &mut Writer,
    span: (Instant, Instant),
    probe: &mut Probe,
    tr: &mut Tracer,
) -> Result<(WriterLog, MaintainerLog), String> {
    let stop = AtomicBool::new(false);
    let mut mtr = Tracer::new(tr.is_on(), tr.epoch());
    let (mvcc, pipe) = (&p.mvcc, &mut p.pipe);
    let (wlog, mlog) = std::thread::scope(|s| {
        let maintainer = s.spawn(|| maintainer_loop(pipe, mvcc, &stop, &mut mtr));
        let wlog = writer_loop(mvcc, w, span, probe, tr);
        stop.store(true, Ordering::Release);
        let mlog = maintainer.join();
        (wlog, mlog)
    });
    tr.absorb(mtr);
    let mlog = mlog.map_err(|_| "maintainer thread panicked".to_string())?;
    Ok((wlog, mlog))
}

fn count_files(dir: &Path, prefix: &str) -> usize {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
            .count()
    })
}

fn dir_mb(dir: &Path) -> f64 {
    std::fs::read_dir(dir).map_or(0.0, |rd| {
        rd.filter_map(Result::ok)
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len() as f64)
            .sum::<f64>()
            / 1e6
    })
}

pub fn run(opts: RunOpts, mut tr: Tracer) -> Result<Report, String> {
    let mut report = Report::new("churn");
    let (mut p, setup) = timed_setup(opts.scale, |i| setup(opts, i))?;
    let mut w = Writer {
        rng: StdRng::seed_from_u64(opts.seed),
        base: p.base_ids.clone(),
        templates: p.templates.clone(),
        own: Vec::new(),
        serial: 0,
    };

    let mut probe = Probe::new();
    let warmup = Duration::from_secs_f64(opts.seconds * WARMUP_SHARE);
    let now = Instant::now();
    run_threads(&mut p, &mut w, (now, now + warmup), &mut probe, &mut tr)?;
    tr.take_spans();
    probe.reset();

    let wchar_start = metrics::bytes_written()?;
    let phase = Phase::begin(opts.seconds);
    let until = phase.start + Duration::from_secs_f64(opts.seconds);
    let (wlog, mlog) = run_threads(&mut p, &mut w, (phase.start, until), &mut probe, &mut tr)?;
    let wchar = metrics::bytes_written()? - wchar_start;
    report.attempted = wlog.attempted;
    report.failed = wlog.failed + mlog.failed;

    let mut commits = Series::default();
    for &(at, ms) in &wlog.commits {
        commits.push(phase.at(at), ms);
    }
    // View lag: from a commit's acknowledgement to the end of the first
    // sync whose drain started after it.
    let mut lag = Series::default();
    for &(ack, _) in &wlog.commits {
        let i = mlog.syncs.partition_point(|s| s.0 <= ack);
        if let Some(&(_, end)) = mlog.syncs.get(i) {
            lag.push(phase.at(ack), (end - ack).as_secs_f64() * 1e3);
        }
    }

    // The view after a final sync equals a from-scratch integration of
    // the final source state.
    let mut quiet = Tracer::new(false, tr.epoch());
    sync(&mut p.pipe, &p.mvcc, &mut quiet)?;
    let final_view = p.mvcc.read_view();
    let scratch = conform(
        final_view.db(),
        &p.catalog,
        &p.remote,
        &p.remote_catalog,
        &p.spec,
    )
    .map_err(|e| e.to_string())
    .and_then(|c| merge(&c, &MergeOptions::default()).map_err(|e| e.to_string()))?;
    report.check(
        "incremental view equals a scratch conform + merge",
        digest(p.pipe.view()) == digest(&scratch),
    );
    let final_objects = digest(&final_view.db().objects().collect::<Vec<_>>());
    drop(final_view);

    // Shut down (joining the snapshot worker), then recover from disk.
    let Prepared {
        mvcc,
        pipe,
        schema,
        catalog,
        dir,
        ..
    } = p;
    drop(pipe);
    let store = mvcc
        .into_store()
        .map_err(|_| "store still shared at shutdown".to_string())?;
    let space = store.db().space();
    drop(store);
    let segments = count_files(&dir.0, "wal-");
    let snapshots = count_files(&dir.0, "snapshot-");
    let disk_mb = dir_mb(&dir.0);
    let mut reopen_s = Vec::with_capacity(REOPENS);
    let mut recovered_ok = true;
    for _ in 0..REOPENS {
        let start = Instant::now();
        let recovered = tr.span("storage.store.open_ms", |_| {
            Store::open(
                Database::new(schema.clone(), space),
                catalog.clone(),
                &dir.0,
                DurabilityMode::WalWithSnapshots,
            )
        });
        reopen_s.push(start.elapsed().as_secs_f64());
        let recovered = recovered.map_err(|e| e.to_string())?;
        recovered_ok &= digest(&recovered.db().objects().collect::<Vec<_>>()) == final_objects;
    }
    report.check("every acknowledged commit is recovered", recovered_ok);
    drop(dir);

    let q = |series: &Series, q| series.window_quantiles(opts.seconds, q);
    let samples = &probe.samples;
    report.end_to_end = metrics::headline(
        setup,
        &commits,
        samples,
        opts.seconds,
        metrics::peak_rss_mb()?,
    );
    let n_commits = wlog.commits.len().max(1) as f64;
    report.detail = metrics::detail(setup, &commits, samples, opts.seconds);
    report.detail.extend([
        Metric::windowed("view_lag_p50_ms", "ms", Better::Lower, q(&lag, 0.5)),
        Metric::windowed("view_lag_p99_ms", "ms", Better::Lower, q(&lag, 0.99)),
        Metric::once("recover_s", "s", Better::Lower, median(&reopen_s)),
        Metric::once(
            "bytes_written_per_commit",
            "B",
            Better::Lower,
            wchar as f64 / n_commits,
        ),
    ]);
    if tr.is_on() {
        report.spans = tr.take_spans();
        report.note_trace_overhead(opts.seconds, 2.0);
        let touched: Vec<f64> = mlog.touched.iter().map(|&n| n as f64).collect();
        for (name, value) in [
            ("core.incremental.touched_per_sync", metrics::mean(&touched)),
            ("storage.wal.segments", segments as f64),
            ("storage.snapshot.files", snapshots as f64),
            ("storage.dir_mb", disk_mb),
        ] {
            report.layers.insert(name, value);
        }
    }
    Ok(report)
}
