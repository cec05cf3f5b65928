//! Durability × concurrency: commits from many threads serialize into
//! the WAL under the commit mutex, so the log's `Begin…Commit` run
//! order must be (a) exactly the commit-timestamp order of the write
//! transactions and (b) a valid serialization order of the recorded
//! history — and truncating the log at *any* byte must recover the
//! state of a commit-order prefix, exactly as in the single-threaded
//! crash sweep (`prop_crash_recovery.rs`).

use std::path::PathBuf;

use interop_constraint::{Catalog, CmpOp, Formula};
use interop_model::{ClassDef, Database, Object, ObjectId, Schema, Type, Value};
use interop_storage::wal::{list_segments, scan_segments, scan_wal, segment_path, WalScan};
use interop_storage::{
    check_order, replay, DurabilityMode, MvccStore, Store, TxnRecord, WalRecord,
};

fn schema() -> Schema {
    Schema::new(
        "S",
        vec![ClassDef::new("Item")
            .attr("k", Type::Str)
            .attr("v", Type::Range(0, 100))],
    )
    .expect("static schema")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("interop-mvccdur-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_durable(dir: &std::path::Path) -> Store {
    Store::open(
        Database::new(schema(), 1),
        Catalog::new(),
        dir,
        DurabilityMode::Wal,
    )
    .expect("open durable")
}

type ObjDump = (ObjectId, Vec<(String, Value)>);

fn dump(s: &Store) -> Vec<ObjDump> {
    let mut out: Vec<_> = s
        .db()
        .objects()
        .map(|o| {
            (
                o.id,
                o.attrs
                    .iter()
                    .map(|(a, v)| (a.to_string(), v.clone()))
                    .collect(),
            )
        })
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

/// Deterministic per-thread randomness, as in the serializability
/// property suite.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Runs a concurrent workload over a durable shared store, returning
/// the recorded history (the store handle is consumed and dropped, so
/// the WAL file is free to scan afterwards).
fn run_concurrent(
    dir: &std::path::Path,
    threads: usize,
    per_thread: usize,
    seed: u64,
) -> Vec<TxnRecord> {
    let store = MvccStore::new(open_durable(dir));
    store.record_history(true);

    let mut setup = store.begin();
    let mut seeds = Vec::new();
    for i in 0..4i64 {
        seeds.push(
            setup
                .create(
                    "Item",
                    vec![("k", format!("s{i}").as_str().into()), ("v", i.into())],
                )
                .expect("seed insert"),
        );
    }
    setup.commit().expect("seed commit");

    std::thread::scope(|s| {
        for th in 0..threads {
            let store = store.clone();
            let seeds = seeds.clone();
            s.spawn(move || {
                let mut rng = Rng::new(seed ^ ((th as u64 + 1) << 32));
                for _ in 0..per_thread {
                    let mut t = store.begin();
                    for _ in 0..=rng.below(2) {
                        match rng.below(8) {
                            0..=2 => {
                                let k = format!("w{}", rng.next());
                                let _ = t.create(
                                    "Item",
                                    vec![
                                        ("k", k.as_str().into()),
                                        ("v", (rng.below(100) as i64).into()),
                                    ],
                                );
                            }
                            3..=5 => {
                                let id = seeds[rng.below(seeds.len() as u64) as usize];
                                let _ = t.update(id, "v", Value::int(rng.below(100) as i64));
                            }
                            6 => {
                                let id = seeds[rng.below(seeds.len() as u64) as usize];
                                let _ = t.remove(id);
                            }
                            _ => {
                                let _ = t.query(
                                    "Item",
                                    &Formula::cmp("v", CmpOp::Lt, rng.below(100) as i64),
                                );
                            }
                        }
                    }
                    let _ = t.commit();
                }
            });
        }
    });

    let history = store.take_history();
    let inner = store.into_store().expect("sole handle after join");
    drop(inner); // release the WAL file handle
    history
}

/// The complete `Begin…Commit` runs of a scanned WAL: for each, the
/// byte offset one past its `Commit` frame.
fn commit_runs(scan: &WalScan) -> Vec<u64> {
    let mut runs = Vec::new();
    let mut open = false;
    for (i, r) in scan.records.iter().enumerate() {
        match r {
            WalRecord::Begin { .. } => open = true,
            WalRecord::Commit { .. } => {
                assert!(open, "Commit without Begin at record {i}");
                open = false;
                runs.push(scan.frame_ends[i]);
            }
            _ => {}
        }
    }
    runs
}

/// The history's write transactions in commit-timestamp order — the
/// order the MVCC layer claims to have serialized into the log.
fn writers_in_commit_order(history: &[TxnRecord]) -> Vec<usize> {
    let mut w: Vec<&TxnRecord> = history.iter().filter(|t| !t.ops.is_empty()).collect();
    w.sort_by_key(|t| t.commit_ts);
    w.iter().map(|t| t.txn).collect()
}

/// Satellite: under concurrent committers, the WAL's `Begin…Commit`
/// run order is a valid serialization order of the recorded history.
#[test]
fn concurrent_commits_serialize_into_wal_in_commit_order() {
    let dir = scratch("order");
    let history = run_concurrent(&dir, 4, 8, 0xC0FFEE);
    let scan = scan_wal(&segment_path(&dir, 1)).expect("scan");
    let runs = commit_runs(&scan);
    let order = writers_in_commit_order(&history);

    assert_eq!(
        runs.len(),
        order.len(),
        "one complete Begin…Commit run per committed write txn"
    );
    // (b) The run order — identical to commit-ts order by the WAL's
    // construction under the commit mutex — contradicts no dependency.
    check_order(&history, &order).expect("WAL order is a valid serialization order");

    // And recovery lands on the same state the readers saw: replay the
    // commit order through a fresh store and compare with a reopen.
    let mut base = Store::new(Database::new(schema(), 1), Catalog::new());
    replay(&history, &order, &mut base).expect("commit-order replay");
    let recovered = open_durable(&dir);
    assert_eq!(
        dump(&recovered),
        dump(&base),
        "recovery ≡ commit-order replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The multi-threaded crash sweep: truncate the WAL at every byte; the
/// recovered store must equal the replay of the commit-order prefix
/// whose runs survived the cut — commit-boundary semantics, now with
/// concurrent producers.
#[test]
fn every_truncation_offset_recovers_a_commit_order_prefix() {
    let dir = scratch("sweep");
    let wal_path = segment_path(&dir, 1);
    let history = run_concurrent(&dir, 3, 4, 0xBEEF);
    let scan = scan_wal(&wal_path).expect("scan");
    let runs = commit_runs(&scan);
    let order = writers_in_commit_order(&history);
    assert_eq!(runs.len(), order.len());

    // expected[k] = state after the first k committed write txns.
    let mut expected: Vec<Vec<ObjDump>> = Vec::with_capacity(order.len() + 1);
    let mut base = Store::new(Database::new(schema(), 1), Catalog::new());
    expected.push(dump(&base));
    for &t in &order {
        replay(&history, &[t], &mut base).expect("prefix replay");
        expected.push(dump(&base));
    }

    let pristine = std::fs::read(&wal_path).expect("read wal");
    for cut in 0..=pristine.len() {
        std::fs::write(&wal_path, &pristine[..cut]).expect("truncate");
        let recovered = open_durable(&dir);
        let k = runs.iter().take_while(|&&end| end <= cut as u64).count();
        assert_eq!(
            dump(&recovered),
            expected[k],
            "cut at byte {cut} must recover the {k}-run prefix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole sweep extension: **group commit + segment rotation**. A
/// concurrent workload shares group syncs under a tiny segment
/// threshold, so the log rotates several times. Every commit the store
/// *acknowledged* (an `Ok` from `commit()`, i.e. after its covering
/// group sync) must survive recovery of the intact log; and truncating
/// the **active** segment at every byte must recover exactly a
/// commit-order prefix — with every run in the sealed segments always
/// included, since sealing syncs them by construction.
#[test]
fn grouped_multi_segment_sweep_recovers_acknowledged_prefix() {
    let dir = scratch("grouped");
    let store = MvccStore::new(open_durable(&dir));
    store.set_wal_segment_bytes(256);
    store.record_history(true);

    let mut setup = store.begin();
    let mut seeds = Vec::new();
    for i in 0..4i64 {
        seeds.push(
            setup
                .create(
                    "Item",
                    vec![("k", format!("s{i}").as_str().into()), ("v", i.into())],
                )
                .expect("seed insert"),
        );
    }
    setup.commit().expect("seed commit");

    let acked = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for th in 0..3u64 {
            let store = store.clone();
            let seeds = seeds.clone();
            let acked = &acked;
            s.spawn(move || {
                let mut rng = Rng::new(0xFEED ^ ((th + 1) << 32));
                for n in 0..6u64 {
                    let mut t = store.begin();
                    // Always one unique create (so the txn writes), plus
                    // sometimes a contended seed update (so some commits
                    // lose validation and are *not* acknowledged).
                    let _ = t.create(
                        "Item",
                        vec![
                            ("k", format!("g{th}-{n}").as_str().into()),
                            ("v", (rng.below(100) as i64).into()),
                        ],
                    );
                    if rng.below(2) == 0 {
                        let id = seeds[rng.below(seeds.len() as u64) as usize];
                        let _ = t.update(id, "v", Value::int(rng.below(100) as i64));
                    }
                    if let Ok(ts) = t.commit() {
                        acked.lock().unwrap().push(ts);
                    }
                }
            });
        }
    });
    let history = store.take_history();
    let acked = acked.into_inner().unwrap();
    drop(store.into_store().expect("sole handle after join"));

    let segs = scan_segments(&dir).expect("scan segments");
    assert!(segs.len() > 1, "the workload must rotate the log");
    let (active_seq, active_path) = {
        let last = segs.last().expect("at least one segment");
        (last.seq, last.path.clone())
    };
    let mut sealed_runs = 0usize;
    let mut active_run_ends = Vec::new();
    for seg in &segs {
        for (i, r) in seg.scan.records.iter().enumerate() {
            if matches!(r, WalRecord::Commit { .. }) {
                if seg.seq == active_seq {
                    active_run_ends.push(seg.scan.frame_ends[i]);
                } else {
                    sealed_runs += 1;
                }
            }
        }
    }
    let mut writers: Vec<&TxnRecord> = history.iter().filter(|t| !t.ops.is_empty()).collect();
    writers.sort_by_key(|t| t.commit_ts);
    assert_eq!(
        sealed_runs + active_run_ends.len(),
        writers.len(),
        "one Begin…Commit run per committed write txn, across all segments"
    );
    // Every acknowledged commit is a recorded writer: nothing the group
    // sync acknowledged is missing from the intact log.
    for ts in &acked {
        assert!(
            writers.iter().any(|w| w.commit_ts == *ts),
            "acknowledged ts {ts} must be in the log"
        );
    }

    // expected[k] = state after the first k committed write txns.
    let mut expected: Vec<Vec<ObjDump>> = Vec::with_capacity(writers.len() + 1);
    let mut base = Store::new(Database::new(schema(), 1), Catalog::new());
    expected.push(dump(&base));
    for w in &writers {
        replay(&history, &[w.txn], &mut base).expect("prefix replay");
        expected.push(dump(&base));
    }

    let pristine = std::fs::read(&active_path).expect("read active segment");
    for cut in 0..=pristine.len() {
        std::fs::write(&active_path, &pristine[..cut]).expect("truncate");
        let recovered = open_durable(&dir);
        let k = sealed_runs
            + active_run_ends
                .iter()
                .take_while(|&&end| end <= cut as u64)
                .count();
        assert!(
            k >= sealed_runs,
            "sealed segments are durable: no cut of the active segment loses them"
        );
        assert_eq!(
            dump(&recovered),
            expected[k],
            "cut at byte {cut} of the active segment must recover the {k}-run prefix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole: background snapshots. With an [`MvccStore`] over a
/// `WalWithSnapshots` store, the cadence only seals the active segment
/// and hands the published snapshot to a worker thread — committers
/// never write the dump. After a flush, the snapshot file exists, the
/// sealed segments it covers are pruned, no error was recorded, and a
/// reopen recovers snapshot + WAL tail exactly.
#[test]
fn background_snapshots_prune_covered_segments() {
    let dir = scratch("bgsnap");
    let mut base = Store::open(
        Database::new(schema(), 1),
        Catalog::new(),
        &dir,
        DurabilityMode::WalWithSnapshots,
    )
    .expect("open durable");
    base.set_snapshot_every(8);
    base.set_wal_segment_bytes(128);
    let store = MvccStore::new(base);

    for i in 0..20i64 {
        let mut t = store.begin();
        t.create(
            "Item",
            vec![
                ("k", format!("b{i}").as_str().into()),
                ("v", (i % 100).into()),
            ],
        )
        .expect("create");
        t.commit().expect("commit");
    }
    store.flush_snapshots();
    assert!(
        store.take_snapshot_error().is_none(),
        "background snapshots succeeded"
    );
    let snaps = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .count();
    assert!(snaps >= 1, "a cadence snapshot reached the directory");
    let segs = list_segments(&dir).expect("list segments");
    assert!(
        segs.first().expect("an active segment remains").0 > 1,
        "segments fully covered by the snapshot were pruned"
    );

    let before = dump(&store.read_view());
    drop(store.into_store().expect("sole handle"));
    let reopened = Store::open(
        Database::new(schema(), 1),
        Catalog::new(),
        &dir,
        DurabilityMode::WalWithSnapshots,
    )
    .expect("reopen");
    assert_eq!(dump(&reopened), before, "snapshot + tail ≡ pre-close state");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every snapshot follows one protocol, whoever runs it: the same
/// fixed-id inserts through a single writer (snapshots inline) and
/// through an MVCC store (snapshots on the worker) leave directories
/// with the same files, byte lengths included, that reopen to the same
/// objects.
#[test]
fn inline_and_background_snapshots_leave_the_same_directory() {
    let open_snapshotting = |dir: &std::path::Path| {
        let mut s = Store::open(
            Database::new(schema(), 1),
            Catalog::new(),
            dir,
            DurabilityMode::WalWithSnapshots,
        )
        .expect("open durable");
        s.set_snapshot_every(5);
        s.set_wal_segment_bytes(256);
        s
    };
    let item = |i: u64| {
        Object::new(ObjectId::new(1, 100 + i), "Item".into())
            .with("k", format!("k{i}").as_str())
            .with("v", (i % 100) as i64)
    };
    let inline_dir = scratch("same-inline");
    let mut single = open_snapshotting(&inline_dir);
    for i in 0..23 {
        single.insert(item(i)).expect("insert");
    }
    drop(single);
    let background_dir = scratch("same-background");
    let store = MvccStore::new(open_snapshotting(&background_dir));
    for i in 0..23 {
        let mut t = store.begin();
        t.insert(item(i)).expect("insert");
        t.commit().expect("commit");
    }
    store.flush_snapshots();
    assert!(store.take_snapshot_error().is_none());
    drop(store.into_store().expect("sole handle"));

    let listing = |dir: &std::path::Path| {
        let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| {
                let e = e.expect("dir entry");
                let len = e.metadata().expect("metadata").len();
                (e.file_name().to_string_lossy().into_owned(), len)
            })
            .collect();
        files.sort();
        files
    };
    let files = listing(&inline_dir);
    assert!(
        files.iter().any(|(name, _)| name.ends_with(".snap")),
        "a cadence snapshot reached the directory: {files:?}"
    );
    assert_eq!(files, listing(&background_dir));
    let reopen = |dir: &std::path::Path| dump(&open_snapshotting(dir));
    let recovered = reopen(&inline_dir);
    assert_eq!(recovered.len(), 23);
    assert_eq!(recovered, reopen(&background_dir));
    let _ = std::fs::remove_dir_all(&inline_dir);
    let _ = std::fs::remove_dir_all(&background_dir);
}

/// Pipelined group commit: `commit_pipelined` publishes the commit
/// immediately and defers only the durability acknowledgement to the
/// returned ticket. Once every ticket is redeemed, reopening the
/// directory must recover every commit — and ticket timestamps are the
/// commit timestamps, so they increase per session.
#[test]
fn pipelined_commits_recover_after_tickets_are_redeemed() {
    let dir = scratch("pipelined");
    const THREADS: usize = 4;
    const PER_THREAD: usize = 50;
    const DEPTH: usize = 8;
    let store = MvccStore::new(open_durable(&dir));

    let mut setup = store.begin();
    let mut ids = Vec::new();
    for th in 0..THREADS {
        ids.push(
            setup
                .create(
                    "Item",
                    vec![("k", format!("t{th}").as_str().into()), ("v", 0i64.into())],
                )
                .expect("seed insert"),
        );
    }
    setup.commit().expect("seed commits");

    std::thread::scope(|scope| {
        for (th, &id) in ids.iter().enumerate() {
            let store = &store;
            scope.spawn(move || {
                let mut pending = std::collections::VecDeque::new();
                let mut last_ts = 0;
                for i in 0..PER_THREAD {
                    let mut t = store.begin();
                    t.update(id, "v", Value::Int(((th * 7 + i) % 100) as i64))
                        .expect("disjoint update");
                    let ticket = t.commit_pipelined().expect("disjoint writers commit");
                    assert!(
                        ticket.ts() > last_ts,
                        "commit timestamps increase within a session"
                    );
                    last_ts = ticket.ts();
                    pending.push_back(ticket);
                    if pending.len() >= DEPTH {
                        let oldest = pending.pop_front().expect("non-empty");
                        oldest.wait().expect("covering sync lands");
                    }
                }
                for ticket in pending {
                    ticket.wait().expect("covering sync lands");
                }
            });
        }
    });

    // A read-only transaction's ticket is trivially durable.
    let empty = store.begin().commit_pipelined().expect("empty commit");
    let ts = empty.ts();
    assert_eq!(empty.wait().expect("nothing to sync"), ts);

    let before = dump(&store.read_view());
    drop(store.into_store().expect("sole handle"));
    let reopened = open_durable(&dir);
    assert_eq!(
        dump(&reopened),
        before,
        "every redeemed ticket's commit was recovered"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dropping a ticket forfeits only the acknowledgement: the commit is
/// still in the log ahead of later commits, so a later ticket's
/// successful wait implies the dropped one is durable too.
#[test]
fn dropped_ticket_commit_still_recovered() {
    let dir = scratch("ticket-drop");
    let store = MvccStore::new(open_durable(&dir));

    let mut setup = store.begin();
    let id = setup
        .create("Item", vec![("k", "a".into()), ("v", 0i64.into())])
        .expect("seed insert");
    setup.commit().expect("seed commits");

    let mut t = store.begin();
    t.update(id, "v", Value::Int(1)).expect("update");
    drop(t.commit_pipelined().expect("first commit")); // never waited

    let mut t = store.begin();
    t.update(id, "v", Value::Int(2)).expect("update");
    t.commit_pipelined()
        .expect("second commit")
        .wait()
        .expect("covering sync also covers the dropped ticket's run");

    drop(store.into_store().expect("sole handle"));
    let reopened = open_durable(&dir);
    let v = reopened
        .db()
        .object(id)
        .expect("recovered")
        .attrs
        .iter()
        .find(|(a, _)| a.as_str() == "v")
        .map(|(_, v)| v.clone());
    assert_eq!(v, Some(Value::Int(2)), "both commits recovered in order");
    let _ = std::fs::remove_dir_all(&dir);
}
