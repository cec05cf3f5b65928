//! Integration tests for the durability layer: reopen replays committed
//! work, snapshots prune the log, the touched-id log survives a
//! restart without re-logging replayed history, clones are detached,
//! and `DurabilityMode::Off` touches no files.

use std::path::{Path, PathBuf};

use interop_constraint::Catalog;
use interop_model::{ClassDef, Database, ObjectId, Schema, Type, Value};
use interop_storage::wal::{scan_segments, segment_path};
use interop_storage::{DurabilityMode, MvccStore, Store, Transaction, TxnOutcome, WalRecord};

fn schema() -> Schema {
    Schema::new(
        "S",
        vec![ClassDef::new("Item")
            .attr("k", Type::Str)
            .attr("v", Type::Range(0, 1000))],
    )
    .expect("static schema")
}

/// A fresh scratch directory under the system temp dir, unique per
/// test (and per process, so parallel CI runs don't collide).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("interop-dur-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, mode: DurabilityMode) -> Store {
    Store::open(Database::new(schema(), 1), Catalog::new(), dir, mode).expect("open")
}

/// Sorted `(id, attrs)` dump — extent order may legitimately differ
/// after recovery (snapshot order + WAL order), the *set* may not.
fn dump(s: &Store) -> Vec<(ObjectId, Vec<(String, Value)>)> {
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

#[test]
fn reopen_replays_committed_ops() {
    let dir = scratch("reopen");
    let mut s = open(&dir, DurabilityMode::Wal);
    let a = s
        .create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .unwrap();
    let b = s
        .create("Item", vec![("k", "b".into()), ("v", 2i64.into())])
        .unwrap();
    s.update(a, "v", Value::int(7)).unwrap();
    s.remove(b).unwrap();
    let before = dump(&s);
    drop(s);

    let mut s = open(&dir, DurabilityMode::Wal);
    assert_eq!(dump(&s), before);
    // Serial continuity: new ids must not collide with recovered ones.
    let c = s
        .create("Item", vec![("k", "c".into()), ("v", 3i64.into())])
        .unwrap();
    assert!(c > a, "fresh id allocated past recovered serials");
    drop(s);
    let s = open(&dir, DurabilityMode::Wal);
    assert_eq!(s.db().len(), 2);
}

#[test]
fn txn_commit_replays_rollback_leaves_no_trace() {
    let dir = scratch("txn");
    let mut s = open(&dir, DurabilityMode::Wal);
    let a = s
        .create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .unwrap();
    let txn = Transaction::new().update(a, "v", Value::int(5)).insert(
        interop_model::Object::new(ObjectId::new(1, 900), "Item".into())
            .with("k", "t")
            .with("v", 6i64),
    );
    assert!(matches!(txn.commit(&mut s), TxnOutcome::Committed { .. }));
    // A doomed transaction: the second op violates the schema range, so
    // the first rolls back — and nothing of it may reach the log.
    let txn = Transaction::new()
        .update(a, "v", Value::int(999))
        .update(a, "v", Value::int(-1));
    assert!(matches!(txn.commit(&mut s), TxnOutcome::RolledBack { .. }));
    let before = dump(&s);
    drop(s);

    let s = open(&dir, DurabilityMode::Wal);
    assert_eq!(dump(&s), before);
    assert_eq!(
        s.db().object(a).unwrap().get(&"v".into()),
        &Value::int(5),
        "committed txn survives, rolled-back txn leaves no trace"
    );
}

#[test]
fn snapshots_truncate_wal_and_recover() {
    let dir = scratch("snap");
    let mut s = open(&dir, DurabilityMode::WalWithSnapshots);
    s.set_snapshot_every(4);
    for i in 0..10i64 {
        s.create(
            "Item",
            vec![("k", format!("k{i}").as_str().into()), ("v", i.into())],
        )
        .unwrap();
    }
    let before = dump(&s);
    drop(s);
    // 10 committed txns at cadence 4 → snapshots at 4 and 8, each
    // sealing the active segment and pruning the sealed segments it
    // covers: one segment is left, holding only the 2 post-snapshot
    // txns.
    let segs = scan_segments(&dir).unwrap();
    assert_eq!(segs.len(), 1, "covered segments pruned");
    let commits: Vec<u64> = segs[0]
        .scan
        .records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Commit { seq } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(commits, vec![9, 10], "post-snapshot txns remain in the log");
    let snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .collect();
    assert_eq!(snaps.len(), 1, "older snapshots pruned");

    let s = open(&dir, DurabilityMode::WalWithSnapshots);
    assert_eq!(dump(&s), before);
}

/// Regression: the automatic snapshot cadence runs *after* the
/// commit's WAL append and sync succeeded — a snapshot failure at that
/// point must not report the transaction as rolled back (the log
/// durably holds it; replay would diverge from a memory rollback, and a
/// retried insert would then collide on reopen). The commit stands,
/// the error surfaces via `take_snapshot_error`, and the next commit
/// retries the snapshot.
#[test]
fn snapshot_failure_does_not_roll_back_a_durable_commit() {
    let dir = scratch("snapfail");
    let mut s = open(&dir, DurabilityMode::WalWithSnapshots);
    s.set_snapshot_every(1);
    // Force the snapshot after the first commit (watermark 1) to fail:
    // occupy its tmp path with a directory.
    let blocker = dir.join("snapshot-00000000000000000001.snap.tmp");
    std::fs::create_dir_all(&blocker).unwrap();
    let txn = Transaction::new().insert(
        interop_model::Object::new(ObjectId::new(1, 900), "Item".into())
            .with("k", "t")
            .with("v", 6i64),
    );
    assert!(
        matches!(txn.commit(&mut s), TxnOutcome::Committed { .. }),
        "the WAL append succeeded, so the commit must stand"
    );
    let err = s.take_snapshot_error().expect("snapshot failure surfaced");
    assert!(
        err.to_string().contains("snap.tmp"),
        "points at the file: {err}"
    );
    assert!(s.take_snapshot_error().is_none(), "taken once");
    assert_eq!(s.db().len(), 1, "memory keeps the committed txn");
    // The next commit (watermark 2, free tmp path) retries and succeeds.
    s.create("Item", vec![("k", "u".into()), ("v", 7i64.into())])
        .unwrap();
    assert!(s.take_snapshot_error().is_none(), "retry succeeded");
    let before = dump(&s);
    drop(s);
    let s = open(&dir, DurabilityMode::WalWithSnapshots);
    assert_eq!(dump(&s), before, "both commits recovered");
}

/// A snapshot deletes the sealed segments it covers only after it is
/// durable, but stale committed frames the snapshot already holds can
/// still come back: power loss can undo a deletion whose directory
/// fsync never completed, and a crash between the snapshot and the
/// prune leaves the segment in place. The replay-side
/// `seq > watermark` filter must ignore them. This test resurrects the
/// pruned segment and also appends its frames after the live tail,
/// and demands recovery ignore both.
#[test]
fn resurrected_stale_tail_never_reapplies_snapshotted_txns() {
    let dir = scratch("resurrect");
    let mut s = open(&dir, DurabilityMode::WalWithSnapshots);
    s.set_snapshot_every(100); // only explicit snapshots
    let a = s
        .create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .unwrap();
    s.update(a, "v", Value::int(2)).unwrap();
    let wal_path = segment_path(&dir, 1);
    let stale = std::fs::read(&wal_path).unwrap();
    assert!(!stale.is_empty());
    // Snapshot: the two txns move into the snapshot, and the sealed
    // segment holding them is pruned.
    s.snapshot_now().unwrap();
    assert!(!wal_path.exists(), "the covered segment was pruned");
    // One post-snapshot commit, so the resurrected tail lands *after*
    // live frames — the worst case, since replay must scan past it.
    s.update(a, "v", Value::int(3)).unwrap();
    let before = dump(&s);
    drop(s);
    // Resurrect the pruned segment, and append the same stale frames
    // after the live tail of its successor. Their CRCs are intact —
    // only their `seq <= watermark` marks them as already applied.
    std::fs::write(&wal_path, &stale).unwrap();
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(segment_path(&dir, 2))
        .unwrap();
    f.write_all(&stale).unwrap();
    drop(f);

    let s = open(&dir, DurabilityMode::WalWithSnapshots);
    assert_eq!(
        dump(&s),
        before,
        "stale resurrected frames must not be reapplied"
    );
    assert_eq!(
        s.db().object(a).unwrap().get(&"v".into()),
        &Value::int(3),
        "the post-snapshot update wins, not the resurrected v=2"
    );
}

/// A segment the snapshot covers can survive it: a crash between the
/// snapshot and its prune, or a prune whose directory fsync never
/// landed. Replay skips that segment's transactions by the watermark,
/// and must skip its touched-log markers too — the snapshot's touched
/// state already reflects them. Applying the covered `TouchedDrain`
/// on top of the snapshot would lose the undrained `b`.
#[test]
fn covered_touched_markers_are_not_replayed_over_the_snapshot() {
    let dir = scratch("covered-markers");
    let mut s = open(&dir, DurabilityMode::WalWithSnapshots);
    s.set_snapshot_every(100); // only the explicit snapshot
    s.track_touched(true);
    let a = s
        .create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .unwrap();
    assert_eq!(s.take_touched(), vec![a]);
    let b = s
        .create("Item", vec![("k", "b".into()), ("v", 2i64.into())])
        .unwrap();
    let covered = segment_path(&dir, 1);
    let bytes = std::fs::read(&covered).unwrap();
    s.snapshot_now().unwrap();
    assert!(!covered.exists(), "the covered segment was pruned");
    drop(s);
    // The crash came before the prune reached the disk.
    std::fs::write(&covered, &bytes).unwrap();

    let mut s = open(&dir, DurabilityMode::WalWithSnapshots);
    assert_eq!(s.take_touched(), vec![b], "the undrained id survives");
    assert_eq!(s.db().len(), 2);
}

/// Satellite regression: a second snapshot failure used to *overwrite*
/// the first unretrieved error, collapsing the history into the newest
/// symptom. Now the first error is kept and every attempt counted.
#[test]
fn snapshot_failures_keep_first_error_and_count_all() {
    let dir = scratch("snapfail2");
    let mut s = open(&dir, DurabilityMode::WalWithSnapshots);
    s.set_snapshot_every(1);
    // Block the tmp paths of the snapshots at watermarks 1 and 2.
    for w in 1..=2 {
        std::fs::create_dir_all(dir.join(format!("snapshot-{w:020}.snap.tmp"))).unwrap();
    }
    s.create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .unwrap();
    s.create("Item", vec![("k", "b".into()), ("v", 2i64.into())])
        .unwrap();
    let err = s.take_snapshot_error().expect("failures surfaced");
    assert_eq!(err.failures, 2, "both attempts counted");
    assert!(
        err.first
            .to_string()
            .contains("snapshot-00000000000000000001.snap.tmp"),
        "the FIRST failure is kept, not overwritten by the second: {}",
        err.first
    );
    assert!(s.take_snapshot_error().is_none(), "taken once");
}

/// The watermarks of the live snapshot files in `dir`, ascending.
fn snapshot_marks(dir: &Path) -> Vec<u64> {
    let mut marks: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_prefix("snapshot-")?
                .strip_suffix(".snap")?
                .parse()
                .ok()
        })
        .collect();
    marks.sort_unstable();
    marks
}

/// A failed automatic snapshot is retried after another full cadence,
/// not on the next commit, and the single writer and the MVCC worker
/// agree: the capture restarts the cadence whatever the write step
/// does later.
#[test]
fn failed_snapshot_retries_after_a_full_cadence() {
    for background in [false, true] {
        let dir = scratch(&format!("retry-{background}"));
        let mut s = open(&dir, DurabilityMode::WalWithSnapshots);
        s.set_snapshot_every(2);
        // Block the tmp path of the snapshot at watermark 2.
        std::fs::create_dir_all(dir.join("snapshot-00000000000000000002.snap.tmp")).unwrap();
        let attrs = |i: i64| vec![("k", format!("k{i}").as_str().into()), ("v", i.into())];
        let mut seen = Vec::new();
        let failure = if background {
            let m = MvccStore::new(s);
            for i in 1..=4 {
                let mut t = m.begin();
                t.create("Item", attrs(i)).unwrap();
                t.commit().unwrap();
                m.flush_snapshots();
                seen.push(snapshot_marks(&dir));
            }
            m.take_snapshot_error()
        } else {
            for i in 1..=4 {
                s.create("Item", attrs(i)).unwrap();
                seen.push(snapshot_marks(&dir));
            }
            s.take_snapshot_error()
        };
        assert_eq!(
            seen,
            vec![vec![], vec![], vec![], vec![4]],
            "background = {background}: no snapshot at watermark 2 or 3, one at 4"
        );
        let failure = failure.expect("the watermark-2 failure surfaced");
        assert_eq!(failure.failures, 1, "background = {background}");
    }
}

#[test]
fn snapshot_now_makes_reopen_replay_free() {
    let dir = scratch("snapnow");
    let mut s = open(&dir, DurabilityMode::Wal);
    for i in 0..5i64 {
        s.create(
            "Item",
            vec![("k", format!("k{i}").as_str().into()), ("v", i.into())],
        )
        .unwrap();
    }
    let before = dump(&s);
    s.snapshot_now().unwrap();
    drop(s);
    let segs = scan_segments(&dir).unwrap();
    assert!(!segs.is_empty(), "the empty active segment remains");
    assert!(
        segs.iter().all(|seg| seg.scan.file_len == 0),
        "no segment holds a frame"
    );
    let s = open(&dir, DurabilityMode::Wal);
    assert_eq!(dump(&s), before);
}

/// Satellite regression: replay must not re-log replayed mutations, and
/// a drain marker must survive a restart — otherwise a reopened store
/// hands the incremental pipeline the entire database as "touched".
#[test]
fn reopen_does_not_relog_replayed_history() {
    let dir = scratch("touched");
    let mut s = open(&dir, DurabilityMode::Wal);
    s.track_touched(true);
    let a = s
        .create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .unwrap();
    let b = s
        .create("Item", vec![("k", "b".into()), ("v", 2i64.into())])
        .unwrap();
    assert_eq!(s.take_touched(), vec![a, b], "drained before shutdown");
    // One more mutation after the drain: the only id a reopened store
    // may report.
    s.update(a, "v", Value::int(3)).unwrap();
    drop(s);

    let mut s = open(&dir, DurabilityMode::Wal);
    assert_eq!(s.db().len(), 2, "replay applied everything");
    assert_eq!(
        s.take_touched(),
        vec![a],
        "only post-drain history is touched — replayed mutations are not re-logged"
    );
    drop(s);

    // Reopen again with nothing new since that drain.
    let mut s = open(&dir, DurabilityMode::Wal);
    assert_eq!(
        s.take_touched(),
        Vec::new(),
        "reopen after a drain reports nothing"
    );
}

#[test]
fn tracking_state_survives_reopen() {
    let dir = scratch("tracking");
    let mut s = open(&dir, DurabilityMode::Wal);
    s.create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .unwrap();
    drop(s);
    // Tracking was never enabled: a reopened store stays untracked.
    let mut s = open(&dir, DurabilityMode::Wal);
    assert_eq!(s.take_touched(), Vec::new());
    s.track_touched(true);
    let b = s
        .create("Item", vec![("k", "b".into()), ("v", 2i64.into())])
        .unwrap();
    drop(s);
    // Enabled + one undrained mutation: reopen resumes with exactly it.
    let mut s = open(&dir, DurabilityMode::Wal);
    assert_eq!(s.take_touched(), vec![b]);
}

#[test]
fn detached_clone_is_detached_and_off() {
    // `Store` no longer implements `Clone` — an implicit `.clone()` of
    // a durable store silently dropped durability. The explicit
    // replacement must still be detached, and mutations of the copy
    // must never reach the original's WAL.
    let dir = scratch("clone");
    let mut s = open(&dir, DurabilityMode::Wal);
    s.create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .unwrap();
    let mut c = s.detached_clone();
    assert_eq!(c.durability_mode(), DurabilityMode::Off);
    c.create("Item", vec![("k", "clone-only".into()), ("v", 2i64.into())])
        .unwrap();
    drop(c);
    drop(s);
    let s = open(&dir, DurabilityMode::Wal);
    assert_eq!(s.db().len(), 1, "the clone persisted nothing");
}

#[test]
fn off_mode_touches_no_files() {
    let dir = scratch("off");
    let s = open(&dir, DurabilityMode::Off);
    assert_eq!(s.durability_mode(), DurabilityMode::Off);
    assert!(!dir.exists(), "Off creates neither directory nor files");
}
