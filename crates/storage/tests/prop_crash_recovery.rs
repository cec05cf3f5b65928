//! The tentpole crash-point property suite: a random sequence of
//! single-op mutations and multi-op transactions (some of which roll
//! back) runs against a durable store while an in-memory oracle store
//! applies the same operations. The WAL is then truncated at **every
//! byte offset** — every possible crash point — and reopened; the
//! recovered store must equal the oracle's state as of the last
//! transaction whose full `Begin … Commit` run survived the cut, both
//! as an object dump and through planned queries.

use std::path::PathBuf;

use interop_constraint::{Catalog, CmpOp, Formula};
use interop_model::{ClassDef, ClassName, Database, Object, ObjectId, Schema, Type, Value};
use interop_storage::wal::{list_segments, scan_wal, segment_path, WalRecord};
use interop_storage::{
    replay, DurabilityMode, MvccStore, Optimizer, Store, Transaction, TxnRecord,
};
use proptest::prelude::*;

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
    let dir = std::env::temp_dir().join(format!("interop-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One recovered object: id plus its sorted attribute list.
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

#[derive(Clone, Debug)]
enum Op {
    /// One autocommitted insert.
    Insert { v: i64 },
    /// One autocommitted update of an existing object (no-op when the
    /// population is empty).
    Update { target: u8, v: i64 },
    /// One autocommitted remove.
    Remove { target: u8 },
    /// A multi-op transaction: two inserts and an update. `doom` makes
    /// the final update violate the schema range, rolling the whole
    /// transaction back — recovery must then show no trace of it.
    Txn { v: i64, doom: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..100).prop_map(|v| Op::Insert { v }),
        (any::<u8>(), 0i64..100).prop_map(|(target, v)| Op::Update { target, v }),
        any::<u8>().prop_map(|target| Op::Remove { target }),
        (0i64..100, any::<bool>()).prop_map(|(v, doom)| Op::Txn { v, doom }),
    ]
}

/// Applies one op identically to both stores.
fn apply(op: &Op, s: &mut Store, fresh: &mut u64) {
    let ids: Vec<ObjectId> = s.db().objects().map(|o| o.id).collect();
    let pick = |t: u8| ids.get(t as usize % ids.len().max(1)).copied();
    match op {
        Op::Insert { v } => {
            *fresh += 1;
            let obj = Object::new(ObjectId::new(1, 1000 + *fresh), ClassName::new("Item"))
                .with("k", format!("k{fresh}").as_str())
                .with("v", *v);
            s.insert(obj).expect("in-range insert");
        }
        Op::Update { target, v } => {
            if let Some(id) = pick(*target) {
                s.update(id, "v", Value::int(*v)).expect("in-range update");
            }
        }
        Op::Remove { target } => {
            if let Some(id) = pick(*target) {
                s.remove(id).expect("existing remove");
            }
        }
        Op::Txn { v, doom } => {
            *fresh += 1;
            let a = Object::new(ObjectId::new(1, 1000 + *fresh), ClassName::new("Item"))
                .with("k", format!("t{fresh}").as_str())
                .with("v", *v);
            *fresh += 1;
            let b = Object::new(ObjectId::new(1, 1000 + *fresh), ClassName::new("Item"))
                .with("k", format!("t{fresh}").as_str())
                .with("v", *v);
            let bad_or_good = if *doom { -1 } else { *v };
            let txn = Transaction::new().insert(a.clone()).insert(b).update(
                a.id,
                "v",
                Value::int(bad_or_good),
            );
            // Committed or rolled back, both stores agree.
            let _ = txn.commit(s);
        }
    }
}

/// The ids `v == needle` should hit, straight off the oracle dump.
fn expected_hits(dump: &[ObjDump], needle: i64) -> Vec<ObjectId> {
    dump.iter()
        .filter(|(_, attrs)| {
            attrs
                .iter()
                .any(|(a, v)| a == "v" && v == &Value::int(needle))
        })
        .map(|(id, _)| *id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every byte-offset truncation of the WAL, recovery yields the
    /// oracle state of the committed prefix.
    #[test]
    fn every_truncation_offset_recovers_committed_prefix(
        ops in prop::collection::vec(arb_op(), 3..8),
        needle in 0i64..100,
    ) {
        let dir = scratch("prop");
        let wal_path = segment_path(&dir, 1);
        let mut durable = Store::open(
            Database::new(schema(), 1),
            Catalog::new(),
            &dir,
            DurabilityMode::Wal,
        )
        .expect("open fresh");
        let mut oracle = Store::new(Database::new(schema(), 1), Catalog::new());
        let mut fresh = 0u64;

        // Checkpoints: (WAL length, oracle dump) after every op. The
        // expected recovery at truncation L is the dump of the largest
        // checkpoint length <= L — commit-boundary semantics.
        let mut checkpoints: Vec<(u64, Vec<ObjDump>)> =
            vec![(0, dump(&oracle))];
        for op in &ops {
            let mut f2 = fresh;
            apply(op, &mut durable, &mut fresh);
            apply(op, &mut oracle, &mut f2);
            prop_assert_eq!(f2, fresh);
            let len = std::fs::metadata(&wal_path).expect("wal exists").len();
            checkpoints.push((len, dump(&oracle)));
        }
        prop_assert_eq!(&dump(&durable), &checkpoints.last().unwrap().1);
        drop(durable);
        let pristine = std::fs::read(&wal_path).expect("read wal");

        for cut in 0..=pristine.len() {
            std::fs::write(&wal_path, &pristine[..cut]).expect("write truncated");
            let recovered = Store::open(
                Database::new(schema(), 1),
                Catalog::new(),
                &dir,
                DurabilityMode::Wal,
            )
            .expect("recovery never errors on truncation");
            let expect = &checkpoints
                .iter()
                .rev()
                .find(|(len, _)| *len <= cut as u64)
                .expect("checkpoint 0 always qualifies")
                .1;
            let got = dump(&recovered);
            prop_assert_eq!(&got, expect, "truncated at byte {}", cut);
            // Differential query check: the recovered store's planner
            // answers match the oracle extension.
            let opt = Optimizer::new(&recovered, "Item", vec![]);
            let pred = Formula::cmp("v", CmpOp::Eq, needle);
            let (mut hits, _) = opt.execute(&recovered, &pred).expect("query");
            hits.sort_unstable();
            prop_assert_eq!(hits, expected_hits(expect, needle), "query at byte {}", cut);
        }
    }

    /// Same crash sweep with snapshots in the mix: the surviving state
    /// is snapshot + committed WAL tail, and a cut can never lose a
    /// snapshotted transaction.
    #[test]
    fn truncation_with_snapshots_never_loses_snapshotted_state(
        ops in prop::collection::vec(arb_op(), 4..8),
    ) {
        let dir = scratch("prop-snap");
        let mut durable = Store::open(
            Database::new(schema(), 1),
            Catalog::new(),
            &dir,
            DurabilityMode::WalWithSnapshots,
        )
        .expect("open fresh");
        durable.set_snapshot_every(3);
        let mut oracle = Store::new(Database::new(schema(), 1), Catalog::new());
        let mut fresh = 0u64;
        let mut checkpoints: Vec<(u64, Vec<ObjDump>)> =
            vec![(0, dump(&oracle))];
        let mut active = 1u64;
        for op in &ops {
            let mut f2 = fresh;
            apply(op, &mut durable, &mut fresh);
            apply(op, &mut oracle, &mut f2);
            let (seq, path) = list_segments(&dir)
                .expect("list segments")
                .pop()
                .expect("an active segment");
            // A new active segment means a snapshot fired inside this
            // op: it sealed the segment every earlier checkpoint
            // described, and the snapshot itself now carries that
            // state, so this op's dump becomes the new base (what a cut
            // at offset 0 must recover).
            if seq != active {
                checkpoints.clear();
                active = seq;
            }
            let len = std::fs::metadata(&path).expect("wal exists").len();
            checkpoints.push((len, dump(&oracle)));
        }
        drop(durable);
        // Cut the final active segment at every byte.
        let wal_path = segment_path(&dir, active);
        let pristine = std::fs::read(&wal_path).expect("read wal");

        for cut in 0..=pristine.len() {
            std::fs::write(&wal_path, &pristine[..cut]).expect("write truncated");
            let recovered = Store::open(
                Database::new(schema(), 1),
                Catalog::new(),
                &dir,
                DurabilityMode::WalWithSnapshots,
            )
            .expect("recovery never errors on truncation");
            let expect = &checkpoints
                .iter()
                .rev()
                .find(|(len, _)| *len <= cut as u64)
                .expect("snapshot-era checkpoint")
                .1;
            prop_assert_eq!(&dump(&recovered), expect, "truncated at byte {}", cut);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The crash sweep with **multi-threaded producers**: concurrent
    /// sessions commit through a shared [`MvccStore`] over a durable
    /// store, then the WAL is truncated at every byte offset. The
    /// recovered state must equal the replay of the commit-order prefix
    /// whose `Begin…Commit` runs survived the cut — concurrency must
    /// not weaken commit-boundary recovery semantics.
    #[test]
    fn concurrent_producers_crash_sweep_recovers_commit_prefixes(
        seed in any::<u64>(),
    ) {
        let dir = scratch("mt");
        let wal_path = segment_path(&dir, 1);
        let shared = MvccStore::new(Store::open(
            Database::new(schema(), 1),
            Catalog::new(),
            &dir,
            DurabilityMode::Wal,
        ).expect("open fresh"));
        shared.record_history(true);

        let mut setup = shared.begin();
        let mut pool = Vec::new();
        for i in 0..4i64 {
            pool.push(setup.create(
                "Item",
                vec![("k", format!("s{i}").as_str().into()), ("v", i.into())],
            ).expect("seed insert"));
        }
        setup.commit().expect("seed commit");

        std::thread::scope(|s| {
            for th in 0..3u64 {
                let shared = shared.clone();
                let pool = pool.clone();
                s.spawn(move || {
                    let mut x = (seed ^ ((th + 1) << 32)).max(1);
                    let mut rng = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x.wrapping_mul(2685821657736338717)
                    };
                    for n in 0..4u64 {
                        let mut t = shared.begin();
                        match rng() % 3 {
                            0 => {
                                let _ = t.create("Item", vec![
                                    ("k", format!("w{th}-{n}").as_str().into()),
                                    ("v", ((rng() % 100) as i64).into()),
                                ]);
                            }
                            1 => {
                                let id = pool[(rng() % pool.len() as u64) as usize];
                                let _ = t.update(id, "v", Value::int((rng() % 100) as i64));
                            }
                            _ => {
                                let id = pool[(rng() % pool.len() as u64) as usize];
                                let _ = t.remove(id);
                            }
                        }
                        let _ = t.commit();
                    }
                });
            }
        });

        let history = shared.take_history();
        let inner = shared.into_store().expect("sole handle after join");
        drop(inner); // release the WAL file

        // Write txns in commit order ↔ complete Begin…Commit runs.
        let mut writers: Vec<&TxnRecord> =
            history.iter().filter(|t| !t.ops.is_empty()).collect();
        writers.sort_by_key(|t| t.commit_ts);
        let scan = scan_wal(&wal_path).expect("scan");
        let mut run_ends = Vec::new();
        for (i, r) in scan.records.iter().enumerate() {
            if matches!(r, WalRecord::Commit { .. }) {
                run_ends.push(scan.frame_ends[i]);
            }
        }
        prop_assert_eq!(run_ends.len(), writers.len(), "one run per write commit");

        // expected[k] = commit-order prefix state after k runs.
        let mut expected: Vec<Vec<ObjDump>> = Vec::with_capacity(writers.len() + 1);
        let mut base = Store::new(Database::new(schema(), 1), Catalog::new());
        expected.push(dump(&base));
        for w in &writers {
            replay(&history, &[w.txn], &mut base).expect("prefix replay");
            expected.push(dump(&base));
        }

        let pristine = std::fs::read(&wal_path).expect("read wal");
        for cut in 0..=pristine.len() {
            std::fs::write(&wal_path, &pristine[..cut]).expect("write truncated");
            let recovered = Store::open(
                Database::new(schema(), 1),
                Catalog::new(),
                &dir,
                DurabilityMode::Wal,
            ).expect("recovery never errors on truncation");
            let k = run_ends.iter().take_while(|&&end| end <= cut as u64).count();
            prop_assert_eq!(
                &dump(&recovered), &expected[k],
                "cut at byte {} must recover the {}-run prefix (seed {})",
                cut, k, seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The concurrent crash sweep under **group commit and segment
    /// rotation**: committers share group fsyncs and a tiny segment
    /// threshold forces rotation, then the *active*
    /// segment is truncated at every byte. Recovery must land on a
    /// commit-order prefix that always contains every run in the sealed
    /// segments (sealing syncs them), and every transaction whose
    /// `commit()` was acknowledged must be present in the intact log.
    #[test]
    fn grouped_rotated_crash_sweep_recovers_commit_prefixes(
        seed in any::<u64>(),
    ) {
        use interop_storage::wal::scan_segments;

        let dir = scratch("grouped");
        let shared = MvccStore::new(Store::open(
            Database::new(schema(), 1),
            Catalog::new(),
            &dir,
            DurabilityMode::Wal,
        ).expect("open fresh"));
        shared.set_wal_segment_bytes(200);
        shared.record_history(true);

        let mut setup = shared.begin();
        let mut pool = Vec::new();
        for i in 0..3i64 {
            pool.push(setup.create(
                "Item",
                vec![("k", format!("s{i}").as_str().into()), ("v", i.into())],
            ).expect("seed insert"));
        }
        setup.commit().expect("seed commit");

        let acked = std::sync::Mutex::new(0usize);
        std::thread::scope(|s| {
            for th in 0..3u64 {
                let shared = shared.clone();
                let pool = pool.clone();
                let acked = &acked;
                s.spawn(move || {
                    let mut x = (seed ^ ((th + 1) << 32)).max(1);
                    let mut rng = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x.wrapping_mul(2685821657736338717)
                    };
                    for n in 0..4u64 {
                        let mut t = shared.begin();
                        let _ = t.create("Item", vec![
                            ("k", format!("w{th}-{n}").as_str().into()),
                            ("v", ((rng() % 100) as i64).into()),
                        ]);
                        if rng() % 2 == 0 {
                            let id = pool[(rng() % pool.len() as u64) as usize];
                            let _ = t.update(id, "v", Value::int((rng() % 100) as i64));
                        }
                        if t.commit().is_ok() {
                            *acked.lock().unwrap() += 1;
                        }
                    }
                });
            }
        });

        let history = shared.take_history();
        let acked = *acked.lock().unwrap();
        drop(shared.into_store().expect("sole handle after join"));

        let mut writers: Vec<&TxnRecord> =
            history.iter().filter(|t| !t.ops.is_empty()).collect();
        writers.sort_by_key(|t| t.commit_ts);
        prop_assert_eq!(
            writers.len(), acked + 1,
            "every acknowledged commit (plus the seed) is a recorded writer"
        );

        let segs = scan_segments(&dir).expect("scan segments");
        let (active_seq, active_path) = {
            let last = segs.last().expect("segments exist");
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
        prop_assert_eq!(sealed_runs + active_run_ends.len(), writers.len());

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
            let recovered = Store::open(
                Database::new(schema(), 1),
                Catalog::new(),
                &dir,
                DurabilityMode::Wal,
            ).expect("recovery never errors on truncation");
            let k = sealed_runs + active_run_ends
                .iter()
                .take_while(|&&end| end <= cut as u64)
                .count();
            prop_assert_eq!(
                &dump(&recovered), &expected[k],
                "cut at byte {} must recover the {}-run prefix (seed {}, {} sealed runs)",
                cut, k, seed, sealed_runs
            );
        }
    }
}
