//! MVCC semantics, deterministically: snapshot isolation, conflict
//! detection, validation modes, and the regression pinning the
//! single-threaded `DurabilityMode::Off` path byte-identical to the
//! plain (pre-MVCC) store.

use interop_constraint::{Catalog, CmpOp, ConstraintId, Formula, ObjectConstraint};
use interop_model::{ClassDef, ClassName, Database, DbName, ObjectId, Schema, Type, Value};
use interop_storage::{
    CommitError, DurabilityMode, MvccStore, Optimizer, RetryPolicy, RunTxnError, Store, StoreError,
    ValidationMode,
};

fn schema() -> Schema {
    Schema::new(
        "S",
        vec![ClassDef::new("Item")
            .attr("k", Type::Str)
            .attr("v", Type::Range(0, 100))
            .attr("w", Type::Int)],
    )
    .expect("static schema")
}

/// Catalog with an object constraint (`v < 80`) so some operations are
/// rejected, plus a key on `k`.
fn catalog() -> Catalog {
    let dbn = DbName::new("S");
    let mut cat = Catalog::new();
    cat.add_object(ObjectConstraint::new(
        ConstraintId::new(&dbn, &ClassName::new("Item"), "vcap"),
        "Item",
        Formula::cmp("v", CmpOp::Lt, 80i64),
    ));
    cat.add_class(interop_constraint::ClassConstraint::key(
        ConstraintId::new(&dbn, &ClassName::new("Item"), "kkey"),
        "Item",
        vec!["k"],
    ));
    cat
}

fn fresh() -> MvccStore {
    MvccStore::new(Store::new(Database::new(schema(), 1), Catalog::new()))
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

#[test]
fn single_session_matches_plain_store_byte_for_byte() {
    // The same operation sequence through (a) a plain store and (b) one
    // MVCC session per transaction must leave identical dumps, versions
    // and planned-query answers — the single-threaded Off-mode path has
    // not drifted from the PR-8 store.
    let mut plain = Store::new(Database::new(schema(), 1), catalog());
    let shared = MvccStore::new(Store::new(Database::new(schema(), 1), catalog()));

    // Mixed workload: creates, updates, a remove, a rejected op, a
    // planned query mid-stream.
    let p1 = plain
        .create("Item", vec![("k", "a".into()), ("v", 5i64.into())])
        .expect("plain create");
    let mut t = shared.begin();
    let m1 = t
        .create("Item", vec![("k", "a".into()), ("v", 5i64.into())])
        .expect("mvcc create");
    t.commit().expect("commit");
    assert_eq!(p1, m1, "id allocation agrees");

    let p2 = plain
        .create("Item", vec![("k", "b".into()), ("v", 7i64.into())])
        .expect("plain create");
    let mut t = shared.begin();
    let m2 = t
        .create("Item", vec![("k", "b".into()), ("v", 7i64.into())])
        .expect("mvcc create");
    t.commit().expect("commit");
    assert_eq!(p2, m2);

    plain.update(p1, "v", Value::int(9)).expect("plain update");
    let mut t = shared.begin();
    t.update(m1, "v", Value::int(9)).expect("mvcc update");
    t.commit().expect("commit");

    // A rejected op (v >= 80) leaves both unchanged.
    assert!(plain.update(p1, "v", Value::int(90)).is_err());
    let mut t = shared.begin();
    assert!(t.update(m1, "v", Value::int(90)).is_err());
    t.rollback();

    plain.remove(p2).expect("plain remove");
    let mut t = shared.begin();
    t.remove(m2).expect("mvcc remove");
    t.commit().expect("commit");

    // Identical dumps, and identical planned-query answers.
    let view = shared.read_view();
    assert_eq!(dump(&plain), dump(&view));
    let pred = Formula::cmp("v", CmpOp::Eq, 9i64);
    let opt = Optimizer::new(&plain, "Item", vec![]);
    let (mut ph, _) = opt.execute(&plain, &pred).expect("plain query");
    ph.sort_unstable();
    let opt = Optimizer::new(&view, "Item", vec![]);
    let (mut mh, _) = opt.execute(&view, &pred).expect("mvcc query");
    mh.sort_unstable();
    assert_eq!(ph, mh);
}

#[test]
fn snapshot_reads_are_stable_across_concurrent_commits() {
    let store = fresh();
    let mut t = store.begin();
    let id = t
        .create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .expect("create");
    t.commit().expect("commit");

    // Reader begins, then a writer commits.
    let mut reader = store.begin();
    assert_eq!(
        reader.get(id).expect("visible").get(&"v".into()),
        &Value::int(1)
    );
    let mut writer = store.begin();
    writer.update(id, "v", Value::int(2)).expect("update");
    writer.commit().expect("commit");

    // The in-flight reader still sees its snapshot...
    assert_eq!(
        reader.get(id).expect("still visible").get(&"v".into()),
        &Value::int(1)
    );
    reader.commit().expect("read-only commits always succeed");
    // ...and a fresh transaction sees the new state.
    let mut after = store.begin();
    assert_eq!(
        after.get(id).expect("visible").get(&"v".into()),
        &Value::int(2)
    );
}

#[test]
fn a_pinned_snapshot_survives_500_mixed_commits_unchanged() {
    // Published snapshots share structure with the canonical store, so
    // every commit below writes paths that the pinned version still
    // references: it must copy them, never write through.
    let store = MvccStore::new(Store::new(Database::new(schema(), 1), catalog()));
    let mut seed = store.begin();
    let mut ids = Vec::new();
    for i in 0..300i64 {
        let id = seed
            .create(
                "Item",
                vec![
                    ("k", format!("k{i}").as_str().into()),
                    ("v", (i % 50).into()),
                    ("w", i.into()),
                ],
            )
            .expect("seed create");
        ids.push(id);
    }
    seed.commit().expect("seed commit");

    let pinned_view = store.read_view();
    let mut pinned_txn = store.begin();
    let before = dump(&pinned_view);
    let reads_before: Vec<_> = ids.iter().map(|&id| pinned_txn.get(id)).collect();

    // A fixed xorshift stream keeps the mix deterministic.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut live = ids.clone();
    let mut fresh_keys = 0;
    for _ in 0..500 {
        let mut t = store.begin();
        let pick = live[(next() % live.len() as u64) as usize];
        match next() % 4 {
            0 => {
                fresh_keys += 1;
                let id = t
                    .create(
                        "Item",
                        vec![
                            ("k", format!("n{fresh_keys}").as_str().into()),
                            ("v", 1i64.into()),
                        ],
                    )
                    .expect("insert");
                live.push(id);
            }
            1 if live.len() > 100 => {
                t.remove(pick).expect("remove");
                live.retain(|&id| id != pick);
            }
            2 => {
                fresh_keys += 1;
                t.update(pick, "k", Value::str(format!("r{fresh_keys}")))
                    .expect("key change");
            }
            _ => t
                .update(pick, "w", Value::int((next() % 1000) as i64))
                .expect("price update"),
        }
        t.commit().expect("single writer never conflicts");
    }

    assert_eq!(dump(&pinned_view), before, "the pinned view never changed");
    let reads_after: Vec<_> = ids.iter().map(|&id| pinned_txn.get(id)).collect();
    assert_eq!(
        reads_after, reads_before,
        "the open transaction's reads are stable"
    );
    assert_ne!(
        dump(&store.read_view()),
        before,
        "the store itself moved on"
    );
    // The key index moved with the store, not with the pinned view.
    let key = |s: &Store, k: &str| s.lookup_key(&"Item".into(), &[Value::str(k)]);
    assert_eq!(key(&pinned_view, "k0"), Some(ids[0]));
    assert_eq!(key(&pinned_view, "n1"), None);
}

#[test]
fn first_committer_wins_on_overlapping_write_sets() {
    let store = fresh();
    let mut t = store.begin();
    let id = t
        .create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .expect("create");
    t.commit().expect("commit");

    let mut t1 = store.begin();
    let mut t2 = store.begin();
    t1.update(id, "v", Value::int(2)).expect("t1 update");
    t2.update(id, "v", Value::int(3)).expect("t2 update");
    let ts = t1.commit().expect("first committer wins");
    match t2.commit() {
        Err(CommitError::WriteConflict {
            object,
            committed_ts,
            begin_ts,
        }) => {
            assert_eq!(object, id);
            assert_eq!(committed_ts, ts);
            assert!(begin_ts < ts);
        }
        other => panic!("expected WriteConflict, got {other:?}"),
    }
    // The loser's write never reached the store.
    let mut check = store.begin();
    assert_eq!(
        check.get(id).expect("object").get(&"v".into()),
        &Value::int(2)
    );
}

#[test]
fn own_writes_are_visible_before_commit() {
    let store = fresh();
    let mut t = store.begin();
    let id = t
        .create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .expect("create");
    assert_eq!(
        t.get(id).expect("own insert visible").get(&"v".into()),
        &Value::int(1)
    );
    t.update(id, "v", Value::int(2)).expect("update own insert");
    assert_eq!(
        t.get(id).expect("own update visible").get(&"v".into()),
        &Value::int(2)
    );
    // A planned query inside the txn sees the buffered state too.
    let hits = t
        .query("Item", &Formula::cmp("v", CmpOp::Eq, 2i64))
        .expect("query");
    assert_eq!(hits, vec![id]);
    // But nothing is shared until commit.
    assert!(store.read_view().db().object(id).is_none());
    t.commit().expect("commit");
    assert!(store.read_view().db().object(id).is_some());
}

#[test]
fn rollback_discards_everything() {
    let store = fresh();
    let mut t = store.begin();
    t.create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .expect("create");
    t.rollback();
    assert_eq!(store.read_view().db().len(), 0);
    assert_eq!(store.last_commit_ts(), 0);
}

#[test]
fn constraint_rejection_at_commit_is_a_clean_abort() {
    // Two sessions insert the same key concurrently: no object-level
    // conflict (different fresh ids), so first-committer-wins cannot
    // see it — the canonical store's key index rejects the second at
    // commit, and the abort leaves no trace.
    let store = MvccStore::new(Store::new(Database::new(schema(), 1), catalog()));
    let mut t1 = store.begin();
    let mut t2 = store.begin();
    t1.create("Item", vec![("k", "dup".into()), ("v", 1i64.into())])
        .expect("t1 create");
    t2.create("Item", vec![("k", "dup".into()), ("v", 2i64.into())])
        .expect("t2 create (its snapshot has no such key)");
    t1.commit().expect("first insert commits");
    match t2.commit() {
        Err(CommitError::Rejected { error, .. }) => {
            assert!(matches!(error, StoreError::KeyViolation { .. }));
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(store.read_view().db().len(), 1);
}

#[test]
fn write_skew_prevented_under_serializable_allowed_under_fcw() {
    // The classic anomaly: invariant "at least one of a, b is on
    // call" (w == 1); each txn reads both and switches one off.
    let seed = |store: &MvccStore| -> (ObjectId, ObjectId) {
        let mut t = store.begin();
        let a = t
            .create(
                "Item",
                vec![("k", "a".into()), ("v", 1i64.into()), ("w", 1i64.into())],
            )
            .expect("create a");
        let b = t
            .create(
                "Item",
                vec![("k", "b".into()), ("v", 1i64.into()), ("w", 1i64.into())],
            )
            .expect("create b");
        t.commit().expect("seed");
        (a, b)
    };

    // Serializable (default): the second commit sees its read of the
    // partner object invalidated.
    let store = fresh();
    let (a, b) = seed(&store);
    let mut t1 = store.begin();
    let mut t2 = store.begin();
    assert!(t1.get(b).is_some(), "t1 reads b");
    t1.update(a, "w", Value::int(0)).expect("t1 writes a");
    assert!(t2.get(a).is_some(), "t2 reads a");
    t2.update(b, "w", Value::int(0)).expect("t2 writes b");
    t1.commit().expect("t1 commits first");
    match t2.commit() {
        Err(CommitError::ReadConflict { .. }) => {}
        other => panic!("expected ReadConflict, got {other:?}"),
    }

    // FirstCommitterWins (snapshot isolation): both commit — write
    // skew admitted, invariant broken. (prop suite + oracle show the
    // oracle rejects such histories; see oracle_nonvacuity.rs.)
    let store = MvccStore::with_validation(
        Store::new(Database::new(schema(), 1), Catalog::new()),
        ValidationMode::FirstCommitterWins,
    );
    let (a, b) = seed(&store);
    let mut t1 = store.begin();
    let mut t2 = store.begin();
    assert!(t1.get(b).is_some());
    t1.update(a, "w", Value::int(0)).expect("t1 writes a");
    assert!(t2.get(a).is_some());
    t2.update(b, "w", Value::int(0)).expect("t2 writes b");
    t1.commit().expect("t1 commits");
    t2.commit().expect("snapshot isolation admits write skew");
    let view = store.read_view();
    let on_call = [a, b]
        .iter()
        .filter(|&&id| view.db().object(id).map(|o| o.get(&"w".into())) == Some(&Value::int(1)))
        .count();
    assert_eq!(on_call, 0, "the anomaly really broke the invariant");
}

#[test]
fn read_only_txn_commits_at_begin_ts() {
    let store = fresh();
    let mut t = store.begin();
    t.create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .expect("create");
    t.commit().expect("commit");
    let mut ro = store.begin();
    let _ = ro.query("Item", &Formula::cmp("v", CmpOp::Eq, 1i64));
    let begin = ro.begin_ts();
    assert_eq!(ro.commit().expect("read-only"), begin);
}

#[test]
fn fresh_ids_are_unique_across_concurrent_sessions() {
    let store = fresh();
    let ids: Vec<ObjectId> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = store.clone();
                s.spawn(move || (0..50).map(|_| store.fresh_id()).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panics"))
            .collect()
    });
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "no id handed out twice");
}

#[test]
fn concurrent_smoke_many_writers_one_object_each() {
    // 4 threads × disjoint objects: every commit must succeed, and the
    // final state holds all writes.
    let store = fresh();
    std::thread::scope(|s| {
        for th in 0..4 {
            let store = store.clone();
            s.spawn(move || {
                for i in 0..10 {
                    let mut t = store.begin();
                    t.create(
                        "Item",
                        vec![
                            ("k", format!("t{th}-{i}").as_str().into()),
                            ("v", (th as i64).into()),
                        ],
                    )
                    .expect("disjoint create");
                    t.commit().expect("disjoint commits never conflict");
                }
            });
        }
    });
    assert_eq!(store.read_view().db().len(), 40);
    assert_eq!(store.last_commit_ts(), 40);
}

#[test]
fn durable_mvcc_store_persists_commits() {
    let dir = std::env::temp_dir().join(format!("interop-mvcc-basic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MvccStore::new(
        Store::open(
            Database::new(schema(), 1),
            Catalog::new(),
            &dir,
            DurabilityMode::Wal,
        )
        .expect("open"),
    );
    let mut t = store.begin();
    let id = t
        .create("Item", vec![("k", "a".into()), ("v", 1i64.into())])
        .expect("create");
    t.commit().expect("commit");
    assert_eq!(store.durability_mode(), DurabilityMode::Wal);
    let inner = store.into_store().expect("sole handle");
    drop(inner);
    let reopened = Store::open(
        Database::new(schema(), 1),
        Catalog::new(),
        &dir,
        DurabilityMode::Wal,
    )
    .expect("reopen");
    assert!(reopened.db().object(id).is_some(), "commit recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: `run_txn` retries conflict losers on fresh snapshots —
/// N contending increment closures must all make progress, with no
/// manual retry loop and no lost updates.
#[test]
fn run_txn_makes_progress_under_contention() {
    let store = fresh();
    let mut setup = store.begin();
    let id = setup
        .create("Item", vec![("k", "c".into()), ("v", 0i64.into())])
        .expect("seed");
    setup.commit().expect("seed commit");

    std::thread::scope(|s| {
        for _ in 0..6 {
            let store = &store;
            s.spawn(move || {
                let (_, _ts) = store
                    .run_txn(RetryPolicy::default(), |t| {
                        let v = match t.get(id).map(|o| o.get(&"v".into()).clone()) {
                            Some(Value::Int(v)) => v,
                            other => panic!("seeded int, got {other:?}"),
                        };
                        t.update(id, "v", Value::int(v + 1))?;
                        Ok::<_, StoreError>(())
                    })
                    .expect("bounded retry absorbs the conflicts");
            });
        }
    });
    let view = store.read_view();
    assert_eq!(
        view.db().object(id).unwrap().get(&"v".into()),
        &Value::int(6),
        "every increment landed exactly once"
    );
}

/// Satellite: the attempt budget is honoured — a closure that always
/// loses gives up with `RunTxnError::Contention` after exactly N
/// attempts, and the last conflict is attached.
#[test]
fn run_txn_gives_up_after_budget() {
    let store = fresh();
    let mut setup = store.begin();
    let id = setup
        .create("Item", vec![("k", "c".into()), ("v", 0i64.into())])
        .expect("seed");
    setup.commit().expect("seed commit");

    let mut attempts = 0u32;
    let result = store.run_txn(RetryPolicy::attempts(3), |t| {
        attempts += 1;
        t.update(id, "v", Value::int(1))?;
        // Sabotage: a competing commit lands between the closure and
        // this transaction's commit, so it always loses.
        let mut rival = store.begin();
        rival.update(id, "v", Value::int(2)).expect("rival update");
        rival.commit().expect("rival wins");
        Ok::<_, StoreError>(())
    });
    match result {
        Err(RunTxnError::Contention { attempts: n, last }) => {
            assert_eq!(n, 3, "gave up after the budget");
            assert!(matches!(last, CommitError::WriteConflict { .. }));
        }
        other => panic!("expected contention give-up, got {other:?}"),
    }
    assert_eq!(attempts, 3, "the closure ran once per attempt");
}

/// A closure error aborts immediately (no retry), and a non-conflict
/// commit failure is final.
#[test]
fn run_txn_aborts_on_closure_error_and_rejection() {
    let store = MvccStore::new(Store::new(Database::new(schema(), 1), catalog()));
    let mut calls = 0u32;
    let r = store.run_txn(RetryPolicy::default(), |_t| {
        calls += 1;
        Err::<(), &str>("domain failure")
    });
    assert!(matches!(r, Err(RunTxnError::Txn("domain failure"))));
    assert_eq!(calls, 1, "closure errors are not retried");

    // Two run_txn calls inserting the same key `k`: the second commit
    // is Rejected by the key constraint (a collision no object-level
    // conflict check can see) — final, not retried.
    let (_, _) = store
        .run_txn(RetryPolicy::default(), |t| {
            t.create("Item", vec![("k", "dup".into()), ("v", 1i64.into())])?;
            Ok::<_, StoreError>(())
        })
        .expect("first insert");
    let mut calls = 0u32;
    let r = store.run_txn(RetryPolicy::attempts(5), |t| {
        calls += 1;
        // A fresh id each attempt, same unique key.
        t.create("Item", vec![("k", "dup".into()), ("v", 2i64.into())])?;
        Ok::<_, StoreError>(())
    });
    match r {
        Err(RunTxnError::Txn(StoreError::KeyViolation { .. })) => {
            // The overlay already holds the committed "dup" key, so the
            // closure itself fails — equally final.
            assert_eq!(calls, 1);
        }
        Err(RunTxnError::Commit(CommitError::Rejected { .. })) => {
            assert_eq!(calls, 1, "rejections are not retried");
        }
        other => panic!("expected a final failure, got {other:?}"),
    }
}
