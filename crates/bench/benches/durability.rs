//! Durability bench — what the write-ahead log costs on the write
//! path. Loads 10k objects into a volatile store (`DurabilityMode::Off`
//! — the pre-durability baseline, byte-identical behaviour) and into a
//! WAL-backed store, then prices recovery: reopening the 10k-object
//! log, and reopening after `snapshot_now` (replay-free). Last, the
//! cost of one MVCC commit at 1k, 10k and 100k objects: a curve whose
//! growth CI gates, so a commit that copies the store cannot hide.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use interop_constraint::{Catalog, ClassConstraint, ConstraintId};
use interop_model::{ClassDef, ClassName, Database, DbName, Object, ObjectId, Schema, Type, Value};
use interop_storage::{DurabilityMode, MvccStore, Store};

const N: usize = 10_000;

/// Concurrent committers for the group-commit bench.
const GROUP_THREADS: usize = 8;

/// Commits each committer keeps in flight before redeeming the oldest
/// durability ticket. Group-commit batches grow with the total number
/// of unacknowledged commits (`GROUP_THREADS × PIPELINE_DEPTH`), so
/// pipelining — not thread count — is what decouples the batch size
/// from the session count and lets one `sync_data` cover hundreds of
/// commits.
const PIPELINE_DEPTH: usize = 64;

fn schema() -> Schema {
    Schema::new(
        "Bench",
        vec![ClassDef::new("Item")
            .attr("k", Type::Str)
            .attr("v", Type::Int)],
    )
    .expect("static schema")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("interop-bench-dur-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn item(serial: u64) -> Object {
    Object::new(ObjectId::new(1, serial), ClassName::new("Item"))
        .with("k", format!("k{serial}").as_str())
        .with("v", serial as i64)
}

fn load(store: &mut Store) {
    for serial in 1..=N as u64 {
        store.insert(item(serial)).expect("in-schema insert");
    }
}

/// Store sizes of the commit-cost curve.
const COMMIT_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// A volatile MVCC store over `n` items keyed on `k`, after one
/// transaction that wrote every object — so the versions map holds an
/// entry per object, as in a long-running store.
fn commit_store(n: usize) -> MvccStore {
    let db = DbName::new("Bench");
    let mut catalog = Catalog::new();
    catalog.add_class(ClassConstraint::key(
        ConstraintId::new(&db, &ClassName::new("Item"), "k_key"),
        "Item",
        vec!["k"],
    ));
    let mut s = Store::new(Database::new(schema(), 1), catalog);
    for serial in 1..=n as u64 {
        s.insert(item(serial)).expect("in-schema insert");
    }
    let store = MvccStore::new(s);
    let mut t = store.begin();
    for serial in 1..=n as u64 {
        t.update(ObjectId::new(1, serial), "v", Value::Int(0))
            .expect("in-schema update");
    }
    t.commit().expect("single writer commits");
    store
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("durability");
    g.sample_size(10);

    g.bench_with_input(BenchmarkId::new("writes_off", N), &N, |b, _| {
        b.iter(|| {
            let mut s = Store::new(Database::new(schema(), 1), Catalog::new());
            load(&mut s);
            std::hint::black_box(s.db().len())
        })
    });

    let dir = scratch("wal");
    g.bench_with_input(BenchmarkId::new("writes_wal", N), &N, |b, _| {
        b.iter_batched(
            || {
                // Fresh log per run: WAL append cost, not replay cost.
                let _ = std::fs::remove_dir_all(&dir);
                Store::open(
                    Database::new(schema(), 1),
                    Catalog::new(),
                    &dir,
                    DurabilityMode::Wal,
                )
                .expect("open durable store")
            },
            |mut s| {
                load(&mut s);
                std::hint::black_box(s.db().len())
            },
            BatchSize::PerIteration,
        )
    });

    // Same txn count, but through concurrent MVCC sessions: committers
    // pipeline their commits ([`MvccTxn::commit_pipelined`]), so
    // hundreds of unacknowledged commits are in flight and one elected
    // leader's `sync_data` covers them all.
    // Every ticket is redeemed inside the measured region — each txn's
    // durability acknowledgement is paid for, just in batches instead
    // of one fsync each. Disjoint write sets (one seeded object per
    // thread) keep first-committer-wins out of the picture, so this
    // prices the sync batching alone.
    let grouped_dir = scratch("grouped");
    g.bench_with_input(BenchmarkId::new("writes_wal_grouped", N), &N, |b, _| {
        b.iter_batched(
            || {
                let _ = std::fs::remove_dir_all(&grouped_dir);
                let mut s = Store::open(
                    Database::new(schema(), 1),
                    Catalog::new(),
                    &grouped_dir,
                    DurabilityMode::Wal,
                )
                .expect("open durable store");
                for th in 1..=GROUP_THREADS as u64 {
                    s.insert(item(th)).expect("seed one object per thread");
                }
                MvccStore::new(s)
            },
            |store| {
                std::thread::scope(|scope| {
                    for th in 0..GROUP_THREADS as u64 {
                        let store = &store;
                        scope.spawn(move || {
                            let id = ObjectId::new(1, th + 1);
                            let mut pending = std::collections::VecDeque::new();
                            for i in 0..N.div_ceil(GROUP_THREADS) {
                                let mut t = store.begin();
                                t.update(id, "v", Value::Int(i as i64))
                                    .expect("in-schema update");
                                pending.push_back(
                                    t.commit_pipelined().expect("disjoint writers commit"),
                                );
                                if pending.len() >= PIPELINE_DEPTH {
                                    let oldest = pending.pop_front().expect("non-empty");
                                    std::hint::black_box(
                                        oldest.wait().expect("covering sync lands"),
                                    );
                                }
                            }
                            for ticket in pending {
                                std::hint::black_box(ticket.wait().expect("covering sync lands"));
                            }
                        });
                    }
                });
            },
            BatchSize::PerIteration,
        )
    });

    // Recovery price of the same 10k-object history: replayed from the
    // log, then (after `snapshot_now`) loaded straight from a snapshot.
    let reopen = |tag: &str| {
        let d = scratch(tag);
        let mut s = Store::open(
            Database::new(schema(), 1),
            Catalog::new(),
            &d,
            DurabilityMode::Wal,
        )
        .expect("open durable store");
        load(&mut s);
        if tag == "snap" {
            s.snapshot_now().expect("snapshot");
        }
        drop(s);
        d
    };
    let wal_dir = reopen("replay");
    g.bench_with_input(BenchmarkId::new("recover_replay", N), &N, |b, _| {
        b.iter(|| {
            let s = Store::open(
                Database::new(schema(), 1),
                Catalog::new(),
                &wal_dir,
                DurabilityMode::Wal,
            )
            .expect("recover");
            std::hint::black_box(s.db().len())
        })
    });
    let snap_dir = reopen("snap");
    g.bench_with_input(BenchmarkId::new("recover_snapshot", N), &N, |b, _| {
        b.iter(|| {
            let s = Store::open(
                Database::new(schema(), 1),
                Catalog::new(),
                &snap_dir,
                DurabilityMode::Wal,
            )
            .expect("recover");
            std::hint::black_box(s.db().len())
        })
    });

    // One single-update commit (`begin`, `update`, `commit`) on a seeded
    // object, with durability off: what a commit costs on top of the
    // log, as a function of the store's size.
    for n in COMMIT_SIZES {
        let store = commit_store(n);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        g.bench_with_input(BenchmarkId::new("commit_at_size", n), &n, |b, &n| {
            b.iter(|| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let id = ObjectId::new(1, 1 + x % n as u64);
                let mut t = store.begin();
                t.update(id, "v", Value::Int((x % 1_000) as i64))
                    .expect("in-schema update");
                std::hint::black_box(t.commit().expect("single writer commits"))
            })
        });
    }

    g.finish();
    for d in [dir, grouped_dir, wal_dir, snap_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
