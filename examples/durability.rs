//! Durability walkthrough: open a store with a write-ahead log, commit
//! work (a transaction included), "crash", and reopen to recover
//! everything committed — then snapshot to make the next open
//! replay-free.
//!
//! Run with `cargo run --example durability`.

use db_interop::constraint::Catalog;
use db_interop::model::{ClassDef, Database, Schema, Type, Value};
use db_interop::storage::{DurabilityMode, Store, Transaction, TxnOutcome};

fn schema() -> Schema {
    Schema::new(
        "Shop",
        vec![ClassDef::new("Product")
            .attr("sku", Type::Str)
            .attr("price", Type::Real)],
    )
    .expect("valid schema")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("db-interop-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Open a durable store: the directory holds the write-ahead log
    //    (and, in WalWithSnapshots mode, periodic snapshots).
    let mut store = Store::open(
        Database::new(schema(), 1),
        Catalog::new(),
        &dir,
        DurabilityMode::Wal,
    )
    .expect("open durable store");

    // 2. Commit work. Single operations are logged as one-op
    //    transactions; a Transaction reaches the log only as a whole.
    let widget = store
        .create(
            "Product",
            vec![("sku", "widget".into()), ("price", 9.99.into())],
        )
        .expect("insert");
    let gadget = store
        .create(
            "Product",
            vec![("sku", "gadget".into()), ("price", 24.0.into())],
        )
        .expect("insert");
    let txn = Transaction::new()
        .update(widget, "price", Value::real(7.49))
        .delete(gadget);
    assert!(matches!(
        txn.commit(&mut store),
        TxnOutcome::Committed { .. }
    ));
    println!("committed: 2 inserts + a 2-op transaction");

    // 3. "Crash": drop the store without any shutdown ceremony.
    drop(store);

    // 4. Reopen. The WAL tail replays one committed transaction at a
    //    time; a torn trailing frame (a real crash mid-append) would be
    //    discarded, never half-applied.
    let mut store = Store::open(
        Database::new(schema(), 1),
        Catalog::new(),
        &dir,
        DurabilityMode::Wal,
    )
    .expect("recover");
    println!(
        "recovered {} object(s); widget price = {}",
        store.db().len(),
        store
            .db()
            .object(widget)
            .expect("recovered")
            .get(&"price".into())
    );
    assert_eq!(store.db().len(), 1);
    assert_eq!(
        store
            .db()
            .object(widget)
            .expect("recovered")
            .get(&"price".into()),
        &Value::real(7.49)
    );

    // 5. Snapshot before a planned shutdown: the snapshot seals the
    //    log segment it covers and then deletes it, so the next open
    //    loads the snapshot with nothing to replay.
    store.snapshot_now().expect("snapshot");
    drop(store);
    let store = Store::open(
        Database::new(schema(), 1),
        Catalog::new(),
        &dir,
        DurabilityMode::Wal,
    )
    .expect("reopen from snapshot");
    assert_eq!(store.db().len(), 1);
    println!(
        "reopened from snapshot: {} object(s), empty log",
        store.db().len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
