//! Deterministic WAL corruption tests: a flipped CRC byte, a truncated
//! length prefix, and a valid-CRC frame *after* a torn one must all
//! stop replay at the last good commit boundary — never a partial
//! transaction, never a frame past the tear.

use std::path::{Path, PathBuf};

use interop_constraint::Catalog;
use interop_model::{ClassDef, ClassName, Database, Object, ObjectId, Schema, Type};
use interop_storage::wal::{frame_bytes, scan_wal, segment_path};
use interop_storage::{DurabilityMode, Store, WalRecord};

fn schema() -> Schema {
    Schema::new(
        "S",
        vec![ClassDef::new("Item")
            .attr("k", Type::Str)
            .attr("v", Type::Range(0, 1000))],
    )
    .expect("static schema")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("interop-corrupt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn item(serial: u64, k: &str, v: i64) -> Object {
    Object::new(ObjectId::new(1, serial), ClassName::new("Item"))
        .with("k", k)
        .with("v", v)
}

/// One committed single-insert transaction as raw frame bytes.
fn txn_bytes(seq: u64, obj: Object) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&frame_bytes(&WalRecord::Begin { seq }));
    out.extend_from_slice(&frame_bytes(&WalRecord::DeltaInsert(obj)));
    out.extend_from_slice(&frame_bytes(&WalRecord::Commit { seq }));
    out
}

fn open(dir: &Path) -> Store {
    Store::open(
        Database::new(schema(), 1),
        Catalog::new(),
        dir,
        DurabilityMode::Wal,
    )
    .expect("open")
}

fn recovered_serials(dir: &Path) -> Vec<u64> {
    let s = open(dir);
    let mut out: Vec<u64> = s.db().objects().map(|o| o.id.serial()).collect();
    out.sort_unstable();
    out
}

#[test]
fn flipped_crc_byte_stops_at_last_good_commit() {
    let dir = scratch("crc");
    let mut bytes = txn_bytes(1, item(1, "a", 1));
    let tear_at = bytes.len();
    bytes.extend_from_slice(&txn_bytes(2, item(2, "b", 2)));
    // Flip one payload byte of txn 2's DeltaInsert frame (txn 2's
    // Begin frame is 8 header + 9 payload = 17 bytes, so the insert's
    // payload starts 25 bytes past the boundary): its stored CRC no
    // longer matches.
    bytes[tear_at + 25] ^= 0xFF;
    std::fs::write(segment_path(&dir, 1), &bytes).unwrap();

    let scan = scan_wal(&segment_path(&dir, 1)).unwrap();
    assert_eq!(scan.records.len(), 4, "txn 1 plus txn 2's intact Begin");
    assert_eq!(scan.valid_len as usize, tear_at + 17, "stops at the flip");
    assert_eq!(recovered_serials(&dir), vec![1], "only txn 1 applied");
    // Recovery truncated the log back to the commit boundary: a fresh
    // scan sees exactly txn 1.
    let scan = scan_wal(&segment_path(&dir, 1)).unwrap();
    assert_eq!(scan.valid_len as usize, tear_at);
    assert_eq!(scan.file_len as usize, tear_at);
}

#[test]
fn truncated_length_prefix_stops_at_last_good_commit() {
    let dir = scratch("lenprefix");
    let mut bytes = txn_bytes(1, item(1, "a", 1));
    let tear_at = bytes.len();
    // A torn header: only 5 of the 8 prefix bytes made it to disk.
    bytes.extend_from_slice(&frame_bytes(&WalRecord::Begin { seq: 2 })[..5]);
    std::fs::write(segment_path(&dir, 1), &bytes).unwrap();

    let scan = scan_wal(&segment_path(&dir, 1)).unwrap();
    assert_eq!(scan.records.len(), 3);
    assert_eq!(scan.valid_len as usize, tear_at);
    assert!(scan.file_len > scan.valid_len);
    assert_eq!(recovered_serials(&dir), vec![1]);
}

#[test]
fn lying_length_prefix_reads_as_torn_payload() {
    let dir = scratch("lyinglen");
    let mut bytes = txn_bytes(1, item(1, "a", 1));
    let tear_at = bytes.len();
    // A full header whose length field promises more payload than the
    // file holds.
    let mut frame = frame_bytes(&WalRecord::Rollback);
    frame[0] = 0xFF; // len = huge
    bytes.extend_from_slice(&frame);
    std::fs::write(segment_path(&dir, 1), &bytes).unwrap();

    let scan = scan_wal(&segment_path(&dir, 1)).unwrap();
    assert_eq!(scan.valid_len as usize, tear_at);
    assert_eq!(recovered_serials(&dir), vec![1]);
}

#[test]
fn valid_frame_after_torn_one_is_discarded() {
    let dir = scratch("aftertear");
    let mut bytes = txn_bytes(1, item(1, "a", 1));
    let tear_at = bytes.len();
    // A torn fragment (half a frame), then a perfectly valid committed
    // transaction. Bytes past a tear are untrusted: txn 3 must NOT be
    // applied even though its frames individually check out.
    let torn = frame_bytes(&WalRecord::Begin { seq: 2 });
    bytes.extend_from_slice(&torn[..torn.len() / 2]);
    bytes.extend_from_slice(&txn_bytes(3, item(3, "c", 3)));
    std::fs::write(segment_path(&dir, 1), &bytes).unwrap();

    let scan = scan_wal(&segment_path(&dir, 1)).unwrap();
    assert_eq!(scan.records.len(), 3, "scan stops at the tear");
    assert_eq!(scan.valid_len as usize, tear_at);
    assert_eq!(
        recovered_serials(&dir),
        vec![1],
        "the valid-looking txn after the tear is discarded"
    );
}

#[test]
fn unterminated_txn_run_is_not_applied_and_truncated() {
    let dir = scratch("unterminated");
    let mut bytes = txn_bytes(1, item(1, "a", 1));
    let boundary = bytes.len();
    // Begin + delta, no Commit — a crash mid-append. The frames are
    // intact, but without the Commit the transaction never happened.
    bytes.extend_from_slice(&frame_bytes(&WalRecord::Begin { seq: 2 }));
    bytes.extend_from_slice(&frame_bytes(&WalRecord::DeltaInsert(item(2, "b", 2))));
    std::fs::write(segment_path(&dir, 1), &bytes).unwrap();

    assert_eq!(recovered_serials(&dir), vec![1]);
    // The unterminated run was truncated away, so a new store can
    // append txn 2 afresh without colliding with the stale Begin.
    let mut s = open(&dir);
    s.create("Item", vec![("k", "b2".into()), ("v", 5i64.into())])
        .unwrap();
    drop(s);
    assert_eq!(recovered_serials(&dir), vec![1, 2]);
    assert_eq!(
        std::fs::metadata(segment_path(&dir, 1)).unwrap().len() as usize,
        boundary + txn_bytes(2, item(2, "b2", 5)).len(),
        "log holds exactly txn 1 plus the fresh txn 2"
    );
}

#[test]
fn crc_valid_but_undecodable_frame_stops_replay() {
    let dir = scratch("undecodable");
    let mut bytes = txn_bytes(1, item(1, "a", 1));
    let tear_at = bytes.len();
    // A frame whose CRC is self-consistent but whose payload is not a
    // record (unknown tag 0xEE): same treatment as a torn frame.
    let payload = [0xEEu8, 1, 2, 3];
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&interop_storage::wal::crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&txn_bytes(2, item(2, "b", 2)));
    std::fs::write(segment_path(&dir, 1), &bytes).unwrap();

    let scan = scan_wal(&segment_path(&dir, 1)).unwrap();
    assert_eq!(scan.valid_len as usize, tear_at);
    assert_eq!(recovered_serials(&dir), vec![1]);
}

#[test]
fn empty_and_missing_logs_recover_empty() {
    let dir = scratch("empty");
    assert_eq!(recovered_serials(&dir), Vec::<u64>::new());
    std::fs::write(segment_path(&dir, 1), b"").unwrap();
    assert_eq!(recovered_serials(&dir), Vec::<u64>::new());
}
