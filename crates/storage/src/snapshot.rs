//! Point-in-time snapshots of the canonical extension.
//!
//! A snapshot is a single file holding a versioned header, the
//! touched-id watermark state, and a **per-class sorted object dump**
//! (classes ascending by name, objects ascending by id within each
//! class), closed by a trailing CRC-32 over everything before it.
//!
//! The current format, `IOSNAP02`, is `magic`, the transaction
//! `watermark` (u64), the first WAL segment the snapshot does **not**
//! cover (u64), the tracking flag (u8), the undrained touched ids and
//! the object dump. `IOSNAP01` files, which lack the segment field,
//! still load (see [`SnapshotData::first_uncovered_segment`]).
//!
//! # Atomicity and durability
//!
//! Snapshots are written to a `.tmp` sibling, `sync_all`ed, and only
//! then `rename`d into place, with a directory fsync after the rename —
//! so a crash (or power loss, which may reorder unforced writes) leaves
//! either the previous snapshot set or a stray `.tmp` that loading
//! ignores, never a live file whose name is durable but whose bytes are
//! not. [`write_snapshot`] returns only once the new snapshot is fully
//! durable, which is why callers may then prune older snapshots and the
//! sealed WAL segments the snapshot covers. A crash *between* the
//! snapshot and that pruning is benign because the snapshot records the
//! transaction watermark, so replay skips WAL transactions at or below
//! it, and the first segment it does not cover, so replay skips the
//! touched-log markers of the covered segments too (the snapshot's
//! touched state already reflects them).
//!
//! # What a snapshot captures
//!
//! Object state, the transaction sequence watermark, and the
//! touched-id tracking state (flag + undrained ids) — everything the
//! store needs to resume both durability and the incremental pipeline.
//! Secondary indexes, statistics and composite admissions are *not*
//! captured: they rebuild lazily exactly as on a fresh store.

use std::io::Write;
use std::path::{Path, PathBuf};

use interop_model::{Object, ObjectId};

use crate::wal::{crc32, fsync_dir, put_id, put_object, put_u32, put_u64, Cursor, DurabilityError};

/// Snapshot format magic + version. Bump on any layout change.
const MAGIC: &[u8; 8] = b"IOSNAP02";

/// The previous format: no `first_uncovered_segment` field. Still read,
/// because a directory written in that format has already pruned the
/// segments its snapshot covers — rejecting it would lose acknowledged
/// commits.
const MAGIC_V1: &[u8; 8] = b"IOSNAP01";

/// File-name prefix/suffix for live snapshots.
const PREFIX: &str = "snapshot-";
const SUFFIX: &str = ".snap";

/// The decoded contents of one snapshot file.
#[derive(Debug)]
pub struct SnapshotData {
    /// Transaction sequence watermark: WAL transactions with
    /// `seq <= watermark` are already reflected in `objects`.
    pub watermark: u64,
    /// The first WAL segment the snapshot does not cover: the active
    /// segment right after the capture sealed the log. Touched-log
    /// markers in lower segments predate the capture and are already
    /// reflected in `tracking` and `touched`, so replay skips them. `0`
    /// for an `IOSNAP01` file, which predates the field: replay then
    /// skips no marker, as that format always did.
    pub first_uncovered_segment: u64,
    /// Whether touched-id tracking was on at snapshot time.
    pub tracking: bool,
    /// Undrained touched ids at snapshot time (the incremental
    /// pipeline's resume set).
    pub touched: Vec<ObjectId>,
    /// Every live object, grouped by class (ascending) and sorted by id
    /// within each class.
    pub objects: Vec<Object>,
}

fn snapshot_path(dir: &Path, watermark: u64) -> PathBuf {
    dir.join(format!("{PREFIX}{watermark:020}{SUFFIX}"))
}

fn io_err(path: &Path, e: std::io::Error) -> DurabilityError {
    DurabilityError::Io(format!("{}: {e}", path.display()))
}

/// Serializes a snapshot. `objects` may arrive in any order; the dump
/// is canonicalised to per-class sorted order here.
fn encode(
    watermark: u64,
    first_uncovered_segment: u64,
    tracking: bool,
    touched: &[ObjectId],
    objects: &[&Object],
) -> Vec<u8> {
    let mut sorted: Vec<&Object> = objects.to_vec();
    sorted.sort_by(|a, b| (&a.class, a.id).cmp(&(&b.class, b.id)));
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, watermark);
    put_u64(&mut out, first_uncovered_segment);
    out.push(u8::from(tracking));
    put_u32(&mut out, touched.len() as u32);
    for &id in touched {
        put_id(&mut out, id);
    }
    put_u64(&mut out, sorted.len() as u64);
    for obj in sorted {
        put_object(&mut out, obj);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

fn decode(bytes: &[u8], path: &Path) -> Result<SnapshotData, DurabilityError> {
    let corrupt = |what: &str| DurabilityError::Corrupt(format!("{}: {what}", path.display()));
    if bytes.len() < MAGIC.len() + 4 {
        return Err(corrupt("shorter than header + checksum"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    if crc32(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let v1 = match &body[..MAGIC.len()] {
        m if m == MAGIC => false,
        m if m == MAGIC_V1 => true,
        _ => return Err(corrupt("bad magic / unsupported version")),
    };
    let mut c = Cursor::new(&body[MAGIC.len()..]);
    let mut parse = || -> Option<SnapshotData> {
        let watermark = c.u64()?;
        let first_uncovered_segment = if v1 { 0 } else { c.u64()? };
        let tracking = c.u8()? != 0;
        let n_touched = c.u32()?;
        // Clamp the pre-allocation: the count is untrusted input, and a
        // CRC-valid crafted file must not force a huge allocation before
        // the short body is detected (the loop still reads every id).
        let mut touched = Vec::with_capacity((n_touched as usize).min(1 << 20));
        for _ in 0..n_touched {
            touched.push(c.id()?);
        }
        let n_objects = c.u64()?;
        let mut objects = Vec::with_capacity(n_objects.min(1 << 20) as usize);
        for _ in 0..n_objects {
            objects.push(c.object()?);
        }
        if !c.is_empty() {
            return None;
        }
        Some(SnapshotData {
            watermark,
            first_uncovered_segment,
            tracking,
            touched,
            objects,
        })
    };
    parse().ok_or_else(|| corrupt("undecodable body"))
}

/// Writes a snapshot for `watermark` into `dir` (tmp, fsync, atomic
/// rename, directory fsync), then removes any older snapshot files.
/// Returns the live path — and returns at all only once the new
/// snapshot is durable, so callers may safely discard what it replaces
/// (older snapshots here, the covered WAL segments in
/// [`crate::Store::snapshot_now`]). The other arguments are the
/// [`SnapshotData`] fields of the same names.
pub fn write_snapshot(
    dir: &Path,
    watermark: u64,
    first_uncovered_segment: u64,
    tracking: bool,
    touched: &[ObjectId],
    objects: &[&Object],
) -> Result<PathBuf, DurabilityError> {
    let bytes = encode(
        watermark,
        first_uncovered_segment,
        tracking,
        touched,
        objects,
    );
    let live = snapshot_path(dir, watermark);
    let tmp = live.with_extension("snap.tmp");
    let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
    // The data must be durable *before* the rename: power loss can make
    // the rename durable ahead of unforced data writes, which would
    // leave a corrupt live snapshot after the fallbacks are pruned.
    f.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, &live).map_err(|e| io_err(&live, e))?;
    fsync_dir(dir)?;
    // Older snapshots are now redundant; removal failures are benign
    // (loading picks the newest valid file regardless).
    for (path, mark) in list_snapshots(dir)? {
        if mark < watermark {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(live)
}

/// Lists `(path, watermark)` for every live (non-`.tmp`) snapshot file
/// in `dir`, ascending by watermark.
fn list_snapshots(dir: &Path) -> Result<Vec<(PathBuf, u64)>, DurabilityError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(dir, e)),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(mark) = name
            .strip_prefix(PREFIX)
            .and_then(|rest| rest.strip_suffix(SUFFIX))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((entry.path(), mark));
    }
    out.sort_by_key(|&(_, mark)| mark);
    Ok(out)
}

/// Loads the newest snapshot in `dir` that passes its integrity checks,
/// trying older ones if the newest is damaged. `None` when no valid
/// snapshot exists (fresh directory, or all damaged).
pub fn load_latest(dir: &Path) -> Result<Option<SnapshotData>, DurabilityError> {
    for (path, _) in list_snapshots(dir)?.into_iter().rev() {
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        if let Ok(data) = decode(&bytes, &path) {
            return Ok(Some(data));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use interop_model::{ClassName, Value};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("interop-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn objects() -> Vec<Object> {
        vec![
            Object::new(ObjectId::new(1, 2), ClassName::new("B")).with("x", 2i64),
            Object::new(ObjectId::new(1, 0), ClassName::new("A")).with("x", 0i64),
            Object::new(ObjectId::new(1, 1), ClassName::new("B")).with("x", Value::str("one")),
        ]
    }

    #[test]
    fn roundtrip_and_canonical_order() {
        let dir = tmp_dir("roundtrip");
        let objs = objects();
        let refs: Vec<&Object> = objs.iter().collect();
        let touched = vec![ObjectId::new(1, 1)];
        write_snapshot(&dir, 5, 6, true, &touched, &refs).unwrap();
        let data = load_latest(&dir).unwrap().unwrap();
        assert_eq!(data.watermark, 5);
        assert_eq!(data.first_uncovered_segment, 6);
        assert!(data.tracking);
        assert_eq!(data.touched, touched);
        // Per-class sorted: A:0, then B:1, B:2.
        let ids: Vec<ObjectId> = data.objects.iter().map(|o| o.id).collect();
        assert_eq!(
            ids,
            vec![
                ObjectId::new(1, 0),
                ObjectId::new(1, 1),
                ObjectId::new(1, 2)
            ]
        );
        assert_eq!(
            data.objects[1].get(&interop_model::AttrName::new("x")),
            &Value::str("one")
        );
    }

    #[test]
    fn newer_snapshot_wins_and_older_are_pruned() {
        let dir = tmp_dir("newest");
        let objs = objects();
        let refs: Vec<&Object> = objs.iter().collect();
        write_snapshot(&dir, 1, 2, false, &[], &refs[..1]).unwrap();
        write_snapshot(&dir, 9, 10, false, &[], &refs).unwrap();
        let data = load_latest(&dir).unwrap().unwrap();
        assert_eq!(data.watermark, 9);
        assert_eq!(data.objects.len(), 3);
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1, "older pruned");
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let objs = objects();
        let refs: Vec<&Object> = objs.iter().collect();
        write_snapshot(&dir, 3, 4, false, &[], &refs[..2]).unwrap();
        // Hand-write a newer, damaged snapshot (bad CRC).
        let newer = snapshot_path(&dir, 8);
        let mut bytes = encode(8, 9, false, &[], &refs);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newer, &bytes).unwrap();
        let data = load_latest(&dir).unwrap().unwrap();
        assert_eq!(data.watermark, 3, "fell back past the damaged file");
    }

    #[test]
    fn iosnap01_files_still_load() {
        let dir = tmp_dir("v1");
        let objs = objects();
        let refs: Vec<&Object> = objs.iter().collect();
        // The IOSNAP01 layout: the IOSNAP02 one without the segment
        // field, under the old magic, with its own checksum.
        let v2 = encode(4, 5, true, &[ObjectId::new(1, 2)], &refs);
        let mut v1 = MAGIC_V1.to_vec();
        v1.extend_from_slice(&v2[MAGIC.len()..MAGIC.len() + 8]);
        v1.extend_from_slice(&v2[MAGIC.len() + 16..v2.len() - 4]);
        let crc = crc32(&v1);
        put_u32(&mut v1, crc);
        std::fs::write(snapshot_path(&dir, 4), &v1).unwrap();
        let data = load_latest(&dir).unwrap().unwrap();
        assert_eq!(data.watermark, 4);
        assert_eq!(data.first_uncovered_segment, 0, "no marker is skipped");
        assert!(data.tracking);
        assert_eq!(data.touched, vec![ObjectId::new(1, 2)]);
        assert_eq!(data.objects.len(), 3);
    }

    #[test]
    fn tmp_files_and_foreign_names_ignored() {
        let dir = tmp_dir("ignore");
        std::fs::write(dir.join("snapshot-00000000000000000009.snap.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hello").unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        let missing = dir.join("no-such-subdir");
        assert!(load_latest(&missing).unwrap().is_none());
    }
}
