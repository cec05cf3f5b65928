//! The write-ahead log: an append-only file of CRC32-framed, length-
//! prefixed records serialized from the same per-object deltas the
//! store's incremental index maintenance already computes.
//!
//! # Frame format
//!
//! ```text
//! +----------------+----------------+=================+
//! | len: u32 LE    | crc: u32 LE    | payload (len B) |
//! +----------------+----------------+=================+
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the payload bytes. A frame whose
//! header is short, whose payload is short, or whose CRC mismatches is
//! *torn*: replay stops at the end of the previous frame and the tail —
//! including any later frames that would individually validate — is
//! discarded and physically truncated on open. Replay therefore never
//! resurrects bytes written after a corruption point.
//!
//! # Commit-boundary atomicity
//!
//! A committed transaction is appended as one contiguous byte run:
//! `Begin{seq}`, its delta records, `Commit{seq}`. Replay buffers
//! deltas between `Begin` and the matching `Commit` and applies them
//! only when the `Commit` frame is intact — a crash mid-append loses
//! the whole transaction, never a prefix of it. Autocommitted single
//! operations are logged as one-delta transactions. A rolled-back
//! transaction contributes nothing but a [`WalRecord::Rollback`]
//! marker: its deltas (and the inverse deltas its undo operations
//! produce) are discarded before anything reaches the file.
//!
//! # Segments
//!
//! The log is a sequence of files `wal-{seq:020}.log` ([`SegmentedWal`]).
//! Appends go to the highest (*active*) segment; when it crosses the
//! size threshold it is *sealed* — one final `sync_data`, so every byte
//! of a sealed segment is durable by construction — and the next
//! segment is created (and the directory fsynced, so the new name
//! survives power loss). Recovery scans segments in ascending order
//! with the single-file torn-tail rules applied per segment, and stops
//! at the first torn segment or sequence gap: bytes past a corruption
//! point are not trusted, even when they live in a later file. Every
//! snapshot first seals the active segment if it holds anything, so a
//! snapshot at watermark `W` makes every sealed segment whose
//! transactions all have `seq <= W` redundant; pruning deletes those
//! files and fsyncs the directory once the snapshot is durable. That
//! is the only way the log shrinks: no segment is ever truncated to
//! discard acknowledged frames.
//!
//! # Group commit
//!
//! Every run reaches the log one way, [`SegmentedWal::append_run`],
//! which writes its frames without syncing and returns a [`WalAck`];
//! [`GroupSync`] owns every sync of the log and tracks which appends
//! a sync has covered. On [`WalAck::wait`] the first uncovered waiter
//! elects itself leader, issues **one** `sync_data` covering everything
//! appended so far, and wakes every covered waiter; runs appended while
//! it syncs form the next leader's batch. A single writer is a batch of
//! one: its wait syncs at once. A commit is acknowledged only after its
//! covering sync, so *acknowledged ≠ lost* is preserved: a crash can
//! lose only unacknowledged tail transactions.
//!
//! A failed sync **latches** the log, whichever path issued it: a
//! leader's sync or the seal of a segment (a snapshot's seal
//! included). After an fsync error the file's page-cache state is
//! unknowable and a retried fsync can falsely succeed, so from then on
//! nothing is appended, synced, sealed or acknowledged.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use interop_model::{AttrName, ClassName, Object, ObjectId, Value, R64};

/// Errors from the durability layer (WAL append/replay, snapshots).
#[derive(Clone, Debug, PartialEq)]
pub enum DurabilityError {
    /// An operating-system I/O failure (message includes the path).
    Io(String),
    /// A structurally invalid file: a CRC-valid frame whose payload
    /// does not decode, or a snapshot failing its integrity checks.
    /// (A *torn tail* is not an error — it is discarded silently.)
    Corrupt(String),
    /// Replayed data the model layer rejected — the log and the schema
    /// disagree (e.g. a schema change since the log was written).
    Model(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(m) => write!(f, "durability I/O error: {m}"),
            DurabilityError::Corrupt(m) => write!(f, "corrupt durability file: {m}"),
            DurabilityError::Model(m) => write!(f, "replayed data rejected: {m}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

fn io_err(path: &Path, e: std::io::Error) -> DurabilityError {
    DurabilityError::Io(format!("{}: {e}", path.display()))
}

/// Flushes directory metadata so a file just created in (or renamed
/// into) `dir` survives power loss — a data fsync alone does not make
/// the *name* durable. No-op on platforms without directory handles.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), DurabilityError> {
    #[cfg(unix)]
    {
        let f = File::open(dir).map_err(|e| io_err(dir, e))?;
        f.sync_all().map_err(|e| io_err(dir, e))?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// One logical WAL record. Delta records mirror the store's per-object
/// incremental deltas; the bracketing records carry transaction
/// structure; the tracking records persist the touched-id watermark the
/// incremental pipeline resumes from.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Opens transaction `seq` (monotonically increasing).
    Begin {
        /// The transaction sequence number.
        seq: u64,
    },
    /// A committed object insertion.
    DeltaInsert(Object),
    /// A committed single-attribute update.
    DeltaUpdate {
        /// Target object.
        id: ObjectId,
        /// Updated attribute.
        attr: AttrName,
        /// Value before the update (for diagnostics/audit; forward
        /// replay applies `new`).
        old: Value,
        /// Value after the update.
        new: Value,
    },
    /// A committed object removal.
    DeltaRemove {
        /// The removed object's id.
        id: ObjectId,
    },
    /// Closes transaction `seq`; replay applies the buffered deltas.
    Commit {
        /// The transaction sequence number (must match the open `Begin`).
        seq: u64,
    },
    /// A rolled-back transaction: nothing was committed (the marker
    /// exists for audit; replay discards any open transaction).
    Rollback,
    /// The touched-id log was drained ([`crate::Store::take_touched`]):
    /// the incremental-pipeline watermark advances past every commit
    /// before this record.
    TouchedDrain,
    /// Touched-id tracking was switched on or off.
    TrackTouched {
        /// The new tracking state.
        on: bool,
    },
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven. Vendored: the build environment
// has no crates.io access.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Binary codec (shared with the snapshot module).
// ---------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_id(out: &mut Vec<u8>, id: ObjectId) {
    put_u32(out, id.space());
    put_u64(out, id.serial());
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(r) => {
            out.push(3);
            put_u64(out, r.get().to_bits());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Set(items) => {
            out.push(5);
            put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item);
            }
        }
        Value::Ref(id) => {
            out.push(6);
            put_id(out, *id);
        }
    }
}

pub(crate) fn put_object(out: &mut Vec<u8>, obj: &Object) {
    put_id(out, obj.id);
    put_str(out, obj.class.as_str());
    put_u32(out, obj.attrs.len() as u32);
    for (attr, value) in &obj.attrs {
        put_str(out, attr.as_str());
        put_value(out, value);
    }
}

/// A bounds-checked payload reader; every accessor reports `None` past
/// the end (decoded into [`DurabilityError::Corrupt`] by callers).
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|s| Some(u64::from_le_bytes(s.try_into().ok()?)))
    }

    pub(crate) fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .and_then(|s| Some(i64::from_le_bytes(s.try_into().ok()?)))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    pub(crate) fn id(&mut self) -> Option<ObjectId> {
        let space = self.u32()?;
        let serial = self.u64()?;
        Some(ObjectId::new(space, serial))
    }

    pub(crate) fn value(&mut self) -> Option<Value> {
        match self.u8()? {
            0 => Some(Value::Null),
            1 => Some(Value::Bool(self.u8()? != 0)),
            2 => Some(Value::Int(self.i64()?)),
            3 => {
                let bits = self.u64()?;
                Some(Value::Real(R64::try_new(f64::from_bits(bits))?))
            }
            4 => Some(Value::str(self.str()?)),
            5 => {
                let n = self.u32()?;
                let mut items = std::collections::BTreeSet::new();
                for _ in 0..n {
                    items.insert(self.value()?);
                }
                Some(Value::Set(items))
            }
            6 => Some(Value::Ref(self.id()?)),
            _ => None,
        }
    }

    pub(crate) fn object(&mut self) -> Option<Object> {
        let id = self.id()?;
        let class = ClassName::new(self.str()?);
        let mut obj = Object::new(id, class);
        let n = self.u32()?;
        for _ in 0..n {
            let attr = AttrName::new(self.str()?);
            let value = self.value()?;
            obj.attrs.insert(attr, value);
        }
        Some(obj)
    }
}

// ---------------------------------------------------------------------
// Record <-> payload
// ---------------------------------------------------------------------

const TAG_BEGIN: u8 = 1;
const TAG_DELTA_INSERT: u8 = 2;
const TAG_DELTA_UPDATE: u8 = 3;
const TAG_DELTA_REMOVE: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_ROLLBACK: u8 = 6;
const TAG_TOUCHED_DRAIN: u8 = 7;
const TAG_TRACK_TOUCHED: u8 = 8;

#[cfg(test)]
fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(rec, &mut out);
    out
}

fn encode_record_into(rec: &WalRecord, out: &mut Vec<u8>) {
    match rec {
        WalRecord::Begin { seq } => {
            out.push(TAG_BEGIN);
            put_u64(out, *seq);
        }
        WalRecord::DeltaInsert(obj) => {
            out.push(TAG_DELTA_INSERT);
            put_object(out, obj);
        }
        WalRecord::DeltaUpdate { id, attr, old, new } => {
            out.push(TAG_DELTA_UPDATE);
            put_id(out, *id);
            put_str(out, attr.as_str());
            put_value(out, old);
            put_value(out, new);
        }
        WalRecord::DeltaRemove { id } => {
            out.push(TAG_DELTA_REMOVE);
            put_id(out, *id);
        }
        WalRecord::Commit { seq } => {
            out.push(TAG_COMMIT);
            put_u64(out, *seq);
        }
        WalRecord::Rollback => out.push(TAG_ROLLBACK),
        WalRecord::TouchedDrain => out.push(TAG_TOUCHED_DRAIN),
        WalRecord::TrackTouched { on } => {
            out.push(TAG_TRACK_TOUCHED);
            out.push(u8::from(*on));
        }
    }
}

fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        TAG_BEGIN => WalRecord::Begin { seq: c.u64()? },
        TAG_DELTA_INSERT => WalRecord::DeltaInsert(c.object()?),
        TAG_DELTA_UPDATE => WalRecord::DeltaUpdate {
            id: c.id()?,
            attr: AttrName::new(c.str()?),
            old: c.value()?,
            new: c.value()?,
        },
        TAG_DELTA_REMOVE => WalRecord::DeltaRemove { id: c.id()? },
        TAG_COMMIT => WalRecord::Commit { seq: c.u64()? },
        TAG_ROLLBACK => WalRecord::Rollback,
        TAG_TOUCHED_DRAIN => WalRecord::TouchedDrain,
        TAG_TRACK_TOUCHED => WalRecord::TrackTouched { on: c.u8()? != 0 },
        _ => return None,
    };
    if !c.is_empty() {
        return None; // trailing garbage inside a CRC-valid frame
    }
    Some(rec)
}

/// Encodes one record as a complete frame (`len`, `crc`, payload) —
/// also the corruption-test hook for crafting adversarial files.
pub fn frame_bytes(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    frame_bytes_into(rec, &mut out);
    out
}

/// [`frame_bytes`] into a caller-supplied buffer, so a multi-record
/// run encodes with no per-frame allocation: the payload is written in
/// place after a hole for the header, which is then backfilled with
/// the real length and CRC.
pub fn frame_bytes_into(rec: &WalRecord, out: &mut Vec<u8>) {
    let base = out.len();
    out.extend_from_slice(&[0u8; 8]);
    encode_record_into(rec, out);
    let payload_len = out.len() - base - 8;
    let crc = crc32(&out[base + 8..]);
    out[base..base + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[base + 4..base + 8].copy_from_slice(&crc.to_le_bytes());
}

/// The result of scanning a WAL file: every record up to the first torn
/// or corrupt frame, and the byte length of that valid prefix.
#[derive(Debug)]
pub struct WalScan {
    /// Decoded records of the valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Byte offset one past each decoded frame (parallel to `records`) —
    /// replay truncates to the offset after the last frame that closes a
    /// transaction, discarding an unterminated `Begin …` run along with
    /// the torn tail.
    pub frame_ends: Vec<u64>,
    /// Byte offset one past the last intact frame.
    pub valid_len: u64,
    /// Total file length as read (equal to `valid_len` for a clean log).
    pub file_len: u64,
}

/// Reads a WAL file, stopping at the first torn or undecodable frame.
/// A missing file scans as empty. Frames *after* a torn one are
/// discarded even if individually valid — bytes past a corruption point
/// are not trusted.
pub fn scan_wal(path: &Path) -> Result<WalScan, DurabilityError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(path, e)),
    };
    let file_len = bytes.len() as u64;
    let mut records = Vec::new();
    let mut frame_ends = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            break; // torn or clean end
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let Some(payload) = rest.get(8..8 + len) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break; // flipped bits
        }
        let Some(rec) = decode_record(payload) else {
            break; // CRC-valid but undecodable: stop, same as torn
        };
        records.push(rec);
        pos += 8 + len;
        frame_ends.push(pos as u64);
    }
    Ok(WalScan {
        records,
        frame_ends,
        valid_len: pos as u64,
        file_len,
    })
}

/// An append handle over one WAL segment file. Opening truncates the
/// file to `valid_len` (discarding any torn tail found by [`scan_wal`])
/// and positions at the end. [`WalWriter::append_buffered`] writes a
/// frame run without syncing; the owning [`SegmentedWal`] routes every
/// sync through [`GroupSync`].
#[derive(Debug)]
pub struct WalWriter {
    /// Shared so a group-commit leader can `sync_data` the segment
    /// without holding the store's commit path.
    file: Arc<File>,
    path: std::path::PathBuf,
    /// Set when a failed append left bytes in the file that could not
    /// be truncated away: the tail may be torn, and a later successful
    /// append would put valid frames *after* the tear — frames replay
    /// silently discards. A poisoned writer refuses all appends.
    poisoned: bool,
    /// The file length, maintained in memory so the append hot path
    /// does not pay a `seek` syscall per run. Every mutation of the
    /// file's length goes through this writer, which keeps it exact.
    cached_len: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path`, truncated to
    /// `valid_len` bytes. The parent directory is fsynced so a freshly
    /// created log file survives power loss.
    pub fn open(path: &Path, valid_len: u64) -> Result<Self, DurabilityError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(valid_len).map_err(|e| io_err(path, e))?;
        if let Some(parent) = path.parent() {
            fsync_dir(parent)?;
        }
        let mut w = WalWriter {
            file: Arc::new(file),
            path: path.to_path_buf(),
            poisoned: false,
            cached_len: 0,
        };
        w.cached_len = (&*w.file)
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&w.path, e))?;
        Ok(w)
    }

    /// Writes `records` as one contiguous frame run **without syncing**
    /// and returns the file length after the run. On failure the file
    /// is truncated back to its pre-append length, so the log never
    /// holds valid frames after torn bytes; if even the truncation
    /// fails the writer poisons itself and refuses further appends.
    pub fn append_buffered(&mut self, records: &[WalRecord]) -> Result<u64, DurabilityError> {
        if self.poisoned {
            return Err(DurabilityError::Io(format!(
                "{}: writer poisoned by an unrecovered append failure",
                self.path.display()
            )));
        }
        let start = self.cached_len;
        let mut buf = Vec::new();
        for rec in records {
            frame_bytes_into(rec, &mut buf);
        }
        if let Err(e) = (&*self.file).write_all(&buf) {
            let restored = self
                .file
                .set_len(start)
                .and_then(|()| (&*self.file).seek(SeekFrom::Start(start)).map(|_| ()));
            if restored.is_err() {
                self.poisoned = true;
            }
            return Err(io_err(&self.path, e));
        }
        self.cached_len = start + buf.len() as u64;
        Ok(self.cached_len)
    }

    /// Flushes previously buffered appends to stable storage.
    pub fn sync(&self) -> Result<(), DurabilityError> {
        self.file.sync_data().map_err(|e| io_err(&self.path, e))
    }

    /// The shared handle of the underlying segment file, for the
    /// group-commit leader's out-of-band `sync_data`.
    pub(crate) fn file(&self) -> &Arc<File> {
        &self.file
    }

    /// Swaps the underlying file handle — test hook for forcing append
    /// or sync failures (e.g. a read-only handle, or `/dev/null`, whose
    /// `fdatasync` fails) against a real log file.
    #[cfg(test)]
    fn swap_file_for_test(&mut self, file: Arc<File>) -> Arc<File> {
        std::mem::replace(&mut self.file, file)
    }
}

// ---------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------

/// The group-commit sync coordinator, through which every sync of the
/// log passes. Appends are serialized by the store's commit path and
/// numbered; `synced` is the highest append index a sync has covered.
/// Waiters for uncovered indexes elect a leader that issues one sync
/// for everything appended so far; the seal of a segment covers it
/// too.
///
/// A failed sync is **sticky**: after an fsync error the page cache
/// state of the file is unknowable, so the coordinator latches the
/// first error, every uncovered waiter (present and future) gets it,
/// no later sync covers anything, and the owning log refuses further
/// appends. Already-covered indexes stay acknowledged — their bytes
/// were flushed before the failure.
#[derive(Debug)]
pub struct GroupSync {
    state: Mutex<GroupState>,
    /// Waiters parked until a covering sync; notified when `synced`
    /// advances (or the sticky error lands).
    cv_ack: Condvar,
}

#[derive(Debug)]
struct GroupState {
    /// The active segment's shared handle — what the leader syncs.
    file: Option<Arc<File>>,
    /// Total appends so far (monotonic; 1-based).
    appended: u64,
    /// Highest append index known durable.
    synced: u64,
    /// A leader is currently syncing.
    leader: bool,
    /// First sync failure, sticky.
    error: Option<DurabilityError>,
}

impl GroupState {
    /// Records the outcome of a sync that covered appends up to
    /// `target`: success advances the durable watermark, failure
    /// latches. A sync that returns after the log latched covers
    /// nothing — a retried fsync can falsely succeed — and reports the
    /// latched error.
    fn settle(
        &mut self,
        target: u64,
        res: Result<(), DurabilityError>,
    ) -> Result<(), DurabilityError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match res {
            Ok(()) => {
                self.synced = self.synced.max(target);
                Ok(())
            }
            Err(e) => {
                self.error = Some(e.clone());
                Err(e)
            }
        }
    }
}

/// A claim ticket for one appended commit run: [`WalAck::wait`] blocks
/// until a covering sync makes the run durable (or reports the sticky
/// sync failure). Dropping an ack without waiting leaves the run to be
/// covered by whichever sync comes next — it is never lost, only
/// unacknowledged.
#[derive(Debug)]
pub struct WalAck {
    gc: Arc<GroupSync>,
    idx: u64,
}

impl WalAck {
    /// Blocks until the covering sync completes; the first uncovered
    /// waiter becomes the leader and issues it at once.
    pub fn wait(&self) -> Result<(), DurabilityError> {
        self.gc.wait_durable(self.idx)
    }
}

impl GroupSync {
    pub(crate) fn new() -> Arc<GroupSync> {
        Arc::new(GroupSync {
            state: Mutex::new(GroupState {
                file: None,
                appended: 0,
                synced: 0,
                leader: false,
                error: None,
            }),
            cv_ack: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GroupState> {
        // The mutex is never held across a panic-capable section.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fails once a sync has failed — the gate that stops a log from
    /// accepting appends it could never acknowledge.
    pub(crate) fn check(&self) -> Result<(), DurabilityError> {
        match &self.lock().error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Registers one buffered commit run in `file` and returns its ack.
    pub(crate) fn note_append(self: &Arc<Self>, file: &Arc<File>) -> WalAck {
        let mut s = self.lock();
        s.appended += 1;
        s.file = Some(Arc::clone(file));
        WalAck {
            gc: Arc::clone(self),
            idx: s.appended,
        }
    }

    /// Runs `sync`, which must make every append so far durable, and
    /// records its outcome: success covers them all, failure latches.
    /// Refused without running `sync` once the log has latched. The
    /// caller holds the append path exclusively, so nothing is
    /// appended while `sync` runs.
    pub(crate) fn sync_appended(
        &self,
        sync: impl FnOnce() -> Result<(), DurabilityError>,
    ) -> Result<(), DurabilityError> {
        let target = {
            let s = self.lock();
            if let Some(e) = &s.error {
                return Err(e.clone());
            }
            s.appended
        };
        let res = sync();
        let out = self.lock().settle(target, res);
        self.cv_ack.notify_all();
        out
    }

    fn wait_durable(&self, idx: u64) -> Result<(), DurabilityError> {
        let mut s = self.lock();
        loop {
            if s.synced >= idx {
                return Ok(());
            }
            if let Some(e) = &s.error {
                return Err(e.clone());
            }
            if s.leader {
                s = self.cv_ack.wait(s).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Leader election: sync everything appended so far, once.
            s.leader = true;
            let target = s.appended;
            let file = s.file.clone();
            drop(s);
            let res = match &file {
                Some(f) => f
                    .sync_data()
                    .map_err(|e| DurabilityError::Io(format!("wal sync: {e}"))),
                None => Ok(()),
            };
            s = self.lock();
            s.leader = false;
            // The loop head reports the outcome to this waiter.
            let _ = s.settle(target, res);
            self.cv_ack.notify_all();
        }
    }
}

// ---------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------

/// Rotate the active segment once it crosses this many bytes.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// The file name of WAL segment `seq` inside the durability directory.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:020}.log"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every WAL segment in `dir`, ascending by sequence. A missing
/// directory lists as empty.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let mut out = Vec::new();
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in rd {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// One scanned segment of a multi-file log.
#[derive(Debug)]
pub struct SegmentScan {
    /// The segment sequence number.
    pub seq: u64,
    /// The segment file's path.
    pub path: PathBuf,
    /// Its single-file scan (torn-tail rules apply per segment).
    pub scan: WalScan,
}

/// Scans the log's segments in ascending order. The scan stops after
/// the first *torn* segment (later files are bytes past a corruption
/// point and cannot be trusted) and at the first sequence **gap** (a
/// vanished middle segment means the surviving tail is not a prefix);
/// segments beyond the stop point are not returned — recovery deletes
/// their files.
pub fn scan_segments(dir: &Path) -> Result<Vec<SegmentScan>, DurabilityError> {
    let mut out: Vec<SegmentScan> = Vec::new();
    for (seq, path) in list_segments(dir)? {
        if let Some(prev) = out.last() {
            if seq != prev.seq + 1 {
                break; // gap: the tail is not a prefix
            }
        }
        let scan = scan_wal(&path)?;
        let torn = scan.valid_len < scan.file_len;
        out.push(SegmentScan { seq, path, scan });
        if torn {
            break; // nothing after a corruption point is trusted
        }
    }
    Ok(out)
}

/// A sealed (no-longer-active) segment and the highest transaction
/// sequence it can contain — the pruning criterion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SealedSegment {
    /// The segment's sequence number.
    pub seq: u64,
    /// Every transaction in the segment has `seq <= last_txn`.
    pub last_txn: u64,
}

/// The multi-segment write-ahead log: an append handle over the active
/// segment, rotation, pruning, and the shared [`GroupSync`] that owns
/// every sync and acknowledges appends. All mutating calls are
/// serialized by the owning store's commit path; only [`WalAck::wait`]
/// and the sync leader run outside it.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    active_seq: u64,
    active_len: u64,
    /// Highest transaction sequence appended to the active segment.
    active_last_txn: u64,
    writer: WalWriter,
    sealed: Vec<SealedSegment>,
    segment_bytes: u64,
    gc: Arc<GroupSync>,
}

impl SegmentedWal {
    /// Opens the log with `active_seq` as the active segment (created
    /// if absent, truncated to `valid_len`), over the already-recovered
    /// `sealed` list. `last_txn` is an upper bound on the transaction
    /// sequences already inside the active segment (recovery passes the
    /// recovered sequence counter; too high only delays pruning, never
    /// corrupts it).
    pub fn open(
        dir: &Path,
        active_seq: u64,
        valid_len: u64,
        sealed: Vec<SealedSegment>,
        last_txn: u64,
    ) -> Result<Self, DurabilityError> {
        let writer = WalWriter::open(&segment_path(dir, active_seq), valid_len)?;
        Ok(SegmentedWal {
            dir: dir.to_path_buf(),
            active_seq,
            active_len: valid_len,
            active_last_txn: last_txn,
            writer,
            sealed,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            gc: GroupSync::new(),
        })
    }

    /// Sets the rotation threshold (clamped to at least 1 byte).
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.segment_bytes = bytes.max(1);
    }

    /// The active segment's sequence number.
    pub fn active_seq(&self) -> u64 {
        self.active_seq
    }

    /// The sealed segments still on disk, ascending.
    pub fn sealed(&self) -> &[SealedSegment] {
        &self.sealed
    }

    /// Appends one transaction's frame run (or a standalone marker) to
    /// the active segment **without syncing**, rotating first when the
    /// threshold is crossed, and returns the ack to wait on — the only
    /// way a run reaches the log. `last_txn` is the highest transaction
    /// sequence in `records` (the current counter for markers). Refused
    /// once a sync has failed.
    pub fn append_run(
        &mut self,
        records: &[WalRecord],
        last_txn: u64,
    ) -> Result<WalAck, DurabilityError> {
        self.gc.check()?;
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        let end = self.writer.append_buffered(records)?;
        self.active_len = end;
        self.active_last_txn = self.active_last_txn.max(last_txn);
        Ok(self.gc.note_append(self.writer.file()))
    }

    /// Seals the active segment — one final sync, making every byte of
    /// it durable and acknowledging every outstanding append — and
    /// creates the next one (fsyncing the directory so the new name
    /// survives power loss). A failed seal latches the log, like any
    /// failed sync; refused once latched.
    pub fn rotate(&mut self) -> Result<(), DurabilityError> {
        self.gc.sync_appended(|| self.writer.sync())?;
        let writer = WalWriter::open(&segment_path(&self.dir, self.active_seq + 1), 0)?;
        self.sealed.push(SealedSegment {
            seq: self.active_seq,
            last_txn: self.active_last_txn,
        });
        self.active_seq += 1;
        self.writer = writer;
        self.active_len = 0;
        Ok(())
    }

    /// Seals the active segment if it holds anything (see
    /// [`SegmentedWal::rotate`]) — a snapshot's first step, after which
    /// every transaction appended so far sits in a sealed, durable
    /// segment the snapshot can cover. Refused once latched, even with
    /// nothing to seal, so a latched log never gets a snapshot.
    pub(crate) fn seal(&mut self) -> Result<(), DurabilityError> {
        self.gc.check()?;
        if self.active_len > 0 {
            self.rotate()?;
        }
        Ok(())
    }

    /// The sealed segments a snapshot at `watermark` makes redundant:
    /// every transaction in them replays as `seq <= watermark`.
    pub fn prunable(&self, watermark: u64) -> Vec<u64> {
        self.sealed
            .iter()
            .filter(|s| s.last_txn <= watermark)
            .map(|s| s.seq)
            .collect()
    }

    /// Deletes the given sealed segments and fsyncs the directory so
    /// the removal is durable. Unknown sequences are ignored (already
    /// pruned).
    pub fn prune_sealed(&mut self, seqs: &[u64]) -> Result<(), DurabilityError> {
        let mut removed = false;
        for &seq in seqs {
            if let Some(i) = self.sealed.iter().position(|s| s.seq == seq) {
                let path = segment_path(&self.dir, seq);
                std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                self.sealed.remove(i);
                removed = true;
            }
        }
        if removed {
            fsync_dir(&self.dir)?;
        }
        Ok(())
    }

    /// Swaps the active segment's file handle — test hook for forcing
    /// sync failures (see [`WalWriter::swap_file_for_test`]).
    #[cfg(test)]
    pub(crate) fn swap_file_for_test(&mut self, file: Arc<File>) -> Arc<File> {
        self.writer.swap_file_for_test(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> Object {
        Object::new(ObjectId::new(7, 42), ClassName::new("Item"))
            .with("isbn", "90-6196-001")
            .with("price", 29.5)
            .with("stock", 3i64)
            .with("ref?", true)
            .with("tags", Value::str_set(["a", "b"]))
            .with("pub", Value::Ref(ObjectId::new(1, 9)))
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_roundtrip() {
        let records = vec![
            WalRecord::Begin { seq: 3 },
            WalRecord::DeltaInsert(obj()),
            WalRecord::DeltaUpdate {
                id: ObjectId::new(7, 42),
                attr: AttrName::new("price"),
                old: Value::real(29.5),
                new: Value::Null,
            },
            WalRecord::DeltaRemove {
                id: ObjectId::new(7, 42),
            },
            WalRecord::Commit { seq: 3 },
            WalRecord::Rollback,
            WalRecord::TouchedDrain,
            WalRecord::TrackTouched { on: true },
            WalRecord::TrackTouched { on: false },
        ];
        for rec in &records {
            let payload = encode_record(rec);
            assert_eq!(decode_record(&payload).as_ref(), Some(rec));
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage_and_bad_tags() {
        let mut payload = encode_record(&WalRecord::Rollback);
        payload.push(0);
        assert_eq!(decode_record(&payload), None, "trailing garbage");
        assert_eq!(decode_record(&[99]), None, "unknown tag");
        assert_eq!(decode_record(&[]), None, "empty payload");
        // Truncated object payload.
        let full = encode_record(&WalRecord::DeltaInsert(obj()));
        assert_eq!(decode_record(&full[..full.len() - 3]), None);
    }

    #[test]
    fn failed_append_never_leaves_bytes_ahead_of_acknowledged_frames() {
        let dir = std::env::temp_dir().join(format!("interop-wal-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = segment_path(&dir, 1);
        let mut w = WalWriter::open(&path, 0).unwrap();
        let good_len = w
            .append_buffered(&[WalRecord::Begin { seq: 1 }, WalRecord::Commit { seq: 1 }])
            .unwrap();
        w.sync().unwrap();
        // Swap in a read-only handle: the write fails, the truncate-back
        // fails too, and the writer must poison itself rather than let a
        // later append land after a possible tear.
        let real = w.swap_file_for_test(Arc::new(File::open(&path).unwrap()));
        assert!(matches!(
            w.append_buffered(&[WalRecord::Rollback]),
            Err(DurabilityError::Io(_))
        ));
        drop(w.swap_file_for_test(real));
        let err = w.append_buffered(&[WalRecord::Rollback]).unwrap_err();
        assert!(
            matches!(&err, DurabilityError::Io(m) if m.contains("poisoned")),
            "writable again, but the writer stays poisoned: {err}"
        );
        // The acknowledged prefix is untouched on disk.
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.valid_len, good_len);
        assert_eq!(scan.file_len, good_len, "no torn bytes were persisted");
        assert_eq!(scan.records.len(), 2);
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("interop-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run(seq: u64) -> Vec<WalRecord> {
        vec![WalRecord::Begin { seq }, WalRecord::Commit { seq }]
    }

    /// The single writer's commit: append, then wait for the ack.
    fn append_synced(wal: &mut SegmentedWal, seq: u64) {
        wal.append_run(&run(seq), seq).unwrap().wait().unwrap();
    }

    #[test]
    fn grouped_acks_are_covered_by_one_leader_sync() {
        let dir = scratch("group");
        let wal = &mut SegmentedWal::open(&dir, 1, 0, Vec::new(), 0).unwrap();
        let acks: Vec<WalAck> = (1..=3)
            .map(|seq| wal.append_run(&run(seq), seq).unwrap())
            .collect();
        // Three appended, none synced yet. Waiting from several threads
        // elects one leader, whose one sync covers every run appended
        // before it.
        std::thread::scope(|s| {
            for ack in &acks {
                s.spawn(move || ack.wait().expect("covered by the group sync"));
            }
        });
        // A later waiter finds its index already durable.
        acks[0].wait().unwrap();
        let scan = scan_wal(&segment_path(&dir, 1)).unwrap();
        assert_eq!(scan.records.len(), 6, "all three runs on disk");
    }

    #[test]
    fn ack_epochs_survive_rotation_and_seal() {
        let dir = scratch("epochs");
        let mut wal = SegmentedWal::open(&dir, 1, 0, Vec::new(), 0).unwrap();
        let a1 = wal.append_run(&run(1), 1).unwrap();
        // Rotation syncs the sealed segment — the pending ack is
        // durable even though no waiter ever became leader, and the
        // epoch counters must say so despite the file position of the
        // *new* segment restarting at 0.
        wal.rotate().unwrap();
        a1.wait().expect("sealed segments are durable");
        let a2 = wal.append_run(&run(2), 2).unwrap();
        // A snapshot's seal is the same rotation; sealing again with
        // nothing appended leaves the empty active segment in place.
        wal.seal().unwrap();
        a2.wait().expect("the seal syncs everything it seals");
        wal.seal().unwrap();
        assert_eq!(wal.active_seq(), 3, "an empty segment is not sealed");
        let a3 = wal.append_run(&run(3), 3).unwrap();
        a3.wait().expect("post-seal appends get fresh epochs");
        assert_eq!(
            wal.sealed().iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn rotation_seals_prunes_and_lists_in_order() {
        let dir = scratch("rotate");
        let mut wal = SegmentedWal::open(&dir, 1, 0, Vec::new(), 0).unwrap();
        append_synced(&mut wal, 1);
        wal.rotate().unwrap();
        append_synced(&mut wal, 2);
        wal.rotate().unwrap();
        append_synced(&mut wal, 3);
        assert_eq!(wal.active_seq(), 3);
        let listed: Vec<u64> = list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(listed, vec![1, 2, 3], "ascending sequence order");
        // Everything up to txn 2 is snapshotted: both sealed segments
        // qualify and are deleted; the active segment never does.
        assert_eq!(wal.prunable(2), vec![1, 2]);
        wal.prune_sealed(&[1, 2]).unwrap();
        let listed: Vec<u64> = list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(listed, vec![3], "covered sealed segments deleted");
        assert_eq!(wal.prunable(99), Vec::<u64>::new());
    }

    #[test]
    fn scan_segments_stops_at_gap_and_torn_segment() {
        let dir = scratch("gap");
        let mut wal = SegmentedWal::open(&dir, 1, 0, Vec::new(), 0).unwrap();
        append_synced(&mut wal, 1);
        wal.rotate().unwrap();
        append_synced(&mut wal, 2);
        wal.rotate().unwrap();
        append_synced(&mut wal, 3);
        // Tear the middle segment: everything after it is unreachable.
        let mid = segment_path(&dir, 2);
        let bytes = std::fs::read(&mid).unwrap();
        std::fs::write(&mid, &bytes[..bytes.len() - 1]).unwrap();
        let scans = scan_segments(&dir).unwrap();
        assert_eq!(
            scans.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![1, 2],
            "the torn segment is the last one scanned"
        );
        // A sequence gap has the same effect.
        std::fs::remove_file(&mid).unwrap();
        let scans = scan_segments(&dir).unwrap();
        assert_eq!(
            scans.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![1],
            "nothing past a missing sequence number is trusted"
        );
    }

    #[test]
    fn failed_rotation_leaves_no_segment_gap() {
        let dir = scratch("rotate-open");
        let mut wal = SegmentedWal::open(&dir, 1, 0, Vec::new(), 0).unwrap();
        wal.set_segment_bytes(1);
        append_synced(&mut wal, 1);
        // A directory squatting on the next segment's name makes
        // opening it fail after the seal succeeded.
        std::fs::create_dir(segment_path(&dir, 2)).unwrap();
        assert!(wal.append_run(&run(2), 2).is_err());
        std::fs::remove_dir(segment_path(&dir, 2)).unwrap();
        append_synced(&mut wal, 2);
        assert_eq!(
            scan_segments(&dir)
                .unwrap()
                .iter()
                .map(|s| s.seq)
                .collect::<Vec<_>>(),
            vec![1, 2],
            "the retried rotation reuses the next sequence number"
        );
    }

    /// Swaps `/dev/null` in as the active segment's handle: writes to
    /// it succeed, and `fdatasync` fails with `EINVAL` — a sync failure
    /// on demand. Returns the real handle.
    #[cfg(target_os = "linux")]
    fn fail_syncs(wal: &mut SegmentedWal) -> Arc<File> {
        let null = OpenOptions::new().write(true).open("/dev/null").unwrap();
        wal.swap_file_for_test(Arc::new(null))
    }

    /// Puts the real handle back and checks that the log stays latched:
    /// a sync that succeeded now could be a retried fsync falsely
    /// reporting success, so every later append and sync is refused.
    #[cfg(target_os = "linux")]
    fn assert_latched(wal: &mut SegmentedWal, real: Arc<File>) {
        drop(wal.swap_file_for_test(real));
        for seq in [8, 9] {
            assert!(wal.append_run(&run(seq), seq).is_err(), "append refused");
            assert!(wal.rotate().is_err(), "seal refused");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_seal_latches_the_log() {
        let dir = scratch("latch-seal");
        let mut wal = SegmentedWal::open(&dir, 1, 0, Vec::new(), 0).unwrap();
        let ack = wal.append_run(&run(1), 1).unwrap();
        let real = fail_syncs(&mut wal);
        assert!(wal.rotate().is_err(), "the seal's sync fails");
        assert_eq!(wal.active_seq(), 1, "nothing was sealed");
        assert_latched(&mut wal, real);
        assert!(
            ack.wait().is_err(),
            "the unsealed run is never acknowledged"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn failed_leader_sync_latches_the_log() {
        let dir = scratch("latch-leader");
        let mut wal = SegmentedWal::open(&dir, 1, 0, Vec::new(), 0).unwrap();
        let durable = wal.append_run(&run(1), 1).unwrap();
        durable.wait().unwrap();
        let real = fail_syncs(&mut wal);
        let ack = wal.append_run(&run(2), 2).unwrap();
        assert!(ack.wait().is_err(), "the leader's sync fails");
        durable
            .wait()
            .expect("covered before the failure: acknowledged for good");
        assert_latched(&mut wal, real);
    }

    #[test]
    fn nan_real_refuses_to_decode() {
        // A hand-crafted Real(NaN) payload must not produce a Value —
        // R64's NaN-freedom invariant holds even for hostile files.
        let mut payload = vec![TAG_DELTA_UPDATE];
        put_id(&mut payload, ObjectId::new(0, 0));
        put_str(&mut payload, "a");
        put_value(&mut payload, &Value::Null);
        payload.push(3); // Real tag
        put_u64(&mut payload, f64::NAN.to_bits());
        assert_eq!(decode_record(&payload), None);
    }
}
