//! Crash-safe on-disk snapshot store with epoch retention and rollback.
//!
//! The paper's release-once DP model makes durability privacy-critical:
//! a released synopsis that is lost must be rebuilt, and rebuilding
//! spends *fresh* ε. So every installed snapshot is persisted so that a
//! crash at **any** instruction boundary leaves the store recoverable to
//! a whole epoch — the old one or the fully committed new one, never a
//! blend, never a wedge.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   MANIFEST                          append-only record log (see below)
//!   snap-<corpus:08x>-<epoch:016x>.dpsf   one snapshot payload per install
//!   *.tmp                             in-flight writes (removed at recovery)
//! ```
//!
//! `MANIFEST` opens with an 8-byte header (`DPSM`, LE `u16` version, two
//! zero bytes) followed by fixed-size 44-byte records:
//!
//! | field | bytes | meaning |
//! |---|---|---|
//! | `corpus` | 4 | shard / corpus id |
//! | `epoch` | 8 | durable epoch this record installs |
//! | `src_epoch` | 8 | epoch whose payload file holds the bytes (= `epoch` for a fresh persist; an older epoch for a rollback record) |
//! | `len` | 8 | payload length in bytes |
//! | `fnv` | 8 | FNV-1a of the payload |
//! | `sum` | 8 | FNV-1a of the 36 bytes above (per-record checksum) |
//!
//! ## Persist protocol (the crash-point enumeration)
//!
//! ```text
//! write snap.tmp → fsync(snap.tmp) → rename(snap.tmp, snap) → fsync(dir)
//!   → append MANIFEST record → fsync(MANIFEST)          [= commit point]
//! ```
//!
//! A crash strictly before the manifest fsync leaves at worst a torn
//! temp file or a torn trailing record; recovery truncates the manifest
//! to its last valid record prefix, discards records whose payload is
//! missing or fails its checksum (falling back to the next older
//! epoch), and deletes unreferenced files. A crash after the commit
//! point recovers the new epoch. There is no in-between state.
//!
//! ## Fault injection
//!
//! All mutating filesystem traffic goes through the [`StoreIo`] trait.
//! [`RealIo`] is the production implementation; [`FaultyIo`] wraps it
//! with a deterministic [`FaultPlan`] that kills the process-equivalent
//! (every later operation fails) at the N-th operation, optionally after
//! writing only a byte prefix — so tests enumerate every crash point
//! between "start persist" and "manifest committed" and assert the
//! recovery invariant at each one.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dpsc_private_count::codec::fnv1a;
use dpsc_private_count::FrozenSynopsis;

use crate::trace::{TraceEvent, TraceKind, TraceRing};

/// Manifest file name inside the store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Manifest header: magic + LE version + two reserved zero bytes.
pub const MANIFEST_HEADER: [u8; 8] = *b"DPSM\x01\x00\x00\x00";
/// Fixed size of one manifest record (payload + trailing checksum).
pub const MANIFEST_RECORD_LEN: usize = 44;

/// The payload file name for `(corpus, epoch)`.
pub fn snap_file_name(corpus: u32, epoch: u64) -> String {
    format!("snap-{corpus:08x}-{epoch:016x}.dpsf")
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble (including injected crashes under test).
    Io(std::io::Error),
    /// A payload or manifest structure failed validation.
    Corrupt(String),
    /// A rollback target that is not retained (never persisted, already
    /// pruned by retention, or its payload no longer validates).
    UnknownEpoch {
        /// Corpus the rollback addressed.
        corpus: u32,
        /// The requested durable epoch.
        epoch: u64,
        /// Epochs currently retained for the corpus (rollback targets).
        retained: Vec<u64>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store io error: {e}"),
            Self::Corrupt(what) => write!(f, "store corruption: {what}"),
            Self::UnknownEpoch { corpus, epoch, retained } => write!(
                f,
                "epoch {epoch} of corpus {corpus} is not retained (retained: {retained:?})"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The filesystem surface the store drives. Production uses [`RealIo`];
/// tests wrap it in [`FaultyIo`] to enumerate crash points
/// deterministically. Reads are part of the trait so a "dead" faulty io
/// also refuses reads — after a simulated crash nothing else runs.
pub trait StoreIo: Send + Sync + fmt::Debug {
    /// Creates (truncating) `path` and writes `bytes`.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Appends `bytes` to `path`, creating it if missing.
    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// fsyncs `path`'s contents.
    fn sync_file(&self, path: &Path) -> std::io::Result<()>;
    /// fsyncs the directory entry table of `dir` (makes renames durable).
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
    /// Reads a whole file.
    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Lists the entries of `dir`.
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>>;
}

/// The production [`StoreIo`]: plain `std::fs`, real fsyncs.
#[derive(Debug, Default)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        // Opening a directory read-only and fsyncing it is the portable
        // std spelling of fsync(dirfd) on Linux.
        File::open(dir)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }
}

/// One deterministic crash schedule for [`FaultyIo`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// 0-based index of the *mutating* operation at which the simulated
    /// crash fires ([`usize::MAX`] = never crash — counting mode).
    pub crash_at: usize,
    /// When the crash lands on `write_file`/`append_file`: how many
    /// bytes actually hit the disk first (`None` = zero). Ignored for
    /// other operations.
    pub partial_bytes: Option<usize>,
    /// Make `sync_file`/`sync_dir` silent no-ops (they still count as
    /// operations, so crash indices stay stable across plans). Models a
    /// build that "skips fsync"; on a live filesystem the data still
    /// lands, so this knob is about schedule enumeration, not about
    /// simulating page-cache loss.
    pub skip_fsync: bool,
}

impl FaultPlan {
    /// A plan that never crashes — used to count a flow's operations.
    pub fn counting() -> Self {
        Self { crash_at: usize::MAX, partial_bytes: None, skip_fsync: false }
    }

    /// Crash before the `n`-th mutating operation.
    pub fn crash_at(n: usize) -> Self {
        Self { crash_at: n, partial_bytes: None, skip_fsync: false }
    }

    /// Crash at operation `n` after `bytes` bytes of it were written.
    pub fn crash_mid_write(n: usize, bytes: usize) -> Self {
        Self { crash_at: n, partial_bytes: Some(bytes), skip_fsync: false }
    }
}

/// A [`StoreIo`] that simulates a crash mid-persist: at the planned
/// operation it optionally writes a byte prefix, then *dies* — every
/// subsequent call (reads included) fails, exactly as if the process had
/// been killed at that instruction.
#[derive(Debug)]
pub struct FaultyIo {
    inner: RealIo,
    plan: FaultPlan,
    ops: AtomicUsize,
    dead: AtomicBool,
}

impl FaultyIo {
    /// Wraps the real filesystem under `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self { inner: RealIo, plan, ops: AtomicUsize::new(0), dead: AtomicBool::new(false) }
    }

    /// Mutating operations executed so far (counting mode's output: run
    /// a flow with [`FaultPlan::counting`], read this, then enumerate
    /// `crash_at` over `0..ops_executed()`).
    pub fn ops_executed(&self) -> usize {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether the simulated crash has fired.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn injected() -> std::io::Error {
        std::io::Error::other("injected crash (FaultyIo)")
    }

    /// Admission for one mutating op: returns its index, or the injected
    /// error once dead.
    fn gate(&self) -> std::io::Result<usize> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(Self::injected());
        }
        Ok(self.ops.fetch_add(1, Ordering::SeqCst))
    }

    fn maybe_die(&self, op: usize) -> std::io::Result<()> {
        if op == self.plan.crash_at {
            self.dead.store(true, Ordering::SeqCst);
            return Err(Self::injected());
        }
        Ok(())
    }

    fn faulty_write(
        &self,
        path: &Path,
        bytes: &[u8],
        write: impl Fn(&Path, &[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let op = self.gate()?;
        if op == self.plan.crash_at {
            let keep = self.plan.partial_bytes.unwrap_or(0).min(bytes.len());
            let _ = write(path, &bytes[..keep]);
            self.dead.store(true, Ordering::SeqCst);
            return Err(Self::injected());
        }
        write(path, bytes)
    }
}

impl StoreIo for FaultyIo {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.faulty_write(path, bytes, |p, b| self.inner.write_file(p, b))
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.faulty_write(path, bytes, |p, b| self.inner.append_file(p, b))
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        let op = self.gate()?;
        self.maybe_die(op)?;
        if self.plan.skip_fsync {
            return Ok(());
        }
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        let op = self.gate()?;
        self.maybe_die(op)?;
        if self.plan.skip_fsync {
            return Ok(());
        }
        self.inner.sync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let op = self.gate()?;
        self.maybe_die(op)?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        let op = self.gate()?;
        self.maybe_die(op)?;
        self.inner.remove_file(path)
    }

    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(Self::injected());
        }
        self.inner.read_file(path)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(Self::injected());
        }
        self.inner.list_dir(dir)
    }
}

/// One committed manifest record (see the module docs for the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestRecord {
    /// Corpus id.
    pub corpus: u32,
    /// Durable epoch this record installs.
    pub epoch: u64,
    /// Epoch whose payload file carries the bytes (= `epoch` for a fresh
    /// persist, older for a rollback re-install).
    pub src_epoch: u64,
    /// Payload length.
    pub len: u64,
    /// Payload FNV-1a.
    pub fnv: u64,
}

impl ManifestRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&self.corpus.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.src_epoch.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.fnv.to_le_bytes());
        let sum = fnv1a(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
        debug_assert_eq!(out.len() - start, MANIFEST_RECORD_LEN);
    }

    /// Decodes one record; `None` when the checksum does not match
    /// (torn or bit-flipped — the last-valid-prefix scan stops here).
    fn decode(raw: &[u8; MANIFEST_RECORD_LEN]) -> Option<Self> {
        let body = &raw[..MANIFEST_RECORD_LEN - 8];
        let stored = u64::from_le_bytes(raw[MANIFEST_RECORD_LEN - 8..].try_into().ok()?);
        if fnv1a(body) != stored {
            return None;
        }
        let u32at = |i: usize| u32::from_le_bytes(raw[i..i + 4].try_into().expect("4 bytes"));
        let u64at = |i: usize| u64::from_le_bytes(raw[i..i + 8].try_into().expect("8 bytes"));
        Some(Self {
            corpus: u32at(0),
            epoch: u64at(4),
            src_epoch: u64at(12),
            len: u64at(20),
            fnv: u64at(28),
        })
    }
}

/// A snapshot the manifest replay chose to serve for one corpus: the
/// newest epoch whose payload exists, matches its recorded checksum, and
/// decodes as a valid synopsis.
#[derive(Debug, Clone)]
pub struct RecoveredSnapshot {
    /// Corpus id.
    pub corpus: u32,
    /// The durable epoch recovered.
    pub epoch: u64,
    /// The validated payload, shared so the shard manager can serve the
    /// snapshot straight from it.
    pub bytes: Arc<[u8]>,
}

#[derive(Debug)]
struct StoreState {
    /// Per corpus, retained records ascending by epoch.
    records: BTreeMap<u32, Vec<ManifestRecord>>,
    next_epoch: u64,
    manifest_exists: bool,
    /// What the open-time replay chose to serve; drained by
    /// [`SnapshotStore::take_recovered`].
    recovered: Vec<RecoveredSnapshot>,
}

/// The crash-safe snapshot store. One instance owns one directory; all
/// mutation is serialized under an internal lock, so manifest order
/// always matches install order.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    io: Box<dyn StoreIo>,
    retain: usize,
    state: Mutex<StoreState>,
    /// Optional trace sink ([`SnapshotStore::set_tracer`]): each of the
    /// six mutating persist ops emits a `store_op` event as it
    /// completes, plus `persist_committed`/`rollback_committed` at the
    /// commit points. Events carry corpus/epoch/lengths — never payload
    /// bytes.
    tracer: Mutex<Option<Arc<TraceRing>>>,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store at `dir` with the real
    /// filesystem, replaying the manifest: torn tails are truncated,
    /// corrupt or missing payloads discarded (older epochs take over),
    /// leftover temp and unreferenced files removed. `retain` is the
    /// per-corpus epoch retention depth (clamped to ≥ 1).
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, StoreError> {
        Self::open_with(dir, retain, Box::new(RealIo))
    }

    /// [`Self::open`] with an injected [`StoreIo`] (fault injection).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        retain: usize,
        io: Box<dyn StoreIo>,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = Self {
            dir,
            io,
            retain: retain.max(1),
            state: Mutex::new(StoreState {
                records: BTreeMap::new(),
                next_epoch: 1,
                manifest_exists: false,
                recovered: Vec::new(),
            }),
            tracer: Mutex::new(None),
        };
        store.recover()?;
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Wires a trace ring into the store (the server does this at bind
    /// when tracing is enabled). Emits `store_op` events for the six
    /// mutating persist ops and commit events thereafter.
    pub fn set_tracer(&self, ring: Arc<TraceRing>) {
        *self.tracer.lock().expect("tracer slot not poisoned") = Some(ring);
    }

    fn trace(&self, ev: TraceEvent) {
        if let Some(ring) = self.tracer.lock().expect("tracer slot not poisoned").as_ref() {
            ring.emit(ev);
        }
    }

    /// A `store_op` event: `detail` indexes the six-op persist sequence
    /// (0 write-temp, 1 sync-temp, 2 rename, 3 sync-dir, 4
    /// manifest-append, 5 manifest-sync — the commit point), emitted as
    /// each op *completes*, so the trace shows exactly how far a persist
    /// got.
    fn trace_store_op(&self, corpus: u32, epoch: u64, op_index: u64) {
        self.trace(TraceEvent {
            shard: corpus,
            epoch,
            detail: op_index,
            ..TraceEvent::new(TraceKind::StoreOp)
        });
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_NAME)
    }

    /// Drains the snapshots the open-time replay selected (newest valid
    /// epoch per corpus, ascending by corpus id). The server installs
    /// these before serving.
    pub fn take_recovered(&self) -> Vec<RecoveredSnapshot> {
        std::mem::take(&mut self.state.lock().expect("store state not poisoned").recovered)
    }

    /// The rollback-targetable epochs of `corpus`, ascending (empty when
    /// the corpus has never been persisted).
    pub fn retained_epochs(&self, corpus: u32) -> Vec<u64> {
        let st = self.state.lock().expect("store state not poisoned");
        st.records.get(&corpus).map(|v| v.iter().map(|r| r.epoch).collect()).unwrap_or_default()
    }

    /// The manifest replay (runs once, at open). Everything here must
    /// tolerate arbitrary prior crash points.
    fn recover(&self) -> Result<(), StoreError> {
        let mut st = self.state.lock().expect("store state not poisoned");
        let raw = match self.io.read_file(&self.manifest_path()) {
            Ok(b) => Some(b),
            Err(e) if e.kind() == ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        // Last-valid-prefix scan. A corrupt *header* means no record was
        // ever committed (the header lands with the first append): fresh
        // start, like an absent manifest.
        let mut ordered: Vec<ManifestRecord> = Vec::new();
        let mut valid_len = 0usize;
        let mut dirty = false;
        if let Some(raw) = &raw {
            st.manifest_exists = true;
            if raw.len() >= MANIFEST_HEADER.len() && raw[..8] == MANIFEST_HEADER {
                let mut off = MANIFEST_HEADER.len();
                while off + MANIFEST_RECORD_LEN <= raw.len() {
                    let chunk: &[u8; MANIFEST_RECORD_LEN] =
                        raw[off..off + MANIFEST_RECORD_LEN].try_into().expect("sized chunk");
                    match ManifestRecord::decode(chunk) {
                        Some(rec) => {
                            ordered.push(rec);
                            off += MANIFEST_RECORD_LEN;
                        }
                        None => break,
                    }
                }
                valid_len = off;
            }
            dirty = valid_len != raw.len();
        }

        // Group per corpus; duplicate epochs keep the last occurrence
        // (re-persist after a half-committed attempt).
        let mut records: BTreeMap<u32, Vec<ManifestRecord>> = BTreeMap::new();
        for rec in &ordered {
            let v = records.entry(rec.corpus).or_default();
            v.retain(|r| r.epoch != rec.epoch);
            v.push(*rec);
            st.next_epoch = st.next_epoch.max(rec.epoch + 1).max(rec.src_epoch + 1);
        }
        for v in records.values_mut() {
            v.sort_by_key(|r| r.epoch);
        }

        // Choose the newest *valid* epoch per corpus; records newer than
        // the chosen one (their payloads are torn/corrupt/missing) are
        // dropped for good. Older records stay as rollback targets and
        // are re-validated on demand.
        let mut recovered = Vec::new();
        for (&corpus, recs) in records.iter_mut() {
            let mut chosen_at: Option<usize> = None;
            for i in (0..recs.len()).rev() {
                match self.validate_record(corpus, &recs[i]) {
                    Ok(bytes) => {
                        recovered.push(RecoveredSnapshot { corpus, epoch: recs[i].epoch, bytes });
                        chosen_at = Some(i);
                        break;
                    }
                    Err(_) => dirty = true,
                }
            }
            match chosen_at {
                Some(i) => recs.truncate(i + 1),
                None => {
                    dirty |= !recs.is_empty();
                    recs.clear();
                }
            }
        }
        records.retain(|_, v| !v.is_empty());

        st.records = records;
        st.recovered = recovered;

        // Repair pass: rewrite the manifest without the torn tail /
        // discarded records (atomic — a crash here re-runs the same
        // replay next time), then sweep temp files and unreferenced
        // payloads.
        if dirty {
            self.rewrite_manifest(&mut st)?;
        }
        self.sweep_files(&st);
        Ok(())
    }

    /// Reads and fully validates one record's payload: existence,
    /// length, FNV-1a, and a structural synopsis decode (codec checksums
    /// reject bit rot the manifest fnv might theoretically collide on).
    fn validate_record(&self, corpus: u32, rec: &ManifestRecord) -> Result<Arc<[u8]>, StoreError> {
        let path = self.dir.join(snap_file_name(corpus, rec.src_epoch));
        let bytes = self.io.read_file(&path)?;
        if bytes.len() as u64 != rec.len {
            return Err(StoreError::Corrupt(format!(
                "{}: {} bytes on disk, {} recorded",
                path.display(),
                bytes.len(),
                rec.len
            )));
        }
        if fnv1a(&bytes) != rec.fnv {
            return Err(StoreError::Corrupt(format!(
                "{}: payload checksum mismatch",
                path.display()
            )));
        }
        let bytes: Arc<[u8]> = bytes.into();
        FrozenSynopsis::from_bytes_shared(Arc::clone(&bytes))
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))?;
        Ok(bytes)
    }

    /// Durably persists `bytes` as a new epoch of `corpus`, returning
    /// the epoch. The caller is expected to have validated `bytes` as a
    /// decodable synopsis (the server does); the store records length
    /// and checksum regardless. On `Err` nothing is committed: recovery
    /// serves the prior epoch. Failed attempts burn their epoch, so a
    /// retry never reuses a file a half-dead attempt may have touched.
    pub fn persist(&self, corpus: u32, bytes: &[u8]) -> Result<u64, StoreError> {
        let mut st = self.state.lock().expect("store state not poisoned");
        let epoch = st.next_epoch;
        st.next_epoch += 1;

        let name = snap_file_name(corpus, epoch);
        let final_path = self.dir.join(&name);
        let tmp_path = self.dir.join(format!("{name}.tmp"));
        self.io.write_file(&tmp_path, bytes)?;
        self.trace_store_op(corpus, epoch, 0);
        self.io.sync_file(&tmp_path)?;
        self.trace_store_op(corpus, epoch, 1);
        self.io.rename(&tmp_path, &final_path)?;
        self.trace_store_op(corpus, epoch, 2);
        self.io.sync_dir(&self.dir)?;
        self.trace_store_op(corpus, epoch, 3);

        let rec = ManifestRecord {
            corpus,
            epoch,
            src_epoch: epoch,
            len: bytes.len() as u64,
            fnv: fnv1a(bytes),
        };
        self.commit_record(&mut st, rec)?;
        self.trace(TraceEvent {
            shard: corpus,
            epoch,
            len: bytes.len().min(u32::MAX as usize) as u32,
            ..TraceEvent::new(TraceKind::PersistCommitted)
        });
        Ok(epoch)
    }

    /// Re-installs retained `epoch` of `corpus` under a fresh durable
    /// epoch (append-only: the manifest gains a record aliasing the old
    /// payload file). Returns the new epoch and the validated payload.
    pub fn rollback(&self, corpus: u32, epoch: u64) -> Result<(u64, Arc<[u8]>), StoreError> {
        let mut st = self.state.lock().expect("store state not poisoned");
        let Some(rec) = st
            .records
            .get(&corpus)
            .and_then(|v| v.iter().rev().find(|r| r.epoch == epoch))
            .copied()
        else {
            let retained = st
                .records
                .get(&corpus)
                .map(|v| v.iter().map(|r| r.epoch).collect())
                .unwrap_or_default();
            return Err(StoreError::UnknownEpoch { corpus, epoch, retained });
        };
        let bytes = self.validate_record(corpus, &rec)?;
        let new_epoch = st.next_epoch;
        st.next_epoch += 1;
        let new_rec = ManifestRecord { corpus, epoch: new_epoch, ..rec };
        self.commit_record(&mut st, new_rec)?;
        // detail carries the epoch rolled back to.
        self.trace(TraceEvent {
            shard: corpus,
            epoch: new_epoch,
            detail: epoch,
            ..TraceEvent::new(TraceKind::RollbackCommitted)
        });
        Ok((new_epoch, bytes))
    }

    /// Appends (and fsyncs) one record — the commit point — then applies
    /// retention. Writes the header first when the manifest is new.
    fn commit_record(&self, st: &mut StoreState, rec: ManifestRecord) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(MANIFEST_HEADER.len() + MANIFEST_RECORD_LEN);
        if !st.manifest_exists {
            buf.extend_from_slice(&MANIFEST_HEADER);
        }
        rec.encode_into(&mut buf);
        let manifest = self.manifest_path();
        self.io.append_file(&manifest, &buf)?;
        self.trace_store_op(rec.corpus, rec.epoch, 4);
        self.io.sync_file(&manifest)?;
        self.trace_store_op(rec.corpus, rec.epoch, 5);
        st.manifest_exists = true;
        st.records.entry(rec.corpus).or_default().push(rec);

        // Retention runs after the commit point: its failures (or a
        // crash inside it) never lose the just-committed epoch, so they
        // do not fail the persist.
        self.apply_retention(st);
        Ok(())
    }

    /// Prunes beyond-retention records, compacts the manifest, and
    /// deletes unreferenced payload files. Best-effort by design: every
    /// step is either atomic (compaction via temp + rename) or
    /// individually harmless (deleting a file no retained record
    /// references).
    fn apply_retention(&self, st: &mut StoreState) {
        let mut dropped = false;
        let retain = self.retain;
        for recs in st.records.values_mut() {
            if recs.len() > retain {
                recs.drain(..recs.len() - retain);
                dropped = true;
            }
        }
        if !dropped {
            return;
        }
        // Compact first: once the manifest stops referencing a record,
        // deleting its file cannot strand a reader. (Even with a crash
        // between the two, recovery only *needs* each corpus's newest
        // file, which retention never deletes.)
        let _ = self.rewrite_manifest(st);
        self.sweep_files(st);
    }

    /// Atomically replaces the manifest with header + the retained
    /// records (same write-temp → fsync → rename → fsync(dir) protocol
    /// as payloads).
    fn rewrite_manifest(&self, st: &mut StoreState) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(
            MANIFEST_HEADER.len()
                + st.records.values().map(Vec::len).sum::<usize>() * MANIFEST_RECORD_LEN,
        );
        buf.extend_from_slice(&MANIFEST_HEADER);
        let mut all: Vec<ManifestRecord> = st.records.values().flatten().copied().collect();
        all.sort_by_key(|r| r.epoch);
        for rec in &all {
            rec.encode_into(&mut buf);
        }
        let manifest = self.manifest_path();
        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        self.io.write_file(&tmp, &buf)?;
        self.io.sync_file(&tmp)?;
        self.io.rename(&tmp, &manifest)?;
        self.io.sync_dir(&self.dir)?;
        st.manifest_exists = true;
        Ok(())
    }

    /// Deletes leftover `*.tmp` files and `snap-*.dpsf` payloads no
    /// retained record references (finishing any interrupted persist or
    /// retention pass). Best-effort.
    fn sweep_files(&self, st: &StoreState) {
        let live: std::collections::BTreeSet<String> = st
            .records
            .iter()
            .flat_map(|(&corpus, recs)| {
                recs.iter().map(move |r| snap_file_name(corpus, r.src_epoch))
            })
            .collect();
        let Ok(entries) = self.io.list_dir(&self.dir) else { return };
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let stale_tmp = name.ends_with(".tmp");
            let dead_snap =
                name.starts_with("snap-") && name.ends_with(".dpsf") && !live.contains(name);
            if stale_tmp || dead_snap {
                let _ = self.io.remove_file(&path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_dpcore::budget::PrivacyParams;
    use dpsc_private_count::{CountMode, PrivateCountStructure};
    use dpsc_strkit::trie::Trie;
    use std::sync::atomic::AtomicU64;

    fn synopsis_bytes(count: f64) -> Vec<u8> {
        let mut trie: Trie<f64> = Trie::new(count * 2.0);
        let a = trie.insert_path(b"a", |_| 0.0);
        *trie.value_mut(a) = count;
        PrivateCountStructure::new(
            trie,
            CountMode::Substring,
            PrivacyParams::pure(1.0),
            1.0,
            1.0,
            4,
            3,
        )
        .freeze()
        .to_bytes()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("dpsc-store-unit-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_dir_is_a_fresh_start_not_an_error() {
        let dir = scratch_dir("fresh");
        let store = SnapshotStore::open(&dir, 3).expect("empty dir opens");
        assert!(store.take_recovered().is_empty());
        assert!(store.retained_epochs(0).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_then_reopen_recovers_bit_identical_bytes() {
        let dir = scratch_dir("roundtrip");
        let bytes = synopsis_bytes(5.0);
        let store = SnapshotStore::open(&dir, 3).unwrap();
        let epoch = store.persist(7, &bytes).unwrap();
        assert_eq!(epoch, 1);
        drop(store);

        let store = SnapshotStore::open(&dir, 3).unwrap();
        let rec = store.take_recovered();
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].corpus, 7);
        assert_eq!(rec[0].epoch, 1);
        assert_eq!(&rec[0].bytes[..], &bytes[..], "recovered payload is bit-identical");
        // Epochs continue past the recovered ones.
        assert_eq!(store.persist(7, &bytes).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_old_epochs_and_their_files() {
        let dir = scratch_dir("retain");
        let store = SnapshotStore::open(&dir, 2).unwrap();
        for i in 0..5 {
            store.persist(0, &synopsis_bytes(i as f64 + 1.0)).unwrap();
        }
        assert_eq!(store.retained_epochs(0), vec![4, 5]);
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("snap-"))
            .collect();
        assert_eq!(files.len(), 2, "pruned payload files are deleted: {files:?}");
        // The compacted manifest replays to the same retained set.
        drop(store);
        let store = SnapshotStore::open(&dir, 2).unwrap();
        assert_eq!(store.retained_epochs(0), vec![4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_re_installs_a_retained_epoch_under_a_new_one() {
        let dir = scratch_dir("rollback");
        let old_bytes = synopsis_bytes(1.0);
        let new_bytes = synopsis_bytes(2.0);
        let store = SnapshotStore::open(&dir, 4).unwrap();
        let e1 = store.persist(3, &old_bytes).unwrap();
        let e2 = store.persist(3, &new_bytes).unwrap();
        let (e3, bytes) = store.rollback(3, e1).unwrap();
        assert!(e3 > e2);
        assert_eq!(&bytes[..], &old_bytes[..]);
        // Reopen: the rollback record wins (newest epoch, old payload).
        drop(store);
        let store = SnapshotStore::open(&dir, 4).unwrap();
        let rec = store.take_recovered();
        assert_eq!(rec[0].epoch, e3);
        assert_eq!(&rec[0].bytes[..], &old_bytes[..]);
        // Unknown targets are typed errors carrying the retained list.
        match store.rollback(3, 999) {
            Err(StoreError::UnknownEpoch { retained, .. }) => {
                assert_eq!(retained, vec![e1, e2, e3])
            }
            other => panic!("expected UnknownEpoch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_mid_persist_recovers_the_old_epoch() {
        let dir = scratch_dir("crash");
        let old_bytes = synopsis_bytes(1.0);
        let new_bytes = synopsis_bytes(9.0);
        {
            let store = SnapshotStore::open(&dir, 3).unwrap();
            store.persist(0, &old_bytes).unwrap();
        }
        // Crash at the very first mutating op of the second persist
        // (partial payload temp write).
        {
            let io = Box::new(FaultyIo::new(FaultPlan::crash_mid_write(0, 7)));
            let store = SnapshotStore::open_with(&dir, 3, io).unwrap();
            store.take_recovered();
            assert!(matches!(store.persist(0, &new_bytes), Err(StoreError::Io(_))));
        }
        let store = SnapshotStore::open(&dir, 3).unwrap();
        let rec = store.take_recovered();
        assert_eq!(rec.len(), 1);
        assert_eq!(&rec[0].bytes[..], &old_bytes[..], "old epoch survives the torn persist");
        // The torn temp file was swept.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_io_counts_ops_deterministically() {
        let dir = scratch_dir("count");
        let bytes = synopsis_bytes(2.0);
        // write tmp, fsync tmp, rename, fsync dir, append manifest,
        // fsync manifest — six mutating ops, no retention activity.
        let ops = 6;
        let faulty = Arc::new(FaultyIo::new(FaultPlan::counting()));
        struct Shared(Arc<FaultyIo>);
        impl fmt::Debug for Shared {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)
            }
        }
        impl StoreIo for Shared {
            fn write_file(&self, p: &Path, b: &[u8]) -> std::io::Result<()> {
                self.0.write_file(p, b)
            }
            fn append_file(&self, p: &Path, b: &[u8]) -> std::io::Result<()> {
                self.0.append_file(p, b)
            }
            fn sync_file(&self, p: &Path) -> std::io::Result<()> {
                self.0.sync_file(p)
            }
            fn sync_dir(&self, p: &Path) -> std::io::Result<()> {
                self.0.sync_dir(p)
            }
            fn rename(&self, a: &Path, b: &Path) -> std::io::Result<()> {
                self.0.rename(a, b)
            }
            fn remove_file(&self, p: &Path) -> std::io::Result<()> {
                self.0.remove_file(p)
            }
            fn read_file(&self, p: &Path) -> std::io::Result<Vec<u8>> {
                self.0.read_file(p)
            }
            fn list_dir(&self, p: &Path) -> std::io::Result<Vec<PathBuf>> {
                self.0.list_dir(p)
            }
        }
        let store =
            SnapshotStore::open_with(&dir, 3, Box::new(Shared(Arc::clone(&faulty)))).unwrap();
        store.persist(0, &bytes).unwrap();
        assert_eq!(faulty.ops_executed(), ops, "persist is exactly {ops} mutating ops");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
