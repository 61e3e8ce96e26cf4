//! # rtft-wal — durable ingestion log with replay-as-fault-detection
//!
//! The streaming server (`rtft-serve`) accepts tokens over TCP and runs
//! them through a fault-tolerant fleet. Process-level redundancy masks
//! faults *inside* a job, but a crash of the server itself still loses
//! every buffered token. This crate closes that gap with a write-ahead
//! log in the paper's own spirit: because the pipelines are deterministic
//! Kahn networks, the log *is* a fault detector — re-running a logged
//! stream must reproduce the logged output digests bit-for-bit, and any
//! divergence is a detected transient fault in the original run.
//!
//! Five mechanisms, all std-only:
//!
//! * **Checksummed record frames** ([`WalRecord`]) — length-prefixed
//!   bodies guarded by the same streaming FNV-1a digest
//!   ([`rtft_kpn::Digest`]) the selector uses for output equivalence,
//!   XORed with a salt of the segment index, so each frame belongs to
//!   one life of one file.
//! * **Group commit, two durability classes** — [`Wal::append`] is
//!   durable on return, but concurrent appenders share fsyncs: one leader
//!   syncs while followers park on a condvar, and the batch size per
//!   fsync is recorded in the `wal.commit.batch` histogram.
//!   [`Wal::append_lazy`] is the same ordered write without the wait:
//!   the record rides the *next* fsync anyone asks for. One `sync_data`
//!   covers every byte written before it, so the durable log is always a
//!   prefix of the written log. The serve layer uses the lazy class for
//!   exactly one record kind, `Outputs`: tokens are logged before they
//!   are acknowledged, output digests are logged *in order* as each flush
//!   settles — derived state that recovery re-executes from the durable
//!   tokens when a crash outran the next commit.
//! * **Torn-tail recovery** — [`Wal::open`] scans the segments, truncates
//!   the first invalid frame of the final segment (a crash mid-write),
//!   and reports what it dropped; corruption in the *middle* of the log
//!   is refused rather than silently skipped.
//! * **Pre-filled segments** — the active segment is written with zeros
//!   ahead of its last frame, in steps that double from 64 KiB up to at
//!   most 1 MiB, and frames overwrite those zeros at the logical end. A
//!   commit's `sync_data` then finds the file size unchanged and writes
//!   data, not inode metadata. Every write also puts a zero length field
//!   behind its last frame. A remainder that starts with a zero length
//!   field is free space, not a torn record (no frame has one); it is cut
//!   off when a rotation seals a segment no later life reuses, when the
//!   last handle drops, and by [`Wal::open`].
//! * **Recycled segments** — with `retain_segments > 0`, the sealed
//!   segment a rotation retires is not deleted: it is renamed to the next
//!   index, its header rewritten, and frames overwrite its blocks, so
//!   once the first `retain_segments + 1` files exist no commit grows a
//!   file and no rotation creates or unlinks one. The previous life's
//!   frames carry another salt and read as free space; each header
//!   records where the segment before it was sealed, so the strict scan
//!   of a sealed segment stops exactly there.

#![warn(missing_docs)]

#[cfg(test)]
mod mutation;
mod record;
mod segment;

pub use record::{WalRecord, FRAME_HEADER, MAX_RECORD};
pub use segment::{segment_file_name, SEGMENT_HEADER, SEGMENT_MAGIC, SEGMENT_VERSION};

use record::salt_frame;
use rtft_obs::{Counter, Histogram, MetricsRegistry};
use segment::{encode_header, scan_dir, SegmentHeader};
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A segment's first zero-fill step. Each later step is as long as the
/// segment up to the frames it makes room for, so the file doubles, up
/// to [`PREFILL_MAX_STEP`].
const PREFILL_MIN_STEP: u64 = 64 << 10;

/// The longest zero-fill step: the most one append writes in zeros.
const PREFILL_MAX_STEP: u64 = 1 << 20;

/// The zeros a fill step writes, one chunk at a time. Never written, so
/// its pages stay the kernel's shared zero page; a fresh step-sized
/// buffer per step kept ≈ 0.1 MB more resident on `serve_durable`.
static ZEROS: [u8; PREFILL_MIN_STEP as usize] = [0; PREFILL_MIN_STEP as usize];

/// The zero length field every write puts behind its last frame, so the
/// scan finds the logical end even where a recycled file's stale bytes
/// follow it. The next write overwrites it with its first frame.
const END_MARK: usize = 4;

/// Configuration for opening a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Keep at most this many *sealed* segments (0 = keep all). A
    /// rotation past the count recycles the oldest as the next active
    /// segment. Retired segments shorten replay history; sequence numbers
    /// stay global.
    pub retain_segments: usize,
    /// Issue real fsyncs. Turning this off makes `append` a buffered
    /// write — useful for benchmarking the log structure itself.
    pub fsync: bool,
}

impl WalConfig {
    /// Defaults: 8 MiB segments, keep everything, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            retain_segments: 0,
            fsync: true,
        }
    }

    /// Set the rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(SEGMENT_HEADER as u64 + 1);
        self
    }

    /// Set the sealed-segment retention count (0 = unlimited).
    pub fn with_retention(mut self, segments: usize) -> Self {
        self.retain_segments = segments;
        self
    }

    /// Enable or disable fsync.
    pub fn with_fsync(mut self, on: bool) -> Self {
        self.fsync = on;
        self
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// Every valid record, in sequence order, with global sequence numbers.
    pub records: Vec<(u64, WalRecord)>,
    /// Records dropped by torn-tail truncation (0 or 1 per recovery).
    pub truncated_records: u64,
    /// Bytes physically truncated off the final segment from its torn
    /// frame on. A zero tail alone is free space, not counted here.
    pub truncated_bytes: u64,
    /// Segment files found.
    pub segments: u64,
    /// Wall-clock nanoseconds the scan took.
    pub recovery_ns: u64,
}

/// Summary of a read-only [`read_log`] scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogSummary {
    /// Valid records found.
    pub records: u64,
    /// Segment files scanned.
    pub segments: u64,
    /// Torn records at the tail (not truncated — the scan is read-only).
    pub truncated_records: u64,
    /// Torn bytes at the tail.
    pub truncated_bytes: u64,
}

struct WalState {
    file: Arc<File>,
    seg_index: u64,
    /// Logical length of the active segment: where the next frame goes.
    seg_len: u64,
    /// Physical length of the active segment: `seg_len` and the zeros
    /// (or, in a recycled file, the previous life's bytes) ahead of it.
    filled: u64,
    /// Global logical bytes written since open (commit targets).
    written: u64,
    /// Prefix of `written` known durable on disk.
    durable: u64,
    /// A leader is currently inside `sync_data`.
    syncing: bool,
    /// Appends since the last fsync began (group-commit batch size).
    batch_pending: u64,
    next_seq: u64,
    sealed: Vec<PathBuf>,
}

impl WalState {
    /// Cut the active segment's zero tail off, back to its logical length.
    fn trim(&mut self, trims: &Counter) -> io::Result<()> {
        if self.filled > self.seg_len {
            self.file.set_len(self.seg_len)?;
            self.filled = self.seg_len;
            trims.inc();
        }
        Ok(())
    }
}

struct WalInner {
    cfg: WalConfig,
    state: Mutex<WalState>,
    committed: Condvar,
    registry: MetricsRegistry,
    c_appends: Counter,
    c_append_bytes: Counter,
    c_fsyncs: Counter,
    c_rotations: Counter,
    c_pruned: Counter,
    c_recycled: Counter,
    c_prefill: Counter,
    c_trims: Counter,
    h_batch: Histogram,
}

impl Drop for WalInner {
    /// The last handle leaves the active segment at its logical length.
    /// An error leaves the zero tail behind, which is still free space.
    fn drop(&mut self) {
        let st = self
            .state
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let _ = st.trim(&self.c_trims);
    }
}

/// A durable append-only log. Cheap to clone; all clones share one file
/// and one group-commit queue.
#[derive(Clone)]
pub struct Wal {
    inner: Arc<WalInner>,
}

impl Wal {
    /// Open (or create) the log in `cfg.dir`, recovering existing
    /// segments. The torn tail of the final segment, if any, is
    /// physically truncated so the next append lands on a valid frame
    /// boundary. A zero tail is cut off too, and counted in `wal.trims`,
    /// not in [`Recovery`]: it is free space, not a record.
    pub fn open(cfg: WalConfig) -> io::Result<(Wal, Recovery)> {
        let started = Instant::now();
        fs::create_dir_all(&cfg.dir)?;

        let mut scans = scan_dir(&cfg.dir)?;
        let mut truncated_records = 0u64;
        let mut truncated_bytes = 0u64;

        // A final segment whose own header never hit the disk (torn, or
        // a recycled file still under its previous life's) contributes
        // nothing; remove it and fall back to the previous segment.
        while scans.last().is_some_and(|s| s.header_torn) {
            let torn = scans.pop().expect("non-empty");
            truncated_records += torn.torn_records;
            truncated_bytes += torn.torn_bytes;
            fs::remove_file(&torn.path)?;
        }

        let segments = scans.len() as u64;
        // Cut each segment back to its last valid frame: the torn tail of
        // the final one (the others were scanned strictly), and any free
        // tail — zeros a crash left before a trim, or an earlier life's
        // frames.
        let mut trims = 0u64;
        for scan in &scans {
            if scan.torn_bytes + scan.free_bytes > 0 {
                let f = OpenOptions::new().write(true).open(&scan.path)?;
                f.set_len(scan.valid_len)?;
                if cfg.fsync {
                    f.sync_data()?;
                }
                trims += u64::from(scan.free_bytes > 0);
            }
        }
        let (active, next_seq) = match scans.last() {
            Some(last) => {
                truncated_records += last.torn_records;
                truncated_bytes += last.torn_bytes;
                let file = OpenOptions::new().write(true).open(&last.path)?;
                ((last.index, file, last.valid_len), last.next_seq())
            }
            None => {
                let header = SegmentHeader {
                    index: 0,
                    base_seq: 0,
                    prev_end: 0,
                };
                let (file, len) = create_segment(&cfg, header)?;
                ((0, file, len), 0)
            }
        };

        let mut records = Vec::new();
        let mut sealed = Vec::new();
        for scan in &mut scans {
            if scan.index != active.0 {
                sealed.push(scan.path.clone());
            }
            records.append(&mut scan.records);
        }

        let registry = MetricsRegistry::new();
        let inner = WalInner {
            c_appends: registry.counter("wal.appends"),
            c_append_bytes: registry.counter("wal.append.bytes"),
            c_fsyncs: registry.counter("wal.fsyncs"),
            c_rotations: registry.counter("wal.rotations"),
            c_pruned: registry.counter("wal.segments.pruned"),
            c_recycled: registry.counter("wal.segments.recycled"),
            c_prefill: registry.counter("wal.prefill.bytes"),
            c_trims: registry.counter("wal.trims"),
            h_batch: registry.histogram("wal.commit.batch"),
            state: Mutex::new(WalState {
                file: Arc::new(active.1),
                seg_index: active.0,
                seg_len: active.2,
                filled: active.2,
                written: 0,
                durable: 0,
                syncing: false,
                batch_pending: 0,
                next_seq,
                sealed,
            }),
            committed: Condvar::new(),
            registry,
            cfg,
        };
        inner.c_trims.add(trims);
        let recovery_ns = started.elapsed().as_nanos() as u64;
        inner.registry.gauge("wal.recovery.ns").set(recovery_ns);
        inner
            .registry
            .counter("wal.recovery.records")
            .add(records.len() as u64);
        inner
            .registry
            .counter("wal.recovery.truncated.records")
            .add(truncated_records);
        inner
            .registry
            .counter("wal.recovery.truncated.bytes")
            .add(truncated_bytes);

        Ok((
            Wal {
                inner: Arc::new(inner),
            },
            Recovery {
                records,
                truncated_records,
                truncated_bytes,
                segments: segments.max(1),
                recovery_ns,
            },
        ))
    }

    /// Append one record durably. Returns its global sequence number.
    /// When the call returns, the record — and every record written
    /// before it, lazily or not — survives a crash (modulo
    /// `fsync: false`).
    pub fn append(&self, rec: &WalRecord) -> io::Result<u64> {
        let (seq, target) = self.write_frame(rec)?;
        self.commit(target)?;
        Ok(seq)
    }

    /// Append one record in log order *without* waiting for it to become
    /// durable. Returns its global sequence number. The record counts in
    /// `wal.appends` now and in the next fsync's `wal.commit.batch`, and
    /// is durable no later than the return of the next [`Wal::append`] or
    /// [`Wal::sync`] on this log, or the rotation that seals its segment.
    /// Until then a power cut may lose it — together with everything
    /// written after it, never instead of it. Meant for state the durable
    /// records before it can regenerate.
    pub fn append_lazy(&self, rec: &WalRecord) -> io::Result<u64> {
        self.write_frame(rec).map(|(seq, _)| seq)
    }

    /// Force everything appended so far onto disk.
    pub fn sync(&self) -> io::Result<()> {
        let target = self.lock().written;
        self.commit(target)
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// The log's metrics: `wal.appends`, `wal.fsyncs`, `wal.append.bytes`,
    /// `wal.commit.batch` (histogram), `wal.rotations`,
    /// `wal.segments.pruned` (retired segments deleted),
    /// `wal.segments.recycled` (retired segments reused as the next
    /// active one), `wal.prefill.bytes` (zeros written ahead of the
    /// frames), `wal.trims` (free tails cut off: at rotation, at open,
    /// and when the last handle drops), `wal.recovery.*`.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.inner.cfg.dir
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Write the frame under the state lock; returns (its seq, commit
    /// target). Durability happens in `commit`.
    fn write_frame(&self, rec: &WalRecord) -> io::Result<(u64, u64)> {
        let mut buf = Vec::new();
        rec.encode_frame_into(&mut buf);
        let len = buf.len() as u64;
        buf.extend_from_slice(&[0; END_MARK]);

        let mut st = self.lock();
        if st.seg_len >= self.inner.cfg.segment_bytes {
            self.rotate(&mut st)?;
        }
        salt_frame(&mut buf, st.seg_index);
        let end = st.seg_len + buf.len() as u64;
        if end > st.filled {
            self.prefill(&mut st, end)?;
        }
        st.file.write_all_at(&buf, st.seg_len)?;
        st.seg_len += len;
        st.written += len;
        st.batch_pending += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        let target = st.written;
        drop(st);

        self.inner.c_appends.inc();
        self.inner.c_append_bytes.add(len);
        Ok((seq, target))
    }

    /// Group commit: wait until at least `target` logical bytes are
    /// durable. The first waiter to find no sync in flight becomes the
    /// leader and fsyncs on behalf of everyone queued behind it.
    fn commit(&self, target: u64) -> io::Result<()> {
        let mut st = self.lock();
        loop {
            if st.durable >= target {
                return Ok(());
            }
            if st.syncing {
                st = self
                    .inner
                    .committed
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                continue;
            }
            st.syncing = true;
            let to = st.written;
            let batch = std::mem::take(&mut st.batch_pending);
            let file = Arc::clone(&st.file);
            drop(st);

            let res = if self.inner.cfg.fsync {
                file.sync_data()
            } else {
                Ok(())
            };

            st = self.lock();
            st.syncing = false;
            match res {
                Ok(()) => {
                    st.durable = st.durable.max(to);
                    self.inner.c_fsyncs.inc();
                    self.inner.h_batch.record(batch);
                    self.inner.committed.notify_all();
                }
                Err(e) => {
                    // Give the batch back so a retry re-counts it.
                    st.batch_pending += batch;
                    self.inner.committed.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Write one step of zeros past `end`, where the write about to be
    /// made stops, so the commits that follow overwrite blocks the file
    /// already has instead of growing it. Called with the state lock
    /// held. The step never reaches past `segment_bytes`: rotation seals
    /// the segment there.
    fn prefill(&self, st: &mut WalState, end: u64) -> io::Result<()> {
        let step = end.clamp(PREFILL_MIN_STEP, PREFILL_MAX_STEP);
        let to = (end + step).min(self.inner.cfg.segment_bytes).max(end);
        let mut at = end;
        while at < to {
            let n = (to - at).min(ZEROS.len() as u64);
            st.file.write_all_at(&ZEROS[..n as usize], at)?;
            at += n;
        }
        self.inner.c_prefill.add(to - end);
        st.filled = to;
        Ok(())
    }

    /// Seal the current segment and start the next one. Called with the
    /// state lock held. The old file is fully synced first, so rotation
    /// never leaves an unsynced sealed segment behind; at
    /// `retain_segments == 0` it is also trimmed to its logical length
    /// (nothing will reuse it). Past the retention count the oldest
    /// sealed segment becomes the next one instead of being deleted.
    fn rotate(&self, st: &mut WalState) -> io::Result<()> {
        let cfg = &self.inner.cfg;
        let retain = cfg.retain_segments;
        if retain == 0 {
            st.trim(&self.inner.c_trims)?;
        }
        if cfg.fsync {
            st.file.sync_data()?;
        }
        st.durable = st.durable.max(st.written);

        let header = SegmentHeader {
            index: st.seg_index + 1,
            base_seq: st.next_seq,
            prev_end: st.seg_len,
        };
        // Sealed segments past the count once this one seals: the oldest
        // is recycled, the rest (an open can find more) deleted.
        let leaving = match retain {
            0 => 0,
            _ => (st.sealed.len() + 1).saturating_sub(retain),
        };
        let (file, filled) = match st.sealed.first() {
            Some(oldest) if leaving > 0 => recycle_segment(cfg, oldest, header)?,
            _ => create_segment(cfg, header)?,
        };
        let old_path = cfg.dir.join(segment_file_name(st.seg_index));
        st.sealed.push(old_path);
        st.file = Arc::new(file);
        st.seg_index = header.index;
        st.seg_len = SEGMENT_HEADER as u64;
        st.filled = filled;
        self.inner.c_rotations.inc();
        self.inner.committed.notify_all();

        if leaving > 0 {
            self.inner.c_recycled.inc();
        }
        for path in st.sealed.drain(..leaving).skip(1) {
            fs::remove_file(&path)?;
            self.inner.c_pruned.inc();
        }
        Ok(())
    }
}

/// Read every record in a quiesced log directory without modifying it.
///
/// Used by replay verification: unlike [`Wal::open`] this never
/// truncates, so a suspect log can be examined in place while the
/// original server still owns it.
pub fn read_log(dir: &Path) -> io::Result<(Vec<(u64, WalRecord)>, LogSummary)> {
    let mut scans = scan_dir(dir)?;
    let mut records = Vec::new();
    let mut summary = LogSummary {
        records: 0,
        segments: scans.len() as u64,
        truncated_records: 0,
        truncated_bytes: 0,
    };
    for scan in &mut scans {
        summary.truncated_records += scan.torn_records;
        summary.truncated_bytes += scan.torn_bytes;
        records.append(&mut scan.records);
    }
    summary.records = records.len() as u64;
    Ok((records, summary))
}

/// Start segment `header.index` in a new file: header written and
/// synced, and the directory entry made durable, before any frame.
fn create_segment(cfg: &WalConfig, header: SegmentHeader) -> io::Result<(File, u64)> {
    let path = cfg.dir.join(segment_file_name(header.index));
    let file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)?;
    file.write_all_at(&encode_header(header), 0)?;
    if cfg.fsync {
        file.sync_all()?;
        sync_dir(&cfg.dir)?;
    }
    Ok((file, SEGMENT_HEADER as u64))
}

/// Start segment `header.index` in the retired segment file at `from`,
/// returning it with its physical length. The rename is made durable
/// before the header is rewritten: a crash before the rename leaves the
/// old file sealed where it was; after it, the file holds its old header
/// under its new name and is dropped by recovery as a segment that never
/// began. The new header needs no sync of its own: the commit that first
/// acknowledges a frame here syncs the file, header included.
fn recycle_segment(cfg: &WalConfig, from: &Path, header: SegmentHeader) -> io::Result<(File, u64)> {
    let file = OpenOptions::new().write(true).open(from)?;
    fs::rename(from, cfg.dir.join(segment_file_name(header.index)))?;
    if cfg.fsync {
        sync_dir(&cfg.dir)?;
    }
    file.write_all_at(&encode_header(header), 0)?;
    let filled = file.metadata()?.len();
    Ok((file, filled))
}

/// Make the directory's entries (a created or renamed segment) durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use segment::list_segments;
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("rtft-wal-{}-{tag}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn tokens(stream: u32, n: usize) -> WalRecord {
        WalRecord::Tokens {
            stream,
            payloads: (0..n)
                .map(|i| rtft_kpn::Bytes::from(vec![i as u8; i % 7 + 1]))
                .collect(),
        }
    }

    #[test]
    fn append_then_reopen_recovers_everything() {
        let dir = TempDir::new("roundtrip");
        let cfg = WalConfig::new(dir.path()).with_fsync(false);
        let (wal, rec) = Wal::open(cfg.clone()).expect("open");
        assert!(rec.records.is_empty());
        let mut written = Vec::new();
        for i in 0..20u32 {
            let r = tokens(i, i as usize % 5);
            let seq = wal.append(&r).expect("append");
            assert_eq!(seq, i as u64);
            written.push((seq, r));
        }
        wal.sync().expect("sync");
        drop(wal);

        let (wal, rec) = Wal::open(cfg).expect("reopen");
        assert_eq!(rec.records, written);
        assert_eq!(rec.truncated_records, 0);
        assert_eq!(wal.next_seq(), 20);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let dir = TempDir::new("torn");
        let cfg = WalConfig::new(dir.path()).with_fsync(false);
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        for i in 0..5u32 {
            wal.append(&tokens(i, 3)).expect("append");
        }
        drop(wal);

        // Simulate a crash mid-write: garbage after the last valid frame.
        let seg = dir.path().join(segment_file_name(0));
        let mut f = OpenOptions::new().append(true).open(&seg).expect("seg");
        f.write_all(&[0xAB; 29]).expect("garbage");
        drop(f);

        let (wal, rec) = Wal::open(cfg.clone()).expect("recover");
        assert_eq!(rec.records.len(), 5);
        assert_eq!(rec.truncated_records, 1);
        assert_eq!(rec.truncated_bytes, 29);
        // The truncation is physical: a fresh append continues the log.
        assert_eq!(wal.append(&tokens(9, 1)).expect("append"), 5);
        drop(wal);

        let (_, rec) = Wal::open(cfg).expect("reopen");
        assert_eq!(rec.records.len(), 6);
        assert_eq!(rec.truncated_records, 0);
    }

    #[test]
    fn rotation_preserves_global_sequence_numbers() {
        let dir = TempDir::new("rotate");
        let cfg = WalConfig::new(dir.path())
            .with_fsync(false)
            .with_segment_bytes(256);
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        for i in 0..40u32 {
            wal.append(&tokens(i, 4)).expect("append");
        }
        assert!(wal.registry().counter("wal.rotations").get() >= 2);
        drop(wal);

        let (_, rec) = Wal::open(cfg).expect("reopen");
        assert!(
            rec.segments >= 3,
            "expected several segments, got {}",
            rec.segments
        );
        let seqs: Vec<u64> = rec.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn retention_prunes_oldest_sealed_segments() {
        let dir = TempDir::new("retain");
        let cfg = WalConfig::new(dir.path())
            .with_fsync(false)
            .with_segment_bytes(256)
            .with_retention(2);
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        for i in 0..60u32 {
            wal.append(&tokens(i, 4)).expect("append");
        }
        // The steady state reuses the retired file instead of deleting it.
        assert!(wal.registry().counter("wal.segments.recycled").get() >= 1);
        assert_eq!(wal.registry().counter("wal.segments.pruned").get(), 0);
        drop(wal);

        let (_, rec) = Wal::open(cfg).expect("reopen");
        assert!(
            rec.segments <= 3,
            "retention bound violated: {}",
            rec.segments
        );
        // Sequence numbers survive pruning: the tail is intact and global.
        let last = rec.records.last().expect("records").0;
        assert_eq!(last, 59);
        let first = rec.records.first().expect("records").0;
        assert!(first > 0, "oldest records should have been pruned");
        let seqs: Vec<u64> = rec.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (first..=last).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_appends_all_become_durable() {
        let dir = TempDir::new("group");
        let cfg = WalConfig::new(dir.path()).with_segment_bytes(4096);
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for i in 0..25u32 {
                        wal.append(&tokens(t, (i % 3 + 1) as usize))
                            .expect("append");
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().expect("join");
        }
        let appends = wal.registry().counter("wal.appends").get();
        let fsyncs = wal.registry().counter("wal.fsyncs").get();
        assert_eq!(appends, 100);
        assert!(fsyncs >= 1);
        assert_eq!(wal.registry().histogram("wal.commit.batch").sum(), 100);
        drop(wal);

        let (_, rec) = Wal::open(cfg).expect("reopen");
        assert_eq!(rec.records.len(), 100);
    }

    fn outputs(stream: u32, first_seq: u64) -> WalRecord {
        WalRecord::Outputs {
            stream,
            first_seq,
            digests: vec![first_seq, !first_seq],
        }
    }

    #[test]
    fn lazy_append_rides_the_next_commit() {
        let dir = TempDir::new("lazy");
        let cfg = WalConfig::new(dir.path());
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        let fsyncs = wal.registry().counter("wal.fsyncs");
        let batch = wal.registry().histogram("wal.commit.batch");
        assert_eq!(wal.append_lazy(&outputs(0, 0)).expect("lazy"), 0);
        assert_eq!(wal.registry().counter("wal.appends").get(), 1);
        assert_eq!(fsyncs.get(), 0, "a lazy append waits for nobody");
        assert_eq!(wal.append(&tokens(0, 2)).expect("append"), 1);
        // The one fsync the synchronous append waited for covered both.
        assert_eq!((fsyncs.get(), batch.sum()), (1, 2));
        wal.sync().expect("sync");
        assert_eq!(fsyncs.get(), 1, "nothing was left to sync");
        drop(wal);

        let (_, rec) = Wal::open(cfg).expect("reopen");
        assert_eq!(
            rec.records,
            vec![(0, outputs(0, 0)), (1, tokens(0, 2))],
            "log order is write order"
        );
    }

    #[test]
    fn interleaved_lazy_and_synchronous_appends_stay_dense_and_counted() {
        let dir = TempDir::new("lazy-group");
        let cfg = WalConfig::new(dir.path()).with_segment_bytes(2048);
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    (0..50u64)
                        .map(|i| {
                            let seq = if i % 2 == 0 {
                                wal.append(&tokens(t, 2))
                            } else {
                                wal.append_lazy(&outputs(t, i))
                            };
                            seq.expect("append")
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut seqs: Vec<u64> = threads
            .into_iter()
            .flat_map(|th| th.join().expect("join"))
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..200).collect::<Vec<u64>>(), "dense and global");
        assert!(wal.registry().counter("wal.rotations").get() >= 1);

        // Each thread ended on a lazy append; the sync picks those up.
        wal.sync().expect("sync");
        assert_eq!(wal.registry().counter("wal.appends").get(), 200);
        assert_eq!(wal.registry().histogram("wal.commit.batch").sum(), 200);
        drop(wal);

        let (_, rec) = Wal::open(cfg).expect("reopen");
        let logged: Vec<u64> = rec.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(logged, (0..200).collect::<Vec<u64>>());
    }

    /// Rotation syncs the segment it seals whoever triggered it, so what
    /// a power cut may take is only ever the un-fsynced tail of the
    /// *active* segment.
    #[test]
    fn rotation_by_a_lazy_append_seals_everything_before_it() {
        let dir = TempDir::new("lazy-rotate");
        let cfg = WalConfig::new(dir.path()).with_segment_bytes(256);
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        let mut n = 0u64;
        while wal.registry().counter("wal.rotations").get() == 0 {
            assert_eq!(wal.append_lazy(&outputs(0, n)).expect("lazy"), n);
            n += 1;
        }
        assert_eq!(wal.registry().counter("wal.fsyncs").get(), 0);
        drop(wal);

        // The power cut: the active segment loses its one un-synced frame.
        let active = dir.path().join(segment_file_name(1));
        let f = OpenOptions::new().write(true).open(&active).expect("seg");
        f.set_len(SEGMENT_HEADER as u64).expect("cut");
        drop(f);

        let (wal, rec) = Wal::open(cfg).expect("reopen");
        let want: Vec<(u64, WalRecord)> = (0..n - 1).map(|i| (i, outputs(0, i))).collect();
        assert_eq!(rec.records, want, "the sealed segment is whole");
        assert_eq!(rec.truncated_records, 0);
        assert_eq!(wal.next_seq(), n - 1);
    }

    /// A three-record log (`StreamOpen`, `Tokens`, `Outputs`) in format
    /// version 2: segment header, then the frames.
    const V2_LOG: [u8; 149] = [
        0x52, 0x54, 0x46, 0x54, 0x57, 0x41, 0x4c, 0x31, 0x02, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x00, 0x00, 0x91, 0x52, 0xeb, 0x2a, //
        0x71, 0xa4, 0xbf, 0x32, 0x01, 0x07, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1d, 0x00, 0x00, 0x00, 0x59, //
        0xe0, 0xe6, 0x7b, 0x38, 0x55, 0x89, 0x2f, 0x02, 0x07, 0x00, 0x00, 0x00, //
        0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x00, //
        0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0xab, 0xab, 0xab, 0xab, 0xab, //
        0x29, 0x00, 0x00, 0x00, 0x6f, 0xdf, 0x2b, 0x56, 0xe0, 0xd7, 0x0f, 0x84, //
        0x03, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x03, 0x00, 0x00, 0x00, 0x44, 0x44, 0x33, 0x33, 0x22, 0x22, 0x11, //
        0x11, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, //
        0xff, 0xff, 0xff, 0xff, 0xff,
    ];

    /// Version 3's header of segment 0: base sequence number 0, no
    /// previous segment, then the digest of the fields before it.
    const V3_HEADER: [u8; SEGMENT_HEADER] = [
        0x52, 0x54, 0x46, 0x54, 0x57, 0x41, 0x4c, 0x31, 0x03, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x62, 0x52, 0xc6, 0xb6, 0x5d, 0x44, 0x45, 0x53, //
    ];

    /// Format version 3 byte for byte: segment 0's salt is 0, so only the
    /// header moved and version 2's frames follow it unchanged. A version
    /// 2 log is refused, and left as it was.
    #[test]
    fn the_v3_layout_is_pinned_and_a_v2_log_is_refused_intact() {
        let records = [
            WalRecord::StreamOpen {
                stream: 7,
                app: 1,
                redundancy: 2,
                tenant: 3,
            },
            WalRecord::Tokens {
                stream: 7,
                payloads: [vec![1u8, 2, 3], vec![], vec![0xAB; 5]]
                    .map(rtft_kpn::Bytes::from)
                    .to_vec(),
            },
            WalRecord::Outputs {
                stream: 7,
                first_seq: 0,
                digests: vec![0x1111_2222_3333_4444, 5, u64::MAX],
            },
        ];

        let old = TempDir::new("compat-old");
        fs::create_dir_all(old.path()).expect("dir");
        let seg = old.path().join(segment_file_name(0));
        fs::write(&seg, V2_LOG).expect("write");
        let refused = Wal::open(WalConfig::new(old.path())).err();
        assert_eq!(refused.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
        assert!(read_log(old.path()).is_err());
        assert_eq!(fs::read(&seg).expect("read"), V2_LOG);

        let new = TempDir::new("compat-new");
        let cfg = WalConfig::new(new.path());
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        wal.append(&records[0]).expect("open record");
        wal.append(&records[1]).expect("tokens");
        wal.append_lazy(&records[2]).expect("outputs");
        drop(wal);
        let written = fs::read(new.path().join(segment_file_name(0))).expect("read");
        assert_eq!(written[..SEGMENT_HEADER], V3_HEADER);
        assert_eq!(written[SEGMENT_HEADER..], V2_LOG[28..]);
        let (wal, rec) = Wal::open(cfg).expect("reopen");
        let got: Vec<&WalRecord> = rec.records.iter().map(|(_, r)| r).collect();
        assert_eq!(got, records.iter().collect::<Vec<_>>());
        assert_eq!(wal.next_seq(), 3);
    }

    #[test]
    fn read_log_matches_recovery_without_truncating() {
        let dir = TempDir::new("readlog");
        let cfg = WalConfig::new(dir.path()).with_fsync(false);
        let (wal, _) = Wal::open(cfg).expect("open");
        for i in 0..8u32 {
            wal.append(&tokens(i, 2)).expect("append");
        }
        drop(wal);
        let seg = dir.path().join(segment_file_name(0));
        let valid_len = fs::metadata(&seg).expect("meta").len();
        let mut f = OpenOptions::new().append(true).open(&seg).expect("seg");
        f.write_all(&[0x11; 7]).expect("garbage");
        drop(f);

        let (records, summary) = read_log(dir.path()).expect("read");
        assert_eq!(records.len(), 8);
        assert_eq!(summary.truncated_records, 1);
        assert_eq!(summary.truncated_bytes, 7);
        // Read-only: the torn bytes are still there afterwards.
        assert_eq!(fs::metadata(&seg).expect("meta").len(), valid_len + 7);
    }

    /// What a power cut would leave of a live log: its segment files as
    /// they stand, zero tails and all, copied into `to`.
    fn crash_image(wal: &Wal, to: &Path) {
        fs::create_dir_all(to).expect("image dir");
        for (_, path) in list_segments(wal.dir()).expect("list") {
            fs::copy(&path, to.join(path.file_name().expect("name"))).expect("copy");
        }
    }

    /// A live log (fsync on) holding five records in one pre-filled
    /// segment, the records, and the segment's logical length.
    fn prefilled_log(dir: &TempDir) -> (Wal, Vec<(u64, WalRecord)>, u64) {
        let (wal, _) = Wal::open(WalConfig::new(dir.path())).expect("open");
        let records: Vec<(u64, WalRecord)> = (0..5u32)
            .map(|i| (wal.append(&tokens(i, 3)).expect("append"), tokens(i, 3)))
            .collect();
        let frames: u64 = records
            .iter()
            .map(|(_, r)| r.encode_frame().len() as u64)
            .sum();
        (wal, records, SEGMENT_HEADER as u64 + frames)
    }

    /// Crash image (a): valid frames, then the zeros written ahead of
    /// them. Every record comes back, nothing counts as torn, the zeros
    /// are cut off, and the log goes on where it stopped.
    #[test]
    fn a_zero_tail_after_the_last_frame_is_free_space() {
        let live = TempDir::new("zero-tail-live");
        let (live_wal, records, logical) = prefilled_log(&live);
        let dir = TempDir::new("zero-tail");
        crash_image(&live_wal, dir.path());
        let seg = dir.path().join(segment_file_name(0));
        assert!(fs::metadata(&seg).expect("meta").len() > logical);

        let cfg = WalConfig::new(dir.path());
        let (wal, rec) = Wal::open(cfg.clone()).expect("recover");
        assert_eq!(rec.records, records);
        assert_eq!((rec.truncated_records, rec.truncated_bytes), (0, 0));
        assert_eq!(wal.registry().counter("wal.trims").get(), 1);
        assert_eq!(fs::metadata(&seg).expect("meta").len(), logical);
        assert_eq!(wal.append(&tokens(9, 1)).expect("append"), 5);
        drop(wal);

        let (_, rec) = Wal::open(cfg).expect("reopen");
        assert_eq!(rec.records.len(), 6);
        assert_eq!(rec.truncated_records, 0);
    }

    /// Crash image (b): a frame torn inside the pre-filled space. It is
    /// exactly one torn record, and `truncated_bytes` counts everything
    /// from the torn frame to the end of the file, zeros included: all
    /// of it is cut.
    #[test]
    fn a_torn_frame_before_a_zero_tail_is_one_torn_record() {
        let live = TempDir::new("torn-zero-live");
        let (live_wal, records, logical) = prefilled_log(&live);
        let dir = TempDir::new("torn-zero");
        crash_image(&live_wal, dir.path());
        let seg = dir.path().join(segment_file_name(0));
        let mut bytes = fs::read(&seg).expect("read");
        let frame = tokens(5, 3).encode_frame();
        let (at, half) = (logical as usize, frame.len() / 2);
        bytes[at..at + half].copy_from_slice(&frame[..half]);
        fs::write(&seg, &bytes).expect("tear");

        let (wal, rec) = Wal::open(WalConfig::new(dir.path())).expect("recover");
        assert_eq!(rec.records, records);
        assert_eq!(rec.truncated_records, 1);
        assert_eq!(rec.truncated_bytes, bytes.len() as u64 - logical);
        assert_eq!(wal.registry().counter("wal.trims").get(), 0);
        assert_eq!(fs::metadata(&seg).expect("meta").len(), logical);
    }

    /// Crash image (c): rotation syncs the segment it seals and then its
    /// trim is lost, so a *sealed* segment keeps a zero tail. The strict
    /// scan of `Wal::open` and the read-only `read_log` both take it
    /// whole, and `open` cuts the tail.
    #[test]
    fn a_sealed_segment_with_a_zero_tail_opens_under_the_strict_scan() {
        let dir = TempDir::new("sealed-zero");
        let cfg = WalConfig::new(dir.path()).with_segment_bytes(256);
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        let mut written = Vec::new();
        while wal.registry().counter("wal.rotations").get() == 0 {
            let rec = outputs(0, written.len() as u64);
            written.push((wal.append(&rec).expect("append"), rec));
        }
        drop(wal);
        let sealed = dir.path().join(segment_file_name(0));
        let logical = fs::metadata(&sealed).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&sealed).expect("seg");
        f.set_len(logical + PREFILL_MIN_STEP).expect("zero tail");
        drop(f);

        let (records, summary) = read_log(dir.path()).expect("read");
        assert_eq!(records, written);
        assert_eq!(
            (
                summary.segments,
                summary.truncated_records,
                summary.truncated_bytes
            ),
            (2, 0, 0)
        );
        let (_, rec) = Wal::open(cfg).expect("strict scan");
        assert_eq!(rec.records, written);
        assert_eq!((rec.truncated_records, rec.truncated_bytes), (0, 0));
        assert_eq!(fs::metadata(&sealed).expect("meta").len(), logical);
    }

    /// Crash image (d) is the clean one: after the last handle drops,
    /// every segment, sealed or active, is its header and its frames.
    #[test]
    fn a_clean_close_leaves_every_segment_at_its_logical_length() {
        let dir = TempDir::new("clean-close");
        let cfg = WalConfig::new(dir.path()).with_segment_bytes(150_000);
        let (wal, _) = Wal::open(cfg).expect("open");
        let rec = WalRecord::Tokens {
            stream: 0,
            payloads: vec![rtft_kpn::Bytes::from(vec![7u8; 1000])],
        };
        for _ in 0..400 {
            wal.append_lazy(&rec).expect("append");
        }
        wal.sync().expect("sync");
        assert!(wal.registry().counter("wal.prefill.bytes").get() > 0);
        let trims = wal.registry().counter("wal.trims");
        let before = trims.get();
        drop(wal);
        assert_eq!(trims.get(), before + 1, "the drop cut the active tail");

        let frame = rec.encode_frame().len() as u64;
        let scans = scan_dir(dir.path()).expect("scan");
        assert!(scans.len() >= 3, "{} segments", scans.len());
        let mut records = 0;
        for scan in &scans {
            let n = scan.records.len() as u64;
            assert_eq!(
                fs::metadata(&scan.path).expect("meta").len(),
                SEGMENT_HEADER as u64 + n * frame,
                "{}",
                scan.path.display()
            );
            records += n;
        }
        assert_eq!(records, 400);
    }

    #[test]
    fn empty_directory_opens_fresh() {
        let dir = TempDir::new("fresh");
        let (wal, rec) = Wal::open(WalConfig::new(dir.path())).expect("open");
        assert!(rec.records.is_empty());
        assert_eq!(rec.segments, 1);
        assert_eq!(wal.next_seq(), 0);
    }

    /// One record size whatever `i`, so a recycled segment's stale frames
    /// line up with the frames its new life writes over them.
    fn fixed(i: u64) -> WalRecord {
        WalRecord::Tokens {
            stream: i as u32,
            payloads: vec![rtft_kpn::Bytes::from(vec![i as u8; 40])],
        }
    }

    /// Recovery of one crash image, read-only and then by `Wal::open`:
    /// exactly `want` comes back, `torn` is what both report as torn
    /// (records, bytes), and the log appends densely behind `want`.
    fn recovers(image: &[(u64, Vec<u8>)], want: &[(u64, WalRecord)], torn: (u64, u64), what: &str) {
        let dir = TempDir::new("recycle-image");
        fs::create_dir_all(dir.path()).expect("image dir");
        for (index, bytes) in image {
            fs::write(dir.path().join(segment_file_name(*index)), bytes).expect("write");
        }
        let (records, summary) = read_log(dir.path()).expect(what);
        assert_eq!(records, want, "{what}: read_log");
        let read_torn = (summary.truncated_records, summary.truncated_bytes);
        assert_eq!(read_torn, torn, "{what}: read_log");

        let cfg = WalConfig::new(dir.path()).with_retention(1);
        let (wal, rec) = Wal::open(cfg.clone()).expect(what);
        assert_eq!(rec.records, want, "{what}: open");
        let open_torn = (rec.truncated_records, rec.truncated_bytes);
        assert_eq!(open_torn, torn, "{what}: open");
        let next = want.last().map_or(0, |(seq, _)| seq + 1);
        assert_eq!(wal.append(&fixed(99)).expect(what), next, "{what}");
        drop(wal);
        let (_, rec) = Wal::open(cfg).expect(what);
        let first = want.first().map_or(0, |(seq, _)| *seq);
        let seqs: Vec<u64> = rec.records.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, (first..=next).collect::<Vec<u64>>(), "{what}: reopen");
    }

    /// Crash images of a recycling rotation (retention 1, fsync on): the
    /// log cut at each step of the rotation that turns segment 0 into
    /// segment 2, and at every frame boundary of the first records of
    /// segment 2, whose frames lie exactly over segment 0's. Every
    /// acknowledged record a retained segment holds comes back, no stale
    /// one does, and the stale frames count as free space, not torn.
    #[test]
    fn a_recycling_rotation_loses_nothing_and_revives_nothing_at_any_cut() {
        const PER_SEGMENT: u64 = 4;
        let live = TempDir::new("recycle-live");
        let frame = fixed(0).encode_frame().len();
        let cfg = WalConfig::new(live.path())
            .with_retention(1)
            .with_segment_bytes((SEGMENT_HEADER + PER_SEGMENT as usize * frame) as u64);
        let (wal, _) = Wal::open(cfg).expect("open");
        let acked: Vec<(u64, WalRecord)> = (0..3 * PER_SEGMENT)
            .map(|i| (wal.append(&fixed(i)).expect("append"), fixed(i)))
            .collect();
        let (old, new) = acked.split_at(2 * PER_SEGMENT as usize);
        let retained = &old[PER_SEGMENT as usize..];
        let file = |i: u64| fs::read(live.path().join(segment_file_name(i))).expect("read");
        let seg1 = file(1);
        let seg2 = file(2);
        let recycled = wal.registry().counter("wal.segments.recycled").get();
        assert_eq!(recycled, 1, "segment 2 is segment 0's file");
        assert_eq!(wal.registry().counter("wal.segments.pruned").get(), 0);
        assert!(!live.path().join(segment_file_name(0)).exists());

        // Segment 0 as it was sealed: its header, its frames, then the
        // zeros written ahead of them.
        let mut seg0 = encode_header(SegmentHeader {
            index: 0,
            base_seq: 0,
            prev_end: 0,
        })
        .to_vec();
        for (_, rec) in &old[..PER_SEGMENT as usize] {
            rec.encode_frame_into(&mut seg0);
        }
        seg0.resize(seg2.len().max(seg0.len()), 0);
        let header2 = encode_header(SegmentHeader {
            index: 2,
            base_seq: 2 * PER_SEGMENT,
            prev_end: (SEGMENT_HEADER + PER_SEGMENT as usize * frame) as u64,
        });
        assert_eq!(seg2[..SEGMENT_HEADER], header2, "the rewritten header");
        let stale_under = |header: &[u8]| [header, &seg0[header.len()..]].concat();

        recovers(
            &[(0, seg0.clone()), (1, seg1.clone())],
            old,
            (0, 0),
            "sealed",
        );
        recovers(
            &[(1, seg1.clone()), (2, seg0.clone())],
            retained,
            (0, 0),
            "renamed",
        );
        let rewritten = stale_under(&header2);
        recovers(
            &[(1, seg1.clone()), (2, rewritten)],
            retained,
            (0, 0),
            "rewritten",
        );
        let mut want = retained.to_vec();
        for k in 0..=PER_SEGMENT as usize {
            let cut = SEGMENT_HEADER + k * frame;
            let image = [(1, seg1.clone()), (2, stale_under(&seg2[..cut]))];
            recovers(&image, &want, (0, 0), &format!("{k} frames"));
            if k < new.len() {
                let torn = stale_under(&seg2[..cut + frame / 2]);
                let torn_bytes = (torn.len() - cut) as u64;
                let image = [(1, seg1.clone()), (2, torn)];
                recovers(&image, &want, (1, torn_bytes), &format!("frame {k} torn"));
                want.push(new[k].clone());
            }
        }
        // The live log as a process crash leaves it: the zero length
        // field behind the last frame ends the segment.
        recovers(&[(1, seg1), (2, seg2)], &want, (0, 0), "live");
    }

    /// A process crash over a recycled segment whose new frame does not
    /// line up with the old ones: the zero length field the write left
    /// behind it ends the segment, so the stale bytes after that are free
    /// space, not a torn record.
    #[test]
    fn a_recycled_segment_ends_at_the_zero_length_field_behind_its_last_frame() {
        const PER_SEGMENT: u64 = 4;
        let live = TempDir::new("recycle-misaligned");
        let frame = fixed(0).encode_frame().len();
        let cfg = WalConfig::new(live.path())
            .with_retention(1)
            .with_segment_bytes((SEGMENT_HEADER + PER_SEGMENT as usize * frame) as u64);
        let (wal, _) = Wal::open(cfg).expect("open");
        let mut acked: Vec<(u64, WalRecord)> = (0..2 * PER_SEGMENT)
            .map(|i| (wal.append(&fixed(i)).expect("append"), fixed(i)))
            .collect();
        let short = WalRecord::StreamClose { stream: 7 };
        acked.push((wal.append(&short).expect("append"), short));
        assert_eq!(wal.registry().counter("wal.segments.recycled").get(), 1);

        let image: Vec<(u64, Vec<u8>)> = list_segments(live.path())
            .expect("list")
            .into_iter()
            .map(|(index, path)| (index, fs::read(path).expect("read")))
            .collect();
        assert_eq!(image.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [1, 2]);
        recovers(&image, &acked[PER_SEGMENT as usize..], (0, 0), "misaligned");
    }
}
