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
//! Four mechanisms, all std-only:
//!
//! * **Checksummed record frames** ([`WalRecord`]) — length-prefixed
//!   bodies guarded by the same streaming FNV-1a digest
//!   ([`rtft_kpn::Digest`]) the selector uses for output equivalence.
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
//!   data, not inode metadata. An all-zero remainder after the last valid
//!   frame is free space, not a torn record (no frame has a zero length
//!   field); it is cut off when a rotation seals the segment, when the
//!   last handle drops, and by [`Wal::open`].

#![warn(missing_docs)]

mod record;
mod segment;

pub use record::{WalRecord, FRAME_HEADER, MAX_RECORD};
pub use segment::{segment_file_name, SEGMENT_HEADER, SEGMENT_MAGIC};

use rtft_obs::{Counter, Histogram, MetricsRegistry};
use segment::{encode_header, list_segments, scan_segment, SegmentScan};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
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

/// Configuration for opening a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Keep at most this many *sealed* segments (0 = keep all). Pruned
    /// segments shorten replay history; sequence numbers stay global.
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
    /// written ahead of it.
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
    sealed: Vec<(u64, PathBuf)>,
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

        // A final segment whose *header* never hit the disk contributes
        // nothing; remove it and fall back to the previous segment.
        if scans.last().is_some_and(|s| s.header_torn) {
            let torn = scans.pop().expect("non-empty");
            truncated_records += torn.torn_records;
            truncated_bytes += torn.torn_bytes;
            fs::remove_file(&torn.path)?;
        }

        let segments = scans.len() as u64;
        // Cut each segment back to its last valid frame: the torn tail of
        // the final one (the others were scanned strictly), and any zero
        // tail a crash left before its trim.
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
                let next_seq = 0;
                let (file, len) = create_segment(&cfg, 0, next_seq)?;
                ((0, file, len), next_seq)
            }
        };

        let mut records = Vec::new();
        let mut sealed = Vec::new();
        for scan in &mut scans {
            if scan.index != active.0 {
                sealed.push((scan.index, scan.path.clone()));
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
        let (seq, target) = self.write_frames(std::slice::from_ref(rec))?;
        self.commit(target)?;
        Ok(seq)
    }

    /// Append one record in log order *without* waiting for it to become
    /// durable. Returns its global sequence number. The record counts in
    /// `wal.appends` now and in the next fsync's `wal.commit.batch`, and
    /// is durable no later than the return of the next [`Wal::append`],
    /// [`Wal::append_batch`] or [`Wal::sync`] on this log, or the
    /// rotation that seals its segment. Until then a power cut may lose
    /// it — together with everything written after it, never instead of
    /// it. Meant for state the durable records before it can regenerate.
    pub fn append_lazy(&self, rec: &WalRecord) -> io::Result<u64> {
        self.write_frames(std::slice::from_ref(rec))
            .map(|(seq, _)| seq)
    }

    /// Append a batch of records with a single durability point. Returns
    /// the sequence number of the first record.
    pub fn append_batch(&self, recs: &[WalRecord]) -> io::Result<u64> {
        if recs.is_empty() {
            return Ok(self.next_seq());
        }
        let (first_seq, target) = self.write_frames(recs)?;
        self.commit(target)?;
        Ok(first_seq)
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
    /// `wal.segments.pruned`, `wal.prefill.bytes` (zeros written ahead of
    /// the frames), `wal.trims` (zero tails cut off: at rotation, at open,
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

    /// Write the frames under the state lock; returns (first seq, commit
    /// target). Durability happens in `commit`.
    fn write_frames(&self, recs: &[WalRecord]) -> io::Result<(u64, u64)> {
        let mut buf = Vec::new();
        for rec in recs {
            rec.encode_frame_into(&mut buf);
        }

        let mut st = self.lock();
        if st.seg_len >= self.inner.cfg.segment_bytes {
            self.rotate(&mut st)?;
        }
        let end = st.seg_len + buf.len() as u64;
        if end > st.filled {
            self.prefill(&mut st, end)?;
        }
        let mut file = &*st.file;
        file.seek(SeekFrom::Start(st.seg_len))?;
        file.write_all(&buf)?;
        st.seg_len += buf.len() as u64;
        st.written += buf.len() as u64;
        st.batch_pending += recs.len() as u64;
        let first_seq = st.next_seq;
        st.next_seq += recs.len() as u64;
        let target = st.written;
        drop(st);

        self.inner.c_appends.add(recs.len() as u64);
        self.inner.c_append_bytes.add(buf.len() as u64);
        Ok((first_seq, target))
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

    /// Write one step of zeros past `end`, where the frames about to be
    /// written stop, so the commits that follow overwrite blocks the file
    /// already has instead of growing it. Called with the state lock
    /// held. The step never reaches past `segment_bytes`: rotation seals
    /// the segment there.
    fn prefill(&self, st: &mut WalState, end: u64) -> io::Result<()> {
        let step = end.clamp(PREFILL_MIN_STEP, PREFILL_MAX_STEP);
        let to = (end + step).min(self.inner.cfg.segment_bytes).max(end);
        let mut file = &*st.file;
        file.seek(SeekFrom::Start(end))?;
        let mut left = to - end;
        while left > 0 {
            let n = left.min(ZEROS.len() as u64);
            file.write_all(&ZEROS[..n as usize])?;
            left -= n;
        }
        self.inner.c_prefill.add(to - end);
        st.filled = to;
        Ok(())
    }

    /// Seal the current segment and start the next one. Called with the
    /// state lock held; the old file is trimmed to its logical length
    /// and fully synced first, so rotation never leaves an unsynced
    /// sealed segment behind.
    fn rotate(&self, st: &mut WalState) -> io::Result<()> {
        st.trim(&self.inner.c_trims)?;
        if self.inner.cfg.fsync {
            st.file.sync_data()?;
        }
        st.durable = st.durable.max(st.written);

        let old_index = st.seg_index;
        let old_path = self.inner.cfg.dir.join(segment_file_name(old_index));
        let new_index = old_index + 1;
        let (file, len) = create_segment(&self.inner.cfg, new_index, st.next_seq)?;
        st.file = Arc::new(file);
        st.seg_index = new_index;
        st.seg_len = len;
        st.filled = len;
        st.sealed.push((old_index, old_path));
        self.inner.c_rotations.inc();
        self.inner.committed.notify_all();

        let retain = self.inner.cfg.retain_segments;
        if retain > 0 {
            while st.sealed.len() > retain {
                let (_, path) = st.sealed.remove(0);
                fs::remove_file(&path)?;
                self.inner.c_pruned.inc();
            }
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

/// Scan all segments in order; every segment but the last is strict.
fn scan_dir(dir: &Path) -> io::Result<Vec<SegmentScan>> {
    let listed = list_segments(dir)?;
    let last = listed.len().saturating_sub(1);
    let mut scans = Vec::with_capacity(listed.len());
    for (pos, (_, path)) in listed.iter().enumerate() {
        scans.push(scan_segment(path, pos != last)?);
    }
    Ok(scans)
}

fn create_segment(cfg: &WalConfig, index: u64, base_seq: u64) -> io::Result<(File, u64)> {
    let path = cfg.dir.join(segment_file_name(index));
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)?;
    let header = encode_header(index, base_seq);
    file.write_all(&header)?;
    if cfg.fsync {
        file.sync_all()?;
        // Make the new directory entry itself durable.
        if let Ok(d) = File::open(&cfg.dir) {
            let _ = d.sync_all();
        }
    }
    Ok((file, header.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(wal.registry().counter("wal.segments.pruned").get() >= 1);
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

    #[test]
    fn append_batch_is_one_durability_point() {
        let dir = TempDir::new("batch");
        let cfg = WalConfig::new(dir.path());
        let (wal, _) = Wal::open(cfg.clone()).expect("open");
        let recs: Vec<WalRecord> = (0..10u32).map(|i| tokens(i, 2)).collect();
        let first = wal.append_batch(&recs).expect("batch");
        assert_eq!(first, 0);
        assert_eq!(wal.next_seq(), 10);
        assert_eq!(wal.registry().counter("wal.fsyncs").get(), 1);
        drop(wal);
        let (_, rec) = Wal::open(cfg).expect("reopen");
        assert_eq!(rec.records.len(), 10);
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

    /// A three-record log (`StreamOpen`, `Tokens`, `Outputs`) as the
    /// commit before the lazy class wrote it: segment header, then the
    /// frames. The format did not move, in either direction.
    const PARENT_LOG: [u8; 149] = [
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

    #[test]
    fn a_parent_written_log_opens_and_the_lazy_class_writes_the_same_bytes() {
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
        fs::write(old.path().join(segment_file_name(0)), PARENT_LOG).expect("write");
        let (wal, rec) = Wal::open(WalConfig::new(old.path())).expect("open parent log");
        assert_eq!(rec.truncated_bytes, 0);
        let got: Vec<&WalRecord> = rec.records.iter().map(|(_, r)| r).collect();
        assert_eq!(got, records.iter().collect::<Vec<_>>());
        assert_eq!(wal.next_seq(), 3);

        let new = TempDir::new("compat-new");
        let (wal, _) = Wal::open(WalConfig::new(new.path())).expect("open");
        wal.append(&records[0]).expect("open record");
        wal.append(&records[1]).expect("tokens");
        wal.append_lazy(&records[2]).expect("outputs");
        drop(wal);
        let written = fs::read(new.path().join(segment_file_name(0))).expect("read");
        assert_eq!(written, PARENT_LOG);
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
        let segments = list_segments(dir.path()).expect("list");
        assert!(segments.len() >= 3, "{} segments", segments.len());
        let mut records = 0;
        for (_, path) in &segments {
            let scan = scan_segment(path, true).expect("strict scan");
            let n = scan.records.len() as u64;
            assert_eq!(
                fs::metadata(path).expect("meta").len(),
                SEGMENT_HEADER as u64 + n * frame,
                "{}",
                path.display()
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
}
