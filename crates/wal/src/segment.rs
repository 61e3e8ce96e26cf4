//! Segment files: naming, headers, and the recovery scan.
//!
//! A log directory holds `NNNNNNNNNNNNNNNN.wal` files (zero-padded hex
//! segment index). Each starts with a fixed header:
//!
//! ```text
//! +-------------+---------------+---------------+---------------+
//! | "RTFTWAL1"  | version (u32) | segment index | base seq      |
//! |             | = 3           | (u64)         | (u64)         |
//! +-------------+---------------+---------------+---------------+
//! | previous segment's end (u64)| header digest (u64, over all  |
//! |                             | the fields before it)         |
//! +-----------------------------+-------------------------------+
//! ```
//!
//! followed by record frames salted for the segment index (see
//! [`crate::WalRecord`]'s framing). `base seq` is the sequence number of
//! the first record in the segment, so a log whose oldest segments were
//! retired still yields correct global sequence numbers. `previous
//! segment's end` is the logical length segment `index - 1` was sealed
//! at (0 for a log's first segment): a sealed segment's own file may run
//! on past its last frame — zeros written ahead of the frames, or the
//! frames of an earlier life of a recycled file — so the scan of a
//! sealed segment reads exactly up to the end its successor recorded
//! and refuses anything bad before it.
//!
//! The header names the index its file name carries. A file whose header
//! is unreadable, or names another index (a recycled file renamed before
//! its new header reached the disk), holds nothing of its own life.

use crate::record::{decode_frame, FrameError, WalRecord};
use rtft_kpn::digest_bytes;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"RTFTWAL1";

/// On-disk format version. 2 added the tenant id to `StreamOpen`; 3
/// salts every frame's checksum with its segment index and adds the
/// previous segment's end and a digest to the header. A segment of
/// another version is refused, never misparsed or deleted.
pub const SEGMENT_VERSION: u32 = 3;

/// Serialized header size.
pub const SEGMENT_HEADER: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// File name for segment `index`.
pub fn segment_file_name(index: u64) -> String {
    format!("{index:016x}.wal")
}

/// Parse a segment index back out of a file name; `None` for foreign files.
fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".wal")?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// A decoded segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Segment index; also the frames' salt.
    pub index: u64,
    /// Sequence number of the segment's first record.
    pub base_seq: u64,
    /// Logical length segment `index - 1` was sealed at (0: none).
    pub prev_end: u64,
}

/// Serialize a segment header.
pub fn encode_header(h: SegmentHeader) -> [u8; SEGMENT_HEADER] {
    let mut out = [0u8; SEGMENT_HEADER];
    out[0..8].copy_from_slice(&SEGMENT_MAGIC);
    out[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&h.index.to_le_bytes());
    out[20..28].copy_from_slice(&h.base_seq.to_le_bytes());
    out[28..36].copy_from_slice(&h.prev_end.to_le_bytes());
    let digest = digest_bytes(&out[..36]);
    out[36..44].copy_from_slice(&digest.to_le_bytes());
    out
}

/// Parse and validate a segment header. `None` = torn or foreign header.
fn decode_header(buf: &[u8]) -> Option<SegmentHeader> {
    let buf = buf.get(..SEGMENT_HEADER)?;
    if buf[0..8] != SEGMENT_MAGIC || version(buf) != Some(SEGMENT_VERSION) {
        return None;
    }
    if digest_bytes(&buf[..36]) != u64_at(buf, 36) {
        return None;
    }
    Some(SegmentHeader {
        index: u64_at(buf, 12),
        base_seq: u64_at(buf, 20),
        prev_end: u64_at(buf, 28),
    })
}

/// The version field behind a magic, if `buf` is long enough to hold one.
fn version(buf: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(8..12)?.try_into().ok()?))
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("an 8-byte slice"))
}

/// Everything the recovery scan learned about one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Path the segment was read from.
    pub path: PathBuf,
    /// Segment index from the file name (and the header, when usable).
    pub index: u64,
    /// Sequence number of the first record.
    pub base_seq: u64,
    /// The previous segment's end, from the header.
    pub prev_end: u64,
    /// Valid records, each with its global sequence number.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset of the end of the last valid frame (truncation point).
    pub valid_len: u64,
    /// Bytes past `valid_len` that failed to parse (the torn tail).
    pub torn_bytes: u64,
    /// Bytes past `valid_len` that hold no frame of this segment's life:
    /// zeros written ahead of the frames, or an earlier life's frames.
    /// Free, not torn; 0 whenever `torn_bytes` is not.
    pub free_bytes: u64,
    /// Torn records dropped: 1 when a partial/corrupt frame was found.
    pub torn_records: u64,
    /// Whether the segment holds nothing of its own life: its header is
    /// unreadable (`torn_bytes` counts the file) or names another index
    /// (`free_bytes` counts it). Recovery deletes such a final segment.
    pub header_torn: bool,
}

impl SegmentScan {
    /// Sequence number one past the last valid record.
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.records.len() as u64
    }
}

/// Scan one segment file (see [`scan_bytes`]).
fn scan_segment(path: &Path, index: u64, sealed_end: Option<u64>) -> io::Result<SegmentScan> {
    scan_bytes(path, &fs::read(path)?, index, sealed_end)
}

/// Scan the bytes of segment `index`, read from `path`.
///
/// `sealed_end` is the logical end its successor recorded, for a sealed
/// segment: the scan is strict up to it — any bad header or frame there
/// means the log is corrupt in the middle, which recovery refuses to
/// paper over — and reads nothing past it. The final segment (`None`)
/// is scanned tolerantly: the first frame that fails ends it. What
/// follows is free space when it starts with a zero length field (or
/// what is left of one) or with an earlier life's frame, and the torn
/// tail otherwise.
pub fn scan_bytes(
    path: &Path,
    bytes: &[u8],
    index: u64,
    sealed_end: Option<u64>,
) -> io::Result<SegmentScan> {
    let mut scan = SegmentScan {
        path: path.to_path_buf(),
        index,
        base_seq: 0,
        prev_end: 0,
        records: Vec::new(),
        valid_len: 0,
        torn_bytes: 0,
        free_bytes: 0,
        torn_records: 0,
        header_torn: false,
    };
    if bytes.starts_with(&SEGMENT_MAGIC) {
        if let Some(v) = version(bytes).filter(|v| *v != SEGMENT_VERSION) {
            let what = format!("segment format version {v}, this build reads {SEGMENT_VERSION}");
            return Err(corrupt(path, 8, &what));
        }
    }
    let header = match decode_header(bytes) {
        Some(h) if h.index == index => h,
        other => {
            if sealed_end.is_some() {
                return Err(corrupt(path, 0, "unreadable segment header"));
            }
            scan.header_torn = true;
            if other.is_some() {
                scan.free_bytes = bytes.len() as u64;
            } else {
                scan.torn_bytes = bytes.len() as u64;
                scan.torn_records = u64::from(!bytes.is_empty());
            }
            return Ok(scan);
        }
    };
    scan.base_seq = header.base_seq;
    scan.prev_end = header.prev_end;

    let end = match sealed_end {
        Some(end) if end < SEGMENT_HEADER as u64 || end > bytes.len() as u64 => {
            return Err(corrupt(
                path,
                end as usize,
                "recorded end outside the segment",
            ));
        }
        Some(end) => end as usize,
        None => bytes.len(),
    };
    let mut at = SEGMENT_HEADER;
    let mut seq = header.base_seq;
    while at < end {
        match decode_frame(&bytes[at..end], index) {
            Ok((rec, used)) => {
                scan.records.push((seq, rec));
                seq += 1;
                at += used;
            }
            Err(e) => {
                if sealed_end.is_some() {
                    return Err(corrupt(path, at, "bad record frame"));
                }
                let rest = (bytes.len() - at) as u64;
                let length_field = &bytes[at..(at + 4).min(bytes.len())];
                if e == FrameError::Stale || length_field.iter().all(|&b| b == 0) {
                    scan.free_bytes = rest;
                } else {
                    scan.torn_bytes = rest;
                    scan.torn_records = 1;
                }
                break;
            }
        }
    }
    if sealed_end.is_some() {
        scan.free_bytes = (bytes.len() - end) as u64;
    }
    scan.valid_len = at as u64;
    Ok(scan)
}

/// List the segment files in `dir`, ordered by segment index.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = parse_segment_name(name) {
            out.push((index, entry.path()));
        }
    }
    out.sort_by_key(|(index, _)| *index);
    Ok(out)
}

/// Scan all segments of `dir` in index order. The last segment with a
/// usable header is final and scanned tolerantly; every segment before
/// it is sealed, scanned strictly up to the end its successor recorded,
/// and must be its successor's index minus one, with as many records as
/// the successor's base sequence number says.
pub fn scan_dir(dir: &Path) -> io::Result<Vec<SegmentScan>> {
    let listed = list_segments(dir)?;
    let mut scans: Vec<SegmentScan> = Vec::with_capacity(listed.len());
    for (index, path) in listed.iter().rev() {
        let successor = scans.last().filter(|s| !s.header_torn);
        let scan = match successor {
            None => scan_segment(path, *index, None)?,
            Some(next) => {
                if next.index != index + 1 {
                    return Err(corrupt(path, 0, "the next segment is missing"));
                }
                let scan = scan_segment(path, *index, Some(next.prev_end))?;
                if scan.next_seq() != next.base_seq {
                    return Err(corrupt(
                        path,
                        0,
                        "record count disagrees with the next segment",
                    ));
                }
                scan
            }
        };
        scans.push(scan);
    }
    scans.reverse();
    Ok(scans)
}

fn corrupt(path: &Path, at: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what} at offset {at}", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for index in [0u64, 1, 0xdead_beef, u64::MAX] {
            let name = segment_file_name(index);
            assert_eq!(parse_segment_name(&name), Some(index));
        }
        assert_eq!(parse_segment_name("garbage.wal"), None);
        assert_eq!(parse_segment_name("0000000000000000.tmp"), None);
        assert_eq!(parse_segment_name("000000000000000z.wal"), None);
    }

    #[test]
    fn headers_round_trip() {
        let h = SegmentHeader {
            index: 42,
            base_seq: 9001,
            prev_end: 777,
        };
        let bytes = encode_header(h);
        assert_eq!(decode_header(&bytes), Some(h));
        assert_eq!(decode_header(&bytes[..SEGMENT_HEADER - 1]), None);
        for at in 0..SEGMENT_HEADER {
            let mut bad = bytes;
            bad[at] ^= 1;
            assert_eq!(decode_header(&bad), None, "flip at byte {at}");
        }
    }
}
