//! Segment files: naming, headers, and the recovery scan.
//!
//! A log directory holds `NNNNNNNNNNNNNNNN.wal` files (zero-padded hex
//! segment index). Each starts with a fixed header:
//!
//! ```text
//! +-------------+---------------+--------------------+-------------------+
//! | "RTFTWAL1"  | version (u32) | segment index (u64)| base seq (u64)    |
//! +-------------+---------------+--------------------+-------------------+
//! ```
//!
//! followed by record frames. `base seq` is the sequence number of the
//! first record in the segment, so a log whose oldest segments were
//! pruned still yields correct global sequence numbers.
//!
//! The log writes zeros ahead of a segment's last frame (see
//! [`crate::Wal`]), so a scan may find an all-zero remainder after the
//! last valid frame. That is free space, never a torn record: no frame
//! starts with a zero length field.

use crate::record::{decode_frame, WalRecord};
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"RTFTWAL1";

/// On-disk format version. Bumped to 2 when `StreamOpen` grew the tenant
/// id — v1 segments are refused rather than misparsed.
pub const SEGMENT_VERSION: u32 = 2;

/// Serialized header size.
pub const SEGMENT_HEADER: usize = 8 + 4 + 8 + 8;

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

/// Serialize a segment header.
pub fn encode_header(index: u64, base_seq: u64) -> [u8; SEGMENT_HEADER] {
    let mut out = [0u8; SEGMENT_HEADER];
    out[0..8].copy_from_slice(&SEGMENT_MAGIC);
    out[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&index.to_le_bytes());
    out[20..28].copy_from_slice(&base_seq.to_le_bytes());
    out
}

/// Parse and validate a segment header. `None` = torn or foreign header.
fn decode_header(buf: &[u8]) -> Option<(u64, u64)> {
    if buf.len() < SEGMENT_HEADER {
        return None;
    }
    if buf[0..8] != SEGMENT_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().ok()?);
    if version != SEGMENT_VERSION {
        return None;
    }
    let index = u64::from_le_bytes(buf[12..20].try_into().ok()?);
    let base_seq = u64::from_le_bytes(buf[20..28].try_into().ok()?);
    Some((index, base_seq))
}

/// Everything the recovery scan learned about one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Path the segment was read from.
    pub path: PathBuf,
    /// Segment index from the header.
    pub index: u64,
    /// Sequence number of the first record.
    pub base_seq: u64,
    /// Valid records, each with its global sequence number.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset of the end of the last valid frame (truncation point).
    pub valid_len: u64,
    /// Bytes past `valid_len` that failed to parse (the torn tail).
    pub torn_bytes: u64,
    /// Bytes past `valid_len` that are all zero: pre-filled space no
    /// frame reached. Free, not torn; 0 whenever `torn_bytes` is not.
    pub free_bytes: u64,
    /// Torn records dropped: 1 when a partial/corrupt frame was found.
    pub torn_records: u64,
    /// Whether the header itself was unreadable (segment contributes
    /// nothing and should be deleted by recovery).
    pub header_torn: bool,
}

impl SegmentScan {
    /// Sequence number one past the last valid record.
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.records.len() as u64
    }
}

/// Scan one segment file, tolerating a torn tail.
///
/// `strict` is set for non-final segments: any torn bytes there mean the
/// log is corrupt in the middle, which recovery refuses to paper over.
/// An all-zero remainder is free space under either rule.
pub fn scan_segment(path: &Path, strict: bool) -> io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;

    let header = decode_header(&bytes);
    let (index, base_seq) = match header {
        Some(h) => h,
        None => {
            if strict {
                return Err(corrupt(path, 0, "unreadable segment header"));
            }
            return Ok(SegmentScan {
                path: path.to_path_buf(),
                index: 0,
                base_seq: 0,
                records: Vec::new(),
                valid_len: 0,
                torn_bytes: bytes.len() as u64,
                free_bytes: 0,
                torn_records: u64::from(!bytes.is_empty()),
                header_torn: true,
            });
        }
    };

    let mut records = Vec::new();
    let mut at = SEGMENT_HEADER;
    let mut seq = base_seq;
    let mut torn_bytes = 0u64;
    let mut free_bytes = 0u64;
    let mut torn_records = 0u64;
    while at < bytes.len() {
        match decode_frame(&bytes[at..]) {
            Ok((rec, used)) => {
                records.push((seq, rec));
                seq += 1;
                at += used;
            }
            Err(()) => {
                if bytes[at..].iter().all(|&b| b == 0) {
                    free_bytes = (bytes.len() - at) as u64;
                    break;
                }
                if strict {
                    return Err(corrupt(path, at, "bad record frame"));
                }
                torn_bytes = (bytes.len() - at) as u64;
                torn_records = 1;
                break;
            }
        }
    }

    Ok(SegmentScan {
        path: path.to_path_buf(),
        index,
        base_seq,
        records,
        valid_len: at as u64,
        torn_bytes,
        free_bytes,
        torn_records,
        header_torn: false,
    })
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
        let h = encode_header(42, 9001);
        assert_eq!(decode_header(&h), Some((42, 9001)));
        assert_eq!(decode_header(&h[..SEGMENT_HEADER - 1]), None);
        let mut bad = h;
        bad[0] ^= 1;
        assert_eq!(decode_header(&bad), None);
    }
}
