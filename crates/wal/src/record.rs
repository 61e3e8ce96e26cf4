//! The WAL record vocabulary and its on-disk framing.
//!
//! Every record is written as one *frame*:
//!
//! ```text
//! +----------------+----------------------------+------------------+
//! | body len (u32) | checksum (u64)             | body (len bytes) |
//! |                | = digest(body) ^ salt(seg) |                  |
//! +----------------+----------------------------+------------------+
//! ```
//!
//! all little-endian. The checksum is the streaming FNV-1a word-at-a-time
//! digest ([`rtft_kpn::Digest`]) over the body — the same function the
//! selector uses for output-equivalence checks, so a replayed stream and a
//! recorded stream are compared in exactly the currency the detector
//! already speaks — XORed with the *salt* of the segment the frame was
//! written into. A segment index names one life of one file (a recycled
//! file is renamed to a fresh index), and [`frame_salt`] is a bijection of
//! the index, so a frame left over from an earlier life carries another
//! salt and never decodes, at any offset and any length. Segment 0's
//! salt is 0: its frames checksum exactly as unsalted ones.
//!
//! A frame whose length field, checksum, or body fails to parse marks the
//! torn tail of a segment: everything before it is valid, everything from
//! it on is discarded by recovery.

use rtft_kpn::{digest_bytes, Bytes};

/// Frame header size: body length (u32) + body checksum (u64).
pub const FRAME_HEADER: usize = 12;

/// Upper bound on a single record body. A length field above this is
/// treated as corruption rather than an instruction to allocate.
pub const MAX_RECORD: usize = 1 << 26;

/// Odd, so multiplying by it is a bijection of `u64`: distinct segment
/// indices get distinct salts.
const SALT_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// `SALT_MUL`'s inverse modulo 2^64 (Newton's iteration doubles the
/// correct low bits each step, from 3 to past 64 in five).
const SALT_INV: u64 = {
    let mut inv = SALT_MUL;
    let mut i = 0;
    while i < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(SALT_MUL.wrapping_mul(inv)));
        i += 1;
    }
    inv
};

/// The salt folded into the checksum of every frame of segment `index`.
fn frame_salt(index: u64) -> u64 {
    index.wrapping_mul(SALT_MUL)
}

/// Why [`decode_frame`] refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not a whole, checksum-valid frame of this segment: a torn write or
    /// corruption.
    Torn,
    /// A whole frame whose checksum carries the salt of an *earlier*
    /// segment index: left behind by a previous life of a recycled file.
    Stale,
}

const TAG_STREAM_OPEN: u8 = 0x01;
const TAG_TOKENS: u8 = 0x02;
const TAG_OUTPUTS: u8 = 0x03;
const TAG_STREAM_CLOSE: u8 = 0x04;

/// One durable event on the ingestion path.
///
/// The record stream for a single server stream is
/// `StreamOpen (Tokens* Outputs*)* StreamClose?` — tokens are logged
/// before they are acknowledged, output digests are logged *in order* as
/// each flush settles (written, not waited for: an `Outputs` record is
/// durable by the next synchronous record's fsync), so replaying the log
/// deterministically reproduces the delivered prefix and re-derives the
/// tail — including any batch whose `Outputs` a crash outran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A stream was accepted: its id, the pipeline it runs, and the
    /// tenant it belongs to.
    StreamOpen {
        /// Server-assigned stream id.
        stream: u32,
        /// Application pipeline selector (the wire `app` byte).
        app: u8,
        /// Replica count the stream was opened with.
        redundancy: u8,
        /// Tenant the stream was admitted under (0 = untenanted server),
        /// so recovery can re-attach tenants before rebuilding streams.
        tenant: u64,
    },
    /// A batch of ingested token payloads, logged before acknowledgement.
    Tokens {
        /// Stream the tokens belong to.
        stream: u32,
        /// Raw payload bytes, one entry per token, in ingestion order.
        /// Shared [`Bytes`] handles: the server logs the same ingested
        /// copy it buffers and feeds to the fleet, no clone per token.
        payloads: Vec<Bytes>,
    },
    /// Output digests recorded as a flush settled. Derived state: the
    /// stream's durable `Tokens` regenerate it, so it is the one record
    /// kind appended lazily ([`crate::Wal::append_lazy`]).
    Outputs {
        /// Stream the outputs belong to.
        stream: u32,
        /// Cumulative index of the first digest (tokens delivered before
        /// this flush).
        first_seq: u64,
        /// Output digest per delivered token, in delivery order.
        digests: Vec<u64>,
    },
    /// The stream was closed cleanly.
    StreamClose {
        /// Stream that closed.
        stream: u32,
    },
}

impl WalRecord {
    /// Serialize the record body (tag + payload, no frame header) onto
    /// `out`.
    fn encode_body_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::StreamOpen {
                stream,
                app,
                redundancy,
                tenant,
            } => {
                out.push(TAG_STREAM_OPEN);
                put_u32(out, *stream);
                out.push(*app);
                out.push(*redundancy);
                put_u64(out, *tenant);
            }
            WalRecord::Tokens { stream, payloads } => {
                out.push(TAG_TOKENS);
                put_u32(out, *stream);
                put_u32(out, payloads.len() as u32);
                for p in payloads {
                    put_u32(out, p.len() as u32);
                    out.extend_from_slice(p);
                }
            }
            WalRecord::Outputs {
                stream,
                first_seq,
                digests,
            } => {
                out.push(TAG_OUTPUTS);
                put_u32(out, *stream);
                put_u64(out, *first_seq);
                put_u32(out, digests.len() as u32);
                for d in digests {
                    put_u64(out, *d);
                }
            }
            WalRecord::StreamClose { stream } => {
                out.push(TAG_STREAM_CLOSE);
                put_u32(out, *stream);
            }
        }
    }

    /// Parse a record body. `None` means the body is malformed — the
    /// caller treats the enclosing frame as the torn tail.
    fn decode_body(body: &[u8]) -> Option<WalRecord> {
        let mut at = 0usize;
        let tag = get_u8(body, &mut at)?;
        let rec = match tag {
            TAG_STREAM_OPEN => WalRecord::StreamOpen {
                stream: get_u32(body, &mut at)?,
                app: get_u8(body, &mut at)?,
                redundancy: get_u8(body, &mut at)?,
                tenant: get_u64(body, &mut at)?,
            },
            TAG_TOKENS => {
                let stream = get_u32(body, &mut at)?;
                let count = get_u32(body, &mut at)? as usize;
                // Each payload carries a 4-byte length: refuse a count
                // the body cannot hold before allocating for it.
                if count > (body.len() - at) / 4 {
                    return None;
                }
                let mut payloads = Vec::with_capacity(count);
                for _ in 0..count {
                    let len = get_u32(body, &mut at)? as usize;
                    // Copied, not a range of the segment: a recovered
                    // tail stays buffered, and a range would pin the
                    // whole segment it was read from.
                    payloads.push(Bytes::from(get_bytes(body, &mut at, len)?));
                }
                WalRecord::Tokens { stream, payloads }
            }
            TAG_OUTPUTS => {
                let stream = get_u32(body, &mut at)?;
                let first_seq = get_u64(body, &mut at)?;
                let count = get_u32(body, &mut at)? as usize;
                if count > (body.len() - at) / 8 {
                    return None;
                }
                let mut digests = Vec::with_capacity(count);
                for _ in 0..count {
                    digests.push(get_u64(body, &mut at)?);
                }
                WalRecord::Outputs {
                    stream,
                    first_seq,
                    digests,
                }
            }
            TAG_STREAM_CLOSE => WalRecord::StreamClose {
                stream: get_u32(body, &mut at)?,
            },
            _ => return None,
        };
        if at != body.len() {
            return None; // trailing garbage inside a checksummed body
        }
        Some(rec)
    }

    /// Appends the full frame (header + body) to `out`, salted for
    /// segment 0: the header is reserved, the body encoded in place
    /// behind it and checksummed where it lies, then length and checksum
    /// are patched in — no body `Vec`, no copy of it behind a header.
    /// The log salts it for its segment under its lock.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; FRAME_HEADER]);
        self.encode_body_into(out);
        let body = start + FRAME_HEADER;
        let len = (out.len() - body) as u32;
        let checksum = digest_bytes(&out[body..]);
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        out[start + 4..body].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Serialize the full frame, header + body, as segment 0 holds it.
    /// Every segment holds a frame of the same length.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }
}

/// Fold segment `index`'s salt into the checksum of the frame that
/// starts `frame`, which must carry segment 0's (no salt). Cheap enough
/// to run under the log's lock, where the segment is known.
pub fn salt_frame(frame: &mut [u8], index: u64) {
    let field = &mut frame[4..FRAME_HEADER];
    let salted =
        u64::from_le_bytes((&*field).try_into().expect("an 8-byte field")) ^ frame_salt(index);
    field.copy_from_slice(&salted.to_le_bytes());
}

/// Attempt to parse one frame of segment `index` at the start of `buf`.
///
/// `Ok((record, frame_len))` on success. A length field of 0 or above
/// [`MAX_RECORD`], or one reaching past `buf`, is refused before anything
/// is read or allocated. A whole frame salted for an earlier segment is
/// [`FrameError::Stale`]; anything else that is not a checksum-valid,
/// decodable frame of this segment is [`FrameError::Torn`].
pub fn decode_frame(buf: &[u8], index: u64) -> Result<(WalRecord, usize), FrameError> {
    if buf.len() < FRAME_HEADER {
        return Err(FrameError::Torn);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len == 0 || len > MAX_RECORD {
        return Err(FrameError::Torn);
    }
    let stored = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let total = FRAME_HEADER + len;
    if buf.len() < total {
        return Err(FrameError::Torn);
    }
    let body = &buf[FRAME_HEADER..total];
    // The salt the checksum carries, mapped back to its segment index.
    let life = (stored ^ digest_bytes(body)).wrapping_mul(SALT_INV);
    if life < index {
        return Err(FrameError::Stale);
    }
    if life != index {
        return Err(FrameError::Torn);
    }
    match WalRecord::decode_body(body) {
        Some(rec) => Ok((rec, total)),
        None => Err(FrameError::Torn),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u8(buf: &[u8], at: &mut usize) -> Option<u8> {
    let b = *buf.get(*at)?;
    *at += 1;
    Some(b)
}

fn get_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let v = u32::from_le_bytes(buf.get(*at..end)?.try_into().ok()?);
    *at = end;
    Some(v)
}

fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let v = u64::from_le_bytes(buf.get(*at..end)?.try_into().ok()?);
    *at = end;
    Some(v)
}

fn get_bytes<'a>(buf: &'a [u8], at: &mut usize, len: usize) -> Option<&'a [u8]> {
    let end = at.checked_add(len)?;
    let s = buf.get(*at..end)?;
    *at = end;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_body(rec: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        rec.encode_body_into(&mut out);
        out
    }

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::StreamOpen {
                stream: 7,
                app: 2,
                redundancy: 3,
                tenant: 0x0123_4567_89ab_cdef,
            },
            WalRecord::Tokens {
                stream: 7,
                payloads: vec![
                    Bytes::from(vec![]),
                    Bytes::from(vec![1, 2, 3]),
                    Bytes::from((0..64).collect::<Vec<u8>>()),
                ],
            },
            WalRecord::Outputs {
                stream: 7,
                first_seq: 41,
                digests: vec![0xdead_beef, 0, u64::MAX],
            },
            WalRecord::StreamClose { stream: 7 },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for rec in samples() {
            let frame = rec.encode_frame();
            let (back, used) = decode_frame(&frame, 0).expect("frame decodes");
            assert_eq!(back, rec);
            assert_eq!(used, frame.len());
        }
    }

    /// Frames staged one behind another (what `Wal::write_frames` does)
    /// are `len ‖ checksum ‖ body` each, whatever already sits in the
    /// buffer.
    #[test]
    fn encode_frame_into_appends_header_then_body() {
        let mut staged = vec![0xEE; 3];
        let mut expected = staged.clone();
        for rec in samples() {
            let body = encode_body(&rec);
            expected.extend_from_slice(&(body.len() as u32).to_le_bytes());
            expected.extend_from_slice(&digest_bytes(&body).to_le_bytes());
            expected.extend_from_slice(&body);
            rec.encode_frame_into(&mut staged);
        }
        assert_eq!(staged, expected);
    }

    #[test]
    fn every_truncation_is_rejected() {
        for rec in samples() {
            let frame = rec.encode_frame();
            for cut in 0..frame.len() {
                assert!(
                    decode_frame(&frame[..cut], 0).is_err(),
                    "prefix of {cut} bytes must not decode"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let rec = WalRecord::Tokens {
            stream: 3,
            payloads: vec![Bytes::from(vec![9; 17]), Bytes::from(vec![4; 5])],
        };
        let frame = rec.encode_frame();
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x10;
            match decode_frame(&bad, 0) {
                Err(_) => {}
                Ok((back, _)) => {
                    // A flip in the length field can only "succeed" by
                    // reading a different checksummed frame — impossible
                    // here, so any Ok must equal the original (it never
                    // does; keep the assert for the counterexample).
                    assert_eq!(
                        back, rec,
                        "bit flip at byte {byte} yielded a different record"
                    );
                    panic!("bit flip at byte {byte} went undetected");
                }
            }
        }
    }

    /// A frame decodes in the life it was salted for and no other: an
    /// earlier life reads it as stale, a later one as torn.
    #[test]
    fn a_frame_decodes_only_under_its_own_salt() {
        assert_eq!(SALT_MUL.wrapping_mul(SALT_INV), 1);
        for rec in samples() {
            for life in [0u64, 1, 2, 41, u64::MAX] {
                let mut frame = rec.encode_frame();
                salt_frame(&mut frame, life);
                let (back, used) = decode_frame(&frame, life).expect("own life");
                assert_eq!((back, used), (rec.clone(), frame.len()));
                if life > 0 {
                    assert_eq!(decode_frame(&frame, life - 1), Err(FrameError::Torn));
                }
                if life < u64::MAX {
                    assert_eq!(decode_frame(&frame, life + 1), Err(FrameError::Stale));
                }
            }
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut body = vec![0x7f];
        body.extend_from_slice(&5u32.to_le_bytes());
        assert!(WalRecord::decode_body(&body).is_none());
    }

    #[test]
    fn trailing_bytes_in_body_are_rejected() {
        let mut body = encode_body(&WalRecord::StreamClose { stream: 1 });
        body.push(0);
        assert!(WalRecord::decode_body(&body).is_none());
    }
}
