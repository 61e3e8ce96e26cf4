//! The WAL record vocabulary and its on-disk framing.
//!
//! Every record is written as one *frame*:
//!
//! ```text
//! +----------------+------------------+------------------+
//! | body len (u32) | checksum (u64)   | body (len bytes) |
//! +----------------+------------------+------------------+
//! ```
//!
//! all little-endian. The checksum is the streaming FNV-1a word-at-a-time
//! digest ([`rtft_kpn::Digest`]) over the body — the same function the
//! selector uses for output-equivalence checks, so a replayed stream and a
//! recorded stream are compared in exactly the currency the detector
//! already speaks. A frame whose length field, checksum, or body fails to
//! parse marks the torn tail of a segment: everything before it is valid,
//! everything from it on is discarded by recovery.

use rtft_kpn::{digest_bytes, Bytes};

/// Frame header size: body length (u32) + body checksum (u64).
pub const FRAME_HEADER: usize = 12;

/// Upper bound on a single record body. A length field above this is
/// treated as corruption rather than an instruction to allocate.
pub const MAX_RECORD: usize = 1 << 26;

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
                if count > body.len() {
                    return None;
                }
                let mut payloads = Vec::with_capacity(count);
                for _ in 0..count {
                    let len = get_u32(body, &mut at)? as usize;
                    payloads.push(Bytes::from(get_bytes(body, &mut at, len)?));
                }
                WalRecord::Tokens { stream, payloads }
            }
            TAG_OUTPUTS => {
                let stream = get_u32(body, &mut at)?;
                let first_seq = get_u64(body, &mut at)?;
                let count = get_u32(body, &mut at)? as usize;
                if count.checked_mul(8)? > body.len() {
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

    /// Appends the full frame (header + body) to `out`: the header is
    /// reserved, the body encoded in place behind it and checksummed
    /// where it lies, then length and checksum are patched in — no body
    /// `Vec`, no copy of it behind a header.
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

    /// Serialize the full frame: header + body.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }
}

/// Attempt to parse one frame at the start of `buf`.
///
/// `Ok((record, frame_len))` on success; `Err(())` when the bytes do not
/// form a complete, checksum-valid, decodable frame — i.e. the torn tail.
pub fn decode_frame(buf: &[u8]) -> Result<(WalRecord, usize), ()> {
    if buf.len() < FRAME_HEADER {
        return Err(());
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len == 0 || len > MAX_RECORD {
        return Err(());
    }
    let stored = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let total = FRAME_HEADER + len;
    if buf.len() < total {
        return Err(());
    }
    let body = &buf[FRAME_HEADER..total];
    if digest_bytes(body) != stored {
        return Err(());
    }
    match WalRecord::decode_body(body) {
        Some(rec) => Ok((rec, total)),
        None => Err(()),
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
            let (back, used) = decode_frame(&frame).expect("frame decodes");
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
                    decode_frame(&frame[..cut]).is_err(),
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
            match decode_frame(&bad) {
                Err(()) => {}
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
