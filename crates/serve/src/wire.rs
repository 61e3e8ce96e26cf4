//! The `RTFT/1` wire protocol: length-prefixed binary frames.
//!
//! # Frame grammar
//!
//! Every frame on the wire is
//!
//! ```text
//! frame   := length tag body
//! length  := u32 LE        ; bytes following the length field (tag + body),
//!                          ; 1 ..= max_frame
//! tag     := u8            ; frame discriminator (see below)
//! body    := tag-specific fields, fixed order, no padding
//! ```
//!
//! Scalars are little-endian (`u32`/`u64`). Variable-length fields are a
//! `u32` LE byte count followed by the raw bytes; strings are UTF-8.
//!
//! A `length` of zero, a `length` above the negotiated maximum, or an
//! unknown `tag` is a [`ProtocolError`] — the peer must drop the
//! connection. Decoding never panics on malformed input.
//!
//! # Frames
//!
//! | tag    | frame        | direction | body |
//! |--------|--------------|-----------|------|
//! | `0x01` | `Hello`      | C→S       | `version:u32, client:str` |
//! | `0x02` | `OpenStream` | C→S       | `app:u8, redundancy:u8` |
//! | `0x03` | `Tokens`     | C→S       | `stream:u32, count:u32, count × bytes` |
//! | `0x04` | `Flush`      | C→S       | `stream:u32` |
//! | `0x05` | `Close`      | C→S       | `stream:u32` |
//! | `0x81` | `Accepted`   | S→C       | `id:u32` |
//! | `0x82` | `Busy`       | S→C       | `stream:u32, reason:u8, pending:u32, capacity:u32` |
//! | `0x83` | `Output`     | S→C       | `stream:u32, seq:u64, at_ns:u64, digest:u64` |
//! | `0x84` | `Fault`      | S→C       | `stream:u32, replica:u32, kind:u8, detection_latency_ns:u64` |
//! | `0x85` | `Stats`      | S→C       | `stream:u32, tokens_in:u64, delivered:u64, faults:u64, busy:u64, queued:u32, inflight:u32, outstanding:u32` |
//! | `0x86` | `Durable`    | S→C       | `stream:u32, tokens:u32, seq:u64` |
//!
//! `app` indexes [`rtft_apps::networks::App::ALL`]; `redundancy` selects
//! the structure: `2` = duplicated timing selector, `3` = tri-modular
//! value voting, and `0x10 | e` = the sampled-checker structure with
//! stride `k = 1 << e` (`e ≤ 6`; see [`redundancy_byte`] /
//! [`redundancy_from_byte`]). `kind` in `Fault` is the detection site
//! ([`site_kind`] / [`kind_label`]).

use std::io::{self, IoSlice, Read, Write};
use std::ops::Range;

use crate::error::{ProtocolError, ServeError};
use rtft_fleet::Redundancy;
use rtft_kpn::{Bytes, PayloadPool};

/// Protocol version this implementation speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Encodes a structure as an `OpenStream` redundancy byte. A sampled
/// checker is `0x10 | e` with `k = 1 << e`: only power-of-two strides up
/// to `64` fit the encoding; anything else returns `None`.
pub fn redundancy_byte(redundancy: Redundancy) -> Option<u8> {
    match redundancy {
        Redundancy::Duplicated => Some(2),
        Redundancy::TriVoting => Some(3),
        Redundancy::Hetero { k } if k.is_power_of_two() && k <= 64 => {
            Some(0x10 | k.trailing_zeros() as u8)
        }
        Redundancy::Hetero { .. } => None,
    }
}

/// Decodes an `OpenStream` redundancy byte; `None` for a byte that names
/// no structure.
pub fn redundancy_from_byte(byte: u8) -> Option<Redundancy> {
    match byte {
        2 => Some(Redundancy::Duplicated),
        3 => Some(Redundancy::TriVoting),
        0x10..=0x16 => Some(Redundancy::Hetero {
            k: 1 << (byte & 0x0F),
        }),
        _ => None,
    }
}

/// Default upper bound on a frame's length field (tag + body bytes).
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Why the server refused work (the `reason` byte of a `Busy` frame).
///
/// Every refusal is lossless backpressure: whatever the server already
/// buffered stays buffered, whatever it refused stays with the client,
/// and the operation may be retried. The `pending`/`capacity` fields of
/// the `Busy` frame are reason-scoped:
///
/// | reason           | pending                   | capacity            |
/// |------------------|---------------------------|---------------------|
/// | `QueueFull`      | outstanding fleet jobs    | fleet job capacity  |
/// | `ShuttingDown`   | outstanding fleet jobs    | fleet job capacity  |
/// | `QuotaExceeded`  | quota units in use        | the quota           |
/// | `RateLimited`    | retry-after (whole ms)    | 0                   |
/// | `TenantDraining` | 0                         | 0                   |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// Fleet admission is saturated; retry the flush later. Buffered
    /// tokens are retained server-side — nothing is lost.
    QueueFull,
    /// The server is draining; no new streams or tokens are accepted.
    ShuttingDown,
    /// A per-tenant quota (buffered-token queue quota on `Tokens`,
    /// in-flight-jobs cap on `Flush`) is exhausted.
    QuotaExceeded,
    /// The tenant's token-rate limit refused the flush for now; retry
    /// after the hinted delay.
    RateLimited,
    /// The stream's tenant is draining toward detach; no new work.
    TenantDraining,
}

impl BusyReason {
    fn to_byte(self) -> u8 {
        match self {
            BusyReason::QueueFull => 0,
            BusyReason::ShuttingDown => 1,
            BusyReason::QuotaExceeded => 2,
            BusyReason::RateLimited => 3,
            BusyReason::TenantDraining => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        match b {
            0 => Ok(BusyReason::QueueFull),
            1 => Ok(BusyReason::ShuttingDown),
            2 => Ok(BusyReason::QuotaExceeded),
            3 => Ok(BusyReason::RateLimited),
            4 => Ok(BusyReason::TenantDraining),
            _ => Err(ProtocolError::BadPayload("unknown busy reason")),
        }
    }
}

impl std::fmt::Display for BusyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusyReason::QueueFull => write!(f, "queue-full"),
            BusyReason::ShuttingDown => write!(f, "shutting-down"),
            BusyReason::QuotaExceeded => write!(f, "quota-exceeded"),
            BusyReason::RateLimited => write!(f, "rate-limited"),
            BusyReason::TenantDraining => write!(f, "tenant-draining"),
        }
    }
}

/// One `RTFT/1` frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client greeting; must be the first frame on a connection.
    Hello {
        /// Protocol version the client speaks ([`PROTOCOL_VERSION`]).
        version: u32,
        /// Client name (diagnostics only).
        client: String,
    },
    /// Open a fault-tolerant stream.
    OpenStream {
        /// Index into [`rtft_apps::networks::App::ALL`].
        app: u8,
        /// Replica count: 2 (duplicated) or 3 (tri-modular voting).
        redundancy: u8,
    },
    /// A batch of token payloads for a stream.
    Tokens {
        /// Stream id from `Accepted`.
        stream: u32,
        /// Raw token payloads, in arrival order. Shared [`Bytes`]
        /// handles: decoded, they are ranges of the frame's body as the
        /// socket filled it, which the server threads through its
        /// buffer, the WAL record, and the fleet job without copying.
        payloads: Vec<Bytes>,
    },
    /// Run the stream's buffered tokens through its pipeline now.
    Flush {
        /// Stream id from `Accepted`.
        stream: u32,
    },
    /// Client is done with the stream; server settles it and replies with
    /// a final `Stats`.
    Close {
        /// Stream id from `Accepted`.
        stream: u32,
    },
    /// Positive reply to `Hello` (connection id) or `OpenStream` (stream
    /// id).
    Accepted {
        /// Connection or stream id.
        id: u32,
    },
    /// Backpressure: the request was refused, nothing was lost.
    Busy {
        /// Stream the refusal concerns (`u32::MAX` = whole connection).
        stream: u32,
        /// Why the server refused.
        reason: BusyReason,
        /// Outstanding fleet jobs at the time of refusal.
        pending: u32,
        /// The fleet's outstanding-job capacity.
        capacity: u32,
    },
    /// One selector output delivered to the consumer.
    Output {
        /// Stream id.
        stream: u32,
        /// Zero-based output sequence number within the flush.
        seq: u64,
        /// Delivery timestamp (virtual ns for DES runs, wall ns for
        /// threaded runs).
        at_ns: u64,
        /// FNV-1a digest of the delivered payload.
        digest: u64,
    },
    /// A replica was latched faulty during a flush run.
    Fault {
        /// Stream id.
        stream: u32,
        /// Latched replica index.
        replica: u32,
        /// Detection site ([`site_kind`]).
        kind: u8,
        /// Latch time minus injection time (0 when the injection instant
        /// is unknown to the server).
        detection_latency_ns: u64,
    },
    /// Per-stream accounting plus live server load.
    Stats {
        /// Stream id.
        stream: u32,
        /// Tokens accepted from the client so far.
        tokens_in: u64,
        /// Tokens delivered back as `Output` frames.
        delivered: u64,
        /// `Fault` frames pushed for this stream.
        faults: u64,
        /// `Busy` refusals this stream has seen.
        busy: u64,
        /// Fleet worker-pool queue depth at snapshot time.
        queued: u32,
        /// Fleet jobs executing at snapshot time.
        inflight: u32,
        /// Admitted-but-unfinished fleet jobs at snapshot time.
        outstanding: u32,
    },
    /// A `Tokens` batch reached the server's write-ahead log: the tokens
    /// survive a server crash and will be replayed on restart. Only sent
    /// when the server runs with a WAL (`ServerConfig::wal`).
    Durable {
        /// Stream id.
        stream: u32,
        /// Tokens in the batch this acknowledgement covers.
        tokens: u32,
        /// WAL sequence number of the batch's log record.
        seq: u64,
    },
}

impl Frame {
    /// The frame's tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::OpenStream { .. } => 0x02,
            Frame::Tokens { .. } => 0x03,
            Frame::Flush { .. } => 0x04,
            Frame::Close { .. } => 0x05,
            Frame::Accepted { .. } => 0x81,
            Frame::Busy { .. } => 0x82,
            Frame::Output { .. } => 0x83,
            Frame::Fault { .. } => 0x84,
            Frame::Stats { .. } => 0x85,
            Frame::Durable { .. } => 0x86,
        }
    }

    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::OpenStream { .. } => "OpenStream",
            Frame::Tokens { .. } => "Tokens",
            Frame::Flush { .. } => "Flush",
            Frame::Close { .. } => "Close",
            Frame::Accepted { .. } => "Accepted",
            Frame::Busy { .. } => "Busy",
            Frame::Output { .. } => "Output",
            Frame::Fault { .. } => "Fault",
            Frame::Stats { .. } => "Stats",
            Frame::Durable { .. } => "Durable",
        }
    }

    /// Encodes the frame as `length ‖ tag ‖ body` wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut wire = Vec::new();
        self.encode_into(&mut wire);
        wire
    }

    /// Appends the frame's `length ‖ tag ‖ body` wire bytes to `out` —
    /// how several frames are staged for one socket write.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        // The length field is patched in once the body is in place.
        put_u32(out, 0);
        out.push(self.tag());
        match self {
            Frame::Hello { version, client } => {
                put_u32(out, *version);
                put_bytes(out, client.as_bytes());
            }
            Frame::OpenStream { app, redundancy } => {
                out.push(*app);
                out.push(*redundancy);
            }
            Frame::Tokens { stream, payloads } => {
                put_u32(out, *stream);
                put_u32(out, payloads.len() as u32);
                for p in payloads {
                    put_bytes(out, p);
                }
            }
            Frame::Flush { stream } | Frame::Close { stream } => {
                put_u32(out, *stream);
            }
            Frame::Accepted { id } => put_u32(out, *id),
            Frame::Busy {
                stream,
                reason,
                pending,
                capacity,
            } => {
                put_u32(out, *stream);
                out.push(reason.to_byte());
                put_u32(out, *pending);
                put_u32(out, *capacity);
            }
            Frame::Output {
                stream,
                seq,
                at_ns,
                digest,
            } => {
                put_u32(out, *stream);
                put_u64(out, *seq);
                put_u64(out, *at_ns);
                put_u64(out, *digest);
            }
            Frame::Fault {
                stream,
                replica,
                kind,
                detection_latency_ns,
            } => {
                put_u32(out, *stream);
                put_u32(out, *replica);
                out.push(*kind);
                put_u64(out, *detection_latency_ns);
            }
            Frame::Stats {
                stream,
                tokens_in,
                delivered,
                faults,
                busy,
                queued,
                inflight,
                outstanding,
            } => {
                put_u32(out, *stream);
                put_u64(out, *tokens_in);
                put_u64(out, *delivered);
                put_u64(out, *faults);
                put_u64(out, *busy);
                put_u32(out, *queued);
                put_u32(out, *inflight);
                put_u32(out, *outstanding);
            }
            Frame::Durable {
                stream,
                tokens,
                seq,
            } => {
                put_u32(out, *stream);
                put_u32(out, *tokens);
                put_u64(out, *seq);
            }
        }
        let tagged_len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&tagged_len.to_le_bytes());
    }

    /// Decodes a frame from its `tag ‖ body` bytes (the length prefix
    /// already stripped), taking ownership of them: a `Tokens` frame's
    /// payloads are ranges of `buf` ([`Bytes::share_ranges`]), hashed,
    /// with no copy. Never panics on malformed input.
    pub fn decode(buf: Vec<u8>) -> Result<Frame, ProtocolError> {
        Ok(match Frame::parse(&buf)? {
            Parsed::Frame(frame) => frame,
            Parsed::Tokens { stream, ranges } => Frame::Tokens {
                stream,
                payloads: Bytes::share_ranges(buf, &ranges),
            },
        })
    }

    /// [`Frame::decode`] from borrowed bytes: `Tokens` payloads are copied
    /// into buffers from `pool` ([`PayloadPool::take_copies`]). Only
    /// [`read_frame_pooled`] calls it.
    fn decode_pooled(buf: &[u8], pool: &PayloadPool) -> Result<Frame, ProtocolError> {
        Ok(match Frame::parse(buf)? {
            Parsed::Frame(frame) => frame,
            Parsed::Tokens { stream, ranges } => {
                let raws: Vec<&[u8]> = ranges.into_iter().map(|r| &buf[r]).collect();
                Frame::Tokens {
                    stream,
                    payloads: pool.take_copies(&raws),
                }
            }
        })
    }

    /// Checks the whole of `buf` against the grammar and decodes every
    /// field but `Tokens` payloads, which it locates.
    fn parse(buf: &[u8]) -> Result<Parsed, ProtocolError> {
        let (&tag, mut body) = buf
            .split_first()
            .ok_or(ProtocolError::BadPayload("empty frame"))?;
        let r = &mut body;
        let frame = match tag {
            0x01 => Frame::Hello {
                version: get_u32(r)?,
                client: std::str::from_utf8(get_byte_slice(r)?)
                    .map_err(|_| ProtocolError::BadPayload("client name is not UTF-8"))?
                    .to_owned(),
            },
            0x02 => Frame::OpenStream {
                app: get_u8(r)?,
                redundancy: get_u8(r)?,
            },
            0x03 => {
                let stream = get_u32(r)?;
                let count = get_u32(r)? as usize;
                // A payload costs at least its 4-byte length prefix, so a
                // count beyond the remaining bytes / 4 cannot be honest.
                if count > r.len() / 4 + 1 {
                    return Err(ProtocolError::BadPayload("token count exceeds frame"));
                }
                let mut ranges = Vec::with_capacity(count);
                for _ in 0..count {
                    let len = get_byte_slice(r)?.len();
                    // `r` is what is left of `buf` past this payload.
                    let end = buf.len() - r.len();
                    ranges.push(end - len..end);
                }
                if !r.is_empty() {
                    return Err(ProtocolError::BadPayload("trailing bytes after frame"));
                }
                return Ok(Parsed::Tokens { stream, ranges });
            }
            0x04 => Frame::Flush {
                stream: get_u32(r)?,
            },
            0x05 => Frame::Close {
                stream: get_u32(r)?,
            },
            0x81 => Frame::Accepted { id: get_u32(r)? },
            0x82 => Frame::Busy {
                stream: get_u32(r)?,
                reason: BusyReason::from_byte(get_u8(r)?)?,
                pending: get_u32(r)?,
                capacity: get_u32(r)?,
            },
            0x83 => Frame::Output {
                stream: get_u32(r)?,
                seq: get_u64(r)?,
                at_ns: get_u64(r)?,
                digest: get_u64(r)?,
            },
            0x84 => Frame::Fault {
                stream: get_u32(r)?,
                replica: get_u32(r)?,
                kind: get_u8(r)?,
                detection_latency_ns: get_u64(r)?,
            },
            0x85 => Frame::Stats {
                stream: get_u32(r)?,
                tokens_in: get_u64(r)?,
                delivered: get_u64(r)?,
                faults: get_u64(r)?,
                busy: get_u64(r)?,
                queued: get_u32(r)?,
                inflight: get_u32(r)?,
                outstanding: get_u32(r)?,
            },
            0x86 => Frame::Durable {
                stream: get_u32(r)?,
                tokens: get_u32(r)?,
                seq: get_u64(r)?,
            },
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        if !r.is_empty() {
            return Err(ProtocolError::BadPayload("trailing bytes after frame"));
        }
        Ok(Parsed::Frame(frame))
    }
}

/// A frame whose grammar [`Frame::parse`] has checked, with a `Tokens`
/// frame's payloads still byte ranges of the buffer it parsed.
enum Parsed {
    Frame(Frame),
    Tokens {
        stream: u32,
        ranges: Vec<Range<usize>>,
    },
}

/// Writes one frame to `w`. Returns the wire bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, ServeError> {
    let wire = frame.encode();
    w.write_all(&wire)?;
    Ok(wire.len())
}

/// Staged bytes at which a [`FrameWriter`] writes early, so a huge flush
/// cannot build a huge buffer.
const WRITE_CHUNK: usize = 64 << 10;

/// Stages whole frames and hands them to `w` in one `write_all` per
/// [`FrameWriter::flush`]: a settle's `Output`s, `Fault`s and `Stats`
/// leave in one segment instead of one small write per frame.
pub(crate) struct FrameWriter<W: Write> {
    w: W,
    staged: Vec<u8>,
    /// Wire bytes `w` has accepted so far.
    pub(crate) written: usize,
}

impl<W: Write> FrameWriter<W> {
    pub(crate) fn new(w: W) -> Self {
        FrameWriter {
            w,
            staged: Vec::new(),
            written: 0,
        }
    }

    /// Stages one frame and returns its wire length; writes what is staged
    /// once [`WRITE_CHUNK`] bytes are.
    pub(crate) fn stage(&mut self, frame: &Frame) -> io::Result<usize> {
        let start = self.staged.len();
        frame.encode_into(&mut self.staged);
        let n = self.staged.len() - start;
        if self.staged.len() >= WRITE_CHUNK {
            self.flush()?;
        }
        Ok(n)
    }

    /// Writes everything staged. After an error the staged bytes are
    /// dropped: the peer is gone.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        let result = self.w.write_all(&self.staged);
        if result.is_ok() {
            self.written += self.staged.len();
        }
        self.staged.clear();
        result
    }
}

/// Reads one frame's length prefix and enforces the length grammar
/// (non-zero, at most `max_frame`); returns the length of the `tag ‖ body`
/// bytes that follow. The one place a frame header is parsed, so a
/// dishonest length is refused before anything is allocated for it.
fn read_len(r: &mut impl Read, max_frame: u32) -> Result<usize, ServeError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(ProtocolError::BadPayload("zero-length frame").into());
    }
    if len > max_frame {
        return Err(ProtocolError::Oversized {
            len,
            max: max_frame,
        }
        .into());
    }
    Ok(len as usize)
}

/// Reads one frame's `tag ‖ body` bytes into a fresh buffer of exactly
/// their length, which [`Frame::decode`] then takes. The body is read
/// once, through `Read::take(len).read_to_end`: a reader with its own
/// `read_buf` (a socket, a `BufReader`, a slice) writes straight into the
/// spare capacity, so the buffer is never zero-filled; any other reader
/// has std zero-fill it once.
pub(crate) fn read_body(r: &mut impl Read, max_frame: u32) -> Result<Vec<u8>, ServeError> {
    let len = read_len(r, max_frame)?;
    let mut body = Vec::with_capacity(len);
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(ServeError::ConnectionClosed);
    }
    Ok(body)
}

/// Reads one frame from `r`, enforcing `max_frame` on the length field.
/// Returns the frame and the wire bytes consumed.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<(Frame, usize), ServeError> {
    let body = read_body(r, max_frame)?;
    let n = 4 + body.len();
    Ok((Frame::decode(body)?, n))
}

/// [`read_frame`] into recycled buffers: the wire body is read into the
/// front of the caller-owned `scratch` buffer (grown to the largest frame
/// seen, never shrunk or zero-filled again) and `Tokens` payloads are
/// copied into buffers taken from `pool`, hashed as they are copied.
///
/// Nothing in the workspace reads this way any more: the server and the
/// client read each frame into a buffer of its own ([`read_frame`]), and
/// a frame's payloads are ranges of it. This stays while the benchmark
/// harness's mirror of the old ingest path names it.
pub fn read_frame_pooled(
    r: &mut impl Read,
    max_frame: u32,
    pool: &PayloadPool,
    scratch: &mut Vec<u8>,
) -> Result<(Frame, usize), ServeError> {
    let len = read_len(r, max_frame)?;
    if scratch.len() < len {
        scratch.resize(len, 0);
    }
    let body = &mut scratch[..len];
    r.read_exact(body)?;
    Ok((Frame::decode_pooled(body, pool)?, 4 + len))
}

/// Encodes and writes one `Tokens` frame from *borrowed* payload slices,
/// using gather I/O: the frame header and each payload's length prefix
/// are staged in small scratch vectors, the payload bytes themselves are
/// handed to [`Write::write_vectored`] in place. The batch is never
/// copied into an assembled frame buffer, so the send path costs the
/// caller no per-payload allocation or memcpy. Returns the wire bytes
/// written.
pub fn write_tokens(
    w: &mut impl Write,
    stream: u32,
    payloads: &[impl AsRef<[u8]>],
) -> Result<usize, ServeError> {
    // length ‖ tag ‖ stream ‖ count, then count × (len ‖ bytes); the
    // length field counts the tag plus everything after it.
    let tagged_len: usize = 9 + payloads.iter().map(|p| 4 + p.as_ref().len()).sum::<usize>();
    let mut header = [0u8; 13];
    header[..4].copy_from_slice(&(tagged_len as u32).to_le_bytes());
    header[4] = 0x03;
    header[5..9].copy_from_slice(&stream.to_le_bytes());
    header[9..13].copy_from_slice(&(payloads.len() as u32).to_le_bytes());
    let prefixes: Vec<[u8; 4]> = payloads
        .iter()
        .map(|p| (p.as_ref().len() as u32).to_le_bytes())
        .collect();
    let mut slices = Vec::with_capacity(1 + 2 * payloads.len());
    slices.push(IoSlice::new(&header));
    for (p, prefix) in payloads.iter().zip(&prefixes) {
        slices.push(IoSlice::new(prefix));
        slices.push(IoSlice::new(p.as_ref()));
    }
    write_all_vectored(w, &mut slices)?;
    Ok(4 + tagged_len)
}

/// Drives [`Write::write_vectored`] to completion across short writes.
/// (`Write::write_all_vectored` is unstable; this is the same loop,
/// advancing past fully-written slices and re-slicing the partial one.)
fn write_all_vectored(w: &mut impl Write, slices: &mut [IoSlice<'_>]) -> Result<(), ServeError> {
    let mut first = 0usize;
    // Bytes of `slices[first]` already written (a short write can land
    // mid-slice; `IoSlice::advance` is also unstable, so re-borrowing the
    // tail of the current slice is done by hand below).
    let mut offset = 0usize;
    while first < slices.len() {
        let n = if offset == 0 {
            w.write_vectored(&slices[first..])?
        } else {
            // Re-slice the partially-written head, then the rest.
            let head = &slices[first][offset..];
            let mut retry = Vec::with_capacity(slices.len() - first);
            retry.push(IoSlice::new(head));
            retry.extend(slices[first + 1..].iter().map(|s| IoSlice::new(s)));
            w.write_vectored(&retry)?
        };
        if n == 0 {
            return Err(ServeError::Io(io::Error::new(
                io::ErrorKind::WriteZero,
                "failed to write whole frame",
            )));
        }
        let mut left = n;
        while first < slices.len() {
            let remaining = slices[first].len() - offset;
            if left < remaining {
                offset += left;
                break;
            }
            left -= remaining;
            offset = 0;
            first += 1;
        }
    }
    Ok(())
}

/// Maps a detection site to the `kind` byte of a `Fault` frame.
pub fn site_kind(site: Option<rtft_obs::DetectionSite>) -> u8 {
    use rtft_obs::DetectionSite;
    match site {
        Some(DetectionSite::ReplicatorOverflow) => 0,
        Some(DetectionSite::ReplicatorDivergence) => 1,
        Some(DetectionSite::SelectorStall) => 2,
        Some(DetectionSite::SelectorDivergence) => 3,
        None => 255,
    }
}

/// Human label for a `Fault` frame's `kind` byte.
pub fn kind_label(kind: u8) -> &'static str {
    match kind {
        0 => "replicator.overflow",
        1 => "replicator.divergence",
        2 => "selector.stall",
        3 => "selector.divergence",
        _ => "unknown",
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn get_u8(r: &mut &[u8]) -> Result<u8, ProtocolError> {
    let (&b, rest) = r
        .split_first()
        .ok_or(ProtocolError::BadPayload("truncated u8"))?;
    *r = rest;
    Ok(b)
}

fn get_u32(r: &mut &[u8]) -> Result<u32, ProtocolError> {
    if r.len() < 4 {
        return Err(ProtocolError::BadPayload("truncated u32"));
    }
    let (head, rest) = r.split_at(4);
    *r = rest;
    Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
}

fn get_u64(r: &mut &[u8]) -> Result<u64, ProtocolError> {
    if r.len() < 8 {
        return Err(ProtocolError::BadPayload("truncated u64"));
    }
    let (head, rest) = r.split_at(8);
    *r = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

fn get_byte_slice<'a>(r: &mut &'a [u8]) -> Result<&'a [u8], ProtocolError> {
    let len = get_u32(r)? as usize;
    if r.len() < len {
        return Err(ProtocolError::BadPayload("truncated byte field"));
    }
    let (head, rest) = r.split_at(len);
    *r = rest;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_byte_roundtrips() {
        for k in [1u64, 2, 4, 8, 16, 32, 64] {
            let byte = redundancy_byte(Redundancy::Hetero { k }).expect("power-of-two stride");
            assert_eq!(byte & 0xF0, 0x10);
            assert_eq!(redundancy_from_byte(byte), Some(Redundancy::Hetero { k }));
        }
        assert_eq!(redundancy_byte(Redundancy::Hetero { k: 3 }), None);
        assert_eq!(redundancy_byte(Redundancy::Hetero { k: 128 }), None);
        for (byte, plain) in [(2, Redundancy::Duplicated), (3, Redundancy::TriVoting)] {
            assert_eq!(redundancy_byte(plain), Some(byte));
            assert_eq!(redundancy_from_byte(byte), Some(plain));
        }
        // Other replica counts and out-of-range exponents name nothing.
        for byte in [0, 1, 4, 0x17, 0x20] {
            assert_eq!(redundancy_from_byte(byte), None, "{byte:#x}");
        }
    }

    fn round_trip(frame: Frame) {
        let wire = frame.encode();
        let (decoded, consumed) = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME)
            .unwrap_or_else(|e| panic!("{frame:?}: {e}"));
        assert_eq!(decoded, frame);
        assert_eq!(consumed, wire.len());
        // Staging behind other bytes appends exactly the same encoding.
        let mut staged = vec![0xAB; 3];
        frame.encode_into(&mut staged);
        assert_eq!(staged[..3], [0xAB; 3]);
        assert_eq!(staged[3..], wire);
    }

    #[test]
    fn every_frame_round_trips() {
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "test-client".into(),
        });
        round_trip(Frame::OpenStream {
            app: 1,
            redundancy: 3,
        });
        round_trip(Frame::Tokens {
            stream: 7,
            payloads: vec![
                Bytes::from(vec![1, 2, 3]),
                Bytes::from(vec![]),
                Bytes::from(vec![0xFF; 100]),
            ],
        });
        round_trip(Frame::Flush { stream: 7 });
        round_trip(Frame::Close { stream: 7 });
        round_trip(Frame::Accepted { id: 42 });
        round_trip(Frame::Busy {
            stream: 7,
            reason: BusyReason::QueueFull,
            pending: 64,
            capacity: 64,
        });
        for reason in [
            BusyReason::ShuttingDown,
            BusyReason::QuotaExceeded,
            BusyReason::RateLimited,
            BusyReason::TenantDraining,
        ] {
            round_trip(Frame::Busy {
                stream: 9,
                reason,
                pending: 3,
                capacity: 0,
            });
        }
        round_trip(Frame::Output {
            stream: 7,
            seq: 3,
            at_ns: 123_456,
            digest: u64::MAX,
        });
        round_trip(Frame::Fault {
            stream: 7,
            replica: 1,
            kind: 3,
            detection_latency_ns: 987,
        });
        round_trip(Frame::Stats {
            stream: 7,
            tokens_in: 10,
            delivered: 10,
            faults: 1,
            busy: 2,
            queued: 3,
            inflight: 1,
            outstanding: 4,
        });
        round_trip(Frame::Durable {
            stream: 7,
            tokens: 16,
            seq: u64::MAX,
        });
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let wire = 0u32.to_le_bytes();
        let err = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Protocol(ProtocolError::Oversized { len: u32::MAX, .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn unknown_tag_is_a_clean_error() {
        let frame = [2u8, 0, 0, 0, 0x7F, 0];
        let err = read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(
            matches!(err, ServeError::Protocol(ProtocolError::UnknownTag(0x7F))),
            "{err}"
        );
    }

    #[test]
    fn truncated_body_is_a_clean_error() {
        let full = Frame::Output {
            stream: 1,
            seq: 2,
            at_ns: 3,
            digest: 4,
        }
        .encode();
        // Re-frame a prefix of the body under a matching (shorter) length.
        let body = &full[4..full.len() - 5];
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(body);
        let err = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }

    #[test]
    fn write_tokens_matches_frame_encode() {
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"gamma-gamma"];
        let mut vectored = Vec::new();
        let n = write_tokens(&mut vectored, 9, &payloads).unwrap();
        let owned = Frame::Tokens {
            stream: 9,
            payloads: payloads.iter().map(|p| Bytes::from(*p)).collect(),
        };
        assert_eq!(vectored, owned.encode());
        assert_eq!(n, vectored.len());
    }

    /// A writer that accepts at most 3 bytes per call — forces
    /// `write_all_vectored` through every partial-write resumption case
    /// (mid-slice, on a slice boundary, spanning slices).
    struct Trickle(Vec<u8>);
    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let first = bufs.iter().find(|b| !b.is_empty());
            match first {
                Some(b) => self.write(b),
                None => Ok(0),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_tokens_survives_short_vectored_writes() {
        let payloads: Vec<&[u8]> = vec![b"0123456789", b"x", b"", b"abcdef"];
        let mut sink = Trickle(Vec::new());
        write_tokens(&mut sink, 3, &payloads).unwrap();
        let owned = Frame::Tokens {
            stream: 3,
            payloads: payloads.iter().map(|p| Bytes::from(*p)).collect(),
        };
        assert_eq!(sink.0, owned.encode());
    }

    /// A writer that takes whatever it is given and counts the calls.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        calls: usize,
    }
    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn output(seq: u64) -> Frame {
        Frame::Output {
            stream: 7,
            seq,
            at_ns: 1_000 * seq,
            digest: !seq,
        }
    }

    /// Stages `frames` onto `sink` and flushes; returns the bytes the
    /// writer says `sink` took.
    fn write_staged(sink: &mut impl Write, frames: &[Frame]) -> usize {
        let mut w = FrameWriter::new(sink);
        for f in frames {
            w.stage(f).unwrap();
        }
        w.flush().unwrap();
        w.written
    }

    #[test]
    fn a_staged_settle_is_one_write() {
        let mut settle: Vec<Frame> = (0..16).map(output).collect();
        settle.push(Frame::Stats {
            stream: 7,
            tokens_in: 16,
            delivered: 16,
            faults: 0,
            busy: 0,
            queued: 0,
            inflight: 1,
            outstanding: 1,
        });
        let stats = settle.last().unwrap();
        let booked = FrameWriter::new(Vec::new()).stage(stats).unwrap();
        assert_eq!(booked, stats.encode().len());

        let mut sink = Counting::default();
        let written = write_staged(&mut sink, &settle);
        assert_eq!(sink.calls, 1);
        assert_eq!(sink.bytes.len(), written);
        let mut wire = sink.bytes.as_slice();
        for frame in &settle {
            let (decoded, _) = read_frame(&mut wire, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(&decoded, frame);
        }
        assert!(wire.is_empty());
    }

    #[test]
    fn a_huge_settle_is_written_in_chunks_and_loses_nothing() {
        let frames: Vec<Frame> = (0..3_000).map(output).collect();
        let expected: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        assert!(expected.len() > WRITE_CHUNK && expected.len() < 2 * WRITE_CHUNK);

        let mut sink = Counting::default();
        assert_eq!(write_staged(&mut sink, &frames), expected.len());
        assert_eq!(
            sink.calls, 2,
            "one early write at the chunk, one at the end"
        );
        assert_eq!(sink.bytes, expected);

        // The same under short writes.
        let mut sink = Trickle(Vec::new());
        assert_eq!(write_staged(&mut sink, &frames), expected.len());
        assert_eq!(sink.0, expected);
    }

    #[test]
    fn pooled_read_reuses_payload_buffers() {
        let pool = PayloadPool::new();
        let mut scratch = Vec::new();
        let frame = Frame::Tokens {
            stream: 1,
            payloads: vec![Bytes::from(vec![7u8; 64])],
        };
        let wire = frame.encode();
        let (got, n) =
            read_frame_pooled(&mut wire.as_slice(), DEFAULT_MAX_FRAME, &pool, &mut scratch)
                .unwrap();
        assert_eq!(got, frame);
        assert_eq!(n, wire.len());
        // Recycle the decoded payload; the next identical frame must hit.
        match got {
            Frame::Tokens { payloads, .. } => {
                for p in payloads {
                    assert!(pool.recycle(p));
                }
            }
            _ => unreachable!(),
        }
        let (_, _) =
            read_frame_pooled(&mut wire.as_slice(), DEFAULT_MAX_FRAME, &pool, &mut scratch)
                .unwrap();
        let stats = pool.stats();
        assert_eq!(stats.hits, 1, "{stats:?}");
        assert_eq!(stats.misses, 1, "{stats:?}");
    }

    /// The server's ingest: a `Tokens` frame read without a pool arrives
    /// in buffers of its own, every one already hashed, at each count of
    /// whole quads plus leftovers, with tail bytes in every lane.
    #[test]
    fn a_tokens_frame_arrives_with_every_memo_filled() {
        for count in 0..=9u8 {
            let payloads: Vec<Bytes> = (0..count)
                .map(|i| Bytes::from(vec![i; [0, 5, 4_099, 13, 8][i as usize % 5]]))
                .collect();
            let wire = Frame::Tokens {
                stream: 3,
                payloads: payloads.clone(),
            }
            .encode();
            let (Frame::Tokens { payloads: got, .. }, _) =
                read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).unwrap()
            else {
                panic!("a Tokens frame decodes as Tokens");
            };
            assert_eq!(got, payloads);
            for (i, b) in got.iter().enumerate() {
                assert_eq!(
                    b.memo(),
                    Some(rtft_kpn::digest_bytes(b)),
                    "{count} payloads, #{i}"
                );
                assert_eq!(Bytes::strong_count(b), 1);
            }
        }
    }

    /// One scratch buffer across a 640 KB `Tokens` frame, a `Flush` and a
    /// shorter `Tokens` frame: it stays at its high-water length, each
    /// frame decodes from exactly its own bytes, and every pooled payload
    /// arrives hashed — on fresh buffers and on recycled ones whose memos
    /// held the previous contents' digests. Malformed frames read after the
    /// large one still fail, although stale bytes follow them in scratch.
    #[test]
    fn a_reused_scratch_decodes_each_frame_from_its_own_bytes() {
        let pool = PayloadPool::new();
        let mut scratch = Vec::new();
        let mut rng = rtft_kpn::SplitMix64::seed_from_u64(0x640);
        let mut tokens = |lens: &mut dyn Iterator<Item = usize>| Frame::Tokens {
            stream: 5,
            payloads: lens
                .map(|n| (0..n).map(|_| rng.next_u64() as u8).collect())
                .collect(),
        };
        let large = tokens(&mut (0..64).map(|i| 10_000 + i));
        let short = tokens(&mut (0..7).map(|i| 3_000 + 5 * i));
        let again = tokens(&mut (0..64).map(|i| 10_000 + i));
        let high_water = large.encode().len() - 4;
        assert!(high_water > 640_000);

        let mut read =
            |wire: &[u8]| read_frame_pooled(&mut &wire[..], DEFAULT_MAX_FRAME, &pool, &mut scratch);
        let mut received = Vec::new();
        for frame in [&large, &Frame::Flush { stream: 5 }, &short] {
            let wire = frame.encode();
            let (got, n) = read(&wire).unwrap_or_else(|e| panic!("{}: {e}", frame.name()));
            assert_eq!(&got, frame);
            assert_eq!(n, wire.len());
            received.push(got);
        }
        let Frame::Tokens { payloads, .. } = received.remove(0) else {
            unreachable!("the large frame")
        };
        for p in payloads {
            assert_eq!(p.memo(), Some(rtft_kpn::digest_bytes(&p)));
            assert!(pool.recycle(p));
        }
        let (got, _) = read(&again.encode()).unwrap();
        assert_eq!(got, again);
        assert_eq!(pool.stats().hits, 64, "every buffer of `again` is recycled");
        for frame in [&got, &received[1]] {
            let Frame::Tokens { payloads, .. } = frame else {
                unreachable!("tokens")
            };
            for p in payloads {
                assert_eq!(p.memo(), Some(rtft_kpn::digest_bytes(p)));
            }
        }

        // Re-framed bodies: `short` claiming one payload more than it
        // carries, and a `Flush` with a byte after its stream id.
        let mut truncated = short.encode()[4..].to_vec();
        truncated[5..9].copy_from_slice(&8u32.to_le_bytes());
        let mut trailing = Frame::Flush { stream: 5 }.encode()[4..].to_vec();
        trailing.push(0);
        for (body, error) in [
            (truncated, "truncated u32"),
            (trailing, "trailing bytes after frame"),
        ] {
            let mut wire = (body.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&body);
            let err = read(&wire).unwrap_err();
            assert!(
                matches!(err, ServeError::Protocol(ProtocolError::BadPayload(e)) if e == error),
                "{err}"
            );
        }
        assert_eq!(scratch.len(), high_water, "scratch never shrinks");
    }

    #[test]
    fn dishonest_token_count_is_rejected() {
        let mut body = vec![0x03];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::decode(body).unwrap_err();
        assert!(matches!(err, ProtocolError::BadPayload(_)), "{err}");
    }

    /// A reader that hands out at most 7 bytes per `read`, so a frame's
    /// length prefix and body each arrive in many short reads.
    struct Dribble<'a>(&'a [u8]);
    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(7).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Frames read in 7-byte pieces, back to back on one reader: each
    /// `Tokens` payload is a range of its frame's body, equal to what was
    /// sent and already hashed, at counts 0–9 with empty and odd lengths.
    #[test]
    fn a_dribbled_tokens_frame_decodes_to_hashed_ranges() {
        let sent: Vec<Vec<Bytes>> = (0..=9u8)
            .map(|count| {
                (0..count)
                    .map(|i| Bytes::from(vec![i ^ 0x5A; [0, 5, 4_099, 13, 0, 8][i as usize % 6]]))
                    .collect()
            })
            .collect();
        let mut wire = Vec::new();
        for payloads in &sent {
            Frame::Tokens {
                stream: 4,
                payloads: payloads.clone(),
            }
            .encode_into(&mut wire);
        }
        let mut reader = Dribble(&wire);
        for payloads in &sent {
            let (
                Frame::Tokens {
                    stream: 4,
                    payloads: got,
                },
                _,
            ) = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap()
            else {
                panic!("a Tokens frame decodes as Tokens");
            };
            assert_eq!(&got, payloads);
            for (i, mut b) in got.into_iter().enumerate() {
                assert_eq!(b.memo(), Some(rtft_kpn::digest_bytes(&b)), "#{i}");
                assert_eq!(Bytes::strong_count(&b), 1, "#{i}");
                assert!(Bytes::get_mut(&mut b).is_none(), "#{i} is a range");
            }
        }
        assert!(
            reader.0.is_empty(),
            "every frame read exactly its own bytes"
        );
        let err = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, ServeError::ConnectionClosed), "{err}");
    }

    #[test]
    fn a_body_cut_short_is_a_closed_connection() {
        let wire = Frame::Tokens {
            stream: 2,
            payloads: vec![Bytes::from(vec![9u8; 100])],
        }
        .encode();
        let err = read_frame(&mut Dribble(&wire[..wire.len() - 1]), DEFAULT_MAX_FRAME).unwrap_err();
        assert!(matches!(err, ServeError::ConnectionClosed), "{err}");
    }
}
