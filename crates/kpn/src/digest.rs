//! Streaming FNV-1a digest — the incremental form of [`Payload::digest`].
//!
//! [`Payload::digest`](crate::Payload::digest) folds a payload's bytes
//! eight at a time (little-endian words, tail bytes last, then the total
//! length) into a 64-bit FNV-1a hash. [`Digest`] computes the *same*
//! value incrementally: feed bytes in arbitrarily sized slices with
//! [`Digest::update`] and close with [`Digest::finish`]. The word
//! boundaries are anchored to the start of the stream (an internal
//! partial-word buffer carries tail bytes across `update` calls), so the
//! result is independent of how the input was split:
//!
//! ```
//! use rtft_kpn::{Digest, Payload};
//!
//! let bytes: Vec<u8> = (0u8..13).collect();
//! let mut d = Digest::new();
//! d.update(&bytes[..5]);
//! d.update(&bytes[5..]);
//! assert_eq!(d.finish(), Payload::from(bytes).digest());
//! ```
//!
//! This is what lets the WAL checksum a record while serialising it — no
//! second pass over the buffer, no intermediate copy — and still produce
//! a value comparable with the one-shot digests recorded elsewhere.
//!
//! FNV-1a is one serial xor → multiply chain per buffer, so a single
//! stream keeps the multiplier mostly idle. [`digest_bytes4`] folds four
//! buffers' chains in lockstep, one word per lane per step, and
//! [`copy_digest4`] does the same while copying the four buffers out, a
//! few KiB per lane at a time so the hash reads bytes still in L1. Each
//! lane computes exactly what [`digest_bytes`] computes — same words,
//! same tail bytes, same length word — for any four lengths:
//!
//! ```
//! use rtft_kpn::{digest_bytes, digest_bytes4};
//!
//! let bufs: [&[u8]; 4] = [b"", b"tail", b"one full word", &[7; 100]];
//! assert_eq!(digest_bytes4(bufs), bufs.map(digest_bytes));
//! ```
//!
//! Batches of buffers reach the lanes through
//! [`Bytes::digest_all`](crate::Bytes::digest_all), which hashes buffers
//! already built. The serve ingest is one of its callers: every payload
//! of a `Tokens` frame is a range of the frame the socket filled
//! ([`Bytes::share_ranges`](crate::Bytes::share_ranges)), hashed in
//! place, four ranges at a time. Only the benchmark-only
//! [`PayloadPool::take_copies`](crate::PayloadPool::take_copies) still
//! copies, into recycled buffers, through [`copy_digest4`]. The streaming
//! [`Digest`] and [`digest_bytes`] stay single-lane, and stay the
//! reference every lane is tested against.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn eat_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(PRIME)
}

#[inline]
fn eat_byte(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(PRIME)
}

/// Incremental FNV-1a word-at-a-time hasher.
///
/// `Digest::new().update(bytes).finish()` equals
/// `Payload::from(bytes.to_vec()).digest()` for any byte buffer, however
/// the calls to `update` slice it.
#[derive(Debug, Clone)]
pub struct Digest {
    h: u64,
    /// Bytes of the current (incomplete) 8-byte word, in stream order.
    partial: [u8; 8],
    partial_len: usize,
    /// Total bytes consumed (the trailing length word).
    len: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Digest {
            h: OFFSET,
            partial: [0; 8],
            partial_len: 0,
            len: 0,
        }
    }

    /// Folds `bytes` into the digest. Word boundaries stay anchored to
    /// the start of the stream, so splitting the input across calls does
    /// not change the final value.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        // Top up a pending partial word first.
        if self.partial_len > 0 {
            let take = (8 - self.partial_len).min(bytes.len());
            self.partial[self.partial_len..self.partial_len + take].copy_from_slice(&bytes[..take]);
            self.partial_len += take;
            bytes = &bytes[take..];
            if self.partial_len == 8 {
                self.h = eat_word(self.h, u64::from_le_bytes(self.partial));
                self.partial_len = 0;
            } else {
                return; // `bytes` exhausted before the word filled.
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.h = eat_word(
                self.h,
                u64::from_le_bytes(chunk.try_into().expect("8 bytes")),
            );
        }
        let rem = chunks.remainder();
        self.partial[..rem.len()].copy_from_slice(rem);
        self.partial_len = rem.len();
    }

    /// Total bytes folded in so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if no bytes have been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Closes the stream: folds the tail bytes (byte-wise, as the
    /// one-shot digest does) and the total length word, and returns the
    /// digest.
    pub fn finish(self) -> u64 {
        let mut h = self.h;
        for &b in &self.partial[..self.partial_len] {
            h = eat_byte(h, b);
        }
        eat_word(h, self.len)
    }
}

/// One-shot convenience: the digest of a whole byte slice.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

/// Bytes per lane [`copy_digest4`] copies before hashing them: four lanes
/// of source and destination fit in L1 together.
const COPY_CHUNK: usize = 4 << 10;

/// `digest_bytes` of each of four buffers, in one lockstep pass.
pub fn digest_bytes4(bufs: [&[u8]; 4]) -> [u64; 4] {
    let words = common_words(bufs.map(<[u8]>::len));
    let mut h = [OFFSET; 4];
    fold4(&mut h, bufs.map(|b| &b[..words]));
    std::array::from_fn(|l| finish_lane(h[l], &bufs[l][words..], bufs[l].len()))
}

/// Copies each `src[l]` into `dst[l]` and returns `digest_bytes` of each,
/// hashing every chunk right after it is copied.
///
/// # Panics
///
/// If a lane's source and destination differ in length.
pub fn copy_digest4(src: [&[u8]; 4], mut dst: [&mut [u8]; 4]) -> [u64; 4] {
    for (l, (s, d)) in src.iter().zip(&dst).enumerate() {
        assert_eq!(
            s.len(),
            d.len(),
            "lane {l}: source and destination lengths differ"
        );
    }
    let words = common_words(src.map(<[u8]>::len));
    let mut h = [OFFSET; 4];
    let mut at = 0;
    while at < words {
        let end = (at + COPY_CHUNK).min(words);
        for (s, d) in src.iter().zip(dst.iter_mut()) {
            d[at..end].copy_from_slice(&s[at..end]);
        }
        fold4(&mut h, dst.each_ref().map(|d| &d[at..end]));
        at = end;
    }
    std::array::from_fn(|l| {
        dst[l][words..].copy_from_slice(&src[l][words..]);
        finish_lane(h[l], &dst[l][words..], src[l].len())
    })
}

/// The longest prefix, in whole words, that all four lanes have.
fn common_words(lens: [usize; 4]) -> usize {
    lens.into_iter().min().unwrap_or(0) & !7
}

/// Folds four runs of whole words of one length, a word per lane per
/// step, so the four multiply chains overlap.
#[inline]
fn fold4(h: &mut [u64; 4], lanes: [&[u8]; 4]) {
    debug_assert!(lanes.iter().all(|l| l.len() == lanes[0].len()));
    let [a, b, c, d] = lanes.map(|l| l.chunks_exact(8));
    let [mut h0, mut h1, mut h2, mut h3] = *h;
    for (((wa, wb), wc), wd) in a.zip(b).zip(c).zip(d) {
        h0 = eat_word(h0, le_word(wa));
        h1 = eat_word(h1, le_word(wb));
        h2 = eat_word(h2, le_word(wc));
        h3 = eat_word(h3, le_word(wd));
    }
    *h = [h0, h1, h2, h3];
}

/// One lane past the lockstep words: its remaining whole words, its tail
/// bytes one at a time, then the buffer's total length — the order
/// [`Digest::finish`] closes a stream in. `rest` starts on a word
/// boundary of the buffer.
fn finish_lane(mut h: u64, rest: &[u8], len: usize) -> u64 {
    let mut words = rest.chunks_exact(8);
    for w in &mut words {
        h = eat_word(h, le_word(w));
    }
    for &b in words.remainder() {
        h = eat_byte(h, b);
    }
    eat_word(h, len as u64)
}

#[inline]
fn le_word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;

    /// The pinned vectors from `Payload::digest` — the streamed form must
    /// reproduce them exactly.
    #[test]
    fn fixed_vectors_match_one_shot() {
        // Empty stream == Payload::Empty.
        assert_eq!(Digest::new().finish(), 0xaf63_bd4c_8601_b7df);
        assert_eq!(Digest::new().finish(), Payload::Empty.digest());

        // A u64's LE bytes == Payload::U64.
        let mut d = Digest::new();
        d.update(&0xdead_beef_cafe_f00du64.to_le_bytes());
        assert_eq!(d.finish(), 0x811d_0077_16ea_3bd0);

        // A byte buffer == Payload::Bytes.
        let bytes: Vec<u8> = (0u8..13).collect();
        assert_eq!(digest_bytes(&bytes), 0xf0f1_c00c_fdb0_4010);
        assert_eq!(digest_bytes(&bytes), Payload::from(bytes).digest());
    }

    /// Streaming in every possible two-way split (and some pathological
    /// many-way splits) gives the same digest as one shot.
    #[test]
    fn split_invariance() {
        let bytes: Vec<u8> = (0u16..257).map(|b| (b % 251) as u8).collect();
        let expected = digest_bytes(&bytes);
        assert_eq!(expected, Payload::from(bytes.clone()).digest());
        for split in 0..=bytes.len() {
            let mut d = Digest::new();
            d.update(&bytes[..split]);
            d.update(&bytes[split..]);
            assert_eq!(d.finish(), expected, "split at {split}");
        }
        // Byte-at-a-time.
        let mut d = Digest::new();
        for b in &bytes {
            d.update(std::slice::from_ref(b));
        }
        assert_eq!(d.finish(), expected);
        // Empty updates are no-ops.
        let mut d = Digest::new();
        d.update(&[]);
        d.update(&bytes);
        d.update(&[]);
        assert_eq!(d.finish(), expected);
    }

    #[test]
    fn length_is_tracked() {
        let mut d = Digest::new();
        assert!(d.is_empty());
        d.update(&[1, 2, 3]);
        d.update(&[4]);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
    }

    /// Zero-padded buffers of different lengths stay distinct (the
    /// trailing length word survives the refactor).
    #[test]
    fn length_word_keeps_padded_buffers_distinct() {
        assert_ne!(digest_bytes(&[0u8; 8]), digest_bytes(&[0u8; 1]));
    }

    /// Each lane of `digest_bytes4` and `copy_digest4` is `digest_bytes`
    /// of its buffer: every lane length in 0..=67 against three others of
    /// different lengths, four equal lengths, and larger unequal lengths
    /// across the copy chunk. The copy is the source, byte for byte.
    #[test]
    fn every_lane_is_the_single_lane_digest() {
        let mut rng = crate::SplitMix64::seed_from_u64(0x1a9e5);
        let mut check = |lens: [usize; 4]| {
            let src: Vec<Vec<u8>> = lens
                .iter()
                .map(|&n| (0..n).map(|_| rng.next_u64() as u8).collect())
                .collect();
            let src: [&[u8]; 4] = std::array::from_fn(|l| &src[l][..]);
            let expected = src.map(digest_bytes);
            assert_eq!(digest_bytes4(src), expected, "lengths {lens:?}");

            let mut dst: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0xA5; n]).collect();
            let [a, b, c, d] = &mut dst[..] else {
                unreachable!("four lanes")
            };
            let copied = copy_digest4(src, [a, b, c, d].map(|v| &mut v[..]));
            assert_eq!(copied, expected, "lengths {lens:?}");
            for (l, (s, d)) in src.iter().zip(&dst).enumerate() {
                assert_eq!(&s[..], &d[..], "lane {l} of {lens:?}");
            }
        };
        for n in 0..=67 {
            check([n, (n + 17) % 68, (n + 34) % 68, (n + 51) % 68]);
            check([n; 4]);
        }
        check([COPY_CHUNK, COPY_CHUNK - 1, 10_240, 9_003]);
        check([10_000, 10_001, 10_007, 10_008]);
        check([0, 20_000, 5, 12_345]);
        check([76_800; 4]);
    }

    #[test]
    #[should_panic(expected = "lane 2")]
    fn copy_lanes_must_match_in_length() {
        let src: [&[u8]; 4] = [b"a", b"b", b"cc", b"d"];
        let (mut a, mut b, mut c, mut d) = ([0u8; 1], [0u8; 1], [0u8; 1], [0u8; 1]);
        copy_digest4(src, [&mut a, &mut b, &mut c, &mut d]);
    }
}
