//! Data tokens flowing through the process network.

use crate::digest::{digest_bytes, digest_bytes4, Digest};
use rtft_rtc::TimeNs;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Reference-counted immutable byte buffer that remembers its own digest.
///
/// One `Arc` around the bytes and a memo of their [`digest`](Bytes::digest):
/// a clone is a pointer copy, equality and hashing go by contents, and the
/// buffer is hashed at most once however many handles ask — the replicator's
/// fan-out, a voter's three votes and the consumer's equivalence record all
/// read the one value. Build one with `Bytes::from(vec)` (the vector's
/// allocation is kept, not copied).
///
/// The bytes are frozen while the buffer is shared. The only `&mut [u8]`
/// path is [`Bytes::get_mut`], which requires sole ownership and clears the
/// memo, so two handles can share a digest only if they share every byte.
#[derive(Clone)]
pub struct Bytes(Arc<Shared>);

struct Shared {
    /// Digest of `data`; empty until first asked for, emptied again by
    /// `Bytes::get_mut`.
    digest: OnceLock<u64>,
    data: Box<[u8]>,
}

impl Bytes {
    fn new(data: Box<[u8]>) -> Self {
        Bytes(Arc::new(Shared {
            digest: OnceLock::new(),
            data,
        }))
    }

    /// The buffer's content digest — [`digest_bytes`] of the contents,
    /// computed by the first call on any handle of this buffer and read
    /// back by every later one.
    pub fn digest(&self) -> u64 {
        *self.0.digest.get_or_init(|| digest_bytes(&self.0.data))
    }

    /// Fills the memo of every buffer in `batch` that has none, hashing
    /// four buffers per pass ([`digest_bytes4`]); the last one to three go
    /// through [`Bytes::digest`]. Afterwards every `digest()` on the batch
    /// is a memo read. Values are the ones `digest()` would compute.
    pub fn digest_all(batch: &[Bytes]) {
        let mut pending = batch.iter().filter(|b| b.memo().is_none());
        loop {
            match [(); 4].map(|_| pending.next()) {
                [Some(a), Some(b), Some(c), Some(d)] => {
                    let quad = [a, b, c, d];
                    let digests = digest_bytes4(quad.map(|b| &b[..]));
                    for (b, digest) in quad.into_iter().zip(digests) {
                        b.set_digest(digest);
                    }
                }
                rest => {
                    for b in rest.into_iter().flatten() {
                        b.digest();
                    }
                    return;
                }
            }
        }
    }

    /// Stores `digest`, computed from the current contents by a lane of
    /// [`digest_bytes4`] or [`copy_digest4`](crate::copy_digest4), as the
    /// memo. Debug builds check it against [`digest_bytes`] of the bytes.
    pub(crate) fn set_digest(&self, digest: u64) {
        debug_assert_eq!(
            digest,
            digest_bytes(&self.0.data),
            "lane digest diverged from digest_bytes ({} bytes)",
            self.len()
        );
        let _ = self.0.digest.set(digest);
    }

    /// Mutable view of the bytes if `this` is the only handle (the
    /// [`Arc::get_mut`] rule); forgets the memoised digest, since the
    /// caller is about to change what it was the digest of.
    pub fn get_mut(this: &mut Bytes) -> Option<&mut [u8]> {
        let shared = Arc::get_mut(&mut this.0)?;
        shared.digest.take();
        Some(&mut shared.data)
    }

    /// `true` if `this` is the only handle. Leaves the memo alone: the
    /// bytes it describes are unchanged.
    pub(crate) fn is_unique(this: &mut Bytes) -> bool {
        Arc::get_mut(&mut this.0).is_some()
    }

    /// Number of handles sharing this buffer.
    pub fn strong_count(this: &Bytes) -> usize {
        Arc::strong_count(&this.0)
    }

    /// The memoised digest, if this buffer has been hashed since its
    /// bytes were last written; `None` means the next
    /// [`digest`](Bytes::digest) makes a pass over the bytes.
    pub fn memo(&self) -> Option<u64> {
        self.0.digest.get().copied()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::new(v.into_boxed_slice())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::new(s.into())
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Bytes::new(Box::new(a))
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::new(iter.into_iter().collect())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

/// Payload carried by a [`Token`].
///
/// Payload clones are cheap: the `Bytes` variant is reference-counted, so a
/// replicator duplicating a 76.8 KB decoded frame copies a pointer, not the
/// pixels — mirroring the paper's note that more efficient shared-buffer
/// replicator implementations are possible.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Payload {
    /// A pure control token with no data.
    #[default]
    Empty,
    /// A small scalar value (test workloads, sequence checks).
    U64(u64),
    /// An arbitrary byte buffer (frames, audio samples, bitstreams).
    Bytes(Bytes),
}

impl Payload {
    /// Payload size in bytes, as the communication substrate sees it.
    pub fn len(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::U64(_) => 8,
            Payload::Bytes(b) => b.len(),
        }
    }

    /// `true` if the payload carries zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the byte content, if this is a `Bytes` payload.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The scalar value, if this is a `U64` payload.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Payload::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// A stable 64-bit content digest (FNV-1a over 64-bit words), used by
    /// equivalence checks to compare output streams without storing full
    /// payloads.
    ///
    /// Byte buffers are folded eight bytes at a time (little-endian words),
    /// tail bytes last, then the length — one multiply per word instead of
    /// per byte, which matters because this runs for every output token in
    /// equivalence checks and every serve `Output` frame. The trailing
    /// length word keeps zero-padded buffers of different sizes distinct.
    ///
    /// This is the one-shot form of the streaming [`Digest`](crate::Digest)
    /// hasher: `Payload::from(v).digest()` equals
    /// `Digest::new().update(&v).finish()` for any byte vector, and the
    /// fixed vectors below pin both to the same values. A byte buffer
    /// answers from its memo ([`Bytes::digest`]): the pass over the bytes
    /// happens once per buffer, not once per call or per clone.
    pub fn digest(&self) -> u64 {
        match self {
            // An empty stream hashes identically to the historical
            // `eat_byte(OFFSET, 0)` form: `finish` on zero bytes folds in
            // the length word 0, and `h ^ 0` is `h` either way.
            Payload::Empty => Digest::new().finish(),
            Payload::U64(v) => {
                let mut d = Digest::new();
                d.update(&v.to_le_bytes());
                d.finish()
            }
            Payload::Bytes(b) => b.digest(),
        }
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload::Bytes(b)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::Bytes(Bytes::from(v))
    }
}

impl From<u64> for Payload {
    fn from(v: u64) -> Self {
        Payload::U64(v)
    }
}

/// A data token: the unit of communication in the process network.
///
/// Tokens carry a monotonically increasing per-stream sequence number `seq`
/// (the paper's `j` in `T_k[j]`) and the timestamp `produced_at` at which
/// the producing process emitted them (the paper's `t(k, j)`). The
/// fault-tolerance framework itself never reads `produced_at` — that is the
/// "no runtime timekeeping" claim — but the experiment harness and the
/// distance-function baseline do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Monotonically increasing sequence number within the stream.
    pub seq: u64,
    /// Instant the token was produced.
    pub produced_at: TimeNs,
    /// The data carried.
    pub payload: Payload,
}

impl Token {
    /// Creates a token.
    pub fn new(seq: u64, produced_at: TimeNs, payload: Payload) -> Self {
        Token {
            seq,
            produced_at,
            payload,
        }
    }

    /// Size of the token's payload in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T[{}]@{} ({}B)", self.seq, self.produced_at, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::Empty.len(), 0);
        assert!(Payload::Empty.is_empty());
        assert_eq!(Payload::U64(7).len(), 8);
        assert_eq!(Payload::from(vec![1u8, 2, 3]).len(), 3);
    }

    #[test]
    fn digest_distinguishes_content() {
        let a = Payload::from(vec![1u8, 2, 3]);
        let b = Payload::from(vec![1u8, 2, 4]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), Payload::from(vec![1u8, 2, 3]).digest());
        assert_ne!(Payload::U64(0).digest(), Payload::Empty.digest());
    }

    #[test]
    fn digest_fixed_vectors() {
        // Pinned so the digest stays stable across future edits: equivalence
        // verdicts and serve Output frames embed these values.
        assert_eq!(Payload::Empty.digest(), 0xaf63_bd4c_8601_b7df);
        assert_eq!(
            Payload::U64(0xdead_beef_cafe_f00d).digest(),
            0x811d_0077_16ea_3bd0
        );
        let bytes: Vec<u8> = (0u8..13).collect();
        assert_eq!(Payload::from(bytes).digest(), 0xf0f1_c00c_fdb0_4010);
        // Zero-padded buffers of different lengths stay distinct (the
        // trailing length word).
        assert_ne!(
            Payload::from(vec![0u8; 8]).digest(),
            Payload::from(vec![0u8; 1]).digest()
        );
    }

    #[test]
    fn buffer_digest_is_the_slice_digest_at_every_length() {
        // Every word-tail length many times over, then the pinned vectors:
        // the memo may change when the bytes are hashed, never what they
        // hash to.
        let mut rng = crate::SplitMix64::seed_from_u64(0x5eed);
        for len in 0..=257usize {
            let v: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let expected = digest_bytes(&v);
            let buf = Bytes::from(v.clone());
            assert_eq!(buf.memo(), None, "nothing hashed before the first ask");
            assert_eq!(buf.digest(), expected, "len {}", v.len());
            assert_eq!(buf.memo(), Some(expected));
            assert_eq!(buf.digest(), expected, "the memo answers the same");
            assert_eq!(Payload::from(v).digest(), expected);
        }
        assert_eq!(Bytes::from(vec![]).digest(), 0xaf63_bd4c_8601_b7df);
        assert_eq!(
            Bytes::from(0xdead_beef_cafe_f00du64.to_le_bytes()).digest(),
            0x811d_0077_16ea_3bd0
        );
        assert_eq!((0u8..13).collect::<Bytes>().digest(), 0xf0f1_c00c_fdb0_4010);
    }

    #[test]
    fn digest_all_fills_every_empty_memo_with_the_slice_digest() {
        // 0..=13 buffers: every count of whole quads plus 0–3 leftovers,
        // some memos filled beforehand, one handle twice in the batch.
        let mut rng = crate::SplitMix64::seed_from_u64(0xa11);
        for count in 0..=13usize {
            let mut batch: Vec<Bytes> = (0..count)
                .map(|i| (0..i * 9 + 3).map(|_| rng.next_u64() as u8).collect())
                .collect();
            for b in batch.iter().step_by(3) {
                b.digest();
            }
            if let Some(unhashed) = batch.get(1) {
                batch.push(unhashed.clone());
            }
            Bytes::digest_all(&batch);
            for b in &batch {
                assert_eq!(b.memo(), Some(digest_bytes(b)), "{count} buffers");
            }
        }
    }

    #[test]
    fn clones_share_the_memo_and_get_mut_clears_it() {
        let mut buf = Bytes::from(&b"frozen while shared"[..]);
        let clone = buf.clone();
        assert_eq!(Bytes::strong_count(&buf), 2);
        assert!(
            Bytes::get_mut(&mut buf).is_none(),
            "shared bytes are frozen"
        );
        let before = Payload::from(clone).digest(); // consumes the clone
        assert_eq!(buf.memo(), Some(before), "hashed through another handle");

        let bytes = Bytes::get_mut(&mut buf).expect("sole owner again");
        bytes[0] ^= 1;
        assert_eq!(buf.memo(), None, "the only &mut path forgets the digest");
        assert_ne!(buf.digest(), before);
        assert_eq!(buf.digest(), digest_bytes(&buf));
    }

    #[test]
    fn equality_hash_and_debug_go_by_contents() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |b: &Bytes| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::from([1u8, 2, 3]);
        a.digest(); // a filled memo is not part of a buffer's value
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(a, Bytes::from(vec![1u8, 2, 4]));
        assert_eq!(format!("{a:?}"), "[1, 2, 3]");
        assert_eq!(a.as_ref(), &[1u8, 2, 3][..]);
    }

    #[test]
    fn token_display() {
        let t = Token::new(3, TimeNs::from_ms(30), Payload::from(vec![0u8; 100]));
        assert_eq!(format!("{t}"), "T[3]@30ms (100B)");
    }

    #[test]
    fn cheap_payload_clone_shares_buffer() {
        let data = Bytes::from(vec![0u8; 1024]);
        let p1 = Payload::Bytes(data);
        let p2 = p1.clone();
        // Same underlying allocation.
        if let (Payload::Bytes(a), Payload::Bytes(b)) = (&p1, &p2) {
            assert_eq!(a.as_ptr(), b.as_ptr());
        } else {
            unreachable!();
        }
    }
}
