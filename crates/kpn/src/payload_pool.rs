//! A recycling arena for token payload buffers: [`PayloadPool`] shelves
//! [`Bytes`] allocations so steady-state ingest does not allocate.

use crate::digest::copy_digest4;
use crate::token::Bytes;
use rtft_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// A recycling arena for [`Bytes`] payload buffers.
///
/// Token payloads are reference-counted [`Bytes`], so cloning them through
/// the channel ring is already free — but *creating* one per ingested frame
/// is a heap allocation on the hot ingest path. The pool closes that gap:
/// buffers are parked on exact-length shelves when the last owner settles a
/// batch, and the next frame of the same size reuses the allocation in
/// place via [`Bytes::get_mut`]. In steady state (fleet jobs cycling
/// same-shaped frames) token flow performs zero heap allocations.
///
/// Exact-length shelving is deliberate: a [`Bytes`] holds a boxed slice
/// whose length is fixed at allocation, so a recycled buffer can only ever
/// be refilled with a payload of the *same* size. Workloads here are framed
/// (fixed-size ADPCM blocks, fixed-width sensor words), which makes
/// exact-match hit rates high; odd-sized one-offs simply miss and allocate.
///
/// A shelved buffer keeps whatever digest memo its last contents earned;
/// that is sound because the memo still describes the bytes lying there,
/// and the only way to change them — [`PoolBuf::as_mut_slice`] — clears it.
/// [`take_copies`](PayloadPool::take_copies) fills it again with the new
/// contents' digest, computed while copying them in. `recycle` and the
/// scavenger only ask whether a buffer is unshared; they never take the
/// mutable view.
///
/// All operations are thread-safe; counters (`kpn.pool.*` when attached to
/// a [`MetricsRegistry`]) expose hit/miss/recycle/discard totals so tests
/// and benches can assert reuse actually happens.
pub struct PayloadPool {
    shelves: Mutex<HashMap<usize, Vec<Bytes>>>,
    /// Buffers offered back while still shared (an in-flight job holds
    /// clones); reclaimed lazily by [`take`](PayloadPool::take) once the
    /// last clone drops.
    parked: Mutex<Vec<Bytes>>,
    /// Retained buffers per distinct length; beyond this, recycles discard.
    per_len_cap: usize,
    hits: Counter,
    misses: Counter,
    recycled: Counter,
    discarded: Counter,
}

/// Snapshot of a pool's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadPoolStats {
    /// Buffers handed out (by `take` or `take_copies`) from a shelf, with
    /// no allocation.
    pub hits: u64,
    /// Buffers handed out that had to be allocated.
    pub misses: u64,
    /// Buffers accepted back onto a shelf.
    pub recycled: u64,
    /// Buffers rejected at recycle (still shared, or shelf full).
    pub discarded: u64,
}

impl PayloadPoolStats {
    /// Fraction of takes served without allocating, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A uniquely-owned buffer checked out of a [`PayloadPool`].
///
/// Holds the only handle to its [`Bytes`], so the contents are mutable in
/// place (a socket can read straight into it) — this is the one place
/// payload bytes are written after allocation. [`freeze`] relinquishes
/// mutability and yields the shareable [`Bytes`].
///
/// [`freeze`]: PoolBuf::freeze
#[derive(Debug)]
pub struct PoolBuf {
    buf: Bytes,
}

impl PoolBuf {
    /// Mutable view of the whole buffer. Forgets the digest memoised for
    /// the previous contents (see [`Bytes::get_mut`]).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        Bytes::get_mut(&mut self.buf).expect("PoolBuf invariant: uniquely owned")
    }

    /// Buffer length in bytes (fixed at `take`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable, shareable payload.
    #[inline]
    pub fn freeze(self) -> Bytes {
        self.buf
    }
}

impl Default for PayloadPool {
    fn default() -> Self {
        PayloadPool::new()
    }
}

impl fmt::Debug for PayloadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("PayloadPool")
            .field("per_len_cap", &self.per_len_cap)
            .field("stats", &stats)
            .finish()
    }
}

impl PayloadPool {
    /// Default shelf depth per distinct buffer length.
    pub const DEFAULT_PER_LEN_CAP: usize = 64;

    /// Upper bound on buffers waiting in the deferred-reclaim parking
    /// lot (see [`park`](PayloadPool::park)).
    pub const PARK_CAP: usize = 1024;

    /// A pool with the default per-length shelf depth and free-floating
    /// counters.
    pub fn new() -> Self {
        PayloadPool::with_per_len_cap(PayloadPool::DEFAULT_PER_LEN_CAP)
    }

    /// A pool retaining at most `cap` buffers per distinct length.
    pub fn with_per_len_cap(cap: usize) -> Self {
        PayloadPool {
            shelves: Mutex::new(HashMap::new()),
            parked: Mutex::new(Vec::new()),
            per_len_cap: cap,
            hits: Counter::new(),
            misses: Counter::new(),
            recycled: Counter::new(),
            discarded: Counter::new(),
        }
    }

    /// A pool whose counters are registered as `kpn.pool.{hits,misses,
    /// recycled,discarded}` in `registry`.
    pub fn with_metrics(registry: &MetricsRegistry) -> Self {
        let mut pool = PayloadPool::new();
        pool.hits = registry.counter("kpn.pool.hits");
        pool.misses = registry.counter("kpn.pool.misses");
        pool.recycled = registry.counter("kpn.pool.recycled");
        pool.discarded = registry.counter("kpn.pool.discarded");
        pool
    }

    /// Checks out a uniquely-owned buffer of exactly `len` bytes.
    ///
    /// Shelf hit: the recycled allocation is returned as-is (contents are
    /// whatever the previous payload held — callers overwrite). Miss: a
    /// fresh zeroed buffer is allocated.
    pub fn take(&self, len: usize) -> PoolBuf {
        self.scavenge();
        let shelved = self
            .shelves
            .lock()
            .unwrap()
            .get_mut(&len)
            .and_then(Vec::pop);
        self.checkout(shelved, len)
    }

    /// Copies each slice of `batch` into a pooled buffer and freezes it,
    /// with its digest memo filled — the "ingest one frame" operation in
    /// a single call. Four buffers at a time are copied and hashed in one
    /// pass ([`copy_digest4`]); the last one to three are copied, then
    /// hashed. One scavenge and one shelf lock serve the whole batch.
    pub fn take_copies(&self, batch: &[&[u8]]) -> Vec<Bytes> {
        self.scavenge();
        let mut bufs: Vec<PoolBuf> = {
            let mut shelves = self.shelves.lock().unwrap();
            batch
                .iter()
                .map(|s| self.checkout(shelves.get_mut(&s.len()).and_then(Vec::pop), s.len()))
                .collect()
        };

        let mut srcs = batch.chunks_exact(4);
        let mut quads = bufs.chunks_exact_mut(4);
        for (src, quad) in (&mut srcs).zip(&mut quads) {
            let quad: &mut [PoolBuf; 4] = quad.try_into().expect("chunks of four");
            let src = src.try_into().expect("chunks of four");
            let digests = copy_digest4(src, quad.each_mut().map(PoolBuf::as_mut_slice));
            for (buf, digest) in quad.iter().zip(digests) {
                buf.buf.set_digest(digest);
            }
        }
        for (src, buf) in srcs.remainder().iter().zip(quads.into_remainder()) {
            buf.as_mut_slice().copy_from_slice(src);
            buf.buf.digest();
        }
        bufs.into_iter().map(PoolBuf::freeze).collect()
    }

    /// Hands out a shelved buffer (a hit) or a fresh zeroed one of `len`
    /// bytes (a miss).
    fn checkout(&self, shelved: Option<Bytes>, len: usize) -> PoolBuf {
        match shelved {
            Some(buf) => {
                debug_assert_eq!(Bytes::strong_count(&buf), 1);
                self.hits.inc();
                PoolBuf { buf }
            }
            None => {
                self.misses.inc();
                PoolBuf {
                    buf: Bytes::from(vec![0u8; len]),
                }
            }
        }
    }

    /// Offers a payload back to the pool once its batch has settled.
    ///
    /// Accepted (returns `true`) only when this is the last reference —
    /// a buffer still shared with a WAL record or an in-flight response
    /// cannot be mutated and is dropped instead — and the shelf for its
    /// length is below the cap.
    pub fn recycle(&self, mut buf: Bytes) -> bool {
        if !Bytes::is_unique(&mut buf) {
            self.discarded.inc();
            return false;
        }
        let mut shelves = self.shelves.lock().unwrap();
        let shelf = shelves.entry(buf.len()).or_default();
        if shelf.len() >= self.per_len_cap {
            self.discarded.inc();
            return false;
        }
        shelf.push(buf);
        self.recycled.inc();
        true
    }

    /// Offers a payload back that may *still be shared* — typically with
    /// a fleet job that has settled but not yet dropped its spec. The
    /// buffer is parked and reclaimed by a later [`take`] once the last
    /// clone drops; a buffer parked while already unique shelves on the
    /// next take just the same.
    ///
    /// The parking lot is bounded ([`PARK_CAP`](PayloadPool::PARK_CAP));
    /// beyond it the offer is discarded immediately.
    ///
    /// [`take`]: PayloadPool::take
    pub fn park(&self, buf: Bytes) {
        let mut parked = self.parked.lock().unwrap();
        if parked.len() >= PayloadPool::PARK_CAP {
            self.discarded.inc();
            return;
        }
        parked.push(buf);
    }

    /// Moves every parked buffer whose last external clone has dropped
    /// onto its shelf; still-shared buffers stay parked.
    fn scavenge(&self) {
        let mut parked = self.parked.lock().unwrap();
        if parked.is_empty() {
            return;
        }
        let candidates = std::mem::take(&mut *parked);
        // Recycle outside the parked lock (recycle takes the shelf lock);
        // survivors are re-parked afterwards.
        drop(parked);
        let mut still_shared = Vec::new();
        for mut buf in candidates {
            if Bytes::is_unique(&mut buf) {
                self.recycle(buf);
            } else {
                still_shared.push(buf);
            }
        }
        if !still_shared.is_empty() {
            self.parked.lock().unwrap().extend(still_shared);
        }
    }

    /// Lifetime counter snapshot.
    pub fn stats(&self) -> PayloadPoolStats {
        PayloadPoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            recycled: self.recycled.get(),
            discarded: self.discarded.get(),
        }
    }

    /// Buffers currently shelved across all lengths.
    pub fn shelved(&self) -> usize {
        self.shelves.lock().unwrap().values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest_bytes;

    /// One payload through the batch call.
    fn copy(pool: &PayloadPool, data: &[u8]) -> Bytes {
        pool.take_copies(&[data])
            .pop()
            .expect("one buffer per slice")
    }

    #[test]
    fn recycled_buffer_is_reused_not_reallocated() {
        let pool = PayloadPool::new();
        let first = copy(&pool, b"hello scc");
        let addr = first.as_ptr();
        assert!(pool.recycle(first), "sole owner must be accepted");

        let second = copy(&pool, b"bye scc!!"); // same length → shelf hit
        assert_eq!(second.as_ptr(), addr, "allocation must be reused in place");
        assert_eq!(&second[..], b"bye scc!!");

        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.recycled, 1);
        assert_eq!(stats.discarded, 0);
    }

    #[test]
    fn recycled_buffer_forgets_the_previous_digest() {
        let pool = PayloadPool::new();
        let first = copy(&pool, b"frame 0001");
        let addr = first.as_ptr();
        let stale = first.digest(); // fills the memo on the allocation
        assert!(pool.recycle(first));

        let second = copy(&pool, b"frame 0002"); // same shelf, same allocation
        assert_eq!(second.as_ptr(), addr);
        assert_eq!(
            second.memo(),
            Some(digest_bytes(b"frame 0002")),
            "the copy hashes the new bytes"
        );
        assert_ne!(second.digest(), stale);

        assert!(pool.recycle(second));
        let mut third = pool.take(10);
        third.as_mut_slice();
        assert_eq!(third.freeze().memo(), None, "as_mut_slice clears the memo");
    }

    /// A batch of every quad-and-leftover shape, twice: the second round
    /// lands on recycled buffers whose memos describe the first round's
    /// bytes. Every buffer holds its slice and memoises its digest.
    #[test]
    fn a_batch_is_copied_and_hashed_in_lanes_on_hits_and_misses() {
        let pool = PayloadPool::new();
        let mut rng = crate::SplitMix64::seed_from_u64(0xba7c4);
        for round in 0..2 {
            for count in 0..=9usize {
                let data: Vec<Vec<u8>> = (0..count)
                    .map(|i| {
                        (0..[3, 4_100, 9_000][i % 3])
                            .map(|_| rng.next_u64() as u8)
                            .collect()
                    })
                    .collect();
                let slices: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                let batch = pool.take_copies(&slices);
                assert_eq!(batch.len(), count);
                for (b, s) in batch.iter().zip(&slices) {
                    assert_eq!(&b[..], *s, "round {round}, {count} buffers");
                    assert_eq!(b.memo(), Some(digest_bytes(s)), "round {round}, {count}");
                }
                for b in batch {
                    assert!(pool.recycle(b));
                }
            }
        }
        let stats = pool.stats();
        assert_eq!(
            stats.misses, 9,
            "round 0 grows each shelf to its widest batch"
        );
        assert_eq!(stats.hits, 2 * 45 - 9);
    }

    #[test]
    fn steady_state_cycle_allocates_once() {
        let pool = PayloadPool::new();
        for i in 0..1000u32 {
            let payload = copy(&pool, &i.to_le_bytes());
            assert_eq!(&payload[..], i.to_le_bytes());
            assert!(pool.recycle(payload));
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "steady state must not allocate");
        assert_eq!(stats.hits, 999);
        assert!(stats.hit_rate() > 0.99, "{stats:?}");
    }

    #[test]
    fn shared_buffer_is_discarded_not_shelved() {
        let pool = PayloadPool::new();
        let payload = copy(&pool, b"shared");
        let alias = Bytes::clone(&payload);
        assert!(!pool.recycle(payload), "shared buffer must be rejected");
        assert_eq!(pool.stats().discarded, 1);
        assert_eq!(pool.shelved(), 0);
        drop(alias);
    }

    #[test]
    fn shelf_cap_bounds_retention() {
        let pool = PayloadPool::with_per_len_cap(2);
        let bufs: Vec<Bytes> = (0..3).map(|_| copy(&pool, &[0u8; 16])).collect();
        let mut kept = 0;
        for b in bufs {
            if pool.recycle(b) {
                kept += 1;
            }
        }
        assert_eq!(kept, 2);
        assert_eq!(pool.shelved(), 2);
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn lengths_shelve_independently_and_counters_reach_registry() {
        let registry = MetricsRegistry::new();
        let pool = PayloadPool::with_metrics(&registry);
        let a = copy(&pool, &[1u8; 8]);
        let b = copy(&pool, &[2u8; 32]);
        pool.recycle(a);
        pool.recycle(b);
        let c = pool.take(8);
        assert_eq!(c.len(), 8);
        assert_eq!(registry.counter("kpn.pool.hits").get(), 1);
        assert_eq!(registry.counter("kpn.pool.misses").get(), 2);
        assert_eq!(registry.counter("kpn.pool.recycled").get(), 2);
        assert_eq!(pool.shelved(), 1, "only the 32-byte shelf remains");
    }

    #[test]
    fn parked_buffer_is_reclaimed_once_clones_drop() {
        let pool = PayloadPool::new();
        let payload = copy(&pool, b"in flight");
        let addr = payload.as_ptr();
        let job_clone = Bytes::clone(&payload);
        pool.park(payload); // still shared: stays parked, not shelved
        assert_eq!(pool.shelved(), 0);

        let other = copy(&pool, b"different length"); // scavenge: no-op
        assert_eq!(pool.stats().recycled, 0);

        drop(job_clone); // the "job" releases its reference
        let reused = copy(&pool, b"new frame"); // scavenge reclaims...
        assert_eq!(reused.as_ptr(), addr, "...and the shelf hit reuses it");
        assert_eq!(pool.stats().recycled, 1);
        drop(other);
    }

    #[test]
    fn empty_payloads_round_trip() {
        let pool = PayloadPool::new();
        let empty = copy(&pool, &[]);
        assert!(empty.is_empty());
        pool.recycle(empty);
        assert!(pool.take(0).is_empty());
    }
}
