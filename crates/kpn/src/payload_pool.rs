//! A recycling arena for token payload buffers: [`PayloadPool`] shelves
//! [`Bytes`] allocations by exact length for reuse.
//!
//! Nothing in the workspace's own ingest uses it: the server decodes
//! every `Tokens` frame into ranges of the frame's own buffer
//! ([`Bytes::share_ranges`]), with no copy to pool. The type stays while
//! the benchmark harness's mirror of the old ingest path names it.

use crate::token::Bytes;
use rtft_obs::Counter;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// A recycling arena for [`Bytes`] payload buffers.
///
/// Buffers are parked on exact-length shelves when the last owner settles
/// a batch, and the next batch of the same sizes reuses the allocations
/// in place. Exact-length shelving is forced by [`Bytes`]: it holds a
/// boxed slice whose length is fixed at allocation, so a recycled buffer
/// can only be refilled with a payload of the *same* size, and a workload
/// whose frames vary in length keeps a shelf per distinct length.
///
/// Its only user is the benchmark harness's copy of the ingest path
/// (`rtbench/src/layers.rs` times [`take_copies`](PayloadPool::take_copies)
/// and [`park`](PayloadPool::park) behind `read_frame_pooled`). The server
/// keeps no pool: a frame's payloads are ranges of the frame it read
/// ([`Bytes::share_ranges`]), hashed in the same four lanes. A range never
/// reaches a shelf: it shares its frame, so `recycle` and `park` refuse
/// it.
///
/// A shelved buffer keeps whatever digest memo its last contents earned;
/// that is sound because the memo still describes the bytes lying there,
/// and the only way to change them, [`Bytes::get_mut`], clears it.
/// [`take_copies`](PayloadPool::take_copies) fills it again with the new
/// contents' digest, computed while copying them in. `recycle` and the
/// scavenger only ask whether a buffer is unshared; they never take the
/// mutable view.
///
/// All operations are thread-safe; [`stats`](PayloadPool::stats) reads
/// the hit/miss/recycle/discard totals.
pub struct PayloadPool {
    shelves: Mutex<HashMap<usize, Vec<Bytes>>>,
    /// Buffers offered back while still shared (an in-flight job holds
    /// clones); reclaimed lazily by [`take_copies`](PayloadPool::take_copies)
    /// once the last clone drops.
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
    /// Buffers handed out by `take_copies` from a shelf, with no
    /// allocation.
    pub hits: u64,
    /// Buffers handed out that had to be allocated.
    pub misses: u64,
    /// Buffers accepted back onto a shelf.
    pub recycled: u64,
    /// Buffers rejected at recycle (still shared, or shelf full).
    pub discarded: u64,
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
    fn with_per_len_cap(cap: usize) -> Self {
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

    /// Copies each slice of `batch` into a pooled buffer and freezes it,
    /// with its digest memo filled, four buffers per pass of the fused
    /// copy-and-hash loop ([`copy_digest4`](crate::copy_digest4)). One
    /// scavenge and one shelf lock serve the whole batch.
    pub fn take_copies(&self, batch: &[&[u8]]) -> Vec<Bytes> {
        self.scavenge();
        let mut bufs: Vec<Bytes> = {
            let mut shelves = self.shelves.lock().unwrap();
            batch
                .iter()
                .map(|s| self.checkout(shelves.get_mut(&s.len()).and_then(Vec::pop), s.len()))
                .collect()
        };
        Bytes::fill_all(&mut bufs, batch);
        bufs
    }

    /// Hands out a shelved buffer (a hit) or a fresh zeroed one of `len`
    /// bytes (a miss).
    fn checkout(&self, shelved: Option<Bytes>, len: usize) -> Bytes {
        match shelved {
            Some(buf) => {
                debug_assert_eq!(Bytes::strong_count(&buf), 1);
                self.hits.inc();
                buf
            }
            None => {
                self.misses.inc();
                Bytes::from(vec![0u8; len])
            }
        }
    }

    /// Offers a payload back to the pool once its batch has settled.
    ///
    /// Accepted (returns `true`) only when this is the last reference to
    /// an owned buffer — a buffer still shared with a WAL record or an
    /// in-flight response, or a range of a shared frame, cannot be
    /// mutated and is dropped instead — and the shelf for its length is
    /// below the cap.
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
    /// buffer is parked and reclaimed by a later
    /// [`take_copies`](PayloadPool::take_copies) once the last clone drops;
    /// a buffer parked while already unique shelves on the next take just
    /// the same.
    ///
    /// The parking lot is bounded ([`PARK_CAP`](PayloadPool::PARK_CAP));
    /// beyond it the offer is discarded immediately, and so is a range,
    /// which no number of dropped clones makes unique.
    pub fn park(&self, buf: Bytes) {
        let mut parked = self.parked.lock().unwrap();
        if parked.len() >= PayloadPool::PARK_CAP || !buf.is_owned() {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest_bytes;
    use crate::token::tests::{check_batch_table, share_as_frame};

    /// Buffers currently shelved across all lengths.
    fn shelved(pool: &PayloadPool) -> usize {
        pool.shelves.lock().unwrap().values().map(Vec::len).sum()
    }

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

        let mut third = second;
        Bytes::get_mut(&mut third).expect("the only handle");
        assert_eq!(third.memo(), None, "get_mut clears the memo");
    }

    /// The fused-ingest batch table, twice: the second round lands on
    /// recycled buffers whose memos describe the first round's bytes.
    #[test]
    fn a_batch_is_copied_and_hashed_in_lanes_on_hits_and_misses() {
        let pool = PayloadPool::new();
        for _round in 0..2 {
            check_batch_table(&mut |batch| pool.take_copies(batch), &mut |batch| {
                for b in batch {
                    assert!(pool.recycle(b));
                }
            });
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
    }

    #[test]
    fn shared_buffer_is_discarded_not_shelved() {
        let pool = PayloadPool::new();
        let payload = copy(&pool, b"shared");
        let alias = Bytes::clone(&payload);
        assert!(!pool.recycle(payload), "shared buffer must be rejected");
        assert_eq!(pool.stats().discarded, 1);
        assert_eq!(shelved(&pool), 0);
        drop(alias);
    }

    #[test]
    fn a_range_is_neither_shelved_nor_parked() {
        let pool = PayloadPool::new();
        let mut views = share_as_frame(&[b"view one", b"view two"]).into_iter();
        assert!(!pool.recycle(views.next().unwrap()), "a range is refused");
        pool.park(views.next().unwrap());
        assert_eq!(pool.stats().discarded, 2, "both offers are discarded");
        assert_eq!(pool.parked.lock().unwrap().len(), 0);
        assert_eq!(shelved(&pool), 0);
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
        assert_eq!(shelved(&pool), 2);
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn lengths_shelve_independently() {
        let pool = PayloadPool::new();
        let a = copy(&pool, &[1u8; 8]);
        let b = copy(&pool, &[2u8; 32]);
        pool.recycle(a);
        pool.recycle(b);
        let c = copy(&pool, &[3u8; 8]);
        assert_eq!(c.len(), 8);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.recycled), (1, 2, 2));
        assert_eq!(shelved(&pool), 1, "only the 32-byte shelf remains");
    }

    #[test]
    fn parked_buffer_is_reclaimed_once_clones_drop() {
        let pool = PayloadPool::new();
        let payload = copy(&pool, b"in flight");
        let addr = payload.as_ptr();
        let job_clone = Bytes::clone(&payload);
        pool.park(payload); // still shared: stays parked, not shelved
        assert_eq!(shelved(&pool), 0);

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
        assert!(copy(&pool, &[]).is_empty());
        assert_eq!(
            pool.stats().hits,
            1,
            "the empty buffer is shelved and reused"
        );
    }
}
