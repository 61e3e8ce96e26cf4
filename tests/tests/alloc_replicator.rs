//! A warm replicator op allocates nothing, at stride 1 and at the sampled
//! checker's stride `k`.
//!
//! Each replicator is built and driven through one round of writes and
//! reads first, so its queues hold their capacity. After that every write
//! and read — fault-free, at the overflow latch, and with the main lane
//! latched so that off-tick writes are swallowed — must leave the
//! allocation counter where it was.
//!
//! The counter is a global allocator, which a test binary owns, so this
//! file is a binary of its own beside `alloc_budget.rs`. It counts per
//! thread: the test harness's main thread allocates while the test runs.

use rtft_core::{Replicator, ReplicatorConfig, SampledReplicator};
use rtft_kpn::{ChannelBehavior, Payload, ReadOutcome, Token, WriteOutcome};
use rtft_rtc::TimeNs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation on the calling thread, then
/// defers to `System`.
struct Counting;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so touching it from the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CAP: usize = 8;

/// Drives `r` through `rounds` producer writes, reading lane 0 after each
/// one unless `main_stopped`, and the other lanes on the sample ticks;
/// returns the allocations made and the outcomes seen.
fn drive(r: &mut Replicator, k: u64, rounds: u64, main_stopped: bool) -> (u64, [u64; 3]) {
    let mut seen = [0; 3];
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..rounds {
        let seq = r.writes();
        let now = TimeNs::from_ns(seq);
        let token = Token::new(seq, now, Payload::U64(seq));
        match r.try_write(0, token, now) {
            WriteOutcome::Accepted => seen[0] += 1,
            WriteOutcome::AcceptedDropped => seen[1] += 1,
            WriteOutcome::Blocked(_) => seen[2] += 1,
        }
        if !main_stopped {
            assert!(matches!(r.try_read(0, now), ReadOutcome::Token(_)));
        }
        if seq.is_multiple_of(k) {
            for i in 1..r.read_ifaces() {
                assert!(matches!(r.try_read(i, now), ReadOutcome::Token(_)));
            }
        }
    }
    (ALLOCATIONS.with(Cell::get) - before, seen)
}

#[test]
fn a_warm_replicator_op_allocates_nothing() {
    let start = ALLOCATIONS.with(Cell::get);
    let with_divergence = ReplicatorConfig::new([CAP, CAP, CAP]).with_divergence_threshold(4);
    let cases = [
        (
            "stride 1",
            Replicator::new("r", ReplicatorConfig::new([CAP, CAP])),
            1,
        ),
        (
            "stride 1, n = 3, D = 4",
            Replicator::new("r", with_divergence),
            1,
        ),
        (
            "stride 4",
            SampledReplicator::new("r", [CAP, CAP], 4, Some(4)),
            4,
        ),
    ];
    assert!(
        ALLOCATIONS.with(Cell::get) > start,
        "building went uncounted"
    );
    for (name, mut r, k) in cases {
        drive(&mut r, k, 2 * CAP as u64, false);
        let (allocs, seen) = drive(&mut r, k, 1_000, false);
        assert_eq!(allocs, 0, "{name}: fault-free ops allocated");
        assert_eq!(seen, [1_000, 0, 0], "{name}");

        // Lane 0 stops consuming and is latched; the stream goes on to the
        // other lanes alone, swallowed off the sample ticks.
        let (allocs, seen) = drive(&mut r, k, 1_000, true);
        assert_eq!(allocs, 0, "{name}: ops around the latch allocated");
        assert!(r.is_faulty(0) && !r.is_faulty(1), "{name}");
        let dropped = (1_000 - CAP as u64) * (k - 1) / k;
        assert_eq!(seen[1], dropped, "{name}: {seen:?}");
        assert_eq!(r.dropped(), dropped, "{name}");
    }
}
