//! The DES event path allocates per run, not per token.
//!
//! A fault-free ADPCM scenario runs at 140 and at 280 tokens under each
//! redundancy structure (duplicated, tri-voting, sampled checker at
//! k = 4) on the ideal and the degraded-NoC SCC platform. The calendar
//! wheel, the SCC route table, the voting ring and the payload cycle all
//! reuse their storage once warm, so doubling the stream may cost at most
//! a couple of allocations (a buffer that doubles once more), never one
//! per token.
//!
//! The counter is a process-wide global allocator, so this file must stay
//! alone in its test binary with a single `#[test]`: a second test would
//! run on a parallel thread and be counted.

use rtft_apps::networks::App;
use rtft_chaos::{run_scenario, OutcomeClass, PlatformKind, Redundancy, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations made by one `run_scenario` call, and its outcome.
fn allocations_of(s: &Scenario) -> (u64, OutcomeClass) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = run_scenario(s);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, outcome.class)
}

#[test]
fn doubling_the_stream_costs_at_most_two_allocations() {
    let mut report = Vec::new();
    for redundancy in [
        Redundancy::Duplicated,
        Redundancy::TriVoting,
        Redundancy::Hetero { k: 4 },
    ] {
        for platform in [PlatformKind::Ideal, PlatformKind::SccDegradedNoc] {
            let at = |token_count| Scenario {
                id: 0,
                app: App::Adpcm,
                redundancy,
                platform,
                fault: None,
                seed: 0xA110C,
                token_count,
            };
            // Warm-up: lazily initialised statics are not the run's cost.
            allocations_of(&at(140));
            let (short, short_class) = allocations_of(&at(140));
            let (long, long_class) = allocations_of(&at(280));
            assert_eq!(short_class, OutcomeClass::Masked);
            assert_eq!(long_class, OutcomeClass::Masked);
            report.push((redundancy.label(), platform.label(), short, long));
        }
    }
    let over: Vec<_> = report
        .iter()
        .filter(|(_, _, short, long)| *long > short + 2)
        .collect();
    assert!(
        over.is_empty(),
        "allocations grow with the stream (structure, platform, 140 tokens, 280 tokens): {over:?}"
    );
}
