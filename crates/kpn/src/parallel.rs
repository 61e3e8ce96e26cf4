//! Scatter/ordered-gather driver for independent seeded runs.
//!
//! Every campaign in the workspace — the Table 2 fault campaigns, the
//! Table 3 distance-function comparison, the chaos sweeps — is a set of
//! *independent, seeded, deterministic* simulations. This module scatters
//! those runs across OS threads and gathers the results **in input-index
//! order**, so any reduction the caller performs over the gathered vector
//! is exactly the reduction the old sequential loop performed.
//!
//! # Determinism argument
//!
//! Each run owns all of its mutable state (engine, network, per-run
//! metrics registry); the only sharing is the closure's immutable
//! environment. Threads race over *which* run executes *when*, but never
//! over a run's inputs or outputs. [`parallel_map_ordered`] writes result
//! `i` into slot `i` and hands back `Vec<R>` indexed like the input, so
//! folds over it (report rows, `MetricsRegistry::absorb`,
//! `Histogram::merge_from`) see results in the same order — and therefore
//! produce the same bytes — as `workers = 1`, which runs inline on the
//! calling thread with no threads spawned at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for campaign execution:
/// [`std::thread::available_parallelism`]. Callers that need a fixed
/// count (`1` for the sequential inline path) pass it to a
/// `*_with_workers` entry point instead.
pub fn campaign_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(index, item)` for every item, at most `workers` at a time, and
/// returns the results in input-index order.
///
/// `workers <= 1` (or a single item) executes inline on the calling thread
/// — byte-for-byte the sequential baseline, no threads spawned. Larger
/// worker counts scatter over scoped threads pulling indices from a shared
/// atomic counter (work-stealing by index), then gather into a slot vector
/// so position `i` of the output always corresponds to item `i`. A panic
/// in any run propagates to the caller once the scope joins.
pub fn parallel_map_ordered<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each index is claimed exactly once");
                let out = f(i, item);
                *results[i].lock().unwrap() = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("every slot is filled before the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for workers in [1, 2, 4, 8] {
            let out = parallel_map_ordered(items.clone(), workers, |i, v| {
                assert_eq!(i as u64, v);
                v * 3 + 1
            });
            let expect: Vec<u64> = items.iter().map(|v| v * 3 + 1).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map_ordered(empty, 4, |_, v: u64| v).is_empty());
        assert_eq!(parallel_map_ordered(vec![9u64], 4, |_, v| v + 1), vec![10]);
    }
}
