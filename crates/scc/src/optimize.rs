//! Search-based process placement for arbitrary flow graphs.
//!
//! The snake placement of [`crate::mapping::low_contention_pipeline`] is
//! optimal for linear pipelines, but a duplicated network (Fig. 1) is a
//! diamond: producer → {replica A pipeline, replica B pipeline} →
//! consumer. This module provides a deterministic local-search optimiser
//! in the spirit of Zimmer et al.'s low-contention mapping (the paper's
//! \[13\]): minimise total communication latency plus a contention penalty
//! for flows sharing mesh links, under the one-process-per-tile
//! constraint.

use crate::mapping::{snake_order, Mapping};
use crate::noc::NocModel;
use crate::topology::TILE_COUNT;

/// Cost of a candidate mapping: total per-flow latency plus a penalty per
/// unit of link sharing beyond one flow per link.
fn cost(mapping: &Mapping, flows: &[(usize, usize, usize)], noc: &NocModel) -> u128 {
    let mut total: u128 = 0;
    for (from, to, bytes) in flows {
        total += noc
            .message_latency(mapping.core(*from), mapping.core(*to), *bytes)
            .as_ns() as u128;
    }
    let pair_flows: Vec<(usize, usize)> = flows.iter().map(|(a, b, _)| (*a, *b)).collect();
    let util = mapping.link_utilization(&pair_flows);
    let contention: u128 = util
        .values()
        .map(|c| {
            if *c > 1 {
                ((*c - 1) as u128) * 50_000
            } else {
                0
            }
        })
        .sum();
    total + contention
}

/// Deterministic SplitMix64 for reproducible search.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Result of a placement optimisation.
#[derive(Debug, Clone)]
pub struct OptimizedMapping {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its cost (ns of total latency + contention penalty).
    pub cost: u128,
    /// The starting (snake) cost, for comparison.
    pub initial_cost: u128,
}

/// Optimises the placement of `processes` communicating via `flows`
/// (`(from, to, bytes per token)`), by seeded local search over pairwise
/// swaps and relocations from a snake-order start. One process per tile.
///
/// # Panics
///
/// Panics if `processes > 24` or a flow references an out-of-range
/// process.
pub fn optimize_mapping(
    processes: usize,
    flows: &[(usize, usize, usize)],
    noc: &NocModel,
    iterations: usize,
    seed: u64,
) -> OptimizedMapping {
    assert!(
        processes <= TILE_COUNT as usize,
        "one process per tile: at most 24"
    );
    for (a, b, _) in flows {
        assert!(
            *a < processes && *b < processes,
            "flow references unknown process"
        );
    }
    // Assignment: process i sits on tiles[slot[i]].
    let order = snake_order();
    let mut slots: Vec<usize> = (0..processes).collect();
    let to_mapping =
        |slots: &[usize]| Mapping::new(slots.iter().map(|s| order[*s].cores()[0]).collect());

    let mut best = to_mapping(&slots);
    let initial_cost = cost(&best, flows, noc);
    let mut best_cost = initial_cost;
    let mut rng = seed;

    for _ in 0..iterations {
        let mut candidate = slots.clone();
        if splitmix(&mut rng).is_multiple_of(2) && processes >= 2 {
            // Swap two processes.
            let i = (splitmix(&mut rng) as usize) % processes;
            let j = (splitmix(&mut rng) as usize) % processes;
            candidate.swap(i, j);
        } else {
            // Relocate one process to a free tile.
            let i = (splitmix(&mut rng) as usize) % processes;
            let target = (splitmix(&mut rng) as usize) % TILE_COUNT as usize;
            if candidate.contains(&target) {
                continue;
            }
            candidate[i] = target;
        }
        let m = to_mapping(&candidate);
        let c = cost(&m, flows, noc);
        if c < best_cost {
            best_cost = c;
            best = m;
            slots = candidate;
        }
    }

    OptimizedMapping {
        mapping: best,
        cost: best_cost,
        initial_cost,
    }
}

/// The flow set of a duplicated network (Fig. 1) with per-replica
/// pipeline lengths: producer → replicator fan-out → replica stages →
/// selector fan-in → consumer. Returns `(process count, flows)`; process
/// 0 is the producer and the last process is the consumer.
pub fn duplicated_network_flows(
    stages_per_replica: usize,
    input_bytes: usize,
    output_bytes: usize,
) -> (usize, Vec<(usize, usize, usize)>) {
    // 0: producer; replicas A = 1..=k, B = k+1..=2k; consumer = 2k+1.
    let k = stages_per_replica;
    let consumer = 2 * k + 1;
    let mut flows = Vec::new();
    for r in 0..2 {
        let base = 1 + r * k;
        flows.push((0, base, input_bytes));
        for s in 0..k - 1 {
            flows.push((base + s, base + s + 1, input_bytes));
        }
        flows.push((base + k - 1, consumer, output_bytes));
    }
    (consumer + 1, flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::low_contention_pipeline;

    fn noc() -> NocModel {
        NocModel::paper_boot()
    }

    #[test]
    fn optimizer_never_worse_than_snake_start() {
        let (n, flows) = duplicated_network_flows(3, 10 * 1024, 76_800);
        let result = optimize_mapping(n, &flows, &noc(), 2_000, 42);
        assert!(result.cost <= result.initial_cost);
        assert!(result.mapping.one_process_per_tile());
    }

    #[test]
    fn optimizer_improves_diamond_topologies() {
        // The snake is suboptimal for a diamond: both replica pipelines
        // plus the fan-in/fan-out stretch along one path. Local search
        // should shave measurable latency.
        let (n, flows) = duplicated_network_flows(4, 10 * 1024, 76_800);
        let result = optimize_mapping(n, &flows, &noc(), 5_000, 7);
        assert!(
            result.cost < result.initial_cost,
            "search found no improvement: {} vs {}",
            result.cost,
            result.initial_cost
        );
    }

    #[test]
    fn optimizer_is_deterministic_per_seed() {
        let (n, flows) = duplicated_network_flows(2, 3 * 1024, 3 * 1024);
        let a = optimize_mapping(n, &flows, &noc(), 1_000, 11);
        let b = optimize_mapping(n, &flows, &noc(), 1_000, 11);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn pipeline_flows_keep_snake_optimal_or_equal() {
        // For a pure pipeline the snake is already contention-free; the
        // optimiser must not pretend otherwise by more than trivial
        // latency shuffling.
        let flows: Vec<(usize, usize, usize)> = (0..7).map(|i| (i, i + 1, 3 * 1024)).collect();
        let snake = low_contention_pipeline(8);
        let pair_flows: Vec<(usize, usize)> = flows.iter().map(|(a, b, _)| (*a, *b)).collect();
        assert_eq!(snake.max_link_sharing(&pair_flows), 1);
        let result = optimize_mapping(8, &flows, &noc(), 2_000, 3);
        let result_sharing = result.mapping.max_link_sharing(&pair_flows);
        assert!(
            result_sharing <= 1,
            "optimiser introduced contention: {result_sharing}"
        );
    }

    #[test]
    fn flow_builder_shapes_the_diamond() {
        let (n, flows) = duplicated_network_flows(2, 100, 200);
        assert_eq!(n, 6); // producer + 2×2 stages + consumer
        assert_eq!(flows.len(), 6); // 2×(in + 1 internal + out)
        assert!(flows.contains(&(0, 1, 100)));
        assert!(flows.contains(&(0, 3, 100)));
        assert!(flows.contains(&(2, 5, 200)));
        assert!(flows.contains(&(4, 5, 200)));
    }

    #[test]
    #[should_panic(expected = "unknown process")]
    fn bad_flow_rejected() {
        let _ = optimize_mapping(2, &[(0, 5, 10)], &noc(), 10, 1);
    }
}
