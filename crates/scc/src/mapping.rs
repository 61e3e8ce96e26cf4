//! Process-to-core mapping with low router contention.
//!
//! The paper maps "only one process per tile in a way which reduces cross
//! traffic at the routers" (§4.1, citing Zimmer et al., RTAS 2012). For
//! pipeline-shaped process networks the canonical low-contention placement
//! is a snake walk over the mesh: consecutive pipeline stages sit on
//! adjacent tiles, so every flow occupies exactly one link and no two flows
//! share one.

use crate::topology::{route_links, CoreId, Link, TileId, MESH_COLS, MESH_ROWS, TILE_COUNT};
use std::collections::HashMap;

/// An assignment of processes (by index) to cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    cores: Vec<CoreId>,
}

impl Mapping {
    /// A mapping from an explicit core list.
    pub fn new(cores: Vec<CoreId>) -> Self {
        Mapping { cores }
    }

    /// The core of process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core(&self, i: usize) -> CoreId {
        self.cores[i]
    }

    /// Number of mapped processes.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// `true` if no processes are mapped.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Directed-link usage counts for a set of flows
    /// `(producer process, consumer process)` — the router cross-traffic
    /// metric the placement minimises.
    fn link_utilization(&self, flows: &[(usize, usize)]) -> HashMap<Link, usize> {
        let mut util = HashMap::new();
        for (from, to) in flows {
            let (a, b) = (self.cores[*from].tile(), self.cores[*to].tile());
            for link in route_links(a, b) {
                *util.entry(link).or_insert(0) += 1;
            }
        }
        util
    }

    /// The maximum number of flows sharing any one link.
    pub fn max_link_sharing(&self, flows: &[(usize, usize)]) -> usize {
        self.link_utilization(flows)
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// The snake order of tiles: left-to-right on even rows, right-to-left on
/// odd rows, so consecutive tiles in the order are always mesh-adjacent.
pub fn snake_order() -> Vec<TileId> {
    let mut order = Vec::with_capacity(TILE_COUNT as usize);
    for y in 0..MESH_ROWS {
        if y % 2 == 0 {
            for x in 0..MESH_COLS {
                order.push(TileId::at(x, y));
            }
        } else {
            for x in (0..MESH_COLS).rev() {
                order.push(TileId::at(x, y));
            }
        }
    }
    order
}

/// Low-contention pipeline placement: process `i` on core 0 of the `i`-th
/// snake-order tile. Consecutive pipeline stages are mesh-adjacent, so a
/// linear pipeline's flows never share a link.
///
/// # Panics
///
/// Panics if `processes > 24` (more processes than tiles — the paper's
/// one-process-per-tile constraint cannot hold).
pub fn low_contention_pipeline(processes: usize) -> Mapping {
    assert!(
        processes <= TILE_COUNT as usize,
        "cannot map {processes} processes one-per-tile on 24 tiles"
    );
    let order = snake_order();
    Mapping::new((0..processes).map(|i| order[i].cores()[0]).collect())
}

/// Naive placement used as the contention baseline: process `i` on core
/// `2·i` (consecutive tiles in row-major order — long X-routes share links
/// once flows skip around).
pub fn row_major(processes: usize) -> Mapping {
    assert!(processes <= TILE_COUNT as usize, "too many processes");
    Mapping::new(
        (0..processes)
            .map(|i| TileId::new(i as u8).cores()[0])
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noc::NocModel;
    use rtft_rtc::TimeNs;

    fn pipeline_flows(n: usize) -> Vec<(usize, usize)> {
        (0..n - 1).map(|i| (i, i + 1)).collect()
    }

    #[test]
    fn snake_order_is_adjacent() {
        let order = snake_order();
        assert_eq!(order.len(), 24);
        for w in order.windows(2) {
            assert_eq!(w[0].hops_to(w[1]), 1, "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn snake_mapping_keeps_one_process_per_tile() {
        let m = low_contention_pipeline(10);
        let mut tiles: Vec<u8> = (0..m.len()).map(|i| m.core(i).tile().index()).collect();
        tiles.sort_unstable();
        tiles.dedup();
        assert_eq!(tiles.len(), 10);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn snake_pipeline_has_no_link_sharing() {
        let m = low_contention_pipeline(12);
        assert_eq!(m.max_link_sharing(&pipeline_flows(12)), 1);
    }

    #[test]
    fn row_major_crossing_flows_share_links() {
        // Flows that hop over a row boundary in row-major order route back
        // across the row and collide with the intra-row flows.
        let m = row_major(8);
        let flows = vec![(0usize, 7usize), (1, 6), (2, 5), (3, 4)];
        let snake = low_contention_pipeline(8);
        assert!(
            m.max_link_sharing(&flows) >= snake.max_link_sharing(&pipeline_flows(8)),
            "baseline should be no better than snake on its own pipeline"
        );
    }

    #[test]
    fn latency_cost_prefers_snake_for_pipelines() {
        let noc = NocModel::paper_boot();
        let flows = pipeline_flows(12);
        let snake = low_contention_pipeline(12);
        let naive = row_major(12);
        // One 3 KB message per flow.
        let cost = |m: &Mapping| -> TimeNs {
            flows
                .iter()
                .map(|&(a, b)| noc.message_latency(m.core(a), m.core(b), 3 * 1024))
                .sum()
        };
        let (ls, ln) = (cost(&snake), cost(&naive));
        assert!(ls <= ln, "snake {ls} vs row-major {ln}");
    }

    #[test]
    fn utilization_counts_every_link_once_per_flow() {
        let m = Mapping::new(vec![
            TileId::at(0, 0).cores()[0],
            TileId::at(2, 0).cores()[0],
        ]);
        let util = m.link_utilization(&[(0, 1)]);
        assert_eq!(util.len(), 2); // two hops
        assert!(util.values().all(|c| *c == 1));
    }

    #[test]
    #[should_panic(expected = "one-per-tile")]
    fn too_many_processes_rejected() {
        let _ = low_contention_pipeline(25);
    }
}
