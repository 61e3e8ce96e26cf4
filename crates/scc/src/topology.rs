//! SCC die topology: 24 tiles on a 6×4 mesh, 2 cores per tile.
//!
//! The Intel Single-Chip Cloud Computer (Howard et al., ISSCC 2010) places
//! 48 IA-32 cores as 24 dual-core tiles on a 6-column × 4-row mesh of
//! routers. Messages between tiles follow deterministic X-then-Y routing.
//! Four DDR3 memory controllers sit at the mesh edges (tiles (0,0), (5,0),
//! (0,2) and (5,2) attach to them on the real die).

use std::fmt;

/// Mesh width (columns of tiles).
pub const MESH_COLS: u8 = 6;
/// Mesh height (rows of tiles).
pub const MESH_ROWS: u8 = 4;
/// Number of tiles.
pub const TILE_COUNT: u8 = MESH_COLS * MESH_ROWS;
/// Cores per tile.
pub const CORES_PER_TILE: u8 = 2;
/// Total cores.
pub const CORE_COUNT: u8 = TILE_COUNT * CORES_PER_TILE;

/// A tile (router) position on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(u8);

impl TileId {
    /// Tile from a linear index `0..24`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 24`.
    pub fn new(index: u8) -> Self {
        assert!(index < TILE_COUNT, "tile index {index} out of range");
        TileId(index)
    }

    /// Tile at mesh coordinates `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= 6` or `y >= 4`.
    pub fn at(x: u8, y: u8) -> Self {
        assert!(
            x < MESH_COLS && y < MESH_ROWS,
            "tile ({x},{y}) out of range"
        );
        TileId(y * MESH_COLS + x)
    }

    /// Linear index `0..24`.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Column `0..6`.
    pub fn x(self) -> u8 {
        self.0 % MESH_COLS
    }

    /// Row `0..4`.
    pub fn y(self) -> u8 {
        self.0 / MESH_COLS
    }

    /// The two cores on this tile.
    pub fn cores(self) -> [CoreId; 2] {
        [CoreId(self.0 * 2), CoreId(self.0 * 2 + 1)]
    }

    /// Manhattan (XY-route) hop distance to another tile.
    pub fn hops_to(self, other: TileId) -> u8 {
        self.x().abs_diff(other.x()) + self.y().abs_diff(other.y())
    }

    /// The sequence of tiles an XY-routed message traverses from `self` to
    /// `other`, inclusive of both endpoints: first along X, then along Y.
    fn xy_route(self, other: TileId) -> Vec<TileId> {
        let mut route = vec![self];
        let (mut x, mut y) = (self.x(), self.y());
        while x != other.x() {
            x = if x < other.x() { x + 1 } else { x - 1 };
            route.push(TileId::at(x, y));
        }
        while y != other.y() {
            y = if y < other.y() { y + 1 } else { y - 1 };
            route.push(TileId::at(x, y));
        }
        route
    }

    /// All tiles in row-major order.
    pub fn all() -> impl Iterator<Item = TileId> {
        (0..TILE_COUNT).map(TileId)
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile({},{})", self.x(), self.y())
    }
}

/// One of the 48 cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(u8);

impl CoreId {
    /// Core from a linear index `0..48`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 48`.
    pub fn new(index: u8) -> Self {
        assert!(index < CORE_COUNT, "core index {index} out of range");
        CoreId(index)
    }

    /// Linear index `0..48`.
    pub fn index(self) -> u8 {
        self.0
    }

    /// The tile hosting this core.
    pub fn tile(self) -> TileId {
        TileId(self.0 / CORES_PER_TILE)
    }

    /// `0` or `1`: position within the tile.
    pub fn local(self) -> u8 {
        self.0 % CORES_PER_TILE
    }

    /// All cores in index order.
    pub fn all() -> impl Iterator<Item = CoreId> {
        (0..CORE_COUNT).map(CoreId)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A directed mesh link between adjacent tiles (for contention accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Source tile.
    pub from: TileId,
    /// Destination tile (adjacent to `from`).
    pub to: TileId,
}

/// The links an XY-routed message occupies between two tiles.
pub fn route_links(from: TileId, to: TileId) -> Vec<Link> {
    let route = from.xy_route(to);
    route
        .windows(2)
        .map(|w| Link {
            from: w[0],
            to: w[1],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants() {
        assert_eq!(TILE_COUNT, 24);
        assert_eq!(CORE_COUNT, 48);
        assert_eq!(TileId::all().count(), 24);
        assert_eq!(CoreId::all().count(), 48);
    }

    #[test]
    fn tile_coordinates_roundtrip() {
        for t in TileId::all() {
            assert_eq!(TileId::at(t.x(), t.y()), t);
        }
        assert_eq!(TileId::at(5, 3).index(), 23);
    }

    #[test]
    fn cores_map_to_tiles() {
        let t = TileId::at(2, 1);
        let [a, b] = t.cores();
        assert_eq!(a.tile(), t);
        assert_eq!(b.tile(), t);
        assert_eq!(a.local(), 0);
        assert_eq!(b.local(), 1);
        assert_eq!(CoreId::new(47).tile(), TileId::new(23));
    }

    #[test]
    fn xy_route_goes_x_first() {
        let route = TileId::at(0, 0).xy_route(TileId::at(2, 2));
        let coords: Vec<(u8, u8)> = route.iter().map(|t| (t.x(), t.y())).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]);
    }

    #[test]
    fn hops_match_route_length() {
        for a in TileId::all() {
            for b in TileId::all() {
                let route = a.xy_route(b);
                assert_eq!(route.len() as u8 - 1, a.hops_to(b), "{a} -> {b}");
                // Route is contiguous.
                for w in route.windows(2) {
                    assert_eq!(w[0].hops_to(w[1]), 1);
                }
            }
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let t = TileId::at(3, 2);
        assert_eq!(t.xy_route(t), vec![t]);
        assert_eq!(t.hops_to(t), 0);
        assert!(route_links(t, t).is_empty());
    }

    #[test]
    fn route_links_are_directed() {
        let links = route_links(TileId::at(0, 0), TileId::at(1, 0));
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].from, TileId::at(0, 0));
        assert_eq!(links[0].to, TileId::at(1, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_tile_rejected() {
        let _ = TileId::new(24);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_rejected() {
        let _ = CoreId::new(48);
    }
}
