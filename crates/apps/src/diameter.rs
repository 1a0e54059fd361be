//! Pseudo-diameter estimation by double sweep.
//!
//! Two BFS runs: from an arbitrary start, find a farthest vertex; BFS
//! again from there — the second eccentricity is a strong lower bound on
//! the diameter (exact on trees). The diameter is the graph property the
//! paper's Section 7.2 analysis leans on ("a slower propagation of
//! messages, thus a high number of supersteps"), so the suite exposes it
//! as a first-class measurement built from the BFS application.

use ipregel::engine::RunError;
use ipregel::{try_run, RunConfig, RunStats, Version};
use ipregel_graph::{Graph, VertexId};

use crate::bfs::{Bfs, UNVISITED};

/// Result of a double-sweep estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiameterEstimate {
    /// Lower bound on the diameter (exact for trees).
    pub pseudo_diameter: u32,
    /// Endpoint found by the first sweep.
    pub far_vertex: VertexId,
    /// Endpoint of the estimated-longest shortest path.
    pub opposite_vertex: VertexId,
}

/// Run the double sweep from `start` using the given engine version.
///
/// Returns `None` when `start` reaches no other vertex. On directed
/// graphs the estimate concerns directed eccentricities (symmetrise
/// first for the undirected diameter).
///
/// # Panics
/// On any [`RunError`] from the underlying BFS runs — fault-tolerant
/// callers use [`try_pseudo_diameter`].
pub fn pseudo_diameter(
    g: &Graph,
    start: VertexId,
    version: Version,
    config: &RunConfig,
) -> Option<DiameterEstimate> {
    try_pseudo_diameter(g, start, version, config)
        .unwrap_or_else(|e| panic!("pseudo_diameter: {e}"))
        .0
}

/// Fallible [`pseudo_diameter`]: engine failures (a panicking vertex, a
/// missed deadline — the sweep runs two BFS passes under one
/// [`RunConfig::deadline`] budget each) surface as [`RunError`]. Beside
/// the estimate, the stats of the BFS runs it took, in order.
pub fn try_pseudo_diameter(
    g: &Graph,
    start: VertexId,
    version: Version,
    config: &RunConfig,
) -> Result<(Option<DiameterEstimate>, Vec<RunStats>), RunError> {
    let first = try_run(g, &Bfs { source: start }, version, config)?;
    let far = first
        .iter()
        .filter(|(_, &l)| l != UNVISITED)
        .max_by_key(|&(id, &l)| (l, std::cmp::Reverse(id)))
        .map(|(id, _)| id);
    let mut runs = vec![first.stats];
    let Some(far_vertex) = far else {
        return Ok((None, runs));
    };
    let second = try_run(g, &Bfs { source: far_vertex }, version, config)?;
    let opposite = second
        .iter()
        .filter(|(_, &l)| l != UNVISITED)
        .max_by_key(|&(id, &l)| (l, std::cmp::Reverse(id)))
        .map(|(id, &ecc)| (id, ecc));
    runs.push(second.stats);
    let estimate = opposite
        // An eccentricity of 0: the start reaches nothing beyond itself.
        .filter(|&(_, ecc)| ecc > 0)
        .map(|(opposite_vertex, ecc)| DiameterEstimate {
            pseudo_diameter: ecc,
            far_vertex,
            opposite_vertex,
        });
    Ok((estimate, runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel::CombinerKind;
    use ipregel_graph::{GraphBuilder, NeighborMode};

    fn version() -> Version {
        Version { combiner: CombinerKind::Spinlock, selection_bypass: true }
    }

    fn sym(edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for &(u, v) in edges {
            b.add_edge(u, v);
            b.add_edge(v, u);
        }
        b.build().unwrap()
    }

    #[test]
    fn exact_on_a_path() {
        let g = sym(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        // Start mid-path: first sweep finds an end, second the other end.
        let est = pseudo_diameter(&g, 2, version(), &RunConfig::default()).unwrap();
        assert_eq!(est.pseudo_diameter, 4);
        let ends = [est.far_vertex, est.opposite_vertex];
        assert!(ends.contains(&0) && ends.contains(&4));
    }

    #[test]
    fn exact_on_a_tree() {
        //      0
        //    /   \
        //   1     2
        //  / \     \
        // 3   4     5 — 6
        let g = sym(&[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)]);
        let est = pseudo_diameter(&g, 0, version(), &RunConfig::default()).unwrap();
        assert_eq!(est.pseudo_diameter, 5); // 3/4 … 6
    }

    #[test]
    fn lower_bounds_a_cycle() {
        let n = 12u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = sym(&edges);
        let est = pseudo_diameter(&g, 0, version(), &RunConfig::default()).unwrap();
        assert_eq!(est.pseudo_diameter, n / 2); // exact here too
    }

    #[test]
    fn isolated_start_yields_none() {
        let mut b = GraphBuilder::new(NeighborMode::Both).declare_id_range(0, 4);
        b.add_edge(1, 2);
        b.add_edge(2, 1);
        let g = b.build().unwrap();
        assert_eq!(pseudo_diameter(&g, 0, version(), &RunConfig::default()), None);
    }

    #[test]
    fn grid_estimate_matches_manhattan_diameter() {
        use ipregel_graph::generators::grid::grid_road_edges;
        let (rows, cols) = (9u32, 7u32);
        let mut b = GraphBuilder::new(NeighborMode::Both);
        // Dense grid (target degree 4): diameter = (rows-1)+(cols-1).
        for (u, v, _) in grid_road_edges(rows, cols, 4.0, 1, 3) {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let est = pseudo_diameter(&g, 0, version(), &RunConfig::default()).unwrap();
        assert!(est.pseudo_diameter >= rows + cols - 2);
    }
}
