//! Structural validators.
//!
//! Several applications carry structural preconditions — Hashmin is
//! connected components only on symmetric graphs, k-core peeling assumes
//! mutual edges, SSSP wants the source present. These checks let callers
//! verify preconditions once at load time instead of debugging wrong
//! fixpoints later.

use std::collections::HashSet;

use crate::csr::Graph;

/// Whether for every edge `u → v` the reverse `v → u` also exists
/// (multiplicities ignored).
pub fn is_symmetric(g: &Graph) -> bool {
    let map = g.address_map();
    let mut edges: HashSet<(u32, u32)> = HashSet::new();
    for v in map.live_slots() {
        for &u in g.out_neighbors(v) {
            edges.insert((v, u));
        }
    }
    edges.iter().all(|&(a, b)| edges.contains(&(b, a)))
}

/// Number of self-loop edges.
pub fn count_self_loops(g: &Graph) -> u64 {
    let map = g.address_map();
    map.live_slots()
        .map(|v| g.out_neighbors(v).iter().filter(|&&u| u == v).count() as u64)
        .sum()
}

/// Number of duplicate directed edges (beyond the first occurrence).
pub fn count_duplicate_edges(g: &Graph) -> u64 {
    let map = g.address_map();
    let mut dupes = 0u64;
    let mut seen = HashSet::new();
    for v in map.live_slots() {
        seen.clear();
        for &u in g.out_neighbors(v) {
            if !seen.insert(u) {
                dupes += 1;
            }
        }
    }
    dupes
}

/// Whether the graph is weakly connected (one component after
/// symmetrisation). Isolated vertices count as their own components.
pub fn is_weakly_connected(g: &Graph) -> bool {
    let map = g.address_map();
    let n = g.num_vertices();
    if n <= 1 {
        return true;
    }
    // Union-find over symmetrised edges.
    let mut parent: Vec<u32> = (0..g.num_slots() as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for v in map.live_slots() {
        for &u in g.out_neighbors(v) {
            let (a, b) = (find(&mut parent, v), find(&mut parent, u));
            if a != b {
                parent[a as usize] = b;
            }
        }
    }
    let mut roots = map.live_slots().map(|v| find(&mut parent, v));
    let first = roots.next().expect("n > 1 checked");
    roots.all(|r| r == first)
}

/// A full structural report, for load-time logging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// Every edge has its reverse.
    pub symmetric: bool,
    /// Self-loop count.
    pub self_loops: u64,
    /// Duplicate directed edge count.
    pub duplicate_edges: u64,
    /// Weakly connected.
    pub weakly_connected: bool,
}

/// Run all validators.
pub fn validate(g: &Graph) -> ValidationReport {
    ValidationReport {
        symmetric: is_symmetric(g),
        self_loops: count_self_loops(g),
        duplicate_edges: count_duplicate_edges(g),
        weakly_connected: is_weakly_connected(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, NeighborMode};

    fn build(edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn symmetric_detection() {
        assert!(is_symmetric(&build(&[(0, 1), (1, 0), (1, 2), (2, 1)])));
        assert!(!is_symmetric(&build(&[(0, 1), (1, 2), (2, 1)])));
        // Self-loops are their own reverse.
        assert!(is_symmetric(&build(&[(0, 0), (0, 1), (1, 0)])));
    }

    #[test]
    fn self_loop_counting() {
        assert_eq!(count_self_loops(&build(&[(0, 0), (1, 1), (0, 1)])), 2);
        assert_eq!(count_self_loops(&build(&[(0, 1)])), 0);
    }

    #[test]
    fn duplicate_counting() {
        assert_eq!(count_duplicate_edges(&build(&[(0, 1), (0, 1), (0, 1), (1, 0)])), 2);
        assert_eq!(count_duplicate_edges(&build(&[(0, 1), (1, 0)])), 0);
    }

    #[test]
    fn weak_connectivity() {
        assert!(is_weakly_connected(&build(&[(0, 1), (2, 1)]))); // direction-free
        assert!(!is_weakly_connected(&build(&[(0, 1), (2, 3)])));
        // Isolated vertex via declared range breaks connectivity.
        let mut b = GraphBuilder::new(NeighborMode::OutOnly).declare_id_range(0, 3);
        b.add_edge(0, 1);
        assert!(!is_weakly_connected(&b.build().unwrap()));
    }

    #[test]
    fn single_vertex_is_connected() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly).declare_id_range(0, 1);
        b.add_edge(0, 0);
        assert!(is_weakly_connected(&b.build().unwrap()));
    }

    #[test]
    fn full_report() {
        let r = validate(&build(&[(0, 1), (1, 0), (0, 0), (0, 1)]));
        assert_eq!(
            r,
            ValidationReport {
                symmetric: true,
                self_loops: 1,
                duplicate_edges: 1,
                weakly_connected: true
            }
        );
    }
}
