//! Per-graph statistics: the numbers behind Tables 1 and 2 and the
//! density analysis of Section 7.2.

use std::fmt;

use ipregel_par::prelude::*;

use crate::csr::Graph;

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices (|V| column of Tables 1 and 2).
    pub vertices: u64,
    /// Number of directed edges (|E| column).
    pub edges: u64,
    /// Edge density `|E| / (|V|·(|V|−1))`.
    pub density: f64,
    /// Average out-degree `|E| / |V|` — the "graph density" factor the
    /// paper's Section 7.2 analysis leans on.
    pub avg_out_degree: f64,
    /// Largest out-degree.
    pub max_out_degree: u32,
    /// Number of vertices with no out-edges.
    pub sinks: u64,
}

impl GraphStats {
    /// Compute statistics for `g` (parallel over slots).
    pub fn compute(g: &Graph) -> GraphStats {
        let slots = g.num_slots() as u32;
        let map = g.address_map();
        let (max_out, sinks) = (0..slots)
            .into_par_iter()
            .filter(|&v| map.is_live_slot(v))
            .map(|v| {
                let d = g.out_degree(v);
                (d, u64::from(d == 0))
            })
            .reduce(|| (0, 0), |a, b| (a.0.max(b.0), a.1 + b.1));
        let n = g.num_vertices() as u64;
        let m = g.num_edges();
        GraphStats {
            vertices: n,
            edges: m,
            density: if n > 1 { m as f64 / (n as f64 * (n as f64 - 1.0)) } else { 0.0 },
            avg_out_degree: if n > 0 { m as f64 / n as f64 } else { 0.0 },
            max_out_degree: max_out,
            sinks,
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "|V| = {:>12}  |E| = {:>14}  avg out-degree = {:>7.2}  max = {}  sinks = {}",
            group_digits(self.vertices),
            group_digits(self.edges),
            self.avg_out_degree,
            self.max_out_degree,
            self.sinks
        )
    }
}

/// Format an integer with comma separators, as in the paper's tables
/// (`18,268,992`).
pub fn group_digits(n: u64) -> String {
    let s = n.to_string();
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, NeighborMode};

    fn star(n: u32) -> Graph {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for i in 1..n {
            b.add_edge(0, i);
        }
        b.build().unwrap()
    }

    #[test]
    fn star_stats() {
        let s = GraphStats::compute(&star(5));
        assert_eq!(s.vertices, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_out_degree, 4);
        assert_eq!(s.sinks, 4);
        assert!((s.avg_out_degree - 0.8).abs() < 1e-12);
        assert!((s.density - 4.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn stats_skip_desolate_slots() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertices, 2);
        assert_eq!(s.sinks, 1); // vertex 2 only; the desolate slot is not a sink
    }

    #[test]
    fn digit_grouping_matches_paper_format() {
        assert_eq!(group_digits(18_268_992), "18,268,992");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1_000), "1,000");
        assert_eq!(group_digits(0), "0");
    }
}
