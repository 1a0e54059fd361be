//! Single-source widest path (maximum-bottleneck path) — extension.
//!
//! The width of a path is its minimum edge weight; the widest path
//! maximises that bottleneck (network throughput planning, maximum-flow
//! lower bounds). Vertex-centric shape: messages carry achievable
//! widths, the combiner keeps the **max** — a max-of-min recursion that
//! exercises a combiner family the paper's three applications don't
//! (min for SSSP/Hashmin, sum for PageRank).
//!
//! Point-to-point sends with per-edge weights: push combiners only.

use ipregel::{Context, VertexProgram};
use ipregel_graph::VertexId;

/// Single-source widest path.
#[derive(Debug, Clone)]
pub struct WidestPath {
    /// External identifier of the source.
    pub source: VertexId,
}

impl WidestPath {
    /// Vertices halt every superstep: bypass-compatible.
    pub const BYPASS_COMPATIBLE: bool = true;
    /// Uses weighted `send`: **not** pull-compatible.
    pub const BROADCAST_ONLY: bool = false;
}

impl VertexProgram for WidestPath {
    type Value = u32; // best bottleneck width from the source; 0 = unreached
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
        0
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        let mut best = if ctx.id() == self.source { u32::MAX } else { 0 };
        while let Some(m) = ctx.next_message() {
            best = best.max(m);
        }
        if best > *value {
            *value = best;
            let width = *value;
            ctx.send_along_out_edges(|w| width.min(w));
        }
        ctx.vote_to_halt();
    }

    fn combine(old: &mut u32, new: u32) {
        if new > *old {
            *old = new;
        }
    }
}

/// Sequential oracle: widest-path widths by a max-heap Dijkstra variant.
/// Indexed by slot; the source gets `u32::MAX`, unreached vertices 0.
pub fn widest_path_oracle(g: &ipregel_graph::Graph, source: VertexId) -> Vec<u32> {
    let mut width = vec![0u32; g.num_slots()];
    let s = g.index_of(source);
    width[s as usize] = u32::MAX;
    let mut heap = std::collections::BinaryHeap::from([(u32::MAX, s)]);
    while let Some((w, v)) = heap.pop() {
        if w < width[v as usize] {
            continue;
        }
        let neighbors = g.out_neighbors(v);
        let weights = g.out_weights(v);
        for (i, &u) in neighbors.iter().enumerate() {
            let ew = weights.map_or(1, |ws| ws[i]);
            let cand = w.min(ew);
            if cand > width[u as usize] {
                width[u as usize] = cand;
                heap.push((cand, u));
            }
        }
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel::{run, CombinerKind, RunConfig, Version};
    use ipregel_graph::{GraphBuilder, NeighborMode};

    #[test]
    fn picks_the_wider_bottleneck() {
        // 0→1→3 bottleneck 5; 0→2→3 bottleneck 8.
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_weighted_edge(0, 1, 5);
        b.add_weighted_edge(1, 3, 20);
        b.add_weighted_edge(0, 2, 8);
        b.add_weighted_edge(2, 3, 9);
        let g = b.build().unwrap();
        for bypass in [false, true] {
            let out = run(
                &g,
                &WidestPath { source: 0 },
                Version { combiner: CombinerKind::Spinlock, selection_bypass: bypass },
                &RunConfig::default(),
            );
            assert_eq!(*out.value_of(3), 8, "bypass={bypass}");
            assert_eq!(*out.value_of(0), u32::MAX);
            assert_eq!(*out.value_of(1), 5);
        }
    }

    #[test]
    fn matches_oracle_on_a_grid() {
        use ipregel_graph::generators::grid::grid_road_edges;
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for (u, v, w) in grid_road_edges(12, 12, 2.8, 50, 4) {
            b.add_weighted_edge(u, v, w);
        }
        let g = b.build().unwrap();
        let expected = widest_path_oracle(&g, 0);
        let out = run(
            &g,
            &WidestPath { source: 0 },
            Version { combiner: CombinerKind::Mutex, selection_bypass: true },
            &RunConfig::default(),
        );
        assert_eq!(out.values, expected);
    }

    #[test]
    fn unreachable_vertices_stay_zero() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_weighted_edge(0, 1, 3);
        b.add_weighted_edge(2, 3, 4);
        let g = b.build().unwrap();
        let out = run(
            &g,
            &WidestPath { source: 0 },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &RunConfig::default(),
        );
        assert_eq!(*out.value_of(2), 0);
        assert_eq!(*out.value_of(3), 0);
    }
}
