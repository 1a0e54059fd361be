//! Single-source shortest path, transliterated from the paper's Figure 5.
//!
//! The paper's SSSP assumes unit edge weights ("all edge weights are
//! equal to 1", footnote 1) and broadcasts `val + 1`; [`Sssp`] follows it
//! exactly. [`WeightedSssp`] is the natural extension for the DIMACS
//! distance graphs, relaxing each out-edge with its real weight through
//! point-to-point sends — push engines only.
//!
//! Every vertex votes to halt at the end of every superstep, so SSSP is
//! selection-bypass compatible — and with the USA road graph's low
//! density and tiny active set it is the paper's best case for the
//! bypass (×1400 in Figure 7).

use ipregel::{Context, VertexProgram};
use ipregel_graph::VertexId;

/// Infinite distance (the paper's `UINT_MAX`).
pub const INFINITY: u32 = u32::MAX;

/// Unit-weight SSSP (Figure 5).
#[derive(Debug, Clone)]
pub struct Sssp {
    /// External identifier of the source vertex (the paper uses id 2).
    pub source: VertexId,
}

impl Sssp {
    /// Vertices halt every superstep: bypass-compatible.
    pub const BYPASS_COMPATIBLE: bool = true;
    /// Broadcast-only communication: pull-combiner compatible.
    pub const BROADCAST_ONLY: bool = true;
}

impl VertexProgram for Sssp {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
        INFINITY
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        let mut reference = if ctx.id() == self.source { 0 } else { INFINITY };
        while let Some(m) = ctx.next_message() {
            reference = reference.min(m);
        }
        if reference < *value {
            *value = reference;
            ctx.broadcast(*value + 1);
        }
        ctx.vote_to_halt();
    }

    fn combine(old: &mut u32, new: u32) {
        if new < *old {
            *old = new;
        }
    }
}

/// Weighted SSSP (extension): relaxes real edge weights via
/// point-to-point sends, so it requires a push version (the pull
/// combiner is broadcast-only).
#[derive(Debug, Clone)]
pub struct WeightedSssp {
    /// External identifier of the source vertex.
    pub source: VertexId,
}

impl WeightedSssp {
    /// Vertices halt every superstep: bypass-compatible.
    pub const BYPASS_COMPATIBLE: bool = true;
    /// Uses `send`, not broadcast: **not** pull-compatible.
    pub const BROADCAST_ONLY: bool = false;
}

impl VertexProgram for WeightedSssp {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
        INFINITY
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        let mut reference = if ctx.id() == self.source { 0 } else { INFINITY };
        while let Some(m) = ctx.next_message() {
            reference = reference.min(m);
        }
        if reference < *value {
            *value = reference;
            let base = *value;
            ctx.send_along_out_edges(|w| base.saturating_add(w));
        }
        ctx.vote_to_halt();
    }

    fn combine(old: &mut u32, new: u32) {
        if new < *old {
            *old = new;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel::{run, CombinerKind, RunConfig, Version};
    use ipregel_graph::{GraphBuilder, NeighborMode};

    fn all_versions() -> Vec<Version> {
        Version::paper_versions().to_vec()
    }

    #[test]
    fn unit_sssp_on_a_path_all_versions() {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for i in 0..5u32 {
            b.add_edge(i, i + 1);
        }
        let g = b.build().unwrap();
        for v in all_versions() {
            let out = run(&g, &Sssp { source: 0 }, v, &RunConfig::default());
            for id in 0..6u32 {
                assert_eq!(*out.value_of(id), id, "version {}", v.label());
            }
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        b.add_edge(0, 1);
        b.add_edge(2, 3); // disconnected from source 0
        let g = b.build().unwrap();
        let out = run(
            &g,
            &Sssp { source: 0 },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
            &RunConfig::default(),
        );
        assert_eq!(*out.value_of(1), 1);
        assert_eq!(*out.value_of(2), INFINITY);
        assert_eq!(*out.value_of(3), INFINITY);
    }

    #[test]
    fn sssp_takes_shortcuts() {
        // 0→1→2→3 but also 0→3 directly.
        let mut b = GraphBuilder::new(NeighborMode::Both);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(0, 3);
        let g = b.build().unwrap();
        let out = run(
            &g,
            &Sssp { source: 0 },
            Version { combiner: CombinerKind::Broadcast, selection_bypass: true },
            &RunConfig::default(),
        );
        assert_eq!(*out.value_of(3), 1);
    }

    #[test]
    fn weighted_sssp_prefers_cheap_detour() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_weighted_edge(0, 2, 10);
        b.add_weighted_edge(0, 1, 1);
        b.add_weighted_edge(1, 2, 2);
        let g = b.build().unwrap();
        for bypass in [false, true] {
            let out = run(
                &g,
                &WeightedSssp { source: 0 },
                Version { combiner: CombinerKind::Spinlock, selection_bypass: bypass },
                &RunConfig::default(),
            );
            assert_eq!(*out.value_of(2), 3, "bypass={bypass}");
            assert_eq!(*out.value_of(1), 1);
        }
    }

    #[test]
    fn weighted_sssp_on_unweighted_graph_uses_unit_weights() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let out = run(
            &g,
            &WeightedSssp { source: 0 },
            Version { combiner: CombinerKind::Mutex, selection_bypass: false },
            &RunConfig::default(),
        );
        assert_eq!(*out.value_of(2), 2);
    }

    #[test]
    fn source_distance_is_zero_even_with_incoming_edges() {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build().unwrap();
        let out = run(
            &g,
            &Sssp { source: 0 },
            Version { combiner: CombinerKind::Mutex, selection_bypass: true },
            &RunConfig::default(),
        );
        assert_eq!(*out.value_of(0), 0);
        assert_eq!(*out.value_of(1), 1);
    }
}
