//! Maximum-value propagation — the canonical example from the original
//! Pregel paper (Malewicz et al., SIGMOD'10, Figure 2).
//!
//! Every vertex starts with an arbitrary value and repeatedly adopts the
//! largest value it has heard of; at fixpoint every vertex in a
//! communicating region holds the region's maximum. Structurally the
//! mirror image of Hashmin, so it doubles as a test that nothing in the
//! engines is accidentally min-specific.

use ipregel::{Context, VertexProgram};
use ipregel_graph::VertexId;

/// Deterministically scrambles a vertex id into its starting value, so
/// the maximum is not simply the largest id (splitmix64 finaliser).
pub fn scrambled(id: VertexId) -> u64 {
    let mut z = u64::from(id).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Clear the top bit: the starting values, and so every recorded
    // MaxValue result, are defined with it cleared.
    (z ^ (z >> 31)) & (u64::MAX >> 1)
}

/// Max-value propagation with scrambled initial values.
#[derive(Debug, Clone, Default)]
pub struct MaxValue;

impl MaxValue {
    /// Vertices halt every superstep: bypass-compatible.
    pub const BYPASS_COMPATIBLE: bool = true;
    /// Broadcast-only communication: pull-combiner compatible.
    pub const BROADCAST_ONLY: bool = true;
}

impl VertexProgram for MaxValue {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, id: VertexId) -> u64 {
        scrambled(id)
    }

    fn compute<C: Context<Message = u64>>(&self, value: &mut u64, ctx: &mut C) {
        let mut best = *value;
        while let Some(m) = ctx.next_message() {
            best = best.max(m);
        }
        if best > *value || ctx.is_first_superstep() {
            *value = best;
            ctx.broadcast(*value);
        }
        ctx.vote_to_halt();
    }

    fn combine(old: &mut u64, new: u64) {
        if new > *old {
            *old = new;
        }
    }
}

/// Sequential fixpoint oracle: `value(v)` = max scrambled value over all
/// vertices that can reach `v` (including `v`). Indexed by slot.
pub fn maxvalue_fixpoint(g: &ipregel_graph::Graph) -> Vec<u64> {
    let map = g.address_map();
    // Every slot gets its initial value — including desolate slots, which
    // the engines also initialise (and never touch again), so full-vector
    // comparisons line up.
    let mut value: Vec<u64> =
        (0..g.num_slots() as u32).map(|s| scrambled(map.id_of(s))).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for v in map.live_slots() {
            let x = value[v as usize];
            for &u in g.out_neighbors(v) {
                if x > value[u as usize] {
                    value[u as usize] = x;
                    changed = true;
                }
            }
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel::{run, CombinerKind, RunConfig, Version};
    use ipregel_graph::{GraphBuilder, NeighborMode};

    fn ring(n: u32) -> ipregel_graph::Graph {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.build().unwrap()
    }

    #[test]
    fn ring_converges_to_global_max_on_all_versions() {
        let g = ring(17);
        let expected = (0..17).map(scrambled).max().unwrap();
        for v in Version::paper_versions() {
            let out = run(&g, &MaxValue, v, &RunConfig::default());
            for (_, &val) in out.iter() {
                assert_eq!(val, expected, "{}", v.label());
            }
        }
    }

    #[test]
    fn matches_fixpoint_on_a_dag() {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for (u, v) in [(0, 2), (1, 2), (2, 3), (4, 3)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let expected = maxvalue_fixpoint(&g);
        let out = run(
            &g,
            &MaxValue,
            Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
            &RunConfig::default(),
        );
        assert_eq!(out.values, expected);
    }

    #[test]
    fn scrambled_clears_the_top_bit() {
        for id in [0u32, 1, 2, u32::MAX / 2, u32::MAX] {
            assert!(scrambled(id) <= u64::MAX >> 1);
        }
    }
}
