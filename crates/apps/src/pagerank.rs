//! PageRank, transliterated from the paper's Figure 6.
//!
//! ```c
//! void IP_compute(struct IP_vertex_t* me) {
//!     if (IP_is_first_superstep())
//!         me->val = 1.0 / IP_get_vertices_count();
//!     else {
//!         sum = Σ messages;
//!         me->val = 0.15 / IP_get_vertices_count() + 0.85 * sum;
//!     }
//!     if (IP_get_superstep() < ROUND)
//!         IP_broadcast(me, me->val / me->out_neighbours_count);
//!     else
//!         IP_vote_to_halt(me);
//! }
//! ```
//!
//! Every vertex stays active for all `rounds` supersteps, so the
//! selection bypass is *not applicable* (Section 4's note) — the harness
//! only runs PageRank on the three non-bypass versions, as Figure 7 does.

use ipregel::{Context, VertexProgram};
use ipregel_graph::VertexId;

/// Fixed-iteration PageRank (the paper runs `ROUND = 30`).
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Number of rank-update supersteps (`ROUND`).
    pub rounds: usize,
    /// Damping factor (0.85 in the paper's Figure 6).
    pub damping: f64,
}

impl PageRank {
    /// The paper's configuration: 30 iterations, damping 0.85.
    pub fn paper() -> Self {
        PageRank { rounds: 30, damping: 0.85 }
    }

    /// PageRank keeps every vertex active; bypass would be unsound.
    pub const BYPASS_COMPATIBLE: bool = false;
    /// Broadcast-only communication: pull-combiner compatible.
    pub const BROADCAST_ONLY: bool = true;
}

impl VertexProgram for PageRank {
    type Value = f64;
    type Message = f64;

    fn initial_value(&self, _id: VertexId) -> f64 {
        0.0
    }

    #[inline]
    fn compute<C: Context<Message = f64>>(&self, value: &mut f64, ctx: &mut C) {
        let n = ctx.num_vertices() as f64;
        if ctx.is_first_superstep() {
            *value = 1.0 / n;
        } else {
            let mut sum = 0.0;
            while let Some(m) = ctx.next_message() {
                sum += m;
            }
            *value = (1.0 - self.damping) / n + self.damping * sum;
        }
        if ctx.superstep() < self.rounds {
            let deg = ctx.out_degree();
            if deg > 0 {
                ctx.broadcast(*value / f64::from(deg));
            }
        } else {
            ctx.vote_to_halt();
        }
    }

    fn combine(old: &mut f64, new: f64) {
        *old += new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel::{run, CombinerKind, RunConfig, Version};
    use ipregel_graph::{GraphBuilder, NeighborMode};

    fn cycle(n: u32) -> ipregel_graph::Graph {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.build().unwrap()
    }

    #[test]
    fn uniform_on_a_cycle() {
        // On a directed cycle every vertex has rank 1/n at every iteration.
        let g = cycle(8);
        let pr = PageRank { rounds: 10, damping: 0.85 };
        let out = run(&g, &pr, Version { combiner: CombinerKind::Spinlock, selection_bypass: false }, &RunConfig::default());
        for (_, &rank) in out.iter() {
            assert!((rank - 0.125).abs() < 1e-12, "rank {rank}");
        }
        // ROUND supersteps of updates + 1 halting superstep.
        assert_eq!(out.stats.num_supersteps(), 11);
    }

    #[test]
    fn ranks_sum_to_at_most_one_with_sinks() {
        // Sinks leak rank under Figure 6 semantics (no redistribution):
        // total must stay ≤ 1 and > 0.
        let mut b = GraphBuilder::new(NeighborMode::Both);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3); // 3 is a sink
        let g = b.build().unwrap();
        let out = run(
            &g,
            &PageRank { rounds: 15, damping: 0.85 },
            Version { combiner: CombinerKind::Mutex, selection_bypass: false },
            &RunConfig::default(),
        );
        let total: f64 = out.iter().map(|(_, &v)| v).sum();
        assert!(total > 0.0 && total <= 1.0 + 1e-12, "total {total}");
    }

    #[test]
    fn star_centre_receives_most_rank() {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for i in 1..10u32 {
            b.add_edge(i, 0);
            b.add_edge(0, i);
        }
        let g = b.build().unwrap();
        let out = run(
            &g,
            &PageRank::paper(),
            Version { combiner: CombinerKind::Broadcast, selection_bypass: false },
            &RunConfig::default(),
        );
        let centre = *out.value_of(0);
        for id in 1..10 {
            assert!(centre > *out.value_of(id));
        }
    }
}
