//! Superstep scheduling: cutting an active list into parallel chunks.
//!
//! The paper's conclusion lists load balancing as the open problem, and
//! its follow-up (Capelli & Brown, arXiv:2010.01542) shows why: splitting
//! by vertex count strands a hub vertex's millions of edges in one task.
//! This module is the engine-side policy switch; the actual cut machinery
//! — binary searches over the CSR offsets array — lives in
//! [`ipregel_graph::schedule`].
//!
//! The flow per superstep: the engine calls [`plan`] with the active list
//! and the direction-relevant CSR (out-edges for push, in-edges for pull —
//! weight must track where the superstep's work actually is), executes one
//! pool task per returned chunk — or, when the planner judged the frontier
//! too light to be worth a fork ([`MIN_FORK_WEIGHT`]) and returned it
//! whole, that one chunk on the calling thread — and records per-chunk
//! edge weights and durations into [`crate::metrics::LoadStats`] so
//! imbalance is observable in `RunStats` rather than inferred from wall
//! clock.

use std::str::FromStr;

use ipregel_graph::schedule::{count_balanced, edge_balanced_list, edge_balanced_range, Chunk};
use ipregel_graph::VertexIndex;

/// How each superstep's active list is cut into parallel chunks.
///
/// Scheduling moves vertex executions between threads, and with them the
/// order in which a push mailbox combines what arrives. Pull gathers in
/// CSR order and the integer and min/max combiners are order-free, so
/// those results are bit-identical under every policy; push `f64` sums
/// regroup with chunk placement at two threads or more. The suites pin
/// the latter to a relative 1e-9 of the sequential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Schedule {
    /// Equal *vertex count* per chunk — the paper's implicit policy and
    /// the default. Optimal when degrees are near-uniform; collapses on
    /// power-law graphs where one chunk inherits a hub.
    #[default]
    VertexBalanced,
    /// Equal *edge weight* per chunk (degree + 1 per vertex), cut by
    /// binary search over the CSR offsets. Bounded imbalance on skewed
    /// graphs at O(chunks · log |V|) planning cost per superstep.
    EdgeBalanced,
    /// Pick per run: edge-balanced when the graph's maximum degree is
    /// heavy enough to overflow a vertex-balanced chunk (the one O(|V|)
    /// skew probe happens once, at engine start), vertex-balanced
    /// otherwise.
    Adaptive,
}

impl Schedule {
    /// Stable lowercase label (CLI value, bench record field).
    pub fn label(&self) -> &'static str {
        match self {
            Schedule::VertexBalanced => "vertex",
            Schedule::EdgeBalanced => "edge",
            Schedule::Adaptive => "adaptive",
        }
    }

    /// Every policy, for harness sweeps.
    pub fn all() -> [Schedule; 3] {
        [Schedule::VertexBalanced, Schedule::EdgeBalanced, Schedule::Adaptive]
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "vertex" | "vertex-balanced" => Ok(Schedule::VertexBalanced),
            "edge" | "edge-balanced" => Ok(Schedule::EdgeBalanced),
            "adaptive" => Ok(Schedule::Adaptive),
            other => {
                Err(format!("unknown schedule '{other}' (expected vertex, edge, or adaptive)"))
            }
        }
    }
}

/// Chunks to aim for per pool thread. More than 1 absorbs residual
/// imbalance — an idle worker takes the next chunk (a chunk's true cost
/// is its edges *visited*, which the planner can only approximate by
/// degree); too many wastes planning and accounting work.
pub(crate) const CHUNKS_PER_THREAD: usize = 4;

/// Extra over-partitioning multiplier for plans that expect residual
/// imbalance — currently plans the adaptive policy resolved to
/// edge-balanced on a skew-probed graph. Around an unsplittable hub
/// chunk, finer chunks mean an idle worker takes the next one sooner;
/// the product `CHUNKS_PER_THREAD ×
/// OVERPARTITION_FACTOR` must stay ≤ the `ipregel-par` iterator
/// facade's own chunks-per-thread cap (8) so one scope task keeps
/// mapping to one plan chunk.
pub(crate) const OVERPARTITION_FACTOR: usize = 2;

// iter.rs plans `threads × 8` scope tasks; a plan finer than that would
// coalesce chunks and break the 1 task : 1 chunk mapping.
const _: () = assert!(CHUNKS_PER_THREAD * OVERPARTITION_FACTOR <= 8);

/// Planned weight (`degree + 1` per active vertex) below which a
/// superstep is one chunk, run by the thread that planned it. A fork
/// costs a fixed ~25 µs on the reference 2-core VM (box the jobs,
/// futex-wake the parked worker, join), which a light frontier cannot
/// earn back by halving its work. Set by an offline sweep — SSSP with
/// the bypass over K disjoint paths, i.e. a frontier of constant weight
/// for 100 supersteps, on 2 threads; µs per superstep run as one chunk /
/// cut into 8, with the frontier scattered over the id range and
/// contiguous in it:
///
/// | weight  | scattered    | contiguous   |
/// |--------:|-------------:|-------------:|
/// |   1 020 |     9 /   36 |    11 /   34 |
/// |   4 092 |    35 /   58 |    45 /   68 |
/// |   8 190 |    76 /  107 |    91 /   91 |
/// |  16 380 |   182 /  193 |   186 /  161 |
/// |  32 766 |   463 /  401 |   395 /  312 |
/// |  65 532 |  1031 /  910 |   819 /  634 |
/// | 131 070 |  2012 / 1828 |  1706 / 1293 |
///
/// One chunk wins up to 8 k, the cut wins from 32 k, and the crossover
/// sits either side of 16 k. (The road analog never plans above 4 k
/// after superstep 0, so it cannot tell 4 096 from 65 536: 80–82 ms.)
pub(crate) const MIN_FORK_WEIGHT: u64 = 16_384;

/// How a [`Resolved`] schedule cuts the active list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cut {
    VertexBalanced,
    EdgeBalanced,
}

/// [`Schedule`] with [`Schedule::Adaptive`] collapsed to a concrete cut
/// plus the over-partitioning the resolution chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resolved {
    pub cut: Cut,
    /// Multiplier on [`max_chunks`] when planning (1 = no
    /// over-partitioning).
    pub overpartition: usize,
}

impl Resolved {
    pub(crate) const VERTEX_BALANCED: Resolved =
        Resolved { cut: Cut::VertexBalanced, overpartition: 1 };
    pub(crate) const EDGE_BALANCED: Resolved =
        Resolved { cut: Cut::EdgeBalanced, overpartition: 1 };
}

/// Chunks to cut for the current thread pool. Engines call this inside
/// `in_pool`, so `current_num_threads` reflects `RunConfig::threads`.
pub(crate) fn max_chunks() -> usize {
    ipregel_par::current_num_threads().max(1) * CHUNKS_PER_THREAD
}

/// Collapse `schedule` against the offsets prefix of the direction the
/// engine walks (identical for plain and compact CSR, so any
/// representation resolves through here), once per run.
///
/// The adaptive probe: a vertex-balanced chunk ideally carries
/// `total_weight / max_chunks`; if the heaviest single vertex exceeds
/// twice that, a chunk containing it is guaranteed ≥ 2× ideal — exactly
/// the collapse edge-balancing prevents — so switch. The probe scans the
/// offsets once, O(|V|), amortised over the whole run.
pub(crate) fn resolve(schedule: Schedule, offsets: &[u64], max_chunks: usize) -> Resolved {
    match schedule {
        Schedule::VertexBalanced => Resolved::VERTEX_BALANCED,
        Schedule::EdgeBalanced => Resolved::EDGE_BALANCED,
        Schedule::Adaptive => {
            let max_weight = offsets.windows(2).map(|w| w[1] - w[0] + 1).max().unwrap_or(1);
            let slots = offsets.len().saturating_sub(1) as u64;
            let total = offsets.last().copied().unwrap_or(0) + slots;
            let ideal = (total / max_chunks.max(1) as u64).max(1);
            if max_weight > 2 * ideal {
                // The probe found real skew, which also means residual
                // imbalance after the cut (an unsplittable hub chunk):
                // over-partition so an idle worker takes the next, finer
                // chunk.
                Resolved { cut: Cut::EdgeBalanced, overpartition: OVERPARTITION_FACTOR }
            } else {
                Resolved::VERTEX_BALANCED
            }
        }
    }
}

/// One superstep's chunk plan: contiguous runs of positions in the active
/// list, plus each chunk's planned weight (for
/// [`crate::metrics::LoadStats`]).
#[derive(Debug)]
pub(crate) struct Plan {
    pub chunks: Vec<Chunk>,
    /// Planned weight per chunk in the cut's own unit — `degree + 1`
    /// per vertex, the same weight [`ipregel_graph::schedule`] balances
    /// — so recorded imbalance measures the planner against its own
    /// objective. (Before the work-stealing pool landed this recorded
    /// raw edge counts, which over-reported hub imbalance: an
    /// unsplittable hub chunk was compared against a mean that ignored
    /// per-vertex costs.)
    pub chunk_edges: Vec<u64>,
}

/// Cut `active` (ascending, duplicate-free slot indices — every selection
/// path produces exactly that) into chunks under `resolved`, weighing
/// vertices by their degree in `offsets` (the walked direction's
/// edge-count prefix, shared by both adjacency representations).
///
/// When the active list covers *all* `slots` — superstep 0 on non-desolate
/// maps, dense supersteps — it is necessarily the identity range
/// `0..slots`, and the cut needs no per-vertex pass at all: the
/// offsets array is the weight prefix, binary-searched directly.
///
/// `grain: None` leaves the planner to decide whether the superstep
/// forks at all: a frontier lighter than [`MIN_FORK_WEIGHT`] comes back
/// as one chunk, anything heavier is cut as finely as `Some(1)` would.
/// Weight, not vertex count: fifty vertices holding a hub still fork.
pub(crate) fn plan(
    resolved: Resolved,
    active: &[VertexIndex],
    slots: usize,
    offsets: &[u64],
    grain: Option<usize>,
) -> Plan {
    let full_range = active.len() == slots;
    let degree = |v: VertexIndex| offsets[v as usize + 1] - offsets[v as usize];
    if grain.is_none() && !active.is_empty() {
        let total = if full_range {
            Some(offsets[slots] + slots as u64).filter(|&w| w < MIN_FORK_WEIGHT)
        } else {
            weight_below(MIN_FORK_WEIGHT, active, degree)
        };
        if let Some(weight) = total {
            let whole = Chunk { start: 0, end: active.len() };
            return Plan { chunks: vec![whole], chunk_edges: vec![weight] };
        }
    }
    let max_chunks = max_chunks() * resolved.overpartition.max(1);
    let min_len = grain.unwrap_or(1).max(1);
    let chunks = match resolved.cut {
        Cut::VertexBalanced => count_balanced(active.len(), max_chunks, min_len),
        Cut::EdgeBalanced if full_range => edge_balanced_range(offsets, max_chunks, min_len),
        Cut::EdgeBalanced => edge_balanced_list(active, degree, max_chunks, min_len),
    };
    let chunk_edges = if full_range {
        chunks
            .iter()
            .map(|c| offsets[c.end] - offsets[c.start] + (c.end - c.start) as u64)
            .collect()
    } else {
        chunks.iter().map(|c| active[c.start..c.end].iter().map(|&v| degree(v) + 1).sum()).collect()
    };
    Plan { chunks, chunk_edges }
}

/// The planned weight of `active` if it is below `limit`, else `None`
/// — without a pass over a frontier that is plainly too big: a vertex
/// weighs at least 1, and the sum stops at the limit.
fn weight_below(
    limit: u64,
    active: &[VertexIndex],
    degree: impl Fn(VertexIndex) -> u64,
) -> Option<u64> {
    if active.len() as u64 >= limit {
        return None;
    }
    let mut weight = 0u64;
    for &v in active {
        weight += degree(v) + 1;
        if weight >= limit {
            return None;
        }
    }
    Some(weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel_graph::csr::Csr;

    fn csr_of(degrees: &[u32]) -> Csr {
        let mut edges = Vec::new();
        let n = degrees.len() as u32;
        for (v, &d) in degrees.iter().enumerate() {
            for i in 0..d {
                edges.push((v as u32, i % n));
            }
        }
        Csr::from_edges(degrees.len(), &edges, None)
    }

    #[test]
    fn schedule_labels_round_trip() {
        for s in Schedule::all() {
            assert_eq!(s.label().parse::<Schedule>().unwrap(), s);
            assert_eq!(s.to_string(), s.label());
        }
        assert_eq!("edge-balanced".parse::<Schedule>().unwrap(), Schedule::EdgeBalanced);
        assert!("chaotic".parse::<Schedule>().is_err());
    }

    #[test]
    fn default_is_vertex_balanced() {
        assert_eq!(Schedule::default(), Schedule::VertexBalanced);
    }

    #[test]
    fn adaptive_resolves_by_skew() {
        // Near-uniform: stays vertex-balanced, no over-partitioning.
        let flat = csr_of(&[3; 64]);
        assert_eq!(resolve(Schedule::Adaptive, flat.offsets(), 8), Resolved::VERTEX_BALANCED);
        // One hub dominating the ideal chunk: switches to edge-balanced
        // *and* over-partitions so idle workers absorb the residue.
        let mut degrees = [1u32; 64];
        degrees[10] = 1000;
        let skewed = csr_of(&degrees);
        assert_eq!(
            resolve(Schedule::Adaptive, skewed.offsets(), 8),
            Resolved { cut: Cut::EdgeBalanced, overpartition: OVERPARTITION_FACTOR }
        );
        // The explicit policies resolve to themselves regardless of shape.
        assert_eq!(
            resolve(Schedule::VertexBalanced, skewed.offsets(), 8),
            Resolved::VERTEX_BALANCED
        );
        assert_eq!(resolve(Schedule::EdgeBalanced, flat.offsets(), 8), Resolved::EDGE_BALANCED);
    }

    #[test]
    fn overpartitioned_plans_are_finer() {
        let mut degrees = [1u32; 512];
        degrees[40] = 4000;
        let csr = csr_of(&degrees);
        let active: Vec<u32> = (0..512).collect();
        let base = plan(Resolved::EDGE_BALANCED, &active, 512, csr.offsets(), Some(1));
        let fine = plan(
            Resolved { cut: Cut::EdgeBalanced, overpartition: OVERPARTITION_FACTOR },
            &active,
            512,
            csr.offsets(),
            Some(1),
        );
        assert!(
            fine.chunks.len() > base.chunks.len(),
            "{} vs {}",
            fine.chunks.len(),
            base.chunks.len()
        );
        let total: u64 = fine.chunk_edges.iter().sum();
        assert_eq!(total, csr.num_edges() + 512, "finer plan still covers every vertex's weight");
    }

    #[test]
    fn plan_covers_active_and_counts_edges() {
        let mut degrees = [2u32; 40];
        degrees[7] = 100;
        let csr = csr_of(&degrees);
        let active: Vec<u32> = (0..40).collect();
        for resolved in [Resolved::VERTEX_BALANCED, Resolved::EDGE_BALANCED] {
            let p = plan(resolved, &active, 40, csr.offsets(), None);
            assert_eq!(p.chunks.len(), p.chunk_edges.len());
            assert_eq!(p.chunks.first().unwrap().start, 0);
            assert_eq!(p.chunks.last().unwrap().end, 40);
            // Recorded weight = edges + one unit of per-vertex cost.
            let total: u64 = p.chunk_edges.iter().sum();
            assert_eq!(total, csr.num_edges() + 40, "{resolved:?}");
        }
    }

    #[test]
    fn sparse_plan_weighs_only_active_vertices() {
        let mut degrees = [2u32; 40];
        degrees[7] = 100;
        let csr = csr_of(&degrees);
        // Active subset excludes the hub entirely.
        let active: Vec<u32> = (0..40).filter(|&v| v != 7).step_by(2).collect();
        let p = plan(Resolved::EDGE_BALANCED, &active, 40, csr.offsets(), None);
        let total: u64 = p.chunk_edges.iter().sum();
        let expect: u64 = active.iter().map(|&v| u64::from(csr.degree(v)) + 1).sum();
        assert_eq!(total, expect);
        let covered: usize = p.chunks.iter().map(|c| c.end - c.start).sum();
        assert_eq!(covered, active.len());
    }

    #[test]
    fn default_grain_cuts_a_wide_frontier_as_fine_as_grain_one() {
        // A frontier the size the PageRank workloads run every superstep
        // (all-active, hundreds of thousands of vertices, one hub): the
        // default grain must cut it exactly as `Some(1)` does, chunk for
        // chunk, under every cut — full range and sparse list alike.
        let mut degrees = vec![9u32; 300_000];
        degrees[17] = 50_000;
        let csr = csr_of(&degrees);
        let all: Vec<u32> = (0..300_000).collect();
        let sparse: Vec<u32> = (0..300_000).step_by(3).collect();
        let fine = Resolved { cut: Cut::EdgeBalanced, overpartition: OVERPARTITION_FACTOR };
        for resolved in [Resolved::VERTEX_BALANCED, Resolved::EDGE_BALANCED, fine] {
            for active in [&all, &sparse] {
                let default = plan(resolved, active, 300_000, csr.offsets(), None);
                let finest = plan(resolved, active, 300_000, csr.offsets(), Some(1));
                assert_eq!(default.chunks, finest.chunks, "{resolved:?}, {} active", active.len());
                assert_eq!(default.chunk_edges, finest.chunk_edges, "{resolved:?}");
                assert!(default.chunks.len() > 1, "{resolved:?}: a wide frontier forks");
            }
        }
    }

    #[test]
    fn a_light_frontier_is_one_chunk_unless_the_grain_says_cut() {
        let csr = csr_of(&[2; 1000]);
        let all: Vec<u32> = (0..1000).collect();
        let sparse: Vec<u32> = (0..1000).step_by(7).collect();
        for resolved in [Resolved::VERTEX_BALANCED, Resolved::EDGE_BALANCED] {
            for active in [&all, &sparse] {
                let weight = 3 * active.len() as u64;
                assert!(weight < MIN_FORK_WEIGHT);
                let whole = plan(resolved, active, 1000, csr.offsets(), None);
                assert_eq!(whole.chunks, vec![Chunk { start: 0, end: active.len() }]);
                assert_eq!(
                    whole.chunk_edges,
                    vec![weight],
                    "the one chunk carries the plan's weight"
                );
                // An explicit grain keeps its meaning whatever the weight.
                let cut = plan(resolved, active, 1000, csr.offsets(), Some(1));
                assert!(cut.chunks.len() > 1, "{resolved:?}: grain 1 cuts as fine as it can");
                assert_eq!(cut.chunk_edges.iter().sum::<u64>(), weight);
            }
        }
        // Nothing active plans nothing, as before.
        assert!(plan(Resolved::VERTEX_BALANCED, &[], 1000, csr.offsets(), None).chunks.is_empty());
    }

    #[test]
    fn the_fork_threshold_is_on_weight_not_on_vertex_count() {
        // Fifty active vertices, one of them a hub heavier than the
        // threshold: the superstep forks (and the edge cut isolates the
        // hub), where fifty light vertices would not.
        let mut degrees = vec![1u32; 4000];
        degrees[2000] = MIN_FORK_WEIGHT as u32;
        let csr = csr_of(&degrees);
        let with_hub: Vec<u32> = (1975..2025).collect();
        let without: Vec<u32> = (0..50).collect();
        let hub = plan(Resolved::EDGE_BALANCED, &with_hub, 4000, csr.offsets(), None);
        assert!(hub.chunks.len() > 1, "{:?}", hub.chunks);
        assert_eq!(
            plan(Resolved::EDGE_BALANCED, &without, 4000, csr.offsets(), None).chunks.len(),
            1
        );
        // Exactly at the threshold forks; one unit below does not.
        let at = csr_of(&[(MIN_FORK_WEIGHT - 2) as u32, 0]);
        assert!(plan(Resolved::EDGE_BALANCED, &[0, 1], 2, at.offsets(), None).chunks.len() > 1);
        let below = csr_of(&[(MIN_FORK_WEIGHT - 3) as u32, 0]);
        assert_eq!(
            plan(Resolved::EDGE_BALANCED, &[0, 1], 2, below.offsets(), None).chunks.len(),
            1
        );
    }

    #[test]
    fn grain_bounds_chunk_count_in_plans() {
        let csr = csr_of(&[1; 100]);
        let active: Vec<u32> = (0..100).collect();
        let p = plan(Resolved::EDGE_BALANCED, &active, 100, csr.offsets(), Some(50));
        assert!(p.chunks.len() <= 2, "{:?}", p.chunks);
    }
}
