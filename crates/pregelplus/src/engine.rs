//! The executable Pregel+ engine: hash-partitioned workers, sender-side
//! combining, message exchange, modelled wall-clock and memory.
//!
//! Semantics are plain Pregel (so results are directly comparable with
//! iPregel's engines), but the *architecture* follows Pregel+: each
//! vertex belongs to one worker (`id mod workers`), every message goes
//! through the sender's per-destination-worker buffer where it is
//! combined, buffers are exchanged at the superstep barrier, and the
//! receiver combines into per-vertex inboxes. The engine runs workers on
//! pool threads for speed, but the *simulated* time comes from the
//! [`CostModel`] applied to the per-worker trace.

use std::collections::HashMap;
use std::time::Instant;

use ipregel::program::{Context, MasterDecision, VertexProgram};
use ipregel::sync_cell::SharedSlice;
use ipregel_graph::csr::Weight;
use ipregel_graph::partition::Partitioning;
use ipregel_graph::{AddressMap, Graph, VertexId, VertexIndex};
use ipregel_par::prelude::*;

use crate::cluster::ClusterSpec;
use crate::cost::{CostModel, WorkerTrace};
use crate::memory::MemoryModel;

/// Per-superstep record of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSuperstep {
    /// Superstep number.
    pub superstep: usize,
    /// Vertices executed.
    pub active: u64,
    /// Messages emitted by vertices (before sender-side combining).
    pub messages_sent: u64,
    /// Messages that crossed the network (after combining).
    pub remote_messages: u64,
    /// Wire bytes (wrapped payloads).
    pub remote_bytes: u64,
    /// Simulated duration of this superstep.
    pub seconds: f64,
}

ipregel::impl_to_json!(SimSuperstep { superstep, active, messages_sent, remote_messages, remote_bytes, seconds });

/// Result of a simulated Pregel+ run.
#[derive(Debug, Clone)]
pub struct SimOutput<V> {
    /// Final vertex values, slot-indexed like `ipregel`'s `RunOutput`.
    pub values: Vec<V>,
    map: AddressMap,
    /// Per-superstep trace.
    pub supersteps: Vec<SimSuperstep>,
    /// Total simulated wall-clock (the Figure 8 y-axis).
    pub simulated_seconds: f64,
    /// Real wall-clock the simulation itself took (diagnostics only).
    pub host_seconds: f64,
    /// Largest per-node memory requirement across the run.
    pub peak_node_bytes: u64,
    /// Whether every node fit in its RAM. A real Pregel+ run would have
    /// crashed when false — Figure 8's "memory failure" region.
    pub memory_ok: bool,
}

impl<V> SimOutput<V> {
    /// Final value of the vertex with external identifier `id`.
    pub fn value_of(&self, id: VertexId) -> &V {
        &self.values[self.map.index_of(id) as usize]
    }

    /// Total messages emitted across the run.
    pub fn total_messages(&self) -> u64 {
        self.supersteps.iter().map(|s| s.messages_sent).sum()
    }
}

/// How vertices are assigned to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Pregel+'s default: `id mod workers`.
    #[default]
    Hash,
    /// Contiguous ranges (Pregel+'s alternative partitioner; better
    /// locality, worse balance on skewed id orders).
    Range,
}

/// Simulate `program` over `graph` on `cluster` with hash partitioning
/// (Pregel+'s default).
///
/// `max_supersteps` caps divergent programs, as in the iPregel engines.
pub fn simulate<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    cluster: &ClusterSpec,
    cost: &CostModel,
    memory: &MemoryModel,
    max_supersteps: Option<usize>,
) -> SimOutput<P::Value> {
    simulate_partitioned(graph, program, cluster, cost, memory, max_supersteps, PartitionStrategy::Hash)
}

/// [`simulate`] with an explicit [`PartitionStrategy`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_partitioned<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    cluster: &ClusterSpec,
    cost: &CostModel,
    memory: &MemoryModel,
    max_supersteps: Option<usize>,
    strategy: PartitionStrategy,
) -> SimOutput<P::Value> {
    simulate_full(graph, program, cluster, cost, memory, max_supersteps, strategy, true)
}

/// The full-control entry point: partitioning strategy plus the
/// sender-side-combining toggle. Pregel+'s combiners are one of its
/// headline message-reduction techniques; turning them off shows what
/// they save on the wire (every raw message then travels individually,
/// receiver-side combining still applies — mailboxes stay single-slot).
#[allow(clippy::too_many_arguments)]
pub fn simulate_full<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    cluster: &ClusterSpec,
    cost: &CostModel,
    memory: &MemoryModel,
    max_supersteps: Option<usize>,
    strategy: PartitionStrategy,
    sender_combining: bool,
) -> SimOutput<P::Value> {
    let host_start = Instant::now();
    let map = *graph.address_map();
    let slots = graph.num_slots();
    let workers = cluster.num_workers();
    let part = match strategy {
        PartitionStrategy::Hash => Partitioning::hash(graph, workers),
        PartitionStrategy::Range => Partitioning::range(graph, workers),
    };
    let payload = std::mem::size_of::<P::Message>();
    let value_bytes = std::mem::size_of::<P::Value>();

    let mut values: Vec<P::Value> =
        (0..slots as u32).map(|s| program.initial_value(map.id_of(s))).collect();
    let mut halted: Vec<bool> = vec![false; slots];
    let mut inbox: Vec<Option<P::Message>> = vec![None; slots];

    // Static per-node graph share, for the memory model.
    let mut node_vertices = vec![0u64; cluster.nodes];
    let mut node_edges = vec![0u64; cluster.nodes];
    for w in 0..workers {
        let node = cluster.node_of(w);
        node_vertices[node] += part.members(w).len() as u64;
        node_edges[node] +=
            part.members(w).iter().map(|&v| u64::from(graph.out_degree(v))).sum::<u64>();
    }

    let mut supersteps = Vec::new();
    let mut simulated_seconds = 0.0f64;
    let mut peak_node_bytes = 0u64;
    let mut superstep = 0usize;

    loop {
        // ---- compute phase: every worker scans its partition ----
        let worker_results: Vec<WorkerOutput<P::Message>> = {
            let values_view = SharedSlice::new(&mut values);
            let halted_view = SharedSlice::new(&mut halted);
            let inbox_view = SharedSlice::new(&mut inbox);
            (0..workers)
                .into_par_iter()
                .map(|w| {
                    let mut out = WorkerOutput::<P::Message>::new(workers, sender_combining);
                    out.scanned = part.members(w).len() as u64;
                    for &v in part.members(w) {
                        // SAFETY: partitions are disjoint; only worker w
                        // touches slot v this phase.
                        let msg = unsafe { inbox_view.get_mut(v as usize) }.take();
                        // SAFETY: partitions are disjoint, as above.
                        let is_halted = unsafe { *halted_view.get(v as usize) };
                        if is_halted && msg.is_none() {
                            continue; // unfruitful scan check
                        }
                        let mut ctx = SimCtx::<P> {
                            superstep,
                            graph,
                            part: &part,
                            v,
                            inbox: msg,
                            out: &mut out,
                            halt_vote: false,
                        };
                        // SAFETY: partitions are disjoint, as above.
                        let mut value = unsafe { values_view.get_mut(v as usize) };
                        program.compute(&mut value, &mut ctx);
                        let halt = ctx.halt_vote;
                        // SAFETY: partitions are disjoint, as above.
                        unsafe { *halted_view.get_mut(v as usize) = halt };
                        out.executed += 1;
                    }
                    out
                })
                .collect()
        };

        // ---- exchange phase: deliver per-destination buffers ----
        let mut traces: Vec<WorkerTrace> = worker_results
            .iter()
            .map(|o| WorkerTrace {
                scanned: o.scanned,
                executed: o.executed,
                sent: o.sent_raw,
                ..WorkerTrace::default()
            })
            .collect();

        let mut remote_messages = 0u64;
        let mut remote_bytes = 0u64;
        let mut node_inflight = vec![0u64; cluster.nodes];
        for (src, out) in worker_results.iter().enumerate() {
            for (dst, buf) in out.outboxes.iter().enumerate() {
                if buf.is_empty() {
                    continue;
                }
                let count = buf.len() as u64;
                traces[dst].received += count;
                node_inflight[cluster.node_of(src)] += count;
                node_inflight[cluster.node_of(dst)] += count;
                if !cluster.is_local(src, dst) {
                    let bytes = count * cost.wire_bytes(payload);
                    traces[src].remote_bytes_out += bytes;
                    traces[dst].remote_bytes_in += bytes;
                    remote_messages += count;
                    remote_bytes += bytes;
                }
            }
        }
        // Receiver-side combine into the global inbox. Destinations own
        // disjoint slots, so this parallelises per destination worker.
        let delivered: u64 = {
            let inbox_view = SharedSlice::new(&mut inbox);
            (0..workers)
                .into_par_iter()
                .map(|dst| {
                    let mut n = 0u64;
                    for out in &worker_results {
                        out.outboxes[dst].for_each(|slot, m| {
                            // SAFETY: slot belongs to worker dst's
                            // partition; workers are disjoint.
                            let mut cell = unsafe { inbox_view.get_mut(slot as usize) };
                            match cell.as_mut() {
                                Some(old) => P::combine(old, m),
                                None => {
                                    *cell = Some(m);
                                    n += 1;
                                }
                            }
                        });
                    }
                    n
                })
                .sum()
        };

        // ---- accounting ----
        let seconds = cost.superstep_time(cluster, &traces);
        simulated_seconds += seconds;
        let executed: u64 = traces.iter().map(|t| t.executed).sum();
        let sent: u64 = traces.iter().map(|t| t.sent).sum();
        supersteps.push(SimSuperstep {
            superstep,
            active: executed,
            messages_sent: sent,
            remote_messages,
            remote_bytes,
            seconds,
        });
        for node in 0..cluster.nodes {
            let bytes = memory.node_bytes(
                node_vertices[node],
                node_edges[node],
                node_inflight[node],
                cluster.workers_per_node as u64,
                value_bytes,
            );
            peak_node_bytes = peak_node_bytes.max(bytes);
        }

        if program.master_compute(superstep, &values) == MasterDecision::Halt {
            break;
        }
        superstep += 1;
        if let Some(cap) = max_supersteps {
            if superstep >= cap {
                break;
            }
        }
        let any_not_halted = halted
            .iter()
            .enumerate()
            .any(|(s, &h)| !h && map.is_live_slot(s as u32));
        if delivered == 0 && !any_not_halted {
            break;
        }
    }

    SimOutput {
        values,
        map,
        supersteps,
        simulated_seconds,
        host_seconds: host_start.elapsed().as_secs_f64(),
        peak_node_bytes,
        memory_ok: peak_node_bytes <= cluster.node_ram_bytes,
    }
}

/// A per-destination-worker send buffer: combined (slot → message) or
/// raw (every message travels individually).
enum OutBuf<M> {
    Combined(HashMap<VertexIndex, M>),
    Raw(Vec<(VertexIndex, M)>),
}

impl<M: Copy> OutBuf<M> {
    fn len(&self) -> usize {
        match self {
            OutBuf::Combined(m) => m.len(),
            OutBuf::Raw(v) => v.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&mut self, slot: VertexIndex, msg: M, combine: fn(&mut M, M)) {
        match self {
            OutBuf::Combined(map) => {
                map.entry(slot).and_modify(|old| combine(old, msg)).or_insert(msg);
            }
            OutBuf::Raw(v) => v.push((slot, msg)),
        }
    }

    fn for_each(&self, mut f: impl FnMut(VertexIndex, M)) {
        match self {
            OutBuf::Combined(map) => {
                for (&slot, &m) in map {
                    f(slot, m);
                }
            }
            OutBuf::Raw(v) => {
                for &(slot, m) in v {
                    f(slot, m);
                }
            }
        }
    }
}

/// What one worker produced in one superstep.
struct WorkerOutput<M> {
    scanned: u64,
    executed: u64,
    /// Messages before sender-side combining (CPU cost at the sender).
    sent_raw: u64,
    /// Per-destination-worker buffers.
    outboxes: Vec<OutBuf<M>>,
}

impl<M: Copy> WorkerOutput<M> {
    fn new(workers: usize, combining: bool) -> Self {
        WorkerOutput {
            scanned: 0,
            executed: 0,
            sent_raw: 0,
            outboxes: (0..workers)
                .map(|_| {
                    if combining {
                        OutBuf::Combined(HashMap::new())
                    } else {
                        OutBuf::Raw(Vec::new())
                    }
                })
                .collect(),
        }
    }
}

/// Context handed to `compute` by the simulator.
struct SimCtx<'a, P: VertexProgram> {
    superstep: usize,
    graph: &'a Graph,
    part: &'a Partitioning,
    v: VertexIndex,
    inbox: Option<P::Message>,
    out: &'a mut WorkerOutput<P::Message>,
    halt_vote: bool,
}

impl<P: VertexProgram> SimCtx<'_, P> {
    #[inline]
    fn buffer_to_slot(&mut self, slot: VertexIndex, msg: P::Message) {
        let dst = self.part.owner_of(slot) as usize;
        // With combining on, messages for the same recipient merge inside
        // the per-destination buffer before sending.
        self.out.outboxes[dst].push(slot, msg, P::combine);
        self.out.sent_raw += 1;
    }
}

impl<P: VertexProgram> Context for SimCtx<'_, P> {
    type Message = P::Message;

    fn superstep(&self) -> usize {
        self.superstep
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn id(&self) -> VertexId {
        self.graph.id_of(self.v)
    }

    fn out_degree(&self) -> u32 {
        self.graph.out_degree(self.v)
    }

    fn next_message(&mut self) -> Option<P::Message> {
        self.inbox.take()
    }

    fn send(&mut self, to: VertexId, msg: P::Message) {
        assert!(self.graph.address_map().contains(to), "send to unknown vertex id {to}");
        self.buffer_to_slot(self.graph.index_of(to), msg);
    }

    fn broadcast(&mut self, msg: P::Message) {
        let neighbors = self.graph.out_neighbors(self.v);
        for i in 0..neighbors.len() {
            let n = self.graph.out_neighbors(self.v)[i];
            self.buffer_to_slot(n, msg);
        }
    }

    fn vote_to_halt(&mut self) {
        self.halt_vote = true;
    }

    fn send_along_out_edges(&mut self, mut f: impl FnMut(Weight) -> P::Message) {
        let graph = self.graph;
        let weights = graph.out_weights(self.v);
        for (i, &n) in graph.out_neighbors(self.v).iter().enumerate() {
            self.buffer_to_slot(n, f(weights.map_or(1, |ws| ws[i])));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel_apps::{Hashmin, PageRank, Sssp};
    use ipregel_graph::{GraphBuilder, NeighborMode};

    fn ring(n: u32) -> Graph {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
            b.add_edge((i + 1) % n, i);
        }
        b.build().unwrap()
    }

    fn sim<P: VertexProgram>(g: &Graph, p: &P, nodes: usize) -> SimOutput<P::Value> {
        simulate(
            g,
            p,
            &ClusterSpec::m4_large(nodes),
            &CostModel::default(),
            &MemoryModel::pregel_plus(std::mem::size_of::<P::Message>()),
            Some(500),
        )
    }

    #[test]
    fn sssp_results_match_expectation() {
        let g = ring(10);
        let out = sim(&g, &Sssp { source: 2 }, 4);
        assert_eq!(*out.value_of(2), 0);
        assert_eq!(*out.value_of(3), 1);
        assert_eq!(*out.value_of(7), 5);
        assert!(out.memory_ok);
        assert!(out.simulated_seconds > 0.0);
    }

    #[test]
    fn hashmin_labels_components() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for (u, v) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let out = sim(&g, &Hashmin, 2);
        assert_eq!(*out.value_of(1), 0);
        assert_eq!(*out.value_of(3), 2);
    }

    #[test]
    fn pagerank_is_uniform_on_ring() {
        let g = ring(8);
        let out = sim(&g, &PageRank { rounds: 10, damping: 0.85 }, 3);
        for id in 0..8 {
            assert!((*out.value_of(id) - 0.125).abs() < 1e-12);
        }
        // ROUND updates + halting superstep.
        assert_eq!(out.supersteps.len(), 11);
    }

    #[test]
    fn node_count_changes_time_but_not_results() {
        let g = ring(64);
        let one = sim(&g, &Sssp { source: 0 }, 1);
        let eight = sim(&g, &Sssp { source: 0 }, 8);
        assert_eq!(one.values, eight.values);
        assert_ne!(one.simulated_seconds, eight.simulated_seconds);
    }

    #[test]
    fn single_node_has_no_remote_traffic() {
        let g = ring(32);
        let out = sim(&g, &Hashmin, 1);
        assert!(out.supersteps.iter().all(|s| s.remote_bytes == 0 && s.remote_messages == 0));
    }

    #[test]
    fn multi_node_has_remote_traffic() {
        let g = ring(32);
        let out = sim(&g, &Hashmin, 4);
        assert!(out.supersteps.iter().any(|s| s.remote_bytes > 0));
    }

    #[test]
    fn sender_side_combining_reduces_wire_messages() {
        // A 2-regular ring can't combine (distinct recipients); build a
        // funnel: many vertices all messaging vertex 0.
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for i in 1..33u32 {
            b.add_edge(i, 0);
            b.add_edge(0, i);
        }
        let g = b.build().unwrap();
        let out = sim(&g, &Hashmin, 4);
        // Superstep 0: 32 spokes message hub 0 (plus hub broadcasts).
        // Raw messages to the hub = 32, but each source worker combines
        // its bundle to ≤1 per destination worker: remote messages to the
        // hub's worker from each of the other 7 workers ≤ 7.
        let s0 = out.supersteps[0];
        assert!(s0.messages_sent >= 64);
        assert!(s0.remote_messages < s0.messages_sent);
    }

    #[test]
    fn tiny_ram_triggers_memory_failure() {
        let g = ring(256);
        let cluster = ClusterSpec { nodes: 2, workers_per_node: 2, node_ram_bytes: 1024 };
        let out = simulate(
            &g,
            &Hashmin,
            &cluster,
            &CostModel::default(),
            &MemoryModel::pregel_plus(4),
            Some(500),
        );
        assert!(!out.memory_ok);
        assert!(out.peak_node_bytes > 1024);
    }

    #[test]
    fn disabling_sender_combining_keeps_results_but_costs_messages() {
        // Funnel: 32 spokes message hub 0 — maximal combining opportunity.
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for i in 1..33u32 {
            b.add_edge(i, 0);
            b.add_edge(0, i);
        }
        let g = b.build().unwrap();
        let combined = sim(&g, &Hashmin, 4);
        let raw = simulate_full(
            &g,
            &Hashmin,
            &ClusterSpec::m4_large(4),
            &CostModel::default(),
            &MemoryModel::pregel_plus(4),
            Some(500),
            PartitionStrategy::Hash,
            false,
        );
        assert_eq!(combined.values, raw.values);
        let combined_remote: u64 = combined.supersteps.iter().map(|s| s.remote_messages).sum();
        let raw_remote: u64 = raw.supersteps.iter().map(|s| s.remote_messages).sum();
        assert!(
            raw_remote > combined_remote,
            "raw {raw_remote} vs combined {combined_remote}"
        );
        // And the simulated network time reflects it.
        let tc: f64 = combined.simulated_seconds;
        let tr: f64 = raw.simulated_seconds;
        assert!(tr >= tc, "raw {tr} vs combined {tc}");
    }

    #[test]
    fn range_partitioning_agrees_with_hash() {
        let g = ring(40);
        let hash = sim(&g, &Hashmin, 3);
        let range = simulate_partitioned(
            &g,
            &Hashmin,
            &ClusterSpec::m4_large(3),
            &CostModel::default(),
            &MemoryModel::pregel_plus(4),
            Some(500),
            PartitionStrategy::Range,
        );
        assert_eq!(hash.values, range.values);
        // Timing generally differs (different local/remote splits).
        assert!(range.simulated_seconds > 0.0);
    }

    #[test]
    fn desolate_graphs_simulate_too() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(1, 2);
        b.add_edge(2, 1);
        let g = b.build().unwrap();
        let out = sim(&g, &Hashmin, 2);
        assert_eq!(*out.value_of(1), 1);
        assert_eq!(*out.value_of(2), 1);
    }
}
