//! # femtograph-sim — the naive in-memory shared-memory baseline
//!
//! Section 7.3 of the iPregel paper: "The existing in-memory shared
//! memory vertex-centric framework is FemtoGraph. Unfortunately, we have
//! not been able to observe correct results from this framework" — so
//! the paper could never run the one comparison that isolates its own
//! contributions from the architecture's advantages.
//!
//! This crate supplies that missing baseline: a *correct* shared-memory
//! vertex-centric engine built the way a framework looks **before**
//! iPregel's three optimisations are applied:
//!
//! * **no combiners** (§6) — every message is appended to a
//!   dynamically-resizable per-vertex inbox queue under a per-vertex
//!   mutex; `compute` pops them one by one;
//! * **hashmap addressing** (§5) — every delivery routes through an
//!   id → location hashmap instead of the identifier arithmetic;
//! * **full-scan selection** (§4) — every superstep checks every
//!   vertex's active flag and inbox.
//!
//! It runs the same [`VertexProgram`]s as `ipregel` (programs written
//! against the Figure 3/4 API don't know which engine hosts them), so
//! the bench suite can measure, per optimisation target, what the paper's
//! design buys — including the §6.3 memory story: this engine's inbox
//! queues grow with message volume where iPregel's mailboxes stay one
//! message wide.

use std::time::Instant;

use ipregel::sync::lockorder::{LockClass, OrderedMutex};

use ipregel::engine::{RunConfig, RunOutput};
use ipregel::metrics::{FootprintReport, RunStats, SuperstepStats};
use ipregel::program::{Context, MasterDecision, VertexProgram};
use ipregel::sync_cell::SharedSlice;
use ipregel_graph::csr::Weight;
use ipregel_graph::{Graph, HashAddressMap, VertexId, VertexIndex};
use ipregel_par::prelude::*;

/// Inbox queues rank above every engine-internal lock: vertex programs
/// enqueue from arbitrary compute contexts, so whatever the host engine
/// already holds must rank below.
const FEMTO_INBOX: LockClass = LockClass::new(90, "femtograph.inbox");

/// Run `program` on `graph` with the naive engine.
///
/// `config.selection_bypass` is ignored (this engine *is* the
/// conventional scan the bypass replaces); `threads` and
/// `max_supersteps` are honoured.
pub fn run_naive<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    config: &RunConfig,
) -> RunOutput<P::Value> {
    assert!(graph.has_out_edges(), "the naive engine routes sends through out-adjacency");
    match config.threads {
        None => run_naive_inner(graph, program, config),
        Some(t) => ipregel_par::ThreadPoolBuilder::new()
            .num_threads(t.max(1))
            .build()
            .expect("failed to build thread pool")
            .install(|| run_naive_inner(graph, program, config)),
    }
}

fn run_naive_inner<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    config: &RunConfig,
) -> RunOutput<P::Value> {
    let map = *graph.address_map();
    let slots = graph.num_slots();

    // The §5 strawman: an explicit id → index hashmap on the hot path.
    let lookup = HashAddressMap::new(map.base(), map.num_vertices());

    let mut values: Vec<P::Value> =
        (0..slots as u32).map(|s| program.initial_value(map.id_of(s))).collect();
    let mut halted = vec![false; slots];
    // Dynamically-resizable inbox queues — exactly what §6.3 eliminates.
    let cur: Vec<OrderedMutex<Vec<P::Message>>> =
        (0..slots).map(|_| OrderedMutex::new(&FEMTO_INBOX, Vec::new())).collect();
    let next: Vec<OrderedMutex<Vec<P::Message>>> =
        (0..slots).map(|_| OrderedMutex::new(&FEMTO_INBOX, Vec::new())).collect();
    let mut bufs = (cur, next);

    let mut stats = RunStats::default();
    let mut peak_queued_messages = 0u64;
    let mut superstep = 0usize;

    loop {
        let t0 = Instant::now();
        let (cur, next) = (&bufs.0, &bufs.1);
        let (sent, active): (u64, u64) = {
            let values_view = SharedSlice::new(&mut values);
            let halted_view = SharedSlice::new(&mut halted);
            (0..slots as u32)
                .into_par_iter()
                .map(|v| {
                    if !map.is_live_slot(v) {
                        return (0, 0);
                    }
                    // Full-scan selection: check flag and inbox of every
                    // vertex, every superstep.
                    let inbox: Vec<P::Message> = std::mem::take(
                        // lock-order(femtograph.inbox)
                        &mut cur[v as usize].lock().expect("inbox poisoned"),
                    );
                    // SAFETY: each live slot visited once per superstep.
                    let is_halted = unsafe { *halted_view.get(v as usize) };
                    if is_halted && inbox.is_empty() {
                        return (0, 0);
                    }
                    let mut ctx = NaiveCtx::<P> {
                        superstep,
                        graph,
                        lookup: &lookup,
                        v,
                        inbox: inbox.into_iter(),
                        next,
                        sent: 0,
                        halt_vote: false,
                    };
                    // SAFETY: each live slot visited once per superstep.
                    let mut value = unsafe { values_view.get_mut(v as usize) };
                    program.compute(&mut value, &mut ctx);
                    let halt = ctx.halt_vote;
                    let sent = ctx.sent;
                    // SAFETY: each live slot visited once per superstep.
                    unsafe { *halted_view.get_mut(v as usize) = halt };
                    (sent, 1)
                })
                .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        };
        peak_queued_messages = peak_queued_messages.max(sent);
        stats.push(SuperstepStats {
            superstep,
            active,
            messages_sent: sent,
            duration: t0.elapsed(),
            // The naive engine's full scan is fused with compute; its
            // selection cost is part of `duration`, not separable.
            selection_duration: std::time::Duration::ZERO,
            // No chunked scheduling here — the par-iter plan splits on its own, so
            // there is no per-chunk plan to account.
            load: None,
        });
        std::mem::swap(&mut bufs.0, &mut bufs.1);

        if program.master_compute(superstep, &values) == MasterDecision::Halt {
            break;
        }
        superstep += 1;
        if let Some(cap) = config.max_supersteps {
            if superstep >= cap {
                break;
            }
        }
        let pending = sent > 0 || halted.iter().enumerate().any(|(s, &h)| !h && map.is_live_slot(s as u32));
        if !pending {
            break;
        }
    }

    // Peak queue capacity is the memory difference §6.3 is about: one
    // queued message per edge-delivery instead of one slot per vertex.
    let queue_bytes = bufs.0.iter().chain(bufs.1.iter()).map(|m| {
        // lock-order(femtograph.inbox)
        m.lock().expect("inbox poisoned").capacity() * std::mem::size_of::<P::Message>()
    }).sum::<usize>()
        + peak_queued_messages as usize * std::mem::size_of::<P::Message>();
    let footprint = FootprintReport {
        graph_bytes: graph.bytes(),
        values_bytes: slots * std::mem::size_of::<P::Value>(),
        mailbox_bytes: queue_bytes
            + 2 * slots * std::mem::size_of::<Vec<P::Message>>(),
        // Report the *underlying* mutex cost (the §6 comparison); the
        // lock-order detector's bookkeeping is diagnostic overhead, not
        // part of the engine's memory story.
        lock_bytes: 2 * slots * std::mem::size_of::<ipregel::sync::Mutex<()>>(),
        flags_bytes: slots + lookup.approx_bytes(),
        worklist_bytes: 0,
    };

    RunOutput::new(values, map, stats, footprint)
}

struct NaiveCtx<'a, P: VertexProgram> {
    superstep: usize,
    graph: &'a Graph,
    lookup: &'a HashAddressMap,
    v: VertexIndex,
    inbox: std::vec::IntoIter<P::Message>,
    next: &'a [OrderedMutex<Vec<P::Message>>],
    sent: u64,
    halt_vote: bool,
}

impl<P: VertexProgram> NaiveCtx<'_, P> {
    #[inline]
    fn enqueue(&mut self, slot: VertexIndex, msg: P::Message) {
        // lock-order(femtograph.inbox)
        self.next[slot as usize].lock().expect("inbox poisoned").push(msg);
        self.sent += 1;
    }
}

impl<P: VertexProgram> Context for NaiveCtx<'_, P> {
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
        self.inbox.next()
    }

    fn send(&mut self, to: VertexId, msg: P::Message) {
        // The hashmap layer, on every single delivery.
        let slot = self
            .lookup
            .index_of(to)
            .unwrap_or_else(|| panic!("send to unknown vertex id {to}"));
        // HashAddressMap indexes live vertices 0..n in id order; convert
        // to a slot via the real map for desolate layouts.
        let slot = self.graph.index_of(self.graph.address_map().base() + slot);
        self.enqueue(slot, msg);
    }

    fn broadcast(&mut self, msg: P::Message) {
        // Even broadcasts route each copy through the hashmap, as a
        // framework storing ids (not slots) in adjacency would.
        let neighbors: &[VertexIndex] = self.graph.out_neighbors(self.v);
        for &n in neighbors {
            let id = self.graph.id_of(n);
            let _ = self.lookup.index_of(id).expect("neighbor in lookup");
            self.enqueue(n, msg);
        }
    }

    fn vote_to_halt(&mut self) {
        self.halt_vote = true;
    }

    fn send_along_out_edges(&mut self, mut f: impl FnMut(Weight) -> P::Message) {
        let graph = self.graph;
        let weights = graph.out_weights(self.v);
        for (i, &n) in graph.out_neighbors(self.v).iter().enumerate() {
            self.enqueue(n, f(weights.map_or(1, |ws| ws[i])));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel::{run, CombinerKind, RunConfig, Version};
    use ipregel_apps::{Hashmin, PageRank, Sssp};
    use ipregel_graph::{GraphBuilder, NeighborMode};

    fn graph(edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn naive_sssp_matches_ipregel() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]);
        let naive = run_naive(&g, &Sssp { source: 0 }, &RunConfig::default());
        let fast = run(
            &g,
            &Sssp { source: 0 },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
            &RunConfig::default(),
        );
        assert_eq!(naive.values, fast.values);
    }

    #[test]
    fn naive_hashmin_on_one_based_graph() {
        let g = graph(&[(1, 2), (2, 1), (3, 4), (4, 3)]);
        let naive = run_naive(&g, &Hashmin, &RunConfig::default());
        assert_eq!(*naive.value_of(2), 1);
        assert_eq!(*naive.value_of(4), 3);
    }

    #[test]
    fn multiple_messages_queue_up_without_combining() {
        // Two predecessors message one vertex: the naive inbox holds BOTH
        // (no combiner), and PageRank still sums them correctly.
        let g = graph(&[(0, 2), (1, 2), (2, 0), (2, 1)]);
        let naive = run_naive(&g, &PageRank { rounds: 6, damping: 0.85 }, &RunConfig::default());
        let fast = run(
            &g,
            &PageRank { rounds: 6, damping: 0.85 },
            Version { combiner: CombinerKind::Mutex, selection_bypass: false },
            &RunConfig::default(),
        );
        for slot in g.address_map().live_slots() {
            assert!((naive.values[slot as usize] - fast.values[slot as usize]).abs() < 1e-12);
        }
    }

    #[test]
    fn inbox_queues_cost_more_than_single_message_mailboxes() {
        if ipregel::sync::lockorder::armed() {
            // The lock-order detector's class pointers inflate the
            // combiner mailboxes; the §6.3 comparison is only
            // meaningful against the disarmed production layout.
            return;
        }
        // The §6.3 claim, measured: on a broadcast-heavy run the naive
        // engine's message memory exceeds iPregel's one-slot mailboxes.
        let n = 200u32;
        let edges: Vec<(u32, u32)> =
            (0..n).flat_map(|i| (0..8).map(move |k| (i, (i + k + 1) % n))).collect();
        let g = graph(&edges);
        let naive = run_naive(&g, &PageRank { rounds: 3, damping: 0.85 }, &RunConfig::default());
        let fast = run(
            &g,
            &PageRank { rounds: 3, damping: 0.85 },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &RunConfig::default(),
        );
        assert!(
            naive.footprint.mailbox_bytes > 2 * fast.footprint.mailbox_bytes,
            "naive {} vs combiner {}",
            naive.footprint.mailbox_bytes,
            fast.footprint.mailbox_bytes
        );
    }

    #[test]
    fn threads_do_not_change_results() {
        let g = graph(&[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let a = run_naive(&g, &Hashmin, &RunConfig { threads: Some(1), ..RunConfig::default() });
        let b = run_naive(&g, &Hashmin, &RunConfig { threads: Some(4), ..RunConfig::default() });
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn superstep_cap_is_honoured() {
        let g = graph(&[(0, 1), (1, 0)]);
        let out = run_naive(
            &g,
            &PageRank { rounds: 1000, damping: 0.85 },
            &RunConfig { max_supersteps: Some(4), ..RunConfig::default() },
        );
        assert_eq!(out.stats.num_supersteps(), 4);
    }
}
