//! Pull-combining ("broadcast") delivery (Section 6.2).
//!
//! A mirrored design for applications whose only communication is
//! neighbour broadcast: a sender buffers its single broadcast value in an
//! *outbox*; at the next superstep each vertex iterates its in-neighbours,
//! fetches any buffered broadcasts, and combines them into a local inbox
//! variable. Inter-vertex interaction is read-only, writes stay
//! intra-vertex — **no locks, no data races by construction**, and the
//! data-race-protection footprint is zero.
//!
//! The costs the paper calls out: every vertex visits all of its
//! in-neighbours each superstep (so a low active ratio wastes fetches),
//! and cost scales with in-degree. Both effects are visible in the
//! Figure 7 reproduction.
//!
//! Outboxes are double-buffered like push mailboxes. With the selection
//! bypass, a broadcasting vertex enqueues all its out-neighbours, so only
//! potential receivers gather next superstep.

use ipregel_graph::csr::Weight;
use ipregel_graph::{Adjacency, Graph, NeighborList, VertexId, VertexIndex};
use ipregel_par::prelude::*;

use crate::engine::bsp::{self, Barrier, Delivery};
use crate::engine::{chunks, combine_into, in_pool, Outbound, RunConfig, RunResult};
use crate::metrics::FootprintReport;
use crate::program::VertexProgram;
use crate::recover::DynHooks;
use crate::selection::{EpochTags, Worklist};
use crate::sync_cell::SharedSlice;
use crate::trace::EngineKind;

/// Run `program` on `graph` with the pull-based combiner: vertex panics
/// surface as [`RunError::VertexPanic`], a missed [`RunConfig::deadline`]
/// as [`RunError::DeadlineExceeded`] — in both cases the thread pool
/// survives and the error carries the completed supersteps' stats.
///
/// # Panics
/// Only on misuse:
/// * if the graph was built without in-adjacency (the gather needs it);
/// * if the selection bypass is enabled on a graph without out-adjacency
///   (the sender must know its out-neighbours to enqueue them — this is
///   exactly the extra memory the paper observed for "broadcast with
///   selection bypass" in Section 7.4.1);
/// * if `compute` calls `send` — the pull design supports broadcasts only.
///
/// [`RunError::VertexPanic`]: crate::engine::RunError::VertexPanic
/// [`RunError::DeadlineExceeded`]: crate::engine::RunError::DeadlineExceeded
pub fn try_run_pull<P>(graph: &Graph, program: &P, config: &RunConfig) -> RunResult<P::Value>
where
    P: VertexProgram,
{
    run_pull_with(graph, program, config, None)
}

/// [`try_run_pull`] with checkpoint/restore hooks (see
/// [`crate::recover`]). A checkpoint stores the *combined inbox* — the
/// gather's result, engine-neutral — so a pull checkpoint restores into
/// push engines and vice versa; on resume the first superstep consumes
/// the restored inbox in place of its gather.
pub(crate) fn run_pull_with<P>(
    graph: &Graph,
    program: &P,
    config: &RunConfig,
    hooks: Option<DynHooks<'_, P::Value, P::Message>>,
) -> RunResult<P::Value>
where
    P: VertexProgram,
{
    assert!(
        graph.has_in_edges(),
        "the pull engine gathers from in-neighbours; build the graph with NeighborMode::InOnly or Both"
    );
    if config.selection_bypass {
        assert!(
            graph.has_out_edges(),
            "pull + selection bypass needs out-adjacency too (NeighborMode::Both): \
             senders enqueue their out-neighbours"
        );
    }
    // One representation dispatch per run (see push.rs). The gather and
    // the bypass walk must monomorphise together, so both directions are
    // required to hold the same representation — Graph::compress keeps
    // them in lockstep, making a mismatch unreachable via the public API.
    const MIXED: &str =
        "mixed adjacency representations; Graph::compress converts both directions together";
    match graph.in_adj().expect("asserted above") {
        Adjacency::Plain(in_csr) => {
            let out_adj = graph.out_adj().map(|a| a.plain().expect(MIXED));
            pull_over(graph, in_csr, out_adj, program, config, hooks)
        }
        Adjacency::Compact(in_c) => {
            let out_adj = graph.out_adj().map(|a| a.compact().expect(MIXED));
            pull_over(graph, in_c, out_adj, program, config, hooks)
        }
    }
}

/// Build the outboxes and the strategy over them, inside the run's pool.
fn pull_over<P: VertexProgram, A: NeighborList>(
    graph: &Graph,
    in_adj: &A,
    out_adj: Option<&A>,
    program: &P,
    config: &RunConfig,
    hooks: Option<DynHooks<'_, P::Value, P::Message>>,
) -> RunResult<P::Value> {
    in_pool(config.threads, move || {
        let slots = graph.num_slots();
        let (mut read, mut write) = (vec![None; slots], vec![None; slots]);
        let pull = Pull::<P, A> {
            graph,
            in_adj,
            out_adj,
            read: SharedSlice::new(&mut read),
            write: SharedSlice::new(&mut write),
            writers_read: Worklist::new(slots),
            writers_write: Worklist::new(slots),
            bypass: config
                .selection_bypass
                .then(|| (Worklist::new(slots), EpochTags::new(slots))),
            restored: None,
            epoch: 1,
        };
        bsp::drive(graph, program, config, hooks, pull)
    })
}

/// Double-buffered outboxes plus their writer lists, monomorphised over
/// the adjacency representation `A`.
struct Pull<'g, P: VertexProgram, A> {
    graph: &'g Graph,
    in_adj: &'g A,
    /// The out-adjacency in its concrete representation; present exactly
    /// when the graph retains out-edges (the bypass walk needs it).
    out_adj: Option<&'g A>,
    /// Broadcasts of the last superstep; only read while one runs.
    read: SharedSlice<'g, Option<P::Message>>,
    /// Broadcasts of the running superstep, each slot written by its
    /// own vertex only.
    write: SharedSlice<'g, Option<P::Message>>,
    /// Who wrote each buffer, so clearing is O(writers), not O(V).
    writers_read: Worklist,
    writers_write: Worklist,
    bypass: Option<(Worklist, EpochTags)>,
    /// A checkpoint's combined inbox, standing in for the first resumed
    /// superstep's gather (the outboxes that fed it died with the old
    /// process); everything downstream — broadcasts, writer lists, epoch
    /// tags — regenerates naturally from there.
    restored: Option<Vec<Option<P::Message>>>,
    /// Supersteps opened so far, from 1: the epoch the bypass tags claim.
    epoch: u32,
}

impl<P: VertexProgram, A: NeighborList> Pull<'_, P, A> {
    /// Gather: combine the broadcasts `v`'s in-neighbours left, in
    /// in-neighbour CSR order — the only inter-vertex interaction of the
    /// pull design, and it is a read.
    #[inline]
    fn gather(&self, v: VertexIndex) -> Option<P::Message> {
        let mut acc = None;
        for u in self.in_adj.neighbors_iter(v) {
            // SAFETY: the read buffer was written last superstep; no
            // writers exist this phase.
            if let Some(m) = unsafe { self.read.get(u as usize) } {
                combine_into::<P>(&mut acc, *m);
            }
        }
        acc
    }
}

impl<P: VertexProgram, A: NeighborList> Delivery<P> for Pull<'_, P, A> {
    const ENGINE: EngineKind = EngineKind::Pull;

    /// Pull work is dominated by the gather over in-neighbours.
    fn offsets(&self) -> &[u64] {
        self.in_adj.offsets()
    }

    fn footprint(&self) -> FootprintReport {
        FootprintReport {
            mailbox_bytes: 2 * self.read.len() * std::mem::size_of::<Option<P::Message>>()
                + self.writers_read.bytes()
                + self.writers_write.bytes(),
            lock_bytes: 0, // the race-free design: no data-race protection at all
            worklist_bytes: self.bypass.as_ref().map_or(0, |(wl, t)| wl.bytes() + t.bytes()),
            ..FootprintReport::default()
        }
    }

    fn restore(&mut self, inbox: Vec<Option<P::Message>>, _halted: &[bool]) -> Vec<VertexIndex> {
        let active = if self.bypass.is_some() {
            // The bypass enqueues exactly the out-neighbours of
            // broadcasters ≡ the slots whose gather is non-empty.
            (0..inbox.len() as u32).filter(|&v| inbox[v as usize].is_some()).collect()
        } else {
            // Scan semantics: every live vertex is checked; the
            // halted-and-empty ones skip inside the superstep.
            self.graph.address_map().live_slots().collect()
        };
        self.restored = Some(inbox);
        active
    }

    /// The gather's result for the superstep about to run, computed
    /// sequentially in the same in-neighbour CSR order the vertices
    /// would use — bit-identical by construction.
    fn snapshot_inbox(&self) -> Vec<Option<P::Message>> {
        debug_assert!(
            self.restored.is_none(),
            "due() never fires at the resume floor, so the restored inbox is consumed"
        );
        (0..self.read.len() as u32).map(|v| self.gather(v)).collect()
    }

    /// A resumed superstep takes its checkpointed inbox instead of
    /// gathering; before the first barrier nothing was broadcast, so
    /// there is nothing to walk.
    #[inline]
    fn inbox(&self, v: VertexIndex) -> Option<P::Message> {
        match &self.restored {
            Some(restored) => restored[v as usize],
            None if self.epoch == 1 => None,
            None => self.gather(v),
        }
    }

    /// Recycle the read buffer — clear only the slots its writers
    /// touched — then swap read/write roles. Clearing a slot costs no
    /// more than a unit of planned weight, so the clear forks by the
    /// planner's own threshold: a short writer list is cleared here.
    fn flip(&mut self) {
        self.restored = None;
        self.epoch += 1;
        let read = &self.read;
        let writers = self.writers_read.take();
        writers.par_iter().with_min_len(chunks::MIN_FORK_WEIGHT as usize).for_each(|&v| {
            // SAFETY: writer lists are duplicate-free per buffer cycle.
            unsafe { *read.get_mut(v as usize) = None };
        });
        std::mem::swap(&mut self.read, &mut self.write);
        // The writer lists must track their buffers through the swap.
        std::mem::swap(&mut self.writers_read, &mut self.writers_write);
    }

    fn select(&self, at: &Barrier<'_>) -> Vec<VertexIndex> {
        let map = self.graph.address_map();
        match &self.bypass {
            // Dense case: checking everyone in slot order; the gather
            // re-derives each vertex's inbox either way.
            Some((worklist, _)) => {
                bsp::bypass_select(worklist, map, at, || map.live_slots().collect())
            }
            // No broadcasts pending and every vertex halted → done.
            None if at.sent == 0 && at.awake == 0 => Vec::new(),
            // All vertices are *checked* every superstep — the pull
            // engine's structural cost.
            None => map.live_slots().collect(),
        }
    }
}

impl<P: VertexProgram, A: NeighborList> Outbound<P::Message> for Pull<'_, P, A> {
    fn send(&self, to: VertexId, _msg: P::Message) {
        panic!(
            "pull-based combiner supports neighbour broadcasts only (Section 6.2); \
             point-to-point send to {to} requires a push version"
        );
    }

    fn broadcast(&self, from: VertexIndex, msg: P::Message) -> u64 {
        // SAFETY: slot `from` belongs to the running vertex; vertices run
        // at most once per superstep, so the write is exclusive.
        let mut outbox = unsafe { self.write.get_mut(from as usize) };
        if outbox.is_none() {
            // First broadcast of this buffer cycle (recycling cleared it).
            self.writers_write.push(from);
        }
        combine_into::<P>(&mut outbox, msg);
        if let Some((worklist, tags)) = &self.bypass {
            let out = self.out_adj.expect("bypass requires out-adjacency, asserted at entry");
            for n in out.neighbors_iter(from) {
                if tags.claim(n, self.epoch) {
                    worklist.push(n);
                }
            }
        }
        u64::from(self.graph.out_degree(from))
    }

    fn send_along_out_edges(&self, _from: VertexIndex, _f: impl FnMut(Weight) -> P::Message) -> u64 {
        panic!("per-edge sends are a push-engine feature; the pull combiner is broadcast-only");
    }
}
