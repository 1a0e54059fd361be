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
//! **Slot layout.** Outboxes are double-buffered like push mailboxes. A
//! buffer is a dense `[M]` beside a `[u32]` of epoch tags — the C
//! original's `message` + `has_message` pair: a slot holds a broadcast
//! for the next superstep exactly when its tag names the superstep that
//! just ended. Only the owning vertex writes its slot and its tag, and
//! tags never need clearing, because the epoch only grows.
//!
//! **Dense supersteps.** An in-neighbour always has out-edges, so when
//! every slot with out-edges (the run's `senders`, counted once) wrote
//! the buffer being read, every slot a gather visits holds a message:
//! the gather combines `m[first]` with the rest in CSR order and reads no
//! tag — 8 bytes per in-edge for an `f64` — with exactly the combine
//! sequence of the tagged gather, so results are bit-identical. Each lane
//! counts the first write of each slot with out-edges in a plain field,
//! hands the count back with its chunk, and `flip` sums and compares.
//!
//! With the selection bypass, a broadcasting vertex enqueues all its
//! out-neighbours, so only potential receivers gather next superstep.

use ipregel_graph::csr::Weight;
use ipregel_graph::{Adjacency, Graph, NeighborList, VertexId, VertexIndex};

use crate::engine::bsp::{self, Barrier, ChunkOutput, Delivery, Lane};
use crate::engine::{combine_into, in_pool, Outbound, RunConfig, RunResult};
use crate::metrics::FootprintReport;
use crate::program::VertexProgram;
use crate::recover::DynHooks;
use crate::selection::EpochTags;
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
        let mut msgs: [Vec<P::Message>; 2] =
            std::array::from_fn(|_| vec![P::Message::default(); slots]);
        let mut tags: [Vec<u32>; 2] = std::array::from_fn(|_| vec![0; slots]);
        let ([read_msgs, write_msgs], [read_tags, write_tags]) = (&mut msgs, &mut tags);
        let pull = Pull::<P, A> {
            gather: Gather {
                graph,
                in_adj,
                out_adj,
                read: Outboxes::new(read_msgs, read_tags),
                write: Outboxes::new(write_msgs, write_tags),
                dense: false,
                tags: config.selection_bypass.then(|| EpochTags::new(slots)),
                restored: None,
                epoch: 1,
            },
            senders: (0..slots as u32).filter(|&v| graph.out_degree(v) > 0).count() as u64,
            queued: if config.selection_bypass { Vec::with_capacity(slots) } else { Vec::new() },
        };
        bsp::drive(graph, program, config, hooks, pull)
    })
}

/// One outbox buffer: a message per slot and the epoch that wrote it.
struct Outboxes<'g, M> {
    msgs: SharedSlice<'g, M>,
    tags: SharedSlice<'g, u32>,
}

impl<'g, M> Outboxes<'g, M> {
    fn new(msgs: &'g mut [M], tags: &'g mut [u32]) -> Self {
        Outboxes { msgs: SharedSlice::new(msgs), tags: SharedSlice::new(tags) }
    }
}

/// The pull strategy: what its lanes read, the count that decides how
/// to read the next superstep, and the bypass queue, monomorphised over
/// the adjacency representation `A`.
struct Pull<'g, P: VertexProgram, A> {
    gather: Gather<'g, P, A>,
    /// Slots with out-edges: every in-neighbour of every vertex is one.
    senders: u64,
    /// Under the bypass, the slots enqueued for the next superstep (an
    /// exclusive lane appends here, forked chunks' outputs join it at
    /// `flip`), drained by `select` with the capacity kept.
    queued: Vec<VertexIndex>,
}

/// Double-buffered outboxes and how to read them: everything a lane of
/// either kind shares.
struct Gather<'g, P: VertexProgram, A> {
    graph: &'g Graph,
    in_adj: &'g A,
    /// The out-adjacency in its concrete representation; present exactly
    /// when the graph retains out-edges (the bypass walk needs it).
    out_adj: Option<&'g A>,
    /// Broadcasts of the last superstep; only read while one runs.
    read: Outboxes<'g, P::Message>,
    /// Broadcasts of the running superstep, each slot and its tag written
    /// by its own vertex only.
    write: Outboxes<'g, P::Message>,
    /// Every slot with out-edges wrote `read`: gathers skip the tags.
    dense: bool,
    /// The bypass's exactly-once enqueue; `Some` exactly under it.
    tags: Option<EpochTags>,
    /// A checkpoint's combined inbox, standing in for the first resumed
    /// superstep's gather (the outboxes that fed it died with the old
    /// process); everything downstream — broadcasts, tags, the count —
    /// regenerates naturally from there.
    restored: Option<Vec<Option<P::Message>>>,
    /// Supersteps opened so far, from 1: the epoch this superstep's
    /// outbox and bypass tags claim.
    epoch: u32,
}

impl<P: VertexProgram, A: NeighborList> Gather<'_, P, A> {
    /// The combined message waiting for slot `v`. A resumed superstep
    /// takes its checkpointed inbox instead of gathering; before the first
    /// barrier nothing was broadcast, so there is nothing to walk.
    #[inline]
    fn inbox(&self, v: VertexIndex) -> Option<P::Message> {
        match &self.restored {
            Some(restored) => restored[v as usize],
            None if self.epoch == 1 => None,
            None => self.gather(v),
        }
    }

    /// Gather: combine the broadcasts `v`'s in-neighbours left, in
    /// in-neighbour CSR order — the only inter-vertex interaction of the
    /// pull design, and it is a read.
    #[inline]
    fn gather(&self, v: VertexIndex) -> Option<P::Message> {
        let Outboxes { msgs, tags } = &self.read;
        // SAFETY: the read buffer was written last superstep; nothing
        // writes it until the next flip swaps it back.
        let msg = |u: VertexIndex| unsafe { *msgs.get(u as usize) };
        let mut nbrs = self.in_adj.neighbors_iter(v);
        if self.dense {
            // Every in-neighbour wrote: the tagged loop below would
            // combine exactly these messages, in this order.
            let mut acc = msg(nbrs.next()?);
            nbrs.for_each(|u| P::combine(&mut acc, msg(u)));
            return Some(acc);
        }
        let last = self.epoch - 1;
        let mut acc = None;
        for u in nbrs {
            // SAFETY: as for `msg`.
            if unsafe { *tags.get(u as usize) } == last {
                combine_into::<P>(&mut acc, msg(u));
            }
        }
        acc
    }
}

impl<'g, P: VertexProgram, A: NeighborList> Delivery<P> for Pull<'g, P, A> {
    const ENGINE: EngineKind = EngineKind::Pull;

    type Inbox = ();
    type Forked<'s>
        = PullLane<'s, 'g, P, A, Vec<VertexIndex>>
    where
        Self: 's;
    type Exclusive<'s>
        = PullLane<'s, 'g, P, A, &'s mut Vec<VertexIndex>>
    where
        Self: 's;

    fn fork(&mut self) -> (&mut [()], Self::Forked<'_>) {
        let lane = PullLane { gather: &self.gather, queued: Vec::new(), wrote: 0 };
        (no_cells(self.gather.read.msgs.len()), lane)
    }

    fn exclusive(&mut self) -> (&mut [()], Self::Exclusive<'_>) {
        let lane = PullLane { gather: &self.gather, queued: &mut self.queued, wrote: 0 };
        (no_cells(self.gather.read.msgs.len()), lane)
    }

    /// Pull work is dominated by the gather over in-neighbours.
    fn offsets(&self) -> &[u64] {
        self.gather.in_adj.offsets()
    }

    fn footprint(&self) -> FootprintReport {
        let g = &self.gather;
        FootprintReport {
            mailbox_bytes: 2 * g.read.msgs.len() * (std::mem::size_of::<P::Message>() + 4),
            lock_bytes: 0, // the race-free design: no data-race protection at all
            worklist_bytes: g.tags.as_ref().map_or(0, |t| {
                self.queued.capacity() * std::mem::size_of::<VertexIndex>() + t.bytes()
            }),
            ..FootprintReport::default()
        }
    }

    fn restore(&mut self, inbox: Vec<Option<P::Message>>, _halted: &[bool]) -> Vec<VertexIndex> {
        let g = &mut self.gather;
        let active = if g.tags.is_some() {
            // The bypass enqueues exactly the out-neighbours of
            // broadcasters ≡ the slots whose gather is non-empty.
            (0..inbox.len() as u32).filter(|&v| inbox[v as usize].is_some()).collect()
        } else {
            // Scan semantics: every live vertex is checked; the
            // halted-and-empty ones skip inside the superstep.
            g.graph.address_map().live_slots().collect()
        };
        g.restored = Some(inbox);
        active
    }

    /// The gather's result for the superstep about to run, computed
    /// sequentially in the same in-neighbour CSR order the vertices
    /// would use — bit-identical by construction.
    fn snapshot_inbox(&self) -> Vec<Option<P::Message>> {
        let g = &self.gather;
        debug_assert!(
            g.restored.is_none(),
            "due() never fires at the resume floor, so the restored inbox is consumed"
        );
        (0..g.read.msgs.len() as u32).map(|v| g.gather(v)).collect()
    }

    /// Queue what the chunks enqueued, decide how the next superstep
    /// reads, then swap read/write roles and open the next epoch. Nothing
    /// is cleared: the slots the old read buffer holds carry tags of
    /// epochs that are over.
    fn flip(&mut self, outputs: Vec<ChunkOutput>) {
        let mut wrote = 0;
        for mut output in outputs {
            wrote += output.wrote;
            self.queued.append(&mut output.enqueued);
        }
        let g = &mut self.gather;
        g.restored = None;
        g.dense = wrote == self.senders;
        g.epoch += 1;
        std::mem::swap(&mut g.read, &mut g.write);
    }

    fn select(&mut self, at: &Barrier<'_>) -> Vec<VertexIndex> {
        let map = self.gather.graph.address_map();
        if self.gather.tags.is_some() {
            // Dense case: checking everyone in slot order; the gather
            // re-derives each vertex's inbox either way.
            return bsp::bypass_select(&mut self.queued, map, at)
                .unwrap_or_else(|| map.live_slots().collect());
        }
        if at.sent == 0 && at.awake == 0 {
            // No broadcasts pending and every vertex halted → done.
            return Vec::new();
        }
        // All vertices are *checked* every superstep — the pull engine's
        // structural cost.
        map.live_slots().collect()
    }
}

/// Pull keeps no inbox per slot — its vertices gather — so its inbox
/// cells are zero-sized: any number of them owns no memory, and leaking
/// them frees nothing.
fn no_cells(slots: usize) -> &'static mut [()] {
    Vec::leak(vec![(); slots])
}

/// Pull's lane, forked or exclusive alike: a vertex writes only its own
/// outbox slot and tag, so no two threads ever meet at one and there is
/// nothing to synchronise either way. The two differ only in where the
/// bypass enqueues, `Q`: a forked chunk's own list, handed back with its
/// output, or an exclusive superstep's borrow of the strategy's queue.
struct PullLane<'s, 'g, P: VertexProgram, A, Q> {
    gather: &'s Gather<'g, P, A>,
    queued: Q,
    /// Distinct slots with out-edges whose outbox this lane wrote first
    /// this superstep.
    wrote: u64,
}

impl<P: VertexProgram, A> Clone for PullLane<'_, '_, P, A, Vec<VertexIndex>> {
    fn clone(&self) -> Self {
        PullLane { gather: self.gather, queued: self.queued.clone(), wrote: self.wrote }
    }
}

impl<P: VertexProgram, A: NeighborList> Lane<P, ()> for PullLane<'_, '_, P, A, Vec<VertexIndex>> {
    #[inline]
    fn read(&mut self, _cell: &mut (), v: VertexIndex) -> Option<P::Message> {
        self.gather.inbox(v)
    }

    fn take_output(&mut self) -> ChunkOutput {
        ChunkOutput {
            enqueued: std::mem::take(&mut self.queued),
            wrote: std::mem::take(&mut self.wrote),
        }
    }
}

impl<P: VertexProgram, A: NeighborList> Lane<P, ()>
    for PullLane<'_, '_, P, A, &mut Vec<VertexIndex>>
{
    #[inline]
    fn read(&mut self, _cell: &mut (), v: VertexIndex) -> Option<P::Message> {
        self.gather.inbox(v)
    }

    /// The count only: the enqueued slots are already in the strategy's
    /// queue.
    fn take_output(&mut self) -> ChunkOutput {
        ChunkOutput { enqueued: Vec::new(), wrote: std::mem::take(&mut self.wrote) }
    }
}

impl<P: VertexProgram, A: NeighborList, Q: AsMut<Vec<VertexIndex>>> Outbound<P::Message>
    for PullLane<'_, '_, P, A, Q>
{
    fn send(&mut self, to: VertexId, _msg: P::Message) {
        panic!(
            "pull-based combiner supports neighbour broadcasts only (Section 6.2); \
             point-to-point send to {to} requires a push version"
        );
    }

    fn broadcast(&mut self, from: VertexIndex, msg: P::Message) -> u64 {
        let pull = self.gather;
        let degree = pull.graph.out_degree(from);
        if degree == 0 {
            // Nobody gathers from a sink and it has nobody to wake.
            return 0;
        }
        let (slot, write) = (from as usize, &pull.write);
        // SAFETY: slot `from` belongs to the running vertex; vertices run
        // at most once per superstep, so both writes are exclusive.
        let (mut outbox, mut epoch) =
            unsafe { (write.msgs.get_mut(slot), write.tags.get_mut(slot)) };
        if *epoch == pull.epoch {
            P::combine(&mut outbox, msg);
        } else {
            // First broadcast of this superstep: whatever the slot held
            // is from an epoch that is over.
            *outbox = msg;
            *epoch = pull.epoch;
            self.wrote += 1;
        }
        if let Some(tags) = &pull.tags {
            let out = pull.out_adj.expect("bypass requires out-adjacency, asserted at entry");
            let queued = self.queued.as_mut();
            for n in out.neighbors_iter(from) {
                if tags.claim(n, pull.epoch) {
                    queued.push(n);
                }
            }
        }
        u64::from(degree)
    }

    fn send_along_out_edges(
        &mut self,
        _from: VertexIndex,
        _f: impl FnMut(Weight) -> P::Message,
    ) -> u64 {
        panic!("per-edge sends are a push-engine feature; the pull combiner is broadcast-only");
    }
}
