//! Push-combining delivery (Section 6.1).
//!
//! Senders deliver messages straight into the recipient's single-message
//! mailbox, combining on collision under the mailbox's synchronisation
//! (mutex or spinlock). Mailboxes are double-buffered: superstep `s`
//! reads from the *current* array while sends land in the *next* one,
//! swapped at the barrier.
//!
//! **Locks only where threads meet.** A vertex reads its current mailbox
//! through the driver's partition of the active list, so the read takes
//! no lock ([`Mailbox::take_mut`]). A superstep the driver runs
//! *exclusive* — one chunk, or a pool of one thread — delivers through
//! `Exclusive`, which holds `next` and the bypass queue `&mut`: plain
//! fill-or-combine, no partials. Only a forked superstep's deliveries,
//! through `Forked`, pay the mailbox's synchronisation.
//!
//! Selection is either the conventional full scan (check every vertex's
//! active flag and inbox) or the Section 4 bypass, where the sender
//! enqueues its recipient at send time — a forked chunk into a list of
//! its own, handed back with its tally — and the scan disappears.
//!
//! **Sender-side partials.** On the compact CSR, whose neighbour lists
//! ascend, a pool worker combines what it sends to a slot below
//! [`partial_slots`] into a private partial ([`Partials`]) with a plain
//! `combine` — after `--relabel degree` those low slots are the hubs that
//! most messages target — and `flip`, holding `next` `&mut`, folds each
//! worker's touched slots into the mailboxes through `deliver_mut`
//! ([`Partials::fold`]), so a hub's mailbox takes no lock at all and the
//! bypass keeps its exactly-once enqueue on the empty→occupied
//! transition. The plain CSR keeps the builder's neighbour order, where
//! the `slot < span` test would be a coin flip per edge; it gets no
//! partials and its loop is the direct delivery alone.
//!
//! When every live vertex ran and stayed awake, selection without the
//! bypass is every live slot, taken without a scan, as pull's is.

use std::marker::PhantomData;

use ipregel_graph::csr::Weight;
use ipregel_graph::{Adjacency, Graph, NeighborList, VertexId, VertexIndex};
use ipregel_par::prelude::*;

use crate::engine::bsp::{self, Barrier, ChunkOutput, Delivery, Lane};
use crate::engine::{for_each_out_edge, in_pool, target_slot, Outbound, RunConfig, RunResult};
use crate::mailbox::Mailbox;
use crate::metrics::FootprintReport;
use crate::program::VertexProgram;
use crate::recover::DynHooks;
use crate::selection::{LocalPartial, Partials};
use crate::trace::EngineKind;

/// Run `program` on `graph` with mailbox flavour `MB`, with
/// checkpoint/restore hooks (see [`crate::recover`]): vertex panics
/// surface as [`RunError::VertexPanic`], a missed
/// [`RunConfig::deadline`] as [`RunError::DeadlineExceeded`] — in both
/// cases the thread pool survives and the error carries the completed
/// supersteps' stats.
///
/// # Panics
/// Only on misuse: a graph built without out-edges (push routes every
/// send through the out-CSR), or a send to an unknown identifier.
///
/// [`RunError::VertexPanic`]: crate::engine::RunError::VertexPanic
/// [`RunError::DeadlineExceeded`]: crate::engine::RunError::DeadlineExceeded
pub(crate) fn run_push_with<P, MB>(
    graph: &Graph,
    program: &P,
    config: &RunConfig,
    hooks: Option<DynHooks<'_, P::Value, P::Message>>,
) -> RunResult<P::Value>
where
    P: VertexProgram,
    MB: Mailbox<P::Message>,
{
    assert!(
        graph.has_out_edges(),
        "push engines need out-adjacency; build the graph with NeighborMode::OutOnly or Both"
    );
    // Representation dispatch happens exactly once per run: the driver
    // monomorphises over the NeighborList implementation, so the
    // per-edge loop carries no representation branch.
    match graph.out_adj().expect("asserted above") {
        Adjacency::Plain(csr) => in_pool(config.threads, move || {
            bsp::drive(graph, program, config, hooks, Push::<P, MB, _>::new(graph, csr, config))
        }),
        Adjacency::Compact(c) => in_pool(config.threads, move || {
            bsp::drive(graph, program, config, hooks, Push::<P, MB, _>::new(graph, c, config))
        }),
    }
}

/// Bytes of sender-side partial per pool worker: a partial covers
/// `PARTIAL_BYTES_PER_WORKER / (size_of::<M>() + 1)` slots (a message and
/// a presence byte each), clamped to the graph. Set by a sweep of spin
/// PageRank (10 rounds, 2 threads, edge schedule) on the degree-relabelled
/// compact Wikipedia analog (divisor 64: 285 453 vertices, 2 690 374
/// edges; 76 % of messages go to slots below 16 384, 94 % below 65 536)
/// on the reference 2-core VM (2 MB L2 per core). Median ms of nine runs
/// per cell, two passes on seed 7 and one pair on seed 11, by the slots an
/// `f64` partial covers:
///
/// | slots   | bytes/worker | seed 7    | seed 11   |
/// |--------:|-------------:|----------:|----------:|
/// |       0 |            0 | 420 / 425 | 422 / 455 |
/// |   2 048 |       18 KiB | 305 / 384 |           |
/// |   4 096 |       36 KiB | 320 / 352 |           |
/// |   8 192 |       72 KiB | 299 / 310 |           |
/// |  16 384 |      144 KiB | 264 / 261 | 270 / 278 |
/// |  32 768 |      288 KiB | 258 / 256 |           |
/// |  65 536 |      576 KiB | 257 / 248 | 210 / 246 |
/// | 131 072 |     1.1 MiB  | 246 / 232 | 258 / 250 |
/// | 262 144 |     2.3 MiB  | 277 / 252 |           |
///
/// The curve flattens from 16 384 slots; doubling past 65 536 buys
/// nothing beyond the noise, and at 262 144 the two workers' partials
/// no longer share the L2 with the mailboxes they fold into.
pub const PARTIAL_BYTES_PER_WORKER: usize = 9 << 16;

/// Double-buffered mailboxes plus the bypass queue, monomorphised over
/// the mailbox flavour `MB` and the adjacency representation `A`.
struct Push<'g, P: VertexProgram, MB, A> {
    graph: &'g Graph,
    /// The out-adjacency in its concrete representation — broadcast and
    /// edge iteration go through this, not through `graph`'s
    /// representation-agnostic (and slice-only) accessors.
    adj: &'g A,
    /// The mail of the running superstep: each mailbox read only by the
    /// thread that runs its slot, through the driver's partition.
    cur: Vec<MB>,
    /// The mail the running superstep sends.
    next: Vec<MB>,
    /// Each pool worker's combined sends to the slots below the span,
    /// folded into `next` at the barrier; the span is 0 unless `A`'s
    /// neighbour lists ascend, and there are no shards on a pool of one.
    partials: Partials<P::Message>,
    /// Under the bypass, the slots enqueued for the next superstep: an
    /// exclusive superstep's deliveries, forked chunks' outputs and the
    /// partial fold, drained by `select` with the capacity kept. No
    /// per-vertex tags here: the mailbox's own empty→occupied transition
    /// (observed under its synchronisation, or through an exclusive
    /// borrow) is the exactly-once enqueue signal — Section 4's sender
    /// "knows that the recipient vertex will have to be run".
    queued: Option<Vec<VertexIndex>>,
    _program: PhantomData<fn() -> P>,
}

impl<'g, P: VertexProgram, MB: Mailbox<P::Message>, A: NeighborList> Push<'g, P, MB, A> {
    fn new(graph: &'g Graph, adj: &'g A, config: &RunConfig) -> Self {
        let slots = graph.num_slots();
        Push {
            graph,
            adj,
            cur: (0..slots).map(|_| MB::empty()).collect(),
            next: (0..slots).map(|_| MB::empty()).collect(),
            partials: Partials::new(
                bsp::forking_threads(),
                if A::ASCENDING { partial_slots::<P::Message>().min(slots) } else { 0 },
            ),
            queued: config.selection_bypass.then(|| Vec::with_capacity(slots)),
            _program: PhantomData,
        }
    }

    /// Slots with work pending in `cur`, ascending: under the bypass the
    /// message holders (§4's contract: activity ≡ message receipt), else
    /// every live vertex that is awake or has mail.
    fn pending(&self, halted: &[bool]) -> Vec<VertexIndex> {
        let map = *self.graph.address_map();
        let cur: &[MB] = &self.cur;
        let slots = (0..cur.len() as u32).into_par_iter();
        if self.queued.is_some() {
            slots.filter(|&v| cur[v as usize].has_message()).collect()
        } else {
            slots
                .filter(|&v| {
                    map.is_live_slot(v) && (!halted[v as usize] || cur[v as usize].has_message())
                })
                .collect()
        }
    }
}

/// Deliver into `next[slot]` under its synchronisation; the first delivery
/// of the superstep enqueues the recipient under the bypass.
#[inline]
fn deliver_to_mailbox<P: VertexProgram, MB: Mailbox<P::Message>>(
    next: &[MB],
    queued: Option<&mut Vec<VertexIndex>>,
    slot: VertexIndex,
    msg: P::Message,
) {
    let first = next[slot as usize].deliver(msg, P::combine);
    if first {
        if let Some(queued) = queued {
            queued.push(slot);
        }
    }
}

/// Slots a sender-side partial of `M` covers on a graph with at least
/// that many slots (see [`PARTIAL_BYTES_PER_WORKER`]).
pub fn partial_slots<M>() -> usize {
    PARTIAL_BYTES_PER_WORKER / (std::mem::size_of::<M>() + 1)
}

impl<'g, P: VertexProgram, MB: Mailbox<P::Message>, A: NeighborList> Delivery<P>
    for Push<'g, P, MB, A>
{
    const ENGINE: EngineKind = EngineKind::Push;

    type Inbox = MB;
    type Forked<'s>
        = Forked<'s, P, MB, A>
    where
        Self: 's;
    type Exclusive<'s>
        = Exclusive<'s, P, MB, A>
    where
        Self: 's;

    fn fork(&mut self) -> (&mut [MB], Forked<'_, P, MB, A>) {
        let lane = Forked {
            graph: self.graph,
            adj: self.adj,
            next: &self.next,
            partials: &self.partials,
            queued: self.queued.as_ref().map(|_| Vec::new()),
        };
        (&mut self.cur, lane)
    }

    fn exclusive(&mut self) -> (&mut [MB], Exclusive<'_, P, MB, A>) {
        let lane = Exclusive {
            graph: self.graph,
            adj: self.adj,
            next: &mut self.next,
            queued: self.queued.as_mut(),
            _program: PhantomData,
        };
        (&mut self.cur, lane)
    }

    /// Push work is proportional to out-degree.
    fn offsets(&self) -> &[u64] {
        self.adj.offsets()
    }

    fn footprint(&self) -> FootprintReport {
        let slots = self.cur.len();
        FootprintReport {
            mailbox_bytes: 2 * slots * (std::mem::size_of::<MB>() - MB::lock_bytes())
                + self.partials.bytes(),
            lock_bytes: 2 * slots * MB::lock_bytes(),
            worklist_bytes: self
                .queued
                .as_ref()
                .map_or(0, |q| q.capacity() * std::mem::size_of::<VertexIndex>()),
            ..FootprintReport::default()
        }
    }

    /// The combined inbox re-delivers into the fresh mailboxes.
    fn restore(&mut self, inbox: Vec<Option<P::Message>>, halted: &[bool]) -> Vec<VertexIndex> {
        for (mailbox, m) in self.cur.iter_mut().zip(inbox) {
            if let Some(m) = m {
                mailbox.deliver_mut(m, P::combine);
            }
        }
        self.pending(halted)
    }

    fn snapshot_inbox(&self) -> Vec<Option<P::Message>> {
        self.cur.iter().map(Mailbox::snapshot).collect()
    }

    /// Queue what the chunks enqueued, fold the workers' partials into
    /// `next`, after which every delivery for superstep s+1 is there; make
    /// it current.
    fn flip(&mut self, outputs: Vec<ChunkOutput>) {
        let Push { partials, next, queued, .. } = self;
        if let Some(queued) = queued {
            for mut output in outputs {
                queued.append(&mut output.enqueued);
            }
        }
        partials.fold(next, P::combine, queued.as_mut());
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    fn select(&mut self, at: &Barrier<'_>, active: &mut Vec<VertexIndex>) {
        let map = self.graph.address_map();
        let selected = match self.queued.as_mut() {
            Some(queued) => bsp::bypass_select(queued, map, at, active),
            // Every live vertex ran and is awake: `pending` would keep
            // exactly the live slots.
            None if at.awake == u64::from(map.num_vertices()) => {
                bsp::select_all_live(map, active);
                true
            }
            None => false,
        };
        if !selected {
            *active = self.pending(at.halted);
        }
    }
}

/// A forked superstep's lane: every chunk delivers into the shared `next`
/// under the mailbox's synchronisation, or on the compact CSR into its
/// worker's partial, and under the bypass enqueues into its own list.
/// Its inbox reads lock nothing — the cell is the running vertex's own.
struct Forked<'s, P: VertexProgram, MB, A> {
    graph: &'s Graph,
    adj: &'s A,
    next: &'s [MB],
    partials: &'s Partials<P::Message>,
    /// The chunk's own enqueued slots; `Some` exactly under the bypass.
    queued: Option<Vec<VertexIndex>>,
}

impl<P: VertexProgram, MB, A> Clone for Forked<'_, P, MB, A> {
    fn clone(&self) -> Self {
        Forked { queued: self.queued.clone(), ..*self }
    }
}

impl<'s, P: VertexProgram, MB: Mailbox<P::Message>, A: NeighborList> Forked<'s, P, MB, A> {
    /// The calling worker's partial, where the representation has them.
    #[inline]
    fn local(&self) -> Option<LocalPartial<'s, P::Message>> {
        if A::ASCENDING {
            self.partials.local()
        } else {
            None
        }
    }

    #[inline]
    fn deliver(
        &mut self,
        local: Option<&LocalPartial<'_, P::Message>>,
        slot: VertexIndex,
        msg: P::Message,
    ) {
        match local {
            Some(partial) if slot < self.partials.span() => partial.combine(slot, msg, P::combine),
            _ => deliver_to_mailbox::<P, MB>(self.next, self.queued.as_mut(), slot, msg),
        }
    }
}

impl<P: VertexProgram, MB: Mailbox<P::Message>, A: NeighborList> Lane<P, MB>
    for Forked<'_, P, MB, A>
{
    #[inline]
    fn read(&mut self, cell: &mut MB, _v: VertexIndex) -> Option<P::Message> {
        cell.take_mut()
    }

    fn take_output(&mut self) -> ChunkOutput {
        let enqueued = self.queued.as_mut().map(std::mem::take).unwrap_or_default();
        ChunkOutput { enqueued, wrote: 0 }
    }
}

impl<P: VertexProgram, MB: Mailbox<P::Message>, A: NeighborList> Outbound<P::Message>
    for Forked<'_, P, MB, A>
{
    fn send(&mut self, to: VertexId, msg: P::Message) {
        let local = self.local();
        self.deliver(local.as_ref(), target_slot(self.graph, to), msg);
    }

    fn broadcast(&mut self, from: VertexIndex, _degree: u32, msg: P::Message) {
        let (local, adj) = (self.local(), self.adj);
        for n in adj.neighbors_iter(from) {
            self.deliver(local.as_ref(), n, msg);
        }
    }

    fn send_along_out_edges(
        &mut self,
        from: VertexIndex,
        mut f: impl FnMut(Weight) -> P::Message,
    ) -> u64 {
        let local = self.local();
        let mut sent = 0;
        for_each_out_edge(self.adj, from, |n, w| {
            self.deliver(local.as_ref(), n, f(w));
            sent += 1;
        });
        sent
    }
}

/// An exclusive superstep's lane: the orchestrating thread holds the
/// mailboxes and the bypass queue alone, so every delivery is a plain
/// fill-or-combine and the bypass appends straight to the strategy's
/// queue. No partials — `next` itself is as private as a partial would
/// be.
struct Exclusive<'s, P, MB, A> {
    graph: &'s Graph,
    adj: &'s A,
    next: &'s mut [MB],
    queued: Option<&'s mut Vec<VertexIndex>>,
    _program: PhantomData<fn() -> P>,
}

impl<P: VertexProgram, MB: Mailbox<P::Message>, A> Exclusive<'_, P, MB, A> {
    #[inline]
    fn deliver(&mut self, slot: VertexIndex, msg: P::Message) {
        let first = self.next[slot as usize].deliver_mut(msg, P::combine);
        if first {
            if let Some(queued) = self.queued.as_deref_mut() {
                queued.push(slot);
            }
        }
    }
}

impl<P: VertexProgram, MB: Mailbox<P::Message>, A: NeighborList> Lane<P, MB>
    for Exclusive<'_, P, MB, A>
{
    #[inline]
    fn read(&mut self, cell: &mut MB, _v: VertexIndex) -> Option<P::Message> {
        cell.take_mut()
    }

    /// Nothing: the enqueued slots are already in the strategy's queue.
    fn take_output(&mut self) -> ChunkOutput {
        ChunkOutput::default()
    }
}

impl<P: VertexProgram, MB: Mailbox<P::Message>, A: NeighborList> Outbound<P::Message>
    for Exclusive<'_, P, MB, A>
{
    fn send(&mut self, to: VertexId, msg: P::Message) {
        self.deliver(target_slot(self.graph, to), msg);
    }

    fn broadcast(&mut self, from: VertexIndex, _degree: u32, msg: P::Message) {
        let adj = self.adj;
        for n in adj.neighbors_iter(from) {
            self.deliver(n, msg);
        }
    }

    fn send_along_out_edges(
        &mut self,
        from: VertexIndex,
        mut f: impl FnMut(Weight) -> P::Message,
    ) -> u64 {
        let mut sent = 0;
        for_each_out_edge(self.adj, from, |n, w| {
            self.deliver(n, f(w));
            sent += 1;
        });
        sent
    }
}
