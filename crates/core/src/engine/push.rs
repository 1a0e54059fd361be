//! Push-combining delivery (Section 6.1).
//!
//! Senders deliver messages straight into the recipient's single-message
//! mailbox, combining on collision under the mailbox's synchronisation
//! (mutex, spinlock, or lock-free CAS). Mailboxes are double-buffered:
//! superstep `s` reads from the *current* array while sends land in the
//! *next* one, swapped at the barrier.
//!
//! Selection is either the conventional full scan (check every vertex's
//! active flag and inbox) or the Section 4 bypass, where the sender
//! enqueues its recipient into the next worklist at send time and the
//! scan disappears.

use std::marker::PhantomData;

use ipregel_graph::csr::Weight;
use ipregel_graph::{Adjacency, Graph, NeighborList, VertexId, VertexIndex};
use ipregel_par::prelude::*;

use crate::engine::bsp::{self, Barrier, Delivery};
use crate::engine::{for_each_out_edge, in_pool, target_slot, Outbound, RunConfig, RunResult};
use crate::mailbox::Mailbox;
use crate::metrics::FootprintReport;
use crate::program::VertexProgram;
use crate::recover::DynHooks;
use crate::selection::Worklist;
use crate::trace::EngineKind;

/// Run `program` on `graph` with mailbox flavour `MB`: vertex panics
/// surface as [`RunError::VertexPanic`], a missed [`RunConfig::deadline`]
/// as [`RunError::DeadlineExceeded`] — in both cases the thread pool
/// survives and the error carries the completed supersteps' stats.
///
/// # Panics
/// Only on misuse: a graph built without out-edges (push routes every
/// send through the out-CSR), or a send to an unknown identifier.
///
/// [`RunError::VertexPanic`]: crate::engine::RunError::VertexPanic
/// [`RunError::DeadlineExceeded`]: crate::engine::RunError::DeadlineExceeded
pub fn try_run_push<P, MB>(graph: &Graph, program: &P, config: &RunConfig) -> RunResult<P::Value>
where
    P: VertexProgram,
    MB: Mailbox<P::Message>,
{
    run_push_with::<P, MB>(graph, program, config, None)
}

/// [`try_run_push`] with checkpoint/restore hooks (see
/// [`crate::recover`]).
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

/// Double-buffered mailboxes plus the bypass worklist, monomorphised over
/// the mailbox flavour `MB` and the adjacency representation `A`.
struct Push<'g, P, MB, A> {
    graph: &'g Graph,
    /// The out-adjacency in its concrete representation — broadcast and
    /// edge iteration go through this, not through `graph`'s
    /// representation-agnostic (and slice-only) accessors.
    adj: &'g A,
    cur: Vec<MB>,
    next: Vec<MB>,
    /// The bypass needs no per-vertex tags here: the mailbox's own
    /// empty→occupied transition (observed under its lock) is the
    /// exactly-once enqueue signal — Section 4's sender "knows that the
    /// recipient vertex will have to be run".
    bypass: Option<Worklist>,
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
            bypass: config.selection_bypass.then(|| Worklist::new(slots)),
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
        if self.bypass.is_some() {
            slots.filter(|&v| cur[v as usize].has_message()).collect()
        } else {
            slots
                .filter(|&v| {
                    map.is_live_slot(v) && (!halted[v as usize] || cur[v as usize].has_message())
                })
                .collect()
        }
    }

    #[inline]
    fn deliver(&self, slot: VertexIndex, msg: P::Message) {
        let first = self.next[slot as usize].deliver(msg, P::combine);
        if first {
            if let Some(worklist) = &self.bypass {
                worklist.push(slot);
            }
        }
    }
}

impl<P: VertexProgram, MB: Mailbox<P::Message>, A: NeighborList> Delivery<P>
    for Push<'_, P, MB, A>
{
    const ENGINE: EngineKind = EngineKind::Push;

    /// Push work is proportional to out-degree.
    fn offsets(&self) -> &[u64] {
        self.adj.offsets()
    }

    fn footprint(&self) -> FootprintReport {
        let slots = self.cur.len();
        FootprintReport {
            mailbox_bytes: 2 * slots * (std::mem::size_of::<MB>() - MB::lock_bytes()),
            lock_bytes: 2 * slots * MB::lock_bytes(),
            worklist_bytes: self.bypass.as_ref().map_or(0, Worklist::bytes),
            ..FootprintReport::default()
        }
    }

    /// The combined inbox re-delivers into the fresh mailboxes.
    fn restore(&mut self, inbox: Vec<Option<P::Message>>, halted: &[bool]) -> Vec<VertexIndex> {
        for (mailbox, m) in self.cur.iter().zip(inbox) {
            if let Some(m) = m {
                mailbox.deliver(m, P::combine);
            }
        }
        self.pending(halted)
    }

    fn snapshot_inbox(&self) -> Vec<Option<P::Message>> {
        self.cur.iter().map(Mailbox::snapshot).collect()
    }

    #[inline]
    fn inbox(&self, v: VertexIndex) -> Option<P::Message> {
        self.cur[v as usize].take()
    }

    /// Deliveries for superstep s+1 are in `next`; make them current.
    fn flip(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    fn select(&self, at: &Barrier<'_>) -> Vec<VertexIndex> {
        match &self.bypass {
            Some(worklist) => bsp::bypass_select(worklist, self.graph.address_map(), at, || {
                self.pending(at.halted)
            }),
            None => self.pending(at.halted),
        }
    }
}

impl<P: VertexProgram, MB: Mailbox<P::Message>, A: NeighborList> Outbound<P::Message>
    for Push<'_, P, MB, A>
{
    fn send(&self, to: VertexId, msg: P::Message) {
        self.deliver(target_slot(self.graph, to), msg);
    }

    fn broadcast(&self, from: VertexIndex, msg: P::Message) -> u64 {
        let mut sent = 0;
        for n in self.adj.neighbors_iter(from) {
            self.deliver(n, msg);
            sent += 1;
        }
        sent
    }

    fn send_along_out_edges(&self, from: VertexIndex, mut f: impl FnMut(Weight) -> P::Message) -> u64 {
        let mut sent = 0;
        for_each_out_edge(self.adj, from, |n, w| {
            self.deliver(n, f(w));
            sent += 1;
        });
        sent
    }
}
