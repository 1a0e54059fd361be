//! The superstep engines: shared configuration, results, the one
//! parallel BSP driver and its two delivery strategies.
//!
//! [`bsp`] owns the loop of Figure 1: select active vertices, run
//! `compute` on them in parallel (the `ipregel_par` pool stands in for the paper's
//! OpenMP), deliver messages, synchronise, repeat until no vertex is
//! active and no message is in flight. [`push`] and [`pull`] are what
//! the paper's combiner modules differ in — where a message waits
//! between supersteps — and plug into that loop as monomorphised
//! strategies. [`seq`] is the differential oracle and keeps a loop of
//! its own.

pub(crate) mod bsp;
pub mod chunks;
pub mod pull;
pub mod push;
pub mod seq;

use std::sync::Arc;
use std::time::Duration;

use ipregel_graph::csr::Weight;
use ipregel_graph::{
    AddressMap, Graph, NeighborList, OutDegrees, Relabeling, VertexId, VertexIndex,
};

pub use crate::engine::chunks::Schedule;
use crate::metrics::{FootprintReport, RunStats};
use crate::program::{Context, VertexProgram};

/// Knobs common to every engine version.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Enable the selection bypass of Section 4. Only sound for programs
    /// whose vertices vote to halt every superstep (Hashmin, SSSP — not
    /// PageRank); the engine trusts the caller, exactly as iPregel trusts
    /// the user's compile flag.
    pub selection_bypass: bool,
    /// Size of the thread pool; `None` uses the global default. The paper
    /// runs with 2 OpenMP threads on its 2-core EC2 instances.
    pub threads: Option<usize>,
    /// Safety cap on supersteps; `None` runs to quiescence.
    pub max_supersteps: Option<usize>,
    /// Minimum vertices per chunk on average (load-balancing grain).
    /// `None` — the default — leaves it to the planner: a superstep whose
    /// frontier weighs less than a fork costs runs as one chunk on the
    /// orchestrating thread, anything heavier is cut as finely as
    /// `Some(1)` would cut it. `Some(1)` always cuts as fine as the
    /// planner can; `Some(usize::MAX)` never cuts. Results depend on it
    /// only as they depend on [`RunConfig::schedule`].
    pub grain: Option<usize>,
    /// How each superstep's active list is cut into parallel chunks —
    /// the answer to the load-balancing problem the paper's conclusion
    /// leaves open. [`Schedule::VertexBalanced`] (the default) cuts equal
    /// vertex counts, [`Schedule::EdgeBalanced`] cuts equal edge weights
    /// by binary-searching the CSR offsets, [`Schedule::Adaptive`] probes
    /// the degree distribution once per run and picks. Scheduling changes
    /// which thread runs which vertex, so push `f64` sums may regroup at
    /// two threads or more (the suites hold them to a relative 1e-9 of
    /// the sequential oracle); pull, integer and min/max results are
    /// bit-identical under every policy. Per-chunk effects are reported
    /// in [`crate::metrics::LoadStats`].
    pub schedule: Schedule,
    /// Cooperative wall-clock budget for the whole run, checked at each
    /// superstep barrier and again at every chunk boundary inside the
    /// superstep (every 256 executed vertices in the sequential engine),
    /// so a single huge superstep cannot blow past the budget by more
    /// than one chunk's work. A superstep interrupted mid-flight is
    /// discarded wholesale — the fallible entry points return
    /// [`RunError::DeadlineExceeded`] carrying the [`RunStats`] of every
    /// *completed* superstep, exactly as if the run had stopped at the
    /// preceding barrier. `None` (the default) runs to quiescence.
    pub deadline: Option<Duration>,
    /// Observability sink (see [`crate::trace`]). `None` — the default —
    /// records nothing; `Some` records the run's events, in every
    /// build: the run's frame, one span per completed superstep, and
    /// checkpoint saves and restores. Shared as an `Arc` so the caller
    /// keeps a handle to drain with
    /// [`crate::trace::Tracer::take_events`] after the run.
    pub trace: Option<std::sync::Arc<crate::trace::Tracer>>,
}

/// Why a fallible run stopped before quiescence.
///
/// The engines fail *at barriers*: a panicking vertex program is caught
/// inside its chunk (the other chunks of that superstep drain normally,
/// the thread pool survives), a missed deadline is noticed at the next
/// superstep boundary, and checkpoint I/O happens only while the engine
/// is quiescent. Every variant that interrupts a run therefore carries
/// the [`RunStats`] of the supersteps that *did* complete.
#[derive(Debug)]
pub enum RunError {
    /// A vertex program panicked inside `compute` (or `combine`).
    VertexPanic {
        /// Superstep in which the panic fired.
        superstep: usize,
        /// Index of the panicking chunk within that superstep's plan.
        chunk: usize,
        /// First and last slot of the panicking chunk — the panic came
        /// from some vertex in this (inclusive) range.
        vertex_range: (VertexIndex, VertexIndex),
        /// The panic payload, if it was a string (the common case).
        message: String,
        /// Stats for every superstep that completed before the panic.
        stats: RunStats,
    },
    /// The cooperative [`RunConfig::deadline`] elapsed.
    DeadlineExceeded {
        /// The configured budget.
        deadline: Duration,
        /// The superstep that would have run next.
        superstep: usize,
        /// Stats for every completed superstep.
        stats: RunStats,
    },
    /// Writing a checkpoint failed (see [`crate::recover`]).
    Checkpoint {
        /// The superstep whose barrier state was being saved.
        superstep: usize,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Restoring from a checkpoint failed: none found, or the snapshot
    /// does not fit the graph/program it is being restored into.
    Resume(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::VertexPanic { superstep, chunk, vertex_range, message, .. } => write!(
                f,
                "vertex program panicked in superstep {superstep} (chunk {chunk}, slots \
                 {}..={}): {message}",
                vertex_range.0, vertex_range.1
            ),
            RunError::DeadlineExceeded { deadline, superstep, .. } => {
                write!(f, "deadline of {deadline:?} exceeded before superstep {superstep}")
            }
            RunError::Checkpoint { superstep, source } => {
                write!(f, "checkpoint at superstep {superstep} failed: {source}")
            }
            RunError::Resume(why) => write!(f, "resume failed: {why}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Checkpoint { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Result type of the fallible engine entry points (`try_run*`).
pub type RunResult<V> = Result<RunOutput<V>, RunError>;

/// Bounded retry with doubling backoff for transient failures: the
/// first attempt runs at once, each failed attempt `k` sleeps
/// `base_backoff × 2^(k-1)` before the next, and after `max_attempts`
/// total attempts the error propagates. The server retries panicked
/// engine attempts under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts before the error propagates (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub base_backoff: Duration,
}

crate::impl_to_json!(RetryPolicy { max_attempts, base_backoff });

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_backoff: Duration::from_millis(1) }
    }
}

/// What a chunk's `catch_unwind` caught, before it is joined with the
/// superstep context into a [`RunError::VertexPanic`].
pub(crate) struct ChunkPanic {
    pub chunk: usize,
    pub vertex_range: (VertexIndex, VertexIndex),
    pub message: String,
}

/// Best-effort extraction of a panic payload as text.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Where a running vertex's sends go — the engine-specific half of a
/// [`Context`]. `send_along_out_edges` returns how many messages it put
/// in flight, for the superstep's statistics; a broadcast puts exactly
/// `degree` in flight, which the context counts itself.
///
/// The receiver is `&mut`: each thread running vertices sends through an
/// outbound of its own, which may hold the strategy exclusively (see
/// [`bsp::Lane`]).
pub(crate) trait Outbound<M> {
    /// Deliver `msg` to the vertex with identifier `to`.
    fn send(&mut self, to: VertexId, msg: M);
    /// Deliver `msg` to every out-neighbour of slot `from`, which has
    /// `degree` of them.
    fn broadcast(&mut self, from: VertexIndex, degree: u32, msg: M);
    /// Deliver `f(weight)` along every out-edge of slot `from`.
    fn send_along_out_edges(&mut self, from: VertexIndex, f: impl FnMut(Weight) -> M) -> u64;
}

/// What every vertex context of one superstep reads besides the vertex's
/// own state, resolved from the graph once per run: its vertex count,
/// its addressing and a flat view of its out-degrees.
#[derive(Clone, Copy)]
pub(crate) struct VertexEnv<'g> {
    pub superstep: usize,
    num_vertices: usize,
    map: AddressMap,
    degrees: OutDegrees<'g>,
}

impl<'g> VertexEnv<'g> {
    /// The environment of `graph`'s superstep 0.
    pub(crate) fn of(graph: &'g Graph) -> Self {
        VertexEnv {
            superstep: 0,
            num_vertices: graph.num_vertices(),
            map: *graph.address_map(),
            degrees: graph.out_degrees(),
        }
    }
}

/// The [`Context`] every in-tree engine hands to `compute`: the running
/// vertex's own state lives here, its sends go through the engine's
/// [`Outbound`] — a type parameter, and every method inlines, so
/// `compute`, its context and the outbox or mailbox write compile to
/// one per-vertex body.
pub(crate) struct VertexCtx<'a, P: VertexProgram, O> {
    env: &'a VertexEnv<'a>,
    v: VertexIndex,
    inbox: Option<P::Message>,
    out: &'a mut O,
    /// Messages this execution sent.
    pub sent: u64,
    /// Whether this execution voted to halt.
    pub halt_vote: bool,
}

impl<'a, P: VertexProgram, O> VertexCtx<'a, P, O> {
    #[inline]
    pub(crate) fn new(
        env: &'a VertexEnv<'a>,
        v: VertexIndex,
        inbox: Option<P::Message>,
        out: &'a mut O,
    ) -> Self {
        VertexCtx { env, v, inbox, out, sent: 0, halt_vote: false }
    }
}

impl<P: VertexProgram, O: Outbound<P::Message>> Context for VertexCtx<'_, P, O> {
    type Message = P::Message;

    #[inline]
    fn superstep(&self) -> usize {
        self.env.superstep
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.env.num_vertices
    }

    #[inline]
    fn id(&self) -> VertexId {
        self.env.map.id_of(self.v)
    }

    #[inline]
    fn out_degree(&self) -> u32 {
        self.env.degrees.get(self.v)
    }

    #[inline]
    fn next_message(&mut self) -> Option<P::Message> {
        self.inbox.take()
    }

    #[inline]
    fn send(&mut self, to: VertexId, msg: P::Message) {
        self.out.send(to, msg);
        self.sent += 1;
    }

    #[inline]
    fn broadcast(&mut self, msg: P::Message) {
        let degree = self.out_degree();
        self.out.broadcast(self.v, degree, msg);
        self.sent += u64::from(degree);
    }

    #[inline]
    fn vote_to_halt(&mut self) {
        self.halt_vote = true;
    }

    #[inline]
    fn send_along_out_edges(&mut self, f: impl FnMut(Weight) -> P::Message) {
        self.sent += self.out.send_along_out_edges(self.v, f);
    }
}

/// The slot a point-to-point send addresses.
///
/// # Panics
/// If `to` is not an identifier of `graph` — a bug in the vertex program.
#[inline]
pub(crate) fn target_slot(graph: &Graph, to: VertexId) -> VertexIndex {
    let map = graph.address_map();
    assert!(
        map.contains(to),
        "send to unknown vertex id {to} (graph holds ids {}..{})",
        map.base(),
        u64::from(map.base()) + graph.num_vertices() as u64,
    );
    graph.index_of(to)
}

/// Visit every out-edge of `v` as `(target slot, weight)`; the weight is
/// 1 on unweighted graphs.
#[inline]
pub(crate) fn for_each_out_edge<A: NeighborList>(
    adj: &A,
    v: VertexIndex,
    mut visit: impl FnMut(VertexIndex, Weight),
) {
    match adj.weights_of(v) {
        Some(ws) => adj.neighbors_iter(v).zip(ws).for_each(|(n, &w)| visit(n, w)),
        None => adj.neighbors_iter(v).for_each(|n| visit(n, 1)),
    }
}

/// Fold `msg` into a single-message slot (Section 6.3: a mailbox holds at
/// most one message, filled or combined into).
#[inline]
pub(crate) fn combine_into<P: VertexProgram>(slot: &mut Option<P::Message>, msg: P::Message) {
    match slot.as_mut() {
        Some(old) => P::combine(old, msg),
        None => *slot = Some(msg),
    }
}

/// The result of a run: final vertex values plus measurements.
#[derive(Debug, Clone)]
pub struct RunOutput<V> {
    /// Final value of every slot (desolate slots hold their initial value).
    pub values: Vec<V>,
    /// The graph's addressing, for id-keyed access.
    map: AddressMap,
    /// Per-superstep measurements.
    pub stats: RunStats,
    /// Exact byte accounting of the engine's allocations.
    pub footprint: FootprintReport,
    /// When the graph was relabelled before the run, the permutation
    /// that maps the caller's original ids to the dense ids the values
    /// are keyed by. `value_of` and `iter` translate through it so the
    /// relabelling is invisible to id-keyed consumers.
    relabeling: Option<Arc<Relabeling>>,
}

impl<V> RunOutput<V> {
    /// Assemble a run result. Public so alternative engines (the
    /// sequential oracle, the naive `femtograph-sim` baseline, external
    /// experiments) can return the same type the built-in engines do.
    pub fn new(
        values: Vec<V>,
        map: AddressMap,
        stats: RunStats,
        footprint: FootprintReport,
    ) -> Self {
        RunOutput { values, map, stats, footprint, relabeling: None }
    }

    /// Attach the relabelling that produced the graph this run executed
    /// on, so lookups accept the original (pre-relabel) ids.
    #[must_use]
    pub fn with_relabeling(mut self, relabeling: Arc<Relabeling>) -> Self {
        self.relabeling = Some(relabeling);
        self
    }

    /// Final value of the vertex with external identifier `id` (the
    /// original id if the run was relabelled).
    pub fn value_of(&self, id: VertexId) -> &V {
        let id = match &self.relabeling {
            Some(r) => r.new_id(id),
            None => id,
        };
        &self.values[self.map.index_of(id) as usize]
    }

    /// Iterate `(external id, value)` over live vertices. Without a
    /// relabelling the order is ascending id; with one it is the
    /// relabelled (descending-degree) order, yielding original ids.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &V)> + '_ {
        self.map.live_slots().map(move |s| {
            let id = self.map.id_of(s);
            let id = match &self.relabeling {
                Some(r) => r.old_id(id),
                None => id,
            };
            (id, &self.values[s as usize])
        })
    }

    /// Number of (live) vertices.
    pub fn num_vertices(&self) -> usize {
        self.map.num_vertices() as usize
    }
}

/// Run `f` on a dedicated pool of `threads` threads, or inline on the
/// global pool.
pub(crate) fn in_pool<R: Send>(threads: Option<usize>, f: impl FnOnce() -> R + Send) -> R {
    match threads {
        None => f(),
        Some(t) => ipregel_par::ThreadPoolBuilder::new()
            .num_threads(t.max(1))
            .build()
            .expect("failed to build thread pool")
            .install(f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn run_output_accessors() {
        let map = AddressMap::desolate(1, 3);
        let out = RunOutput::new(
            vec![0u32, 10, 20, 30],
            map,
            RunStats::default(),
            FootprintReport::default(),
        );
        assert_eq!(*out.value_of(1), 10);
        assert_eq!(*out.value_of(3), 30);
        let pairs: Vec<_> = out.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(pairs, vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(out.num_vertices(), 3);
    }

    #[test]
    fn run_output_translates_through_relabeling() {
        use ipregel_graph::transform::degree_relabeling;
        use ipregel_graph::{GraphBuilder, NeighborMode};

        // Out-degrees: 2 → 2 edges, 1 → 1 edge, 0 → none, so the
        // descending-degree permutation is new [0, 1, 2] = old [2, 1, 0].
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(2, 0);
        b.add_edge(2, 1);
        b.add_edge(1, 0);
        let g = b.build().unwrap();
        let r = Arc::new(degree_relabeling(&g));

        // Values are keyed by the dense relabelled ids; lookups use the
        // original ids and must translate through the permutation.
        let out = RunOutput::new(
            vec![100u32, 101, 102],
            AddressMap::direct(3),
            RunStats::default(),
            FootprintReport::default(),
        )
        .with_relabeling(r);
        assert_eq!(*out.value_of(2), 100);
        assert_eq!(*out.value_of(1), 101);
        assert_eq!(*out.value_of(0), 102);
        let pairs: Vec<_> = out.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(pairs, vec![(2, 100), (1, 101), (0, 102)]);
    }

    #[test]
    fn in_pool_respects_thread_count() {
        let threads = in_pool(Some(3), ipregel_par::current_num_threads);
        assert_eq!(threads, 3);
        let _ = in_pool(None, || Duration::ZERO);
    }
}
