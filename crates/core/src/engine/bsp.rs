//! The one parallel BSP driver (Figure 1), generic over how messages
//! travel between supersteps.
//!
//! Everything a superstep does that is *not* message delivery lives here
//! exactly once: checkpoint restore and save, deadline checks, the chunk
//! plan, panic isolation, chunk timing and pool deltas, the trace spans,
//! master compute, the superstep cap and termination. What the paper's
//! combiner modules differ in is behind [`Delivery`], with two
//! implementations — [`super::push`] (senders write the recipient's
//! mailbox) and [`super::pull`] (recipients read the senders' outboxes).
//! The strategy is a type parameter end to end, so each version is one
//! monomorphised loop, as the C original is one loop under `#ifdef`s.
//!
//! The barrier helpers at the bottom ([`take_resume`],
//! [`checkpoint_if_due`], [`finish`]) are shared with the sequential
//! oracle, which otherwise keeps a loop of its own.

use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ipregel_graph::schedule::Chunk;
use ipregel_graph::{AddressMap, Graph, VertexIndex};
use ipregel_par::prelude::*;

use crate::engine::{
    chunks, panic_message, ChunkPanic, Outbound, RunConfig, RunError, RunOutput, RunResult,
    VertexCtx,
};
use crate::metrics::{FootprintReport, LoadStats, RunStats, SuperstepStats};
use crate::program::{MasterDecision, VertexProgram};
use crate::recover::{DynHooks, ResumeState};
use crate::sync_cell::SharedSlice;
use crate::trace::{self, contention::ContentionSnapshot, TraceEvent, Tracer};

/// How messages travel from the superstep that sends them to the one
/// that reads them, and which vertices that wakes.
///
/// The driver owns values, halted flags, the active list and the clock;
/// a strategy owns the message buffers and the selection state that
/// rides on them. A superstep opens the strategy in one of two ways. A
/// *forked* one ([`Delivery::fork`]) runs its chunks on the pool's
/// workers, each through its own clone of a [`Lane`] that synchronises
/// wherever two threads can meet. An *exclusive* one
/// ([`Delivery::exclusive`]) — a plan of one chunk, or a pool of one
/// thread — runs every chunk in order on the orchestrating thread
/// through one lane holding the strategy alone, so nothing in it is
/// synchronised. Either way the strategy hands the driver its inbox
/// cells, one per slot, which the driver's partition of the active list
/// gives to the one thread running each slot, and each chunk hands its
/// lane's [`ChunkOutput`] back with its tally. The barrier methods take
/// the strategy to themselves; the borrow checker keeps the phases
/// apart.
pub(crate) trait Delivery<P: VertexProgram> {
    /// Engine label of the run's trace.
    const ENGINE: trace::EngineKind;

    /// The mail waiting for one slot, as the strategy keeps it: push's
    /// current mailbox; nothing for pull, whose vertices gather.
    type Inbox: Send;

    /// The lane a forked superstep's chunks each clone.
    type Forked<'s>: Lane<P, Self::Inbox> + Clone + Sync
    where
        Self: 's;

    /// The lane of an exclusive superstep.
    type Exclusive<'s>: Lane<P, Self::Inbox>
    where
        Self: 's;

    /// Open a forked superstep: the inbox cells and the shared lane.
    fn fork(&mut self) -> (&mut [Self::Inbox], Self::Forked<'_>);

    /// Open an exclusive superstep: the inbox cells and the one lane.
    fn exclusive(&mut self) -> (&mut [Self::Inbox], Self::Exclusive<'_>);

    /// Edge-count prefix of the CSR direction a superstep's work follows
    /// (out-edges when senders do the work, in-edges when readers do):
    /// what the chunk planner weighs and cuts.
    fn offsets(&self) -> &[u64];

    /// The strategy's share of the footprint: mailbox, lock and worklist
    /// bytes. The driver fills in graph, values and flags.
    fn footprint(&self) -> FootprintReport;

    /// Adopt a checkpoint's combined inbox as the messages of the
    /// superstep about to run; returns that superstep's active list,
    /// rebuilt by this strategy's own selection rule — which is why a
    /// checkpoint written by any version restores into any other.
    fn restore(&mut self, inbox: Vec<Option<P::Message>>, halted: &[bool]) -> Vec<VertexIndex>;

    /// The combined inbox of the superstep about to run, one optional
    /// message per slot — the engine-neutral shape a checkpoint stores.
    fn snapshot_inbox(&self) -> Vec<Option<P::Message>>;

    /// Barrier: what the superstep sent becomes what the next one reads.
    /// `outputs` are the superstep's chunk outputs, in chunk order.
    fn flip(&mut self, outputs: Vec<ChunkOutput>);

    /// The next superstep's active list: ascending, duplicate-free slots
    /// (the chunk planner's prefix cut needs both).
    fn select(&mut self, at: &Barrier<'_>) -> Vec<VertexIndex>;
}

/// How the vertices one thread runs in a superstep read their mail and
/// send: the [`Outbound`] of every vertex context the thread builds.
pub(crate) trait Lane<P: VertexProgram, I>: Outbound<P::Message> {
    /// The combined message waiting for slot `v`, consumed. `cell` is
    /// `v`'s inbox cell, this thread's alone while `v` runs.
    fn read(&mut self, cell: &mut I, v: VertexIndex) -> Option<P::Message>;

    /// What the lane gathered for the barrier since it was opened or last
    /// asked: called once at the end of every chunk it runs.
    fn take_output(&mut self) -> ChunkOutput;
}

/// What one chunk's lane hands the barrier, beside the chunk's tally.
#[derive(Debug, Default)]
pub(crate) struct ChunkOutput {
    /// Slots the chunk enqueued under the selection bypass, each once per
    /// superstep. An exclusive lane appends to its strategy's own list
    /// instead and hands back nothing here.
    pub enqueued: Vec<VertexIndex>,
    /// Pull: distinct slots with out-edges that wrote their outbox.
    pub wrote: u64,
}

/// What a strategy's selection may look at once a superstep has settled.
pub(crate) struct Barrier<'a> {
    /// Halted flags after the superstep.
    pub halted: &'a [bool],
    /// Messages the superstep sent.
    pub sent: u64,
    /// Vertices that ran and did not vote to halt.
    pub awake: u64,
    /// The superstep about to run.
    pub superstep: usize,
    pub tracer: Option<&'a Tracer>,
}

/// The next active list under the selection bypass (Section 4): every
/// vertex halts each superstep, so next active ≡ message recipients ≡
/// `queued`, what the superstep enqueued. Empties `queued`, keeping its
/// capacity for the next superstep.
///
/// Dense/sparse switch (an extension in the spirit of Ligra): when most
/// vertices are active anyway, `None` tells the strategy to rebuild the
/// ordered list in one slot-order pass, cheaper than sorting the queue;
/// when few are, the sorted drain avoids the O(|V|) pass entirely.
/// Enqueue order follows chunk order, not slot order: sorting restores
/// the scan's sequential memory-access pattern and gives the chunk
/// planner the ascending list its prefix cut needs. O(active log active)
/// on this thread — and close to O(active) after a superstep that ran as
/// one chunk, whose single thread queued its recipients nearly in order.
pub(crate) fn bypass_select(
    queued: &mut Vec<VertexIndex>,
    map: &AddressMap,
    at: &Barrier<'_>,
) -> Option<Vec<VertexIndex>> {
    if queued.len() * 8 >= map.num_vertices() as usize {
        queued.clear();
        return None;
    }
    queued.sort_unstable();
    // Both engines enqueue a vertex once per superstep, so what was
    // queued is the active list of the superstep about to run.
    trace::emit_sync(at.tracer, || TraceEvent::WorklistDrain {
        superstep: at.superstep as u64,
        queued: queued.len() as u64,
        drained: queued.len() as u64,
    });
    let next = queued.clone();
    queued.clear();
    Some(next)
}

/// What one chunk reports back to the barrier. `None` marks a chunk that
/// declined to run at its deadline re-check.
type ChunkOutcome = Result<Option<ChunkTally>, ChunkPanic>;

struct ChunkTally {
    sent: u64,
    /// Vertices executed — fewer than the chunk holds when the pull
    /// scan's unfruitful checks skip halted vertices with no mail.
    ran: u64,
    awake: u64,
    duration: Duration,
    /// The pool worker that ran the chunk (timing-dependent: any idle
    /// worker takes the next chunk, so measured rather than planned).
    worker: u64,
    /// Mailbox contention the worker's thread-local counters saw across
    /// the vertex loop (all zero without the `trace` feature).
    contention: ContentionSnapshot,
    output: ChunkOutput,
}

/// What every chunk of one superstep shares: the program, the driver's
/// per-slot views and the run's clock.
struct Superstep<'a, P: VertexProgram> {
    graph: &'a Graph,
    program: &'a P,
    superstep: usize,
    active: &'a [VertexIndex],
    values: SharedSlice<'a, P::Value>,
    halted: SharedSlice<'a, bool>,
    started: Instant,
    deadline: Option<Duration>,
}

impl<P: VertexProgram> Superstep<'_, P> {
    /// Run chunk `ci` through `lane`, reading its vertices' mail from
    /// `cells`; the tally carries what the lane gathered.
    ///
    /// Chunk-boundary deadline: each chunk re-checks the wall clock
    /// before touching its first vertex, so a single huge superstep
    /// overruns the deadline by at most one chunk's work (grain-sized)
    /// instead of the whole superstep. `Ok(None)` marks a chunk that
    /// declined to run; the barrier turns that into DeadlineExceeded.
    fn run_chunk<I: Send, L: Lane<P, I>>(
        &self,
        cells: &SharedSlice<'_, I>,
        lane: &mut L,
        (ci, c): (usize, &Chunk),
    ) -> ChunkOutcome {
        let active = &self.active[c.start..c.end];
        // A panicking `compute` is caught *inside* the chunk: sibling
        // chunks drain normally and the pool survives; the failure is
        // joined into a `RunError::VertexPanic` at the barrier.
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(deadline) = self.deadline {
                if self.started.elapsed() >= deadline {
                    return None;
                }
            }
            let c_t0 = Instant::now();
            let cont0 = trace::contention::snapshot();
            let (mut sent, mut ran, mut awake) = (0u64, 0u64, 0u64);
            #[cfg(feature = "chaos")]
            crate::chaos::maybe_panic(crate::chaos::CHUNK_PANIC, self.superstep as u64);
            for &v in active {
                // SAFETY: the active list holds distinct slots (scan
                // filters distinct indices; the bypass worklist dedups)
                // and the chunks partition it, so this thread is the only
                // one touching slot `v` of the inbox cells, the halted
                // flags and the values this superstep.
                let inbox = lane.read(&mut *unsafe { cells.get_mut(v as usize) }, v);
                // SAFETY: distinct slots, as above.
                let mut halt_flag = unsafe { self.halted.get_mut(v as usize) };
                if *halt_flag && inbox.is_none() {
                    // Unfruitful check — the cost §6.2 factor (1)
                    // describes for the pull scan, which lists every
                    // vertex. The vertex does not run.
                    continue;
                }
                let mut ctx = VertexCtx::<P, _>::new(self.superstep, self.graph, v, inbox, lane);
                // SAFETY: distinct slots, as above.
                let mut value = unsafe { self.values.get_mut(v as usize) };
                self.program.compute(&mut value, &mut ctx);
                *halt_flag = ctx.halt_vote;
                sent += ctx.sent;
                ran += 1;
                awake += u64::from(!ctx.halt_vote);
            }
            let duration = c_t0.elapsed();
            let contention = trace::contention::snapshot().delta_since(&cont0);
            Some(ChunkTally {
                sent,
                ran,
                awake,
                duration,
                worker: ipregel_par::current_thread_index().unwrap_or(0) as u64,
                contention,
                output: lane.take_output(),
            })
        }))
        .map_err(|payload| ChunkPanic {
            chunk: ci,
            vertex_range: match (active.first(), active.last()) {
                (Some(&first), Some(&last)) => (first, last),
                _ => (0, 0),
            },
            message: panic_message(payload),
        })
    }
}

/// Run `program` on `graph`, messages travelling by `delivery`. The one
/// hooks-taking engine call: every public parallel entry point is this
/// with a strategy and, for the checkpointing ones, a
/// [`crate::recover::RecoveryHooks`]. Call it (and build the strategy)
/// inside [`in_pool`](super::in_pool): chunk counts and push's partials
/// follow the current pool's thread count.
pub(crate) fn drive<P, D>(
    graph: &Graph,
    program: &P,
    config: &RunConfig,
    mut hooks: Option<DynHooks<'_, P::Value, P::Message>>,
    mut delivery: D,
) -> RunResult<P::Value>
where
    P: VertexProgram,
    D: Delivery<P>,
{
    let map = *graph.address_map();
    let slots = graph.num_slots();

    let mut values: Vec<P::Value> =
        (0..slots as u32).map(|s| program.initial_value(map.id_of(s))).collect();
    let mut halted: Vec<bool> = vec![false; slots];

    let footprint = FootprintReport {
        graph_bytes: graph.bytes(),
        values_bytes: slots * std::mem::size_of::<P::Value>(),
        flags_bytes: slots * std::mem::size_of::<bool>(),
        ..delivery.footprint()
    };

    let mut stats = RunStats::default();
    let mut active: Vec<VertexIndex> = map.live_slots().collect();
    let mut superstep = 0usize;
    // Selection for superstep 0 is the trivial all-vertices list.
    let mut selection_duration = Duration::ZERO;
    // Resolve the scheduling policy against the walked direction's
    // offsets once for the whole run.
    let schedule = chunks::resolve(config.schedule, delivery.offsets(), chunks::max_chunks());

    let tracer = config.trace.as_deref();
    trace::emit_sync(tracer, || TraceEvent::RunBegin {
        engine: D::ENGINE,
        slots: slots as u64,
        threads: ipregel_par::current_num_threads() as u64,
    });

    // Restore a pending checkpoint: values, flags and superstep land
    // as-is; the combined inbox goes to the strategy.
    if let Some(state) = take_resume(&mut hooks, slots, &mut stats)? {
        values = state.values;
        halted = state.halted;
        superstep = state.superstep;
        active = delivery.restore(state.inbox, &halted);
        if active.is_empty() {
            return finish(tracer, values, map, stats, footprint);
        }
    }

    let started = Instant::now();
    loop {
        // Barrier-point bookkeeping: the orchestrating thread owns all
        // state here, so checkpoints and cancellation are clean.
        checkpoint_if_due(&mut hooks, tracer, superstep, &values, &halted, &stats, || {
            delivery.snapshot_inbox()
        })?;
        if let Some(deadline) = config.deadline {
            if started.elapsed() >= deadline {
                return Err(RunError::DeadlineExceeded { deadline, superstep, stats });
            }
        }

        trace::emit_sync(tracer, || TraceEvent::SuperstepBegin { superstep: superstep as u64 });
        let t0 = Instant::now();
        let plan = chunks::plan(schedule, &active, slots, delivery.offsets(), config.grain);
        // Scheduler counters: the delta across this superstep's parallel
        // region is what the `pool` trace event and LoadStats report.
        let pool_before = ipregel_par::current_pool_stats();
        // A plan the planner left whole, or any plan on a pool of one
        // thread, is this thread's own work: no scope, no boxed job,
        // nobody woken — and no other thread to meet at a mailbox.
        let exclusive = plan.chunks.len() == 1 || ipregel_par::current_num_threads() == 1;
        let per_chunk: Vec<ChunkOutcome> = {
            let step = Superstep {
                graph,
                program,
                superstep,
                active: &active,
                values: SharedSlice::new(&mut values),
                halted: SharedSlice::new(&mut halted),
                started,
                deadline: config.deadline,
            };
            if exclusive {
                let (cells, mut lane) = delivery.exclusive();
                let cells = SharedSlice::new(cells);
                let chunks = plan.chunks.iter().enumerate();
                chunks.map(|chunk| step.run_chunk(&cells, &mut lane, chunk)).collect()
            } else {
                let (cells, lane) = delivery.fork();
                let cells = SharedSlice::new(cells);
                let chunks = plan.chunks.par_iter().enumerate();
                chunks.map(|chunk| step.run_chunk(&cells, &mut lane.clone(), chunk)).collect()
            }
        };
        let pool_after = ipregel_par::current_pool_stats();
        let (mut sent, mut ran, mut awake) = (0u64, 0u64, 0u64);
        let mut chunk_durations = Vec::with_capacity(per_chunk.len());
        let mut chunk_workers = Vec::with_capacity(per_chunk.len());
        let mut outputs = Vec::with_capacity(per_chunk.len());
        let (mut declined, mut failed) = (false, None);
        for (ci, outcome) in per_chunk.into_iter().enumerate() {
            match outcome {
                Ok(Some(t)) => {
                    // Chunk events reach the log here, on this thread, in
                    // chunk order — a torn superstep's included.
                    trace::emit_sync(tracer, || TraceEvent::Chunk {
                        superstep: superstep as u64,
                        chunk: ci as u64,
                        planned_edges: plan.chunk_edges[ci],
                        duration_ns: trace::ns(t.duration),
                        lock_acquisitions: t.contention.lock_acquisitions,
                        cas_retries: t.contention.cas_retries,
                        spin_iterations: t.contention.spin_iterations,
                        worker: t.worker,
                    });
                    sent += t.sent;
                    ran += t.ran;
                    awake += t.awake;
                    chunk_durations.push(t.duration);
                    chunk_workers.push(t.worker);
                    outputs.push(t.output);
                }
                Ok(None) => declined = true,
                // The first panicking chunk (in chunk order) wins, also
                // over chunks that declined to run.
                Err(panic) => {
                    failed.get_or_insert(panic);
                }
            }
        }
        if let Some(ChunkPanic { chunk, vertex_range, message }) = failed {
            return Err(RunError::VertexPanic { superstep, chunk, vertex_range, message, stats });
        }
        if declined {
            // The torn superstep's partial writes are discarded along with
            // the run state, exactly like the VertexPanic path above.
            let deadline = config.deadline.expect("a chunk declines only when a deadline is set");
            return Err(RunError::DeadlineExceeded { deadline, superstep, stats });
        }

        // The barrier's own delivery work (push's partial flush) belongs
        // to the superstep it closes.
        delivery.flip(outputs);

        let load = LoadStats {
            chunk_edges: plan.chunk_edges,
            chunk_durations,
            chunk_workers,
            steals: pool_after.steals - pool_before.steals,
            overflow: pool_after.overflow - pool_before.overflow,
        };
        let duration = t0.elapsed() + selection_duration;
        // Barrier: the periodic RSS sample, before closing the span.
        trace::barrier(tracer, superstep);
        trace::emit_sync(tracer, || TraceEvent::Pool {
            superstep: superstep as u64,
            steals: load.steals,
            overflow: load.overflow,
        });
        trace::emit_sync(tracer, || TraceEvent::SuperstepEnd {
            superstep: superstep as u64,
            // Executed vertices, not checked ones: the pull scan's
            // unfruitful checks are time, not activity.
            active: ran,
            messages: sent,
            duration_ns: trace::ns(duration),
            selection_ns: trace::ns(selection_duration),
            chunks: load.chunk_edges.len() as u64,
        });
        stats.push(SuperstepStats {
            superstep,
            active: ran,
            messages_sent: sent,
            duration,
            selection_duration,
            load: Some(load),
        });

        if program.master_compute(superstep, &values) == MasterDecision::Halt {
            break;
        }
        superstep += 1;
        if let Some(cap) = config.max_supersteps {
            if superstep >= cap {
                break;
            }
        }

        let sel_t0 = Instant::now();
        active =
            delivery.select(&Barrier { halted: &halted, sent, awake, superstep, tracer });
        selection_duration = sel_t0.elapsed();
        if active.is_empty() {
            break;
        }
    }

    finish(tracer, values, map, stats, footprint)
}

/// Take the hooks' pending resume state, if any: check that it fits a
/// graph of `slots` slots and replay its history into `stats`.
/// [`ResumeState`]'s fields are public and [`crate::recover::RecoveryHooks`] is
/// implementable outside the crate, so every length the engines go on
/// to index by is checked here, once.
pub(crate) fn take_resume<V, M>(
    hooks: &mut Option<DynHooks<'_, V, M>>,
    slots: usize,
    stats: &mut RunStats,
) -> Result<Option<ResumeState<V, M>>, RunError> {
    let Some(state) = hooks.as_deref_mut().and_then(|h| h.take_resume()) else {
        return Ok(None);
    };
    let lens = [state.values.len(), state.halted.len(), state.inbox.len()];
    for (what, len) in ["values", "halted flags", "inbox slots"].into_iter().zip(lens) {
        if len != slots {
            return Err(RunError::Resume(format!(
                "checkpoint has {len} {what}, this graph has {slots} slots"
            )));
        }
    }
    for (i, &(active, messages_sent)) in state.history.iter().enumerate() {
        stats.push(SuperstepStats {
            superstep: i,
            active,
            messages_sent,
            duration: Duration::ZERO,
            selection_duration: Duration::ZERO,
            load: None,
        });
    }
    Ok(Some(state))
}

/// Save the barrier state at the top of `superstep` when the hooks say a
/// checkpoint is due. `inbox` is only called then: building the combined
/// inbox is O(|V|) for push and a full gather for pull.
pub(crate) fn checkpoint_if_due<V, M, I: Deref<Target = [Option<M>]>>(
    hooks: &mut Option<DynHooks<'_, V, M>>,
    tracer: Option<&Tracer>,
    superstep: usize,
    values: &[V],
    halted: &[bool],
    stats: &RunStats,
    inbox: impl FnOnce() -> I,
) -> Result<(), RunError> {
    let Some(h) = hooks.as_deref_mut().filter(|h| h.due(superstep)) else {
        return Ok(());
    };
    let ck_t0 = Instant::now();
    let history: Vec<(u64, u64)> =
        stats.supersteps.iter().map(|s| (s.active, s.messages_sent)).collect();
    h.save(superstep, values, halted, &inbox(), &history)
        .map_err(|source| RunError::Checkpoint { superstep, source })?;
    trace::emit_sync(tracer, || TraceEvent::CheckpointSave {
        superstep: superstep as u64,
        duration_ns: trace::ns(ck_t0.elapsed()),
    });
    Ok(())
}

/// Close the run's trace span and assemble its output.
pub(crate) fn finish<V>(
    tracer: Option<&Tracer>,
    values: Vec<V>,
    map: AddressMap,
    stats: RunStats,
    footprint: FootprintReport,
) -> RunResult<V> {
    trace::emit_sync(tracer, || TraceEvent::RunEnd {
        supersteps: stats.num_supersteps() as u64,
        messages: stats.total_messages(),
        duration_ns: trace::ns(stats.total_time),
    });
    Ok(RunOutput::new(values, map, stats, footprint))
}
