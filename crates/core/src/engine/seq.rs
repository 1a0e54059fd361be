//! A deliberately simple single-threaded reference engine.
//!
//! Not one of the paper's versions: this engine exists as a *differential
//! oracle*. It implements BSP semantics with the most obvious possible
//! data structures (two `Vec<Option<M>>` buffers, a linear scan, no
//! locks, no worklists), so its behaviour is easy to audit by eye. The
//! test suites run every optimised version against it on randomised
//! inputs; any divergence convicts the optimisation, not the program.
//!
//! It is also the only engine with a guaranteed deterministic message
//! arrival order (ascending sender slot), which makes it useful for
//! debugging user programs whose combine is accidentally order-sensitive.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ipregel_graph::csr::Weight;
use ipregel_graph::{Adjacency, Graph, NeighborList, VertexId, VertexIndex};

use crate::engine::{
    bsp, combine_into, for_each_out_edge, panic_message, target_slot, Outbound, RunConfig,
    RunError, RunOutput, RunResult, VertexCtx, VertexEnv,
};
use crate::metrics::{FootprintReport, LoadStats, RunStats, SuperstepStats};
use crate::program::{MasterDecision, VertexProgram};
use crate::recover::DynHooks;
use crate::trace::{self, contention::ContentionSnapshot, TraceEvent};

/// Run `program` on `graph` single-threaded with scan selection.
///
/// `config.threads` and `config.selection_bypass` are ignored (this
/// engine is the plain baseline); `config.max_supersteps` is honoured.
///
/// # Panics
/// On a graph without out-edges, a send to an unknown identifier, or any
/// [`RunError`] — the historical infallible surface. Fault-tolerant
/// callers use [`try_run_sequential`].
pub fn run_sequential<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    config: &RunConfig,
) -> RunOutput<P::Value> {
    try_run_sequential(graph, program, config).unwrap_or_else(|e| panic!("run_sequential: {e}"))
}

/// Fallible [`run_sequential`]: vertex panics surface as
/// [`RunError::VertexPanic`] (the whole superstep is one chunk here), a
/// missed [`RunConfig::deadline`] as [`RunError::DeadlineExceeded`].
pub fn try_run_sequential<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    config: &RunConfig,
) -> RunResult<P::Value> {
    try_run_sequential_recoverable(graph, program, config, None)
}

/// [`try_run_sequential`] with checkpoint/restore hooks (see
/// [`crate::recover`]). The baseline's inbox buffer already *is* the
/// checkpoint's inbox shape, so save and restore are direct copies.
pub fn try_run_sequential_recoverable<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    config: &RunConfig,
    hooks: Option<DynHooks<'_, P::Value, P::Message>>,
) -> RunResult<P::Value> {
    assert!(graph.has_out_edges(), "the sequential engine routes sends through out-adjacency");
    // One representation dispatch per run (see push.rs).
    match graph.out_adj().expect("asserted above") {
        Adjacency::Plain(csr) => run_seq_inner(graph, csr, program, config, hooks),
        Adjacency::Compact(c) => run_seq_inner(graph, c, program, config, hooks),
    }
}

fn run_seq_inner<P: VertexProgram, A: NeighborList>(
    graph: &Graph,
    out_adj: &A,
    program: &P,
    config: &RunConfig,
    mut hooks: Option<DynHooks<'_, P::Value, P::Message>>,
) -> RunResult<P::Value> {
    let map = *graph.address_map();
    let slots = graph.num_slots();
    let env = VertexEnv::of(graph);

    let mut values: Vec<P::Value> =
        (0..slots as u32).map(|s| program.initial_value(map.id_of(s))).collect();
    let mut halted = vec![false; slots];
    let mut cur: Vec<Option<P::Message>> = vec![None; slots];
    let mut next: Vec<Option<P::Message>> = vec![None; slots];

    let footprint = FootprintReport {
        graph_bytes: graph.bytes(),
        values_bytes: slots * std::mem::size_of::<P::Value>(),
        mailbox_bytes: 2 * slots * std::mem::size_of::<Option<P::Message>>(),
        flags_bytes: slots,
        ..FootprintReport::default()
    };

    let mut stats = RunStats::default();
    let mut superstep = 0usize;

    let tracer = config.trace.as_deref();
    trace::emit_sync(tracer, || TraceEvent::RunBegin {
        engine: trace::EngineKind::Seq,
        slots: slots as u64,
        threads: 1,
    });

    // Restore a pending checkpoint: this engine's inbox buffer has the
    // checkpoint's exact shape, so the state drops straight in.
    if let Some(state) = bsp::take_resume(&mut hooks, slots, &mut stats)? {
        values = state.values;
        halted = state.halted;
        cur = state.inbox;
        superstep = state.superstep;
    }

    let started = Instant::now();
    loop {
        bsp::checkpoint_if_due(
            &mut hooks,
            tracer,
            superstep,
            &values,
            &halted,
            &stats,
            || &cur[..],
        )?;
        if let Some(deadline) = config.deadline.filter(|&d| started.elapsed() >= d) {
            return Err(RunError::DeadlineExceeded { deadline, superstep, stats });
        }

        let t0 = Instant::now();
        // One implicit chunk: catch a panicking `compute` and surface it
        // as the same `VertexPanic` the parallel engines produce.
        let step = catch_unwind(AssertUnwindSafe(|| {
            let mut out = SeqOut::<P, A> { graph, adj: out_adj, next: &mut next };
            let env = VertexEnv { superstep, ..env };
            let (mut sent, mut active, mut edges) = (0u64, 0u64, 0u64);
            #[cfg(feature = "chaos")]
            crate::chaos::maybe_panic(crate::chaos::CHUNK_PANIC, superstep as u64);
            for v in map.live_slots() {
                let inbox = cur[v as usize].take();
                if halted[v as usize] && inbox.is_none() {
                    continue;
                }
                // Chunk-boundary deadline, sequential analogue: re-check
                // the wall clock every 256 executed vertices so one huge
                // superstep overruns the deadline by a bounded slice, not
                // the whole vertex set. The torn superstep is discarded.
                let late = |d| started.elapsed() >= d;
                if active.is_multiple_of(256) && config.deadline.is_some_and(late) {
                    return None;
                }
                active += 1;
                edges += u64::from(graph.out_degree(v));
                let mut ctx = VertexCtx::<P, _>::new(&env, v, inbox, &mut out);
                // `values[v]` and the context borrow disjoint state.
                let mut value = values[v as usize].clone();
                program.compute(&mut value, &mut ctx);
                sent += ctx.sent;
                halted[v as usize] = ctx.halt_vote;
                values[v as usize] = value;
            }
            Some((sent, active, edges))
        }));
        let (sent, active, edges) = match step {
            Ok(Some(t)) => t,
            Ok(None) => {
                let deadline = config.deadline.expect("None only when a deadline is set");
                return Err(RunError::DeadlineExceeded { deadline, superstep, stats });
            }
            Err(payload) => {
                return Err(RunError::VertexPanic {
                    superstep,
                    chunk: 0,
                    vertex_range: (0, (slots as u32).saturating_sub(1)),
                    message: panic_message(payload),
                    stats,
                })
            }
        };
        let duration = t0.elapsed();
        let entry = SuperstepStats {
            superstep,
            active,
            messages_sent: sent,
            duration,
            // The baseline fuses its check into the vertex loop; no
            // separable selection phase exists to time.
            selection_duration: std::time::Duration::ZERO,
            // Single-threaded: the whole superstep is one chunk, the
            // trivial (and trivially balanced) case of the schedulers.
            // Weight matches the parallel planners' unit: edges visited
            // plus one per active vertex.
            load: Some(LoadStats {
                chunk_edges: vec![edges + active],
                chunk_durations: vec![duration],
                // No pool involved: the one chunk runs on the caller,
                // and no mailbox has a lock.
                chunk_workers: vec![0],
                chunk_contention: vec![ContentionSnapshot::default()],
                steals: 0,
                overflow: 0,
            }),
        };
        trace::render_superstep(tracer, &entry);
        stats.push(entry);
        std::mem::swap(&mut cur, &mut next);

        if program.master_compute(superstep, &values) == MasterDecision::Halt {
            break;
        }
        superstep += 1;
        if config.max_supersteps.is_some_and(|cap| superstep >= cap) {
            break;
        }
        let any_pending =
            map.live_slots().any(|v| !halted[v as usize] || cur[v as usize].is_some());
        if !any_pending {
            break;
        }
    }

    bsp::finish(tracer, values, map, stats, footprint)
}

/// Where the oracle's sends go: straight into the one `next` buffer, in
/// program order.
struct SeqOut<'a, P: VertexProgram, A: NeighborList> {
    graph: &'a Graph,
    /// The out-adjacency in its concrete representation.
    adj: &'a A,
    next: &'a mut [Option<P::Message>],
}

impl<P: VertexProgram, A: NeighborList> Outbound<P::Message> for SeqOut<'_, P, A> {
    fn send(&mut self, to: VertexId, msg: P::Message) {
        combine_into::<P>(&mut self.next[target_slot(self.graph, to) as usize], msg);
    }

    fn broadcast(&mut self, from: VertexIndex, _degree: u32, msg: P::Message) {
        self.send_along_out_edges(from, |_| msg);
    }

    fn send_along_out_edges(
        &mut self,
        from: VertexIndex,
        mut f: impl FnMut(Weight) -> P::Message,
    ) -> u64 {
        let mut sent = 0;
        for_each_out_edge(self.adj, from, |n, w| {
            combine_into::<P>(&mut self.next[n as usize], f(w));
            sent += 1;
        });
        sent
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::program::Context;
    use crate::version::{try_run, CombinerKind, Version};
    use ipregel_graph::{GraphBuilder, NeighborMode};

    pub(crate) struct Flood;
    impl VertexProgram for Flood {
        type Value = u32;
        type Message = u32;
        fn initial_value(&self, _id: u32) -> u32 {
            u32::MAX
        }
        fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
            let mut best = ctx.id();
            while let Some(m) = ctx.next_message() {
                best = best.min(m);
            }
            if best < *value {
                *value = best;
                ctx.broadcast(best);
            }
            ctx.vote_to_halt();
        }
        fn combine(old: &mut u32, new: u32) {
            if new < *old {
                *old = new;
            }
        }
    }

    #[test]
    fn sequential_matches_parallel() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for i in 0..40u32 {
            b.add_edge(i, (i * 7 + 1) % 40);
            b.add_edge((i * 3 + 2) % 40, i);
        }
        let g = b.build().unwrap();
        let seq = run_sequential(&g, &Flood, &RunConfig::default());
        let spin = Version { combiner: CombinerKind::Spinlock, selection_bypass: false };
        let par = try_run(&g, &Flood, spin, &RunConfig::default()).unwrap();
        assert_eq!(seq.values, par.values);
        assert_eq!(seq.stats.total_messages(), par.stats.total_messages());
    }

    #[test]
    fn sequential_is_deterministic() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for i in 0..20u32 {
            b.add_edge(i, (i + 1) % 20);
        }
        let g = b.build().unwrap();
        let a = run_sequential(&g, &Flood, &RunConfig::default());
        let b2 = run_sequential(&g, &Flood, &RunConfig::default());
        assert_eq!(a.values, b2.values);
        assert_eq!(a.stats.supersteps.len(), b2.stats.supersteps.len());
    }

    #[test]
    fn honours_superstep_cap() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build().unwrap();
        struct Chatty;
        impl VertexProgram for Chatty {
            type Value = u64;
            type Message = u64;
            fn initial_value(&self, _id: u32) -> u64 {
                0
            }
            fn compute<C: Context<Message = u64>>(&self, value: &mut u64, ctx: &mut C) {
                *value += 1;
                ctx.broadcast(1);
            }
            fn combine(old: &mut u64, new: u64) {
                *old += new;
            }
        }
        let out = run_sequential(
            &g,
            &Chatty,
            &RunConfig { max_supersteps: Some(5), ..RunConfig::default() },
        );
        assert_eq!(out.stats.num_supersteps(), 5);
        assert_eq!(*out.value_of(0), 5);
    }
}
