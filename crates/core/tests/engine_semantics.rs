//! Engine-semantics integration tests: BSP delivery, halting and
//! reactivation, bypass/scan equivalence, the Figure 3 API contract.

use ipregel::{run, CombinerKind, Context, MasterDecision, RunConfig, Version, VertexProgram};
use ipregel_graph::{GraphBuilder, NeighborMode, VertexId};

fn graph(edges: &[(u32, u32)]) -> ipregel_graph::Graph {
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build().unwrap()
}

/// Forwards a token down a path, recording the superstep of arrival —
/// checks that messages sent in superstep s arrive exactly in s+1.
struct TokenRelay;

impl VertexProgram for TokenRelay {
    type Value = u32; // superstep at which the token arrived (MAX = never)
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
        u32::MAX
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        if ctx.is_first_superstep() && ctx.id() == 0 {
            *value = 0;
            ctx.broadcast(1);
        } else if let Some(hop) = ctx.next_message() {
            if *value == u32::MAX {
                *value = ctx.superstep() as u32;
                assert_eq!(hop, *value, "token hop count must equal arrival superstep");
                ctx.broadcast(hop + 1);
            }
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
fn bsp_delivery_is_one_superstep_later() {
    let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
    for v in Version::paper_versions() {
        let out = run(&g, &TokenRelay, v, &RunConfig::default());
        for id in 0..5u32 {
            assert_eq!(*out.value_of(id), id, "version {}", v.label());
        }
    }
}

/// Votes to halt immediately and never sends: the run must terminate
/// after superstep 0 (plus the empty follow-up check).
struct HaltImmediately;

impl VertexProgram for HaltImmediately {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
        0
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        *value += 1;
        ctx.vote_to_halt();
    }

    fn combine(_old: &mut u32, _new: u32) {}
}

#[test]
fn quiescence_terminates_the_run() {
    let g = graph(&[(0, 1), (1, 0)]);
    for v in Version::paper_versions() {
        let out = run(&g, &HaltImmediately, v, &RunConfig::default());
        assert_eq!(out.stats.num_supersteps(), 1, "version {}", v.label());
        assert_eq!(*out.value_of(0), 1);
        assert_eq!(*out.value_of(1), 1);
    }
}

/// Never votes to halt: must keep running until the superstep cap.
struct NeverHalts;

impl VertexProgram for NeverHalts {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, _id: VertexId) -> u64 {
        0
    }

    fn compute<C: Context<Message = u64>>(&self, value: &mut u64, _ctx: &mut C) {
        *value += 1;
    }

    fn combine(_old: &mut u64, _new: u64) {}
}

#[test]
fn max_supersteps_caps_a_divergent_program() {
    let g = graph(&[(0, 1)]);
    let cfg = RunConfig { max_supersteps: Some(7), ..RunConfig::default() };
    for combiner in [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast] {
        let out = run(&g, &NeverHalts, Version { combiner, selection_bypass: false }, &cfg);
        assert_eq!(out.stats.num_supersteps(), 7, "{combiner:?}");
        assert_eq!(*out.value_of(0), 7);
    }
}

/// Halted vertices are reactivated by incoming messages (Pregel
/// semantics): vertex 1 halts at superstep 0, vertex 0 pings it at
/// superstep 1, vertex 1 must run again.
struct PingAfterHalt;

impl VertexProgram for PingAfterHalt {
    type Value = u32; // times executed
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
        0
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        *value += 1;
        while ctx.next_message().is_some() {}
        if ctx.id() == 0 {
            if ctx.superstep() < 2 {
                // Stay active without sending; send the ping at superstep 1.
                if ctx.superstep() == 1 {
                    ctx.broadcast(1);
                }
            } else {
                ctx.vote_to_halt();
            }
        } else {
            ctx.vote_to_halt();
        }
    }

    fn combine(old: &mut u32, new: u32) {
        *old += new;
    }
}

#[test]
fn message_reactivates_halted_vertex() {
    let g = graph(&[(0, 1)]);
    // Scan selection only: reactivation-without-halt-everywhere is
    // exactly the pattern the bypass excludes (Section 4's note).
    for combiner in [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast] {
        let out = run(&g, &PingAfterHalt, Version { combiner, selection_bypass: false }, &RunConfig::default());
        // vertex 1 runs at superstep 0 (initially active) and again at
        // superstep 2 (ping reception).
        assert_eq!(*out.value_of(1), 2, "{combiner:?}");
    }
}

/// master_compute can stop the run early.
struct StopAtThree;

impl VertexProgram for StopAtThree {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
        0
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, _ctx: &mut C) {
        *value += 1;
    }

    fn combine(_old: &mut u32, _new: u32) {}

    fn master_compute(&self, superstep: usize, values: &[u32]) -> MasterDecision {
        assert!(!values.is_empty());
        if superstep >= 2 {
            MasterDecision::Halt
        } else {
            MasterDecision::Continue
        }
    }
}

#[test]
fn master_compute_halts_early() {
    let g = graph(&[(0, 1)]);
    for combiner in [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast] {
        let out = run(&g, &StopAtThree, Version { combiner, selection_bypass: false }, &RunConfig::default());
        assert_eq!(out.stats.num_supersteps(), 3, "{combiner:?}");
    }
}

/// Min-plurality flood program used for cross-version equivalence: every
/// vertex floods its id+superstep pattern.
struct MinFlood;

impl VertexProgram for MinFlood {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
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
fn thread_count_does_not_change_results() {
    let edges: Vec<(u32, u32)> = (0..200u32).map(|i| (i, (i * 7 + 3) % 200)).collect();
    let g = graph(&edges);
    let base = run(
        &g,
        &MinFlood,
        Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
        &RunConfig { threads: Some(1), ..RunConfig::default() },
    );
    for threads in [2, 4, 8] {
        for v in Version::paper_versions() {
            let out = run(&g, &MinFlood, v, &RunConfig { threads: Some(threads), ..RunConfig::default() });
            assert_eq!(out.values, base.values, "threads={threads} version={}", v.label());
        }
    }
}

#[test]
fn message_counts_match_across_selection_strategies() {
    // Bypass changes *selection*, not communication: total messages must
    // be identical with and without it.
    let edges: Vec<(u32, u32)> = (0..64u32).flat_map(|i| [(i, (i + 1) % 64), ((i + 1) % 64, i)]).collect();
    let g = graph(&edges);
    let scan = run(
        &g,
        &MinFlood,
        Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
        &RunConfig::default(),
    );
    let bypass = run(
        &g,
        &MinFlood,
        Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
        &RunConfig::default(),
    );
    assert_eq!(scan.stats.total_messages(), bypass.stats.total_messages());
    assert_eq!(scan.values, bypass.values);
}

#[test]
fn bypass_executes_fewer_vertices_on_sparse_activity() {
    // A long path flooded from one end: scan touches every vertex every
    // superstep, bypass runs only the frontier — Section 4's whole point.
    let n = 400u32;
    let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let g = graph(&edges);
    struct SourceFlood;
    impl VertexProgram for SourceFlood {
        type Value = u32;
        type Message = u32;
        fn initial_value(&self, _id: VertexId) -> u32 {
            u32::MAX
        }
        fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
            let mut best = if ctx.id() == 0 { 0 } else { u32::MAX };
            while let Some(m) = ctx.next_message() {
                best = best.min(m);
            }
            if best < *value {
                *value = best;
                ctx.broadcast(best + 1);
            }
            ctx.vote_to_halt();
        }
        fn combine(old: &mut u32, new: u32) {
            if new < *old {
                *old = new;
            }
        }
    }
    let scan = run(
        &g,
        &SourceFlood,
        Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
        &RunConfig::default(),
    );
    let bypass = run(
        &g,
        &SourceFlood,
        Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
        &RunConfig::default(),
    );
    assert_eq!(scan.values, bypass.values);
    // Scan: first superstep runs all n; afterwards only the frontier has
    // messages but the scan still runs them one per superstep → n + (n-1)
    // executions. Bypass: n + (n-1) too for executions, BUT scan-mode
    // executions are a lower bound on its *checks*. The measurable
    // difference in executions appears because scan keeps non-halted
    // vertices... both halt every superstep here, so executions are equal
    // and the win is in selection cost (checks), which stats don't count.
    // What must hold: identical executions and messages.
    assert_eq!(scan.stats.total_vertex_executions(), bypass.stats.total_vertex_executions());
}

#[test]
fn footprints_reflect_version_choices() {
    let g = graph(&[(0, 1), (1, 0)]);
    let mutex = run(&g, &MinFlood, Version { combiner: CombinerKind::Mutex, selection_bypass: false }, &RunConfig::default());
    let spin = run(&g, &MinFlood, Version { combiner: CombinerKind::Spinlock, selection_bypass: false }, &RunConfig::default());
    let pull = run(&g, &MinFlood, Version { combiner: CombinerKind::Broadcast, selection_bypass: false }, &RunConfig::default());
    let spin_bypass = run(&g, &MinFlood, Version { combiner: CombinerKind::Spinlock, selection_bypass: true }, &RunConfig::default());

    // §6.1: the busy-waiting lock is lighter than the block-waiting one.
    assert!(spin.footprint.lock_bytes < mutex.footprint.lock_bytes);
    // §6.2: the pull combiner has zero data-race protection.
    assert_eq!(pull.footprint.lock_bytes, 0);
    // §4: bypass adds worklist memory.
    assert_eq!(spin.footprint.worklist_bytes, 0);
    assert!(spin_bypass.footprint.worklist_bytes > 0);
    // The graph topology is counted identically everywhere.
    assert_eq!(mutex.footprint.graph_bytes, pull.footprint.graph_bytes);
}

#[test]
fn context_exposes_figure3_queries() {
    struct Probe;
    impl VertexProgram for Probe {
        type Value = (u32, u32, usize, bool);
        type Message = u32;
        fn initial_value(&self, _id: VertexId) -> Self::Value {
            (0, 0, 0, false)
        }
        fn compute<C: Context<Message = u32>>(&self, value: &mut Self::Value, ctx: &mut C) {
            *value = (ctx.id(), ctx.out_degree(), ctx.num_vertices(), ctx.is_first_superstep());
            ctx.vote_to_halt();
        }
        fn combine(_old: &mut u32, _new: u32) {}
    }
    let g = graph(&[(0, 1), (0, 2), (1, 2)]);
    for v in Version::paper_versions() {
        let out = run(&g, &Probe, v, &RunConfig::default());
        assert_eq!(*out.value_of(0), (0, 2, 3, true), "{}", v.label());
        assert_eq!(*out.value_of(1), (1, 1, 3, true));
        assert_eq!(*out.value_of(2), (2, 0, 3, true));
    }
}

#[test]
fn pull_engine_rejects_point_to_point_send() {
    struct Sender;
    impl VertexProgram for Sender {
        type Value = u32;
        type Message = u32;
        fn initial_value(&self, _id: VertexId) -> u32 {
            0
        }
        fn compute<C: Context<Message = u32>>(&self, _value: &mut u32, ctx: &mut C) {
            ctx.send(0, 1);
        }
        fn combine(_old: &mut u32, _new: u32) {}
    }
    let g = graph(&[(0, 1)]);
    let result = std::panic::catch_unwind(|| {
        run(&g, &Sender, Version { combiner: CombinerKind::Broadcast, selection_bypass: false }, &RunConfig { threads: Some(1), ..RunConfig::default() })
    });
    assert!(result.is_err());
}

#[test]
fn one_based_graphs_run_on_desolate_memory() {
    // The paper's datasets are 1-based and run under desolate memory;
    // engines must skip the dead slot everywhere.
    let mut b = GraphBuilder::new(NeighborMode::Both);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    b.add_edge(3, 1);
    let g = b.build().unwrap();
    assert_eq!(g.num_slots(), g.num_vertices() + 1);
    for v in Version::paper_versions() {
        let out = run(&g, &MinFlood, v, &RunConfig::default());
        assert_eq!(*out.value_of(1), 1, "{}", v.label());
        assert_eq!(*out.value_of(2), 1);
        assert_eq!(*out.value_of(3), 1);
        // Every superstep ran exactly the live vertices at most.
        assert!(out.stats.peak_active() <= 3);
    }
}
