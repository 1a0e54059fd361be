//! The pull engine against the sequential oracle, bit for bit.
//!
//! The pull engine decides per superstep how to read its outboxes: when
//! every vertex that can send did send, a gather may skip the presence
//! test; otherwise it must check each in-neighbour. These programs drive
//! both readings and the switch between them, and hold each run to
//! `seq.rs` exactly: values bitwise, and the per-superstep
//! `(active, messages)` trajectory.
//!
//! * PageRank keeps everyone broadcasting: every gather after the first
//!   superstep may take the dense reading.
//! * Hashmin, with and without the selection bypass: everyone broadcasts
//!   at superstep 0, then fewer and fewer.
//! * [`Broadcaster`] traps: a non-sink vertex that falls silent every
//!   third superstep, alone and beside a sink that broadcasts or a vertex
//!   that broadcasts twice. A sender count inflated by either would make
//!   the silent superstep look complete, and the gather would read the
//!   silent vertex's stale outbox.
//!
//! Every graph adds its edges in ascending source order, so each
//! in-neighbour list is ascending by sender — the order in which the
//! oracle combines — and PageRank's f64 sums agree to the bit. Each run
//! goes through pools of 1, 2 and 4 threads and the global pool, with
//! the superstep cut as finely as possible (`grain: Some(1)`) and left to
//! the planner (`None`, which runs these light supersteps whole on the
//! orchestrating thread), on the plain and the compressed CSR.
//!
//! A graph loaded with `NeighborMode::InOnly` keeps no out-adjacency, so
//! the engine reads its out-degrees from the graph's degree counts
//! instead of the out-CSR's offsets. The `in_only` cases run the same
//! programs on such graphs and hold them to the oracle's run on the
//! `Both` twin, whose in-neighbour lists are the same.

use std::fmt::Debug;

use ipregel::{try_run_pull, try_run_sequential, Context, RunConfig, RunStats, VertexProgram};
use ipregel_apps::{Hashmin, PageRank};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode, VertexId};

/// `(active, messages_sent)` of every superstep, in order.
fn trajectory(stats: &RunStats) -> Vec<(u64, u64)> {
    stats.supersteps.iter().map(|s| (s.active, s.messages_sent)).collect()
}

/// A random graph on ids `base..base + n`: a ring plus up to three random
/// out-edges per vertex, added in ascending source order, except that
/// `sink` has no out-edges at all.
fn graph(seed: u64, n: u32, base: u32, sink: VertexId) -> Graph {
    graph_in(NeighborMode::Both, seed, n, base, sink)
}

/// [`graph`], keeping the neighbour directions `mode` names.
fn graph_in(mode: NeighborMode, seed: u64, n: u32, base: u32, sink: VertexId) -> Graph {
    let mut b = GraphBuilder::new(mode).declare_id_range(base, n);
    let mut x = seed | 1;
    let mut next = |bound: u32| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) as u32) % bound
    };
    for u in base..base + n {
        if u == sink {
            continue;
        }
        b.add_edge(u, base + (u - base + 1) % n);
        for _ in 0..next(4) {
            b.add_edge(u, base + next(n));
        }
    }
    b.build().expect("test graph builds")
}

/// The graphs every program runs on, with a label, the id of their one
/// sink and the id of a vertex that has out-edges. One is 1-based, so
/// slot 0 is desolate.
fn graphs() -> Vec<(String, Graph, VertexId, VertexId)> {
    let mut out = Vec::new();
    for (seed, n, base) in [(7u64, 300u32, 0u32), (11, 257, 1)] {
        let sink = base + n / 3;
        let g = graph(seed, n, base, sink);
        assert_eq!(g.out_degree(g.index_of(sink)), 0);
        let compact = graph(seed, n, base, sink).compress().expect("compresses");
        out.push((format!("seed {seed} plain"), g, sink, base));
        out.push((format!("seed {seed} compact"), compact, sink, base));
    }
    out
}

/// [`graphs`] loaded in-only, each beside its `Both` twin, which the
/// oracle runs on (it sends along out-edges).
fn in_only_graphs() -> Vec<(String, Graph, Graph, VertexId, VertexId)> {
    let mut out = Vec::new();
    for (seed, n, base) in [(7u64, 300u32, 0u32), (11, 257, 1)] {
        let sink = base + n / 3;
        let twin = graph(seed, n, base, sink);
        let g = graph_in(NeighborMode::InOnly, seed, n, base, sink);
        assert!(!g.has_out_edges());
        for v in 0..g.num_slots() as u32 {
            assert_eq!(g.out_degree(v), twin.out_degree(v));
        }
        let compact = g.clone().compress().expect("compresses");
        out.push((format!("seed {seed} in-only plain"), g, twin.clone(), sink, base));
        out.push((format!("seed {seed} in-only compact"), compact, twin, sink, base));
    }
    out
}

/// Run `program` on the pull engine at every pool size and grain and hold
/// each run to the sequential oracle: `key` of every value, and the
/// trajectory.
fn assert_matches_oracle<P, K>(
    label: &str,
    g: &Graph,
    program: &P,
    bypass: bool,
    key: impl Fn(&P::Value) -> K,
) where
    P: VertexProgram,
    K: PartialEq + Debug,
{
    assert_matches_oracle_on(label, g, g, program, bypass, key);
}

/// [`assert_matches_oracle`], with the oracle run on `oracle_graph`.
fn assert_matches_oracle_on<P, K>(
    label: &str,
    g: &Graph,
    oracle_graph: &Graph,
    program: &P,
    bypass: bool,
    key: impl Fn(&P::Value) -> K,
) where
    P: VertexProgram,
    K: PartialEq + Debug,
{
    let oracle =
        try_run_sequential(oracle_graph, program, &RunConfig::default()).expect("oracle runs");
    let want: Vec<K> = oracle.values.iter().map(&key).collect();
    // `None` runs on the global pool from this (non-worker) thread, so a
    // whole superstep runs off-pool.
    for threads in [Some(1), Some(2), Some(4), None] {
        for grain in [Some(1), None] {
            let cfg = RunConfig {
                threads,
                grain,
                selection_bypass: bypass,
                ..RunConfig::default()
            };
            let label = format!("{label} / bypass {bypass} / pool {threads:?} / grain {grain:?}");
            let out = try_run_pull(g, program, &cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
            let got: Vec<K> = out.values.iter().map(&key).collect();
            for (slot, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a, b, "{label}: slot {slot}");
            }
            assert_eq!(trajectory(&out.stats), trajectory(&oracle.stats), "{label}: trajectory");
        }
    }
}

#[test]
fn pagerank_is_bit_identical_to_the_oracle() {
    let program = PageRank { rounds: 12, damping: 0.85 };
    for (label, g, _, _) in graphs() {
        let label = format!("pagerank / {label}");
        assert_matches_oracle(&label, &g, &program, false, |r: &f64| r.to_bits());
    }
}

#[test]
fn hashmin_matches_the_oracle_as_the_frontier_thins() {
    for (label, g, _, _) in graphs() {
        for bypass in [false, true] {
            let label = format!("hashmin / {label}");
            assert_matches_oracle(&label, &g, &Hashmin, bypass, |&c: &u32| c);
        }
    }
}

/// What a vertex hears when nobody wrote to it.
const SILENCE: u64 = 0x5157_ab1e;

/// Every vertex folds what it heard into its value and, for `rounds`
/// supersteps, broadcasts `plan(id, superstep, out_degree)` distinct
/// values. Messages sum, so a stale outbox read changes the fold.
struct Broadcaster {
    rounds: usize,
    plan: Box<dyn Fn(VertexId, usize, u32) -> u32 + Send + Sync>,
}

fn word(id: VertexId, superstep: usize, i: u32) -> u64 {
    let mut z = (u64::from(id) << 32) ^ ((superstep as u64) << 8) ^ u64::from(i);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl VertexProgram for Broadcaster {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, id: VertexId) -> u64 {
        u64::from(id)
    }

    fn compute<C: Context<Message = u64>>(&self, value: &mut u64, ctx: &mut C) {
        let heard = ctx.next_message().unwrap_or(SILENCE);
        *value = value.rotate_left(7) ^ heard;
        let superstep = ctx.superstep();
        if superstep >= self.rounds {
            ctx.vote_to_halt();
            return;
        }
        for i in 0..(self.plan)(ctx.id(), superstep, ctx.out_degree()) {
            ctx.broadcast(word(ctx.id(), superstep, i));
        }
    }

    fn combine(old: &mut u64, new: u64) {
        *old = old.wrapping_add(new);
    }
}

/// Run one plan on every graph, in-only ones too; `plan` gets the
/// graph's sink and its non-sink vertex.
fn assert_plan_matches(name: &str, plan: impl Fn(VertexId, VertexId) -> Broadcaster) {
    for (label, g, sink, sender) in graphs() {
        let program = plan(sink, sender);
        assert_matches_oracle(&format!("{name} / {label}"), &g, &program, false, |&v: &u64| v);
    }
    for (label, g, twin, sink, sender) in in_only_graphs() {
        let program = plan(sink, sender);
        let label = format!("{name} / {label}");
        assert_matches_oracle_on(&label, &g, &twin, &program, false, |&v: &u64| v);
    }
}

#[test]
fn a_sender_falling_silent_keeps_the_superstep_sparse() {
    assert_plan_matches("silent sender", |_, silent| Broadcaster {
        rounds: 10,
        plan: Box::new(move |id, s, degree| {
            u32::from(degree > 0 && !(id == silent && s.is_multiple_of(3)))
        }),
    });
}

#[test]
fn a_broadcasting_sink_does_not_count_as_a_sender() {
    // The one sink broadcasts (to nobody) every superstep; in the
    // supersteps where `silent` is silent, counting the sink would make
    // the count whole again.
    assert_plan_matches("broadcasting sink", |_, silent| Broadcaster {
        rounds: 10,
        plan: Box::new(move |id, s, _| u32::from(!(id == silent && s.is_multiple_of(3)))),
    });
}

#[test]
fn a_second_broadcast_combines_and_counts_once() {
    // One vertex broadcasts twice; counting it twice would make the
    // count whole in the supersteps where `silent` is silent.
    assert_plan_matches("second broadcast", |sink, silent| {
        let twice = if silent + 1 == sink { silent + 2 } else { silent + 1 };
        Broadcaster {
            rounds: 10,
            plan: Box::new(move |id, s, degree| {
                if degree == 0 || (id == silent && s.is_multiple_of(3)) {
                    0
                } else if id == twice {
                    2
                } else {
                    1
                }
            }),
        }
    });
    // And everyone, sinks included, broadcasting twice every superstep.
    assert_plan_matches("everyone twice", |_, _| Broadcaster {
        rounds: 10,
        plan: Box::new(|_, _, _| 2),
    });
}

#[test]
fn in_only_pagerank_is_bit_identical_to_the_oracle() {
    let program = PageRank { rounds: 12, damping: 0.85 };
    for (label, g, twin, _, _) in in_only_graphs() {
        let label = format!("pagerank / {label}");
        assert_matches_oracle_on(&label, &g, &twin, &program, false, |r: &f64| r.to_bits());
    }
}

#[test]
fn in_only_hashmin_matches_the_oracle_as_the_frontier_thins() {
    // The bypass enqueues out-neighbours, so it needs the out-CSR.
    for (label, g, twin, _, _) in in_only_graphs() {
        let label = format!("hashmin / {label}");
        assert_matches_oracle_on(&label, &g, &twin, &Hashmin, false, |&c: &u32| c);
    }
}
