//! Exclusive supersteps against the sequential oracle.
//!
//! The driver runs a superstep on the orchestrating thread alone — every
//! chunk in order, the strategy unshared, push deliveries unlocked — when
//! the plan has one chunk or the pool has one thread, and forks it
//! otherwise. These runs hold every push mailbox and the pull engine,
//! with the selection bypass on and off, on the plain and the compact
//! CSR, to `seq.rs` in five shapes:
//!
//! * whole — `grain: Some(usize::MAX)` on a pool of two: exclusive by plan;
//! * a pool of one with `grain: Some(1)`: exclusive by pool, many chunks;
//! * forked at two and at four threads, `grain: Some(1)`;
//! * `threads: None`, `grain: Some(1)`, called from the test thread,
//!   which is no pool worker: supersteps fork onto the global pool or,
//!   when the frontier fits one chunk, run on that off-pool thread.
//!
//! Integer results must be bit-identical, PageRank's `f64` within a
//! relative 1e-9 (bit-identical for push in an exclusive shape), and the
//! per-superstep `(active, messages)` trajectory —
//! supersteps, messages and executions — equal. PageRank keeps every
//! vertex awake, so it runs without the bypass only. With `--features
//! trace` a count claim rides along: an exclusive superstep takes no
//! mailbox lock at all.

use std::fmt::Debug;

use ipregel::{
    try_run_packed, try_run_sequential, CombinerKind, PackMessage, RunConfig, RunOutput, RunStats,
    Version, VertexProgram,
};
use ipregel_apps::{Bfs, Hashmin, PageRank, Sssp};
use ipregel_graph::generators::analogs::WIKIPEDIA;
use ipregel_graph::transform::{degree_relabeling, relabel_graph};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode, VertexId};

/// The push mailboxes and the pull engine.
const ENGINES: [CombinerKind; 4] = [
    CombinerKind::Mutex,
    CombinerKind::Spinlock,
    CombinerKind::LockFree,
    CombinerKind::Broadcast,
];

/// A way to cut and place a run's supersteps.
struct Shape {
    label: &'static str,
    /// Every superstep runs on the orchestrating thread alone.
    exclusive: bool,
    cfg: RunConfig,
}

/// The five shapes.
fn shapes(bypass: bool) -> Vec<Shape> {
    let shape = |label, exclusive, threads, grain| Shape {
        label,
        exclusive,
        cfg: RunConfig {
            threads,
            grain: Some(grain),
            selection_bypass: bypass,
            ..RunConfig::default()
        },
    };
    vec![
        shape("whole", true, Some(2), usize::MAX),
        shape("one-thread pool", true, Some(1), 1),
        shape("forked at 2", false, Some(2), 1),
        shape("forked at 4", false, Some(4), 1),
        // Exclusive or forked by the global pool's size and the frontier.
        shape("off-pool caller", false, None, 1),
    ]
}

/// `(active, messages_sent)` of every superstep, in order.
fn trajectory(stats: &RunStats) -> Vec<(u64, u64)> {
    stats.supersteps.iter().map(|s| (s.active, s.messages_sent)).collect()
}

/// A ring over `n` vertices plus up to three random out-edges each.
fn ring_and_chords(n: u32, seed: u64) -> Graph {
    let mut b = GraphBuilder::new(NeighborMode::Both).declare_id_range(0, n);
    let mut x = seed | 1;
    let mut next = |bound: u32| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) as u32) % bound
    };
    for u in 0..n {
        b.add_edge(u, (u + 1) % n);
        for _ in 0..next(4) {
            b.add_edge(u, next(n));
        }
    }
    b.build().expect("test graph builds")
}

/// The Wikipedia analog at 1/2000 scale, hubs first.
fn wiki() -> Graph {
    let g = WIKIPEDIA.analog_graph(2000, 7, NeighborMode::Both);
    relabel_graph(&g, &degree_relabeling(&g)).expect("relabels")
}

/// Every graph on both representations, labelled, with a source vertex
/// that has out-edges.
fn graphs() -> Vec<(String, Graph, VertexId)> {
    let ring = || ring_and_chords(3000, 11);
    let mut out = Vec::new();
    for (label, make) in [("ring", &ring as &dyn Fn() -> Graph), ("wiki analog", &wiki)] {
        let plain = make();
        let source = plain.id_of(0);
        out.push((format!("{label} / plain"), plain, source));
        out.push((format!("{label} / compact"), make().compress().expect("compresses"), source));
    }
    out
}

fn run_engine<P>(
    g: &Graph,
    program: &P,
    combiner: CombinerKind,
    cfg: &RunConfig,
) -> RunOutput<P::Value>
where
    P: VertexProgram,
    P::Message: PackMessage,
{
    let version = Version { combiner, selection_bypass: cfg.selection_bypass };
    try_run_packed(g, program, version, cfg).unwrap_or_else(|e| panic!("{}: {e}", version.label()))
}

/// Every push mailbox and the pull engine in every shape, with the
/// bypass on and off where the program allows it, held to the oracle by
/// `same_values` (told whether the run combines in the oracle's order:
/// push in an exclusive shape — pull combines in in-CSR order).
fn assert_matches_oracle<P>(
    label: &str,
    g: &Graph,
    program: &P,
    bypass: &[bool],
    same_values: impl Fn(&P::Value, &P::Value, bool) -> bool,
) where
    P: VertexProgram,
    P::Value: Debug,
    P::Message: PackMessage,
{
    let oracle = try_run_sequential(g, program, &RunConfig::default()).expect("oracle runs");
    for &bypass in bypass {
        for shape in shapes(bypass) {
            for combiner in ENGINES {
                let label = format!("{label} / {combiner:?} / bypass {bypass} / {}", shape.label);
                let out = run_engine(g, program, combiner, &shape.cfg);
                let (got, want) = (trajectory(&out.stats), trajectory(&oracle.stats));
                assert_eq!(got, want, "{label}: trajectory");
                let in_order = shape.exclusive && combiner != CombinerKind::Broadcast;
                for (slot, (a, b)) in out.values.iter().zip(&oracle.values).enumerate() {
                    assert!(
                        same_values(a, b, in_order),
                        "{label}: slot {slot}: {a:?} vs oracle {b:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn sssp_bfs_and_hashmin_are_bit_identical_to_the_oracle() {
    let same = |a: &u32, b: &u32, _| a == b;
    for (label, g, source) in graphs() {
        let both = [false, true];
        assert_matches_oracle(&format!("sssp / {label}"), &g, &Sssp { source }, &both, same);
        assert_matches_oracle(&format!("bfs / {label}"), &g, &Bfs { source }, &both, same);
        assert_matches_oracle(&format!("hashmin / {label}"), &g, &Hashmin, &both, same);
    }
}

/// Within 1e-9 in every shape — and bit-identical for push in an
/// exclusive one, whose one thread runs the vertices in slot order and
/// combines each mailbox's messages in the oracle's order.
#[test]
fn pagerank_is_within_1e9_of_the_oracle_and_exact_when_exclusive() {
    let program = PageRank { rounds: 8, damping: 0.85 };
    let close = |a: &f64, b: &f64, in_order: bool| {
        let diff = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        if in_order {
            a.to_bits() == b.to_bits()
        } else {
            diff < 1e-9
        }
    };
    for (label, g, _) in graphs() {
        assert_matches_oracle(&format!("pagerank / {label}"), &g, &program, &[false], close);
    }
}

/// The count-based form of the gain: an exclusive superstep's chunks take
/// no mailbox lock — neither for the inbox reads nor for the deliveries —
/// and a forked superstep on the plain CSR, whose sends meet at shared
/// mailboxes, does take them.
#[test]
fn an_exclusive_superstep_takes_no_mailbox_lock() {
    use std::sync::Arc;

    use ipregel::trace::{contention, TraceEvent, Tracer};
    use ipregel_par::ThreadPoolBuilder;

    /// Chunk events and the run's lock acquisitions on this thread.
    fn traced<P: VertexProgram>(
        g: &Graph,
        program: &P,
        combiner: CombinerKind,
        cfg: RunConfig,
    ) -> (RunOutput<P::Value>, Vec<u64>, u64)
    where
        P::Message: PackMessage,
    {
        let tracer = Arc::new(Tracer::new());
        let cfg = RunConfig { trace: Some(Arc::clone(&tracer)), ..cfg };
        let before = contention::snapshot();
        let out = run_engine(g, program, combiner, &cfg);
        let on_me = contention::snapshot().delta_since(&before).lock_acquisitions;
        let chunks = tracer
            .take_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Chunk { lock_acquisitions, .. } => Some(*lock_acquisitions),
                _ => None,
            })
            .collect();
        (out, chunks, on_me)
    }

    let g = ring_and_chords(3000, 11);
    let program = Sssp { source: 0 };
    for combiner in [CombinerKind::Mutex, CombinerKind::Spinlock] {
        for bypass in [false, true] {
            let label = format!("{combiner:?} / bypass {bypass}");
            let cfg = |threads: Option<usize>, grain: usize| RunConfig {
                threads,
                grain: Some(grain),
                selection_bypass: bypass,
                ..RunConfig::default()
            };

            // Whole: one chunk per superstep, on this thread.
            let (out, chunks, on_me) = traced(&g, &program, combiner, cfg(None, usize::MAX));
            assert_eq!(chunks.len(), out.stats.num_supersteps(), "{label}: one chunk each");
            assert!(out.stats.total_messages() > 0, "{label}: the run sends");
            assert_eq!(chunks.iter().sum::<u64>(), 0, "{label} / whole: a chunk locked");
            assert_eq!(on_me, 0, "{label} / whole: the run locked");

            // A pool of one, every superstep cut fine: run from inside the
            // pool with no pool of the run's own, so every chunk and every
            // barrier is this closure's thread, and its counters can be
            // read.
            let pool = ThreadPoolBuilder::new().num_threads(1).build().expect("pool builds");
            let (out, chunks, on_me) =
                pool.install(|| traced(&g, &program, combiner, cfg(None, 1)));
            assert!(chunks.len() > out.stats.num_supersteps(), "{label}: supersteps were cut");
            assert_eq!(chunks.iter().sum::<u64>(), 0, "{label} / pool of one: a chunk locked");
            assert_eq!(on_me, 0, "{label} / pool of one: the run locked");

            // Forked on the plain CSR: no partials, so deliveries lock.
            let (_, chunks, _) = traced(&g, &program, combiner, cfg(Some(2), 1));
            assert!(chunks.iter().sum::<u64>() > 0, "{label} / forked: deliveries must lock");
        }
    }
}
