//! The push engine's sender-side partials against the sequential oracle.
//!
//! On the compact CSR each pool worker combines what it sends to a slot
//! below the partial span into a private buffer, and the barrier folds
//! every worker's buffer into the mailboxes. These runs hold that to
//! `seq.rs` on compact graphs, with every superstep cut as finely as the
//! planner can (`grain: Some(1)`) on pools of 1, 2 and 4 threads:
//!
//! * a star whose every leaf sends to slot 0 — all traffic is one hub;
//! * a graph with more slots than an integer message's span, so sends go
//!   both through the partials and straight to the mailboxes;
//! * a degree-relabelled Wikipedia analog — the benchmark's graph, small.
//!
//! SSSP (selection bypass on and off), BFS and Hashmin must match the
//! oracle exactly, values and the per-superstep `(active, messages)`
//! trajectory. PageRank must be bit-identical on one thread — each
//! superstep one chunk, or cut into chunks that a pool of one runs in
//! order, exclusive, delivering straight into the mailboxes — and within a
//! relative 1e-9 once chunks fork onto two threads or more. A run cut mid-way and resumed
//! from its checkpoint must equal the uninterrupted one: the snapshot is
//! taken after the partials are folded in.
//!
//! Without the bypass, a superstep in which every live vertex stayed
//! awake selects every live slot without a scan; that shortcut is held to
//! the oracle on a graph whose live slots start above 0, and the scan on a
//! program where some vertices halt.

use std::fmt::Debug;

use ipregel::engine::push::partial_slots;
use ipregel::recover::{run_packed_with_checkpoints, CheckpointConfig, Persist};
use ipregel::{
    try_run_packed, try_run_sequential, CombinerKind, Context, PackMessage, RunConfig, RunOutput,
    RunStats, Version, VertexProgram,
};
use ipregel_apps::{Bfs, Hashmin, PageRank, Sssp};
use ipregel_graph::generators::analogs::WIKIPEDIA;
use ipregel_graph::transform::{degree_relabeling, relabel_graph};
use ipregel_graph::{AddressingMode, Graph, GraphBuilder, NeighborMode, VertexId};

const POOLS: [usize; 3] = [1, 2, 4];
const PUSH: [CombinerKind; 3] =
    [CombinerKind::Spinlock, CombinerKind::Mutex, CombinerKind::LockFree];

/// `(active, messages_sent)` of every superstep, in order.
fn trajectory(stats: &RunStats) -> Vec<(u64, u64)> {
    stats.supersteps.iter().map(|s| (s.active, s.messages_sent)).collect()
}

fn compact(b: GraphBuilder) -> Graph {
    b.build().expect("test graph builds").compress().expect("compresses")
}

/// Hub 0 and `leaves` leaves, an edge each way between the hub and every
/// leaf.
fn star(leaves: u32) -> Graph {
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for leaf in 1..=leaves {
        b.add_edge(0, leaf);
        b.add_edge(leaf, 0);
    }
    compact(b)
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
    compact(b)
}

/// The Wikipedia analog at 1/2000 scale, hubs first, compressed.
fn wiki() -> Graph {
    let g = WIKIPEDIA.analog_graph(2000, 7, NeighborMode::Both);
    relabel_graph(&g, &degree_relabeling(&g)).expect("relabels").compress().expect("compresses")
}

/// Every graph, labelled, with a source vertex that has out-edges.
fn graphs() -> Vec<(&'static str, Graph, VertexId)> {
    let both = ring_and_chords(partial_slots::<u32>() as u32 + 4096, 11);
    assert!(both.num_slots() > partial_slots::<u32>(), "sends must also bypass the partials");
    let wiki = wiki();
    let source = wiki.id_of(0);
    vec![("star", star(3000), 0), ("past the span", both, 3), ("wiki analog", wiki, source)]
}

fn cfg(threads: usize, bypass: bool) -> RunConfig {
    RunConfig {
        threads: Some(threads),
        grain: Some(1),
        selection_bypass: bypass,
        ..RunConfig::default()
    }
}

fn run_push<P>(
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

/// Every push mailbox at every pool size, values and trajectory equal to
/// the oracle's.
fn assert_exact<P>(label: &str, g: &Graph, program: &P, bypass: bool)
where
    P: VertexProgram,
    P::Value: PartialEq + Debug,
    P::Message: PackMessage,
{
    let oracle = try_run_sequential(g, program, &RunConfig::default()).expect("oracle runs");
    for threads in POOLS {
        for combiner in PUSH {
            let label = format!("{label} / {combiner:?} / bypass {bypass} / pool {threads}");
            let out = run_push(g, program, combiner, &cfg(threads, bypass));
            for (slot, (a, b)) in out.values.iter().zip(&oracle.values).enumerate() {
                assert_eq!(a, b, "{label}: slot {slot}");
            }
            assert_eq!(trajectory(&out.stats), trajectory(&oracle.stats), "{label}: trajectory");
        }
    }
}

#[test]
fn sssp_matches_the_oracle_with_and_without_the_bypass() {
    for (label, g, source) in graphs() {
        for bypass in [false, true] {
            assert_exact(&format!("sssp / {label}"), &g, &Sssp { source }, bypass);
        }
    }
}

#[test]
fn bfs_and_hashmin_match_the_oracle() {
    for (label, g, source) in graphs() {
        assert_exact(&format!("bfs / {label}"), &g, &Bfs { source }, true);
        assert_exact(&format!("hashmin / {label}"), &g, &Hashmin, false);
    }
}

#[test]
fn pagerank_is_bit_identical_on_one_thread_and_close_on_more() {
    let program = PageRank { rounds: 10, damping: 0.85 };
    for (label, g, _) in graphs() {
        let oracle = try_run_sequential(&g, &program, &RunConfig::default()).expect("oracle runs");
        for combiner in PUSH {
            // One thread, one chunk: vertices run in slot order, so each
            // mailbox combines its messages in the oracle's order.
            let label = format!("pagerank / {label} / {combiner:?}");
            let whole = RunConfig { grain: Some(usize::MAX), ..cfg(1, false) };
            let out = run_push(&g, &program, combiner, &whole);
            assert_eq!(trajectory(&out.stats), trajectory(&oracle.stats), "{label}: one chunk");
            for (slot, (a, b)) in out.values.iter().zip(&oracle.values).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{label} / one chunk: slot {slot}");
            }
            // Cut into chunks: a pool of one runs them in order on one
            // thread, so the sums group as the oracle's do; forked, chunk
            // placement and the partials regroup them.
            for threads in POOLS {
                let out = run_push(&g, &program, combiner, &cfg(threads, false));
                assert_eq!(trajectory(&out.stats), trajectory(&oracle.stats), "{label}");
                for (slot, (&a, &b)) in out.values.iter().zip(&oracle.values).enumerate() {
                    if threads == 1 {
                        assert_eq!(a.to_bits(), b.to_bits(), "{label} / pool 1: slot {slot}");
                        continue;
                    }
                    let diff = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
                    assert!(
                        diff < 1e-9,
                        "{label} / pool {threads}: slot {slot} diverged by {diff}"
                    );
                }
            }
        }
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ipregel-partials-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cut a run mid-way with a checkpoint per superstep, resume it, and
/// demand the uninterrupted run's values and history.
fn assert_resume_matches<P>(label: &str, g: &Graph, program: &P, bypass: bool, tag: &str)
where
    P: VertexProgram,
    P::Value: Persist + PartialEq + Debug,
    P::Message: Persist + PackMessage,
{
    // One thread: the resumed run must equal the whole one bit for bit,
    // which a PageRank at several threads promises only to 1e-9.
    let cfg = cfg(1, bypass);
    let version = Version { combiner: CombinerKind::Spinlock, selection_bypass: bypass };
    let whole = run_push(g, program, CombinerKind::Spinlock, &cfg);
    let cut = (whole.stats.num_supersteps() / 2).max(2);
    let dir = tempdir(tag);
    let cut_cfg = RunConfig { max_supersteps: Some(cut), ..cfg.clone() };
    run_packed_with_checkpoints(g, program, version, &cut_cfg, &CheckpointConfig::new(&dir, 1))
        .unwrap_or_else(|e| panic!("{label}: interrupted run: {e}"));
    let resumed = run_packed_with_checkpoints(
        g,
        program,
        version,
        &cfg,
        &CheckpointConfig::new(&dir, 1).resuming(),
    )
    .unwrap_or_else(|e| panic!("{label}: resume: {e}"));
    assert_eq!(resumed.values, whole.values, "{label}: values");
    assert_eq!(trajectory(&resumed.stats), trajectory(&whole.stats), "{label}: history");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resumed_run_equals_the_uninterrupted_one() {
    for (i, (label, g, source)) in graphs().into_iter().enumerate() {
        for bypass in [false, true] {
            let tag = format!("sssp-{i}-{bypass}");
            assert_resume_matches(&format!("sssp / {label}"), &g, &Sssp { source }, bypass, &tag);
        }
        let pagerank = PageRank { rounds: 6, damping: 0.85 };
        assert_resume_matches(
            &format!("pagerank / {label}"),
            &g,
            &pagerank,
            false,
            &format!("pr-{i}"),
        );
    }
}

/// The count-based form of the gain: on a star whose leaves only send to
/// the hub, every message of a superstep targets one mailbox, the workers
/// combine it into their partials, and the orchestrating thread folds the
/// partials through `deliver_mut` — so no lock is taken anywhere, in a
/// chunk or in the fold, at any pool size, and the hub still gets its
/// mail. The fold runs on the orchestrating thread alone, so that
/// thread's counters hold every lock it could take.
#[test]
fn a_hub_mailbox_takes_no_lock_on_the_compact_csr() {
    use std::sync::Arc;

    use ipregel::trace::{contention, TraceEvent, Tracer};
    use ipregel_par::ThreadPoolBuilder;

    const LEAVES: u32 = 3000;
    const ROUNDS: usize = 5;
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for leaf in 1..=LEAVES {
        b.add_edge(leaf, 0);
    }
    let g = compact(b);
    let program = PageRank { rounds: ROUNDS, damping: 0.85 };
    let oracle = try_run_sequential(&g, &program, &RunConfig::default()).expect("oracle runs");
    for threads in POOLS {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
        let tracer = Arc::new(Tracer::new());
        let config =
            RunConfig { grain: Some(1), trace: Some(Arc::clone(&tracer)), ..RunConfig::default() };
        // Run from inside the pool with no pool of the run's own, so the
        // orchestrating thread — the one that folds the partials into the
        // mailboxes — is this closure's, and its counters can be read.
        let (out, me, on_me) = pool.install(|| {
            let before = contention::snapshot();
            let out = run_push(&g, &program, CombinerKind::Spinlock, &config);
            let me = ipregel_par::current_thread_index().expect("install runs on a worker") as u64;
            (out, me, contention::snapshot().delta_since(&before).lock_acquisitions)
        });
        // Per chunk: its lock acquisitions and the worker that ran it.
        let chunks: Vec<(u64, u64)> = tracer
            .take_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Chunk { lock_acquisitions, worker, .. } => {
                    Some((*lock_acquisitions, *worker))
                }
                _ => None,
            })
            .collect();
        let sending = out.stats.supersteps.iter().filter(|s| s.messages_sent > 0).count() as u64;
        assert_eq!(
            out.stats.total_messages(),
            u64::from(LEAVES) * sending,
            "pool {threads}: every leaf sends to the hub in every sending superstep"
        );
        // Chunks take no lock: inbox reads go through the running
        // vertex's own cell, and no message reached a mailbox from a
        // chunk.
        let in_chunks: u64 = chunks.iter().map(|&(locks, _)| locks).sum();
        assert_eq!(in_chunks, 0, "pool {threads}: a chunk locked a mailbox");
        // The orchestrator ran chunks too; what it locked outside them is
        // the fold's, and the fold owns the slots it delivers to.
        let flush =
            on_me - chunks.iter().filter(|&&(_, w)| w == me).map(|&(locks, _)| locks).sum::<u64>();
        assert_eq!(flush, 0, "pool {threads}: the fold locked a mailbox");
        // The hub's mail arrived: its rank is the oracle's.
        let hub = g.index_of(0) as usize;
        let (a, b) = (out.values[hub], oracle.values[hub]);
        assert!((a - b).abs() <= 1e-9 * b.abs(), "pool {threads}: hub rank {a} against {b}");
    }
}

/// Max-label propagation where even identifiers stay awake through
/// superstep `awake_until` and odd ones halt every time they run, woken
/// only by mail: selection without the bypass meets awake and halted
/// vertices at once, so it must scan.
struct HalfAwake {
    awake_until: usize,
}

impl VertexProgram for HalfAwake {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, id: VertexId) -> u32 {
        id
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        let mut best = *value;
        while let Some(m) = ctx.next_message() {
            best = best.max(m);
        }
        if best > *value || ctx.is_first_superstep() {
            *value = best;
            ctx.broadcast(best);
        }
        if ctx.id() % 2 == 1 || ctx.superstep() >= self.awake_until {
            ctx.vote_to_halt();
        }
    }

    fn combine(old: &mut u32, new: u32) {
        *old = (*old).max(new);
    }
}

#[test]
fn push_without_the_bypass_selects_what_the_oracle_runs() {
    // Identifiers 1..=n: desolate addressing, slot 0 dead. PageRank keeps
    // every live vertex awake, so selection takes every live slot without
    // a scan — slot 0 must stay out of it.
    let n = 20_000u32;
    let mut b = GraphBuilder::new(NeighborMode::Both);
    let mut x = 7u64;
    for u in 1..=n {
        b.add_edge(u, u % n + 1);
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        b.add_edge(u, (x >> 33) as u32 % n + 1);
    }
    let g = compact(b);
    assert_eq!(g.address_map().mode(), AddressingMode::DesolateMemory);
    assert_eq!(g.address_map().live_slots().next(), Some(1));
    let pagerank = PageRank { rounds: 8, damping: 0.85 };
    let oracle = try_run_sequential(&g, &pagerank, &RunConfig::default()).expect("oracle runs");
    for threads in POOLS {
        for combiner in PUSH {
            let label = format!("pagerank / desolate / {combiner:?} / pool {threads}");
            let out = run_push(&g, &pagerank, combiner, &cfg(threads, false));
            assert_eq!(trajectory(&out.stats), trajectory(&oracle.stats), "{label}");
            for (slot, (&a, &b)) in out.values.iter().zip(&oracle.values).enumerate() {
                let diff = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
                assert!(diff < 1e-9, "{label}: slot {slot} diverged by {diff}");
            }
        }
    }
    // Some awake, some halted: the scan decides, on both graphs.
    let half = HalfAwake { awake_until: 3 };
    assert_exact("half awake / desolate", &g, &half, false);
    assert_exact("half awake / wiki analog", &wiki(), &half, false);
}
