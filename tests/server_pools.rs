//! The resident server splits the machine between its workers: each
//! worker runs its loop inside an engine pool of its own, so a request's
//! parallel regions fork into that pool and never into the global one.
//!
//! Stated on counts, in the `light_supersteps_run_whole_and_spawn_nothing`
//! pattern: the global pool's `spawned` counter must not move while a
//! default server runs requests heavy enough to fork, and the same work
//! started from this (off-pool) thread must move it — so the zero is the
//! server's doing, not a workload too light to fork. (On a one-thread
//! global pool nothing forks at all — every superstep there runs
//! exclusive — and the control says so instead.) The file holds one
//! test, so no other test of this binary touches the global pool
//! meanwhile.

use std::sync::Arc;

use ipregel::{run, CombinerKind, RunConfig, Schedule, Version};
use ipregel_apps::PageRank;
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};
use ipregel_server::{Algorithm, Request, ServerConfig, ServerHandle};

/// The engine planner's fork threshold (`chunks::MIN_FORK_WEIGHT`): a
/// superstep whose active vertices weigh `degree + 1` each, summed,
/// below this runs as one chunk and forks nothing.
const MIN_FORK_WEIGHT: u64 = 16_384;

/// A symmetric mesh on `0..n`: a ring plus arithmetic chords.
fn mesh(n: u32) -> Graph {
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for i in 0..n {
        let ring = (i + 1) % n;
        let chord = (i * 7 + 3) % n;
        b.add_edge(i, ring);
        b.add_edge(ring, i);
        if chord != i {
            b.add_edge(i, chord);
            b.add_edge(chord, i);
        }
    }
    b.build().expect("mesh builds")
}

fn spawned() -> u64 {
    // Called from the test thread, which is on no pool: the global
    // pool's counters.
    ipregel_par::current_pool_stats().spawned
}

#[test]
fn forking_requests_never_reach_the_global_pool() {
    // Built before the first reading: the CSR build forks on the global
    // pool.
    let graph = Arc::new(mesh(20_000));
    let all_active_weight = graph.num_edges() + graph.num_vertices() as u64;
    assert!(
        all_active_weight >= MIN_FORK_WEIGHT,
        "an all-active superstep weighs {all_active_weight}, too light to fork"
    );
    let pagerank = |combiner| Request {
        algorithm: Algorithm::PageRank { rounds: 5, damping: 0.85 },
        combiner,
        bypass: false,
        schedule: Schedule::VertexBalanced,
        deadline: None,
    };
    let requests = [
        pagerank(CombinerKind::Broadcast),
        pagerank(CombinerKind::Spinlock),
        Request { schedule: Schedule::EdgeBalanced, ..Request::new(Algorithm::Components) },
        Request::new(Algorithm::Sssp { source: 0 }),
        Request::new(Algorithm::Bfs { source: 17 }),
    ];

    let before = spawned();
    let server = ServerHandle::start(Arc::clone(&graph), ServerConfig::default());
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| server.submit(r.clone()).expect("request admits"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let out = ticket.wait().unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert!(out.supersteps > 1, "request {i} ran {} supersteps", out.supersteps);
    }
    server.shutdown().reconcile().expect("trace reconciles with stats");
    assert_eq!(spawned(), before, "a server request pushed jobs onto the global pool");

    // Control: the same PageRank orchestrated from off any pool forks
    // into the global pool — unless that pool has one thread, where the
    // driver runs every superstep exclusive on this thread and forks
    // nothing anywhere.
    let before = spawned();
    run(
        &graph,
        &PageRank { rounds: 5, damping: 0.85 },
        Version { combiner: CombinerKind::Broadcast, selection_bypass: false },
        &RunConfig::default(),
    );
    if ipregel_par::current_num_threads() > 1 {
        assert!(spawned() > before, "the control run never forked: the workload is too light");
    } else {
        assert_eq!(spawned(), before, "a one-thread pool forked");
    }
}
