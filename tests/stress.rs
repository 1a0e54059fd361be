//! Heavier randomized stress: larger graphs, every version, adversarial
//! shapes (hubs, long chains, dense cliques, disconnected debris).

use ipregel::{run, CombinerKind, RunConfig, Schedule, Version};
use ipregel_apps::reference;
use ipregel_apps::{Hashmin, KCore, MultiSourceReachability, Sssp};
use ipregel_graph::generators::barabasi::barabasi_albert_edges;
use ipregel_graph::generators::watts_strogatz::watts_strogatz_edges;
use ipregel_graph::transform::symmetrize;
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};

fn build_sym(mut edges: Vec<(u32, u32)>) -> Graph {
    symmetrize(&mut edges);
    let mut b = GraphBuilder::with_capacity(NeighborMode::Both, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build().unwrap()
}

#[test]
fn hub_heavy_graph_all_versions_agree_with_reference() {
    // Preferential attachment → extreme hubs → maximal mailbox contention.
    let g = build_sym(barabasi_albert_edges(3000, 3, 42));
    let expected = reference::minlabel_fixpoint(&g);
    for v in Version::paper_versions() {
        let out = run(&g, &Hashmin, v, &RunConfig::default());
        assert_eq!(out.values, expected, "{}", v.label());
    }
}

#[test]
fn small_world_sssp_under_contention() {
    let g = build_sym(watts_strogatz_edges(4000, 6, 0.1, 7));
    let expected = reference::bfs_levels(&g, 0);
    for v in Version::paper_versions() {
        let out = run(
            &g,
            &Sssp { source: 0 },
            v,
            &RunConfig { threads: Some(8), ..RunConfig::default() },
        );
        assert_eq!(out.values, expected, "{}", v.label());
    }
}

#[test]
fn pathological_chain_with_shortcuts() {
    // A 5000-vertex chain plus shortcuts: worst case for superstep counts
    // with late frontier corrections.
    let mut edges: Vec<(u32, u32)> = (0..4999u32).map(|i| (i, i + 1)).collect();
    for i in (0..4999).step_by(97) {
        edges.push((i, (i + 450) % 5000));
    }
    let g = build_sym(edges);
    let expected = reference::bfs_levels(&g, 2500);
    let bypass = Version { combiner: CombinerKind::Spinlock, selection_bypass: true };
    let scan = Version { combiner: CombinerKind::Spinlock, selection_bypass: false };
    let a = run(&g, &Sssp { source: 2500 }, bypass, &RunConfig::default());
    let b = run(&g, &Sssp { source: 2500 }, scan, &RunConfig::default());
    assert_eq!(a.values, expected);
    assert_eq!(b.values, expected);
}

#[test]
fn disconnected_debris_and_clique_cores() {
    // Dense cliques joined by bridges plus isolated vertices: exercises
    // k-core cascades and component labelling together.
    let mut edges = Vec::new();
    for c in 0..5u32 {
        let base = c * 20;
        for i in 0..10 {
            for j in (i + 1)..10 {
                edges.push((base + i, base + j));
            }
        }
    }
    edges.push((5, 25)); // one bridge between two cliques
    let mut b = GraphBuilder::new(NeighborMode::Both).declare_id_range(0, 120);
    let mut sym = edges;
    symmetrize(&mut sym);
    for (u, v) in sym {
        b.add_edge(u, v);
    }
    let g = b.build().unwrap();

    // Components.
    let expected = reference::minlabel_fixpoint(&g);
    let comp = run(
        &g,
        &Hashmin,
        Version { combiner: CombinerKind::Broadcast, selection_bypass: true },
        &RunConfig::default(),
    );
    assert_eq!(comp.values, expected);

    // 9-core keeps exactly the clique members (bridge endpoints have
    // degree 10 but their neighbours cap out at 9-cliques).
    let core = run(
        &g,
        &KCore { k: 9 },
        Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
        &RunConfig::default(),
    );
    let alive = core.iter().filter(|(_, s)| s.alive).count();
    assert_eq!(alive, 50, "all clique members survive the 9-core");
    let expected_core = ipregel_apps::kcore::kcore_peeling(&g, 9);
    for slot in g.address_map().live_slots() {
        assert_eq!(core.values[slot as usize].alive, expected_core[slot as usize]);
    }
}

#[test]
fn hub_skew_edge_balanced_bounds_chunk_imbalance() {
    // One 60_000-spoke hub on a 100_000-vertex ring: the worst case for
    // vertex-count chunking, which lands the hub plus thousands of ring
    // vertices in one chunk. Every expectation below is derived from
    // the graph itself (vertex counts and degrees), never from RNG
    // streams or measured timings, so the assertions are stable across
    // pool scheduling changes. Which worker executes which chunk *is*
    // timing-dependent (that is the point of a shared queue — and on a
    // CPU-starved CI box it is pure preemption noise), so the achieved-
    // balance assertions below only use bounds that hold for every
    // possible chunk→worker assignment or aggregate over the whole run.
    const N: u32 = 100_000;
    const SPOKES: u32 = 60_000;
    const THREADS: usize = 4;
    let mut edges: Vec<(u32, u32)> = (1..=SPOKES).map(|i| (0, i)).collect();
    edges.extend((0..N).map(|i| (i, (i + 1) % N)));
    let g = build_sym(edges);
    assert_eq!(g.out_degree(0), SPOKES + 2, "hub degree");
    // Planner weight model: degree + 1 per vertex.
    let hub_weight = f64::from(SPOKES + 2 + 1);
    let total_weight = (0..N).map(|v| f64::from(g.out_degree(v) + 1)).sum::<f64>();

    // Cap the run: the ring needs ~N/4 supersteps to converge, but all
    // the load-imbalance signal is in the early full-frontier supersteps.
    let run_with = |schedule| {
        // Grain 1: this test is about the cut and the pool, so every
        // superstep is cut as fine as the planner can, whatever its size.
        let cfg = RunConfig {
            threads: Some(THREADS),
            schedule,
            grain: Some(1),
            max_supersteps: Some(40),
            ..RunConfig::default()
        };
        run(
            &g,
            &Hashmin,
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &cfg,
        )
    };
    let vertex = run_with(Schedule::VertexBalanced);
    let edge = run_with(Schedule::EdgeBalanced);
    let adaptive = run_with(Schedule::Adaptive);

    // Identical computation regardless of chunking.
    assert_eq!(vertex.values, edge.values);
    assert_eq!(vertex.values, adaptive.values);
    assert_eq!(vertex.stats.num_supersteps(), edge.stats.num_supersteps());

    // Every parallel superstep must have recorded its chunk plan.
    for out in [&vertex, &edge, &adaptive] {
        for step in &out.stats.supersteps {
            assert!(step.load.is_some(), "superstep {} lost its load stats", step.superstep);
        }
    }

    // Plan-level imbalance. The unsplittable hub bounds any cut: its
    // chunk weighs at least hub_weight, so with C chunks the max/mean
    // ratio is at least hub_weight·C/total on a full frontier — and
    // edge-balancing must achieve essentially exactly that floor
    // (60_003·16/420_000 ≈ 2.29 here; the pre-stealing suite allowed
    // 3.5 because it recorded raw edges against a degree+1 cut).
    let vb = vertex.stats.worst_edge_imbalance();
    let eb = edge.stats.worst_edge_imbalance();
    assert!(
        eb <= 2.5,
        "edge-balanced planned imbalance must stay near the hub floor \
         (~2.29 for this graph), got {eb}"
    );
    assert!(
        eb + 0.3 < vb,
        "edge-balanced must beat vertex-balanced on a hub graph: eb={eb} vb={vb}"
    );

    // The hub's weight exceeds twice the ideal chunk weight, so the
    // adaptive probe must have picked the edge-balanced cut — and
    // over-partitioned it, so an idle worker takes the next, finer
    // chunk. Find the heaviest superstep
    // of each run (same frontier, by construction of the comparison).
    let heaviest = |stats: &ipregel::RunStats| {
        stats
            .supersteps
            .iter()
            .filter_map(|s| s.load.as_ref())
            .max_by_key(|l| l.chunk_edges.iter().sum::<u64>())
            .expect("parallel run records load")
            .clone()
    };
    let eb_load = heaviest(&edge.stats);
    let ab_load = heaviest(&adaptive.stats);
    assert!(
        ab_load.num_chunks() > eb_load.num_chunks(),
        "adaptive must over-partition beyond the plain edge cut: {} vs {} chunks",
        ab_load.num_chunks(),
        eb_load.num_chunks()
    );
    // Graph-derived ceiling on the finer plan: every chunk weighs less
    // than ideal + heaviest vertex, so the ratio stays below
    // 1 + hub_weight·C/total (≈ 5.6 at 32 chunks).
    let ab = adaptive.stats.worst_edge_imbalance();
    let ab_chunks = ab_load.num_chunks() as f64;
    assert!(
        ab <= 1.0 + hub_weight * ab_chunks / total_weight + 1e-9,
        "over-partitioned plan exceeded the greedy-cut bound: {ab}"
    );

    // What the pool *achieved*: group each chunk's planned weight by
    // the worker that actually executed it. A static one-chunk-per-
    // worker handoff can never do better than its worst single chunk
    // (the hub chunk, ratio ≈ 4.57 on the over-partitioned plan), while
    // *any* dynamic chunk→worker assignment is capped at num_workers
    // (= 4.0, one worker runs everything). A shared queue, where an
    // idle worker takes the next chunk, therefore beats the static
    // baseline on every possible schedule — that gap
    // is exactly what over-partitioning buys, and it holds even when
    // the OS serializes the workers.
    let achieved = ab_load.worker_edge_imbalance(THREADS);
    let planned = ab_load.edge_imbalance();
    assert!(
        achieved < planned,
        "the shared queue must beat the plan's single-chunk imbalance: \
         achieved={achieved} planned={planned}"
    );
    // Aggregate balance over the whole run: per-superstep assignments
    // swing with scheduler timing (a worker that wakes late misses a
    // short superstep entirely), but summed across all 40 supersteps
    // the schedule should spread the weight. Unlike the bounds above,
    // this one is *schedule-dependent* — it needs the OS to actually
    // run the idle workers. On a CPU-starved runner (one core
    // timeslicing all four workers) a single worker can legitimately
    // execute nearly every chunk, driving max/mean toward the
    // any-schedule ceiling of THREADS (= 4.0) — so assert only when
    // the host can run at least two workers concurrently, and against
    // a bound that tolerates the weight landing on two of them
    // (max/mean = 2.0) with slack, rather than demanding a perfect
    // four-way flatten.
    let mut per_worker = vec![0u64; THREADS];
    let mut aggregate_total = 0u64;
    for l in adaptive.stats.supersteps.iter().filter_map(|s| s.load.as_ref()) {
        for (w, e) in l.chunk_workers.iter().zip(&l.chunk_edges) {
            per_worker[(*w as usize).min(THREADS - 1)] += e;
            aggregate_total += e;
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let aggregate = per_worker.iter().copied().max().unwrap_or(0) as f64
        / (aggregate_total as f64 / THREADS as f64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        assert!(
            aggregate <= 3.0,
            "aggregate per-worker weight must flatten across the run: \
             max/mean = {aggregate}, per-worker = {per_worker:?}"
        );
    }
    // And chunks must actually have moved: over the 40 supersteps at
    // least one ran on a worker other than the one that queued it.
    let stolen: u64 =
        adaptive.stats.supersteps.iter().filter_map(|s| s.load.as_ref()).map(|l| l.steals).sum();
    assert!(stolen > 0, "over-partitioned run never moved a chunk between workers");
}

#[test]
fn sixty_four_source_reachability() {
    let g = build_sym(watts_strogatz_edges(1000, 4, 0.05, 3));
    let sources: Vec<u32> = (0..64).map(|i| i * 15).collect();
    let q = MultiSourceReachability::new(sources.clone());
    let expected = ipregel_apps::reachability::reachability_oracle(&g, &sources);
    for v in Version::paper_versions() {
        let out = run(&g, &q, v, &RunConfig::default());
        assert_eq!(out.values, expected, "{}", v.label());
    }
}
