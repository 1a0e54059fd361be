//! Property tests: every engine version — and the Pregel+ simulator —
//! computes the same results as the sequential references, on randomised
//! graphs.
//!
//! This is the backbone correctness argument of the reproduction: the
//! paper's six versions differ only in *how* they select, address and
//! combine; their observable semantics must be identical.

use ipregel::{
    run, run_packed, try_run_sequential, CombinerKind, RunConfig, RunStats, Schedule, Version,
};
use ipregel_apps::reference;
use ipregel_apps::{Bfs, Hashmin, MultiHops, PageRank, Sssp, WeightedSssp};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};
use pregelplus_sim::{simulate, ClusterSpec, CostModel, MemoryModel};
use proptest::prelude::*;

/// Random directed graph on up to 60 vertices with 1-based ids half the
/// time, so desolate memory is exercised too.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u32..60, 1usize..250, any::<u64>(), any::<bool>()).prop_map(|(n, m, seed, one_based)| {
        let base = u32::from(one_based);
        let mut b = GraphBuilder::new(NeighborMode::Both).declare_id_range(base, n);
        let mut x = seed | 1;
        for _ in 0..m {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = base + ((x >> 33) as u32) % n;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = base + ((x >> 33) as u32) % n;
            b.add_edge(u, v);
        }
        b.build().expect("arb graph builds")
    })
}

fn all_versions() -> Vec<Version> {
    Version::paper_versions().to_vec()
}

/// `(active, messages_sent)` of every superstep, in order.
fn trajectory(stats: &RunStats) -> Vec<(u64, u64)> {
    stats.supersteps.iter().map(|s| (s.active, s.messages_sent)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn sssp_matches_bfs_reference_on_all_versions(g in arb_graph()) {
        let base = g.address_map().base();
        let source = base; // always a live vertex
        let expected = reference::bfs_levels(&g, source);
        for v in all_versions() {
            let out = run(&g, &Sssp { source }, v, &RunConfig::default());
            for slot in g.address_map().live_slots() {
                prop_assert_eq!(
                    out.values[slot as usize], expected[slot as usize],
                    "version {} slot {}", v.label(), slot
                );
            }
        }
    }

    #[test]
    fn hashmin_matches_minlabel_fixpoint(g in arb_graph()) {
        let expected = reference::minlabel_fixpoint(&g);
        for v in all_versions() {
            let out = run(&g, &Hashmin, v, &RunConfig::default());
            for slot in g.address_map().live_slots() {
                prop_assert_eq!(
                    out.values[slot as usize], expected[slot as usize],
                    "version {} slot {}", v.label(), slot
                );
            }
        }
    }

    #[test]
    fn bfs_matches_reference(g in arb_graph()) {
        let source = g.address_map().base();
        let expected = reference::bfs_levels(&g, source);
        for v in all_versions() {
            let out = run(&g, &Bfs { source }, v, &RunConfig::default());
            for slot in g.address_map().live_slots() {
                prop_assert_eq!(out.values[slot as usize], expected[slot as usize]);
            }
        }
    }

    #[test]
    fn pagerank_matches_power_iteration(g in arb_graph()) {
        let rounds = 12;
        let expected = reference::pagerank_power(&g, rounds, 0.85);
        for combiner in [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast] {
            let out = run(
                &g,
                &PageRank { rounds, damping: 0.85 },
                Version { combiner, selection_bypass: false },
                &RunConfig::default(),
            );
            let diff = reference::max_rel_diff(&g, &out.values, &expected);
            prop_assert!(diff < 1e-9, "combiner {combiner:?} diverged by {diff}");
        }
    }

    #[test]
    fn lock_free_mailbox_agrees_with_spinlock(g in arb_graph()) {
        let source = g.address_map().base();
        let spin = run(
            &g,
            &Sssp { source },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
            &RunConfig::default(),
        );
        let lockfree = run_packed(
            &g,
            &Sssp { source },
            Version { combiner: CombinerKind::LockFree, selection_bypass: true },
            &RunConfig::default(),
        );
        prop_assert_eq!(spin.values, lockfree.values);
    }

    #[test]
    fn pregelplus_sim_agrees_with_ipregel(g in arb_graph(), nodes in 1usize..6) {
        let source = g.address_map().base();
        let ipregel_out = run(
            &g,
            &Sssp { source },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &RunConfig::default(),
        );
        let sim = simulate(
            &g,
            &Sssp { source },
            &ClusterSpec::m4_large(nodes),
            &CostModel::default(),
            &MemoryModel::pregel_plus(4),
            Some(1000),
        );
        prop_assert_eq!(ipregel_out.values, sim.values);

        let hm_ipregel = run(
            &g,
            &Hashmin,
            Version { combiner: CombinerKind::Broadcast, selection_bypass: false },
            &RunConfig::default(),
        );
        let hm_sim = simulate(
            &g,
            &Hashmin,
            &ClusterSpec::m4_large(nodes),
            &CostModel::default(),
            &MemoryModel::pregel_plus(4),
            Some(1000),
        );
        prop_assert_eq!(hm_ipregel.values, hm_sim.values);
    }

    #[test]
    fn schedules_are_observationally_equivalent(
        g in arb_graph(),
        grain in (2usize..64).prop_map(Some),
    ) {
        // Version, scheduling policy, adjacency representation and chunk
        // grain decide *how* a superstep selects, cuts and delivers,
        // never what it computes: every paper version plus the lock-free
        // ablation, under every schedule, on the plain and the varint
        // CSR, must walk the same per-superstep (active, messages_sent)
        // trajectory as the sequential oracle — not merely the same
        // totals — and reach the same values (bit-identical for the
        // min-combiners, whose result is order-free; within the harness's
        // 1e-9 ceiling for PageRank's f64 sum). No combination is exempt:
        // the pull engine counts executed vertices, not checked ones, and
        // both bypass selections reduce to "message recipients", which is
        // what the oracle's fused scan runs for programs that halt every
        // superstep. PageRank never halts before its last round, so it
        // runs on the non-bypass versions only (Section 4's note).
        //
        // The grain sweep pits the superstep shapes against each other:
        // `Some(1)` cuts as fine as the planner can (every superstep
        // forks), `Some(usize::MAX)` never cuts (every superstep is one
        // chunk), `None` lets the planner decide from the frontier's
        // weight, and the sampled grain lands in between.
        let source = g.address_map().base();
        let compact = g.clone().compress().expect("compress");
        let pagerank = PageRank { rounds: 6, damping: 0.85 };
        let oracle = RunConfig::default();
        let want_sssp = try_run_sequential(&g, &Sssp { source }, &oracle).unwrap();
        let want_hm = try_run_sequential(&g, &Hashmin, &oracle).unwrap();
        let want_pr = try_run_sequential(&g, &pagerank, &oracle).unwrap();

        let mut versions = all_versions();
        for selection_bypass in [false, true] {
            versions.push(Version { combiner: CombinerKind::LockFree, selection_bypass });
        }
        let shapes: Vec<(Schedule, Option<usize>)> = Schedule::all()
            .into_iter()
            .flat_map(|s| [Some(1), None, Some(usize::MAX), grain].map(|g| (s, g)))
            .collect();
        for v in versions {
            for (repr, graph) in [("plain", &g), ("compact", &compact)] {
                for &(schedule, grain) in &shapes {
                    let cfg = RunConfig { threads: Some(4), schedule, grain, ..RunConfig::default() };
                    let at = format!("{} under {schedule}, grain {grain:?}, on {repr}", v.label());
                    let sssp = run_packed(graph, &Sssp { source }, v, &cfg);
                    prop_assert_eq!(&want_sssp.values, &sssp.values, "sssp values: {}", at);
                    prop_assert_eq!(
                        trajectory(&want_sssp.stats), trajectory(&sssp.stats),
                        "sssp trajectory: {}", at
                    );
                    let hm = run_packed(graph, &Hashmin, v, &cfg);
                    prop_assert_eq!(&want_hm.values, &hm.values, "hashmin values: {}", at);
                    prop_assert_eq!(
                        trajectory(&want_hm.stats), trajectory(&hm.stats),
                        "hashmin trajectory: {}", at
                    );
                    if v.selection_bypass {
                        continue;
                    }
                    let pr = run_packed(graph, &pagerank, v, &cfg);
                    let diff = reference::max_rel_diff(&g, &pr.values, &want_pr.values);
                    prop_assert!(diff < 1e-9, "pagerank values: {} diverged by {}", at, diff);
                    prop_assert_eq!(
                        trajectory(&want_pr.stats), trajectory(&pr.stats),
                        "pagerank trajectory: {}", at
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_sssp_matches_dijkstra(
        n in 2u32..40,
        edges in prop::collection::vec((0u32..40, 0u32..40, 1u32..100), 1..150)
    ) {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly).declare_id_range(0, n);
        let mut any = false;
        for (u, v, w) in edges {
            if u < n && v < n {
                b.add_weighted_edge(u, v, w);
                any = true;
            }
        }
        prop_assume!(any);
        let g = b.build().expect("weighted graph builds");
        let expected = reference::dijkstra(&g, 0);
        for bypass in [false, true] {
            let out = run(
                &g,
                &WeightedSssp { source: 0 },
                Version { combiner: CombinerKind::Spinlock, selection_bypass: bypass },
                &RunConfig::default(),
            );
            prop_assert_eq!(&out.values, &expected, "bypass={}", bypass);
        }
    }
}

// ---------------------------------------------------------------------------
// K-lane independence (the batching tentpole's core-level property):
// striping K computations over one Lanes<_> run changes nothing any
// lane can observe — values, per-lane message counts, and per-lane
// superstep counts all equal K sequential single-lane runs.
// ---------------------------------------------------------------------------

/// A random graph plus 1..=MAX_LANES random live sources on it.
fn arb_graph_and_sources() -> impl Strategy<Value = (Graph, Vec<u32>)> {
    (arb_graph(), 1usize..=ipregel::MAX_LANES, any::<u64>()).prop_map(|(g, k, seed)| {
        let base = g.address_map().base();
        let n = g.num_vertices() as u64;
        let mut x = seed | 1;
        let sources = (0..k)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                base + ((x >> 33) % n) as u32
            })
            .collect();
        (g, sources)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn k_lane_hops_equal_k_sequential_solo_runs((g, sources) in arb_graph_and_sources()) {
        for v in all_versions() {
            let multi = MultiHops::new(&sources);
            let out = run(&g, &multi, v, &RunConfig::default());
            for (lane, &src) in sources.iter().enumerate() {
                let solo = run(&g, &Sssp { source: src }, v, &RunConfig::default());
                for (id, val) in solo.iter() {
                    prop_assert_eq!(
                        out.value_of(id).at(lane), *val,
                        "version {} lane {} vertex {}", v.label(), lane, id
                    );
                }
                prop_assert_eq!(
                    multi.tracker().lane_supersteps(lane),
                    solo.stats.num_supersteps() as u64,
                    "version {} lane {} supersteps", v.label(), lane
                );
                prop_assert_eq!(
                    multi.tracker().lane_messages(lane),
                    solo.stats.total_messages(),
                    "version {} lane {} messages", v.label(), lane
                );
            }
        }
    }

    #[test]
    fn a_batch_of_identical_requests_yields_k_identical_lanes(
        g in arb_graph(),
        k in 2usize..=ipregel::MAX_LANES,
    ) {
        // The server folds K identical queued requests into one run;
        // every lane must come out the same (and equal to the solo run).
        let source = g.address_map().base();
        let sources = vec![source; k];
        let v = Version { combiner: CombinerKind::Spinlock, selection_bypass: true };
        let multi = MultiHops::new(&sources);
        let out = run(&g, &multi, v, &RunConfig::default());
        let solo = run(&g, &Sssp { source }, v, &RunConfig::default());
        for (id, val) in solo.iter() {
            let stripe = out.value_of(id);
            for lane in 0..k {
                prop_assert_eq!(stripe.at(lane), *val, "lane {} vertex {}", lane, id);
            }
        }
        for lane in 0..k {
            prop_assert_eq!(multi.tracker().lane_supersteps(lane), solo.stats.num_supersteps() as u64);
            prop_assert_eq!(multi.tracker().lane_messages(lane), solo.stats.total_messages());
        }
    }

    #[test]
    fn k_lane_rank_is_bitwise_equal_to_solo_pagerank_on_pull(
        g in arb_graph(),
        k in 1usize..=4,
        rounds in 1usize..12,
    ) {
        // Broadcast/pull is the one deterministic f64 reduction order,
        // so lane equality here is to_bits-exact, not approximate.
        let v = Version { combiner: CombinerKind::Broadcast, selection_bypass: false };
        let seeds = vec![None; k];
        let multi = ipregel_apps::MultiRank::new(&seeds, 0.85, rounds);
        let out = run(&g, &multi, v, &RunConfig::default());
        let solo = run(&g, &PageRank { damping: 0.85, rounds }, v, &RunConfig::default());
        for (id, val) in solo.iter() {
            let stripe = out.value_of(id);
            for lane in 0..k {
                prop_assert_eq!(
                    stripe.at(lane).to_bits(), val.to_bits(),
                    "lane {} vertex {} drifted in bits", lane, id
                );
            }
        }
        for lane in 0..k {
            prop_assert_eq!(multi.tracker().lane_supersteps(lane), solo.stats.num_supersteps() as u64);
            prop_assert_eq!(multi.tracker().lane_messages(lane), solo.stats.total_messages());
        }
    }
}
