//! The paper's *qualitative* performance claims as executable assertions.
//!
//! Two claims are stated on counts and cannot flake
//! (`light_supersteps_run_whole_and_spawn_nothing`,
//! `pull_pagerank_takes_no_mailbox_lock`); the rest compare wall-clock
//! orderings. Those compare orderings with generous margins (≥2–3× where the real
//! effects are 4–100×), so they hold in debug builds and under test-runner
//! noise. A static mutex serialises them against each other; they are
//! still not immune to a heavily oversubscribed machine, which is why
//! the margins are wide and the workloads structural (superstep-count
//! dominated), not microsecond-scale.
//!
//! The whole suite is compiled out under `--features check-disjoint`:
//! the borrow tags add an atomic RMW to every vertex access, a flat
//! per-access tax that compresses exactly the ratios asserted here
//! (measured: scan/bypass falls from ~4× to ~1.9× with tags armed).
//! Instrumented builds check *correctness* claims; timing claims only
//! hold on uninstrumented code.

#![cfg(not(feature = "check-disjoint"))]

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use femtograph_sim::run_naive;
use ipregel::{run, CombinerKind, RunConfig, Version};
use ipregel_apps::{PageRank, Sssp};
use ipregel_graph::generators::analogs::{USA_ROADS, WIKIPEDIA};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};

static SERIAL: Mutex<()> = Mutex::new(());

fn timed(f: impl FnOnce() -> u64) -> (Duration, u64) {
    let t0 = std::time::Instant::now();
    let check = f();
    (t0.elapsed(), check)
}

#[test]
fn bypass_beats_scan_on_road_sssp_by_a_wide_margin() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // High diameter + tiny frontier: the §4 best case (paper: ×1400 at
    // full scale, ×46 at harness scale; demand ≥3× here).
    let g = USA_ROADS.analog_graph(500, 5, NeighborMode::Both);
    let cfg = RunConfig { threads: Some(2), ..RunConfig::default() };
    let (scan, a) = timed(|| {
        let out = run(
            &g,
            &Sssp { source: 2 },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &cfg,
        );
        out.values.iter().map(|&v| u64::from(v != u32::MAX)).sum()
    });
    let (bypass, b) = timed(|| {
        let out = run(
            &g,
            &Sssp { source: 2 },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
            &cfg,
        );
        out.values.iter().map(|&v| u64::from(v != u32::MAX)).sum()
    });
    assert_eq!(a, b, "both runs must reach the same vertices");
    assert!(
        scan > bypass * 3,
        "scan {scan:?} should be ≥3× bypass {bypass:?} on the road graph"
    );
}

/// SSSP with the bypass on the process-wide pool — the one pool whose
/// counters this thread can read, and every other test of this file
/// holds [`SERIAL`] and runs on a pool of its own. Returns each
/// superstep's chunk count and the jobs the whole run pushed.
fn chunk_counts_and_spawned(g: &Graph, source: u32) -> (Vec<usize>, u64) {
    let before = ipregel_par::current_pool_stats().spawned;
    let out = run(
        g,
        &Sssp { source },
        Version { combiner: CombinerKind::Spinlock, selection_bypass: true },
        &RunConfig::default(),
    );
    let spawned = ipregel_par::current_pool_stats().spawned - before;
    let chunks = out
        .stats
        .supersteps
        .iter()
        .map(|s| s.load.as_ref().expect("parallel supersteps record load stats").num_chunks())
        .collect();
    (chunks, spawned)
}

#[test]
fn light_supersteps_run_whole_and_spawn_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // §4 on counts: with the bypass a road superstep holds a few hundred
    // runnable vertices, so what it costs must be what they cost — the
    // planner leaves it whole and the pool never hears of it, in the
    // chunk loop, the worklist drain or its sort.
    let road = USA_ROADS.analog_graph(500, 5, NeighborMode::Both);
    let (chunks, spawned) = chunk_counts_and_spawned(&road, 2);
    let whole = chunks.iter().filter(|&&c| c == 1).count();
    assert!(
        whole * 100 >= chunks.len() * 95,
        "only {whole} of {} road supersteps ran as one chunk",
        chunks.len()
    );
    // A forked superstep pushes one job per chunk, and the selection
    // that built its frontier at most one region more (the dense rebuild
    // or a long sort: threads × 8 jobs); a whole one pushes nothing. On
    // a one-thread pool a cut superstep runs exclusive and pushes nothing
    // either; only its selection may reach the pool.
    let threads = ipregel_par::current_num_threads();
    let region = (threads * 8) as u64;
    let jobs = |n: usize| if threads > 1 { n as u64 } else { 0 };
    let cut = chunks.iter().filter(|&&c| c > 1);
    let (floor, cap) = cut.fold((0, 0), |(f, c), &n| (f + jobs(n), c + jobs(n) + region));
    assert!(
        (floor..=cap).contains(&spawned),
        "the pool saw {spawned} jobs; the forked supersteps account for {floor}..={cap}"
    );

    // One runnable vertex per superstep, and a first superstep light
    // enough to stay whole: the pool sees nothing at all.
    let mut b = GraphBuilder::new(NeighborMode::Both).declare_id_range(0, 1000);
    for v in 0..999 {
        b.add_edge(v, v + 1);
    }
    let (chunks, spawned) = chunk_counts_and_spawned(&b.build().expect("path builds"), 0);
    assert_eq!(chunks, vec![1; 1000], "a path runs one vertex per superstep, each whole");
    assert_eq!(spawned, 0, "a path graph must never reach the pool");
}

/// Lock acquisitions in each chunk of every superstep, from the run's own
/// stats (no tracer attached).
fn chunk_locks(stats: &ipregel::RunStats) -> Vec<u64> {
    let loads = stats.supersteps.iter().map(|s| s.load.as_ref().expect("load stats"));
    loads.flat_map(|l| l.chunk_contention.iter().map(|c| c.lock_acquisitions)).collect()
}

#[test]
fn pull_pagerank_takes_no_mailbox_lock() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // §6 on counts: the pull combiner's recipients read their senders'
    // outboxes, so no chunk ever locks a mailbox; mutex push, forked
    // onto two threads, locks the recipient's mailbox for every message.
    let g = WIKIPEDIA.analog_graph(400, 5, NeighborMode::Both);
    let pr = PageRank { rounds: 5, damping: 0.85 };
    let cfg = RunConfig { threads: Some(2), grain: Some(1), ..RunConfig::default() };
    let pull =
        run(&g, &pr, Version { combiner: CombinerKind::Broadcast, selection_bypass: false }, &cfg);
    let locks = chunk_locks(&pull.stats);
    assert!(locks.len() > pull.stats.num_supersteps(), "supersteps were cut: {locks:?}");
    assert!(locks.iter().all(|&l| l == 0), "a pull chunk locked a mailbox: {locks:?}");
    let push =
        run(&g, &pr, Version { combiner: CombinerKind::Mutex, selection_bypass: false }, &cfg);
    let locked: u64 = chunk_locks(&push.stats).iter().sum();
    assert!(locked > 0, "forked mutex push took no lock");
}

#[test]
fn pull_combiner_wins_pagerank() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Paper Figure 7: broadcast halves the spinlock time; ours is 2–4×.
    // Demand only that pull is faster at all (margin 1.2×).
    let g = WIKIPEDIA.analog_graph(400, 5, NeighborMode::Both);
    let pr = PageRank { rounds: 10, damping: 0.85 };
    let cfg = RunConfig { threads: Some(2), ..RunConfig::default() };
    let (push, _) = timed(|| {
        run(&g, &pr, Version { combiner: CombinerKind::Mutex, selection_bypass: false }, &cfg)
            .stats
            .num_supersteps() as u64
    });
    let (pull, _) = timed(|| {
        run(&g, &pr, Version { combiner: CombinerKind::Broadcast, selection_bypass: false }, &cfg)
            .stats
            .num_supersteps() as u64
    });
    assert!(
        push.as_secs_f64() > pull.as_secs_f64() * 1.2,
        "mutex push {push:?} should trail pull {pull:?} on PageRank"
    );
}

#[test]
fn optimised_framework_beats_the_naive_baseline() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // The FemtoGraph-shaped baseline pays queues + hashmap + scans
    // (harness: 4–15×; demand 2×).
    let g = WIKIPEDIA.analog_graph(400, 5, NeighborMode::Both);
    let pr = PageRank { rounds: 8, damping: 0.85 };
    let cfg = RunConfig { threads: Some(2), ..RunConfig::default() };
    let (fast, _) = timed(|| {
        run(&g, &pr, Version { combiner: CombinerKind::Broadcast, selection_bypass: false }, &cfg)
            .stats
            .num_supersteps() as u64
    });
    let (naive, _) = timed(|| run_naive(&g, &pr, &cfg).stats.num_supersteps() as u64);
    assert!(
        naive.as_secs_f64() > fast.as_secs_f64() * 2.0,
        "naive {naive:?} should trail the optimised engine {fast:?} by ≥2×"
    );
}
