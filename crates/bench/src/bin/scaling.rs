//! Thread-scaling sweep: threads-vs-throughput curves for the push and
//! pull engines over the work-stealing pool.
//!
//! The paper's single-machine claim (PAPER.md §7) is that iPregel keeps
//! every core busy; the in-tree pool now work-steals (per-worker deques,
//! seeded probe order, overflow injector), so this binary pins the
//! threads → throughput curve that pool regressions would bend. It runs
//! push (spinlock combiner) and pull on one Graph500 R-MAT instance at
//! 1, 2, 4, 8, 16 threads under the adaptive schedule (which
//! over-partitions so thieves have chunks to rebalance with), printing
//! each point and appending JSON rows to `results/scaling.jsonl`.
//!
//! Throughput is reported as millions of edge visits per second
//! (|E| × supersteps / seconds): PageRank runs a fixed round count with
//! every vertex active every superstep, so the number is comparable
//! across thread counts and PRs. Speedup is relative to the 1-thread
//! run of the same engine. Steal counts come from the per-superstep
//! load stats, so a curve that flattens can be read against whether the
//! pool was actually rebalancing.
//!
//! Scale with `IPREGEL_SCALING_DIVISOR` (default 8; smaller = bigger
//! graph). The thread list is fixed so rows from different PRs line up.

use ipregel::{run, CombinerKind, RunConfig, RunOutput, Schedule, Version};
use ipregel_apps::PageRank;
use ipregel_bench::{append_result, rule, secs, SEED};
use ipregel_graph::generators::{rmat_edges, RmatParams};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};

const THREAD_STEPS: [usize; 5] = [1, 2, 4, 8, 16];
const PAGERANK_ROUNDS: usize = 10;

struct Record {
    figure: &'static str,
    graph: &'static str,
    vertices: usize,
    edges: u64,
    engine: &'static str,
    app: &'static str,
    threads: usize,
    seconds: f64,
    supersteps: usize,
    meps: f64,
    speedup: f64,
    steals: u64,
    overflows: u64,
}

ipregel::impl_to_json!(Record { figure, graph, vertices, edges, engine, app, threads, seconds, supersteps, meps, speedup, steals, overflows });

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn build_rmat(n: u32) -> Graph {
    let edges = rmat_edges(n, u64::from(n) * 8, RmatParams::GRAPH500, SEED);
    let mut b =
        GraphBuilder::with_capacity(NeighborMode::Both, edges.len() * 2).declare_id_range(0, n);
    for &(u, v) in &edges {
        b.add_edge(u, v);
        if u != v {
            b.add_edge(v, u);
        }
    }
    b.build().expect("R-MAT produced an unbuildable graph")
}

fn config(threads: usize) -> RunConfig {
    RunConfig { threads: Some(threads), schedule: Schedule::Adaptive, ..RunConfig::default() }
}

fn pool_counters(out: &RunOutput<f64>) -> (u64, u64) {
    let mut steals = 0;
    let mut overflows = 0;
    for l in out.stats.supersteps.iter().filter_map(|s| s.load.as_ref()) {
        steals += l.steals;
        overflows += l.overflow;
    }
    (steals, overflows)
}

fn sweep(g: &Graph, engine: &'static str, measure: impl Fn(usize) -> RunOutput<f64>) {
    println!("\n  {engine} engine (PageRank, {PAGERANK_ROUNDS} rounds, adaptive schedule):");
    println!(
        "    {:>7} {:>10} {:>11} {:>9} {:>8} {:>8} {:>9}",
        "Threads", "Runtime(s)", "Supersteps", "MEPS", "Speedup", "Steals", "Overflows"
    );
    let mut base_seconds = 0.0_f64;
    for threads in THREAD_STEPS {
        let out = measure(threads);
        let seconds = out.stats.total_time.as_secs_f64();
        if threads == 1 {
            base_seconds = seconds;
        }
        let supersteps = out.stats.num_supersteps();
        #[allow(clippy::cast_precision_loss)]
        let meps = g.num_edges() as f64 * supersteps as f64 / seconds.max(1e-12) / 1e6;
        let speedup = base_seconds / seconds.max(1e-12);
        let (steals, overflows) = pool_counters(&out);
        println!(
            "    {threads:>7} {:>10} {supersteps:>11} {meps:>9.1} {speedup:>8.2} {steals:>8} {overflows:>9}",
            secs(out.stats.total_time),
        );
        append_result(
            "scaling.jsonl",
            &Record {
                figure: "scaling",
                graph: "rmat",
                vertices: g.num_vertices(),
                edges: g.num_edges(),
                engine,
                app: "PageRank",
                threads,
                seconds,
                supersteps,
                meps,
                speedup,
                steals,
                overflows,
            },
        );
    }
}

fn main() {
    let divisor = env_u64("IPREGEL_SCALING_DIVISOR", 8).max(1) as u32;
    let n = (400_000 / divisor).max(64);
    let g = build_rmat(n);
    let program = PageRank { rounds: PAGERANK_ROUNDS, damping: 0.85 };
    let push = Version { combiner: CombinerKind::Spinlock, selection_bypass: false };

    rule(78);
    println!(
        "Thread scaling on R-MAT (Graph500): |V|={}, |E|={}, divisor {divisor}",
        g.num_vertices(),
        g.num_edges()
    );
    sweep(&g, "push", |threads| run(&g, &program, push, &config(threads)));
    sweep(&g, "pull", |threads| {
        ipregel::try_run_pull(&g, &program, &config(threads)).expect("pull run")
    });
    rule(78);
    println!(
        "Expected shape: near-linear speedup while threads <= physical cores, then\n\
         flat; steals grow with thread count (the adaptive over-partitioned plans\n\
         give thieves chunks to rebalance), overflows stay rare. A curve that bends\n\
         down at low thread counts is a pool regression, not an OS artifact."
    );
}
