//! The Section 2 architecture map, quantified on one workload.
//!
//! The paper's related-work section sorts vertex-centric frameworks into
//! architectures: in-memory shared memory (iPregel — "the fastest"),
//! in-memory distributed memory (Pregel+), and out-of-core (GraphChi,
//! FlashGraph, GraphD). This binary runs the same applications on the
//! workspace's engine for each in-memory architecture and prints the
//! trade-off the paper describes: the shared-memory engine wins on time,
//! the distributed engine buys capacity with network overhead. The paper
//! measures no out-of-core framework, and neither does this map.
//!
//! A third column is the comparison Section 7.3 could not run: a
//! correct shared-memory engine built *without* iPregel's optimisations
//! (FemtoGraph's shape: per-vertex inbox queues, hashmap addressing, full
//! scans — see `femtograph-sim`). Same architecture, so the gap is the
//! Section 4–6 techniques alone; its framework overhead sits beside
//! iPregel's (§6.3's single-message mailboxes against inbox queues).

use femtograph_sim::run_naive;
use ipregel::{run, CombinerKind, RunConfig, Version, VertexProgram};
use ipregel_apps::{Hashmin, PageRank, Sssp};
use ipregel_bench::{human_bytes, rule, threads, PaperGraphs, PAGERANK_ROUNDS, SSSP_SOURCE};
use ipregel_graph::Graph;
use pregelplus_sim::{simulate, ClusterSpec, CostModel, MemoryModel};

/// Result comparator: do two value vectors agree for this app?
type Agree<'a, V> = &'a dyn Fn(&[V], &[V]) -> bool;

fn row<P: VertexProgram>(
    g: &Graph,
    divisor: u64,
    app: &'static str,
    p: &P,
    best: Version,
    agree: Agree<'_, P::Value>,
) {
    let cfg = RunConfig { threads: Some(threads()), ..RunConfig::default() };

    // In-memory shared memory: measured.
    let shared = run(g, p, best, &cfg);
    let shared_secs = shared.stats.total_time.as_secs_f64();
    let shared_bytes = shared.footprint.total_bytes() as f64;

    // Naive in-memory shared memory: measured.
    let naive = run_naive(g, p, &cfg);
    assert!(agree(&naive.values, &shared.values), "naive results diverged on {app}");
    let overheads = format!(
        "{}→{}",
        human_bytes(shared.footprint.overhead_bytes() as f64),
        human_bytes(naive.footprint.overhead_bytes() as f64)
    );

    // In-memory distributed (4 nodes): executed + modelled.
    let dist = simulate(
        g,
        p,
        &ClusterSpec::m4_large_scaled(4, divisor),
        &CostModel::default(),
        &MemoryModel::pregel_plus(std::mem::size_of::<P::Message>()).with_scaled_runtime(divisor),
        Some(100_000),
    );
    assert!(agree(&dist.values, &shared.values), "distributed results diverged on {app}");
    let dist_bytes = dist.peak_node_bytes as f64 * 4.0;

    println!(
        "  {app:<9} {shared_secs:>10.3}s {:>10} {:>10.3}s {overheads:>19} {:>10.3}s {:>10}",
        human_bytes(shared_bytes),
        naive.stats.total_time.as_secs_f64(),
        dist.simulated_seconds,
        human_bytes(dist_bytes),
    );
}

fn main() {
    let graphs = PaperGraphs::build();
    println!(
        "Architecture comparison (Section 2): the same applications on the\n\
         in-memory shared-memory engine (measured), a naive shared-memory\n\
         engine without iPregel's techniques (measured), and a 4-node\n\
         in-memory distributed cluster (simulated). {} threads.",
        threads()
    );
    for (label, g, divisor, _) in graphs.each() {
        rule(96);
        println!("{label} graph (divisor {divisor}: |V|={}, |E|={})", g.num_vertices(), g.num_edges());
        println!(
            "  {:<9} {:>11} {:>10} {:>11} {:>19} {:>11} {:>10}",
            "app", "shared", "RAM", "naive", "ovh shared→naive", "distrib", "agg RAM"
        );
        // Float sums reorder across engines: PageRank agreement is to
        // tolerance, integer-valued apps agree exactly.
        let approx = |a: &[f64], b: &[f64]| {
            a.iter().zip(b).all(|(&x, &y)| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-30))
        };
        let exact = |a: &[u32], b: &[u32]| a == b;
        row(g, divisor, "PageRank", &PageRank { rounds: PAGERANK_ROUNDS, damping: 0.85 },
            Version { combiner: CombinerKind::Broadcast, selection_bypass: false }, &approx);
        row(g, divisor, "Hashmin", &Hashmin,
            Version { combiner: CombinerKind::Spinlock, selection_bypass: true }, &exact);
        row(g, divisor, "SSSP", &Sssp { source: SSSP_SOURCE },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: true }, &exact);
    }
    rule(96);
    println!(
        "Reading: shared memory is fastest (the paper's thesis); the naive\n\
         shared-memory engine isolates the paper's techniques from the\n\
         architecture, in time and in framework overhead beyond the graph\n\
         (§6.3); the distributed cluster multiplies aggregate RAM and pays\n\
         the network."
    );
}
