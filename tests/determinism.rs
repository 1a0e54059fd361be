//! Determinism guarantees across runs, thread counts, and engines.
//!
//! For programs with idempotent/commutative combiners and deterministic
//! compute (everything in `ipregel-apps`), results must be bit-identical
//! regardless of scheduling. PageRank's floating-point sums are the one
//! nuance: within one configuration runs are identical (the combine tree
//! per mailbox is the only reorder point and it is value-stable for
//! min/max/or; for f64 sums the pull engine gathers in fixed CSR order),
//! and across configurations they agree to tight tolerance.

use ipregel::{run, run_sequential, CombinerKind, RunConfig, Version};
use ipregel_apps::reference;
use ipregel_apps::{Hashmin, MaxValue, PageRank, Sssp};
use ipregel_graph::generators::analogs::WIKIPEDIA;
use ipregel_graph::{GraphBuilder, NeighborMode};

fn test_graph() -> ipregel_graph::Graph {
    WIKIPEDIA.analog_graph(5000, 99, NeighborMode::Both)
}

#[test]
fn repeated_runs_are_bit_identical() {
    let g = test_graph();
    for v in Version::paper_versions() {
        let a = run(&g, &Sssp { source: 2 }, v, &RunConfig::default());
        let b = run(&g, &Sssp { source: 2 }, v, &RunConfig::default());
        assert_eq!(a.values, b.values, "{}", v.label());
        assert_eq!(
            a.stats.supersteps.iter().map(|s| (s.active, s.messages_sent)).collect::<Vec<_>>(),
            b.stats.supersteps.iter().map(|s| (s.active, s.messages_sent)).collect::<Vec<_>>(),
        );
    }
}

#[test]
fn thread_count_is_invisible_in_results() {
    let g = test_graph();
    let v = Version { combiner: CombinerKind::Spinlock, selection_bypass: true };
    let one = run(&g, &Hashmin, v, &RunConfig { threads: Some(1), ..RunConfig::default() });
    for t in [2, 3, 8] {
        let out = run(&g, &Hashmin, v, &RunConfig { threads: Some(t), ..RunConfig::default() });
        assert_eq!(out.values, one.values, "threads {t}");
    }
}

#[test]
fn grain_setting_is_invisible_in_results() {
    let g = test_graph();
    let v = Version { combiner: CombinerKind::Broadcast, selection_bypass: false };
    let base = run(&g, &MaxValue, v, &RunConfig { grain: Some(1), ..RunConfig::default() });
    for grain in [None, Some(128), Some(100_000)] {
        let out = run(&g, &MaxValue, v, &RunConfig { grain, ..RunConfig::default() });
        assert_eq!(out.values, base.values, "grain {grain:?}");
    }
}

#[test]
fn sequential_oracle_agrees_with_every_parallel_version() {
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for i in 0..300u32 {
        b.add_edge(i, (i * 17 + 5) % 300);
        b.add_edge(i, (i * 31 + 11) % 300);
    }
    let g = b.build().unwrap();
    let seq = run_sequential(&g, &Sssp { source: 0 }, &RunConfig::default());
    for v in Version::paper_versions() {
        let par = run(&g, &Sssp { source: 0 }, v, &RunConfig::default());
        assert_eq!(par.values, seq.values, "{}", v.label());
        assert_eq!(par.stats.total_messages(), seq.stats.total_messages());
    }
}

#[test]
fn pagerank_is_run_to_run_identical_and_cross_engine_tight() {
    let g = test_graph();
    let pr = PageRank { rounds: 10, damping: 0.85 };
    let pull = Version { combiner: CombinerKind::Broadcast, selection_bypass: false };
    let a = run(&g, &pr, pull, &RunConfig { threads: Some(4), ..RunConfig::default() });
    let b = run(&g, &pr, pull, &RunConfig { threads: Some(2), ..RunConfig::default() });
    // The pull engine gathers in CSR order: bit-identical regardless of
    // threads.
    assert_eq!(a.values, b.values);
    // Push engines combine in arrival order; agreement is to tolerance.
    let push = run(
        &g,
        &pr,
        Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
        &RunConfig::default(),
    );
    let diff = reference::max_rel_diff(&g, &a.values, &push.values);
    assert!(diff < 1e-12, "pull vs push diverged by {diff}");
}
