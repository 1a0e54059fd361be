//! Integration tests for the runtime lock-order detector (the
//! `lock-order` cargo feature — see docs/INTERNALS.md, "Static
//! analysis: concurrency invariants").
//!
//! Armed, every lock in the workspace records itself on a per-thread
//! acquisition stack and panics — naming both locks and dumping the
//! held stack — the moment any thread acquires against the declared
//! hierarchy. Disarmed (the default) the hooks compile to no-ops and
//! every lock keeps its production layout.
//!
//! Run with: `cargo test --features lock-order --test lock_order`

#![cfg(feature = "lock-order")]

use ipregel::sync::lockorder::{classes, held_count, OrderedMutex};
use ipregel::{run, CombinerKind, RunConfig, Version};
use ipregel_apps::{Hashmin, PageRank, Sssp};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};

fn graph(edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build().unwrap()
}

/// The detector's raison d'être: an injected inversion — acquiring a
/// low-ranked lock while holding a high-ranked one — must panic
/// deterministically, and the message must name *both* locks so the
/// report is actionable without a debugger.
#[test]
fn injected_inversion_panics_naming_both_locks() {
    let high = OrderedMutex::new(&classes::MAILBOX_SPIN, 0u32);
    let low = OrderedMutex::new(&classes::POOL_STATE, 0u32);
    let caught = std::panic::catch_unwind(|| {
        // lock-order(mailbox.spin)
        let _g = high.lock().unwrap();
        // Deliberate inversion: pool.state (rank 10) under mailbox.spin
        // (rank 80). The detector must refuse.
        // lock-order(pool.state)
        let _h = low.lock().unwrap();
    });
    let payload = caught.expect_err("the inversion must panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload is a string");
    assert!(message.contains("lock-order inversion"), "{message}");
    assert!(message.contains("pool.state"), "must name the acquired lock: {message}");
    assert!(message.contains("mailbox.spin"), "must name the held lock: {message}");
    // The unwind released everything: this thread's stack is clean.
    assert_eq!(held_count(), 0, "acquisition stack must unwind with the panic");
}

/// Same-rank nesting is an inversion too (two locks of one class can
/// deadlock against each other), and the unwind must leave the thread's
/// stack usable for subsequent acquisitions.
#[test]
fn same_class_nesting_panics_and_stack_recovers() {
    let a = OrderedMutex::new(&classes::WORKLIST_FALLBACK, ());
    let b = OrderedMutex::new(&classes::WORKLIST_FALLBACK, ());
    let caught = std::panic::catch_unwind(|| {
        // lock-order(worklist.fallback)
        let _g = a.lock().unwrap();
        // lock-order(worklist.fallback)
        let _h = b.lock().unwrap();
    });
    assert!(caught.is_err(), "same-rank nesting must be rejected");
    assert_eq!(held_count(), 0);
    // The detector recovered: a fresh, well-ordered acquisition works.
    // lock-order(worklist.fallback)
    drop(a.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
}

/// Every engine (each combiner × selection strategy) runs a real
/// multi-threaded workload to completion with the detector armed: the
/// production lock usage respects the declared hierarchy.
#[test]
fn engines_run_clean_with_detector_armed() {
    let g = graph(&[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 0), (2, 0)]);
    let config = RunConfig { threads: Some(4), ..RunConfig::default() };
    for combiner in [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast] {
        for selection_bypass in [false, true] {
            let out = run(&g, &Sssp { source: 0 }, Version { combiner, selection_bypass }, &config);
            assert_eq!(*out.value_of(4), 2, "{combiner:?}/bypass={selection_bypass}");
            let pr = run(
                &g,
                &PageRank { rounds: 5, damping: 0.85 },
                Version { combiner, selection_bypass },
                &config,
            );
            assert_eq!(pr.stats.num_supersteps(), 6);
        }
    }
    assert_eq!(held_count(), 0, "no lock leaked past the runs");
}

/// The naive baseline engine (per-vertex inbox mutexes, ranked above
/// everything engine-internal) is hierarchy-clean too.
#[test]
fn naive_engine_runs_clean_with_detector_armed() {
    let g = graph(&[(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]);
    let config = RunConfig { threads: Some(4), ..RunConfig::default() };
    let out = femtograph_sim::run_naive(&g, &Hashmin, &config);
    assert_eq!(*out.value_of(4), 1);
    assert_eq!(held_count(), 0);
}
