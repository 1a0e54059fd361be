//! The engines' byte accounting against hand-computed expectations —
//! the precision that lets Figure 9 use accounting instead of RSS.

use ipregel::engine::push::partial_slots;
use ipregel::{run, CombinerKind, Mailbox, MutexMailbox, RunConfig, SpinMailbox, Version};
use ipregel_apps::{Hashmin, PageRank, Sssp};
use ipregel_graph::{GraphBuilder, NeighborMode};

/// 10 vertices in a ring, ids 0..10, both directions retained.
fn ring10() -> ipregel_graph::Graph {
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for i in 0..10u32 {
        b.add_edge(i, (i + 1) % 10);
    }
    b.build().unwrap()
}

#[test]
fn graph_bytes_match_csr_arithmetic() {
    let g = ring10();
    // Two CSRs (out + in): each has 11 u64 offsets + 10 u32 targets.
    let expected = 2 * (11 * 8 + 10 * 4);
    assert_eq!(g.bytes(), expected);

    let out = run(
        &g,
        &Hashmin,
        Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
        &RunConfig::default(),
    );
    assert_eq!(out.footprint.graph_bytes, expected);
}

#[test]
fn push_engine_bytes_decompose_exactly() {
    let g = ring10();
    let slots = 10;
    let out = run(
        &g,
        &Sssp { source: 0 },
        Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
        &RunConfig::default(),
    );
    // Values: u32 per slot.
    assert_eq!(out.footprint.values_bytes, slots * 4);
    // Flags: one bool per slot.
    assert_eq!(out.footprint.flags_bytes, slots);
    // Locks: two buffers × slots × spinlock size (1 byte).
    let lock = <SpinMailbox<u32> as Mailbox<u32>>::lock_bytes();
    assert_eq!(out.footprint.lock_bytes, 2 * slots * lock);
    // Mailboxes: two buffers × slots × (struct minus lock share).
    let mb = std::mem::size_of::<SpinMailbox<u32>>() - lock;
    assert_eq!(out.footprint.mailbox_bytes, 2 * slots * mb);
    // No worklists without the bypass.
    assert_eq!(out.footprint.worklist_bytes, 0);
}

#[test]
fn compact_push_counts_its_partials_and_plain_push_has_none() {
    // Ids 0..300 000 on a ring: more slots than any partial covers.
    let mut b = GraphBuilder::new(NeighborMode::OutOnly);
    for i in 0..300_000u32 {
        b.add_edge(i, (i + 1) % 300_000);
    }
    let plain = b.build().unwrap();
    let compact = plain.clone().compress().unwrap();
    let version = Version { combiner: CombinerKind::Spinlock, selection_bypass: false };
    let lock = <SpinMailbox<f64> as Mailbox<f64>>::lock_bytes();
    let spin = std::mem::size_of::<SpinMailbox<f64>>() - lock;
    let program = PageRank { rounds: 1, damping: 0.85 };
    for (slots, workers) in [(10, 1), (10, 3), (300_000, 2)] {
        let g = if slots == 10 { ring10().compress().unwrap() } else { compact.clone() };
        let cfg = RunConfig { threads: Some(workers), ..RunConfig::default() };
        let out = run(&g, &program, version, &cfg);
        // Per worker and covered slot: an f64, its presence byte and a
        // u32 of touched-list capacity. A pool of one runs every
        // superstep exclusive, so it builds no partial at all.
        let span = partial_slots::<f64>().min(slots);
        let shards = if workers > 1 { workers } else { 0 };
        let partials = shards * span * (std::mem::size_of::<f64>() + 1 + 4);
        assert_eq!(out.footprint.mailbox_bytes, 2 * slots * spin + partials, "{slots} slots");
    }
    let cfg = RunConfig { threads: Some(2), ..RunConfig::default() };
    let out = run(&plain, &program, version, &cfg);
    assert_eq!(out.footprint.mailbox_bytes, 2 * 300_000 * spin, "plain CSR: no partials");
}

#[test]
fn mutex_locks_dominate_spinlock_locks() {
    let g = ring10();
    let mutex = run(
        &g,
        &Sssp { source: 0 },
        Version { combiner: CombinerKind::Mutex, selection_bypass: false },
        &RunConfig::default(),
    );
    let spin = run(
        &g,
        &Sssp { source: 0 },
        Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
        &RunConfig::default(),
    );
    let mutex_lock = <MutexMailbox<u32> as Mailbox<u32>>::lock_bytes();
    let spin_lock = <SpinMailbox<u32> as Mailbox<u32>>::lock_bytes();
    assert_eq!(mutex.footprint.lock_bytes, 2 * 10 * mutex_lock);
    assert_eq!(spin.footprint.lock_bytes, 2 * 10 * spin_lock);
    // The §6.1 direction: blocking locks cost strictly more bytes.
    assert!(mutex.footprint.lock_bytes > spin.footprint.lock_bytes);
    // And everything else is identical between the two versions.
    assert_eq!(mutex.footprint.values_bytes, spin.footprint.values_bytes);
    assert_eq!(mutex.footprint.graph_bytes, spin.footprint.graph_bytes);
    assert_eq!(mutex.footprint.flags_bytes, spin.footprint.flags_bytes);
}

#[test]
fn pull_engine_has_zero_lock_bytes_and_outbox_buffers() {
    let g = ring10();
    let out = run(
        &g,
        &Hashmin,
        Version { combiner: CombinerKind::Broadcast, selection_bypass: false },
        &RunConfig::default(),
    );
    assert_eq!(out.footprint.lock_bytes, 0, "§6.2: race-free design");
    // Outboxes: 2 buffers × slots × (a u32 message + its u32 epoch tag).
    assert_eq!(out.footprint.mailbox_bytes, 2 * 10 * (std::mem::size_of::<u32>() + 4));
}

#[test]
fn desolate_memory_slots_are_counted() {
    // 1-based ring: one desolate slot inflates every per-slot array.
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for i in 1..=10u32 {
        b.add_edge(i, i % 10 + 1);
    }
    let g = b.build().unwrap();
    assert_eq!(g.num_slots(), 11);
    let out = run(
        &g,
        &Sssp { source: 1 },
        Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
        &RunConfig::default(),
    );
    assert_eq!(out.footprint.values_bytes, 11 * 4);
    assert_eq!(out.footprint.flags_bytes, 11);
}

#[test]
fn bypass_worklist_bytes_appear_and_scale_with_slots() {
    let small = ring10();
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for i in 0..1000u32 {
        b.add_edge(i, (i + 1) % 1000);
    }
    let big = b.build().unwrap();
    let v = Version { combiner: CombinerKind::Spinlock, selection_bypass: true };
    let small_out = run(&small, &Sssp { source: 0 }, v, &RunConfig::default());
    let big_out = run(&big, &Sssp { source: 0 }, v, &RunConfig::default());
    assert!(small_out.footprint.worklist_bytes > 0);
    assert!(big_out.footprint.worklist_bytes > small_out.footprint.worklist_bytes);
}

#[test]
fn overhead_equals_sum_of_parts() {
    let g = ring10();
    for v in Version::paper_versions() {
        let out = run(&g, &Hashmin, v, &RunConfig::default());
        let f = &out.footprint;
        assert_eq!(
            f.overhead_bytes(),
            f.values_bytes + f.mailbox_bytes + f.lock_bytes + f.flags_bytes + f.worklist_bytes,
            "{}",
            v.label()
        );
        assert_eq!(f.total_bytes(), f.graph_bytes + f.overhead_bytes());
    }
}
