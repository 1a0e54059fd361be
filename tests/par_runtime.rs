//! The engines on the in-tree parallel runtime (`ipregel-par`): panic
//! containment through a real run, pool survival across a failed run,
//! and parallel-vs-sequential equivalence on the golden fixtures.
//!
//! These complement `crates/par/tests/pool_contract.rs` (which tests
//! the facade in isolation) by exercising the one consumer whose
//! guarantees the ISSUE names: `try_run*`'s chunk-granular
//! `catch_unwind` must see a vertex panic as a chunk failure and return
//! [`RunError::VertexPanic`] — not a poisoned or wedged thread pool.
//! Every engine is held bit-identical to the sequential oracle, which
//! the golden suite ties to `tools/golden_gen.rs`'s independent
//! expectations.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use ipregel::{
    run, run_sequential, try_run, CombinerKind, Context, RunConfig, RunError, Version,
    VertexProgram,
};
use ipregel_apps::{Hashmin, PageRank, Sssp};
use ipregel_graph::loaders::load_edge_list;
use ipregel_graph::{Graph, NeighborMode, VertexId};

fn fixture(name: &str) -> Graph {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let file = File::open(&path).unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    load_edge_list(BufReader::new(file), NeighborMode::Both).expect("fixture parses")
}

/// Hashmin that panics when a chosen vertex first computes — a stand-in
/// for a buggy user `compute`.
struct PoisonedHashmin {
    poison: VertexId,
}

impl VertexProgram for PoisonedHashmin {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, id: VertexId) -> u32 {
        id
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        assert!(
            !(ctx.is_first_superstep() && ctx.id() == self.poison),
            "injected panic at vertex {}",
            self.poison
        );
        let mut best = *value;
        while let Some(m) = ctx.next_message() {
            best = best.min(m);
        }
        if best < *value || ctx.is_first_superstep() {
            *value = best.min(*value);
            ctx.broadcast(*value);
        }
        ctx.vote_to_halt();
    }

    fn combine(old: &mut u32, new: u32) {
        *old = (*old).min(new);
    }
}

#[test]
fn vertex_panic_becomes_run_error_and_pool_survives() {
    let g = fixture("fixture_a.txt");
    let cfg = RunConfig { threads: Some(2), ..RunConfig::default() };

    for combiner in [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast] {
        let version = Version { combiner, selection_bypass: false };
        let err = try_run(&g, &PoisonedHashmin { poison: 3 }, version, &cfg)
            .err()
            .unwrap_or_else(|| panic!("{combiner:?}: the poisoned run must fail"));
        match err {
            RunError::VertexPanic { superstep, message, vertex_range, .. } => {
                assert_eq!(superstep, 0, "{combiner:?}: the poison fires in superstep 0");
                assert!(
                    message.contains("injected panic at vertex 3"),
                    "{combiner:?}: payload string survives: {message}"
                );
                let poisoned_index = g.index_of(3);
                assert!(
                    (vertex_range.0..=vertex_range.1).contains(&poisoned_index),
                    "{combiner:?}: blamed chunk {vertex_range:?} must contain vertex 3"
                );
            }
            other => panic!("{combiner:?}: expected VertexPanic, got {other}"),
        }

        // The global pool must come out of the failed run unharmed: the
        // same process, same pool, immediately runs a healthy program
        // and matches the sequential oracle exactly.
        let par = run(&g, &Hashmin, version, &cfg);
        let seq = run_sequential(&g, &Hashmin, &RunConfig::default());
        assert_eq!(par.values, seq.values, "{combiner:?}: pool survived but computes wrong values");
    }
}

#[test]
fn parallel_results_match_sequential_oracle_bit_for_bit() {
    let a = fixture("fixture_a.txt");
    let b = fixture("fixture_b.txt");
    let cfg = RunConfig { threads: Some(3), ..RunConfig::default() };
    let seq_cfg = RunConfig::default();

    for combiner in [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast] {
        for bypass in [false, true] {
            let v = Version { combiner, selection_bypass: bypass };

            // PageRank: parallel engines re-associate f64 message sums,
            // so versus the *sequential* oracle only tolerance equality
            // holds (same 1e-9 bound as tests/golden.rs). Re-run
            // reproducibility splits by combiner family:
            //
            // * The pull engine (`Broadcast`) gathers each inbox in CSR
            //   in-neighbour order — one fixed association per vertex —
            //   so identical configs reproduce identical bits even
            //   though any pool worker may take any chunk.
            // * The lock-based push combiners apply the user `combine`
            //   in message *arrival* order. Which worker delivers first
            //   is a lock race, so cross-chunk f64 sums re-associate
            //   between runs; reruns agree to association-level
            //   tolerance, not bitwise. (The chunk-order *reduction*
            //   contract — facade `sum()` bit-stable under forced
            //   stealing — is pinned in crates/par/tests/pool_contract.)
            let pr = PageRank { rounds: 20, damping: 0.85 };
            let par = run(&a, &pr, v, &cfg);
            let seq = run_sequential(&a, &pr, &seq_cfg);
            for (p, s) in par.values.iter().zip(&seq.values) {
                assert!(
                    (p - s).abs() <= 1e-9 * s.abs().max(p.abs()),
                    "{v:?}: PageRank drifted past tolerance: {p} vs {s}"
                );
            }
            let par2 = run(&a, &pr, v, &cfg);
            if combiner == CombinerKind::Broadcast {
                let bits: Vec<u64> = par.values.iter().map(|x| x.to_bits()).collect();
                let bits2: Vec<u64> = par2.values.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, bits2, "{v:?}: pull gather order is fixed; bits must match");
            } else {
                for (p, q) in par.values.iter().zip(&par2.values) {
                    assert!(
                        (p - q).abs() <= 1e-12 * q.abs().max(p.abs()),
                        "{v:?}: rerun drifted past re-association tolerance: {p} vs {q}"
                    );
                }
            }

            let par = run(&b, &Sssp { source: 2 }, v, &cfg);
            let seq = run_sequential(&b, &Sssp { source: 2 }, &seq_cfg);
            assert_eq!(par.values, seq.values, "{v:?}: SSSP distances must match");
        }
    }
}
