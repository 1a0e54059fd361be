//! Golden-result tests: committed fixture graphs with committed expected
//! outputs for the paper's three figure applications — PageRank
//! (Figure 6), Hashmin connected components (Figure 4 family) and SSSP
//! (Figure 5).
//!
//! The expectations under `tests/fixtures/*.expected` are produced by
//! `tools/golden_gen.rs`, a std-only program that computes them from
//! first principles (power iteration, min-label fixpoint, BFS) without
//! linking any workspace crate — so these tests cross-check the engines
//! against an independent oracle, not against their own past output.
//!
//! Every paper version runs under every `Schedule` policy: results must
//! be identical no matter how supersteps are chunked.
//!
//! Regenerate after editing a fixture graph:
//!
//! ```text
//! rustc --edition 2021 -O tools/golden_gen.rs -o /tmp/golden_gen && /tmp/golden_gen
//! ```

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use ipregel::{run, run_sequential, CombinerKind, RunConfig, RunOutput, Schedule, Version};
use ipregel_apps::{Hashmin, PageRank, Sssp};
use ipregel_graph::loaders::load_edge_list;
use ipregel_graph::{Graph, NeighborMode};

/// PageRank parameters mirrored in `tools/golden_gen.rs`.
const ROUNDS: usize = 20;
const DAMPING: f64 = 0.85;
/// SSSP source in fixture B, mirrored in `tools/golden_gen.rs`.
const SSSP_SOURCE: u32 = 2;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn fixture(name: &str) -> Graph {
    let path = fixture_path(name);
    let file = File::open(&path).unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    load_edge_list(BufReader::new(file), NeighborMode::Both).expect("fixture parses")
}

fn expected<T>(name: &str) -> BTreeMap<u32, T>
where
    T: FromStr,
    T::Err: Debug,
{
    let path = fixture_path(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .map(|line| {
            let mut it = line.split_whitespace();
            let id: u32 = it.next().expect("id column").parse().expect("id parses");
            let value: T = it.next().expect("value column").parse().expect("value parses");
            (id, value)
        })
        .collect()
}

/// Every `RunConfig` the golden results must be invariant under: all
/// three scheduling policies, at a thread count that forces real
/// chunking.
fn configs() -> impl Iterator<Item = RunConfig> {
    Schedule::all()
        .into_iter()
        .map(|schedule| RunConfig { threads: Some(4), schedule, ..RunConfig::default() })
}

fn assert_exact<V>(out: &RunOutput<V>, expected: &BTreeMap<u32, V>, label: &str)
where
    V: PartialEq + Debug + Clone,
{
    for (id, value) in out.iter() {
        let want = expected.get(&id).unwrap_or_else(|| panic!("{label}: unexpected vertex {id}"));
        assert_eq!(value, want, "{label}: vertex {id}");
    }
    assert_eq!(out.num_vertices(), expected.len(), "{label}: vertex count");
}

#[test]
fn hashmin_matches_golden_on_every_version_and_schedule() {
    let g = fixture("fixture_a.txt");
    let want: BTreeMap<u32, u32> = expected("fixture_a.hashmin.expected");
    for cfg in configs() {
        for v in Version::paper_versions() {
            let out = run(&g, &Hashmin, v, &cfg);
            assert_exact(&out, &want, &format!("{} / {}", v.label(), cfg.schedule));
        }
    }
    let seq = run_sequential(&g, &Hashmin, &RunConfig::default());
    assert_exact(&seq, &want, "sequential");
}

#[test]
fn sssp_matches_golden_on_every_version_and_schedule() {
    let g = fixture("fixture_b.txt");
    let want: BTreeMap<u32, u32> = expected("fixture_b.sssp.expected");
    let program = Sssp { source: SSSP_SOURCE };
    for cfg in configs() {
        for v in Version::paper_versions() {
            let out = run(&g, &program, v, &cfg);
            assert_exact(&out, &want, &format!("{} / {}", v.label(), cfg.schedule));
        }
    }
    let seq = run_sequential(&g, &program, &RunConfig::default());
    assert_exact(&seq, &want, "sequential");
}

#[test]
fn pagerank_matches_golden_within_tolerance() {
    let g = fixture("fixture_a.txt");
    let want: BTreeMap<u32, f64> = expected("fixture_a.pagerank.expected");
    let program = PageRank { rounds: ROUNDS, damping: DAMPING };
    // Bypass is unsound for PageRank (vertices must run even without
    // messages), so only the three scan-selection combiners apply.
    let combiners = [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast];
    let mut checked = 0usize;
    for cfg in configs() {
        for combiner in combiners {
            let v = Version { combiner, selection_bypass: false };
            let out = run(&g, &program, v, &cfg);
            for (id, &value) in out.iter() {
                let want = want[&id];
                // Combination order differs per engine/schedule, so f64
                // sums drift at ~1e-15 relative per round; 1e-9 is a
                // comfortable ceiling that still catches semantic bugs.
                let tolerance = 1e-9 * want.abs().max(value.abs());
                assert!(
                    (value - want).abs() <= tolerance,
                    "{} / {}: vertex {id}: got {value:e}, want {want:e}",
                    v.label(),
                    cfg.schedule,
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 24 * combiners.len() * Schedule::all().len());

    let seq = run_sequential(&g, &program, &RunConfig::default());
    for (id, &value) in seq.iter() {
        let want = want[&id];
        assert!((value - want).abs() <= 1e-9 * want.abs(), "sequential: vertex {id}");
    }
}

#[test]
fn tracing_does_not_perturb_golden_results() {
    // Observability must be read-only: arming a tracer through
    // `RunConfig::trace` cannot change a single bit of the computed
    // values. The sequential oracle makes the PageRank comparison exact
    // (same f64 bits, not same-within-tolerance).
    let g = fixture("fixture_a.txt");
    let program = PageRank { rounds: ROUNDS, damping: DAMPING };
    let plain = run_sequential(&g, &program, &RunConfig::default());
    let tracer = std::sync::Arc::new(ipregel::trace::Tracer::new());
    let traced_cfg = RunConfig { trace: Some(tracer.clone()), ..RunConfig::default() };
    let traced = run_sequential(&g, &program, &traced_cfg);
    for ((id_a, a), (id_b, b)) in plain.iter().zip(traced.iter()) {
        assert_eq!(id_a, id_b);
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {id_a}: tracing changed a PageRank bit");
    }

    // Same for a parallel engine on exact integer values.
    let v = Version { combiner: CombinerKind::Spinlock, selection_bypass: false };
    let cfg = RunConfig { threads: Some(4), ..RunConfig::default() };
    let plain = run(&g, &Hashmin, v, &cfg);
    let traced = run(
        &g,
        &Hashmin,
        v,
        &RunConfig { trace: Some(tracer.clone()), ..cfg },
    );
    assert_eq!(plain.values, traced.values, "tracing changed Hashmin labels");
    assert!(!tracer.take_events().is_empty(), "the armed tracer recorded nothing");
}

#[test]
fn golden_runs_record_load_stats() {
    // The golden fixtures double as a smoke test for the scheduling
    // metrics: every parallel superstep must report a load plan whose
    // chunk edge counts and durations have matching lengths. Grain 1
    // keeps the fixture's small supersteps cut into several chunks.
    let g = fixture("fixture_a.txt");
    for schedule in Schedule::all() {
        let cfg =
            RunConfig { threads: Some(4), schedule, grain: Some(1), ..RunConfig::default() };
        let out = run(
            &g,
            &Hashmin,
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &cfg,
        );
        assert!(out.stats.num_supersteps() > 0);
        for step in &out.stats.supersteps {
            let load = step.load.as_ref().expect("parallel supersteps record load stats");
            assert_eq!(load.chunk_edges.len(), load.chunk_durations.len());
            assert!(load.num_chunks() > 0, "superstep ran at least one chunk");
            assert!(load.edge_imbalance() >= 1.0);
            assert!(load.duration_imbalance() >= 1.0);
        }
    }
}
