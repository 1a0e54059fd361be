//! Trace/stats reconciliation (docs/INTERNALS.md, "Observability"):
//! with tracing armed, the JSONL event stream must agree *exactly* with
//! the `RunStats` the engine returns — same supersteps, same active
//! counts, same message counts, same chunk counts — for the paper's
//! three figure applications, on every version × schedule. The trace is
//! not a second opinion computed differently; it is the same facts
//! observed through a second channel, so any disagreement is a bug in
//! one of them.
//!
//! Requires `--features trace` (the whole file is compiled out
//! otherwise — recording is a no-op without the feature, so there would
//! be nothing to reconcile).
#![cfg(feature = "trace")]

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ipregel::trace::{self, decode_trace, encode_trace, TraceEvent, Tracer};
use ipregel::{
    run, run_packed, run_sequential, CombinerKind, RunConfig, RunStats, Schedule, Version,
    VertexProgram,
};
use ipregel_apps::{Hashmin, PageRank, Sssp};
use ipregel_graph::loaders::load_edge_list;
use ipregel_graph::{Graph, NeighborMode};

/// Mirrors `tests/golden.rs`.
const ROUNDS: usize = 20;
const DAMPING: f64 = 0.85;
const SSSP_SOURCE: u32 = 2;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn fixture(name: &str) -> Graph {
    let path = fixture_path(name);
    let file = File::open(&path).unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    load_edge_list(BufReader::new(file), NeighborMode::Both).expect("fixture parses")
}

/// The two superstep shapes a fixture-sized run can take: cut as fine as
/// the planner can (chunks forked onto the pool's workers) and
/// the planner's own choice (small supersteps run as one chunk).
const GRAINS: [Option<usize>; 2] = [Some(1), None];

fn traced_cfg(schedule: Schedule, grain: Option<usize>) -> (RunConfig, Arc<Tracer>) {
    let tracer = Arc::new(Tracer::new());
    let cfg = RunConfig {
        threads: Some(4),
        schedule,
        grain,
        trace: Some(tracer.clone()),
        ..RunConfig::default()
    };
    (cfg, tracer)
}

/// Every schedule under every grain of [`GRAINS`].
fn shapes() -> impl Iterator<Item = (Schedule, Option<usize>)> {
    Schedule::all().into_iter().flat_map(|s| GRAINS.map(|g| (s, g)))
}

/// Structural invariants every trace must satisfy, plus the exact
/// reconciliation against `RunStats`.
fn check(stats: &RunStats, events: &[TraceEvent], label: &str) {
    assert!(
        matches!(events.first(), Some(TraceEvent::RunBegin { .. })),
        "{label}: trace must open with run_begin, got {:?}",
        events.first()
    );
    match events.last() {
        Some(&TraceEvent::RunEnd { supersteps, messages, .. }) => {
            assert_eq!(supersteps, stats.num_supersteps() as u64, "{label}: run_end supersteps");
            assert_eq!(messages, stats.total_messages(), "{label}: run_end messages");
        }
        other => panic!("{label}: trace must close with run_end, got {other:?}"),
    }
    stats.reconcile_trace(events).unwrap_or_else(|e| panic!("{label}: {e}"));

    // Per superstep: `superstep_begin, chunk* (ascending), …,
    // superstep_end`, with the chunk events mirroring the load plan.
    let mut current: Option<u64> = None;
    let mut chunk_indices: Vec<u64> = Vec::new();
    let mut planned: Vec<u64> = Vec::new();
    // `(duration_ns, worker)` of each chunk event.
    let mut measured: Vec<(u64, u64)> = Vec::new();
    for e in events {
        match *e {
            TraceEvent::SuperstepBegin { superstep } => {
                assert_eq!(current, None, "{label}: nested superstep {superstep}");
                current = Some(superstep);
                chunk_indices.clear();
                planned.clear();
                measured.clear();
            }
            TraceEvent::Chunk { superstep, chunk, planned_edges, duration_ns, worker, .. } => {
                assert_eq!(Some(superstep), current, "{label}: chunk outside its superstep span");
                chunk_indices.push(chunk);
                planned.push(planned_edges);
                measured.push((duration_ns, worker));
            }
            TraceEvent::SuperstepEnd { superstep, chunks, .. } => {
                assert_eq!(Some(superstep), current, "{label}: unmatched superstep_end");
                assert_eq!(
                    chunk_indices.len() as u64, chunks,
                    "{label}: superstep {superstep}: chunk events vs chunks field"
                );
                assert!(
                    chunk_indices.windows(2).all(|w| w[0] < w[1]),
                    "{label}: superstep {superstep}: chunk events not in ascending order: {chunk_indices:?}"
                );
                let entry = stats
                    .supersteps
                    .iter()
                    .find(|s| s.superstep as u64 == superstep)
                    .unwrap_or_else(|| panic!("{label}: trace superstep {superstep} not in stats"));
                if let Some(load) = &entry.load {
                    if !chunk_indices.is_empty() {
                        let expect: Vec<u64> = load.chunk_edges.clone();
                        assert_eq!(
                            planned, expect,
                            "{label}: superstep {superstep}: planned chunk weights"
                        );
                        // Durations and workers come from the same tally.
                        let tallied: Vec<(u64, u64)> = load
                            .chunk_durations
                            .iter()
                            .zip(&load.chunk_workers)
                            .map(|(&d, &w)| (trace::ns(d), w))
                            .collect();
                        assert_eq!(
                            measured, tallied,
                            "{label}: superstep {superstep}: chunk durations and workers"
                        );
                    }
                }
                current = None;
            }
            _ => {}
        }
    }
    assert_eq!(current, None, "{label}: trace ends inside a superstep span");
}

fn reconcile_parallel<P: VertexProgram>(g: &Graph, p: &P, versions: &[Version], app: &str) {
    for (schedule, grain) in shapes() {
        for &v in versions {
            let (cfg, tracer) = traced_cfg(schedule, grain);
            let out = run(g, p, v, &cfg);
            let events = tracer.take_events();
            assert_eq!(tracer.dropped_events(), 0, "no trace event dropped");
            let label = format!("{app} / {} / {schedule} / grain {grain:?}", v.label());
            check(&out.stats, &events, &label);
        }
    }
}

#[test]
fn hashmin_trace_reconciles_on_every_version_and_schedule() {
    let g = fixture("fixture_a.txt");
    reconcile_parallel(&g, &Hashmin, &Version::paper_versions(), "hashmin");
}

#[test]
fn sssp_trace_reconciles_on_every_version_and_schedule() {
    let g = fixture("fixture_b.txt");
    reconcile_parallel(&g, &Sssp { source: SSSP_SOURCE }, &Version::paper_versions(), "sssp");
}

#[test]
fn pagerank_trace_reconciles_on_scan_versions() {
    // Bypass is unsound for PageRank; the three scan-selection
    // combiners are the valid matrix (as in tests/golden.rs).
    let g = fixture("fixture_a.txt");
    let versions: Vec<Version> = [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast]
        .into_iter()
        .map(|combiner| Version { combiner, selection_bypass: false })
        .collect();
    reconcile_parallel(&g, &PageRank { rounds: ROUNDS, damping: DAMPING }, &versions, "pagerank");
}

#[test]
fn lockfree_packed_trace_reconciles() {
    let g = fixture("fixture_b.txt");
    let v = Version { combiner: CombinerKind::LockFree, selection_bypass: true };
    for (schedule, grain) in shapes() {
        let (cfg, tracer) = traced_cfg(schedule, grain);
        let out = run_packed(&g, &Sssp { source: SSSP_SOURCE }, v, &cfg);
        let events = tracer.take_events();
        check(&out.stats, &events, &format!("lock-free / {schedule} / grain {grain:?}"));
    }
}

#[test]
fn sequential_trace_reconciles() {
    let g = fixture("fixture_a.txt");
    let tracer = Arc::new(Tracer::new());
    let cfg = RunConfig { trace: Some(tracer.clone()), ..RunConfig::default() };
    let out = run_sequential(&g, &Hashmin, &cfg);
    let events = tracer.take_events();
    check(&out.stats, &events, "seq/hashmin");
    // The oracle runs one implicit chunk per superstep.
    for e in &events {
        if let TraceEvent::SuperstepEnd { chunks, .. } = e {
            assert_eq!(*chunks, 1);
        }
    }
}

/// The selection-bypass drain is the one sparse path where activity is
/// decided by a concurrent worklist rather than a scan; the trace pins
/// its accounting. `queued` counts raw (duplicate-including) pushes,
/// `drained` the deduplicated active list — so queued ≥ drained always,
/// and `drained` must equal the active count the next superstep
/// reports, because the drained list *is* what runs.
#[test]
fn worklist_drains_match_superstep_activity() {
    let g = fixture("fixture_b.txt");
    let program = Sssp { source: SSSP_SOURCE };
    for (schedule, grain) in shapes() {
        for combiner in [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast] {
            let v = Version { combiner, selection_bypass: true };
            let label = format!("{} / {schedule} / grain {grain:?}", v.label());
            let (cfg, tracer) = traced_cfg(schedule, grain);
            let out = run(&g, &program, v, &cfg);
            let events = tracer.take_events();
            check(&out.stats, &events, &label);
            let drains: Vec<(u64, u64, u64)> = events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::WorklistDrain { superstep, queued, drained } => {
                        Some((superstep, queued, drained))
                    }
                    _ => None,
                })
                .collect();
            assert!(!drains.is_empty(), "{label}: bypass runs must drain worklists");
            let mut matched = 0usize;
            for (superstep, queued, drained) in drains {
                assert!(
                    queued >= drained,
                    "{label}: superstep {superstep}: drained {drained} exceeds queued {queued}"
                );
                let end_active = events.iter().find_map(|e| match *e {
                    TraceEvent::SuperstepEnd { superstep: s, active, .. } if s == superstep => {
                        Some(active)
                    }
                    _ => None,
                });
                match end_active {
                    Some(active) => {
                        assert_eq!(
                            drained, active,
                            "{label}: superstep {superstep}: drained list vs active count"
                        );
                        matched += 1;
                    }
                    // A drain that comes up empty ends the run: no
                    // further superstep exists to match it against.
                    None => assert_eq!(
                        drained, 0,
                        "{label}: superstep {superstep} drained work but never ran"
                    ),
                }
            }
            assert!(matched > 0, "{label}: no drain matched a superstep");
        }
    }
}

/// A traced run's file round-trips: encode → decode reproduces the
/// event list, end to end through the real engine output (the codec
/// unit tests cover arbitrary values; this covers the integration).
#[test]
fn engine_traces_round_trip_through_the_codec() {
    let g = fixture("fixture_a.txt");
    let (cfg, tracer) = traced_cfg(Schedule::default(), Some(1));
    let v = Version { combiner: CombinerKind::Spinlock, selection_bypass: false };
    let _ = run(&g, &Hashmin, v, &cfg);
    let events = tracer.take_events();
    assert!(!events.is_empty());
    assert_eq!(decode_trace(&encode_trace(&events)).unwrap(), events);
}
