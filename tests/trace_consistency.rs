//! The engines' traces (docs/INTERNALS.md, "Observability"): every
//! superstep's span is rendered from its `SuperstepStats` entry by one
//! function (`ipregel::trace::render_superstep`, unit-tested in
//! `trace.rs`), so what is left to check here is what the engines
//! themselves decide. Each trace is framed — `run_begin`, one
//! `superstep_begin … superstep_end` span per completed superstep, with
//! its chunks in plan order, then `run_end` — on every version ×
//! schedule and on the oracle. A superstep torn by a panic leaves no span.
//! The selection bypass's drains match the activity they feed. An
//! engine's trace survives the codec.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ipregel::engine::RunError;
use ipregel::program::Context;
use ipregel::trace::{decode_trace, encode_trace, TraceEvent, Tracer};
use ipregel::{
    run, run_sequential, try_run, try_run_sequential, CombinerKind, RunConfig,
    RunStats, Schedule, Version, VertexProgram,
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

/// The superstep spans of `events`, in order: `superstep_begin`, chunk
/// events numbered 0, 1, … up to the `superstep_end`'s count, nothing
/// nested. Returns each span's superstep number.
fn spans(events: &[TraceEvent], label: &str) -> Vec<u64> {
    let mut done = Vec::new();
    let mut open: Option<(u64, u64)> = None;
    for e in events {
        match *e {
            TraceEvent::SuperstepBegin { superstep } => {
                assert_eq!(open, None, "{label}: superstep {superstep} opens inside a span");
                open = Some((superstep, 0));
            }
            TraceEvent::Chunk { superstep, chunk, .. } => {
                let (at, next) = open.expect("chunk outside a span");
                assert_eq!((superstep, chunk), (at, next), "{label}: chunk out of plan order");
                open = Some((at, next + 1));
            }
            TraceEvent::SuperstepEnd { superstep, chunks, .. } => {
                let (at, seen) = open.take().expect("superstep_end outside a span");
                assert_eq!((superstep, chunks), (at, seen), "{label}: span closes unmatched");
                done.push(superstep);
            }
            _ => {}
        }
    }
    assert_eq!(open, None, "{label}: trace ends inside a superstep span");
    done
}

/// A whole run's trace: opened by `run_begin`, closed by `run_end` with
/// the run's totals, and one span per superstep the stats hold.
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
    let expect: Vec<u64> = stats.supersteps.iter().map(|s| s.superstep as u64).collect();
    assert_eq!(spans(events, label), expect, "{label}: one span per superstep");
}

#[test]
fn every_engine_frames_its_trace() {
    let a = fixture("fixture_a.txt");
    let b = fixture("fixture_b.txt");
    let pagerank = PageRank { rounds: ROUNDS, damping: DAMPING };
    let sssp = Sssp { source: SSSP_SOURCE };
    for (schedule, grain) in shapes() {
        for v in Version::paper_versions() {
            let label = format!("{} / {schedule} / grain {grain:?}", v.label());
            let (cfg, tracer) = traced_cfg(schedule, grain);
            let out = run(&a, &Hashmin, v, &cfg);
            check(&out.stats, &tracer.take_events(), &format!("hashmin / {label}"));
            let out = run(&b, &sssp, v, &cfg);
            check(&out.stats, &tracer.take_events(), &format!("sssp / {label}"));
            // Bypass is unsound for PageRank (as in tests/golden.rs).
            if !v.selection_bypass {
                let out = run(&a, &pagerank, v, &cfg);
                check(&out.stats, &tracer.take_events(), &format!("pagerank / {label}"));
            }
            assert_eq!(tracer.dropped_events(), 0, "{label}: no trace event dropped");
        }
    }
    let tracer = Arc::new(Tracer::new());
    let cfg = RunConfig { trace: Some(tracer.clone()), ..RunConfig::default() };
    let out = run_sequential(&a, &Hashmin, &cfg);
    let events = tracer.take_events();
    check(&out.stats, &events, "seq/hashmin");
    // The oracle runs one implicit chunk per superstep.
    let chunks = events.iter().filter(|e| matches!(e, TraceEvent::Chunk { .. })).count();
    assert_eq!(chunks, out.stats.num_supersteps(), "seq: one chunk per superstep");
}

/// Flood-fills minimum labels, and panics in every vertex that runs in
/// superstep [`Self::at`].
struct PanicsAt {
    at: usize,
}

impl VertexProgram for PanicsAt {
    type Value = u32;
    type Message = u32;
    fn initial_value(&self, id: u32) -> u32 {
        id
    }
    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        assert_ne!(ctx.superstep(), self.at, "the superstep fails on purpose");
        let mut best = *value;
        while let Some(m) = ctx.next_message() {
            best = best.min(m);
        }
        if ctx.superstep() == 0 || best < *value {
            *value = best;
            ctx.broadcast(best);
        }
        ctx.vote_to_halt();
    }
    fn combine(old: &mut u32, new: u32) {
        *old = (*old).min(new);
    }
}

/// A superstep a vertex panics in closes no stats entry, so it leaves no
/// span: the trace holds exactly the supersteps the error's stats hold.
#[test]
fn a_torn_superstep_leaves_no_span() {
    let g = fixture("fixture_a.txt");
    let program = PanicsAt { at: 2 };
    let torn = |result: Result<_, RunError>, events: Vec<TraceEvent>, label: &str| {
        let Err(RunError::VertexPanic { superstep, stats, .. }) = result else {
            panic!("{label}: the run must fail in superstep 2");
        };
        assert_eq!(superstep, 2, "{label}");
        assert!(matches!(events.first(), Some(TraceEvent::RunBegin { .. })), "{label}");
        assert_eq!(spans(&events, label), [0, 1], "{label}: spans of the completed supersteps");
        assert_eq!(stats.num_supersteps(), 2, "{label}: the error's stats");
        assert!(
            !events.iter().any(|e| matches!(e, TraceEvent::RunEnd { .. })),
            "{label}: a failed run has no run_end"
        );
    };
    for (schedule, grain) in shapes() {
        for combiner in [CombinerKind::Spinlock, CombinerKind::Broadcast] {
            let v = Version { combiner, selection_bypass: false };
            let (cfg, tracer) = traced_cfg(schedule, grain);
            let result = try_run(&g, &program, v, &cfg).map(|_| ());
            torn(result, tracer.take_events(), &format!("{} / {schedule} / {grain:?}", v.label()));
        }
    }
    let tracer = Arc::new(Tracer::new());
    let cfg = RunConfig { trace: Some(tracer.clone()), ..RunConfig::default() };
    let result = try_run_sequential(&g, &program, &cfg).map(|_| ());
    torn(result, tracer.take_events(), "seq");
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
