//! Fault-tolerance tests: panic isolation, cooperative deadlines,
//! checkpoint/resume equivalence, loader robustness under corruption,
//! and (behind `--features chaos`) deterministic injected failures.
//!
//! The load-bearing invariant throughout is the one golden.rs enforces
//! for schedules, extended to crashes: a run that is killed at a
//! superstep barrier and resumed from its checkpoint must be
//! *indistinguishable* from a run that was never interrupted — same
//! values, same superstep count, same per-superstep active/message
//! history — on every engine version and schedule.
//!
//! The chaos plan and the Rust panic hook are process-global, so every
//! test that runs an engine (or arms a plan) serialises on [`LOCK`].
//! The proptest loader-fuzz suites touch neither and run freely.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs::{self, File};
use std::io::{BufReader, Cursor};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use ipregel::engine::seq::try_run_sequential_recoverable;
use ipregel::recover::{run_with_checkpoints, DiskCheckpointer};
use ipregel::{
    try_run, try_run_sequential, CheckpointConfig, CombinerKind, Context, Persist, RunConfig,
    RunError, RunOutput, Schedule, Version, VertexProgram,
};
use ipregel_apps::{Hashmin, PageRank, Sssp};
use ipregel_graph::loaders::{
    load_dimacs_gr, load_edge_list, load_konect, read_binary, write_binary,
};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode, VertexId};
use proptest::prelude::*;

/// PageRank parameters mirrored from `tests/golden.rs`.
const ROUNDS: usize = 20;
const DAMPING: f64 = 0.85;
/// SSSP source in fixture B, mirrored from `tests/golden.rs`.
const SSSP_SOURCE: u32 = 2;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A failed test poisons the mutex; the guarded state (chaos plan,
    // panic hook) is reset by guards below, so poison is shrugged off.
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// A fresh, empty scratch directory under the system temp dir.
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipregel-fault-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A symmetric cycle on `0..n`: every vertex has in- and out-neighbours,
/// so it stays active under both scan selection and the bypass, and
/// Hashmin needs about `n / 2` supersteps to converge on it.
fn cycle(n: u32) -> Graph {
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n);
        b.add_edge((i + 1) % n, i);
    }
    b.build().expect("cycle builds")
}

/// The resume-invariant projection of a run: per-superstep active and
/// message counts (durations are wall-clock facts, not results).
fn history<V>(out: &RunOutput<V>) -> Vec<(u64, u64)> {
    out.stats.supersteps.iter().map(|s| (s.active, s.messages_sent)).collect()
}

/// Run `f` with the default panic hook silenced, so intentionally
/// panicking vertex programs do not spray backtraces over test output.
fn silencing_panics<T>(f: impl FnOnce() -> T) -> T {
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
    struct Restore(Option<PanicHook>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                std::panic::set_hook(prev);
            }
        }
    }
    let guard = Restore(Some(std::panic::take_hook()));
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    drop(guard);
    out
}

/// Broadcasts for a fixed number of supersteps (keeping every vertex
/// active on every engine), and panics inside `compute` on one chosen
/// vertex at one chosen superstep. Halts every superstep, so it is
/// bypass-compatible; broadcast-only, so it is pull-compatible.
struct PanicAt {
    victim: u32,
    at: usize,
}

impl VertexProgram for PanicAt {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
        0
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        if ctx.superstep() == self.at && ctx.id() == self.victim {
            panic!("injected test panic at superstep {}", self.at);
        }
        while ctx.next_message().is_some() {}
        *value += 1;
        if ctx.superstep() < 6 {
            ctx.broadcast(1);
        }
        ctx.vote_to_halt();
    }

    fn combine(old: &mut u32, new: u32) {
        *old += new;
    }
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

#[test]
fn vertex_panic_is_isolated_on_every_version() {
    let _held = lock();
    let g = cycle(8);
    let program = PanicAt { victim: 3, at: 2 };
    // Both shapes of a superstep: grain 1 cuts the eight vertices into
    // eight pool tasks, so the panic unwinds in a task on some worker;
    // the default grain leaves so light a superstep whole, so it unwinds
    // on the orchestrating worker itself, as chunk 0 of one.
    let shapes = [(Some(1), 3, (3, 3)), (None, 0, (0, 7))];
    silencing_panics(|| {
        for schedule in Schedule::all() {
            for (grain, blamed, blamed_range) in shapes {
                let cfg = RunConfig { threads: Some(4), schedule, grain, ..RunConfig::default() };
                for v in Version::paper_versions() {
                    let label = format!("{} / {schedule} / grain {grain:?}", v.label());
                    match try_run(&g, &program, v, &cfg) {
                        Err(RunError::VertexPanic {
                            superstep, chunk, vertex_range, message, stats,
                        }) => {
                            assert_eq!(superstep, 2, "{label}");
                            assert_eq!((chunk, vertex_range), (blamed, blamed_range), "{label}");
                            assert!(message.contains("injected test panic"), "{label}: {message}");
                            // Supersteps 0 and 1 completed before the crash.
                            assert_eq!(stats.num_supersteps(), 2, "{label}");
                        }
                        other => panic!("{label}: expected VertexPanic, got {other:?}"),
                    }
                    // The pool survived: the same config immediately runs a
                    // healthy program to completion.
                    try_run(&g, &Hashmin, v, &cfg).unwrap_or_else(|e| {
                        panic!("{label}: pool did not survive the panic: {e}")
                    });
                }
            }
        }
        match try_run_sequential(&g, &program, &RunConfig::default()) {
            Err(RunError::VertexPanic { superstep, message, stats, .. }) => {
                assert_eq!(superstep, 2, "sequential");
                assert!(message.contains("injected test panic"), "sequential: {message}");
                assert_eq!(stats.num_supersteps(), 2, "sequential");
            }
            other => panic!("sequential: expected VertexPanic, got {other:?}"),
        }
    });
}

// ---------------------------------------------------------------------
// Cooperative deadlines
// ---------------------------------------------------------------------

#[test]
fn zero_deadline_exceeds_before_any_superstep() {
    let _held = lock();
    let g = cycle(8);
    let cfg =
        RunConfig { threads: Some(2), deadline: Some(Duration::ZERO), ..RunConfig::default() };
    for v in Version::paper_versions() {
        match try_run(&g, &Hashmin, v, &cfg) {
            Err(RunError::DeadlineExceeded { superstep, stats, .. }) => {
                assert_eq!(superstep, 0, "{}", v.label());
                assert_eq!(stats.num_supersteps(), 0, "{}", v.label());
            }
            other => panic!("{}: expected DeadlineExceeded, got {other:?}", v.label()),
        }
    }
    match try_run_sequential(&g, &Hashmin, &cfg) {
        Err(RunError::DeadlineExceeded { superstep, stats, .. }) => {
            assert_eq!(superstep, 0, "sequential");
            assert_eq!(stats.num_supersteps(), 0, "sequential");
        }
        other => panic!("sequential: expected DeadlineExceeded, got {other:?}"),
    }
}

/// A Hashmin that stalls in `compute` and counts executions, to pin the
/// chunk-boundary deadline bound (see `deadline_cuts_inside_a_superstep`).
struct SlowCountingHashmin {
    stall: Duration,
    executed: std::sync::atomic::AtomicU64,
}

impl VertexProgram for SlowCountingHashmin {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, id: VertexId) -> u32 {
        id
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        self.executed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::thread::sleep(self.stall);
        let before = *value;
        while let Some(m) = ctx.next_message() {
            *value = (*value).min(m);
        }
        if ctx.superstep() == 0 || *value < before {
            let v = *value;
            ctx.broadcast(v);
        } else {
            ctx.vote_to_halt();
        }
    }

    fn combine(acc: &mut u32, incoming: u32) {
        *acc = (*acc).min(incoming);
    }
}

/// Regression for the chunk-boundary deadline check: before it, the
/// deadline was only consulted at superstep barriers, so one slow
/// superstep ran *every* vertex no matter how small the budget. Now a
/// chunk that starts past the deadline declines to run, bounding the
/// overrun to one chunk's work. With one vertex per chunk on a single
/// thread, a budget worth a few vertices must leave most of the 64
/// unexecuted — and the superstep must be discarded wholesale.
#[test]
fn deadline_cuts_inside_a_superstep() {
    let _held = lock();
    let g = cycle(64);
    let stall = Duration::from_millis(2);
    // Grain 1 → one vertex per chunk; one thread → chunks run in
    // sequence, so the elapsed clock advances between chunk starts.
    let cfg = RunConfig {
        threads: Some(1),
        grain: Some(1),
        deadline: Some(stall * 4),
        ..RunConfig::default()
    };
    for v in Version::paper_versions() {
        let program = SlowCountingHashmin { stall, executed: 0.into() };
        match try_run(&g, &program, v, &cfg) {
            Err(RunError::DeadlineExceeded { superstep, stats, .. }) => {
                assert_eq!(superstep, 0, "{}", v.label());
                assert_eq!(stats.num_supersteps(), 0, "{}: torn superstep kept", v.label());
            }
            other => panic!("{}: expected DeadlineExceeded, got {other:?}", v.label()),
        }
        let executed = program.executed.load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            executed < 64,
            "{}: deadline never cut inside the superstep (all 64 vertices ran)",
            v.label()
        );
    }
}

/// [`PanicAt`]'s traffic, except that the chosen vertex stalls instead
/// of panicking.
struct StallAt {
    victim: u32,
    at: usize,
    stall: Duration,
}

impl VertexProgram for StallAt {
    type Value = u32;
    type Message = u32;

    fn initial_value(&self, _id: VertexId) -> u32 {
        0
    }

    fn compute<C: Context<Message = u32>>(&self, value: &mut u32, ctx: &mut C) {
        if ctx.superstep() == self.at && ctx.id() == self.victim {
            std::thread::sleep(self.stall);
        }
        while ctx.next_message().is_some() {}
        *value += 1;
        if ctx.superstep() < 6 {
            ctx.broadcast(1);
        }
        ctx.vote_to_halt();
    }

    fn combine(old: &mut u32, new: u32) {
        *old += new;
    }
}

/// A deadline that runs out while supersteps run whole on the
/// orchestrating worker: nothing can cut inside a one-chunk superstep
/// that started in time, so the stalled superstep 2 completes and the
/// barrier before superstep 3 reports the miss, with the stats of all
/// three completed supersteps, each one chunk. (Cut into pool tasks the
/// same run may also stop a superstep earlier, when a task starts late.)
#[test]
fn deadline_across_one_chunk_supersteps_keeps_the_completed_ones() {
    let _held = lock();
    let g = cycle(8);
    let deadline = Duration::from_millis(200);
    let program = StallAt { victim: 3, at: 2, stall: deadline };
    for grain in [None, Some(1)] {
        let cfg =
            RunConfig { threads: Some(2), grain, deadline: Some(deadline), ..RunConfig::default() };
        for v in Version::paper_versions() {
            let label = format!("{} / grain {grain:?}", v.label());
            match try_run(&g, &program, v, &cfg) {
                Err(RunError::DeadlineExceeded { superstep, stats, .. }) => {
                    assert_eq!(stats.num_supersteps(), superstep, "{label}: completed supersteps");
                    let chunks: Vec<usize> = stats
                        .supersteps
                        .iter()
                        .map(|s| s.load.as_ref().expect("load stats").num_chunks())
                        .collect();
                    if grain.is_none() {
                        assert_eq!(superstep, 3, "{label}");
                        assert_eq!(chunks, [1, 1, 1], "{label}: light supersteps run whole");
                    } else {
                        assert!(superstep == 2 || superstep == 3, "{label}: stopped at {superstep}");
                        assert!(chunks.iter().all(|&c| c == 8), "{label}: {chunks:?}");
                    }
                }
                other => panic!("{label}: expected DeadlineExceeded, got {other:?}"),
            }
            // The pool is fine: the same config, given time, converges.
            let relaxed = RunConfig { deadline: None, ..cfg.clone() };
            try_run(&g, &Hashmin, v, &relaxed)
                .unwrap_or_else(|e| panic!("{label}: pool did not survive the deadline: {e}"));
        }
    }
}

/// Sequential analogue: the in-loop check fires every 256 executed
/// vertices, so a 600-vertex superstep with a budget worth far fewer
/// must stop at one of those boundaries instead of running all 600.
#[test]
fn sequential_deadline_cuts_inside_a_superstep() {
    let _held = lock();
    let g = cycle(600);
    let program =
        SlowCountingHashmin { stall: Duration::from_micros(100), executed: 0.into() };
    let cfg =
        RunConfig { deadline: Some(Duration::from_millis(8)), ..RunConfig::default() };
    match try_run_sequential(&g, &program, &cfg) {
        Err(RunError::DeadlineExceeded { superstep, stats, .. }) => {
            assert_eq!(superstep, 0);
            assert_eq!(stats.num_supersteps(), 0, "torn superstep kept");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let executed = program.executed.load(std::sync::atomic::Ordering::Relaxed);
    assert!(executed < 600, "deadline never cut inside the superstep (all 600 ran)");
}

// ---------------------------------------------------------------------
// Checkpoint / resume equivalence (the PR-2 invariant)
// ---------------------------------------------------------------------

/// Kill-at-k + resume == uninterrupted, on every version × schedule:
/// run a baseline, re-run with a superstep cap and per-superstep
/// checkpoints, resume without the cap, and demand identical values,
/// superstep counts and per-superstep history.
fn assert_resume_matches<P>(g: &Graph, program: &P, tag: &str)
where
    P: VertexProgram,
    P::Value: Persist + PartialEq + Debug,
    P::Message: Persist,
{
    for (si, schedule) in Schedule::all().into_iter().enumerate() {
        for (vi, v) in Version::paper_versions().into_iter().enumerate() {
            let cfg = RunConfig { threads: Some(4), schedule, ..RunConfig::default() };
            let label = format!("{tag} / {} / {schedule}", v.label());
            let baseline =
                try_run(g, program, v, &cfg).unwrap_or_else(|e| panic!("{label}: baseline: {e}"));
            let n = baseline.stats.num_supersteps();
            assert!(n >= 2, "{label}: fixture converges too fast to test a cut");
            // Cut somewhere in the middle; at least 2 so a checkpoint
            // exists (the first one is written at superstep 1).
            let cut = (n / 2).max(2);
            let dir = tempdir(&format!("{tag}-{si}-{vi}"));
            let cut_cfg = RunConfig { max_supersteps: Some(cut), ..cfg.clone() };
            run_with_checkpoints(g, program, v, &cut_cfg, &CheckpointConfig::new(&dir, 1))
                .unwrap_or_else(|e| panic!("{label}: interrupted run: {e}"));
            let resume = CheckpointConfig::new(&dir, 1).resuming();
            let resumed = run_with_checkpoints(g, program, v, &cfg, &resume)
                .unwrap_or_else(|e| panic!("{label}: resume: {e}"));
            assert_eq!(resumed.values, baseline.values, "{label}: values");
            assert_eq!(history(&resumed), history(&baseline), "{label}: history");
            assert_eq!(
                resumed.stats.total_messages(),
                baseline.stats.total_messages(),
                "{label}: message totals"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn hashmin_resume_matches_uninterrupted_on_every_version() {
    let _held = lock();
    let g = fixture("fixture_a.txt");
    let want: BTreeMap<u32, u32> = expected("fixture_a.hashmin.expected");
    assert_resume_matches(&g, &Hashmin, "hashmin");
    // And the golden oracle agrees with a resumed run end-to-end.
    let dir = tempdir("hashmin-golden");
    let v = Version { combiner: CombinerKind::Mutex, selection_bypass: false };
    let cut_cfg = RunConfig { max_supersteps: Some(2), ..RunConfig::default() };
    run_with_checkpoints(&g, &Hashmin, v, &cut_cfg, &CheckpointConfig::new(&dir, 1)).expect("cut");
    let out = run_with_checkpoints(
        &g,
        &Hashmin,
        v,
        &RunConfig::default(),
        &CheckpointConfig::new(&dir, 1).resuming(),
    )
    .expect("resume");
    for (id, value) in out.iter() {
        assert_eq!(value, &want[&id], "golden check after resume: vertex {id}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sssp_resume_matches_uninterrupted_on_every_version() {
    let _held = lock();
    let g = fixture("fixture_b.txt");
    assert_resume_matches(&g, &Sssp { source: SSSP_SOURCE }, "sssp");
}

#[test]
fn pagerank_resume_is_bit_identical_on_the_pull_engine() {
    let _held = lock();
    // The pull engine gathers each vertex's inbox in CSR in-neighbour
    // order, so its f64 ranks are deterministic bit patterns — and the
    // checkpoint snapshot is taken by the same gather. A resumed run
    // must reproduce the uninterrupted run exactly, not within an
    // epsilon.
    let g = fixture("fixture_a.txt");
    let program = PageRank { rounds: ROUNDS, damping: DAMPING };
    let v = Version { combiner: CombinerKind::Broadcast, selection_bypass: false };
    for (si, schedule) in Schedule::all().into_iter().enumerate() {
        let cfg = RunConfig { threads: Some(4), schedule, ..RunConfig::default() };
        let baseline = try_run(&g, &program, v, &cfg).expect("baseline");
        let dir = tempdir(&format!("pagerank-{si}"));
        let cut_cfg = RunConfig { max_supersteps: Some(ROUNDS / 2), ..cfg.clone() };
        run_with_checkpoints(&g, &program, v, &cut_cfg, &CheckpointConfig::new(&dir, 3))
            .expect("interrupted run");
        let resumed =
            run_with_checkpoints(&g, &program, v, &cfg, &CheckpointConfig::new(&dir, 3).resuming())
                .expect("resume");
        for (slot, (a, b)) in resumed.values.iter().zip(&baseline.values).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{schedule}: slot {slot}: resumed {a:e} != baseline {b:e}"
            );
        }
        assert_eq!(history(&resumed), history(&baseline), "{schedule}: history");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Every vertex with out-edges broadcasts a superstep-dependent word for
/// ten supersteps, except vertex 1, which is silent every third one. The
/// pull engine may gather without presence tests only after a superstep
/// in which every such vertex sent, so its supersteps alternate between
/// the two readings of its outboxes.
struct SilentEveryThird;

impl VertexProgram for SilentEveryThird {
    type Value = u64;
    type Message = u64;

    fn initial_value(&self, id: VertexId) -> u64 {
        u64::from(id)
    }

    fn compute<C: Context<Message = u64>>(&self, value: &mut u64, ctx: &mut C) {
        let heard = ctx.next_message().unwrap_or(u64::MAX);
        *value = value.rotate_left(9) ^ heard;
        let superstep = ctx.superstep();
        if superstep >= 10 {
            ctx.vote_to_halt();
        } else if ctx.out_degree() > 0 && !(ctx.id() == 1 && superstep.is_multiple_of(3)) {
            let word = u64::from(ctx.id()) << 20 | superstep as u64;
            ctx.broadcast(word.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
    }

    fn combine(old: &mut u64, new: u64) {
        *old = old.wrapping_add(new);
    }
}

#[test]
fn pull_resume_is_bit_identical_from_dense_and_sparse_supersteps() {
    let _held = lock();
    // Resuming at superstep r restores the inbox superstep r - 1 sent.
    // r = 3: vertex 1 spoke at 2 (the checkpoint's gather is dense) and
    // is silent at 3 (the first post-resume flip must go sparse); r = 4:
    // a sparse checkpoint, then a dense flip; r = 5: dense, then dense.
    let g = fixture("fixture_a.txt");
    let v = Version { combiner: CombinerKind::Broadcast, selection_bypass: false };
    for grain in [Some(1), None] {
        let cfg = RunConfig { threads: Some(4), grain, ..RunConfig::default() };
        let baseline = try_run(&g, &SilentEveryThird, v, &cfg).expect("baseline");
        for resume_at in [3, 4, 5] {
            let label = format!("grain {grain:?} / resume at {resume_at}");
            let dir = tempdir(&format!("pull-dense-sparse-{resume_at}"));
            let cut_cfg = RunConfig { max_supersteps: Some(resume_at + 1), ..cfg.clone() };
            let ckpt = CheckpointConfig::new(&dir, 1);
            run_with_checkpoints(&g, &SilentEveryThird, v, &cut_cfg, &ckpt)
                .unwrap_or_else(|e| panic!("{label}: interrupted run: {e}"));
            let resumed = run_with_checkpoints(&g, &SilentEveryThird, v, &cfg, &ckpt.resuming())
                .unwrap_or_else(|e| panic!("{label}: resume: {e}"));
            assert_eq!(resumed.values, baseline.values, "{label}: values");
            assert_eq!(history(&resumed), history(&baseline), "{label}: history");
            // The resumed run re-ran supersteps from `resume_at` on and
            // replayed the ones before it.
            assert!(resumed.stats.supersteps[resume_at - 1].duration.is_zero(), "{label}");
            assert!(!resumed.stats.supersteps[resume_at].duration.is_zero(), "{label}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn sequential_resume_matches_uninterrupted() {
    let _held = lock();
    let g = fixture("fixture_a.txt");
    let cfg = RunConfig::default();
    let baseline = try_run_sequential(&g, &Hashmin, &cfg).expect("baseline");
    let n = baseline.stats.num_supersteps();
    assert!(n >= 2);
    let cut = (n / 2).max(2);
    let dir = tempdir("seq-resume");
    let cut_cfg = RunConfig { max_supersteps: Some(cut), ..cfg.clone() };
    let mut hooks =
        DiskCheckpointer::<u32, u32>::open(&CheckpointConfig::new(&dir, 1)).expect("open");
    try_run_sequential_recoverable(&g, &Hashmin, &cut_cfg, Some(&mut hooks))
        .expect("interrupted run");
    let mut hooks = DiskCheckpointer::<u32, u32>::open(&CheckpointConfig::new(&dir, 1).resuming())
        .expect("reopen");
    let resumed =
        try_run_sequential_recoverable(&g, &Hashmin, &cfg, Some(&mut hooks)).expect("resume");
    assert_eq!(resumed.values, baseline.values);
    assert_eq!(history(&resumed), history(&baseline));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_restore_into_any_engine_version() {
    let _held = lock();
    // The IPCK snapshot is engine-neutral: values, flags and the
    // *combined* inbox. A checkpoint written by one version must
    // restore into any other — push into pull and back, mutex into
    // spinlock and back, scan into bypass and back — because each engine
    // rebuilds its own active set from the inbox. The pairs name every
    // paper version as writer or reader.
    let g = fixture("fixture_a.txt");
    let scan = |c| Version { combiner: c, selection_bypass: false };
    let bypass = |c| Version { combiner: c, selection_bypass: true };
    let pairs = [
        (scan(CombinerKind::Mutex), bypass(CombinerKind::Broadcast)),
        (scan(CombinerKind::Broadcast), bypass(CombinerKind::Spinlock)),
        (bypass(CombinerKind::Mutex), scan(CombinerKind::Spinlock)),
        (bypass(CombinerKind::Spinlock), scan(CombinerKind::Mutex)),
    ];
    for (i, (writer, reader)) in pairs.into_iter().enumerate() {
        let cfg = RunConfig { threads: Some(4), ..RunConfig::default() };
        let label = format!("ckpt by {} resumed by {}", writer.label(), reader.label());
        let baseline = try_run(&g, &Hashmin, reader, &cfg)
            .unwrap_or_else(|e| panic!("{label}: baseline: {e}"));
        let dir = tempdir(&format!("cross-{i}"));
        let cut_cfg = RunConfig { max_supersteps: Some(2), ..cfg.clone() };
        run_with_checkpoints(&g, &Hashmin, writer, &cut_cfg, &CheckpointConfig::new(&dir, 1))
            .unwrap_or_else(|e| panic!("{label}: interrupted run: {e}"));
        let resume = CheckpointConfig::new(&dir, 1).resuming();
        let resumed = run_with_checkpoints(&g, &Hashmin, reader, &cfg, &resume)
            .unwrap_or_else(|e| panic!("{label}: resume: {e}"));
        assert_eq!(resumed.values, baseline.values, "{label}: values");
        assert_eq!(
            resumed.stats.num_supersteps(),
            baseline.stats.num_supersteps(),
            "{label}: superstep count"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_without_a_checkpoint_is_a_clean_error() {
    let _held = lock();
    let g = cycle(8);
    let v = Version { combiner: CombinerKind::Mutex, selection_bypass: false };
    let dir = tempdir("resume-empty");
    let r = run_with_checkpoints(
        &g,
        &Hashmin,
        v,
        &RunConfig::default(),
        &CheckpointConfig::new(&dir, 1).resuming(),
    );
    match r {
        Err(RunError::Resume(m)) => assert!(m.contains("no valid checkpoint"), "{m}"),
        other => panic!("expected Resume error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_into_the_wrong_graph_is_a_clean_error() {
    let _held = lock();
    let small = cycle(8);
    let v = Version { combiner: CombinerKind::Mutex, selection_bypass: false };
    let dir = tempdir("resume-mismatch");
    let cut_cfg = RunConfig { max_supersteps: Some(2), ..RunConfig::default() };
    run_with_checkpoints(&small, &Hashmin, v, &cut_cfg, &CheckpointConfig::new(&dir, 1))
        .expect("checkpointed run on the small graph");
    // fixture_a has a different slot count; the snapshot must be
    // rejected, not silently misapplied.
    let other = fixture("fixture_a.txt");
    let r = run_with_checkpoints(
        &other,
        &Hashmin,
        v,
        &RunConfig::default(),
        &CheckpointConfig::new(&dir, 1).resuming(),
    );
    match r {
        Err(RunError::Resume(m)) => assert!(m.contains("slots"), "{m}"),
        other => panic!("expected Resume error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_an_older_one() {
    let _held = lock();
    let g = fixture("fixture_a.txt");
    let v = Version { combiner: CombinerKind::Mutex, selection_bypass: false };
    let cfg = RunConfig { threads: Some(4), ..RunConfig::default() };
    let baseline = try_run(&g, &Hashmin, v, &cfg).expect("baseline");
    assert!(baseline.stats.num_supersteps() > 3, "fixture too small for a depth-3 cut");
    let dir = tempdir("corrupt-newest");
    let cut_cfg = RunConfig { max_supersteps: Some(3), ..cfg.clone() };
    run_with_checkpoints(&g, &Hashmin, v, &cut_cfg, &CheckpointConfig::new(&dir, 1))
        .expect("interrupted run");
    // Checkpoints exist for supersteps 1 and 2; flip a byte in the
    // middle of the newest one.
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ipck"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "expected at least two checkpoints, found {files:?}");
    let newest = files.last().expect("non-empty");
    let mut bytes = fs::read(newest).expect("read newest checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs::write(newest, &bytes).expect("write corrupted checkpoint");
    let resumed =
        run_with_checkpoints(&g, &Hashmin, v, &cfg, &CheckpointConfig::new(&dir, 1).resuming())
            .expect("resume past the corrupt file");
    assert_eq!(resumed.values, baseline.values);
    assert_eq!(history(&resumed), history(&baseline));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Loader robustness: malformed input errors, never panics
// ---------------------------------------------------------------------

/// A valid binary-format image of a small graph derived from the inputs.
fn valid_image(n: u32, raw_edges: &[(u32, u32)], weighted: bool) -> Vec<u8> {
    let edges: Vec<(u32, u32)> = raw_edges.iter().map(|&(u, v)| (u % n, v % n)).collect();
    let weights: Option<Vec<u32>> =
        weighted.then(|| edges.iter().map(|&(u, v)| u.wrapping_add(v) % 100 + 1).collect());
    let mut out = Vec::new();
    write_binary(&mut out, 0, n, &edges, weights.as_deref()).expect("writer accepts valid edges");
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn truncated_binary_graphs_error_cleanly(
        n in 2u32..16,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30),
        weighted in any::<bool>(),
        frac in 0.0f64..1.0,
    ) {
        let image = valid_image(n, &edges, weighted);
        // f64 rounding at frac ≈ 1.0 could land exactly on len; clamp so
        // the slice below is always a strict prefix.
        let cut = (((image.len() as f64) * frac) as usize).min(image.len() - 1);
        prop_assert!(cut < image.len());
        prop_assert!(read_binary(&image[..cut], NeighborMode::OutOnly).is_err());
    }

    #[test]
    fn bitflipped_binary_graphs_error_cleanly(
        n in 2u32..16,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30),
        weighted in any::<bool>(),
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let mut image = valid_image(n, &edges, weighted);
        // Same rounding clamp as above: keep the flipped byte in range.
        let pos = (((image.len() as f64) * pos_frac) as usize).min(image.len() - 1);
        image[pos] ^= mask;
        prop_assert!(read_binary(&image[..], NeighborMode::OutOnly).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_any_loader(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        // Results may be Ok or Err; the property is the absence of a
        // panic anywhere in the parse paths.
        let _ = read_binary(Cursor::new(&bytes), NeighborMode::OutOnly);
        let _ = load_edge_list(Cursor::new(&bytes), NeighborMode::Both);
        let _ = load_konect(Cursor::new(&bytes), NeighborMode::Both);
        let _ = load_dimacs_gr(Cursor::new(&bytes), NeighborMode::OutOnly);

        // And again past the header checks, so the record parsers see
        // the garbage too.
        let mut gr = b"p sp 9 9\n".to_vec();
        gr.extend_from_slice(&bytes);
        let _ = load_dimacs_gr(Cursor::new(&gr), NeighborMode::OutOnly);
    }
}

// ---------------------------------------------------------------------
// Deterministic fault injection (`--features chaos`)
// ---------------------------------------------------------------------

#[cfg(feature = "chaos")]
mod chaos_suite {
    use super::*;
    use ipregel::chaos::{self, ChaosPlan, Trigger, CHECKPOINT_TRUNCATE, CHUNK_PANIC};

    /// Arm a plan; disarm on drop, even when the test fails.
    struct PlanGuard;

    fn arm(triggers: Vec<Trigger>) -> PlanGuard {
        chaos::set_plan(ChaosPlan { seed: 0xDECAF, triggers });
        PlanGuard
    }

    impl Drop for PlanGuard {
        fn drop(&mut self) {
            chaos::clear_plan();
        }
    }

    #[test]
    fn injected_chunk_panic_surfaces_as_vertex_panic() {
        let _held = lock();
        let g = cycle(8);
        let v = Version { combiner: CombinerKind::Spinlock, selection_bypass: false };
        let cfg = RunConfig { threads: Some(2), ..RunConfig::default() };
        let baseline = try_run(&g, &Hashmin, v, &cfg).expect("baseline before arming");
        silencing_panics(|| {
            let guard = arm(vec![Trigger::at(CHUNK_PANIC, 2)]);
            match try_run(&g, &Hashmin, v, &cfg) {
                Err(RunError::VertexPanic { superstep, message, .. }) => {
                    assert_eq!(superstep, 2);
                    assert!(message.contains("chaos"), "{message}");
                }
                other => panic!("expected injected VertexPanic, got {other:?}"),
            }
            drop(guard);
        });
        // Disarmed, the same run succeeds and matches the baseline.
        let after = try_run(&g, &Hashmin, v, &cfg).expect("healthy after disarm");
        assert_eq!(after.values, baseline.values);
    }

    #[test]
    fn injected_panic_then_resume_completes_the_run() {
        let _held = lock();
        let g = fixture("fixture_a.txt");
        let v = Version { combiner: CombinerKind::Mutex, selection_bypass: false };
        let cfg = RunConfig { threads: Some(4), ..RunConfig::default() };
        let baseline = try_run(&g, &Hashmin, v, &cfg).expect("baseline");
        let dir = tempdir("chaos-panic-resume");
        silencing_panics(|| {
            let _guard = arm(vec![Trigger::at(CHUNK_PANIC, 2)]);
            // The checkpoint for superstep 2 is written at the barrier
            // *before* the superstep's chunks run, so the crash loses
            // no checkpointed state.
            match run_with_checkpoints(&g, &Hashmin, v, &cfg, &CheckpointConfig::new(&dir, 1)) {
                Err(RunError::VertexPanic { superstep, .. }) => assert_eq!(superstep, 2),
                other => panic!("expected injected VertexPanic, got {other:?}"),
            }
        });
        let resumed =
            run_with_checkpoints(&g, &Hashmin, v, &cfg, &CheckpointConfig::new(&dir, 1).resuming())
                .expect("resume after crash");
        assert_eq!(resumed.values, baseline.values);
        assert_eq!(history(&resumed), history(&baseline));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoint_write_falls_back_to_the_previous_one() {
        let _held = lock();
        let g = fixture("fixture_a.txt");
        let v = Version { combiner: CombinerKind::Mutex, selection_bypass: false };
        let cfg = RunConfig { threads: Some(4), ..RunConfig::default() };
        let baseline = try_run(&g, &Hashmin, v, &cfg).expect("baseline");
        let dir = tempdir("chaos-torn");
        {
            let _guard = arm(vec![Trigger::at(CHECKPOINT_TRUNCATE, 2)]);
            // Checkpoints at supersteps 1 (intact) and 2 (half its bytes
            // under the final name — a torn write with no rename barrier).
            let cut_cfg = RunConfig { max_supersteps: Some(3), ..cfg.clone() };
            run_with_checkpoints(&g, &Hashmin, v, &cut_cfg, &CheckpointConfig::new(&dir, 1))
                .expect("interrupted run (the torn write itself is not an error)");
        }
        let resumed =
            run_with_checkpoints(&g, &Hashmin, v, &cfg, &CheckpointConfig::new(&dir, 1).resuming())
                .expect("resume past the torn file");
        assert_eq!(resumed.values, baseline.values);
        assert_eq!(history(&resumed), history(&baseline));
        // Restored history has zeroed durations; re-executed supersteps
        // measure real time. Superstep 1 re-ran, so the fallback landed
        // on the superstep-1 checkpoint, not the torn superstep-2 one.
        assert!(resumed.stats.supersteps[0].duration.is_zero());
        assert!(!resumed.stats.supersteps[1].duration.is_zero());
        let _ = fs::remove_dir_all(&dir);
    }
}
