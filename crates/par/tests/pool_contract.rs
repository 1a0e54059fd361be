//! The facade contract the workspace's engines rely on, as integration
//! tests against the public API (see docs/INTERNALS.md, "Parallel
//! runtime"):
//!
//! 1. **Worker indices** inside `install` are `Some`, dense in
//!    `0..num_threads`, and stable for the life of the pool — the
//!    sharded `Tracer` and `Worklist::with_shards` route on them.
//! 2. **Nested scopes** complete (work-helping, not thread-blocking),
//!    even on a 1-thread pool.
//! 3. **Panic isolation**: a panicking task propagates to the caller
//!    *after* its siblings drain, and the pool stays usable — the
//!    engines' `catch_unwind`-per-chunk design depends on both halves.
//! 4. **Deterministic reduction**: chunk results are combined in chunk
//!    order, so float sums are bit-identical from run to run at any
//!    fixed thread count.
//!
//! The second half of the file is the forced-steal battery: the same
//! contracts with chunks *forced* onto workers other than their spawner
//! — adversarial sleeps hand chunks to idle workers, panics land in
//! those chunks, and deep nested fan-out fills the queue — because every
//! guarantee above must be independent of which worker a chunk lands
//! on. The last test holds the parking protocol: no wakeup is lost and
//! every job runs exactly once, over thousands of tiny rounds.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use ipregel_par::prelude::*;
use ipregel_par::{current_thread_index, ThreadPool, ThreadPoolBuilder};

#[test]
fn install_exposes_dense_stable_worker_indices() {
    let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    for _round in 0..4 {
        let seen = Mutex::new(BTreeSet::new());
        pool.install(|| {
            (0..1024usize).into_par_iter().for_each(|_| {
                let idx = current_thread_index().expect("par-iter bodies run on pool workers");
                seen.lock().unwrap().insert(idx);
            });
        });
        let seen = seen.into_inner().unwrap();
        assert!(
            seen.iter().all(|&i| i < 3),
            "indices must stay below num_threads: {seen:?}"
        );
        assert!(!seen.is_empty());
    }
}

#[test]
fn nested_scopes_complete_even_on_one_thread() {
    let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let total = pool.install(|| {
        (0..8u64)
            .into_par_iter()
            .map(|i| {
                // A nested parallel iterator from inside a chunk body:
                // the worker must help-drain instead of deadlocking.
                (0..8u64).into_par_iter().map(|j| i * 8 + j).sum::<u64>()
            })
            .sum::<u64>()
    });
    assert_eq!(total, (0..64).sum());
}

#[test]
fn panic_in_one_task_propagates_and_pool_survives() {
    let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            (0..256usize).into_par_iter().for_each(|i| {
                assert!(i != 97, "poisoned vertex 97");
            });
        });
    }));
    let payload = caught.expect_err("the panic must reach the caller");
    // A literal assert! message panics with &'static str, a formatted
    // one with String; the pool must preserve either payload verbatim.
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string payload>".into());
    assert!(msg.contains("poisoned vertex 97"), "payload survives: {msg}");

    // The same pool keeps working afterwards — no poisoned workers, no
    // lost threads.
    let sum = pool.install(|| (0..1000u64).into_par_iter().sum::<u64>());
    assert_eq!(sum, 499_500);
}

// Chunk-order combination is a guarantee the facade makes *stronger*
// than rayon's (rayon re-associates reductions at runtime): for a fixed
// thread count the chunk plan is fixed, so float sums are bit-identical
// run to run regardless of which worker takes which chunk. (Across
// *different* thread counts the plan itself changes, so only
// approximate equality holds — same as rayon.)
#[test]
fn float_reductions_are_bit_identical_for_a_fixed_thread_count() {
    let values: Vec<f64> = (0..10_000).map(|i| 1.0 / f64::from(i + 1)).collect();
    for threads in [1, 2, 3, 7] {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let runs: Vec<u64> = (0..8)
            .map(|_| pool.install(|| values.par_iter().map(|&v| v * v).sum::<f64>()).to_bits())
            .collect();
        assert!(
            runs.windows(2).all(|w| w[0] == w[1]),
            "chunk-order combining must not depend on worker timing \
             (threads={threads}): {runs:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The forced-steal battery: the contracts above with chunks forced onto
// workers other than their spawner.
// ---------------------------------------------------------------------

/// Bit-identical float reduction with stealing *provoked*: the early
/// chunks sleep, so the spawning worker stalls on them (idle workers
/// take the oldest queued chunk; the spawner, helping, the newest) and
/// later chunks migrate to whichever worker is free. The reduction still folds the
/// chunk slots in chunk order on the caller, so the adversarial run's
/// sum must match the undisturbed run bit for bit — and the steal
/// counters prove the schedules actually differed.
#[test]
fn float_reduction_bits_survive_forced_stealing() {
    let values: Vec<f64> = (0..10_000).map(|i| 1.0 / f64::from(i + 1)).collect();
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let calm = pool.install(|| values.par_iter().map(|&v| v * v).sum::<f64>()).to_bits();
    let before = pool.install(ipregel_par::current_pool_stats);
    for _ in 0..4 {
        let adversarial = pool
            .install(|| {
                values
                    .par_iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        // One nap near the start of each early chunk
                        // (10 000 items / 4 threads / 8 chunks-per-
                        // thread ≈ 313-item chunks): the executing
                        // worker blocks, everyone else takes the next.
                        if i < 2_000 && i % 313 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(500));
                        }
                        v * v
                    })
                    .sum::<f64>()
            })
            .to_bits();
        assert_eq!(
            adversarial, calm,
            "stealing moved chunks between workers, so bit-equality \
             proves the reduction order never followed execution order"
        );
    }
    let after = pool.install(ipregel_par::current_pool_stats);
    assert!(
        after.steals > before.steals,
        "the adversarial runs must actually have forced steals: {after:?}"
    );
}

/// Worker indices stay dense and in-range while idle workers are
/// actively draining a spawner's jobs: with every task asleep most of its lifetime, the
/// whole pool must join in (a worker that never shows up would mean
/// wakeups got lost), and no task may ever observe an out-of-range or
/// unstable index mid-execution.
#[test]
fn worker_indices_stay_dense_under_active_steals() {
    const THREADS: usize = 4;
    let pool = ThreadPoolBuilder::new().num_threads(THREADS).build().unwrap();
    let before = pool.install(ipregel_par::current_pool_stats);
    let seen = Mutex::new(BTreeSet::new());
    pool.install(|| {
        ipregel_par::scope(|s| {
            for _ in 0..64 {
                let seen = &seen;
                s.spawn(move |_| {
                    let idx = current_thread_index().expect("tasks run on pool workers");
                    assert!(idx < THREADS, "index past the pool: {idx}");
                    // Sleeping yields the CPU, so even a single-core CI
                    // box overlaps the naps and every worker gets to
                    // take its share.
                    std::thread::sleep(std::time::Duration::from_micros(500));
                    assert_eq!(
                        current_thread_index(),
                        Some(idx),
                        "a task must not migrate between workers mid-flight"
                    );
                    seen.lock().unwrap().insert(idx);
                });
            }
        });
    });
    let after = pool.install(ipregel_par::current_pool_stats);
    let seen = seen.into_inner().unwrap();
    assert_eq!(
        seen,
        (0..THREADS).collect::<BTreeSet<_>>(),
        "64 sleepy tasks must pull every worker in"
    );
    assert!(after.steals > before.steals, "other workers must have run the fan-out: {after:?}");
}

/// A panic inside a *stolen* chunk: the payload must reach the scope
/// caller intact (blaming the poisoned task, not an innocent sibling),
/// siblings must drain, and the pool must stay usable. The panicking
/// task sits at the front of the queue — exactly where an idle worker
/// takes from — while the spawner itself works the back.
#[test]
fn panic_in_a_stolen_chunk_blames_that_chunk_and_pool_survives() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let before = pool.install(ipregel_par::current_pool_stats);
    let ran_on = AtomicUsize::new(usize::MAX);
    let survivors = AtomicUsize::new(0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            ipregel_par::scope(|s| {
                // First spawn = front of the queue = first steal.
                let ran_on = &ran_on;
                s.spawn(move |_| {
                    ran_on.store(current_thread_index().unwrap(), Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(500));
                    panic!("chunk 0 poisoned");
                });
                for _ in 0..63 {
                    let survivors = &survivors;
                    s.spawn(move |_| {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        survivors.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
    }));
    let payload = caught.expect_err("the stolen chunk's panic must reach the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string payload>".into());
    assert!(msg.contains("chunk 0 poisoned"), "blame lands on the right chunk: {msg}");
    assert_eq!(
        survivors.load(Ordering::Relaxed),
        63,
        "every sibling drains before the panic propagates"
    );
    assert_ne!(ran_on.load(Ordering::Relaxed), usize::MAX, "the poisoned chunk did run");
    let after = pool.install(ipregel_par::current_pool_stats);
    assert!(after.steals > before.steals, "the region must have exercised stealing: {after:?}");
    // Same pool, next superstep: nothing leaked, nobody died.
    let sum = pool.install(|| (0..1000u64).into_par_iter().sum::<u64>());
    assert_eq!(sum, 499_500);
}

/// Deep nested fan-out on a one-thread pool: 320 tasks, each opening a
/// scope of its own, all queued while the lone worker is blocked in the
/// outer scope. It must help-drain the whole queue or the fan-out
/// deadlocks. Only the `install` came from off the pool, so it is the
/// one job counted as overflow.
#[test]
fn nested_fan_out_on_one_thread_drains_the_queue() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let before = pool.stats();
    let counter = AtomicUsize::new(0);
    pool.install(|| {
        ipregel_par::scope(|s| {
            for _ in 0..320 {
                let counter = &counter;
                s.spawn(move |_| {
                    // A nested scope from inside a task while the outer
                    // fan-out still fills the queue.
                    ipregel_par::scope(|inner| {
                        for _ in 0..2 {
                            inner.spawn(move |_| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    });
    let after = pool.stats();
    assert_eq!(counter.load(Ordering::Relaxed), 320 * 3, "every nested task completed");
    assert_eq!(after.spawned - before.spawned, 1 + 320 * 3, "{after:?}");
    assert_eq!(after.overflow - before.overflow, 1, "only the install came from off the pool");
}

// ---------------------------------------------------------------------
// No lost wakeup: the parking protocol under many tiny rounds.
// ---------------------------------------------------------------------

/// One round: an `install` whose body opens a scope of `jobs` tiny
/// tasks and then a `join`. Returns how many job bodies ran — the
/// install body, the scope's tasks and both sides of the join.
fn tiny_round(pool: &ThreadPool, jobs: usize) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let ran = AtomicUsize::new(0);
    let tally = || {
        ran.fetch_add(1, Ordering::Relaxed);
    };
    pool.install(|| {
        tally();
        ipregel_par::scope(|s| {
            for _ in 0..jobs {
                s.spawn(move |_| tally());
            }
        });
        ipregel_par::join(tally, tally);
    });
    ran.into_inner()
}

/// Every round parks and wakes workers: the `install` is queued from
/// off the pool (waking an idle worker), the scope and `join` from
/// inside it. Two submitter threads race their rounds on pools of 1, 2
/// and 4 threads. A lost wakeup leaves a job queued with every worker
/// parked, so its round never finishes; the watchdog turns that hang
/// into a failure naming the round. A job run twice or not at all shows
/// in the round's count.
#[test]
fn no_wakeup_is_lost_and_every_job_runs_exactly_once() {
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;
    const ROUNDS: usize = 5_000;
    const SUBMITTERS: usize = 2;
    const WATCHDOG: Duration = Duration::from_secs(20);
    for threads in [1, 2, 4] {
        let pool = Arc::new(ThreadPoolBuilder::new().num_threads(threads).build().unwrap());
        let (done, finished) = mpsc::channel();
        // Not scoped: if a round hangs, the watchdog below fails the test
        // and the hung submitter is left behind instead of joined.
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|submitter| {
                let (pool, done) = (Arc::clone(&pool), done.clone());
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        let jobs = 2 + (round + submitter) % 2;
                        let ran = tiny_round(&pool, jobs);
                        done.send((submitter, round, 3 + jobs, ran)).unwrap();
                    }
                })
            })
            .collect();
        drop(done);
        for _ in 0..SUBMITTERS * ROUNDS {
            match finished.recv_timeout(WATCHDOG) {
                Ok((submitter, round, expected, ran)) => assert_eq!(
                    ran, expected,
                    "{threads}-thread pool, submitter {submitter}, round {round}: \
                     every job must run exactly once"
                ),
                Err(RecvTimeoutError::Timeout) => panic!(
                    "{threads}-thread pool: no round finished within {WATCHDOG:?} — \
                     a job is queued with every worker parked (lost wakeup)"
                ),
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("{threads}-thread pool: a submitter died before its last round")
                }
            }
        }
        for submitter in submitters {
            submitter.join().expect("a submitter panicked after its last round");
        }
    }
}
