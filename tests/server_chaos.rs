//! Chaos tests for the resident server (`--features chaos`): seeded,
//! replayable `server.*` fault injection driving the robustness layer
//! end to end — retry-with-backoff around contained panics, typed
//! deadline failures, bounded-queue shedding under a stalled worker,
//! watchdog reaping, and a 200-request mixed soak where every
//! *surviving* request must still be bit-identical to its isolated
//! oracle and every submission must be accounted for exactly once.
//!
//! The chaos plan and the Rust panic hook are process-global, so every
//! test serialises on [`LOCK`] (the same discipline as
//! `tests/fault_injection.rs`).

#![cfg(feature = "chaos")]

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use ipregel::chaos::{
    self, ChaosPlan, Trigger, SERVER_ADMISSION_DELAY, SERVER_DEADLINE_SKEW, SERVER_REQUEST_PANIC,
};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};
use ipregel_server::{
    run_isolated, Algorithm, Rejected, Request, RequestError, RequestOutput, RetryPolicy,
    ServerConfig, ServerHandle,
};
use std::sync::Arc;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A failed test poisons the mutex; the guarded state (chaos plan,
    // panic hook) is reset by the guards below, so poison is shrugged.
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// Run `f` with the default panic hook silenced, so injected request
/// panics do not spray backtraces over test output.
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

/// The same symmetric mesh as `tests/server_equivalence.rs` (explicit
/// arithmetic edges; every vertex has in- and out-neighbours).
fn mesh(n: u32) -> Graph {
    let mut b = GraphBuilder::new(NeighborMode::Both);
    for i in 0..n {
        let ring = (i + 1) % n;
        let chord = (i * 7 + 3) % n;
        b.add_edge(i, ring);
        b.add_edge(ring, i);
        if chord != i {
            b.add_edge(i, chord);
            b.add_edge(chord, i);
        }
    }
    b.build().expect("mesh builds")
}

#[test]
fn an_injected_panic_is_retried_and_the_result_still_matches_the_oracle() {
    let _held = lock();
    let graph = Arc::new(mesh(48));
    let request = Request::new(Algorithm::Components);
    let oracle = run_isolated(&graph, &request).expect("oracle");

    let server = ServerHandle::start(
        Arc::clone(&graph),
        ServerConfig {
            retry: RetryPolicy { max_attempts: 4, base_backoff: Duration::from_millis(1) },
            ..ServerConfig::default()
        },
    );
    let got = silencing_panics(|| {
        // Request ids start at 1 per server; panic its first attempt.
        let _armed = arm(vec![Trigger::at(SERVER_REQUEST_PANIC, 1)]);
        server.submit_wait(request.clone()).expect("admitted")
    });
    assert_eq!(got.expect("retried to completion"), oracle);

    let stats = server.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.retries, 1, "exactly one retry past the first attempt");
    assert_eq!(stats.panicked, 0);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn a_persistently_panicking_request_fails_typed_and_poisons_nothing() {
    let _held = lock();
    let graph = Arc::new(mesh(48));
    let request = Request::new(Algorithm::Components);
    let oracle = run_isolated(&graph, &request).expect("oracle");

    let max_attempts = 3;
    let server = ServerHandle::start(
        Arc::clone(&graph),
        ServerConfig {
            retry: RetryPolicy { max_attempts, base_backoff: Duration::from_millis(1) },
            ..ServerConfig::default()
        },
    );
    let got = silencing_panics(|| {
        // Every attempt of request 1 panics; the budget of retries runs
        // out and the containment residue is the typed error.
        let _armed = arm(vec![Trigger {
            point: SERVER_REQUEST_PANIC,
            key: Some(1),
            limit: u64::MAX,
            probability: 1.0,
        }]);
        server.submit_wait(request.clone()).expect("admitted")
    });
    match got {
        Err(RequestError::Panicked { attempts, message }) => {
            assert_eq!(attempts, max_attempts);
            assert!(message.contains("chaos"), "{message}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }

    // The pool, queue, and workers survived containment: the very next
    // request (id 2, unkeyed by the now-disarmed plan anyway) completes
    // and matches the oracle bit-for-bit.
    let got = server.submit_wait(request.clone()).expect("admitted").expect("completes");
    assert_eq!(got, oracle);

    let stats = server.stats();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.retries, u64::from(max_attempts) - 1);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn deadline_skew_forces_a_typed_deadline_failure() {
    let _held = lock();
    let graph = Arc::new(mesh(48));
    let server = ServerHandle::start(Arc::clone(&graph), ServerConfig::default());

    // The request carries a generous budget; the injected skew
    // collapses it to zero at pickup, so the failure is deterministic
    // and typed — never a panic, never a hang.
    let request = Request {
        deadline: Some(Duration::from_secs(10)),
        ..Request::new(Algorithm::Components)
    };
    let got = {
        let _armed = arm(vec![Trigger::at(SERVER_DEADLINE_SKEW, 1)]);
        server.submit_wait(request).expect("admitted")
    };
    match got {
        Err(RequestError::DeadlineExceeded { deadline }) => {
            assert_eq!(deadline, Duration::ZERO, "the error reports the skewed budget");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    let stats = server.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.completed, 0);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn a_stalled_worker_sheds_overload_with_typed_queue_full() {
    let _held = lock();
    let graph = Arc::new(mesh(32));
    let request = Request::new(Algorithm::Bfs { source: 0 });
    let oracle = run_isolated(&graph, &request).expect("oracle");

    let capacity = 2;
    let server = ServerHandle::start(
        Arc::clone(&graph),
        ServerConfig { queue_capacity: capacity, workers: 1, ..ServerConfig::default() },
    );
    // Stall the single worker on every pickup: consumption falls behind
    // a burst of submissions and the bounded queue must shed.
    let _armed = arm(vec![Trigger {
        point: SERVER_ADMISSION_DELAY,
        key: None,
        limit: u64::MAX,
        probability: 1.0,
    }]);

    let total = 30;
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for _ in 0..total {
        match server.submit(request.clone()) {
            Ok(t) => tickets.push(t),
            Err(Rejected::QueueFull { capacity: c }) => {
                assert_eq!(c, capacity);
                shed += 1;
            }
            Err(other) => panic!("only QueueFull sheds expected, got {other}"),
        }
    }
    assert!(shed > 0, "a stalled worker must shed some of a {total}-burst");
    assert!(!tickets.is_empty(), "admission must not collapse entirely");

    // Every admitted request survives the overload and still matches
    // the oracle — shedding is load control, not corruption.
    let admitted = tickets.len() as u64;
    for t in tickets {
        assert_eq!(t.wait().expect("admitted request completes"), oracle);
    }

    let stats = server.stats();
    assert_eq!(stats.shed_queue_full, shed);
    assert_eq!(stats.admitted, admitted);
    assert_eq!(stats.completed, admitted);
    assert!(stats.max_queue_depth <= capacity as u64);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn the_watchdog_reaps_a_request_whose_worker_never_yields() {
    let _held = lock();
    let graph = Arc::new(mesh(32));
    let server = ServerHandle::start(
        Arc::clone(&graph),
        ServerConfig {
            workers: 1,
            // No grace and a tight sweep: the reaper is the protagonist.
            reap_grace: Duration::ZERO,
            watchdog_interval: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    );

    // Request 1: its budget is skewed to zero *and* its worker stalls
    // 50ms while Running — a zero-budget slot sitting in the reapable
    // window for ~50 sweeps. The waiter must get the typed Reaped error
    // from the watchdog, not wait out the stall.
    let request = Request {
        deadline: Some(Duration::from_secs(10)),
        ..Request::new(Algorithm::Bfs { source: 3 })
    };
    let got = {
        let _armed = arm(vec![
            Trigger::at(SERVER_DEADLINE_SKEW, 1),
            Trigger::at(SERVER_ADMISSION_DELAY, 1),
        ]);
        server.submit_wait(request.clone()).expect("admitted")
    };
    match got {
        Err(RequestError::Reaped { after }) => {
            assert!(after > Duration::ZERO);
        }
        other => panic!("expected Reaped, got {other:?}"),
    }

    // The worker's own late deadline result was discarded (the reaper
    // settled first); the server keeps serving correctly.
    let healthy = Request::new(Algorithm::Bfs { source: 3 });
    let got = server.submit_wait(healthy.clone()).expect("admitted").expect("completes");
    assert_eq!(got, run_isolated(&graph, &healthy).expect("oracle"));

    let stats = server.stats();
    assert_eq!(stats.reaped, 1);
    assert_eq!(stats.deadline_exceeded, 0, "the late worker result must be discarded");
    assert_eq!(stats.completed, 1);
    server.shutdown().reconcile().expect("reconciles");
}

// ---------------------------------------------------------------------------
// Lane isolation: faults injected into one member of a K-lane batch
// must fail only that member, typed, while its peers stay bit-identical
// to their isolated oracles (docs/INTERNALS.md, "Multi-source
// batching").
// ---------------------------------------------------------------------------

/// A server armed for deterministic batching: one worker, zero window,
/// lanes wide enough for the whole group.
fn batch_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        batch_lanes: 4,
        batch_window: Duration::ZERO,
        retry: RetryPolicy { max_attempts: 3, base_backoff: Duration::from_millis(1) },
        ..ServerConfig::default()
    }
}

/// Four compatible traversal requests (one batch group; ids 1..=4 on a
/// fresh server, so chaos keys address lanes directly).
fn batch_shapes() -> Vec<Request> {
    (0..4).map(|lane| Request::new(Algorithm::Sssp { source: lane * 9 })).collect()
}

#[test]
fn a_persistent_panic_on_one_lane_fails_only_that_lane() {
    let _held = lock();
    let graph = Arc::new(mesh(48));
    let shapes = batch_shapes();
    let oracles: Vec<RequestOutput> =
        shapes.iter().map(|r| run_isolated(&graph, r).expect("oracle")).collect();

    let server = ServerHandle::start(Arc::clone(&graph), batch_config());
    let results = silencing_panics(|| {
        // Every attempt of request id 2 (lane 1) panics; its retry
        // budget drains while lanes 0, 2, 3 share the engine run.
        let _armed = arm(vec![Trigger {
            point: SERVER_REQUEST_PANIC,
            key: Some(2),
            limit: u64::MAX,
            probability: 1.0,
        }]);
        let tickets: Vec<_> = server
            .submit_batch(shapes.clone())
            .into_iter()
            .map(|r| r.expect("batch admits"))
            .collect();
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    });
    for (lane, result) in results.into_iter().enumerate() {
        if lane == 1 {
            match result {
                Err(RequestError::Panicked { attempts, message }) => {
                    assert_eq!(attempts, 3, "the lane spent its own retry budget");
                    assert!(message.contains("chaos"), "{message}");
                }
                other => panic!("lane 1 should fail Panicked, got {other:?}"),
            }
        } else {
            assert_eq!(
                result.expect("healthy lane completes"),
                oracles[lane],
                "lane {lane} diverged while a peer panicked"
            );
        }
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.retries, 2, "two retries past lane 1's first attempt");
    assert_eq!(stats.batched, 4, "all four settled as members of the batch");
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.max_batch, 4);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn deadline_skew_on_one_lane_masks_it_and_peers_complete() {
    let _held = lock();
    let graph = Arc::new(mesh(48));
    let shapes: Vec<Request> = batch_shapes()
        .into_iter()
        .map(|r| Request { deadline: Some(Duration::from_secs(10)), ..r })
        .collect();
    let oracles: Vec<RequestOutput> =
        shapes.iter().map(|r| run_isolated(&graph, r).expect("oracle")).collect();

    let server = ServerHandle::start(Arc::clone(&graph), batch_config());
    let results = {
        // Collapse only request id 3's (lane 2's) generous budget; its
        // peers keep theirs and must be untouched by the masking.
        let _armed = arm(vec![Trigger::at(SERVER_DEADLINE_SKEW, 3)]);
        let tickets: Vec<_> = server
            .submit_batch(shapes.clone())
            .into_iter()
            .map(|r| r.expect("batch admits"))
            .collect();
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    };
    for (lane, result) in results.into_iter().enumerate() {
        if lane == 2 {
            match result {
                Err(RequestError::DeadlineExceeded { deadline }) => {
                    assert_eq!(deadline, Duration::ZERO, "the error reports the skewed budget");
                }
                other => panic!("lane 2 should fail DeadlineExceeded, got {other:?}"),
            }
        } else {
            assert_eq!(
                result.expect("healthy lane completes"),
                oracles[lane],
                "lane {lane} diverged while a peer was masked out"
            );
        }
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.batched, 4);
    assert_eq!(stats.max_batch, 4);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn the_watchdog_reaps_one_lane_of_a_batch_and_peers_survive() {
    let _held = lock();
    let graph = Arc::new(mesh(32));
    let shapes: Vec<Request> = batch_shapes()
        .into_iter()
        .map(|r| Request { deadline: Some(Duration::from_secs(10)), ..r })
        .collect();
    let oracles: Vec<RequestOutput> =
        shapes.iter().map(|r| run_isolated(&graph, r).expect("oracle")).collect();

    let server = ServerHandle::start(
        Arc::clone(&graph),
        ServerConfig {
            reap_grace: Duration::ZERO,
            watchdog_interval: Duration::from_millis(1),
            ..batch_config()
        },
    );
    // Request id 2 (lane 1): budget skewed to zero *and* the worker
    // stalls 50ms with the whole batch marked Running — the zero-budget
    // lane sits in the reapable window for ~50 sweeps while its peers
    // (10s budgets) are untouchable.
    let results = {
        let _armed = arm(vec![
            Trigger::at(SERVER_DEADLINE_SKEW, 2),
            Trigger::at(SERVER_ADMISSION_DELAY, 2),
        ]);
        let tickets: Vec<_> = server
            .submit_batch(shapes.clone())
            .into_iter()
            .map(|r| r.expect("batch admits"))
            .collect();
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    };
    for (lane, result) in results.into_iter().enumerate() {
        if lane == 1 {
            match result {
                Err(RequestError::Reaped { after }) => assert!(after > Duration::ZERO),
                other => panic!("lane 1 should be Reaped, got {other:?}"),
            }
        } else {
            assert_eq!(
                result.expect("healthy lane completes"),
                oracles[lane],
                "lane {lane} diverged while a peer was reaped"
            );
        }
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.reaped, 1);
    assert_eq!(
        stats.deadline_exceeded, 0,
        "the worker's own late deadline verdict must be discarded"
    );
    assert_eq!(stats.batched, 4, "the reaped lane still counts as a batch member");
    assert_eq!(stats.max_batch, 4);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn a_panic_inside_the_shared_run_settles_every_member_solo_as_lane_0_of_1() {
    // A fault *inside* the shared engine run (not at a member's own
    // containment point) aborts the batch attempt, and every unsettled
    // member starts over alone: fresh attempt count, a solo engine run,
    // and a terminal event that says lane 0 of 1 — the batch left no
    // trace in the books.
    use ipregel::chaos::CHUNK_PANIC;
    use ipregel::trace::{ServerOutcome, TraceEvent};

    let _held = lock();
    let graph = Arc::new(mesh(48));
    let shapes = batch_shapes();
    let oracles: Vec<RequestOutput> =
        shapes.iter().map(|r| run_isolated(&graph, r).expect("oracle")).collect();

    let server = ServerHandle::start(Arc::clone(&graph), batch_config());
    let results = silencing_panics(|| {
        // One chunk of superstep 1 panics, once: that is the shared
        // run; the four solo re-runs pass the same point unharmed.
        let _armed = arm(vec![Trigger::at(CHUNK_PANIC, 1)]);
        let tickets: Vec<_> = server
            .submit_batch(shapes.clone())
            .into_iter()
            .map(|r| r.expect("batch admits"))
            .collect();
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    });
    for (lane, result) in results.into_iter().enumerate() {
        assert_eq!(result.expect("the solo re-run completes"), oracles[lane], "lane {lane}");
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!((stats.panicked, stats.retries), (0, 0), "the batch attempt is nobody's retry");
    assert_eq!((stats.batched, stats.batches, stats.max_batch), (0, 0, 1));
    let report = server.shutdown();
    let terminal: Vec<_> = report
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::ServerRequest { id, attempts, lane, lanes, outcome, .. } => {
                Some((id, attempts, lane, lanes, outcome))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        terminal,
        (1..=4).map(|id| (id, 1, 0, 1, ServerOutcome::Ok)).collect::<Vec<_>>()
    );
    report.reconcile().expect("reconciles");
}

#[test]
fn a_lane_reaped_mid_run_stays_settled_when_the_shared_run_then_panics() {
    // `Done` is write-once across the fallback too: a lane the watchdog
    // reaped while the shared run was still going must not be started
    // over — and settled a second time — when that run then panics.
    // The engine panic is armed only after the reap has been observed,
    // so the order is forced, not timed.
    use ipregel::chaos::CHUNK_PANIC;

    let _held = lock();
    let graph = Arc::new(mesh(32));
    // Long enough that the run outlives the reap by a wide margin.
    let rank = Request::new(Algorithm::PageRank { rounds: 4_000, damping: 0.85 });
    let hurried = Request { deadline: Some(Duration::from_millis(1)), ..rank.clone() };
    let oracle = run_isolated(&graph, &rank).expect("oracle");

    let server = ServerHandle::start(
        Arc::clone(&graph),
        ServerConfig {
            reap_grace: Duration::ZERO,
            watchdog_interval: Duration::from_millis(1),
            ..batch_config()
        },
    );
    let mut tickets: Vec<_> = server
        .submit_batch(vec![rank.clone(), hurried, rank.clone()])
        .into_iter()
        .map(|r| r.expect("batch admits"))
        .collect();
    let hurried = tickets.remove(1);
    match hurried.wait() {
        Err(RequestError::Reaped { .. }) => {}
        other => panic!("the 1 ms lane should be reaped mid-run, got {other:?}"),
    }
    let results = silencing_panics(|| {
        let _armed = arm(vec![Trigger::times(CHUNK_PANIC, 1)]);
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    });
    for result in results {
        assert_eq!(result.expect("the solo re-run completes"), oracle);
    }

    let stats = server.stats();
    assert_eq!((stats.reaped, stats.completed, stats.deadline_exceeded), (1, 2, 0));
    assert_eq!(stats.admitted, 3);
    server.shutdown().reconcile().expect("one terminal event per request");
}

/// The soak's request shapes: a mixed workload across algorithms,
/// combiners, and selection modes (all servable on the mesh).
fn soak_shapes() -> Vec<Request> {
    use ipregel::{CombinerKind, Schedule};
    vec![
        Request::new(Algorithm::Sssp { source: 0 }),
        Request::new(Algorithm::Sssp { source: 17 }),
        Request {
            combiner: CombinerKind::Mutex,
            bypass: false,
            ..Request::new(Algorithm::Sssp { source: 9 })
        },
        Request {
            combiner: CombinerKind::Broadcast,
            ..Request::new(Algorithm::Bfs { source: 4 })
        },
        Request::new(Algorithm::Bfs { source: 30 }),
        Request::new(Algorithm::Components),
        Request {
            schedule: Schedule::EdgeBalanced,
            ..Request::new(Algorithm::Components)
        },
        Request::new(Algorithm::PageRank { rounds: 8, damping: 0.85 }),
    ]
}

/// Client-side outcome tallies, accumulated per submitter thread and
/// cross-checked against the server's own accounting at the end.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    ok: u64,
    deadline: u64,
    reaped: u64,
    panicked: u64,
    shed: u64,
}

#[test]
fn chaos_soak_every_survivor_correct_every_submission_accounted() {
    let _held = lock();
    let graph = Arc::new(mesh(64));
    let shapes = soak_shapes();
    let oracles: Vec<RequestOutput> = shapes
        .iter()
        .map(|r| run_isolated(&graph, r).expect("oracle"))
        .collect();

    let server = ServerHandle::start(
        Arc::clone(&graph),
        ServerConfig {
            queue_capacity: 8,
            workers: 3,
            retry: RetryPolicy { max_attempts: 3, base_backoff: Duration::from_millis(1) },
            default_deadline: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        },
    );

    const THREADS: usize = 4;
    const PER_THREAD: usize = 50;
    let tally = silencing_panics(|| {
        // Seeded probabilistic faults across all three server points:
        // sporadic handler panics (retryable, sometimes exhausting the
        // retry budget), deadline collapses, and worker stalls that
        // back the bounded queue up into shedding.
        let _armed = arm(vec![
            Trigger { point: SERVER_REQUEST_PANIC, key: None, limit: 40, probability: 0.25 },
            Trigger { point: SERVER_DEADLINE_SKEW, key: None, limit: 20, probability: 0.15 },
            Trigger { point: SERVER_ADMISSION_DELAY, key: None, limit: 30, probability: 0.3 },
        ]);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (server, shapes, oracles) = (&server, &shapes, &oracles);
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        for i in 0..PER_THREAD {
                            let shape = (t * PER_THREAD + i) % shapes.len();
                            match server.submit(shapes[shape].clone()) {
                                Ok(ticket) => match ticket.wait() {
                                    Ok(output) => {
                                        // The soak's core claim: a
                                        // survivor of the chaos is
                                        // *bit-identical* to its
                                        // isolated oracle.
                                        assert_eq!(
                                            output, oracles[shape],
                                            "shape {shape} diverged under chaos"
                                        );
                                        tally.ok += 1;
                                    }
                                    Err(RequestError::DeadlineExceeded { .. }) => {
                                        tally.deadline += 1;
                                    }
                                    Err(RequestError::Reaped { .. }) => tally.reaped += 1,
                                    Err(RequestError::Panicked { attempts, .. }) => {
                                        assert_eq!(attempts, 3, "retry budget was spent");
                                        tally.panicked += 1;
                                    }
                                },
                                Err(Rejected::QueueFull { .. }) => tally.shed += 1,
                                Err(other) => panic!("unexpected rejection: {other}"),
                            }
                        }
                        tally
                    })
                })
                .collect();
            let mut total = Tally::default();
            for h in handles {
                let t = h.join().expect("submitter thread");
                total.ok += t.ok;
                total.deadline += t.deadline;
                total.reaped += t.reaped;
                total.panicked += t.panicked;
                total.shed += t.shed;
            }
            total
        })
    });

    let submissions = (THREADS * PER_THREAD) as u64;
    assert_eq!(
        tally.ok + tally.deadline + tally.reaped + tally.panicked + tally.shed,
        submissions,
        "every submission produced exactly one client-visible outcome"
    );
    assert!(tally.ok > 0, "the soak must have survivors");

    // The server's books agree with the clients' exactly — nothing
    // double-counted, dropped, or mislabelled while 4 submitters and 3
    // workers raced through injected faults.
    let stats = server.stats();
    assert_eq!(stats.completed, tally.ok);
    assert_eq!(stats.deadline_exceeded, tally.deadline);
    assert_eq!(stats.reaped, tally.reaped);
    assert_eq!(stats.panicked, tally.panicked);
    assert_eq!(stats.shed_queue_full, tally.shed);
    assert_eq!(stats.shed_shutdown, 0);
    assert_eq!(stats.rejected_invalid, 0);
    assert_eq!(stats.admitted, submissions - tally.shed);

    // Disarmed, the server is undamaged: one more request per shape,
    // each bit-identical to its oracle.
    for (shape, oracle) in shapes.iter().zip(&oracles) {
        let got = server.submit_wait(shape.clone()).expect("admitted").expect("completes");
        assert_eq!(&got, oracle, "post-soak request diverged");
    }

    // And the flushed trace reconciles event-by-event with the final
    // counters — the chaos soak's totals are exact, not approximate.
    let report = server.shutdown();
    report.reconcile().expect("soak trace reconciles with stats");
}

#[test]
fn chaos_soak_with_batching_armed_keeps_the_books_exact() {
    // The accounting soak again, with K-lane batching switched on: the
    // batch former opportunistically folds compatible queued requests
    // while the same seeded faults fire, and the client-side tallies
    // must *still* equal the server's counters exactly — batching adds
    // sharing, never double-counting or dropped outcomes.
    let _held = lock();
    let graph = Arc::new(mesh(64));
    let shapes = soak_shapes();
    let oracles: Vec<RequestOutput> = shapes
        .iter()
        .map(|r| run_isolated(&graph, r).expect("oracle"))
        .collect();

    let server = ServerHandle::start(
        Arc::clone(&graph),
        ServerConfig {
            queue_capacity: 8,
            workers: 3,
            batch_lanes: 4,
            batch_window: Duration::from_millis(1),
            retry: RetryPolicy { max_attempts: 3, base_backoff: Duration::from_millis(1) },
            default_deadline: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        },
    );

    const THREADS: usize = 4;
    const PER_THREAD: usize = 50;
    let tally = silencing_panics(|| {
        let _armed = arm(vec![
            Trigger { point: SERVER_REQUEST_PANIC, key: None, limit: 40, probability: 0.25 },
            Trigger { point: SERVER_DEADLINE_SKEW, key: None, limit: 20, probability: 0.15 },
            Trigger { point: SERVER_ADMISSION_DELAY, key: None, limit: 30, probability: 0.3 },
        ]);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (server, shapes, oracles) = (&server, &shapes, &oracles);
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        for i in 0..PER_THREAD {
                            let shape = (t * PER_THREAD + i) % shapes.len();
                            match server.submit(shapes[shape].clone()) {
                                Ok(ticket) => match ticket.wait() {
                                    Ok(output) => {
                                        assert_eq!(
                                            output, oracles[shape],
                                            "shape {shape} diverged under batched chaos"
                                        );
                                        tally.ok += 1;
                                    }
                                    Err(RequestError::DeadlineExceeded { .. }) => {
                                        tally.deadline += 1;
                                    }
                                    Err(RequestError::Reaped { .. }) => tally.reaped += 1,
                                    Err(RequestError::Panicked { attempts, .. }) => {
                                        assert_eq!(attempts, 3, "retry budget was spent");
                                        tally.panicked += 1;
                                    }
                                },
                                Err(Rejected::QueueFull { .. }) => tally.shed += 1,
                                Err(other) => panic!("unexpected rejection: {other}"),
                            }
                        }
                        tally
                    })
                })
                .collect();
            let mut total = Tally::default();
            for h in handles {
                let t = h.join().expect("submitter thread");
                total.ok += t.ok;
                total.deadline += t.deadline;
                total.reaped += t.reaped;
                total.panicked += t.panicked;
                total.shed += t.shed;
            }
            total
        })
    });

    let submissions = (THREADS * PER_THREAD) as u64;
    assert_eq!(
        tally.ok + tally.deadline + tally.reaped + tally.panicked + tally.shed,
        submissions,
        "every submission produced exactly one client-visible outcome"
    );
    assert!(tally.ok > 0, "the soak must have survivors");

    let stats = server.stats();
    assert_eq!(stats.completed, tally.ok);
    assert_eq!(stats.deadline_exceeded, tally.deadline);
    assert_eq!(stats.reaped, tally.reaped);
    assert_eq!(stats.panicked, tally.panicked);
    assert_eq!(stats.shed_queue_full, tally.shed);
    assert_eq!(stats.shed_shutdown, 0);
    assert_eq!(stats.rejected_invalid, 0);
    assert_eq!(stats.admitted, submissions - tally.shed);
    assert!(stats.max_batch <= 4, "no batch can exceed the configured lane cap");

    // Disarmed, one more request per shape, bit-identical again.
    for (shape, oracle) in shapes.iter().zip(&oracles) {
        let got = server.submit_wait(shape.clone()).expect("admitted").expect("completes");
        assert_eq!(&got, oracle, "post-soak request diverged");
    }

    let report = server.shutdown();
    report.reconcile().expect("batched soak trace reconciles with stats");
}
