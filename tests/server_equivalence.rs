//! Concurrent-equivalence tests for the resident server
//! (`ipregel-server`): N requests running concurrently on one shared
//! graph and one shared pool must produce results *bit-identical* to
//! the same requests run one at a time in isolation.
//!
//! This is the server's core correctness claim — admission queues,
//! worker threads, and the watchdog add scheduling freedom but must
//! never change a single output bit. It holds because every engine
//! reduction is chunk-order-deterministic: which pool worker runs which
//! chunk cannot matter. CI runs this suite plain *and* under
//! `--features check-disjoint`, so the disjointness assertions audit
//! the concurrent runs too.
//!
//! Graphs are built from explicit arithmetic edge lists (not the seeded
//! generators, whose RNG stream is not a compatibility surface).

use std::sync::Arc;
use std::time::Duration;

use ipregel::{CombinerKind, Schedule};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};
use ipregel_server::{
    run_isolated, Algorithm, Rejected, Request, RequestError, RequestOutput, ServerConfig,
    ServerHandle,
};

/// A symmetric mesh on `0..n`: a ring plus arithmetic chords, so every
/// vertex has in- and out-neighbours (all combiners and both selection
/// modes are legal) and traversals take several supersteps.
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

/// The workload the equivalence tests sweep: traversals across every
/// servable combiner and both selection modes, plus pull-mode PageRank
/// (broadcast is the only combiner whose f64 accumulation order is
/// deterministic, and bypass is unsound for it — `Request::new`'s
/// validation rules mirror this).
fn workload() -> Vec<Request> {
    let mut reqs = Vec::new();
    let combiners = [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast];
    for source in [0u32, 7, 23] {
        for &combiner in &combiners {
            for bypass in [false, true] {
                reqs.push(Request {
                    algorithm: Algorithm::Sssp { source },
                    combiner,
                    bypass,
                    schedule: Schedule::VertexBalanced,
                    deadline: None,
                });
            }
        }
    }
    reqs.push(Request {
        algorithm: Algorithm::Bfs { source: 11 },
        combiner: CombinerKind::Spinlock,
        bypass: true,
        schedule: Schedule::EdgeBalanced,
        deadline: None,
    });
    reqs.push(Request {
        algorithm: Algorithm::Components,
        combiner: CombinerKind::Mutex,
        bypass: false,
        schedule: Schedule::Adaptive,
        deadline: None,
    });
    for damping in [0.5, 0.85] {
        reqs.push(Request {
            algorithm: Algorithm::PageRank { rounds: 15, damping },
            combiner: CombinerKind::Broadcast,
            bypass: false,
            schedule: Schedule::VertexBalanced,
            deadline: None,
        });
    }
    reqs
}

#[test]
fn concurrent_requests_match_isolated_runs_bit_for_bit() {
    let graph = Arc::new(mesh(64));
    let requests = workload();

    // Oracles first, one at a time, no server involved.
    let oracles: Vec<RequestOutput> = requests
        .iter()
        .map(|r| run_isolated(&graph, r).expect("isolated oracle run succeeds"))
        .collect();

    // Then the same requests all in flight at once: submit every ticket
    // before waiting on any, so the queue is deep and the workers
    // genuinely interleave engine runs on the shared pool.
    let config = ServerConfig {
        queue_capacity: requests.len(),
        workers: 4,
        ..ServerConfig::default()
    };
    let server = ServerHandle::start(Arc::clone(&graph), config);
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| server.submit(r.clone()).expect("workload admits"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().expect("concurrent run succeeds");
        assert_eq!(
            got, oracles[i],
            "request {i} ({:?}) diverged from its isolated oracle",
            requests[i].algorithm
        );
    }

    let stats = server.stats();
    assert_eq!(stats.admitted, requests.len() as u64);
    assert_eq!(stats.completed, requests.len() as u64);
    assert_eq!(stats.shed_queue_full + stats.shed_shutdown + stats.rejected_invalid, 0);

    let report = server.shutdown();
    report.reconcile().expect("trace reconciles with stats");
}

#[test]
fn submit_wait_round_trips_a_single_request() {
    let graph = Arc::new(mesh(32));
    let server = ServerHandle::start(Arc::clone(&graph), ServerConfig::default());
    let request = Request::new(Algorithm::Sssp { source: 5 });
    let got = server
        .submit_wait(request.clone())
        .expect("admitted")
        .expect("completed");
    let oracle = run_isolated(&graph, &request).expect("oracle");
    assert_eq!(got, oracle);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn invalid_requests_are_rejected_typed_without_a_queue_slot() {
    let graph = Arc::new(mesh(16));
    let server = ServerHandle::start(graph, ServerConfig::default());

    let cases: Vec<(Request, &str)> = vec![
        (Request::new(Algorithm::Sssp { source: 999 }), "source"),
        (Request::new(Algorithm::Bfs { source: 16 }), "source"),
        (
            Request::new(Algorithm::PageRank { rounds: 10, damping: 1.5 }),
            "damping",
        ),
        (
            Request::new(Algorithm::PageRank { rounds: 0, damping: 0.85 }),
            "rounds",
        ),
        (
            Request {
                bypass: true,
                ..Request::new(Algorithm::PageRank { rounds: 10, damping: 0.85 })
            },
            "bypass",
        ),
    ];
    for (request, needle) in cases {
        match server.submit(request) {
            Err(Rejected::Invalid(why)) => {
                assert!(why.contains(needle), "rejection {why:?} should mention {needle:?}");
            }
            Err(other) => {
                panic!("expected Invalid rejection mentioning {needle:?}, got {other:?}")
            }
            Ok(_) => panic!("expected Invalid rejection mentioning {needle:?}, got admission"),
        }
    }

    let stats = server.stats();
    assert_eq!(stats.rejected_invalid, 5);
    assert_eq!(stats.admitted, 0, "invalid requests never consume a slot");

    // Invalid rejections are pre-admission: the trace must be empty,
    // and empty reconciles.
    let report = server.shutdown();
    assert!(report.events.is_empty(), "invalid requests leave no trace events");
    report.reconcile().expect("reconciles");
}

#[test]
fn a_zero_deadline_fails_typed_before_the_first_attempt() {
    let graph = Arc::new(mesh(32));
    let server = ServerHandle::start(Arc::clone(&graph), ServerConfig::default());
    let request = Request {
        deadline: Some(Duration::ZERO),
        ..Request::new(Algorithm::Components)
    };
    match server.submit_wait(request).expect("admitted") {
        Err(RequestError::DeadlineExceeded { deadline }) => {
            assert_eq!(deadline, Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The deadline failure is contained to its request: the server
    // keeps serving, and results stay oracle-identical.
    let healthy = Request::new(Algorithm::Bfs { source: 0 });
    let got = server.submit_wait(healthy.clone()).expect("admitted").expect("completed");
    assert_eq!(got, run_isolated(&graph, &healthy).expect("oracle"));

    let stats = server.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.completed, 1);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn a_generous_deadline_does_not_perturb_results() {
    let graph = Arc::new(mesh(48));
    let server = ServerHandle::start(Arc::clone(&graph), ServerConfig::default());
    let request = Request {
        deadline: Some(Duration::from_secs(60)),
        ..Request::new(Algorithm::PageRank { rounds: 10, damping: 0.85 })
    };
    let got = server.submit_wait(request.clone()).expect("admitted").expect("completed");
    let oracle = run_isolated(&graph, &request).expect("oracle");
    assert_eq!(got, oracle, "a deadline that never fires must not change the result");
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn shutdown_drains_every_already_admitted_request() {
    let graph = Arc::new(mesh(48));
    let requests: Vec<Request> = (0..8)
        .map(|i| Request::new(Algorithm::Sssp { source: i * 5 }))
        .collect();
    let oracles: Vec<RequestOutput> = requests
        .iter()
        .map(|r| run_isolated(&graph, r).expect("oracle"))
        .collect();

    let config = ServerConfig { queue_capacity: 16, workers: 2, ..ServerConfig::default() };
    let server = ServerHandle::start(Arc::clone(&graph), config);
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| server.submit(r.clone()).expect("admits before shutdown"))
        .collect();

    // Shutdown first (joins the workers, which drain the queue), then
    // collect: every already-admitted request must have completed
    // correctly through the drain — none abandoned, none corrupted.
    let report = server.shutdown();
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(ticket.wait().expect("drained request completes"), oracles[i]);
    }
    assert_eq!(report.stats.completed, requests.len() as u64);
    report.reconcile().expect("reconciles");
}


#[test]
fn abandoned_tickets_do_not_leak_registry_slots() {
    let graph = Arc::new(mesh(32));
    let config = ServerConfig {
        watchdog_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let server = ServerHandle::start(Arc::clone(&graph), config);

    // Dropping a ticket without `wait` is explicitly supported (the
    // request still runs); the watchdog must still prune the slot once
    // it settles, or a long-running server leaks registry memory.
    for i in 0..8u32 {
        let ticket = server.submit(Request::new(Algorithm::Bfs { source: i })).expect("admitted");
        drop(ticket);
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = server.stats();
        if stats.completed == 8 && server.live_slots() == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned slots never pruned: {} completed, {} live",
            stats.completed,
            server.live_slots()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let report = server.shutdown();
    assert_eq!(report.stats.completed, 8);
    report.reconcile().expect("reconciles");
}
