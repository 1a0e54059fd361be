//! Differential battery for K-lane server batching (docs/INTERNALS.md,
//! "Multi-source batching").
//!
//! The batching claim is the server-equivalence claim, per lane: folding
//! K compatible requests into one K-lane engine run must produce, for
//! *every* lane, a [`RequestOutput`] bit-identical to the same request
//! run alone through [`run_isolated`] — values, superstep count, and
//! message count included. The suite sweeps batch widths K ∈ {2, 4, 8}
//! across every servable combiner, both selection modes, and all three
//! schedules, and additionally pins the *reason to batch*: a K=4 SSSP
//! batch finishes in max (not sum) supersteps and sends strictly fewer
//! messages than four solo runs.
//!
//! CI runs this suite plain and under `--features check-disjoint`, so
//! the disjointness assertions audit the lane-sharing runs too.

use std::sync::Arc;
use std::time::Duration;

use ipregel::trace::{ServerOutcome, TraceEvent};
use ipregel::{CombinerKind, Schedule};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};
use ipregel_server::{
    run_isolated, Algorithm, Rejected, Request, RequestError, RequestOutput, ServerConfig,
    ServerHandle, ServerStats, Ticket,
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

/// A server armed for batching: wide lanes, zero window (a
/// `submit_batch` group is already co-queued, so no lingering needed),
/// one worker so each group runs as submitted.
fn batching_server(graph: &Arc<Graph>) -> ServerHandle {
    let config = ServerConfig {
        queue_capacity: 64,
        workers: 1,
        batch_lanes: 8,
        batch_window: Duration::ZERO,
        ..ServerConfig::default()
    };
    ServerHandle::start(Arc::clone(graph), config)
}

/// Submit `requests` as one batch and compare every lane against its
/// isolated oracle, bit for bit.
fn assert_batch_matches_oracles(server: &ServerHandle, graph: &Graph, requests: &[Request]) {
    let oracles: Vec<RequestOutput> = requests
        .iter()
        .map(|r| run_isolated(graph, r).expect("isolated oracle run succeeds"))
        .collect();
    let tickets: Vec<Ticket> = server
        .submit_batch(requests.to_vec())
        .into_iter()
        .map(|r| r.expect("batch member admits"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().expect("batched run succeeds");
        assert_eq!(
            got, oracles[i],
            "lane {i} ({:?}) diverged from its isolated oracle",
            requests[i].algorithm
        );
    }
}

#[test]
fn k_way_traversal_batches_match_isolated_oracles_bit_for_bit() {
    let graph = Arc::new(mesh(48));
    let server = batching_server(&graph);
    let combiners = [CombinerKind::Mutex, CombinerKind::Spinlock, CombinerKind::Broadcast];
    let schedules = [Schedule::VertexBalanced, Schedule::EdgeBalanced, Schedule::Adaptive];
    let mut submitted = 0u64;
    for k in [2usize, 4, 8] {
        for &combiner in &combiners {
            for &schedule in &schedules {
                for bypass in [false, true] {
                    let requests: Vec<Request> = (0..k)
                        .map(|lane| Request {
                            algorithm: Algorithm::Sssp { source: (lane as u32 * 11 + 3) % 48 },
                            combiner,
                            bypass,
                            schedule,
                            deadline: None,
                        })
                        .collect();
                    assert_batch_matches_oracles(&server, &graph, &requests);
                    submitted += k as u64;
                }
            }
        }
    }
    let stats = server.stats();
    assert_eq!(stats.completed, submitted);
    assert_eq!(stats.batched, submitted, "every request above ran in a K >= 2 batch");
    assert_eq!(stats.max_batch, 8);
    server.shutdown().reconcile().expect("trace reconciles with stats");
}

#[test]
fn components_and_pagerank_batches_match_oracles() {
    let graph = Arc::new(mesh(40));
    let server = batching_server(&graph);

    // Components carries no per-request parameter, so a batch is K
    // identical lanes — each must still match the oracle exactly.
    let components: Vec<Request> = (0..4)
        .map(|_| Request {
            algorithm: Algorithm::Components,
            combiner: CombinerKind::Spinlock,
            bypass: true,
            schedule: Schedule::EdgeBalanced,
            deadline: None,
        })
        .collect();
    assert_batch_matches_oracles(&server, &graph, &components);

    // PageRank batches only under the Broadcast combiner (the one whose
    // f64 accumulation order is deterministic); rounds and damping are
    // part of the compatibility key, so these four fold into one run.
    let ranks: Vec<Request> = (0..4)
        .map(|_| Request::new(Algorithm::PageRank { rounds: 12, damping: 0.85 }))
        .collect();
    assert_batch_matches_oracles(&server, &graph, &ranks);

    let stats = server.stats();
    assert_eq!(stats.batched, 8);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.max_batch, 4);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn sssp_and_bfs_share_a_batch_and_both_match_their_oracles() {
    // Unit-weight SSSP and BFS compute the same hop counts with the
    // same wavefront, so they share a compatibility family; each lane
    // still answers with its own algorithm's oracle output.
    let graph = Arc::new(mesh(32));
    let server = batching_server(&graph);
    let requests: Vec<Request> = vec![
        Request::new(Algorithm::Sssp { source: 0 }),
        Request::new(Algorithm::Bfs { source: 9 }),
        Request::new(Algorithm::Sssp { source: 18 }),
        Request::new(Algorithm::Bfs { source: 27 }),
    ];
    // The two algorithms must agree on the defaults for the key to
    // match — pin that assumption before relying on it.
    assert_eq!(requests[0].combiner, requests[1].combiner);
    assert_eq!(requests[0].schedule, requests[1].schedule);
    assert_eq!(requests[0].bypass, requests[1].bypass);
    assert_batch_matches_oracles(&server, &graph, &requests);
    let stats = server.stats();
    assert_eq!(stats.batched, 4, "mixed SSSP/BFS still folds into one batch");
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.max_batch, 4);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn incompatible_requests_partition_into_separate_groups() {
    let graph = Arc::new(mesh(32));
    let server = batching_server(&graph);
    // Five requests, three compatibility classes: the traversals fold
    // (family + identical knobs), Components stands alone, PageRank
    // stands alone. Everything still matches its oracle.
    let requests: Vec<Request> = vec![
        Request::new(Algorithm::Sssp { source: 1 }),
        Request::new(Algorithm::Components),
        Request::new(Algorithm::Sssp { source: 2 }),
        Request::new(Algorithm::PageRank { rounds: 8, damping: 0.85 }),
        Request::new(Algorithm::Bfs { source: 3 }),
    ];
    assert_batch_matches_oracles(&server, &graph, &requests);
    let stats = server.stats();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.batched, 3, "only the three traversals share a batch");
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.max_batch, 3);

    // The trace carries the same partition: three lane-tagged records
    // with lanes=3, two solo records with lanes=1.
    let report = server.shutdown();
    let mut widths: Vec<u64> = report
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::ServerRequest { lanes, .. } => Some(lanes),
            _ => None,
        })
        .collect();
    widths.sort_unstable();
    assert_eq!(widths, vec![1, 1, 3, 3, 3]);
    report.reconcile().expect("reconciles");
}

#[test]
fn differing_knobs_break_compatibility() {
    let graph = Arc::new(mesh(24));
    let server = batching_server(&graph);
    // Same family, different combiner/schedule/bypass: three solo runs.
    let requests: Vec<Request> = vec![
        Request {
            combiner: CombinerKind::Mutex,
            ..Request::new(Algorithm::Sssp { source: 0 })
        },
        Request {
            combiner: CombinerKind::Spinlock,
            ..Request::new(Algorithm::Sssp { source: 1 })
        },
        Request {
            schedule: Schedule::EdgeBalanced,
            combiner: CombinerKind::Mutex,
            ..Request::new(Algorithm::Sssp { source: 2 })
        },
    ];
    assert_batch_matches_oracles(&server, &graph, &requests);
    let stats = server.stats();
    assert_eq!(stats.batched, 0, "incompatible knobs must not share an engine run");
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.max_batch, 1);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn a_k4_batch_runs_in_max_not_sum_supersteps_with_fewer_messages() {
    // The acceptance criterion for batching at the engine level: one
    // K=4 SSSP batch takes as many supersteps as the *slowest* single
    // run (not the sum of all four) and sends strictly fewer messages
    // than the four runs combined — the traversal is genuinely shared.
    use ipregel::{try_run, RunConfig, Version};
    use ipregel_apps::{MultiHops, Sssp};

    let graph = mesh(32);
    let sources = [0u32, 9, 18, 27];
    let version = Version::paper_versions()[0];
    let config = RunConfig::default();

    let mut max_steps = 0usize;
    let mut sum_steps = 0usize;
    let mut sum_msgs = 0u64;
    for &s in &sources {
        let solo = try_run(&graph, &Sssp { source: s }, version, &config).expect("solo run");
        max_steps = max_steps.max(solo.stats.num_supersteps());
        sum_steps += solo.stats.num_supersteps();
        sum_msgs += solo.stats.total_messages();
    }
    assert!(sum_steps > max_steps, "sources chosen to have unequal eccentricities");

    let batch = try_run(&graph, &MultiHops::new(&sources), version, &config).expect("batched run");
    assert_eq!(
        batch.stats.num_supersteps(),
        max_steps,
        "a K-lane batch must finish in the slowest lane's superstep count, not the sum"
    );
    assert!(
        batch.stats.total_messages() < sum_msgs,
        "a K-lane batch must send strictly fewer messages than K solo runs \
         ({} vs {sum_msgs})",
        batch.stats.total_messages()
    );
}

#[test]
fn the_batch_window_folds_separately_submitted_requests() {
    // Two plain `submit` calls, one worker, a generous window: the
    // worker picks up the first request, lingers on the window, and
    // folds the second in when it arrives — no `submit_batch` needed.
    let graph = Arc::new(mesh(32));
    let config = ServerConfig {
        queue_capacity: 8,
        workers: 1,
        batch_lanes: 2,
        batch_window: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = ServerHandle::start(Arc::clone(&graph), config);
    let a = Request::new(Algorithm::Sssp { source: 4 });
    let b = Request::new(Algorithm::Sssp { source: 21 });
    let oracle_a = run_isolated(&graph, &a).expect("oracle");
    let oracle_b = run_isolated(&graph, &b).expect("oracle");
    let ta = server.submit(a).expect("admits");
    let tb = server.submit(b).expect("admits");
    assert_eq!(ta.wait().expect("completes"), oracle_a);
    assert_eq!(tb.wait().expect("completes"), oracle_b);
    let stats = server.stats();
    assert_eq!(stats.completed, 2);
    // The window closes as soon as the batch fills (lanes=2), so this
    // does not wait 30 seconds — and both requests must have shared it.
    assert_eq!(stats.batched, 2, "the window must fold the straggler in");
    assert_eq!(stats.batches, 1);
    server.shutdown().reconcile().expect("reconciles");
}

#[test]
fn batching_disabled_means_every_request_runs_solo() {
    let graph = Arc::new(mesh(24));
    // batch_lanes: 1 (the default) must behave exactly like PR-8's
    // server: submit_batch still admits, but nothing shares a run.
    let server = ServerHandle::start(
        Arc::clone(&graph),
        ServerConfig { workers: 2, ..ServerConfig::default() },
    );
    let requests: Vec<Request> =
        (0..4).map(|i| Request::new(Algorithm::Sssp { source: i * 6 })).collect();
    assert_batch_matches_oracles(&server, &graph, &requests);
    let stats = server.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.batched, 0);
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.max_batch, 1);
    server.shutdown().reconcile().expect("reconciles");
}

// ---------------------------------------------------------------------------
// A solo request is a batch of one: `submit(r)` and
// `submit_batch(vec![r])` must be indistinguishable from outside — the
// same ticket ids, queue-depth samples, counters and terminal events —
// for every admission outcome reachable without fault injection. (The
// batch-attempt-failure half of this characterisation needs an injected
// engine panic, so it lives with the chaos plan's lock in
// `tests/server_chaos.rs`.)
// ---------------------------------------------------------------------------

/// How a scripted run hands its requests to the server.
#[derive(Debug, Clone, Copy)]
enum Style {
    /// One `submit(r)` per request.
    Solo,
    /// One `submit_batch(vec![r])` per request.
    BatchOfOne,
    /// One `submit_batch` call per wave.
    WholeWave,
}

/// Everything observable about a scripted run, durations zeroed.
#[derive(Debug, PartialEq)]
struct Transcript {
    /// Per request, in submission order: the ticket id or the refusal.
    admissions: Vec<Result<u64, Rejected>>,
    /// Per admitted request, in submission order.
    results: Vec<Result<RequestOutput, RequestError>>,
    /// `(seq, depth)` of every `ServerQueueDepth` sample, in trace order.
    depth_samples: Vec<(u64, u64)>,
    /// `(id, attempts, lane, lanes, outcome)` of every terminal
    /// `ServerRequest` event, in trace order.
    terminal: Vec<(u64, u64, u64, u64, ServerOutcome)>,
    stats: ServerStats,
}

/// Run `waves` against a fresh server. With `stalled`, the first wave
/// is submitted alone and the single worker is given time to pop it and
/// linger on its batch window before the rest arrive, so the later
/// waves meet a worker that consumes nothing until shutdown releases
/// it; tickets are then claimed after shutdown has drained the queue.
fn transcript(
    graph: &Arc<Graph>,
    config: &ServerConfig,
    waves: &[Vec<Request>],
    style: Style,
    stalled: bool,
) -> Transcript {
    let server = ServerHandle::start(Arc::clone(graph), config.clone());
    let mut admissions = Vec::new();
    let mut results = Vec::new();
    let mut pending: Vec<Ticket> = Vec::new();
    for (w, wave) in waves.iter().enumerate() {
        let decided: Vec<Result<Ticket, Rejected>> = match style {
            Style::Solo => wave.iter().map(|r| server.submit(r.clone())).collect(),
            Style::BatchOfOne => wave
                .iter()
                .map(|r| {
                    let mut one = server.submit_batch(vec![r.clone()]);
                    assert_eq!(one.len(), 1, "one decision per request");
                    one.pop().expect("checked above")
                })
                .collect(),
            Style::WholeWave => server.submit_batch(wave.clone()),
        };
        for decision in decided {
            admissions.push(decision.as_ref().map(Ticket::id).map_err(Clone::clone));
            if let Ok(ticket) = decision {
                pending.push(ticket);
            }
        }
        if stalled {
            if w == 0 {
                // The idle worker only has to wake and pop one entry;
                // the transcript's depth samples convict a late pop.
                std::thread::sleep(Duration::from_millis(200));
            }
        } else {
            results.extend(pending.drain(..).map(Ticket::wait));
        }
    }
    let report = server.shutdown();
    results.extend(pending.into_iter().map(Ticket::wait));
    report.reconcile().expect("reconciles");
    let mut depth_samples = Vec::new();
    let mut terminal = Vec::new();
    for e in &report.events {
        match *e {
            TraceEvent::ServerQueueDepth { seq, depth } => depth_samples.push((seq, depth)),
            TraceEvent::ServerRequest { id, attempts, lane, lanes, outcome, .. } => {
                terminal.push((id, attempts, lane, lanes, outcome));
            }
            _ => {}
        }
    }
    Transcript { admissions, results, depth_samples, terminal, stats: report.stats }
}

#[test]
fn a_solo_submission_is_indistinguishable_from_a_batch_of_one() {
    let graph = Arc::new(mesh(32));
    let sssp = |source| Request::new(Algorithm::Sssp { source });

    // Admitted and Invalid, interleaved: every family, and refusals
    // that must consume neither a ticket id nor a depth sample.
    let admitted_and_invalid = vec![
        vec![sssp(3)],
        vec![sssp(9999)],
        vec![Request::new(Algorithm::Bfs { source: 7 })],
        vec![Request::new(Algorithm::PageRank { rounds: 4, damping: 1.5 })],
        vec![Request::new(Algorithm::Components)],
        vec![Request { combiner: CombinerKind::LockFree, ..sssp(1) }],
        vec![Request::new(Algorithm::PageRank { rounds: 4, damping: 0.85 })],
    ];
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let solo = transcript(&graph, &config, &admitted_and_invalid, Style::Solo, false);
    let one = transcript(&graph, &config, &admitted_and_invalid, Style::BatchOfOne, false);
    assert_eq!(solo, one, "admitted / invalid");
    assert_eq!(
        solo.admissions.iter().map(|a| a.as_ref().ok().copied()).collect::<Vec<_>>(),
        vec![Some(1), None, Some(2), None, Some(3), None, Some(4)],
        "invalid requests consume no ticket id"
    );
    assert_eq!(solo.depth_samples, vec![(1, 1), (2, 1), (3, 1), (4, 1)]);
    assert_eq!(solo.stats.rejected_invalid, 3);
    assert_eq!(solo.stats.completed, 4);
    assert!(solo.terminal.iter().all(|&(_, attempts, lane, lanes, outcome)| {
        (attempts, lane, lanes, outcome) == (1, 0, 1, ServerOutcome::Ok)
    }));
    for (wave, got) in admitted_and_invalid.iter().step_by(2).zip(&solo.results) {
        let oracle = run_isolated(&graph, &wave[0]).expect("oracle");
        assert_eq!(got.as_ref().expect("completes"), &oracle);
    }

    // QueueFull with a stalled single worker: the worker pops the first
    // request and lingers on a 30 s window for a partner that never
    // comes; three incompatible singletons then meet a capacity of two.
    let stalled_config = ServerConfig {
        queue_capacity: 2,
        workers: 1,
        batch_lanes: 2,
        batch_window: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let overload = vec![
        vec![sssp(0)],
        vec![Request::new(Algorithm::Components)],
        vec![Request::new(Algorithm::PageRank { rounds: 3, damping: 0.85 })],
        vec![Request::new(Algorithm::Components)],
    ];
    let solo = transcript(&graph, &stalled_config, &overload, Style::Solo, true);
    let one = transcript(&graph, &stalled_config, &overload, Style::BatchOfOne, true);
    assert_eq!(solo, one, "queue full");
    assert_eq!(
        solo.admissions,
        vec![Ok(1), Ok(2), Ok(3), Err(Rejected::QueueFull { capacity: 2 })]
    );
    assert_eq!(solo.depth_samples, vec![(1, 1), (2, 1), (3, 2), (4, 2)]);
    assert_eq!(
        solo.terminal,
        vec![
            // A shed consumes an id and settles at admission, unlaned.
            (4, 0, 0, 0, ServerOutcome::ShedQueueFull),
            (1, 1, 0, 1, ServerOutcome::Ok),
            (2, 1, 0, 1, ServerOutcome::Ok),
            (3, 1, 0, 1, ServerOutcome::Ok),
        ]
    );
    assert_eq!(solo.stats.shed_queue_full, 1);
    assert_eq!(solo.stats.max_queue_depth, 2);
}

#[test]
fn a_group_shed_half_way_runs_the_members_that_fit_together() {
    // Four compatible traversals against room for three while the
    // single worker lingers on an incompatible request: the fourth
    // sheds on its own, the three that fit still share one engine run —
    // and submitting the same four one at a time tells the same story,
    // because the drain folds whole compatible entries.
    let graph = Arc::new(mesh(32));
    let config = ServerConfig {
        queue_capacity: 3,
        workers: 1,
        batch_lanes: 4,
        batch_window: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let group: Vec<Request> =
        (0..4).map(|lane| Request::new(Algorithm::Sssp { source: lane * 7 + 1 })).collect();
    let waves = vec![vec![Request::new(Algorithm::Components)], group.clone()];
    let whole = transcript(&graph, &config, &waves, Style::WholeWave, true);
    let solo = transcript(&graph, &config, &waves, Style::Solo, true);
    let one = transcript(&graph, &config, &waves, Style::BatchOfOne, true);
    assert_eq!(whole, solo, "group vs one at a time");
    assert_eq!(solo, one, "one at a time vs batches of one");
    assert_eq!(
        whole.admissions,
        vec![Ok(1), Ok(2), Ok(3), Ok(4), Err(Rejected::QueueFull { capacity: 3 })]
    );
    assert_eq!(whole.depth_samples, vec![(1, 1), (2, 1), (3, 2), (4, 3), (5, 3)]);
    assert_eq!(
        whole.terminal,
        vec![
            (5, 0, 0, 0, ServerOutcome::ShedQueueFull),
            (1, 1, 0, 1, ServerOutcome::Ok),
            (2, 1, 0, 3, ServerOutcome::Ok),
            (3, 1, 1, 3, ServerOutcome::Ok),
            (4, 1, 2, 3, ServerOutcome::Ok),
        ]
    );
    for (request, got) in group.iter().zip(&whole.results[1..]) {
        let oracle = run_isolated(&graph, request).expect("oracle");
        assert_eq!(got.as_ref().expect("completes"), &oracle);
    }
    assert_eq!((whole.stats.batched, whole.stats.batches, whole.stats.max_batch), (3, 1, 3));
}
