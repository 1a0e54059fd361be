//! Resident graph-query server: one shared in-memory CSR, many
//! concurrent bounded-deadline requests.
//!
//! The paper's engines are one-shot (load → run → exit); this crate is
//! the long-lived shape the ROADMAP north star needs: the graph is
//! loaded once into an `Arc<Graph>` and an arbitrary number of
//! concurrent requests (SSSP / BFS / connected components / PageRank,
//! each with its own parameters) run against it. Each worker owns an
//! engine pool of its own — the global pool's thread count split evenly
//! between the workers — and runs its whole loop inside it, so a
//! request's parallel regions never leave its worker's pool and
//! concurrent requests never queue behind each other's chunks. The
//! robustness layer is the point:
//!
//! * **Bounded admission** — a fixed-capacity queue sheds overload with
//!   a typed [`Rejected::QueueFull`] instead of growing without bound.
//! * **Deadlines** — each request carries a wall-clock budget enforced
//!   cooperatively by the engine ([`RunConfig::deadline`], checked at
//!   superstep barriers *and* chunk boundaries) and, as a backstop, by
//!   a watchdog thread that reaps requests whose engine never yields.
//! * **Panic containment** — a `VertexPanic` (or a panic in the request
//!   handler itself) is caught per attempt; it fails *that* request
//!   with a typed error and never poisons the pool, the queue, or
//!   concurrent requests.
//! * **Retry with backoff** — transient failures (panics) are retried
//!   under [`RetryPolicy`] (capped attempts, doubling backoff) within
//!   the request's remaining budget.
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] rejects new
//!   admissions, drains everything already queued, joins the workers
//!   and watchdog, and returns a [`ServerReport`] whose trace events
//!   reconcile exactly against its stats.
//!
//! Concurrency shape: all four server lock classes (`server.queue` 2,
//! `server.registry` 4, `server.request` 6, `server.stats` 8) rank
//! *below* every pool/engine class — server code acquires them around
//! engine work, and the engine (pool, tracer, mailboxes) runs strictly
//! inside a picked-up request with no server lock held. See
//! docs/INTERNALS.md, "Server".

#![forbid(unsafe_code)]

pub mod net;
pub mod protocol;

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use ipregel::RetryPolicy;
use ipregel::trace::{ServerOutcome, TraceEvent, Tracer};
use ipregel::{
    try_run, CombinerKind, LaneTracker, Lanes, RunConfig, RunError, RunTotals, Schedule, Version,
};
use ipregel_apps::{Bfs, Hashmin, MultiHashmin, MultiHops, MultiRank, PageRank, Sssp};
use ipregel_graph::{Graph, VertexId};
use ipregel_par::lockorder::{LockClass, OrderedCondvar, OrderedGuard, OrderedMutex};
use ipregel_par::{ThreadPool, ThreadPoolBuilder};

/// The server's lock classes. Ranks 2–8: strictly below `pool.state`
/// (10) and everything above it, because the engine — and with it every
/// pool/tracer/mailbox acquisition — runs inside a request that server
/// code picked up, never the other way around. The linter cross-checks
/// these literals against its `LOCK_HIERARCHY` manifest.
mod classes {
    use super::LockClass;

    /// The bounded admission queue (`Inner::queue`).
    pub const SERVER_QUEUE: LockClass = LockClass::new(2, "server.queue");
    /// The live-slot registry the watchdog walks (`Inner::registry`).
    pub const SERVER_REGISTRY: LockClass = LockClass::new(4, "server.registry");
    /// One request's state cell (`Slot::state`).
    pub const SERVER_REQUEST: LockClass = LockClass::new(6, "server.request");
    /// The aggregate counters (`Inner::stats`).
    pub const SERVER_STATS: LockClass = LockClass::new(8, "server.stats");
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Which vertex program a request runs, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Single-source shortest paths (hop counts) from `source`.
    Sssp {
        /// External identifier of the source vertex.
        source: VertexId,
    },
    /// Breadth-first search depths from `source`.
    Bfs {
        /// External identifier of the root.
        source: VertexId,
    },
    /// Connected components via Hashmin label propagation.
    Components,
    /// PageRank with explicit round count and damping factor.
    PageRank {
        /// Rank-update supersteps.
        rounds: usize,
        /// Damping factor, in the open interval (0, 1).
        damping: f64,
    },
}

/// One query against the resident graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What to compute.
    pub algorithm: Algorithm,
    /// Combiner version to run with.
    pub combiner: CombinerKind,
    /// Selection bypass on/off. Rejected for PageRank, whose vertices
    /// never halt voluntarily.
    pub bypass: bool,
    /// Chunking schedule. Never changes results, only load balance.
    pub schedule: Schedule,
    /// Wall-clock budget for this request (queue wait excluded); `None`
    /// falls back to [`ServerConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

impl Request {
    /// A request with per-algorithm default version: spinlock + bypass
    /// for the halting traversals, broadcast without bypass for
    /// PageRank (the paper's best-per-workload picks).
    pub fn new(algorithm: Algorithm) -> Self {
        let (combiner, bypass) = match algorithm {
            Algorithm::PageRank { .. } => (CombinerKind::Broadcast, false),
            _ => (CombinerKind::Spinlock, true),
        };
        Request { algorithm, combiner, bypass, schedule: Schedule::default(), deadline: None }
    }
}

/// Final values of a completed request, keyed by external vertex id in
/// id order. Floating-point results are carried as IEEE-754 bits so
/// equality is *bit*-equality — the concurrent-equivalence tests (and
/// the wire format) never round-trip through decimal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultValues {
    /// `u32`-valued programs (SSSP, BFS, components).
    U32(Vec<(VertexId, u32)>),
    /// `f64`-valued programs (PageRank), as `to_bits()`.
    F64Bits(Vec<(VertexId, u64)>),
}

/// A completed request's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutput {
    /// Per-vertex final values.
    pub values: ResultValues,
    /// Supersteps the run took.
    pub supersteps: usize,
    /// Messages the run sent.
    pub messages: u64,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a request was refused at admission (synchronously, before it
/// ever held a queue slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded admission queue is full: typed load-shedding.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The server is shutting down and admits nothing new.
    ShuttingDown,
    /// The request is malformed for this graph or engine (unknown
    /// source vertex, unsound version, out-of-range parameter).
    Invalid(String),
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
            Rejected::Invalid(why) => write!(f, "invalid request: {why}"),
        }
    }
}

/// Why an *admitted* request failed to produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The engine's cooperative deadline fired (or the budget was
    /// already spent before an attempt could start).
    DeadlineExceeded {
        /// The budget that was exceeded.
        deadline: Duration,
    },
    /// The watchdog reaped the request: its engine ran `after` without
    /// yielding past its budget plus the reap grace.
    Reaped {
        /// How long the request had been running when reaped.
        after: Duration,
    },
    /// Every retry attempt panicked. The panic was contained; this is
    /// the typed residue.
    Panicked {
        /// Attempts made before giving up.
        attempts: u32,
        /// Message of the last panic.
        message: String,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::DeadlineExceeded { deadline } => {
                write!(f, "deadline of {deadline:?} exceeded")
            }
            RequestError::Reaped { after } => {
                write!(f, "reaped by the watchdog after {after:?}")
            }
            RequestError::Panicked { attempts, message } => {
                write!(f, "all {attempts} attempts panicked (last: {message})")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration and stats
// ---------------------------------------------------------------------------

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded admission queue capacity; submissions beyond it shed
    /// with [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads draining the queue. Each runs one request at a
    /// time, inside an engine pool of its own that gets
    /// `max(1, threads / workers)` of the threads the global pool
    /// would have (`IPREGEL_PAR_THREADS`, else the core count). So
    /// this also says how the cores are split: the default 2 runs two
    /// requests side by side, one core each on a 2-core machine; 1
    /// gives a lone request every core.
    pub workers: usize,
    /// Retry policy for transiently-failed (panicked) attempts.
    pub retry: RetryPolicy,
    /// Budget applied to requests that carry none of their own.
    pub default_deadline: Option<Duration>,
    /// Extra slack past a request's budget before the watchdog reaps
    /// it. The cooperative deadline should fire first; the reaper is
    /// the backstop for an engine that stops yielding entirely.
    pub reap_grace: Duration,
    /// Watchdog sweep cadence.
    pub watchdog_interval: Duration,
    /// Upper bound accepted for PageRank rounds (admission validation).
    pub max_rounds: usize,
    /// Maximum lanes a worker folds into one K-lane engine run
    /// (clamped to [`ipregel::MAX_LANES`]). 1 disables batching: every
    /// request runs solo, exactly the pre-batching behaviour.
    pub batch_lanes: usize,
    /// How long a worker holding a partial batch waits for more
    /// compatible requests before running it. Zero (the default) never
    /// waits: only requests already queued get folded in.
    pub batch_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            workers: 2,
            retry: RetryPolicy::default(),
            default_deadline: None,
            reap_grace: Duration::from_millis(200),
            watchdog_interval: Duration::from_millis(5),
            max_rounds: 100_000,
            batch_lanes: 1,
            batch_window: Duration::ZERO,
        }
    }
}

/// Aggregate request accounting. The trace stream carries the same
/// information event-by-event; [`ServerReport::reconcile`] checks the
/// two agree exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Admitted requests that completed with a result.
    pub completed: u64,
    /// Submissions shed because the queue was full.
    pub shed_queue_full: u64,
    /// Submissions shed because the server was shutting down.
    pub shed_shutdown: u64,
    /// Submissions rejected as invalid before admission (no queue slot,
    /// no trace event — the request never existed server-side).
    pub rejected_invalid: u64,
    /// Admitted requests that failed on their cooperative deadline.
    pub deadline_exceeded: u64,
    /// Admitted requests reaped by the watchdog.
    pub reaped: u64,
    /// Admitted requests whose every attempt panicked.
    pub panicked: u64,
    /// Retry attempts made beyond each request's first.
    pub retries: u64,
    /// Deepest queue observed at any admission decision (in requests —
    /// a queued batch group counts each member).
    pub max_queue_depth: u64,
    /// Requests settled as part of a K ≥ 2 batch (per-lane count).
    pub batched: u64,
    /// Batch groups of K ≥ 2 observed (via their lane-0 settlement).
    pub batches: u64,
    /// Widest batch any settled request ran in (1 = solo only; 0 = no
    /// request ever settled).
    pub max_batch: u64,
}

/// Everything [`ServerHandle::shutdown`] flushes: final stats, the full
/// server trace, and the tracer's drop counter.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Final aggregate counters.
    pub stats: ServerStats,
    /// Server trace events ([`TraceEvent::ServerRequest`] /
    /// [`TraceEvent::ServerQueueDepth`]), in settlement order.
    pub events: Vec<TraceEvent>,
    /// Events the tracer dropped (0 unless its log lock was poisoned).
    pub dropped_events: u64,
    /// Sums over the engine runs whose results the workers settled: one
    /// run per solo request, one per batch of K lanes.
    pub runs: RunTotals,
}

impl ServerReport {
    /// The trace as a JSONL document (meta header included).
    pub fn trace_jsonl(&self) -> String {
        ipregel::trace::encode_trace(&self.events)
    }

    /// Prometheus text-format snapshot of the request metrics.
    pub fn prometheus(&self) -> String {
        ipregel::trace::render_prometheus(&self.events, self.dropped_events, &self.runs)
    }

    /// Check the trace against the stats: one terminal
    /// [`TraceEvent::ServerRequest`] per submission with per-outcome
    /// counts matching the counters exactly, one
    /// [`TraceEvent::ServerQueueDepth`] sample per submission decision,
    /// and every admitted request settled.
    pub fn reconcile(&self) -> Result<(), String> {
        let mut by_outcome = [0u64; 6];
        let mut depth_samples = 0u64;
        let mut max_depth = 0u64;
        let mut traced = ServerStats::default();
        for e in &self.events {
            match *e {
                TraceEvent::ServerRequest { outcome, lane, lanes, .. } => {
                    by_outcome[outcome as usize] += 1;
                    note_lane_stats(&mut traced, lane, lanes);
                }
                TraceEvent::ServerQueueDepth { depth, .. } => {
                    depth_samples += 1;
                    max_depth = max_depth.max(depth);
                }
                _ => {}
            }
        }
        let s = &self.stats;
        let check = |what: &str, traced: u64, counted: u64| {
            if traced == counted {
                Ok(())
            } else {
                Err(format!("{what}: trace says {traced}, stats say {counted}"))
            }
        };
        check("completed", by_outcome[ServerOutcome::Ok as usize], s.completed)?;
        check("shed_queue_full", by_outcome[ServerOutcome::ShedQueueFull as usize], s.shed_queue_full)?;
        check("shed_shutdown", by_outcome[ServerOutcome::ShedShutdown as usize], s.shed_shutdown)?;
        check("deadline", by_outcome[ServerOutcome::Deadline as usize], s.deadline_exceeded)?;
        check("reaped", by_outcome[ServerOutcome::Reaped as usize], s.reaped)?;
        check("panicked", by_outcome[ServerOutcome::Panicked as usize], s.panicked)?;
        let submissions = s.admitted + s.shed_queue_full + s.shed_shutdown;
        check("terminal events", by_outcome.iter().sum::<u64>(), submissions)?;
        check("depth samples", depth_samples, submissions)?;
        check("max depth", max_depth, s.max_queue_depth)?;
        let settled = s.completed + s.deadline_exceeded + s.reaped + s.panicked;
        check("settled == admitted", settled, s.admitted)?;
        check("batched", traced.batched, s.batched)?;
        check("batches", traced.batches, s.batches)?;
        check("max batch", traced.max_batch, s.max_batch)?;
        if self.dropped_events != 0 {
            return Err(format!("{} trace events dropped", self.dropped_events));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Slots: the per-request state machine
// ---------------------------------------------------------------------------

/// Lifecycle of an admitted request. Transitions:
/// `Queued → Running → Done → Delivered`, with `Done` written exactly
/// once, by whichever of worker (settled) or watchdog (reaped) gets
/// there first — the loser observes a terminal state and discards its
/// own result, which is what keeps the one-terminal-event invariant.
#[derive(Debug)]
enum SlotState {
    /// In the admission queue, no worker has picked it up.
    Queued,
    /// A worker is running it (engine attempts, retries, backoff).
    Running {
        /// When the worker picked it up.
        since: Instant,
        /// Effective wall-clock budget (request's, or the configured
        /// default, possibly chaos-skewed). `None` = unbounded, and
        /// the watchdog never reaps it.
        budget: Option<Duration>,
        /// Lane this request occupies in its batch (0 when solo).
        lane: u64,
        /// Width of the batch it is running in (1 when solo).
        lanes: u64,
    },
    /// Settled; the result waits for [`Ticket::wait`]. If the ticket
    /// was dropped instead, the watchdog prunes the slot once the
    /// registry holds the last `Arc` to it.
    Done(Result<RequestOutput, RequestError>),
    /// Result claimed; the watchdog prunes the slot from the registry.
    Delivered,
}

/// One admitted request.
struct Slot {
    id: u64,
    request: Request,
    admitted: Instant,
    state: OrderedMutex<SlotState>,
    settled: OrderedCondvar,
}

/// Shrug off poison: the guarded state is a plain value protected by
/// the state machine's own invariants, and panic containment means a
/// panicking holder has already been converted into a typed error.
fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The admission queue plus the shutdown latch, under one lock so a
/// submit can atomically observe "not shutting down, has capacity".
/// Each entry is a *group*: solo submissions are 1-element groups, and
/// [`ServerHandle::submit_batch`] admits compatible requests as one
/// multi-element group a worker runs as a single K-lane engine run.
/// Capacity and depth are counted in requests, not groups.
struct QueueState {
    queue: VecDeque<Vec<Arc<Slot>>>,
    shutting_down: bool,
}

impl QueueState {
    /// Queued requests (every member of every group).
    fn depth(&self) -> usize {
        self.queue.iter().map(Vec::len).sum()
    }
}

struct Inner {
    graph: Arc<Graph>,
    config: ServerConfig,
    queue: OrderedMutex<QueueState>,
    admitted_cv: OrderedCondvar,
    registry: OrderedMutex<Vec<Arc<Slot>>>,
    stats: OrderedMutex<ServerStats>,
    tracer: Tracer,
    next_id: AtomicU64,
    depth_seq: AtomicU64,
    watchdog_stop: AtomicBool,
}

/// A claim on an admitted request's eventual result.
#[must_use = "dropping a ticket abandons the result (the request still runs)"]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Server-assigned request id (admission order, starting at 1).
    pub fn id(&self) -> u64 {
        self.slot.id
    }

    /// Block until the request settles and take its result.
    pub fn wait(self) -> Result<RequestOutput, RequestError> {
        // lock-order(server.request)
        let mut st = relock(self.slot.state.lock());
        loop {
            match *st {
                SlotState::Done(_) => break,
                SlotState::Delivered => unreachable!("ticket consumed once (by value)"),
                SlotState::Queued | SlotState::Running { .. } => {
                    st = relock(st.wait_on(&self.slot.settled));
                }
            }
        }
        match std::mem::replace(&mut *st, SlotState::Delivered) {
            SlotState::Done(result) => result,
            _ => unreachable!("loop above breaks only on Done"),
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A running server: worker threads, a watchdog, and the shared state.
/// Drive it in-process via [`ServerHandle::submit`] /
/// [`ServerHandle::handle_line`], or over TCP via [`net::serve`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    /// Each worker hands back the totals of the runs it made when it
    /// exits.
    workers: Vec<JoinHandle<RunTotals>>,
    watchdog: Option<JoinHandle<()>>,
    /// The exited workers' totals.
    runs: RunTotals,
}

impl ServerHandle {
    /// Load the shared graph and start the workers, each inside its own
    /// engine pool (see [`ServerConfig::workers`]), plus the watchdog.
    pub fn start(graph: Arc<Graph>, config: ServerConfig) -> ServerHandle {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            graph,
            config,
            queue: OrderedMutex::new(
                &classes::SERVER_QUEUE,
                QueueState { queue: VecDeque::new(), shutting_down: false },
            ),
            admitted_cv: OrderedCondvar::new(),
            registry: OrderedMutex::new(&classes::SERVER_REGISTRY, Vec::new()),
            stats: OrderedMutex::new(&classes::SERVER_STATS, ServerStats::default()),
            tracer: Tracer::new(),
            next_id: AtomicU64::new(0),
            depth_seq: AtomicU64::new(0),
            watchdog_stop: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let pool = worker_pool(workers);
                std::thread::Builder::new()
                    .name(format!("ipregel-server-worker-{i}"))
                    .spawn(move || pool.install(|| inner.worker_loop()))
                    .expect("spawn server worker")
            })
            .collect();
        let watchdog = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ipregel-server-watchdog".to_string())
                .spawn(move || inner.watchdog_loop())
                .expect("spawn server watchdog")
        };
        ServerHandle { inner, workers, watchdog: Some(watchdog), runs: RunTotals::default() }
    }

    /// The resident graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.inner.graph
    }

    /// Validate and admit a request. Returns a [`Ticket`] for its
    /// result, or the typed admission refusal. A solo request is a
    /// batch of one: this is [`ServerHandle::submit_batch`] with a
    /// single member.
    pub fn submit(&self, request: Request) -> Result<Ticket, Rejected> {
        self.inner.submit_batch(vec![request]).pop().expect("one decision per request")
    }

    /// [`ServerHandle::submit`] + [`Ticket::wait`] in one call.
    pub fn submit_wait(
        &self,
        request: Request,
    ) -> Result<Result<RequestOutput, RequestError>, Rejected> {
        self.submit(request).map(Ticket::wait)
    }

    /// Admit many requests at once, folding compatible ones (same
    /// algorithm family, combiner, bypass, and schedule — see the
    /// module docs on batching) into shared queue groups that a worker
    /// runs as single K-lane engine runs. Per-request semantics are
    /// unchanged: each member is validated, shed, and settled
    /// individually — an invalid or shed member never sinks its peers —
    /// and each gets its own [`Ticket`], depth sample, and terminal
    /// trace event. Results are returned in submission order.
    ///
    /// With [`ServerConfig::batch_lanes`] = 1 every group is a
    /// singleton.
    pub fn submit_batch(&self, requests: Vec<Request>) -> Vec<Result<Ticket, Rejected>> {
        self.inner.submit_batch(requests)
    }

    /// Serve one line of the newline-delimited JSON protocol (see
    /// [`protocol`]): parse, admit, wait, render. Malformed input gets
    /// a typed protocol error and touches no server state.
    pub fn handle_line(&self, line: &str) -> String {
        protocol::handle_line(self, line)
    }

    /// Snapshot the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        // lock-order(server.stats)
        relock(self.inner.stats.lock()).clone()
    }

    /// Live (not-yet-pruned) slots in the watchdog's registry. Settles
    /// back to 0 on an idle server: the watchdog prunes delivered slots
    /// *and* settled slots whose [`Ticket`] was dropped without
    /// [`Ticket::wait`] — abandonment must not leak registry memory.
    pub fn live_slots(&self) -> usize {
        // lock-order(server.registry)
        relock(self.inner.registry.lock()).len()
    }

    /// Graceful shutdown: reject new admissions, drain everything
    /// already queued, join workers and watchdog, and flush the final
    /// report (stats + reconcilable trace).
    pub fn shutdown(mut self) -> ServerReport {
        self.stop();
        let inner = &self.inner;
        ServerReport {
            // lock-order(server.stats)
            stats: relock(inner.stats.lock()).clone(),
            events: inner.tracer.take_events(),
            dropped_events: inner.tracer.dropped_events(),
            runs: self.runs,
        }
    }

    /// Signal shutdown and join all threads (idempotent).
    fn stop(&mut self) {
        {
            // lock-order(server.queue)
            let mut q = relock(self.inner.queue.lock());
            q.shutting_down = true;
        }
        self.inner.admitted_cv.notify_all();
        for w in self.workers.drain(..) {
            if let Ok(runs) = w.join() {
                self.runs.merge(&runs);
            }
        }
        // ordering(Relaxed): plain stop flag; the join below is the
        // synchronisation point.
        self.inner.watchdog_stop.store(true, Ordering::Relaxed);
        if let Some(wd) = self.watchdog.take() {
            let _ = wd.join();
        }
    }
}

impl Drop for ServerHandle {
    /// A dropped (un-shutdown) handle still stops its threads — leaked
    /// workers blocked on the queue condvar would outlive the graph's
    /// other users and hang test harnesses.
    fn drop(&mut self) {
        if !self.workers.is_empty() || self.watchdog.is_some() {
            self.stop();
        }
    }
}

impl Inner {
    /// Admission, the only way in: validate each member, partition the
    /// valid ones into compatible groups of at most
    /// [`ServerConfig::batch_lanes`] members, and admit each group as
    /// one queue entry. Accounting stays per-request (see
    /// [`ServerHandle::submit_batch`]).
    fn submit_batch(self: &Arc<Self>, requests: Vec<Request>) -> Vec<Result<Ticket, Rejected>> {
        let lanes = self.config.batch_lanes.clamp(1, ipregel::MAX_LANES);
        let mut results: Vec<Option<Result<Ticket, Rejected>>> = Vec::new();
        results.resize_with(requests.len(), || None);
        // (key, member indices) for each group still open for filling.
        let mut groups: Vec<(Option<BatchKey>, Vec<usize>)> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            if let Err(why) = self.validate(request) {
                // lock-order(server.stats)
                relock(self.stats.lock()).rejected_invalid += 1;
                results[i] = Some(Err(Rejected::Invalid(why)));
                continue;
            }
            let key = batch_key(request);
            let open = groups.iter_mut().find(|(k, members)| {
                k.is_some() && *k == key && members.len() < lanes
            });
            match open {
                Some((_, members)) if key.is_some() => members.push(i),
                _ => groups.push((key, vec![i])),
            }
        }
        for (_, members) in groups {
            let group: Vec<Request> = members.iter().map(|&i| requests[i].clone()).collect();
            for (i, outcome) in members.into_iter().zip(self.submit_group(group)) {
                results[i] = Some(outcome);
            }
        }
        results.into_iter().map(|r| r.expect("every request decided")).collect()
    }

    /// Admit one compatible group as a single queue entry, atomically
    /// checking shutdown + capacity under the queue lock. Accounting is
    /// per member: its own id, admitted/shed counters, one queue-depth
    /// sample per decision — admitted or shed — and, for sheds, the
    /// terminal request event right here. Members that no longer fit
    /// the queue shed individually; the ones that fit still run
    /// together.
    fn submit_group(self: &Arc<Self>, requests: Vec<Request>) -> Vec<Result<Ticket, Rejected>> {
        let slots: Vec<Arc<Slot>> = requests
            .into_iter()
            .map(|request| {
                // ordering(Relaxed): unique-id tick; uniqueness is all
                // that is needed, no ordering with other memory.
                let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
                Arc::new(Slot {
                    id,
                    request,
                    admitted: Instant::now(),
                    state: OrderedMutex::new(&classes::SERVER_REQUEST, SlotState::Queued),
                    settled: OrderedCondvar::new(),
                })
            })
            .collect();
        // Decide every member under one queue acquisition so the group
        // lands as one entry and no worker can pop it half-built.
        let decisions: Vec<(Result<(), Rejected>, u64)> = {
            // lock-order(server.queue)
            let mut q = relock(self.queue.lock());
            let mut entry: Vec<Arc<Slot>> = Vec::new();
            let decisions = slots
                .iter()
                .map(|slot| {
                    let depth_now = q.depth() + entry.len();
                    let decision = if q.shutting_down {
                        Err(Rejected::ShuttingDown)
                    } else if depth_now >= self.config.queue_capacity {
                        Err(Rejected::QueueFull { capacity: self.config.queue_capacity })
                    } else {
                        entry.push(Arc::clone(slot));
                        Ok(())
                    };
                    (decision, (q.depth() + entry.len()) as u64)
                })
                .collect();
            if !entry.is_empty() {
                q.queue.push_back(entry);
            }
            decisions
        };
        let mut admitted_any = false;
        let results = slots
            .into_iter()
            .zip(decisions)
            .map(|(slot, (decision, depth))| {
                self.sample_depth(depth);
                match decision {
                    Ok(()) => {
                        admitted_any = true;
                        // lock-order(server.registry)
                        relock(self.registry.lock()).push(Arc::clone(&slot));
                        {
                            // lock-order(server.stats)
                            let mut s = relock(self.stats.lock());
                            s.admitted += 1;
                            s.max_queue_depth = s.max_queue_depth.max(depth);
                        }
                        Ok(Ticket { slot })
                    }
                    Err(rejected) => {
                        let outcome = match rejected {
                            Rejected::QueueFull { .. } => ServerOutcome::ShedQueueFull,
                            _ => ServerOutcome::ShedShutdown,
                        };
                        {
                            // lock-order(server.stats)
                            let mut s = relock(self.stats.lock());
                            match outcome {
                                ServerOutcome::ShedQueueFull => s.shed_queue_full += 1,
                                _ => s.shed_shutdown += 1,
                            }
                            s.max_queue_depth = s.max_queue_depth.max(depth);
                        }
                        self.tracer.record_sync(TraceEvent::ServerRequest {
                            id: slot.id,
                            queue_ns: 0,
                            run_ns: 0,
                            attempts: 0,
                            lane: 0,
                            lanes: 0,
                            outcome,
                        });
                        Err(rejected)
                    }
                }
            })
            .collect();
        if admitted_any {
            self.admitted_cv.notify_one();
        }
        results
    }

    /// Emit one queue-depth sample (one per submission decision).
    fn sample_depth(&self, depth: u64) {
        // ordering(Relaxed): monotone sample sequence; reconciliation
        // reads it from the drained trace after shutdown.
        let seq = self.depth_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.tracer.record_sync(TraceEvent::ServerQueueDepth { seq, depth });
    }

    /// Admission-time validation; failures never consume a queue slot.
    fn validate(&self, r: &Request) -> Result<(), String> {
        match r.algorithm {
            Algorithm::Sssp { source } | Algorithm::Bfs { source } => {
                if !self.graph.address_map().contains(source) {
                    return Err(format!("source vertex {source} is not in the graph"));
                }
            }
            Algorithm::PageRank { rounds, damping } => {
                if !(damping > 0.0 && damping < 1.0) {
                    return Err(format!("damping must be in (0, 1), got {damping}"));
                }
                if rounds == 0 || rounds > self.config.max_rounds {
                    return Err(format!(
                        "rounds must be in 1..={}, got {rounds}",
                        self.config.max_rounds
                    ));
                }
                if r.bypass {
                    return Err(
                        "PageRank vertices never halt voluntarily; the selection bypass is unsound for it"
                            .to_string(),
                    );
                }
            }
            Algorithm::Components => {}
        }
        if matches!(r.combiner, CombinerKind::Broadcast) && !self.graph.has_in_edges() {
            return Err("the broadcast combiner needs in-edges; the graph has none".to_string());
        }
        if !matches!(r.combiner, CombinerKind::Broadcast) && !self.graph.has_out_edges() {
            return Err("push combiners need out-edges; the graph has none".to_string());
        }
        Ok(())
    }

    /// Worker: pop-or-wait on the queue, run each group to settlement.
    /// On shutdown, drain whatever is still queued, then exit with the
    /// totals of the runs it made, kept here and locked nowhere. Runs on
    /// a thread of the worker's own pool, so every engine run it starts
    /// forks into that pool and nowhere else.
    fn worker_loop(self: &Arc<Self>) -> RunTotals {
        let mut runs = RunTotals::default();
        loop {
            let batch = {
                // lock-order(server.queue)
                let mut q = relock(self.queue.lock());
                loop {
                    if let Some(entry) = q.queue.pop_front() {
                        break Some(self.form_batch(q, entry));
                    }
                    if q.shutting_down {
                        break None;
                    }
                    q = relock(q.wait_on(&self.admitted_cv));
                }
            };
            let Some(batch) = batch else { return runs };
            self.run_group(&batch, &mut runs);
        }
    }

    /// Grow a popped group toward [`ServerConfig::batch_lanes`] by
    /// folding in *whole* compatible entries already queued, optionally
    /// waiting out [`ServerConfig::batch_window`] for more to arrive.
    /// Consumes (and returns) the queue guard so the scan, the window
    /// wait, and the merge are one atomic protocol.
    fn form_batch(
        &self,
        mut q: OrderedGuard<'_, QueueState>,
        mut entry: Vec<Arc<Slot>>,
    ) -> Vec<Arc<Slot>> {
        let lanes = self.config.batch_lanes.clamp(1, ipregel::MAX_LANES);
        let key = batch_key(&entry[0].request);
        if lanes <= 1 || key.is_none() || entry.iter().any(|s| batch_key(&s.request) != key) {
            return entry;
        }
        let window_ends = Instant::now() + self.config.batch_window;
        loop {
            // Take queued entries of the same family, whole, while they
            // fit — splitting a group would tear apart lanes its
            // submitter deliberately co-scheduled.
            let mut i = 0;
            while i < q.queue.len() && entry.len() < lanes {
                let candidate = &q.queue[i];
                if candidate.len() <= lanes - entry.len()
                    && candidate.iter().all(|s| batch_key(&s.request) == key)
                {
                    let mut taken = q.queue.remove(i).expect("index in bounds");
                    entry.append(&mut taken);
                } else {
                    i += 1;
                }
            }
            let now = Instant::now();
            if entry.len() >= lanes || q.shutting_down || now >= window_ends {
                return entry;
            }
            let (guard, _timed_out) =
                relock(q.wait_timeout_on(&self.admitted_cv, window_ends - now));
            q = guard;
        }
    }

    /// Run one popped group to settlement — the one request lifecycle,
    /// whatever the width: fix each member's budget, mark it Running
    /// (lane-tagged), run, and hand each member's verdict to
    /// [`Inner::settle`], the only writer of `Done`.
    ///
    /// The group's width is the one fork, and the only place the engine
    /// entry is chosen: a lone request runs its solo program
    /// ([`run_once`]) inside [`Inner::attempt`]'s retry loop, K ≥ 2
    /// members share one [`run_lanes`] traversal. A batch of one would
    /// be correct but not free — `Lanes<T>` is a fixed 8-wide stripe,
    /// and the benchmark's baseline has K = 2 at 0.61–0.72× of solo — so
    /// width 1 keeps the scalar programs. Everything PR 8 guarantees per
    /// request stays per *lane*:
    ///
    /// * **Deadlines** — each member keeps its own budget. A member
    ///   whose budget is spent before launch settles typed immediately;
    ///   one that expires mid-run is masked out of the stripe (it stops
    ///   generating messages) and fails [`RequestError::DeadlineExceeded`]
    ///   while its peers complete. The engine-level cooperative
    ///   deadline is the *loosest* member budget — set only when every
    ///   live member has one — so it can only fire once per-lane
    ///   masking has already failed every lane.
    /// * **Panic containment / retry** — the per-request chaos
    ///   containment point runs per member before launch, in the same
    ///   retry/backoff loop a solo request's engine attempts use, so an
    ///   injected panic targeting one member settles only that member.
    ///   A panic *inside* the shared engine run (a real vertex panic)
    ///   aborts the batch attempt and every unsettled member starts over
    ///   as a group of one with full retry semantics — correctness over
    ///   batching.
    /// * **Accounting** — each member settles individually (own trace
    ///   event, lane-tagged; own stats), and the watchdog reaps stuck
    ///   members individually via the lane-tagged `Running` state.
    fn run_group(&self, group: &[Arc<Slot>], runs: &mut RunTotals) {
        let picked_up = Instant::now();
        let lanes = group.len() as u64;
        let budgets: Vec<Option<Duration>> = group
            .iter()
            .map(|slot| {
                #[allow(unused_mut)] // mutated only under the chaos feature
                let mut budget = slot.request.deadline.or(self.config.default_deadline);
                #[cfg(feature = "chaos")]
                if ipregel::chaos::fires(ipregel::chaos::SERVER_DEADLINE_SKEW, slot.id) {
                    // Collapse this member's budget only: a
                    // deterministic (per-lane) DeadlineExceeded at the
                    // first check.
                    budget = Some(Duration::ZERO);
                }
                budget
            })
            .collect();
        for (i, slot) in group.iter().enumerate() {
            // lock-order(server.request)
            let mut st = relock(slot.state.lock());
            if matches!(*st, SlotState::Done(_) | SlotState::Delivered) {
                // Only a group of one gets here: the shared-run
                // fallback below re-enters with members that were
                // Running, and the watchdog may have reaped one
                // meanwhile. `Done` is write-once — it stays settled,
                // and nothing is left to run for it.
                return;
            }
            *st = SlotState::Running {
                since: picked_up,
                budget: budgets[i],
                lane: i as u64,
                lanes,
            };
        }
        #[cfg(feature = "chaos")]
        for slot in group {
            if ipregel::chaos::fires(ipregel::chaos::SERVER_ADMISSION_DELAY, slot.id) {
                // Stall the worker with every member Running:
                // consumption backs up so the bounded queue sheds, and
                // zero-budget members sit in the watchdog's reapable
                // window.
                std::thread::sleep(Duration::from_millis(50));
            }
        }

        if let [slot] = group {
            let (attempts, result) = self.attempt(slot.id, budgets[0], picked_up, |remaining| {
                run_once(&self.graph, &slot.request, remaining)
            });
            let result = result.map(|(output, run)| {
                runs.merge(&run);
                output
            });
            self.settle(slot, |_, _| Some((attempts, result)));
            return;
        }

        // Per-member pre-flight: spent-budget check and the contained
        // per-request panic point (an attempt with nothing to run), so
        // a failure here settles one member and never its peers.
        let mut live: Vec<(usize, u32)> = Vec::new();
        for (i, slot) in group.iter().enumerate() {
            match self.attempt(slot.id, budgets[i], picked_up, |_| Ok(())) {
                (attempts, Ok(())) => live.push((i, attempts)),
                (attempts, Err(err)) => self.settle(slot, |_, _| Some((attempts, Err(err)))),
            }
        }
        if live.is_empty() {
            return;
        }

        // Remaining per-lane budgets become the stripe's masking
        // deadlines; the engine-level deadline is the loosest live
        // budget (and only exists when every live member has one).
        let mut deadlines = [None; ipregel::MAX_LANES];
        let mut engine_deadline: Option<Duration> = Some(Duration::ZERO);
        for (pos, &(i, _)) in live.iter().enumerate() {
            match budgets[i] {
                Some(b) => {
                    let remaining = b.saturating_sub(picked_up.elapsed());
                    deadlines[pos] = Some(remaining);
                    engine_deadline = engine_deadline.map(|m| m.max(remaining));
                }
                None => engine_deadline = None,
            }
        }
        let live_requests: Vec<&Request> =
            live.iter().map(|&(i, _)| &group[i].request).collect();
        // Containment boundary for the shared run (same rationale as
        // the one in `attempt`).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_lanes(&self.graph, &live_requests, deadlines, engine_deadline)
        }));
        let per_lane = match outcome {
            Ok(Ok((per_lane, run))) => {
                runs.merge(&run);
                per_lane
            }
            // The engine-level deadline is only armed when every live
            // member carries a budget; fail each on its own.
            Ok(Err(RunError::DeadlineExceeded { .. })) => vec![None; live.len()],
            _ => {
                // A panic or transient failure inside the *shared* run:
                // retrying the whole stripe would couple members'
                // fates, so every unsettled member starts the lifecycle
                // over as a group of one, keeping PR-8 retry/deadline
                // semantics intact.
                for &(i, _) in &live {
                    self.run_group(std::slice::from_ref(&group[i]), runs);
                }
                return;
            }
        };
        for (&(i, attempts), output) in live.iter().zip(per_lane) {
            // `None`: masked out mid-run by its own budget.
            let result = output.ok_or_else(|| RequestError::DeadlineExceeded {
                deadline: budgets[i].expect("only budgeted lanes expire"),
            });
            self.settle(&group[i], |_, _| Some((attempts, result)));
        }
    }

    /// The one retry loop: run `body` — handed the budget still unspent,
    /// which becomes the engine's cooperative deadline — until it
    /// succeeds, fails terminally, or the retry policy or `budget` is
    /// spent, sleeping a doubling backoff between transient failures.
    /// Returns the attempts made with the verdict.
    fn attempt<T>(
        &self,
        id: u64,
        budget: Option<Duration>,
        picked_up: Instant,
        body: impl Fn(Option<Duration>) -> Result<T, RunError>,
    ) -> (u32, Result<T, RequestError>) {
        let mut attempts = 0u32;
        let result = loop {
            let remaining = match budget {
                None => None,
                Some(b) => {
                    let spent = picked_up.elapsed();
                    if spent >= b {
                        break Err(RequestError::DeadlineExceeded { deadline: b });
                    }
                    Some(b - spent)
                }
            };
            attempts += 1;
            // Containment boundary: a panic anywhere in the attempt —
            // the chaos hook, the dispatcher, or a vertex program that
            // slipped past the engine's own chunk-level catch — becomes
            // a transient failure of *this* request only.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "chaos")]
                ipregel::chaos::maybe_panic(ipregel::chaos::SERVER_REQUEST_PANIC, id);
                let _ = id;
                body(remaining)
            }));
            let failure = match attempt {
                Ok(Ok(output)) => break Ok(output),
                Ok(Err(RunError::DeadlineExceeded { .. })) => {
                    break Err(RequestError::DeadlineExceeded {
                        deadline: budget.expect("engine deadline only set from a budget"),
                    });
                }
                Ok(Err(RunError::VertexPanic { message, superstep, .. })) => {
                    format!("vertex panic at superstep {superstep}: {message}")
                }
                Ok(Err(other)) => {
                    // Checkpoint/Resume cannot occur (no hooks); treat
                    // defensively as a terminal failure.
                    break Err(RequestError::Panicked { attempts, message: format!("{other:?}") });
                }
                Err(payload) => panic_message(payload),
            };
            if attempts >= self.config.retry.max_attempts.max(1) {
                break Err(RequestError::Panicked { attempts, message: failure });
            }
            {
                // lock-order(server.stats)
                relock(self.stats.lock()).retries += 1;
            }
            let backoff = self.config.retry.base_backoff.saturating_mul(1 << (attempts - 1).min(16));
            std::thread::sleep(backoff);
        };
        (attempts, result)
    }

    /// The one settlement writer, used by the worker and by the
    /// watchdog's reap. Under the slot lock, `verdict` — given how long
    /// the slot has run and its budget — says what to record (attempts
    /// made, result) or `None` to leave the slot running. `Done` is
    /// write-once: only a `Running` slot settles, so whichever of worker
    /// and watchdog comes second finds a terminal state, and its late
    /// result is discarded with nothing emitted (the first already
    /// accounted for the request).
    fn settle(
        &self,
        slot: &Slot,
        verdict: impl FnOnce(Duration, Option<Duration>) -> Option<(u32, Result<RequestOutput, RequestError>)>,
    ) {
        {
            // lock-order(server.request)
            let mut st = relock(slot.state.lock());
            let SlotState::Running { since, budget, lane, lanes } = *st else { return };
            let ran_for = since.elapsed();
            let Some((attempts, result)) = verdict(ran_for, budget) else { return };
            let outcome = match &result {
                Ok(_) => ServerOutcome::Ok,
                Err(RequestError::DeadlineExceeded { .. }) => ServerOutcome::Deadline,
                Err(RequestError::Reaped { .. }) => ServerOutcome::Reaped,
                Err(RequestError::Panicked { .. }) => ServerOutcome::Panicked,
            };
            *st = SlotState::Done(result);
            // Account while still holding the slot lock (request 6 →
            // stats 8 nests ascending): a waiter that has observed the
            // result must also observe its stats and trace event, so
            // `stats()` right after `Ticket::wait` never reads a
            // settled-but-uncounted request.
            {
                // lock-order(server.stats)
                let mut s = relock(self.stats.lock());
                match outcome {
                    ServerOutcome::Ok => s.completed += 1,
                    ServerOutcome::Deadline => s.deadline_exceeded += 1,
                    ServerOutcome::Reaped => s.reaped += 1,
                    ServerOutcome::Panicked => s.panicked += 1,
                    ServerOutcome::ShedQueueFull | ServerOutcome::ShedShutdown => {
                        unreachable!("sheds settle at admission")
                    }
                }
                note_lane_stats(&mut s, lane, lanes);
            }
            self.tracer.record_sync(TraceEvent::ServerRequest {
                id: slot.id,
                queue_ns: ipregel::trace::ns(since.duration_since(slot.admitted)),
                run_ns: ipregel::trace::ns(ran_for),
                attempts: u64::from(attempts),
                lane,
                lanes,
                outcome,
            });
        }
        slot.settled.notify_all();
    }

    /// Watchdog: periodically prune delivered and abandoned (settled,
    /// ticket dropped) slots from the registry, and reap Running slots
    /// that blew past budget + grace. A reaped
    /// request's waiter unblocks immediately with the typed error; the
    /// worker's eventual result is discarded in [`Inner::settle`].
    fn watchdog_loop(&self) {
        // ordering(Relaxed): plain stop flag, joined after being set.
        while !self.watchdog_stop.load(Ordering::Relaxed) {
            std::thread::sleep(self.config.watchdog_interval);
            self.sweep();
        }
        // Final sweep so shutdown leaves no reap pending.
        self.sweep();
    }

    /// One watchdog pass.
    fn sweep(&self) {
        let live: Vec<Arc<Slot>> = {
            // lock-order(server.registry)
            let mut reg = relock(self.registry.lock());
            reg.retain(|s| {
                // lock-order(server.request)
                let st = relock(s.state.lock());
                match *st {
                    SlotState::Delivered => false,
                    // Settled, but the Ticket was dropped without
                    // `wait` (an explicitly supported abandonment): no
                    // claimant can ever take the result. The registry's
                    // Arc being the last one proves that — submit is
                    // the only other cloner and it ran before Done, and
                    // a racy read can only be transiently high, which
                    // just defers pruning one sweep.
                    SlotState::Done(_) => Arc::strong_count(s) > 1,
                    SlotState::Queued | SlotState::Running { .. } => true,
                }
            });
            reg.iter().map(Arc::clone).collect()
        };
        for slot in live {
            // Reap: past budget + grace (an unbudgeted slot is never
            // reaped). Attempts are the worker's to count; the reaper
            // reports none.
            self.settle(&slot, |ran_for, budget| {
                (ran_for > budget? + self.config.reap_grace)
                    .then_some((0, Err(RequestError::Reaped { after: ran_for })))
            });
        }
    }
}

/// Update the batch counters for one lane-tagged terminal record:
/// [`Inner::settle`] counts with it and [`ServerReport::reconcile`]
/// re-derives the same counters from the trace with it, so the two
/// cannot drift apart.
fn note_lane_stats(s: &mut ServerStats, lane: u64, lanes: u64) {
    s.max_batch = s.max_batch.max(lanes);
    if lanes >= 2 {
        s.batched += 1;
        if lane == 0 {
            s.batches += 1;
        }
    }
}

/// Batch-compatibility key: requests fold into one K-lane run only
/// when they agree on algorithm family, combiner, bypass, and schedule
/// (plus rounds/damping for rank). `None` = never batched: rank on a
/// non-broadcast combiner, whose solo f64 accumulation order is already
/// nondeterministic — batching could not be checked against a
/// bit-exact oracle. SSSP and BFS share a family: under unit weights
/// they are the same wavefront, and each lane still settles against
/// its own algorithm's oracle.
type BatchKey = (u8, CombinerKind, bool, Schedule, u64, u64);

fn batch_key(r: &Request) -> Option<BatchKey> {
    let (family, rounds, damping_bits) = match r.algorithm {
        Algorithm::Sssp { .. } | Algorithm::Bfs { .. } => (0u8, 0u64, 0u64),
        Algorithm::Components => (1, 0, 0),
        Algorithm::PageRank { rounds, damping } => {
            if !matches!(r.combiner, CombinerKind::Broadcast) {
                return None;
            }
            (2, rounds as u64, damping.to_bits())
        }
    };
    Some((family, r.combiner, r.bypass, r.schedule, rounds, damping_bits))
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Run `request` against `graph` exactly as a server worker would, but
/// synchronously, in isolation, with no deadline, queue, or retry.
/// The request runs in a pool of the size a worker of a default-config
/// server owns — chunk plans, and with them the regrouping of
/// push-combined `f64` sums, follow the pool's size. The equivalence
/// tests compare concurrent server results against this oracle
/// bit-for-bit.
pub fn run_isolated(graph: &Graph, request: &Request) -> Result<RequestOutput, RunError> {
    let run = || run_once(graph, request, None).map(|(output, _)| output);
    worker_pool(ServerConfig::default().workers).install(run)
}

/// Threads in each worker's engine pool when `workers` workers split
/// `threads`: an even share, at least one. With fewer threads than
/// workers the pools oversubscribe the cores rather than leave a
/// worker without a thread.
fn worker_pool_threads(threads: usize, workers: usize) -> usize {
    (threads / workers.max(1)).max(1)
}

/// The engine pool of one of `workers` workers, sized from the count
/// the global pool would have — read without building the global pool,
/// which the server never touches.
fn worker_pool(workers: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(worker_pool_threads(ipregel_par::default_num_threads(), workers))
        .build()
        .expect("build server worker pool")
}

/// One K-lane engine attempt over `requests` (all sharing one
/// [`BatchKey`]; lane `l` runs `requests[l]`). Returns one entry per
/// lane — `Some(output)` with that lane's reconstructed solo stats, or
/// `None` for a lane masked out by its own deadline mid-run — and the
/// shared run's totals. Runs on
/// the current pool (`threads: None`) exactly as [`run_once`] does, so
/// every lane's values are bit-identical to its solo oracle.
fn run_lanes(
    graph: &Graph,
    requests: &[&Request],
    deadlines: [Option<Duration>; ipregel::MAX_LANES],
    engine_deadline: Option<Duration>,
) -> Result<(Vec<Option<RequestOutput>>, RunTotals), RunError> {
    let proto = requests[0];
    let config = RunConfig {
        threads: None,
        schedule: proto.schedule,
        deadline: engine_deadline,
        ..RunConfig::default()
    };
    let version = Version { combiner: proto.combiner, selection_bypass: proto.bypass };
    let k = requests.len();
    match proto.algorithm {
        Algorithm::Sssp { .. } | Algorithm::Bfs { .. } => {
            let sources: Vec<VertexId> = requests
                .iter()
                .map(|r| match r.algorithm {
                    Algorithm::Sssp { source } | Algorithm::Bfs { source } => source,
                    _ => unreachable!("batch key admits one family per group"),
                })
                .collect();
            let program = MultiHops::with_deadlines(&sources, deadlines);
            let out = try_run(graph, &program, version, &config)?;
            Ok((collect_u32_lanes(&out, program.tracker()), (&out.stats).into()))
        }
        Algorithm::Components => {
            let program = MultiHashmin::with_deadlines(k, deadlines);
            let out = try_run(graph, &program, version, &config)?;
            Ok((collect_u32_lanes(&out, program.tracker()), (&out.stats).into()))
        }
        Algorithm::PageRank { rounds, damping } => {
            let program = MultiRank::with_deadlines(&vec![None; k], damping, rounds, deadlines);
            let out = try_run(graph, &program, version, &config)?;
            let per_lane = collect_lanes(program.tracker(), |lane| {
                ResultValues::F64Bits(out.iter().map(|(id, v)| (id, v.at(lane).to_bits())).collect())
            });
            Ok((per_lane, (&out.stats).into()))
        }
    }
}

/// Fan a striped run out into per-lane [`RequestOutput`]s (`None` = the
/// lane expired on its own deadline); `values` extracts one lane.
fn collect_lanes(
    tracker: &LaneTracker,
    values: impl Fn(usize) -> ResultValues,
) -> Vec<Option<RequestOutput>> {
    let expired = tracker.expired_mask();
    (0..tracker.lanes())
        .map(|lane| {
            (expired & (1 << lane) == 0).then(|| RequestOutput {
                values: values(lane),
                supersteps: tracker.lane_supersteps(lane) as usize,
                messages: tracker.lane_messages(lane),
            })
        })
        .collect()
}

/// [`collect_lanes`] over a `u32` stripe.
fn collect_u32_lanes(
    out: &ipregel::RunOutput<Lanes<u32>>,
    tracker: &LaneTracker,
) -> Vec<Option<RequestOutput>> {
    collect_lanes(tracker, |lane| {
        ResultValues::U32(out.iter().map(|(id, v)| (id, v.at(lane))).collect())
    })
}

/// One engine attempt, with its run's totals. `threads: None` runs on the
/// current pool: a server worker's own pool, whose thread is the
/// orchestrator, so the attempt's chunks never leave it; results stay bit-identical to the
/// isolated oracle's (chunk-order-deterministic reductions do not care
/// which worker ran which chunk, only how many threads planned them).
fn run_once(
    graph: &Graph,
    request: &Request,
    deadline: Option<Duration>,
) -> Result<(RequestOutput, RunTotals), RunError> {
    let config = RunConfig {
        threads: None,
        schedule: request.schedule,
        deadline,
        ..RunConfig::default()
    };
    let version = Version { combiner: request.combiner, selection_bypass: request.bypass };
    let u32s = |out: ipregel::RunOutput<u32>| {
        solo_output(ResultValues::U32(out.iter().map(|(id, &v)| (id, v)).collect()), &out.stats)
    };
    match request.algorithm {
        Algorithm::Sssp { source } => try_run(graph, &Sssp { source }, version, &config).map(u32s),
        Algorithm::Bfs { source } => try_run(graph, &Bfs { source }, version, &config).map(u32s),
        Algorithm::Components => try_run(graph, &Hashmin, version, &config).map(u32s),
        Algorithm::PageRank { rounds, damping } => {
            try_run(graph, &PageRank { rounds, damping }, version, &config).map(|out| {
                let bits = out.iter().map(|(id, &v)| (id, v.to_bits())).collect();
                solo_output(ResultValues::F64Bits(bits), &out.stats)
            })
        }
    }
}

/// A solo run's result: its values plus the run's own totals.
fn solo_output(values: ResultValues, stats: &ipregel::RunStats) -> (RequestOutput, RunTotals) {
    let output =
        RequestOutput { values, supersteps: stats.num_supersteps(), messages: stats.total_messages() };
    (output, stats.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pools_split_the_threads_evenly_and_never_go_empty() {
        // (threads, workers) → threads per worker pool: an even share,
        // fewer threads than workers still gives each worker one, and
        // a remainder thread is left unowned rather than given to one.
        for (threads, workers, want) in [(1, 2, 1), (2, 2, 1), (2, 1, 2), (3, 2, 1), (4, 2, 2)] {
            assert_eq!(
                worker_pool_threads(threads, workers),
                want,
                "{threads} threads over {workers} workers"
            );
        }
    }
}
