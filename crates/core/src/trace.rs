//! Structured superstep tracing: typed events, one ordered log, and two
//! sinks (versioned JSONL, Prometheus text).
//!
//! The paper's evaluation (§7) is entirely about *where time and memory
//! go* — per-superstep runtime, combiner contention, footprint. Those
//! facts have one record, the run's [`RunStats`](crate::RunStats), and the trace is a
//! sink of it. The engines thread an optional [`Tracer`] through
//! [`crate::RunConfig`] and report through [`emit_sync`] and
//! [`render_superstep`]; with no tracer attached each hook is one branch
//! and no event is built.
//!
//! # Collection model
//!
//! Every event is recorded by an orchestrating thread, in program order,
//! into one locked log. Workers record nothing: a chunk's timing, worker
//! and contention delta travel back to the orchestrator in the chunk's
//! tally and land in the superstep's [`SuperstepStats`] entry. Once the
//! entry is complete, [`render_superstep`] renders it as the superstep's
//! span, `superstep_begin, chunk*, [rss], pool, superstep_end`, where the
//! optional `rss` is the barrier's periodic resident-set sample. A
//! superstep torn by a panic or a deadline closes no entry and leaves no
//! span, so the trace holds exactly the supersteps the stats hold. A
//! [`Tracer`] is user-visible through `RunConfig` and may legally be
//! shared across concurrent runs; the lock keeps each event, and each
//! span, whole.
//!
//! # Wire format
//!
//! One JSON object per line; the first line is a meta header pinning
//! [`SCHEMA_VERSION`]. Field names and order are part of the schema and
//! pinned by `tests/trace_schema.rs` against a committed fixture. The
//! codec is hand-rolled (std-only) so it works in dependency-free
//! builds and tools.

use std::time::Duration;

use crate::json::{parse_flat_object, Value};
use crate::metrics::{LoadStats, RunTotals, SuperstepStats};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::lockorder::{classes, OrderedMutex};
use contention::ContentionSnapshot;

/// Version of the JSONL trace schema. Bump when an event gains, loses,
/// or reorders a field; `tests/trace_schema.rs` pins the byte-level
/// encoding of the current version. History:
///
/// - **1** — initial schema (PR 4).
/// - **2** — `chunk` gains a trailing `worker` field (which pool worker
///   executed the chunk — under work-stealing this is no longer implied
///   by the chunk index), and the `pool` event reports per-superstep
///   steal/overflow counters.
/// - **3** — the resident server (PR 8) adds `server_request` (one
///   terminal record per submitted request: queue wait, run time,
///   attempts, outcome) and `server_queue_depth` (admission-time depth
///   samples). Purely additive.
/// - **4** — K-lane batching (PR 9): `server_request` gains `lane`
///   (position inside the batch the request ran in) and `lanes` (batch
///   width; 1 = ran solo, 0 = shed before any lane was assigned).
/// - **5** — the out-of-core simulator is retired: the `io` event and
///   the `ooc` engine name are gone. Nothing else changed.
/// - **6** — `chunk` loses `cas_retries`: only the lock-free mailbox
///   counted them, and no engine version runs it. Nothing else changed.
///
/// The decoder reads version 6 only: every writer emits it, and a header
/// declaring any other version, 5 included, gets the typed "unsupported
/// trace schema" error.
pub const SCHEMA_VERSION: u32 = 6;

/// Which engine produced a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The parallel push-combining engine.
    Push,
    /// The parallel pull-combining (broadcast) engine.
    Pull,
    /// The sequential oracle.
    Seq,
}

impl EngineKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Push => "push",
            EngineKind::Pull => "pull",
            EngineKind::Seq => "seq",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "push" => Some(EngineKind::Push),
            "pull" => Some(EngineKind::Pull),
            "seq" => Some(EngineKind::Seq),
            _ => None,
        }
    }
}

/// How a server request terminated (wire enum for
/// [`TraceEvent::ServerRequest`]). Exactly one terminal outcome is
/// recorded per submission — the reconciliation invariant the server
/// tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerOutcome {
    /// Completed and delivered a result.
    Ok,
    /// Shed at admission: the bounded queue was full.
    ShedQueueFull,
    /// Shed at admission: the server was shutting down.
    ShedShutdown,
    /// The engine's cooperative deadline fired (or the budget was
    /// already exhausted before an attempt could start).
    Deadline,
    /// The watchdog reaped a request whose engine never yielded.
    Reaped,
    /// Every retry attempt panicked; the failure was contained.
    Panicked,
}

impl ServerOutcome {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ServerOutcome::Ok => "ok",
            ServerOutcome::ShedQueueFull => "shed_queue_full",
            ServerOutcome::ShedShutdown => "shed_shutdown",
            ServerOutcome::Deadline => "deadline",
            ServerOutcome::Reaped => "reaped",
            ServerOutcome::Panicked => "panicked",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(ServerOutcome::Ok),
            "shed_queue_full" => Some(ServerOutcome::ShedQueueFull),
            "shed_shutdown" => Some(ServerOutcome::ShedShutdown),
            "deadline" => Some(ServerOutcome::Deadline),
            "reaped" => Some(ServerOutcome::Reaped),
            "panicked" => Some(ServerOutcome::Panicked),
            _ => None,
        }
    }
}

/// A typed observation. Variant and field declaration order define the
/// JSONL field order (schema version [`SCHEMA_VERSION`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A run started.
    RunBegin {
        /// Which engine.
        engine: EngineKind,
        /// Slot count of the graph (desolate slots included).
        slots: u64,
        /// Worker threads in the pool (1 for seq).
        threads: u64,
    },
    /// A superstep's parallel region is about to start.
    SuperstepBegin {
        /// Superstep number, 0-based.
        superstep: u64,
    },
    /// One scheduled chunk finished: planned weight vs measured cost,
    /// plus the mailbox contention the worker saw while running it.
    Chunk {
        /// Superstep the chunk ran in.
        superstep: u64,
        /// Index of the chunk within the superstep's plan.
        chunk: u64,
        /// Weight the scheduler assigned to the chunk (degree + 1 per
        /// vertex; the wire key keeps its schema-1 name, from when it
        /// carried raw edge counts).
        planned_edges: u64,
        /// Measured wall-clock of the chunk body.
        duration_ns: u64,
        /// Mailbox lock acquisitions during the chunk (mutex + spin).
        lock_acquisitions: u64,
        /// Spinlock busy-wait iterations during the chunk.
        spin_iterations: u64,
        /// Pool worker index the chunk body ran on. This is
        /// timing-dependent (any worker may run any chunk), so it is
        /// recorded rather than inferred. 0 for the sequential
        /// engine.
        worker: u64,
    },
    /// Pool scheduling counters for one superstep's parallel
    /// region: the delta of the pool's cumulative counters across the
    /// region (see `ipregel_par::current_pool_stats`).
    Pool {
        /// Superstep the region belonged to.
        superstep: u64,
        /// Jobs run by a worker other than the one that queued them.
        steals: u64,
        /// Jobs queued from off the pool.
        overflow: u64,
    },
    /// A superstep completed (mirror of [`crate::SuperstepStats`]).
    SuperstepEnd {
        /// Superstep number, 0-based.
        superstep: u64,
        /// Vertices that ran.
        active: u64,
        /// Messages sent.
        messages: u64,
        /// Wall-clock of the whole superstep.
        duration_ns: u64,
        /// Time spent selecting the next active set.
        selection_ns: u64,
        /// Chunks the superstep was cut into.
        chunks: u64,
    },
    /// The selection bypass drained the worklist (sparse path).
    WorklistDrain {
        /// Superstep whose selection this was.
        superstep: u64,
        /// Entries queued before the drain (duplicates included).
        queued: u64,
        /// Entries in the drained, deduplicated active list.
        drained: u64,
    },
    /// A checkpoint was written at a barrier.
    CheckpointSave {
        /// Superstep whose barrier state was saved.
        superstep: u64,
        /// Wall-clock of encode + write + rename.
        duration_ns: u64,
    },
    /// A checkpoint was read back during resume.
    CheckpointRestore {
        /// Superstep the snapshot resumes from.
        superstep: u64,
        /// Wall-clock of read + decode + verify.
        duration_ns: u64,
    },
    /// A periodic resident-set sample (see [`Tracer::set_rss_sampler`]).
    Rss {
        /// Superstep at whose barrier the sample was taken.
        superstep: u64,
        /// Resident set size in bytes.
        bytes: u64,
    },
    /// Terminal record of one server request's lifetime (schema 3+):
    /// emitted exactly once per submission, by whichever of admission
    /// (shed), worker (completed/failed), or watchdog (reaped) settled
    /// it.
    ServerRequest {
        /// Server-assigned request id (admission order).
        id: u64,
        /// Time spent queued before a worker picked the request up
        /// (0 for requests shed at admission).
        queue_ns: u64,
        /// Time from first pickup to settlement, retries included
        /// (0 for requests shed at admission).
        run_ns: u64,
        /// Engine attempts made (0 for shed requests).
        attempts: u64,
        /// Lane index this request occupied inside its batch (schema
        /// 4+; 0 for solo/shed requests and in pre-4 files).
        lane: u64,
        /// Width of the batch the request ran in (schema 4+; 1 = ran
        /// solo, 0 = shed before lane assignment or a pre-4 file).
        lanes: u64,
        /// How the request terminated.
        outcome: ServerOutcome,
    },
    /// Admission-time sample of the server queue depth (schema 3+): one
    /// per submission attempt, depth measured after the admission
    /// decision.
    ServerQueueDepth {
        /// Monotone sample sequence number (= submission attempt count).
        seq: u64,
        /// Requests sitting in the admission queue.
        depth: u64,
    },
    /// A run finished (totals mirror [`crate::RunStats`]).
    RunEnd {
        /// Supersteps executed.
        supersteps: u64,
        /// Total messages sent.
        messages: u64,
        /// Total wall-clock across supersteps.
        duration_ns: u64,
    },
}

impl TraceEvent {
    /// Stable wire name of the variant.
    pub fn type_name(&self) -> &'static str {
        match self {
            TraceEvent::RunBegin { .. } => "run_begin",
            TraceEvent::SuperstepBegin { .. } => "superstep_begin",
            TraceEvent::Chunk { .. } => "chunk",
            TraceEvent::Pool { .. } => "pool",
            TraceEvent::SuperstepEnd { .. } => "superstep_end",
            TraceEvent::WorklistDrain { .. } => "worklist_drain",
            TraceEvent::CheckpointSave { .. } => "checkpoint_save",
            TraceEvent::CheckpointRestore { .. } => "checkpoint_restore",
            TraceEvent::Rss { .. } => "rss",
            TraceEvent::ServerRequest { .. } => "server_request",
            TraceEvent::ServerQueueDepth { .. } => "server_queue_depth",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }
}

/// Saturating nanosecond conversion for wire durations.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

/// Collects [`TraceEvent`]s from orchestrating threads.
///
/// Constructed by the caller (usually the CLI), shared with the engine
/// through [`crate::RunConfig::trace`] as an `Arc`, and drained with
/// [`Tracer::take_events`] after the run. All methods are safe under
/// arbitrary sharing: the log is one lock, so concurrent runs recording
/// into one tracer interleave whole events and whole superstep spans.
pub struct Tracer {
    log: OrderedMutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
    rss_sampler: Option<fn() -> Option<u64>>,
    rss_every: usize,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("rss_every", &self.rss_every).finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer with RSS sampling off.
    pub fn new() -> Self {
        Tracer {
            log: OrderedMutex::new(&classes::TRACER_LOG, Vec::new()),
            dropped: AtomicU64::new(0),
            rss_sampler: None,
            rss_every: 0,
        }
    }

    /// Install a resident-set sampler called every `every` supersteps at
    /// the barrier (0 disables sampling). The tracer takes a plain `fn`
    /// so `crates/core` needs no dependency on the crate that knows how
    /// to read RSS (`ipregel-mem` depends on us, not vice versa).
    pub fn set_rss_sampler(&mut self, sampler: fn() -> Option<u64>, every: usize) {
        self.rss_sampler = Some(sampler);
        self.rss_every = every;
    }

    /// Record one event into the log, preserving program order.
    pub fn record_sync(&self, event: TraceEvent) {
        self.record_all(std::slice::from_ref(&event));
    }

    /// Record `events` into the log under one lock, so they stay
    /// contiguous however many runs share the tracer.
    fn record_all(&self, events: &[TraceEvent]) {
        // lock-order(tracer.log)
        match self.log.lock() {
            Ok(mut log) => log.extend_from_slice(events),
            Err(_) => {
                // ordering(Relaxed): monotone drop counter, read only
                // after the run quiesces
                self.dropped.fetch_add(events.len() as u64, Ordering::Relaxed);
            }
        }
    }

    /// The periodic RSS sample due at `superstep`'s barrier, if any.
    fn rss_sample(&self, superstep: usize) -> Option<TraceEvent> {
        let sampler = self.rss_sampler.filter(|_| self.rss_every > 0)?;
        if !superstep.is_multiple_of(self.rss_every) {
            return None;
        }
        sampler().map(|bytes| TraceEvent::Rss { superstep: superstep as u64, bytes })
    }

    /// Drain everything collected so far, in log order. The tracer is
    /// reusable afterwards.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        // lock-order(tracer.log)
        match self.log.lock() {
            Ok(mut log) => std::mem::take(&mut *log),
            Err(_) => Vec::new(),
        }
    }

    /// Events discarded because the log's lock was poisoned.
    pub fn dropped_events(&self) -> u64 {
        // ordering(Relaxed): monotone counter; callers read post-run
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Record an event iff a tracer is attached, into the log in program
/// order via [`Tracer::record_sync`]. The closure runs only then, so a
/// hook site with no tracer pays one branch and builds nothing.
#[inline(always)]
pub fn emit_sync(tracer: Option<&Tracer>, make: impl FnOnce() -> TraceEvent) {
    if let Some(t) = tracer {
        t.record_sync(make());
    }
}

/// Record a closed superstep's span, rendered from its stats entry:
/// `superstep_begin`, one `chunk` per planned chunk (its weight, duration,
/// contention and worker from the entry's [`LoadStats`]), the barrier's
/// periodic RSS sample, `pool`, then `superstep_end`. The parallel driver
/// and the sequential oracle call it once per superstep, after the entry
/// is complete. The span enters the log under one lock.
pub fn render_superstep(tracer: Option<&Tracer>, entry: &SuperstepStats) {
    let Some(t) = tracer else { return };
    let superstep = entry.superstep as u64;
    let no_load = LoadStats::default();
    let load = entry.load.as_ref().unwrap_or(&no_load);
    let mut span = Vec::with_capacity(load.num_chunks() + 4);
    span.push(TraceEvent::SuperstepBegin { superstep });
    for (ci, &planned_edges) in load.chunk_edges.iter().enumerate() {
        let c = load.chunk_contention.get(ci).copied().unwrap_or_default();
        span.push(TraceEvent::Chunk {
            superstep,
            chunk: ci as u64,
            planned_edges,
            duration_ns: load.chunk_durations.get(ci).map_or(0, |&d| ns(d)),
            lock_acquisitions: c.lock_acquisitions,
            spin_iterations: c.spin_iterations,
            worker: load.chunk_workers.get(ci).copied().unwrap_or(0),
        });
    }
    span.extend(t.rss_sample(entry.superstep));
    span.push(TraceEvent::Pool { superstep, steals: load.steals, overflow: load.overflow });
    span.push(TraceEvent::SuperstepEnd {
        superstep,
        // Executed vertices, not checked ones: the pull scan's
        // unfruitful checks are time, not activity.
        active: entry.active,
        messages: entry.messages_sent,
        duration_ns: ns(entry.duration),
        selection_ns: ns(entry.selection_duration),
        chunks: load.num_chunks() as u64,
    });
    t.record_all(&span);
}

// ---------------------------------------------------------------------------
// Contention counters
// ---------------------------------------------------------------------------

/// Thread-local mailbox contention counters.
///
/// The mailboxes call the `note_*` functions from their hot paths, each a
/// thread-local `Cell` add (a spinlock counts its spins only when it had
/// to wait). Workers take a [`contention::snapshot`] before and after a
/// chunk body and hand the delta back in the chunk's tally, for the
/// superstep's [`crate::metrics::LoadStats::chunk_contention`]. Per-thread
/// counters mean concurrent runs in one process never cross-contaminate:
/// each worker only ever reads its own deltas.
pub mod contention {
    use std::cell::Cell;

    /// Point-in-time values of the calling thread's counters, or the
    /// increments between two of them.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct ContentionSnapshot {
        /// Mailbox lock acquisitions (mutex slot locks + spinlock locks).
        pub lock_acquisitions: u64,
        /// Spinlock busy-wait loop iterations.
        pub spin_iterations: u64,
    }

    crate::impl_to_json!(ContentionSnapshot { lock_acquisitions, spin_iterations });

    impl ContentionSnapshot {
        /// Counter increments between `earlier` and `self` (wrapping).
        pub fn delta_since(&self, earlier: &ContentionSnapshot) -> ContentionSnapshot {
            ContentionSnapshot {
                lock_acquisitions: self.lock_acquisitions.wrapping_sub(earlier.lock_acquisitions),
                spin_iterations: self.spin_iterations.wrapping_sub(earlier.spin_iterations),
            }
        }
    }

    thread_local! {
        static LOCK_ACQUISITIONS: Cell<u64> = const { Cell::new(0) };
        static SPIN_ITERATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Count one mailbox lock acquisition on this thread.
    #[inline(always)]
    pub fn note_lock_acquisition() {
        LOCK_ACQUISITIONS.with(|c| c.set(c.get().wrapping_add(1)));
    }

    /// Count `n` spinlock busy-wait iterations on this thread.
    #[inline(always)]
    pub fn note_spin_iterations(n: u64) {
        SPIN_ITERATIONS.with(|c| c.set(c.get().wrapping_add(n)));
    }

    /// Current values of this thread's counters.
    pub fn snapshot() -> ContentionSnapshot {
        ContentionSnapshot {
            lock_acquisitions: LOCK_ACQUISITIONS.with(Cell::get),
            spin_iterations: SPIN_ITERATIONS.with(Cell::get),
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL codec
// ---------------------------------------------------------------------------

/// The meta header line opening every trace file.
pub fn encode_meta() -> String {
    format!("{{\"type\":\"meta\",\"schema\":{SCHEMA_VERSION}}}")
}

/// Encode one event as a single JSON line (no trailing newline). Field
/// order follows the variant's declaration order, `type` first.
pub fn encode_event(e: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"type\":\"");
    s.push_str(e.type_name());
    s.push('"');
    let num = |s: &mut String, k: &str, v: u64| {
        s.push_str(",\"");
        s.push_str(k);
        s.push_str("\":");
        s.push_str(&v.to_string());
    };
    match *e {
        TraceEvent::RunBegin { engine, slots, threads } => {
            s.push_str(",\"engine\":\"");
            s.push_str(engine.as_str());
            s.push('"');
            num(&mut s, "slots", slots);
            num(&mut s, "threads", threads);
        }
        TraceEvent::SuperstepBegin { superstep } => {
            num(&mut s, "superstep", superstep);
        }
        TraceEvent::Chunk {
            superstep,
            chunk,
            planned_edges,
            duration_ns,
            lock_acquisitions,
            spin_iterations,
            worker,
        } => {
            num(&mut s, "superstep", superstep);
            num(&mut s, "chunk", chunk);
            num(&mut s, "planned_edges", planned_edges);
            num(&mut s, "duration_ns", duration_ns);
            num(&mut s, "lock_acquisitions", lock_acquisitions);
            num(&mut s, "spin_iterations", spin_iterations);
            num(&mut s, "worker", worker);
        }
        TraceEvent::Pool { superstep, steals, overflow } => {
            num(&mut s, "superstep", superstep);
            num(&mut s, "steals", steals);
            num(&mut s, "overflow", overflow);
        }
        TraceEvent::SuperstepEnd {
            superstep,
            active,
            messages,
            duration_ns,
            selection_ns,
            chunks,
        } => {
            num(&mut s, "superstep", superstep);
            num(&mut s, "active", active);
            num(&mut s, "messages", messages);
            num(&mut s, "duration_ns", duration_ns);
            num(&mut s, "selection_ns", selection_ns);
            num(&mut s, "chunks", chunks);
        }
        TraceEvent::WorklistDrain { superstep, queued, drained } => {
            num(&mut s, "superstep", superstep);
            num(&mut s, "queued", queued);
            num(&mut s, "drained", drained);
        }
        TraceEvent::CheckpointSave { superstep, duration_ns } => {
            num(&mut s, "superstep", superstep);
            num(&mut s, "duration_ns", duration_ns);
        }
        TraceEvent::CheckpointRestore { superstep, duration_ns } => {
            num(&mut s, "superstep", superstep);
            num(&mut s, "duration_ns", duration_ns);
        }
        TraceEvent::Rss { superstep, bytes } => {
            num(&mut s, "superstep", superstep);
            num(&mut s, "bytes", bytes);
        }
        TraceEvent::ServerRequest { id, queue_ns, run_ns, attempts, lane, lanes, outcome } => {
            num(&mut s, "id", id);
            num(&mut s, "queue_ns", queue_ns);
            num(&mut s, "run_ns", run_ns);
            num(&mut s, "attempts", attempts);
            num(&mut s, "lane", lane);
            num(&mut s, "lanes", lanes);
            s.push_str(",\"outcome\":\"");
            s.push_str(outcome.as_str());
            s.push('"');
        }
        TraceEvent::ServerQueueDepth { seq, depth } => {
            num(&mut s, "seq", seq);
            num(&mut s, "depth", depth);
        }
        TraceEvent::RunEnd { supersteps, messages, duration_ns } => {
            num(&mut s, "supersteps", supersteps);
            num(&mut s, "messages", messages);
            num(&mut s, "duration_ns", duration_ns);
        }
    }
    s.push('}');
    s
}

/// Encode a whole trace: meta header plus one line per event, trailing
/// newline included.
pub fn encode_trace(events: &[TraceEvent]) -> String {
    let mut out = encode_meta();
    out.push('\n');
    for e in events {
        out.push_str(&encode_event(e));
        out.push('\n');
    }
    out
}

/// Typed access to one decoded trace line (every value is a string or
/// an unsigned integer).
struct Fields<'a> {
    line: &'a str,
    fields: Vec<(String, Value)>,
}

impl Fields<'_> {
    fn num(&self, key: &str) -> Result<u64, String> {
        match self.fields.iter().find(|(k, _)| k == key) {
            Some((_, Value::Int(n))) => Ok(*n),
            Some(_) => Err(format!("field {key:?} is not an unsigned integer in {:?}", self.line)),
            None => Err(format!("missing field {key:?} in {:?}", self.line)),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.fields.iter().find(|(k, _)| k == key) {
            Some((_, Value::Str(s))) => Ok(s),
            Some(_) => Err(format!("field {key:?} is not a string in {:?}", self.line)),
            None => Err(format!("missing field {key:?} in {:?}", self.line)),
        }
    }
}

/// Decode one trace line. `Ok(None)` means the line was a meta header
/// (validated against [`SCHEMA_VERSION`]).
pub fn decode_line(line: &str) -> Result<Option<TraceEvent>, String> {
    let fields = parse_flat_object(line).map_err(|e| format!("{e} in {line:?}"))?;
    let f = Fields { line, fields };
    let ty = f.str("type")?;
    let e = match ty {
        "meta" => {
            let declared = f.num("schema")?;
            if declared != u64::from(SCHEMA_VERSION) {
                return Err(format!(
                    "unsupported trace schema {declared} (this build reads {SCHEMA_VERSION})"
                ));
            }
            return Ok(None);
        }
        "run_begin" => TraceEvent::RunBegin {
            engine: EngineKind::parse(f.str("engine")?)
                .ok_or_else(|| format!("unknown engine in {line:?}"))?,
            slots: f.num("slots")?,
            threads: f.num("threads")?,
        },
        "superstep_begin" => TraceEvent::SuperstepBegin { superstep: f.num("superstep")? },
        "chunk" => TraceEvent::Chunk {
            superstep: f.num("superstep")?,
            chunk: f.num("chunk")?,
            planned_edges: f.num("planned_edges")?,
            duration_ns: f.num("duration_ns")?,
            lock_acquisitions: f.num("lock_acquisitions")?,
            spin_iterations: f.num("spin_iterations")?,
            worker: f.num("worker")?,
        },
        "pool" => TraceEvent::Pool {
            superstep: f.num("superstep")?,
            steals: f.num("steals")?,
            overflow: f.num("overflow")?,
        },
        "superstep_end" => TraceEvent::SuperstepEnd {
            superstep: f.num("superstep")?,
            active: f.num("active")?,
            messages: f.num("messages")?,
            duration_ns: f.num("duration_ns")?,
            selection_ns: f.num("selection_ns")?,
            chunks: f.num("chunks")?,
        },
        "worklist_drain" => TraceEvent::WorklistDrain {
            superstep: f.num("superstep")?,
            queued: f.num("queued")?,
            drained: f.num("drained")?,
        },
        "checkpoint_save" => TraceEvent::CheckpointSave {
            superstep: f.num("superstep")?,
            duration_ns: f.num("duration_ns")?,
        },
        "checkpoint_restore" => TraceEvent::CheckpointRestore {
            superstep: f.num("superstep")?,
            duration_ns: f.num("duration_ns")?,
        },
        "rss" => TraceEvent::Rss { superstep: f.num("superstep")?, bytes: f.num("bytes")? },
        "server_request" => TraceEvent::ServerRequest {
            id: f.num("id")?,
            queue_ns: f.num("queue_ns")?,
            run_ns: f.num("run_ns")?,
            attempts: f.num("attempts")?,
            lane: f.num("lane")?,
            lanes: f.num("lanes")?,
            outcome: ServerOutcome::parse(f.str("outcome")?)
                .ok_or_else(|| format!("unknown server outcome in {line:?}"))?,
        },
        "server_queue_depth" => {
            TraceEvent::ServerQueueDepth { seq: f.num("seq")?, depth: f.num("depth")? }
        }
        "run_end" => TraceEvent::RunEnd {
            supersteps: f.num("supersteps")?,
            messages: f.num("messages")?,
            duration_ns: f.num("duration_ns")?,
        },
        other => return Err(format!("unknown event type {other:?} in {line:?}")),
    };
    Ok(Some(e))
}

/// Decode a whole trace file. The first non-empty line must be a meta
/// header declaring [`SCHEMA_VERSION`].
pub fn decode_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    let mut meta = false;
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        match decode_line(line)? {
            None => meta = true,
            Some(_) if !meta => {
                return Err("trace does not start with a meta header line".to_string())
            }
            Some(e) => events.push(e),
        }
    }
    if !meta {
        return Err("trace has no meta header line".to_string());
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Prometheus text sink
// ---------------------------------------------------------------------------

/// Render a Prometheus text-format snapshot of a trace and the runs it
/// came from: totals as counters, the latest RSS sample as a gauge.
/// Deterministic metric order; durations in (float) seconds per
/// Prometheus convention. The superstep, message, run-time, chunk,
/// contention and pool counters are `runs`, the sums of the record those
/// facts are kept in, and read zero when nothing was folded in; every
/// other counter folds the events.
pub fn render_prometheus(events: &[TraceEvent], dropped: u64, runs: &RunTotals) -> String {
    let RunTotals {
        supersteps,
        messages,
        run_ns,
        chunks,
        chunk_ns,
        contention,
        pool_steals,
        pool_overflow,
    } = *runs;
    let ContentionSnapshot { lock_acquisitions: locks, spin_iterations: spins } = contention;
    let mut worklist_drained = 0u64;
    let mut ckpt_saves = 0u64;
    let mut ckpt_save_ns = 0u64;
    let mut ckpt_restores = 0u64;
    let mut ckpt_restore_ns = 0u64;
    let mut srv_requests = [0u64; 6];
    let mut srv_attempts = 0u64;
    let mut srv_queue_ns = 0u64;
    let mut srv_run_ns = 0u64;
    let mut srv_max_depth = 0u64;
    let mut last_rss: Option<u64> = None;
    for e in events {
        match *e {
            TraceEvent::WorklistDrain { drained, .. } => worklist_drained += drained,
            TraceEvent::CheckpointSave { duration_ns, .. } => {
                ckpt_saves += 1;
                ckpt_save_ns += duration_ns;
            }
            TraceEvent::CheckpointRestore { duration_ns, .. } => {
                ckpt_restores += 1;
                ckpt_restore_ns += duration_ns;
            }
            TraceEvent::Rss { bytes, .. } => last_rss = Some(bytes),
            TraceEvent::ServerRequest { queue_ns, run_ns, attempts, outcome, .. } => {
                srv_requests[outcome as usize] += 1;
                srv_attempts += attempts;
                srv_queue_ns += queue_ns;
                srv_run_ns += run_ns;
            }
            TraceEvent::ServerQueueDepth { depth, .. } => {
                srv_max_depth = srv_max_depth.max(depth);
            }
            TraceEvent::RunBegin { .. }
            | TraceEvent::SuperstepBegin { .. }
            | TraceEvent::Chunk { .. }
            | TraceEvent::Pool { .. }
            | TraceEvent::SuperstepEnd { .. }
            | TraceEvent::RunEnd { .. } => {}
        }
    }
    let secs = |ns: u64| (ns as f64 / 1e9).to_string();
    let n = |v: u64| v.to_string();
    let mut out = String::new();
    let counters = |out: &mut String, list: &[(&str, &str, String)]| {
        for (name, help, value) in list {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
        }
    };
    counters(
        &mut out,
        &[
            ("ipregel_supersteps_total", "Supersteps completed.", n(supersteps)),
            ("ipregel_messages_total", "Messages sent.", n(messages)),
            ("ipregel_run_seconds_total", "Superstep wall-clock.", secs(run_ns)),
            ("ipregel_chunks_total", "Scheduled chunks executed.", n(chunks)),
            ("ipregel_chunk_seconds_total", "Chunk body wall-clock.", secs(chunk_ns)),
            ("ipregel_mailbox_lock_acquisitions_total", "Mailbox lock acquisitions.", n(locks)),
            ("ipregel_mailbox_spin_iterations_total", "Spinlock busy-wait iterations.", n(spins)),
            (
                "ipregel_worklist_drained_total",
                "Vertices drained through the selection bypass.",
                n(worklist_drained),
            ),
            ("ipregel_checkpoint_saves_total", "Checkpoints written.", n(ckpt_saves)),
            (
                "ipregel_checkpoint_save_seconds_total",
                "Checkpoint write wall-clock.",
                secs(ckpt_save_ns),
            ),
            ("ipregel_checkpoint_restores_total", "Checkpoints restored.", n(ckpt_restores)),
            (
                "ipregel_checkpoint_restore_seconds_total",
                "Checkpoint restore wall-clock.",
                secs(ckpt_restore_ns),
            ),
            (
                "ipregel_pool_steals_total",
                "Jobs run by a worker other than the one that queued them.",
                n(pool_steals),
            ),
            ("ipregel_pool_overflow_total", "Jobs queued from off the pool.", n(pool_overflow)),
        ],
    );
    // Server request metrics (schema 3+): one labelled series per
    // terminal outcome, in ServerOutcome declaration order.
    const OUTCOMES: [ServerOutcome; 6] = [
        ServerOutcome::Ok,
        ServerOutcome::ShedQueueFull,
        ServerOutcome::ShedShutdown,
        ServerOutcome::Deadline,
        ServerOutcome::Reaped,
        ServerOutcome::Panicked,
    ];
    out.push_str(
        "# HELP ipregel_server_requests_total Server requests by terminal outcome.\n\
         # TYPE ipregel_server_requests_total counter\n",
    );
    for o in OUTCOMES {
        out.push_str(&format!(
            "ipregel_server_requests_total{{outcome=\"{}\"}} {}\n",
            o.as_str(),
            srv_requests[o as usize]
        ));
    }
    counters(
        &mut out,
        &[
            (
                "ipregel_server_attempts_total",
                "Server engine attempts (retries included).",
                n(srv_attempts),
            ),
            (
                "ipregel_server_queue_seconds_total",
                "Time requests spent queued.",
                secs(srv_queue_ns),
            ),
            (
                "ipregel_server_run_seconds_total",
                "Time requests spent running (retries included).",
                secs(srv_run_ns),
            ),
        ],
    );
    out.push_str(&format!(
        "# HELP ipregel_server_queue_depth_max Deepest admission queue observed.\n\
         # TYPE ipregel_server_queue_depth_max gauge\n\
         ipregel_server_queue_depth_max {srv_max_depth}\n"
    ));
    counters(
        &mut out,
        &[("ipregel_trace_events_dropped_total", "Trace events dropped.", n(dropped))],
    );
    if let Some(rss) = last_rss {
        out.push_str(&format!(
            "# HELP ipregel_rss_bytes Last sampled resident set size.\n# TYPE ipregel_rss_bytes gauge\nipregel_rss_bytes {rss}\n"
        ));
    }
    out
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::metrics::RunStats;

    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunBegin { engine: EngineKind::Push, slots: 24, threads: 2 },
            TraceEvent::SuperstepBegin { superstep: 0 },
            TraceEvent::Chunk {
                superstep: 0,
                chunk: 1,
                planned_edges: 17,
                duration_ns: 1234,
                lock_acquisitions: 3,
                spin_iterations: 9,
                worker: 1,
            },
            TraceEvent::Pool { superstep: 0, steals: 2, overflow: 4 },
            TraceEvent::WorklistDrain { superstep: 0, queued: 7, drained: 5 },
            TraceEvent::SuperstepEnd {
                superstep: 0,
                active: 24,
                messages: 48,
                duration_ns: 5678,
                selection_ns: 90,
                chunks: 2,
            },
            TraceEvent::CheckpointSave { superstep: 0, duration_ns: 11 },
            TraceEvent::CheckpointRestore { superstep: 0, duration_ns: 22 },
            TraceEvent::Rss { superstep: 0, bytes: 1 << 20 },
            TraceEvent::ServerRequest {
                id: 7,
                queue_ns: 100,
                run_ns: 2000,
                attempts: 2,
                lane: 1,
                lanes: 4,
                outcome: ServerOutcome::Ok,
            },
            TraceEvent::ServerQueueDepth { seq: 8, depth: 3 },
            TraceEvent::RunEnd { supersteps: 1, messages: 48, duration_ns: 5678 },
        ]
    }

    #[test]
    fn codec_round_trips_every_variant() {
        let events = one_of_each();
        let text = encode_trace(&events);
        let back = decode_trace(&text).expect("decode");
        assert_eq!(back, events);
    }

    #[test]
    fn codec_round_trips_extreme_numbers() {
        let e = TraceEvent::Rss { superstep: u64::MAX, bytes: u64::MAX };
        let line = encode_event(&e);
        assert_eq!(decode_line(&line).unwrap(), Some(e));
    }

    #[test]
    fn decoder_rejects_malformed_input() {
        assert!(decode_trace("not json\n").is_err());
        assert!(
            decode_trace("{\"type\":\"rss\",\"superstep\":0,\"bytes\":1}\n").is_err(),
            "no meta"
        );
        assert!(decode_trace("{\"type\":\"meta\",\"schema\":999}\n").is_err(), "bad schema");
        let missing = format!("{}\n{{\"type\":\"rss\",\"superstep\":0}}\n", encode_meta());
        assert!(decode_trace(&missing).is_err(), "missing field");
        let unknown = format!("{}\n{{\"type\":\"wat\"}}\n", encode_meta());
        assert!(decode_trace(&unknown).is_err(), "unknown type");
    }

    #[test]
    fn meta_line_is_pinned() {
        assert_eq!(encode_meta(), "{\"type\":\"meta\",\"schema\":6}");
    }

    /// A two-chunk superstep entry with every per-chunk field distinct.
    fn entry(superstep: usize, messages_sent: u64) -> SuperstepStats {
        let snap = |lock_acquisitions, spin_iterations| contention::ContentionSnapshot {
            lock_acquisitions,
            spin_iterations,
        };
        SuperstepStats {
            superstep,
            active: 7,
            messages_sent,
            duration: Duration::from_millis(750),
            selection_duration: Duration::from_nanos(90),
            load: Some(LoadStats {
                chunk_edges: vec![17, 5],
                chunk_durations: vec![Duration::from_nanos(1234), Duration::from_nanos(56)],
                chunk_workers: vec![1, 0],
                chunk_contention: vec![snap(3, 9), snap(2, 4)],
                steals: 2,
                overflow: 4,
            }),
        }
    }

    #[test]
    fn a_superstep_renders_as_one_span_from_its_entry() {
        let mut t = Tracer::new();
        t.set_rss_sampler(|| Some(1 << 20), 3);
        for superstep in [3, 4] {
            render_superstep(Some(&t), &entry(superstep, 48));
        }
        render_superstep(None, &entry(5, 48));
        // Superstep 4 is off the sampler's cadence: no `rss`.
        let expected = r#"{"type":"meta","schema":6}
{"type":"superstep_begin","superstep":3}
{"type":"chunk","superstep":3,"chunk":0,"planned_edges":17,"duration_ns":1234,"lock_acquisitions":3,"spin_iterations":9,"worker":1}
{"type":"chunk","superstep":3,"chunk":1,"planned_edges":5,"duration_ns":56,"lock_acquisitions":2,"spin_iterations":4,"worker":0}
{"type":"rss","superstep":3,"bytes":1048576}
{"type":"pool","superstep":3,"steals":2,"overflow":4}
{"type":"superstep_end","superstep":3,"active":7,"messages":48,"duration_ns":750000000,"selection_ns":90,"chunks":2}
{"type":"superstep_begin","superstep":4}
{"type":"chunk","superstep":4,"chunk":0,"planned_edges":17,"duration_ns":1234,"lock_acquisitions":3,"spin_iterations":9,"worker":1}
{"type":"chunk","superstep":4,"chunk":1,"planned_edges":5,"duration_ns":56,"lock_acquisitions":2,"spin_iterations":4,"worker":0}
{"type":"pool","superstep":4,"steals":2,"overflow":4}
{"type":"superstep_end","superstep":4,"active":7,"messages":48,"duration_ns":750000000,"selection_ns":90,"chunks":2}
"#;
        assert_eq!(encode_trace(&t.take_events()), expected);
    }

    #[test]
    fn prometheus_snapshot_has_expected_totals() {
        // With no run stats, the counters kept in them read zero and
        // every other counter comes from the events.
        let text = render_prometheus(&one_of_each(), 3, &RunTotals::default());
        for zero in [
            "ipregel_supersteps_total",
            "ipregel_messages_total",
            "ipregel_run_seconds_total",
            "ipregel_chunks_total",
            "ipregel_mailbox_lock_acquisitions_total",
            "ipregel_pool_steals_total",
        ] {
            assert!(text.contains(&format!("{zero} 0\n")), "{zero}: {text}");
        }
        assert!(text.contains("ipregel_worklist_drained_total 5\n"));
        assert!(text.contains("ipregel_checkpoint_saves_total 1\n"));
        assert!(text.contains("ipregel_trace_events_dropped_total 3\n"));
        assert!(text.contains("ipregel_rss_bytes 1048576\n"));
        assert!(text.contains("ipregel_server_requests_total{outcome=\"ok\"} 1\n"));
        assert!(text.contains("ipregel_server_requests_total{outcome=\"reaped\"} 0\n"));
        assert!(text.contains("ipregel_server_attempts_total 2\n"));
        assert!(text.contains("ipregel_server_queue_depth_max 3\n"));
        // Two runs: the run counters are sums over both.
        let mut first = RunStats::default();
        first.push(entry(0, 4));
        first.push(entry(1, 5));
        let mut second = RunStats::default();
        second.push(entry(0, 6));
        let mut runs = RunTotals::from(&first);
        runs.add(&second);
        let text = render_prometheus(&one_of_each(), 3, &runs);
        for (name, value) in [
            ("ipregel_supersteps_total", "3"),
            ("ipregel_messages_total", "15"),
            ("ipregel_run_seconds_total", "2.25"),
            ("ipregel_chunks_total", "6"),
            ("ipregel_mailbox_lock_acquisitions_total", "15"),
            ("ipregel_mailbox_spin_iterations_total", "39"),
            ("ipregel_pool_steals_total", "6"),
            ("ipregel_pool_overflow_total", "12"),
            ("ipregel_worklist_drained_total", "5"),
        ] {
            assert!(text.contains(&format!("{name} {value}\n")), "{name}: {text}");
        }
        let chunk_s = format!("ipregel_chunk_seconds_total {}\n", 3.0 * 1290.0 / 1e9);
        assert!(text.contains(&chunk_s), "{text}");
    }

    #[test]
    fn emit_records_only_with_a_tracer_attached() {
        let t = Tracer::new();
        emit_sync(Some(&t), || TraceEvent::SuperstepBegin { superstep: 4 });
        emit_sync(None, || panic!("no tracer attached; closure must not run"));
        assert_eq!(t.take_events(), vec![TraceEvent::SuperstepBegin { superstep: 4 }]);
    }

    #[test]
    fn contention_counters_accumulate_per_thread() {
        let before = contention::snapshot();
        contention::note_lock_acquisition();
        contention::note_lock_acquisition();
        contention::note_spin_iterations(5);
        let delta = contention::snapshot().delta_since(&before);
        assert_eq!(delta.lock_acquisitions, 2);
        assert_eq!(delta.spin_iterations, 5);
    }
}
