//! The declared invariants every check enforces — one authority file.
//!
//! The tables here are what the rest of the workspace is linted
//! *against*; changing an invariant means changing it here first, in
//! one reviewable place. Cross-checks keep the tables honest: the lock
//! hierarchy is compared against the `LockClass::new` declarations in
//! the sources (drift in either direction fails), and stale unsafe
//! allowlist entries (files that no longer contain `unsafe`) fail too.

/// The global lock hierarchy, `(name, rank)`, low to high. A thread
/// must acquire in strictly increasing rank order; the runtime
/// `lock-order` detector enforces the same table dynamically (see
/// `crates/par/src/lockorder.rs`).
///
/// Rationale for the shape: pool-internal locks rank lowest (workers
/// hold them around scheduling, and everything else happens inside a
/// scheduled job); mailbox locks rank
/// highest of the engine-internal classes because a vertex program may
/// send — locking a mailbox — from inside any engine context; the
/// naive baseline's inbox queues sit above even those, as the most
/// deeply nested user-facing lock in the tree. The server's locks rank
/// *below* the pool: server code acquires them around scheduling engine
/// work (admission, registry walks, stat updates), and the engine —
/// with all the pool/tracer/mailbox classes — runs strictly inside a
/// picked-up request, never the other way around.
pub const LOCK_HIERARCHY: &[(&str, u16)] = &[
    ("server.queue", 2),
    ("server.registry", 4),
    ("server.request", 6),
    ("server.stats", 8),
    ("pool.state", 10),
    ("pool.latch", 20),
    ("pool.panic", 25),
    ("pool.result", 30),
    ("chaos.test", 33),
    ("chaos.active", 35),
    ("tracer.log", 60),
    ("mailbox.slot", 70),
    ("mailbox.spin", 80),
    ("femtograph.inbox", 90),
];

/// Files that *implement* lock machinery rather than use it: their
/// internal `.lock()` calls route through [`LockClass`]-carrying
/// wrappers whose class is dynamic, so per-site annotations would be
/// meaningless there. Everywhere else, every acquisition site must
/// carry a `// lock-order(<class>)` annotation.
///
/// [`LockClass`]: ../par/lockorder/struct.LockClass.html
pub const LOCK_IMPL_FILES: &[&str] =
    &["crates/par/src/lockorder.rs", "crates/core/src/sync.rs"];

/// Files allowed to name `std::sync` blocking primitives (`Mutex`,
/// `RwLock`, `Condvar`, `Barrier`). Everyone else must go through the
/// `ipregel::sync` shim (so loom models stay faithful) or the ordered
/// wrappers (so the hierarchy stays enforced).
pub const STD_SYNC_ALLOWED: &[&str] = &[
    // The layer below the shim: the pool's state/latch machinery and
    // the ordered-mutex implementation wrap std primitives directly.
    "crates/par/src/pool.rs",
    "crates/par/src/lockorder.rs",
    // The shim itself.
    "crates/core/src/sync.rs",
];

/// The atomic-ordering protocol table: for each file that touches
/// atomics, the orderings its protocol is allowed to use. A file using
/// atomics without an entry here fails the lint — adding the entry is
/// the reviewable act of declaring the file's memory-ordering protocol.
/// `SeqCst` is deliberately absent from every entry: nothing in this
/// workspace needs it (the paper's §6 protocols are all
/// acquire/release-shaped), so any appearance is ordering creep.
pub const ATOMIC_PROTOCOLS: &[(&str, &[&str])] = &[
    // Release/acquire pairs publish messages; Relaxed covers the
    // advisory `has` flag and counters read at barriers.
    ("crates/core/src/mailbox/atomic.rs", &["Relaxed", "Acquire", "AcqRel"]),
    ("crates/core/src/mailbox/mutex.rs", &["Relaxed"]),
    ("crates/core/src/mailbox/spin.rs", &["Relaxed", "Acquire", "Release"]),
    ("crates/core/src/mailbox/mod.rs", &["Relaxed"]),
    // Epoch tags: the RMW's atomicity decides the winner; the enqueue
    // it gates is published by the superstep barrier.
    ("crates/core/src/selection.rs", &["Relaxed"]),
    // Dropped-event counters, read only after runs quiesce.
    ("crates/core/src/trace.rs", &["Relaxed"]),
    // K-lane per-lane counters: monotone values whose
    // correctness-bearing reads happen after the engine run joins.
    ("crates/core/src/lanes.rs", &["Relaxed"]),
    // check-disjoint borrow tags: acquire/release pairs around element
    // access.
    ("crates/core/src/sync_cell.rs", &["Acquire", "Release"]),
    // The shim's own self-test.
    ("crates/core/src/sync.rs", &["Acquire", "Release"]),
    // Test tallies only (scope join synchronizes): the pool itself
    // schedules under one mutex and has no atomics.
    ("crates/par/src/pool.rs", &["Relaxed"]),
    ("crates/par/src/iter.rs", &["Relaxed"]),
    // Temp-file unique-id tick in the CLI's test helper.
    ("crates/cli/src/lib.rs", &["Relaxed"]),
    // Server counters: request-id tick, queue-depth sample sequence,
    // watchdog stop flag — monotone values whose correctness-bearing
    // reads happen under the server mutexes or after joins.
    ("crates/server/src/lib.rs", &["Relaxed"]),
    // Processed-line counter bounding a `serve --requests N` run.
    ("crates/server/src/net.rs", &["Relaxed"]),
];

/// Trace-hook coverage: every engine entry point and mailbox must emit
/// its structured events (the observability layer's contract — a code
/// path that silently stops tracing breaks every dashboard downstream).
/// Tokens are matched against comment-stripped code, so a commented-out
/// emit does not count.
pub const TRACE_COVERAGE: &[(&str, &[&str])] = &[
    // The one parallel driver owns the superstep span for both delivery
    // strategies (push.rs and pull.rs emit nothing themselves).
    (
        "crates/core/src/engine/bsp.rs",
        &[
            "TraceEvent::RunBegin",
            "TraceEvent::SuperstepBegin",
            "TraceEvent::Chunk",
            "TraceEvent::Pool",
            "TraceEvent::SuperstepEnd",
            "TraceEvent::RunEnd",
            "TraceEvent::CheckpointSave",
        ],
    ),
    // The oracle keeps its own loop; its checkpoint and run-end events
    // come from the driver's barrier helpers.
    (
        "crates/core/src/engine/seq.rs",
        &[
            "TraceEvent::RunBegin",
            "TraceEvent::SuperstepBegin",
            "TraceEvent::SuperstepEnd",
            "bsp::checkpoint_if_due",
            "bsp::finish",
        ],
    ),
    (
        "crates/graphd/src/lib.rs",
        &[
            "TraceEvent::RunBegin",
            "TraceEvent::SuperstepBegin",
            "TraceEvent::Io",
            "TraceEvent::SuperstepEnd",
            "TraceEvent::RunEnd",
        ],
    ),
    // The resident server emits one terminal request record per
    // submission plus admission-time queue-depth samples (schema 3).
    (
        "crates/server/src/lib.rs",
        &["TraceEvent::ServerRequest", "TraceEvent::ServerQueueDepth"],
    ),
    // Mailboxes report their contention to the trace layer.
    ("crates/core/src/mailbox/spin.rs", &["note_spin_iterations", "note_lock_acquisition"]),
    ("crates/core/src/mailbox/mutex.rs", &["note_lock_acquisition"]),
    ("crates/core/src/mailbox/atomic.rs", &["note_cas_retry"]),
];

/// Files permitted to contain the `unsafe` token (absorbed from the
/// retired `tools/unsafe_audit.rs`). Keep in sync with
/// docs/INTERNALS.md ("Safety model") — every entry there must justify
/// its presence here and name the checker that covers it. An entry
/// whose file no longer contains `unsafe` is itself an error (stale
/// boundary), so the allowlist can only shrink automatically.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    // The in-tree thread pool: scope-lifetime erasure for queued jobs
    // (sound because scope/install block until the latch drains) and
    // the worker-TLS pointer read. Covered by crates/par/tests/
    // pool_contract.rs and the crate's unit suite.
    "crates/par/src/pool.rs",
    "crates/core/src/sync.rs",
    "crates/core/src/sync_cell.rs",
    "crates/core/src/mailbox/spin.rs",
    "crates/core/src/selection.rs",
    // The driver's per-slot views of values and halted flags, and the
    // pull strategy's own-outbox writes.
    "crates/core/src/engine/bsp.rs",
    "crates/core/src/engine/pull.rs",
    // Baseline simulators reusing SharedSlice under the same discipline.
    "crates/femtograph/src/lib.rs",
    "crates/graphd/src/lib.rs",
    "crates/pregelplus/src/engine.rs",
    // Test suites that exercise the unsafe contracts directly.
    "crates/core/tests/loom.rs",
];

/// Files that must carry `#![forbid(unsafe_code)]` — crate roots proven
/// unsafe-free, plus leaf modules of otherwise-unsafe crates that the
/// attribute keeps provably clean.
pub const FORBID_FILES: &[&str] = &[
    "crates/graph/src/lib.rs",
    "crates/apps/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/cli/src/lib.rs",
    "crates/cli/src/main.rs",
    "crates/server/src/lib.rs",
    "crates/memmodel/src/lib.rs",
    "crates/proptest/src/lib.rs",
    "crates/lint/src/lib.rs",
    "src/lib.rs",
    // Unsafe-free modules inside crates whose roots cannot forbid.
    "crates/core/src/lanes.rs",
    "crates/par/src/padded.rs",
    "crates/par/src/lockorder.rs",
    "crates/par/src/iter.rs",
];

/// Directory roots searched for `.rs` files by the unsafe-confinement
/// check (the widest scope: tests and tools included).
pub const SEARCH_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "tools"];

/// Directory roots whose sources must satisfy the annotation checks
/// (orderings, lock sites, std-sync ban, format regions, hierarchy
/// declarations): library/binary sources only — integration tests and
/// fixtures may do deliberately odd things.
pub const ANNOTATED_ROOTS: &[&str] = &["crates", "src"];

/// Path fragments excluded from every scan: the linter's fixtures are
/// *committed violations* (each check's self-test seeds from them), and
/// its own sources quote the patterns it searches for.
pub const EXCLUDED: &[&str] = &["crates/lint/"];

/// Where the format fingerprints live, relative to the repo root.
pub const FORMATS_LOCK: &str = "crates/lint/formats.lock";

/// Orderings the annotation grammar recognises.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
