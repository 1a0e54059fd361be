//! The in-tree scoped thread pool: per-worker steal deques plus an
//! overflow injector.
//!
//! One [`PoolInner`] owns a set of worker OS threads. Each worker owns
//! a bounded [`StealDeque`]: it pushes and pops its own work LIFO at
//! the back, and when its deque runs dry it first drains the shared
//! overflow [`Injector`], then steals FIFO from the fronts of the other
//! workers' deques, probing victims in a seeded deterministic order
//! fixed at pool construction (a pure function of `(num_threads,
//! worker index)`). Jobs submitted from non-worker threads — and jobs
//! that would overflow a full deque — go to the injector. Workers carry
//! a stable index `0..num_threads` published through a thread-local,
//! which is the contract the sharded
//! [`Tracer`](../../core/src/trace.rs) and `Worklist::with_shards`
//! depend on: *while a closure runs on worker `i`,
//! [`current_thread_index`] returns `Some(i)`, indices are unique within
//! the pool, and they never change for the lifetime of the pool.*
//!
//! # Determinism: execution is not reduction
//!
//! Stealing makes *which worker runs which job* timing-dependent, and
//! that is the point — an idle worker takes load off a busy one. What
//! stays deterministic is everything results flow through: the chunk
//! plan is a pure function of `(len, thread count)` (see `iter.rs`),
//! each chunk writes its partial result into a slot indexed by chunk
//! id, and the caller folds the slots sequentially in chunk order. Any
//! worker may execute any chunk; the reduction tree never changes, so
//! f64 sums are bit-identical run to run at a fixed thread count.
//! `crates/par/tests/pool_contract.rs` pins this with stealing forced.
//!
//! # Sleep protocol (why no wakeup is lost)
//!
//! Idle workers park on the pool's condvar under the `pool.state`
//! mutex. The queues themselves are *not* under that mutex — pushes
//! touch only the target deque/injector lock — so a pusher must know
//! whether anyone is asleep. The pool keeps an advisory sleeper count:
//! a worker increments it (while holding `pool.state`) **before**
//! re-scanning every queue, then waits; a pusher publishes its job and
//! then reads the count, notifying under `pool.state` if it is
//! non-zero. The registered re-scan ([`PoolInner::find_job_registered`])
//! acquires every queue's mutex unconditionally — it must not use the
//! relaxed `is_empty_hint` fast path, which reports "empty" without a
//! lock and therefore without any happens-before edge to the pusher
//! (a hint-based scan plus the relaxed count read would be the
//! store-buffering litmus: both sides miss, the job sits queued with
//! every worker parked). With real acquisitions, for any queue the
//! sleeper scanned before the push landed, the sleeper's increment is
//! visible to the pusher through that queue's mutex (increment →
//! scan-unlock ≺ push-lock → count-read), so the pusher notifies; if
//! the sleeper scanned after, the scan found the job. The
//! `sleep_protocol_never_loses_the_wakeup` loom model in
//! `crates/core/tests/loom.rs` pins exactly this edge.
//! Notifying under `pool.state` closes the remaining window:
//! the sleeper holds that mutex from registration until the condvar
//! wait releases it, so the notify cannot fire in between.
//!
//! # Scopes and panics
//!
//! [`scope`] collects tasks spawned via [`Scope::spawn`] and does not
//! return until every one of them has completed. Each task runs under
//! `catch_unwind`; the first captured payload is resumed on the caller
//! once the scope is complete, so a panicking task never takes a worker
//! thread down — the pool survives and sibling tasks drain normally,
//! whether the panicking chunk ran on its spawner or on a thief. This
//! is what lets the engines' chunk-level `catch_unwind` isolation
//! (`RunError::VertexPanic`) keep working unchanged on the in-tree pool:
//! the engines catch inside the task, so the pool-level capture is a
//! second line of defence, not the primary mechanism.
//!
//! # Nested scopes: supported
//!
//! A worker that blocks in [`scope`] (or [`join`]) *helps*: it executes
//! queued tasks while it waits — its own deque first, then the overflow
//! injector, then steals. Nested `scope` calls from inside a task
//! therefore cannot deadlock, even on a one-thread pool whose deque has
//! spilled into the injector — the blocked worker drains both. Non-
//! worker threads never execute tasks (their `current_thread_index` is
//! `None`, so executing engine work there would bypass the worker-shard
//! routing); they park on the scope's latch instead.
//!
//! # Safety model
//!
//! The only `unsafe` in this crate is lifetime erasure of scoped task
//! closures (and of the closure passed to [`ThreadPool::install`]): a
//! `Box<dyn FnOnce() + Send + 'scope>` is transmuted to `'static` so it
//! can sit in a deque. The erasure is sound because the scope (or
//! `install`) blocks until the task's completion latch fires —
//! including on the panic path — so no borrow captured by the closure
//! can be outlived. `tests/pool_contract.rs` exercises the contract
//! (including panic-in-stolen-chunk and borrow-heavy workloads) and the
//! suite runs under Miri via `tools/miri-test.sh`.

use crate::deque::{Injector, StealDeque};
use crate::lockorder::{classes, OrderedMutex};
use crate::padded::CachePadded;

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::thread::JoinHandle;

/// A queued task, lifetime-erased (see the module-level safety model).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Per-worker deque bound. Chunk plans produce at most `threads × 8`
/// jobs per parallel region (see `iter.rs`), so the bound is hit only
/// by deeply nested fan-out — which spills to the injector and keeps
/// working, just without LIFO locality.
const DEQUE_CAPACITY: usize = 256;

/// Seed of the victim probe orders: fixed, so each worker's steal order
/// is a pure function of `(num_threads, worker index)` and reruns probe
/// identically.
const STEAL_SEED: u64 = 0xA076_1D64_78BD_642F;

/// One SplitMix64 step — the probe-order PRNG. Pure, allocation-free,
/// and plenty to decorrelate per-worker victim orders.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic victim order of worker `index`: a seeded
/// Fisher–Yates shuffle of every other worker. Distinct workers get
/// decorrelated orders (so thieves fan out instead of convoying on
/// victim 0), and the same `(num_threads, index)` always yields the
/// same order (so steal-heavy runs stay reproducible to a debugger).
fn victim_order(num_threads: usize, index: usize) -> Box<[usize]> {
    let mut order: Vec<usize> = (0..num_threads).filter(|&v| v != index).collect();
    let mut rng = STEAL_SEED ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in (1..order.len()).rev() {
        let j = usize::try_from(splitmix64(&mut rng) % (i as u64 + 1))
            .expect("j <= i < num_threads fits usize");
        order.swap(i, j);
    }
    order.into_boxed_slice()
}

/// Work-stealing counters of one pool, cumulative since construction.
///
/// Snapshot with [`ThreadPool::stats`] or [`current_pool_stats`];
/// deltas across a parallel region are what the engines report per
/// superstep (the `pool` trace event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs a worker popped from another worker's deque (FIFO steals).
    pub steals: u64,
    /// Jobs routed through the overflow injector: non-worker
    /// submissions plus full-deque spill.
    pub overflow: u64,
    /// Jobs pushed to any queue — every `Scope::spawn` and `install`.
    /// A parallel region that ran inline on its caller adds nothing
    /// here, so a delta of zero across a region means it boxed no job
    /// and woke nobody.
    pub spawned: u64,
}

/// Shared state of one pool.
struct PoolInner {
    /// Shutdown flag + the mutex sleepers park under.
    state: OrderedMutex<PoolState>,
    /// Signalled on job arrival (when sleepers are registered), scope
    /// completion, and shutdown.
    cv: Condvar,
    /// One bounded deque per worker, indexed by worker index.
    deques: Box<[StealDeque<Job>]>,
    /// Overflow queue: non-worker submissions and full-deque spill.
    overflow: Injector<Job>,
    /// `victims[i]`: the deterministic probe order worker `i` steals in.
    victims: Box<[Box<[usize]>]>,
    /// `steals[i]`: successful steals *by* worker `i` (padded so the
    /// hot-path increments don't false-share).
    steals: Box<[CachePadded<AtomicU64>]>,
    /// Jobs pushed to the overflow injector.
    overflow_pushes: AtomicU64,
    /// Jobs pushed to any queue.
    spawned: AtomicU64,
    /// Advisory count of workers registered on the sleep path — see the
    /// module-level "Sleep protocol".
    sleepers: AtomicUsize,
    num_threads: usize,
}

struct PoolState {
    shutdown: bool,
}

impl PoolInner {
    /// Submit a job: a worker of this pool pushes to its own deque
    /// (LIFO end), spilling to the injector when full; everyone else
    /// goes straight to the injector. Sleepers are then woken if any
    /// are registered.
    fn push(&self, job: Job) {
        // ordering(Relaxed): monotone counter; readers snapshot it via
        // `stats()` outside parallel regions.
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let job = match current_worker() {
            Some((pool, index)) if std::ptr::eq(pool, self) => {
                self.deques[index].push_back(job).err()
            }
            _ => Some(job),
        };
        if let Some(job) = job {
            // ordering(Relaxed): monotone counter; readers snapshot it
            // via `stats()` outside parallel regions.
            self.overflow_pushes.fetch_add(1, Ordering::Relaxed);
            self.overflow.push(job);
        }
        self.wake_if_sleepers();
    }

    /// Notify the condvar iff a sleeper might be registered.
    fn wake_if_sleepers(&self) {
        // ordering(Relaxed): pairs with the registration in the sleep
        // path — a sleeper increments the count *before* re-scanning
        // the queues with `find_job_registered`, whose unconditional
        // lock acquisitions carry the increment to us: if it scanned
        // our queue before our push, the increment reached us through
        // that queue's mutex and this read sees it; if it scanned
        // after, it found the job. (Module docs, "Sleep protocol".)
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.wake_all();
        }
    }

    /// Wake everything (job for a sleeper, scope completed, shutdown).
    /// Notifying under the state lock is what makes the sleep protocol
    /// lossless: a registered sleeper holds that lock until it is
    /// inside `Condvar::wait`.
    fn wake_all(&self) {
        // lock-order(pool.state)
        let _guard = self.state.lock().expect("pool state poisoned");
        self.cv.notify_all();
    }

    /// One scheduling round for worker `index`: own deque (LIFO), then
    /// the overflow injector (FIFO), then steal from victims in the
    /// worker's fixed probe order (FIFO from each). Never holds two
    /// queue locks at once.
    fn find_job(&self, index: usize) -> Option<Job> {
        if let Some(job) = self.deques[index].pop_back() {
            return Some(job);
        }
        if let Some(job) = self.overflow.pop_front() {
            return Some(job);
        }
        for &victim in &self.victims[index] {
            if let Some(job) = self.deques[victim].pop_front() {
                // ordering(Relaxed): monotone counter; readers snapshot
                // it via `stats()` outside parallel regions.
                self.steals[index].fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// The sleep-path scheduling round: same scan order as [`find_job`]
    /// (own deque, overflow, victims), but every pop acquires its queue
    /// mutex unconditionally instead of trusting the relaxed emptiness
    /// hint. A worker that has registered on the sleeper count must scan
    /// with *this* — the lock acquisitions are the happens-before edges
    /// that make its registration visible to any pusher it raced, which
    /// is the whole no-lost-wakeup argument (module docs, "Sleep
    /// protocol"). `find_job` is the fast path for unregistered workers
    /// only, where a stale-empty hint merely delays work, never strands
    /// it.
    ///
    /// [`find_job`]: Self::find_job
    fn find_job_registered(&self, index: usize) -> Option<Job> {
        if let Some(job) = self.deques[index].pop_back_locked() {
            return Some(job);
        }
        if let Some(job) = self.overflow.pop_front_locked() {
            return Some(job);
        }
        for &victim in &self.victims[index] {
            if let Some(job) = self.deques[victim].pop_front_locked() {
                // ordering(Relaxed): monotone counter; readers snapshot
                // it via `stats()` outside parallel regions.
                self.steals[index].fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Cumulative counters.
    fn stats(&self) -> PoolStats {
        PoolStats {
            // ordering(Relaxed): monotone counters; the engines read
            // deltas across a region whose scope join is the barrier.
            steals: self.steals.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
            // ordering(Relaxed): same monotone-counter protocol.
            overflow: self.overflow_pushes.load(Ordering::Relaxed),
            // ordering(Relaxed): same monotone-counter protocol.
            spawned: self.spawned.load(Ordering::Relaxed),
        }
    }
}

/// Completion latch of one [`scope`] (or one `install`/`join`).
struct ScopeLatch {
    pool: Arc<PoolInner>,
    /// Tasks spawned and not yet finished.
    pending: OrderedMutex<usize>,
    /// Signalled when `pending` reaches zero; waited on by non-worker
    /// scope callers (workers wait on the pool's cv and help instead).
    done_cv: Condvar,
    /// First panic payload captured from a task.
    panic: OrderedMutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeLatch {
    fn new(pool: Arc<PoolInner>) -> Arc<Self> {
        Arc::new(ScopeLatch {
            pool,
            pending: OrderedMutex::new(&classes::POOL_LATCH, 0),
            done_cv: Condvar::new(),
            panic: OrderedMutex::new(&classes::POOL_PANIC, None),
        })
    }

    fn add_task(&self) {
        // lock-order(pool.latch)
        *self.pending.lock().expect("latch poisoned") += 1;
    }

    fn finish_task(&self) {
        // lock-order(pool.latch)
        let mut pending = self.pending.lock().expect("latch poisoned");
        *pending -= 1;
        if *pending == 0 {
            drop(pending);
            self.done_cv.notify_all();
            // Helping workers wait on the pool cv, not ours. The latch
            // guard is dropped first: pool.state ranks *below* the latch
            // in the lock hierarchy, so holding the latch here would be
            // an inversion against `wait_helping`.
            self.pool.wake_all();
        }
    }

    fn is_done(&self) -> bool {
        // lock-order(pool.latch)
        *self.pending.lock().expect("latch poisoned") == 0
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        // lock-order(pool.panic)
        let mut slot = self.panic.lock().expect("latch panic slot poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Block the calling thread until all tasks finished. Workers of the
    /// owning pool help execute queued tasks while they wait.
    fn wait(&self) {
        if let Some((pool, index)) = current_worker() {
            if std::ptr::eq(pool, &*self.pool) {
                self.wait_helping(index);
                return;
            }
        }
        // lock-order(pool.latch)
        let mut pending = self.pending.lock().expect("latch poisoned");
        while *pending > 0 {
            pending = pending.wait_on(&self.done_cv).expect("latch poisoned");
        }
    }

    /// Worker-side wait: help run jobs (own deque, overflow, steals)
    /// until the latch fires, sleeping through the pool's sleep
    /// protocol when nothing is runnable.
    ///
    /// The done-check happens while the pool's state lock is held, and
    /// `finish_task`'s final wakeup (`wake_all`) notifies *under* that
    /// same lock — so "latch fires between our check and `cv.wait`"
    /// cannot be missed: the finisher blocks on the lock until we are
    /// inside the wait.
    fn wait_helping(&self, index: usize) {
        loop {
            loop {
                if self.is_done() {
                    return;
                }
                match self.pool.find_job(index) {
                    Some(job) => job(),
                    None => break,
                }
            }
            // lock-order(pool.state) — `is_done` below then nests
            // pool.latch inside pool.state (10 → 20), one of the
            // runtime's declared nestings; `find_job` nests the queue
            // locks the same way (10 → 12, 10 → 14).
            let mut st = self.pool.state.lock().expect("pool state poisoned");
            // ordering(Relaxed): register *before* the re-scan — the
            // pusher-side pairing is `wake_if_sleepers`, and the
            // `find_job_registered` lock acquisitions below are what
            // carry this increment to the pusher (module docs, "Sleep
            // protocol").
            self.pool.sleepers.fetch_add(1, Ordering::Relaxed);
            let job = loop {
                if let Some(job) = self.pool.find_job_registered(index) {
                    break Some(job);
                }
                if self.is_done() {
                    break None;
                }
                st = st.wait_on(&self.pool.cv).expect("pool state poisoned");
            };
            // ordering(Relaxed): deregister, mirroring the registration.
            self.pool.sleepers.fetch_sub(1, Ordering::Relaxed);
            drop(st);
            match job {
                Some(job) => job(),
                None => return,
            }
        }
    }
}

thread_local! {
    /// `(pool pointer, worker index)` while on a pool worker thread.
    /// The raw pointer is valid for the thread's whole life: each worker
    /// owns an `Arc<PoolInner>` keeping the pointee alive.
    static CURRENT_WORKER: Cell<Option<(*const PoolInner, usize)>> = const { Cell::new(None) };
}

/// The pool + index of the current worker thread, if any.
fn current_worker() -> Option<(&'static PoolInner, usize)> {
    CURRENT_WORKER.with(|c| {
        c.get().map(|(ptr, idx)| {
            // SAFETY: the pointer was published by this very thread's
            // worker loop, which holds an Arc<PoolInner> for as long as
            // the thread lives; promotion to &'static is confined to
            // this call's return value and never stored.
            (unsafe { &*ptr }, idx)
        })
    })
}

/// Index of the calling thread within its pool (`None` off-pool).
///
/// This is the worker-index contract of the crate: stable for the
/// thread's lifetime, unique and dense (`0..num_threads`) within a pool.
pub fn current_thread_index() -> Option<usize> {
    CURRENT_WORKER.with(|c| c.get().map(|(_, idx)| idx))
}

/// Number of threads of the current pool (the global pool's size when
/// called from outside any pool).
pub fn current_num_threads() -> usize {
    match current_worker() {
        Some((pool, _)) => pool.num_threads,
        None => global().inner.num_threads,
    }
}

/// Work-stealing counters of the current pool: the worker's own pool on
/// a worker thread, the global pool elsewhere. The engines snapshot
/// this around each superstep's parallel region and report the delta
/// (`LoadStats::steals`/`overflow`, the `pool` trace event).
pub fn current_pool_stats() -> PoolStats {
    match current_worker() {
        Some((pool, _)) => pool.stats(),
        None => global().inner.stats(),
    }
}

fn default_num_threads() -> usize {
    for var in ["IPREGEL_PAR_THREADS", "RAYON_NUM_THREADS"] {
        if let Some(n) = std::env::var(var).ok().and_then(|v| v.parse::<usize>().ok()) {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process-wide pool, built on first use and never torn down.
fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        ThreadPoolBuilder::new()
            .num_threads(default_num_threads())
            .build()
            .expect("failed to build the global thread pool")
    })
}

/// The pool `scope`/`join` should target from the calling thread: the
/// worker's own pool on a worker, the global pool elsewhere.
fn current_pool() -> Arc<PoolInner> {
    WORKER_POOL_ARC
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| global().inner.clone())
}

thread_local! {
    /// An owning handle to the worker's pool, so `current_pool` can hand
    /// out `Arc`s without promoting raw pointers to owners.
    static WORKER_POOL_ARC: std::cell::RefCell<Option<Arc<PoolInner>>> =
        const { std::cell::RefCell::new(None) };
}

/// Error building a [`ThreadPool`] (thread spawn failure).
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    message: String,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build failed: {}", self.message)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the surface the
/// workspace uses (`num_threads` + `build`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: None }
    }

    /// Pool size; `0` (or unset) means the environment default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Spawn the workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = self.num_threads.unwrap_or_else(default_num_threads).max(1);
        let inner = Arc::new(PoolInner {
            state: OrderedMutex::new(&classes::POOL_STATE, PoolState { shutdown: false }),
            cv: Condvar::new(),
            deques: (0..n).map(|_| StealDeque::new(DEQUE_CAPACITY)).collect(),
            overflow: Injector::new(),
            victims: (0..n).map(|i| victim_order(n, i)).collect(),
            steals: (0..n).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            overflow_pushes: AtomicU64::new(0),
            spawned: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            num_threads: n,
        });
        let mut workers = Vec::with_capacity(n);
        for index in 0..n {
            let pool = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("ipregel-par-{index}"))
                .spawn(move || worker_loop(pool, index))
                .map_err(|e| ThreadPoolBuildError { message: e.to_string() })?;
            workers.push(handle);
        }
        Ok(ThreadPool { inner, workers })
    }
}

fn worker_loop(pool: Arc<PoolInner>, index: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((Arc::as_ptr(&pool), index))));
    WORKER_POOL_ARC.with(|c| *c.borrow_mut() = Some(Arc::clone(&pool)));
    loop {
        // Fast path: schedule lock-hierarchy-bottom-up with no state
        // lock at all. Jobs are panic-wrapped at spawn time (the
        // payload lands in the scope latch); a stray panic from the
        // wrapper itself would still only kill this one worker, not the
        // pool.
        while let Some(job) = pool.find_job(index) {
            job();
        }
        // Sleep path (module docs, "Sleep protocol"): register, re-scan
        // under the state lock, and only then wait.
        // lock-order(pool.state)
        let mut st = pool.state.lock().expect("pool state poisoned");
        // ordering(Relaxed): register *before* the re-scan — the
        // pusher-side pairing is `wake_if_sleepers`, and the
        // `find_job_registered` lock acquisitions below are what carry
        // this increment to the pusher.
        pool.sleepers.fetch_add(1, Ordering::Relaxed);
        let job = loop {
            if let Some(job) = pool.find_job_registered(index) {
                break Some(job);
            }
            if st.shutdown {
                break None;
            }
            st = st.wait_on(&pool.cv).expect("pool state poisoned");
        };
        // ordering(Relaxed): deregister, mirroring the registration.
        pool.sleepers.fetch_sub(1, Ordering::Relaxed);
        drop(st);
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// An owned pool with a fixed number of worker threads.
///
/// Dropping the pool shuts the workers down after the queues drain;
/// every `scope`/`install` blocks to completion first, so drop never
/// races live tasks.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("num_threads", &self.inner.num_threads).finish()
    }
}

impl ThreadPool {
    /// Pool size.
    pub fn current_num_threads(&self) -> usize {
        self.inner.num_threads
    }

    /// Cumulative work-stealing counters of this pool.
    pub fn stats(&self) -> PoolStats {
        self.inner.stats()
    }

    /// Run `f` on a worker of this pool and return its result.
    ///
    /// Inside `f`, [`current_thread_index`] is `Some(i)` for the worker
    /// that picked the job up, stable for the whole call — scopes and
    /// parallel iterators started inside `f` target this pool. Calling
    /// `install` from a worker of this same pool runs `f` inline.
    pub fn install<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        if let Some((pool, _)) = current_worker() {
            if std::ptr::eq(pool, &*self.inner) {
                return f();
            }
        }
        let latch = ScopeLatch::new(Arc::clone(&self.inner));
        let result: Arc<OrderedMutex<Option<R>>> =
            Arc::new(OrderedMutex::new(&classes::POOL_RESULT, None));
        latch.add_task();
        {
            let latch = Arc::clone(&latch);
            let result = Arc::clone(&result);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // `f` runs *before* the result lock is taken: user code
                // never executes while a pool.result lock is held, so
                // recursive scopes/joins inside `f` start from an empty
                // held-lock stack.
                let out = catch_unwind(AssertUnwindSafe(f));
                match out {
                    // lock-order(pool.result)
                    Ok(v) => *result.lock().expect("install result poisoned") = Some(v),
                    Err(payload) => latch.record_panic(payload),
                }
                latch.finish_task();
            });
            // SAFETY: `install` blocks on the latch below until the job
            // has run to completion (success or panic), so the borrows
            // captured by `f` outlive every use; erasing the lifetime
            // only lets the box sit in a queue meanwhile.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job)
            };
            self.inner.push(job);
        }
        latch.wait();
        // lock-order(pool.panic)
        if let Some(payload) = latch.panic.lock().expect("latch panic slot poisoned").take() {
            resume_unwind(payload);
        }
        // lock-order(pool.result)
        let v = result.lock().expect("install result poisoned").take();
        v.expect("install job finished without a result or a panic")
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            // lock-order(pool.state)
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            st.shutdown = true;
            // Notify under the state lock: a worker between its
            // registration and its `Condvar::wait` still holds the
            // lock, so this notify cannot slip past it.
            self.inner.cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A scope handle: tasks spawned through it are guaranteed to finish
/// before the enclosing [`scope`] call returns.
pub struct Scope<'scope> {
    latch: Arc<ScopeLatch>,
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queue `body` on the scope's pool (the spawning worker's own
    /// deque when called from a worker; the overflow injector
    /// otherwise).
    ///
    /// The task receives a scope handle of its own, so tasks can spawn
    /// further tasks (nested fan-out) into the same scope.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.latch.add_task();
        let latch = Arc::clone(&self.latch);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope = Scope { latch: Arc::clone(&latch), _marker: std::marker::PhantomData };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&scope))) {
                latch.record_panic(payload);
            }
            latch.finish_task();
        });
        // SAFETY: `scope` (the function) blocks on this latch until
        // every spawned task has completed — including tasks spawned by
        // tasks, because each spawn increments the latch before the
        // spawning task decrements it — so all borrows captured by
        // `body` ('scope) strictly outlive the queued box.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        let pool = Arc::clone(&self.latch.pool);
        pool.push(job);
    }
}

/// Run `op` with a [`Scope`] on the current pool (the global pool when
/// called from outside any pool) and wait for every spawned task.
///
/// `op` itself runs on the calling thread; tasks run on pool workers. A
/// worker blocked here helps drain the queues (see the module docs —
/// this is what makes nested scopes deadlock-free). The first panic
/// from any task is resumed on the caller after all tasks finished.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    let pool = current_pool();
    let latch = ScopeLatch::new(pool);
    let s = Scope { latch: Arc::clone(&latch), _marker: std::marker::PhantomData };
    let result = catch_unwind(AssertUnwindSafe(|| op(&s)));
    latch.wait();
    // lock-order(pool.panic)
    if let Some(payload) = latch.panic.lock().expect("latch panic slot poisoned").take() {
        resume_unwind(payload);
    }
    match result {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

/// Run `a` and `b`, potentially in parallel, and return both results.
///
/// `a` runs on the calling thread; `b` is queued on the current pool.
/// Mirrors `rayon::join` semantics: if either closure panics, the panic
/// is propagated only after both have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let rb: OrderedMutex<Option<RB>> = OrderedMutex::new(&classes::POOL_RESULT, None);
    let ra = {
        let rb = &rb;
        scope(|s| {
            s.spawn(move |_| {
                // Run `b` to completion *before* taking the result lock:
                // recursive joins inside `b` (a divide-and-conquer tree)
                // would otherwise nest pool.result inside pool.result —
                // same-class nesting, which the detector rejects.
                let v = b();
                // lock-order(pool.result)
                *rb.lock().expect("join result poisoned") = Some(v);
            });
            a()
        })
    };
    let rb = rb.into_inner().expect("join result poisoned").expect("join task completed");
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn install_runs_on_a_worker_with_an_index() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let (idx, n) = pool.install(|| (current_thread_index(), current_num_threads()));
        assert!(idx.is_some());
        assert!(idx.unwrap() < 3);
        assert_eq!(n, 3);
        assert_eq!(current_thread_index(), None, "caller is not a worker");
    }

    #[test]
    fn scope_runs_every_task() {
        let n = 100;
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..n {
                s.spawn(|_| {
                    // ordering(Relaxed): test tally; scope exit synchronizes
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // ordering(Relaxed): read after scope join, no concurrent writers
        assert_eq!(counter.load(Ordering::Relaxed), n);
    }

    #[test]
    fn nested_scopes_complete_on_a_single_thread_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let total = pool.install(|| {
            let counter = AtomicUsize::new(0);
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|_| {
                        // Nested scope from inside a task: the lone
                        // worker must help-drain instead of deadlocking.
                        scope(|inner| {
                            for _ in 0..4 {
                                inner.spawn(|_| {
                                    // ordering(Relaxed): test tally; scope exit synchronizes
                                    counter.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
            // ordering(Relaxed): read after scope join, no concurrent writers
            counter.load(Ordering::Relaxed)
        });
        assert_eq!(total, 16);
    }

    #[test]
    fn task_panic_propagates_after_siblings_finish() {
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                for i in 0..8 {
                    let finished = &finished;
                    s.spawn(move |_| {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        // ordering(Relaxed): test tally; scope exit synchronizes
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // ordering(Relaxed): read after scope join, no concurrent writers
        assert_eq!(finished.load(Ordering::Relaxed), 7, "siblings drained");
        // The pool survives: new work still runs.
        let after = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|_| {
                // ordering(Relaxed): test tally; scope exit synchronizes
                after.fetch_add(1, Ordering::Relaxed);
            });
        });
        // ordering(Relaxed): read after scope join, no concurrent writers
        assert_eq!(after.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn join_returns_both_and_runs_b_somewhere() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn join_propagates_b_panic() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            join(|| 1, || -> usize { panic!("right side") })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn install_propagates_panic_and_pool_survives() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let r = catch_unwind(AssertUnwindSafe(|| pool.install(|| panic!("inside install"))));
        assert!(r.is_err());
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn worker_indices_are_dense_and_stable() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let seen = OrderedMutex::new(&classes::POOL_RESULT, std::collections::HashSet::new());
        pool.install(|| {
            scope(|s| {
                for _ in 0..64 {
                    let seen = &seen;
                    s.spawn(move |_| {
                        let idx = current_thread_index().expect("task on a worker");
                        assert!(idx < 4);
                        // lock-order(pool.result)
                        seen.lock().unwrap().insert(idx);
                        // An index observed twice within one closure must
                        // be identical: the task never migrates.
                        assert_eq!(current_thread_index(), Some(idx));
                    });
                }
            });
        });
        // lock-order(pool.result)
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn builder_zero_means_default() {
        let pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(pool.current_num_threads() >= 1);
    }

    #[test]
    fn victim_orders_are_deterministic_permutations() {
        for n in [1usize, 2, 3, 8] {
            for i in 0..n {
                let a = victim_order(n, i);
                let b = victim_order(n, i);
                assert_eq!(a, b, "probe order must be a pure function of (n, index)");
                let mut sorted: Vec<usize> = a.to_vec();
                sorted.sort_unstable();
                let expect: Vec<usize> = (0..n).filter(|&v| v != i).collect();
                assert_eq!(sorted, expect, "every other worker appears exactly once");
            }
        }
    }

    #[test]
    fn steals_are_counted_when_thieves_drain_a_spawner() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let before = pool.stats();
        pool.install(|| {
            scope(|s| {
                for _ in 0..64 {
                    s.spawn(|_| {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    });
                }
            });
        });
        let after = pool.stats();
        // All 64 tasks land on the installing worker's deque; the other
        // three workers can only run them by stealing.
        assert!(
            after.steals > before.steals,
            "64 slow tasks on one deque must produce at least one steal: {after:?}"
        );
    }

    #[test]
    fn spawned_counts_every_pushed_job() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let before = pool.stats().spawned;
        pool.install(|| {
            scope(|s| {
                for _ in 0..5 {
                    s.spawn(|_| {});
                }
            });
            // A scope that spawns nothing pushes nothing.
            scope(|_| {});
        });
        assert_eq!(pool.stats().spawned - before, 6, "one install job plus five scope tasks");
    }

    #[test]
    fn non_worker_submissions_route_through_the_overflow_injector() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let before = pool.stats().overflow;
        // `install` from a non-worker thread pushes its one job from
        // outside the pool — the injector path by construction.
        assert_eq!(pool.install(|| 41 + 1), 42);
        assert!(pool.stats().overflow > before, "non-worker submit must count as overflow");
    }

    #[test]
    fn deque_overflow_spills_to_injector_and_completes() {
        // One worker, fan-out far beyond DEQUE_CAPACITY: the spawning
        // worker's deque fills and the rest must spill to the injector
        // without losing a single task.
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let counter = AtomicUsize::new(0);
        let n = DEQUE_CAPACITY * 3;
        pool.install(|| {
            scope(|s| {
                for _ in 0..n {
                    let counter = &counter;
                    s.spawn(move |_| {
                        // ordering(Relaxed): test tally; scope exit synchronizes
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        // ordering(Relaxed): read after scope join, no concurrent writers
        assert_eq!(counter.load(Ordering::Relaxed), n);
        assert!(pool.stats().overflow > 0, "fan-out past capacity must hit the injector");
    }
}
