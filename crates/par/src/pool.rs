//! The in-tree scoped thread pool: one job queue, one lock, one condvar.
//!
//! One [`PoolInner`] owns a set of worker OS threads and a single
//! `VecDeque` of queued jobs held inside its `pool.state` mutex. `push`
//! appends at the back. A worker *helping* inside [`scope`] or [`join`]
//! takes the newest job (the back: depth-first, cache-warm); an *idle*
//! worker takes the oldest (the front). When one orchestrator spawns
//! every chunk of a region on a two-worker pool — the engines' only
//! pattern — that is exactly the owner-LIFO / thief-FIFO order of a
//! work-stealing deque, without per-worker queues. The paper's runtime
//! is a plain OpenMP loop with no stealing at all, and a region here is
//! at most `threads × 8` chunk jobs, so one short critical section per
//! push and per pop is nowhere near contention.
//!
//! Workers carry a stable index `0..num_threads` published through a
//! thread-local, which is the contract the sharded
//! [`Tracer`](../../core/src/trace.rs) and `Worklist::with_shards`
//! depend on: *while a closure runs on worker `i`,
//! [`current_thread_index`] returns `Some(i)`, indices are unique within
//! the pool, and they never change for the lifetime of the pool.*
//!
//! # Determinism: execution is not reduction
//!
//! Which worker runs which job is timing-dependent, and that is the
//! point — an idle worker takes the next chunk off a busy one. What
//! stays deterministic is everything results flow through: the chunk
//! plan is a pure function of `(len, thread count)` (see `iter.rs`),
//! each chunk writes its partial result into a slot indexed by chunk
//! id, and the caller folds the slots sequentially in chunk order. Any
//! worker may execute any chunk; the reduction tree never changes, so
//! f64 sums are bit-identical run to run at a fixed thread count.
//! `crates/par/tests/pool_contract.rs` pins this with chunks forced
//! onto other workers.
//!
//! # Parking (why no wakeup is lost)
//!
//! Check-then-wait under one lock: a worker with nothing to run finds
//! the queue empty, increments the idle count and waits on the pool's
//! condvar without releasing `pool.state` in between; `push` appends
//! and reads the idle count under that same lock and notifies one
//! waiter when it is non-zero. "The queue was empty when I looked" and
//! "nobody was idle when I pushed" therefore cannot both hold. Every
//! woken worker re-checks the queue — except a helper whose own scope
//! completed meanwhile, which returns without taking the job; but that
//! completion is followed by `finish_task`'s `notify_all`, which wakes
//! every waiter. `pool_contract.rs` runs thousands of tiny rounds on
//! 1-, 2- and 4-thread pools under a watchdog to hold this.
//!
//! # Scopes and panics
//!
//! [`scope`] collects tasks spawned via [`Scope::spawn`] and does not
//! return until every one of them has completed. Each task runs under
//! `catch_unwind`; the first captured payload is resumed on the caller
//! once the scope is complete, so a panicking task never takes a worker
//! thread down — the pool survives and sibling tasks drain normally,
//! whichever worker ran the panicking chunk. This is what lets the
//! engines' chunk-level `catch_unwind` isolation
//! (`RunError::VertexPanic`) keep working unchanged on the in-tree pool:
//! the engines catch inside the task, so the pool-level capture is a
//! second line of defence, not the primary mechanism.
//!
//! # Nested scopes: supported
//!
//! A worker that blocks in [`scope`] (or [`join`]) *helps*: it executes
//! queued jobs while it waits. Nested `scope` calls from inside a task
//! therefore cannot deadlock, even on a one-thread pool. Non-worker
//! threads never execute tasks (their `current_thread_index` is `None`,
//! so executing engine work there would bypass the worker-shard
//! routing); they park on the scope's latch instead.
//!
//! # Safety model
//!
//! The only `unsafe` in this crate is lifetime erasure of scoped task
//! closures (and of the closure passed to [`ThreadPool::install`]): a
//! `Box<dyn FnOnce() + Send + 'scope>` is transmuted to `'static` so it
//! can sit in the queue. The erasure is sound because the scope (or
//! `install`) blocks until the task's completion latch fires —
//! including on the panic path — so no borrow captured by the closure
//! can be outlived. `tests/pool_contract.rs` exercises the contract
//! (including panics in chunks run by other workers and borrow-heavy
//! workloads) and the suite runs under Miri via `tools/miri-test.sh`.

use crate::lockorder::{classes, OrderedGuard, OrderedMutex};

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, OnceLock};
use std::thread::JoinHandle;

/// A queued task, lifetime-erased (see the module-level safety model).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Scheduling counters of one pool, cumulative since construction.
///
/// Snapshot with [`ThreadPool::stats`] or [`current_pool_stats`];
/// deltas across a parallel region are what the engines report per
/// superstep (the `pool` trace event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs run by a worker other than the one that queued them.
    pub steals: u64,
    /// Jobs queued from off the pool: `install` from a thread that is
    /// not one of its workers, or a scope opened outside any pool.
    pub overflow: u64,
    /// Jobs queued — every `Scope::spawn` and `install`. A parallel
    /// region that ran inline on its caller adds nothing here, so a
    /// delta of zero across a region means it boxed no job and woke
    /// nobody.
    pub spawned: u64,
}

/// Shared state of one pool.
struct PoolInner {
    /// The job queue, the counters and the shutdown flag.
    state: OrderedMutex<PoolState>,
    /// Signalled on job arrival (when a worker is parked), scope
    /// completion, and shutdown.
    cv: Condvar,
    num_threads: usize,
}

struct PoolState {
    /// Queued jobs, each with the index of the worker that queued it
    /// (`None` when it came from off the pool).
    jobs: VecDeque<(Job, Option<usize>)>,
    /// Workers parked on `cv`, idle or waiting out a scope.
    idle: usize,
    stats: PoolStats,
    shutdown: bool,
}

impl PoolState {
    /// Take a job for worker `index`: the newest while it helps inside a
    /// scope, the oldest while it is idle.
    fn pop(&mut self, index: usize, helping: bool) -> Option<Job> {
        let (job, origin) = if helping { self.jobs.pop_back() } else { self.jobs.pop_front() }?;
        if origin.is_some_and(|o| o != index) {
            self.stats.steals += 1;
        }
        Some(job)
    }
}

/// Wait on `cv` until notified, counted as idle meanwhile.
fn park<'a>(mut st: OrderedGuard<'a, PoolState>, cv: &Condvar) -> OrderedGuard<'a, PoolState> {
    st.idle += 1;
    let mut st = st.wait_on(cv).expect("pool state poisoned");
    st.idle -= 1;
    st
}

impl PoolInner {
    /// Queue a job at the back and wake one parked worker, if any.
    fn push(&self, job: Job) {
        let origin = match current_worker() {
            Some((pool, index)) if std::ptr::eq(pool, self) => Some(index),
            _ => None,
        };
        // lock-order(pool.state)
        let mut st = self.state.lock().expect("pool state poisoned");
        st.stats.spawned += 1;
        st.stats.overflow += u64::from(origin.is_none());
        st.jobs.push_back((job, origin));
        if st.idle > 0 {
            self.cv.notify_one();
        }
    }

    /// Wake every parked worker (scope completed, so helpers waiting on
    /// it can return). Notifying under the state lock is what makes it
    /// lossless: a helper holds that lock from its done-check until it
    /// is inside `Condvar::wait`.
    fn wake_all(&self) {
        // lock-order(pool.state)
        let _guard = self.state.lock().expect("pool state poisoned");
        self.cv.notify_all();
    }

    /// Cumulative counters.
    fn stats(&self) -> PoolStats {
        // lock-order(pool.state)
        self.state.lock().expect("pool state poisoned").stats
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

    /// Worker-side wait: run queued jobs, newest first, until the latch
    /// fires; park when there are none.
    ///
    /// The done-check happens while the pool's state lock is held, and
    /// `finish_task`'s final wakeup (`wake_all`) notifies *under* that
    /// same lock — so "latch fires between our check and `cv.wait`"
    /// cannot be missed: the finisher blocks on the lock until we are
    /// inside the wait.
    fn wait_helping(&self, index: usize) {
        let pool = &*self.pool;
        // lock-order(pool.state) — `is_done` below then nests pool.latch
        // inside pool.state (10 → 20), one of the runtime's declared
        // nestings.
        let mut st = pool.state.lock().expect("pool state poisoned");
        while !self.is_done() {
            match st.pop(index, true) {
                Some(job) => {
                    drop(st);
                    job();
                    // lock-order(pool.state)
                    st = pool.state.lock().expect("pool state poisoned");
                }
                None => st = park(st, &pool.cv),
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

/// Scheduling counters of the current pool: the worker's own pool on a
/// worker thread, the global pool elsewhere. The engines snapshot this
/// around each superstep's parallel region and report the delta
/// (`LoadStats::steals`/`overflow`, the `pool` trace event).
pub fn current_pool_stats() -> PoolStats {
    match current_worker() {
        Some((pool, _)) => pool.stats(),
        None => global().inner.stats(),
    }
}

/// The size the global pool is built with: `IPREGEL_PAR_THREADS` when
/// it parses to a positive count, else `available_parallelism`. Reads
/// the environment only — it never builds the global pool — so a caller
/// can split the machine between pools of its own without starting it.
pub fn default_num_threads() -> usize {
    std::env::var("IPREGEL_PAR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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
            state: OrderedMutex::new(
                &classes::POOL_STATE,
                PoolState {
                    jobs: VecDeque::new(),
                    idle: 0,
                    stats: PoolStats::default(),
                    shutdown: false,
                },
            ),
            cv: Condvar::new(),
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
    // lock-order(pool.state)
    let mut st = pool.state.lock().expect("pool state poisoned");
    loop {
        if let Some(job) = st.pop(index, false) {
            // Jobs never run under the lock. They are panic-wrapped at
            // spawn time (the payload lands in the scope latch); a stray
            // panic from the wrapper itself would still only kill this
            // one worker, not the pool.
            drop(st);
            job();
            // lock-order(pool.state)
            st = pool.state.lock().expect("pool state poisoned");
        } else if st.shutdown {
            return;
        } else {
            st = park(st, &pool.cv);
        }
    }
}

/// An owned pool with a fixed number of worker threads.
///
/// Dropping the pool shuts the workers down after the queue drains;
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

    /// Cumulative scheduling counters of this pool.
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
            // only lets the box sit in the queue meanwhile.
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
            // Notify under the state lock: a worker between its queue
            // check and its `Condvar::wait` still holds the lock, so
            // this notify cannot slip past it.
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
    /// Queue `body` on the scope's pool.
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
        self.latch.pool.push(job);
    }
}

/// Run `op` with a [`Scope`] on the current pool (the global pool when
/// called from outside any pool) and wait for every spawned task.
///
/// `op` itself runs on the calling thread; tasks run on pool workers. A
/// worker blocked here helps drain the queue (see the module docs —
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
    fn a_helping_worker_runs_the_newest_job_first() {
        // The lone worker is inside `install`, so it runs the scope's
        // jobs itself while it waits on the scope: newest first.
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let order = OrderedMutex::new(&classes::POOL_RESULT, Vec::new());
        pool.install(|| {
            scope(|s| {
                for i in 0..4 {
                    let order = &order;
                    // lock-order(pool.result)
                    s.spawn(move |_| order.lock().unwrap().push(i));
                }
            });
        });
        // lock-order(pool.result)
        assert_eq!(*order.lock().unwrap(), [3, 2, 1, 0]);
    }

    #[test]
    fn an_idle_worker_runs_the_oldest_job_first() {
        // The lone worker is held busy while three `install`s queue up
        // behind it in a known order; released, it drains them oldest
        // first.
        let pool = &ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let order = OrderedMutex::new(&classes::POOL_RESULT, Vec::new());
        let (release, held) = std::sync::mpsc::channel::<()>();
        let queued = |n: u64| {
            while pool.stats().spawned < n {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| pool.install(move || held.recv().unwrap()));
            queued(1);
            for i in 0..3 {
                let order = &order;
                // lock-order(pool.result)
                s.spawn(move || pool.install(|| order.lock().unwrap().push(i)));
                queued(2 + i);
            }
            release.send(()).unwrap();
        });
        // lock-order(pool.result)
        assert_eq!(*order.lock().unwrap(), [0, 1, 2]);
    }

    #[test]
    fn steals_are_counted_when_idle_workers_drain_a_spawner() {
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
        // All 64 tasks are queued by the installing worker; the other
        // three workers running any of them count as steals.
        assert!(
            after.steals > before.steals,
            "64 slow tasks from one worker must produce at least one steal: {after:?}"
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
    fn only_off_pool_submissions_count_as_overflow() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let before = pool.stats().overflow;
        // `install` from a non-worker thread queues its one job from
        // off the pool; the scope inside it queues from a worker.
        pool.install(|| {
            scope(|s| {
                for _ in 0..5 {
                    s.spawn(|_| {});
                }
            });
        });
        assert_eq!(pool.stats().overflow - before, 1, "only the install came from off the pool");
    }
}
