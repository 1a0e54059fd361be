//! Runtime lock-order detector: per-thread acquisition stacks and a
//! deterministic panic on hierarchy inversion.
//!
//! Every lock in the workspace belongs to a [`LockClass`] with a
//! numeric rank; a thread must acquire locks in strictly increasing
//! rank order. The full hierarchy is declared in
//! `crates/lint/src/manifest.rs` (`LOCK_HIERARCHY`) and cross-checked
//! against the `LockClass::new` declarations by `ipregel-lint`, so the
//! static table and the runtime classes cannot drift apart.
//!
//! The detector mirrors the `trace` feature pattern: the types in this
//! module are always compiled (so call sites need no `cfg`), but with
//! the `lock-order` cargo feature off every hook is an empty
//! `#[inline(always)]` function and [`Held`] is a zero-sized token —
//! default builds are byte-for-byte unchanged. With the feature on,
//! [`acquire`] checks the calling thread's held-lock stack and panics
//! with *both* acquisition stacks (the stack held at the violation and
//! the acquiring class, plus captured backtraces when
//! `IPREGEL_LOCK_ORDER_BACKTRACE=1`) before the thread can block — a
//! TSan-style deadlock detector that runs offline, deterministically,
//! in an ordinary `cargo test`.
//!
//! Why strict (`<`, not `<=`): two locks of the *same* class acquired
//! nested (mailbox A held while locking mailbox B) deadlock just as
//! well as an inverted pair, so same-rank nesting is an error too.
//! Code that needs two same-class locks must take them through a
//! higher-level protocol (none does today).

#![forbid(unsafe_code)]

use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError, TryLockError, TryLockResult};

// Re-exported so downstream crates can pair a condvar with an
// `OrderedMutex` (via `OrderedGuard::wait_on`) without naming
// `std::sync` directly — the workspace linter bans raw std-sync
// primitives outside this file and its allowlist.
pub use std::sync::Condvar as OrderedCondvar;

/// A named rank in the global lock hierarchy.
///
/// Declared once per lock family as a `pub const`; the linter collects
/// every `LockClass::new(<rank>, "<name>")` declaration and checks the
/// set against its `LOCK_HIERARCHY` manifest.
#[derive(Debug)]
pub struct LockClass {
    rank: u16,
    name: &'static str,
}

impl LockClass {
    /// Declare a class. `rank` orders acquisitions: lower ranks must be
    /// taken first.
    pub const fn new(rank: u16, name: &'static str) -> Self {
        LockClass { rank, name }
    }

    /// Position in the hierarchy (lower = acquired earlier).
    pub const fn rank(&self) -> u16 {
        self.rank
    }

    /// Stable name, as listed in the lint manifest.
    pub const fn name(&self) -> &'static str {
        self.name
    }
}

/// Classes of the locks owned by this crate (the pool substrate).
///
/// Pool locks rank below every client class. The one nesting inside the
/// runtime is downward-closed in this table: a helping worker checks its
/// scope latch while holding `pool.state` (`state → latch`). Client code
/// never runs while any pool lock is held — jobs are popped, the guard
/// dropped, and only then executed.
pub mod classes {
    use super::LockClass;

    /// The pool's job queue, counters, idle count and shutdown flag
    /// (`PoolInner::state`).
    pub const POOL_STATE: LockClass = LockClass::new(10, "pool.state");
    /// A scope latch's pending-task counter (`ScopeLatch::pending`).
    pub const POOL_LATCH: LockClass = LockClass::new(20, "pool.latch");
    /// A scope latch's first-panic slot (`ScopeLatch::panic`).
    pub const POOL_PANIC: LockClass = LockClass::new(25, "pool.panic");
    /// Result slots of `install`/`join`/chunked consumers. Never held
    /// while client code runs: results are computed first and only then
    /// stored under the lock.
    pub const POOL_RESULT: LockClass = LockClass::new(30, "pool.result");
}

#[cfg(feature = "lock-order")]
mod armed {
    use super::LockClass;
    use std::backtrace::Backtrace;
    use std::cell::RefCell;

    pub(super) struct Entry {
        pub(super) class: &'static LockClass,
        pub(super) id: u64,
        pub(super) backtrace: Option<Backtrace>,
    }

    thread_local! {
        pub(super) static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
        pub(super) static NEXT_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn capture_backtraces() -> bool {
        static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *ENABLED.get_or_init(|| {
            std::env::var("IPREGEL_LOCK_ORDER_BACKTRACE").is_ok_and(|v| v == "1")
        })
    }

    pub(super) fn format_stack(held: &[Entry]) -> String {
        held.iter()
            .map(|e| format!("{} (rank {})", e.class.name(), e.class.rank()))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Proof that the calling thread recorded an acquisition; dropping it
/// pops the entry. Zero-sized (and [`acquire`] is a no-op) unless the
/// `lock-order` feature is enabled.
#[must_use = "the token must live as long as the lock is held"]
#[derive(Debug)]
pub struct Held {
    #[cfg(feature = "lock-order")]
    id: u64,
}

#[cfg(feature = "lock-order")]
impl Drop for Held {
    fn drop(&mut self) {
        armed::HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards can drop out of stack order; remove by id, scanning
            // from the top (the common LIFO case hits immediately).
            if let Some(pos) = held.iter().rposition(|e| e.id == self.id) {
                held.remove(pos);
            }
        });
    }
}

/// Record an acquisition of `class` on this thread, panicking if any
/// held lock has a rank ≥ `class`'s (a hierarchy inversion: some other
/// thread taking the same two locks in the declared order deadlocks
/// against us). Call *before* blocking on the lock so the inversion is
/// reported instead of hung.
#[inline(always)]
pub fn acquire(class: &'static LockClass) -> Held {
    #[cfg(feature = "lock-order")]
    {
        armed::HELD.with(|held| {
            let held = held.borrow();
            if let Some(conflict) = held.iter().find(|e| e.class.rank() >= class.rank()) {
                let mut msg = format!(
                    "lock-order inversion: acquiring `{}` (rank {}) while holding `{}` (rank {}); \
                     held stack: [{}]",
                    class.name(),
                    class.rank(),
                    conflict.class.name(),
                    conflict.class.rank(),
                    armed::format_stack(&held),
                );
                if let Some(bt) = &conflict.backtrace {
                    msg.push_str(&format!(
                        "\n--- acquisition stack of held `{}`:\n{bt}\n--- acquisition stack of `{}`:\n{}",
                        conflict.class.name(),
                        class.name(),
                        std::backtrace::Backtrace::force_capture(),
                    ));
                } else {
                    msg.push_str(
                        "\n(set IPREGEL_LOCK_ORDER_BACKTRACE=1 to capture both acquisition backtraces)",
                    );
                }
                panic!("{msg}");
            }
        });
        Held { id: record(class) }
    }
    #[cfg(not(feature = "lock-order"))]
    {
        let _ = class;
        Held {}
    }
}

/// Record a *non-blocking* acquisition (`try_lock`) of `class`. A
/// failed `try_lock` cannot deadlock, so no ordering check is made —
/// but the acquisition is still pushed so later blocking acquisitions
/// are checked against it.
#[inline(always)]
pub fn acquire_try(class: &'static LockClass) -> Held {
    #[cfg(feature = "lock-order")]
    {
        Held { id: record(class) }
    }
    #[cfg(not(feature = "lock-order"))]
    {
        let _ = class;
        Held {}
    }
}

#[cfg(feature = "lock-order")]
fn record(class: &'static LockClass) -> u64 {
    let id = armed::NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    });
    let backtrace = armed::capture_backtraces()
        .then(std::backtrace::Backtrace::force_capture);
    armed::HELD.with(|held| {
        held.borrow_mut().push(armed::Entry { class, id, backtrace });
    });
    id
}

/// Number of lock acquisitions the calling thread currently holds
/// (always 0 with the feature off). Exposed for the detector's own
/// tests: a drained stack proves tokens pair with releases.
pub fn held_count() -> usize {
    #[cfg(feature = "lock-order")]
    {
        armed::HELD.with(|held| held.borrow().len())
    }
    #[cfg(not(feature = "lock-order"))]
    {
        0
    }
}

/// A [`std::sync::Mutex`] bound to a [`LockClass`]: every `lock` runs
/// the hierarchy check and the guard carries the [`Held`] token, so the
/// recorded hold window exactly matches the real one.
///
/// With the `lock-order` feature off this is a layout-transparent
/// wrapper (no class field, no token) — the §6 lock-size measurements
/// and `memmodel`'s byte accounting are unchanged.
pub struct OrderedMutex<T> {
    inner: Mutex<T>,
    #[cfg(feature = "lock-order")]
    class: &'static LockClass,
}

impl<T> OrderedMutex<T> {
    /// A new unlocked mutex of the given class.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        #[cfg(not(feature = "lock-order"))]
        let _ = class;
        OrderedMutex {
            inner: Mutex::new(value),
            #[cfg(feature = "lock-order")]
            class,
        }
    }

    /// Blocking lock; checks the hierarchy before blocking.
    pub fn lock(&self) -> LockResult<OrderedGuard<'_, T>> {
        #[cfg(feature = "lock-order")]
        let held = acquire(self.class);
        #[cfg(not(feature = "lock-order"))]
        let held = Held {};
        match self.inner.lock() {
            Ok(inner) => Ok(OrderedGuard { _held: held, inner }),
            Err(poisoned) => {
                Err(PoisonError::new(OrderedGuard { _held: held, inner: poisoned.into_inner() }))
            }
        }
    }

    /// Non-blocking lock; records but (being unable to deadlock) does
    /// not enforce the hierarchy.
    pub fn try_lock(&self) -> TryLockResult<OrderedGuard<'_, T>> {
        #[cfg(feature = "lock-order")]
        let held = acquire_try(self.class);
        #[cfg(not(feature = "lock-order"))]
        let held = Held {};
        match self.inner.try_lock() {
            Ok(inner) => Ok(OrderedGuard { _held: held, inner }),
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            Err(TryLockError::Poisoned(poisoned)) => Err(TryLockError::Poisoned(PoisonError::new(
                OrderedGuard { _held: held, inner: poisoned.into_inner() },
            ))),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("OrderedMutex");
        #[cfg(feature = "lock-order")]
        d.field("class", &self.class.name());
        d.finish_non_exhaustive()
    }
}

/// Guard of an [`OrderedMutex`]: the inner [`MutexGuard`] plus the
/// hierarchy token, released together.
#[derive(Debug)]
pub struct OrderedGuard<'a, T> {
    _held: Held,
    inner: MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<'a, T> OrderedGuard<'a, T> {
    /// `Condvar::wait` for ordered guards: releases the inner lock for
    /// the wait and re-couples the hierarchy token to the re-acquired
    /// guard. The token stays recorded across the wait — the thread is
    /// blocked, so it cannot trip the checker meanwhile, and on wakeup
    /// it once again truly holds the lock.
    pub fn wait_on(self, cv: &Condvar) -> LockResult<OrderedGuard<'a, T>> {
        let OrderedGuard { _held, inner } = self;
        match cv.wait(inner) {
            Ok(inner) => Ok(OrderedGuard { _held, inner }),
            Err(poisoned) => {
                Err(PoisonError::new(OrderedGuard { _held, inner: poisoned.into_inner() }))
            }
        }
    }

    /// `Condvar::wait_timeout` for ordered guards: same token
    /// re-coupling as [`OrderedGuard::wait_on`], plus the timeout flag
    /// so callers can bound how long they block (the server's batch
    /// former waits out its collection window this way).
    pub fn wait_timeout_on(
        self,
        cv: &Condvar,
        dur: std::time::Duration,
    ) -> LockResult<(OrderedGuard<'a, T>, std::sync::WaitTimeoutResult)> {
        let OrderedGuard { _held, inner } = self;
        match cv.wait_timeout(inner, dur) {
            Ok((inner, timed_out)) => Ok((OrderedGuard { _held, inner }, timed_out)),
            Err(poisoned) => {
                let (inner, timed_out) = poisoned.into_inner();
                Err(PoisonError::new((OrderedGuard { _held, inner }, timed_out)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ordering note for the reader: these tests only exercise the
    // detector machinery itself; real hierarchy tests live in the
    // root-crate `lock_order` integration suite.

    #[test]
    fn ordered_mutex_locks_and_unlocks() {
        let m = OrderedMutex::new(&classes::POOL_RESULT, 5u32);
        // lock-order(pool.result)
        *m.lock().expect("poisoned") += 1;
        // lock-order(pool.result)
        assert_eq!(*m.lock().expect("poisoned"), 6);
        assert_eq!(held_count(), 0, "tokens must pair with releases");
    }

    #[test]
    fn try_lock_contended_reports_would_block() {
        let m = OrderedMutex::new(&classes::POOL_RESULT, ());
        // lock-order(pool.result)
        let g = m.lock().expect("poisoned");
        // lock-order(pool.result)
        assert!(matches!(m.try_lock(), Err(TryLockError::WouldBlock)));
        drop(g);
        // lock-order(pool.result)
        assert!(m.try_lock().is_ok());
        assert_eq!(held_count(), 0);
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn ascending_ranks_are_accepted() {
        let a = OrderedMutex::new(&classes::POOL_STATE, ());
        let b = OrderedMutex::new(&classes::POOL_LATCH, ());
        // lock-order(pool.state)
        let ga = a.lock().expect("poisoned");
        // lock-order(pool.latch)
        let gb = b.lock().expect("poisoned");
        assert_eq!(held_count(), 2);
        drop(gb);
        drop(ga);
        assert_eq!(held_count(), 0);
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn descending_ranks_panic_naming_both_locks() {
        let result = std::panic::catch_unwind(|| {
            let hi = OrderedMutex::new(&classes::POOL_RESULT, ());
            let lo = OrderedMutex::new(&classes::POOL_STATE, ());
            // lock-order(pool.result)
            let _g_hi = hi.lock().expect("poisoned");
            // lock-order(pool.state)
            let _g_lo = lo.lock().expect("poisoned");
        });
        let payload = result.expect_err("inversion must panic");
        let msg = payload.downcast_ref::<String>().expect("string panic message");
        assert!(msg.contains("pool.result"), "panic must name the held lock: {msg}");
        assert!(msg.contains("pool.state"), "panic must name the acquired lock: {msg}");
        assert_eq!(held_count(), 0, "unwinding must drain the stack");
    }

    #[cfg(feature = "lock-order")]
    #[test]
    fn same_rank_nesting_panics() {
        let result = std::panic::catch_unwind(|| {
            let a = OrderedMutex::new(&classes::POOL_STATE, ());
            let b = OrderedMutex::new(&classes::POOL_STATE, ());
            // lock-order(pool.state)
            let _ga = a.lock().expect("poisoned");
            // lock-order(pool.state)
            let _gb = b.lock().expect("poisoned");
        });
        assert!(result.is_err(), "same-class nesting is a deadlock pattern");
        assert_eq!(held_count(), 0);
    }
}
