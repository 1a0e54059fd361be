//! Synchronisation shim: `std` primitives normally, [loom] under
//! `--cfg loom`.
//!
//! Every atomic, lock, and interior-mutability cell used by the
//! concurrency core (the spinlock, the three mailboxes, the epoch tags,
//! the push partials) is imported from this module rather than from `std` directly. A
//! normal build re-exports the `std` types at zero cost; compiling the
//! workspace with `RUSTFLAGS="--cfg loom"` swaps in loom's
//! model-checked doubles, and `crates/core/tests/loom.rs` then
//! exhaustively explores the interleavings of the key protocols
//! (spinlock mutual exclusion, the mailbox empty→occupied transition
//! the selection bypass relies on, lock-free combining).
//!
//! Two deliberate deviations from a plain re-export:
//!
//! * [`cell::UnsafeCell`] exposes loom's closure-based `with` /
//!   `with_mut` API in both modes, because loom tracks each access and
//!   therefore cannot offer `std`'s bare `get()`. The std version is
//!   `#[repr(transparent)]` and compiles to the same code as a raw
//!   `std::cell::UnsafeCell` access.
//! * `sync_cell::SharedSlice` is *not* expressed in terms of this
//!   module's cell: it is built by viewing a `&mut [T]` in place, and
//!   loom's `UnsafeCell` is not layout-compatible with `T`. It uses a
//!   raw-pointer representation instead (sound under Stacked Borrows,
//!   compiles unchanged under loom) and is covered by the
//!   `check-disjoint` dynamic checker plus Miri/TSan rather than by
//!   loom.
//!
//! [loom]: https://docs.rs/loom

/// Atomic integer and boolean types plus memory orderings.
#[cfg(not(loom))]
pub mod atomic {
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Atomic integer and boolean types plus memory orderings (loom doubles).
#[cfg(loom)]
pub mod atomic {
    pub use loom::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

#[cfg(not(loom))]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(loom)]
pub use loom::sync::{Mutex, MutexGuard};

/// Busy-wait hinting.
pub mod hint {
    /// Emit a spin-loop hint; under loom this yields to the model's
    /// scheduler instead (a tight spin would never let the model make
    /// progress on the other thread).
    #[inline]
    pub fn spin_loop() {
        #[cfg(not(loom))]
        std::hint::spin_loop();
        #[cfg(loom)]
        loom::thread::yield_now();
    }
}

/// Interior mutability with loom-compatible access tracking.
pub mod cell {
    /// An [`std::cell::UnsafeCell`] (or loom's checked double) behind
    /// loom's closure-based access API.
    ///
    /// `with` grants a read pointer, `with_mut` a write pointer; the
    /// pointer must not escape the closure. Dereferencing is still
    /// `unsafe` — the caller owns the no-concurrent-conflicting-access
    /// argument — but under loom every `with`/`with_mut` is recorded,
    /// so an unsound argument fails the model instead of being UB.
    #[cfg(not(loom))]
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    #[cfg(not(loom))]
    impl<T> UnsafeCell<T> {
        /// A new cell owning `data`.
        pub const fn new(data: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(data))
        }

        /// Run `f` with a read pointer to the contents.
        #[inline]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Run `f` with a write pointer to the contents.
        #[inline]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }

        /// The contents, through an exclusive borrow of the cell: no
        /// other access can be live, so none needs tracking.
        #[inline]
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut()
        }
    }

    /// Loom's checked cell behind the same API.
    #[cfg(loom)]
    #[derive(Debug)]
    pub struct UnsafeCell<T>(loom::cell::UnsafeCell<T>);

    #[cfg(loom)]
    impl<T> UnsafeCell<T> {
        /// A new cell owning `data`.
        pub fn new(data: T) -> Self {
            UnsafeCell(loom::cell::UnsafeCell::new(data))
        }

        /// Run `f` with a read pointer to the contents (tracked).
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            self.0.with(f)
        }

        /// Run `f` with a write pointer to the contents (tracked).
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            self.0.with_mut(f)
        }

        /// The contents, through an exclusive borrow of the cell.
        pub fn get_mut(&mut self) -> &mut T {
            // SAFETY: `&mut self` rules out every other access for the
            // returned borrow's lifetime, tracked or not.
            self.0.with_mut(|p| unsafe { &mut *p })
        }
    }
}

/// Lock-hierarchy instrumentation: this crate's lock classes plus an
/// [`OrderedMutex`](lockorder::OrderedMutex) over the *shim* mutex, so
/// loom models of mutex-based protocols keep working unchanged.
///
/// The detector itself lives in `ipregel_par::lockorder` (the lowest
/// layer — pool locks rank below everything here); this module
/// re-exports its API and declares the classes of every lock the core
/// crate owns. The full hierarchy is mirrored in
/// `crates/lint/src/manifest.rs` (`LOCK_HIERARCHY`) and `ipregel-lint`
/// cross-checks the two, so rank edits cannot drift past the manifest.
pub mod lockorder {
    pub use ipregel_par::lockorder::{acquire, acquire_try, held_count, Held, LockClass};

    /// Whether the runtime lock-order detector is compiled in. Lets
    /// downstream crates (which see this crate's resolved features, not
    /// their own) skip size assertions the detector's bookkeeping
    /// fields would invalidate.
    pub const fn armed() -> bool {
        cfg!(feature = "lock-order")
    }

    /// Every lock class the workspace declares, pool classes included.
    pub mod classes {
        pub use ipregel_par::lockorder::classes::{POOL_LATCH, POOL_PANIC, POOL_RESULT, POOL_STATE};

        use super::LockClass;

        /// Serialises the chaos unit tests around the process-global
        /// plan (test-only; ranks just below `chaos.active` because its
        /// holder arms/evaluates the plan).
        pub const CHAOS_TEST: LockClass = LockClass::new(33, "chaos.test");
        /// The chaos registry's active-plan slot (`chaos::ACTIVE`).
        pub const CHAOS_ACTIVE: LockClass = LockClass::new(35, "chaos.active");
        /// A tracer's event log (`Tracer::log`).
        pub const TRACER_LOG: LockClass = LockClass::new(60, "tracer.log");
        /// A `MutexMailbox` message slot (`MutexMailbox::slot`).
        pub const MAILBOX_SLOT: LockClass = LockClass::new(70, "mailbox.slot");
        /// A `SpinMailbox` spinlock (`mailbox::spin::SpinLock`).
        /// Mailbox classes rank highest: a vertex program may send
        /// (locking a mailbox) from inside any engine context, so no
        /// other lock may ever be taken *under* a mailbox lock.
        pub const MAILBOX_SPIN: LockClass = LockClass::new(80, "mailbox.spin");
    }

    /// The shim-mutex counterpart of
    /// [`ipregel_par::lockorder::OrderedMutex`]: same hierarchy check,
    /// but wrapping [`crate::sync::Mutex`] so that under `--cfg loom`
    /// the inner lock is loom's model-checked double.
    pub struct OrderedMutex<T> {
        inner: super::Mutex<T>,
        #[cfg(feature = "lock-order")]
        class: &'static LockClass,
    }

    impl<T> OrderedMutex<T> {
        /// A new unlocked mutex of the given class.
        #[cfg(not(loom))]
        pub const fn new(class: &'static LockClass, value: T) -> Self {
            #[cfg(not(feature = "lock-order"))]
            let _ = class;
            OrderedMutex {
                inner: super::Mutex::new(value),
                #[cfg(feature = "lock-order")]
                class,
            }
        }

        /// A new unlocked mutex of the given class (loom's constructor
        /// is not `const`).
        #[cfg(loom)]
        pub fn new(class: &'static LockClass, value: T) -> Self {
            #[cfg(not(feature = "lock-order"))]
            let _ = class;
            OrderedMutex {
                inner: super::Mutex::new(value),
                #[cfg(feature = "lock-order")]
                class,
            }
        }

        /// Blocking lock; checks the hierarchy before blocking.
        pub fn lock(&self) -> std::sync::LockResult<OrderedGuard<'_, T>> {
            #[cfg(feature = "lock-order")]
            let held = acquire(self.class);
            #[cfg(not(feature = "lock-order"))]
            let held = no_op_token();
            match self.inner.lock() {
                Ok(inner) => Ok(OrderedGuard { _held: held, inner }),
                Err(poisoned) => Err(std::sync::PoisonError::new(OrderedGuard {
                    _held: held,
                    inner: poisoned.into_inner(),
                })),
            }
        }

        /// Run `f` on the value without locking: `&mut self` already
        /// rules out every other holder, so there is nothing to order
        /// against. (Loom's mutex has no `get_mut`; there an uncontended
        /// `lock` stands in.)
        ///
        /// # Panics
        /// If an earlier holder panicked, as the `lock().expect(..)` call
        /// sites do.
        #[inline]
        pub fn with_mut<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
            #[cfg(not(loom))]
            {
                f(self.inner.get_mut().expect("lock poisoned"))
            }
            #[cfg(loom)]
            {
                f(&mut self.inner.lock().expect("lock poisoned"))
            }
        }

        /// Non-blocking lock; records but (being unable to deadlock)
        /// does not enforce the hierarchy.
        pub fn try_lock(&self) -> std::sync::TryLockResult<OrderedGuard<'_, T>> {
            use std::sync::{PoisonError, TryLockError};
            #[cfg(feature = "lock-order")]
            let held = acquire_try(self.class);
            #[cfg(not(feature = "lock-order"))]
            let held = no_op_token();
            match self.inner.try_lock() {
                Ok(inner) => Ok(OrderedGuard { _held: held, inner }),
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
                Err(TryLockError::Poisoned(poisoned)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(OrderedGuard {
                        _held: held,
                        inner: poisoned.into_inner(),
                    })))
                }
            }
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

    /// The feature-off [`Held`] token (zero-sized; `acquire` is not
    /// called so the detector's thread-local stays untouched).
    #[cfg(not(feature = "lock-order"))]
    fn no_op_token() -> Held {
        // acquire() with the feature off is an inlined no-op returning
        // the empty token; routing through it keeps `Held` construction
        // in one place.
        acquire(&classes::MAILBOX_SPIN)
    }

    /// Guard of an [`OrderedMutex`]: the shim guard plus the hierarchy
    /// token, released together.
    #[derive(Debug)]
    pub struct OrderedGuard<'a, T> {
        _held: Held,
        inner: super::MutexGuard<'a, T>,
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
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::atomic::{AtomicU32, Ordering};
    use super::cell::UnsafeCell;

    #[test]
    fn shim_atomics_are_std_atomics() {
        let a = AtomicU32::new(1);
        // ordering(Release): smoke test of the shim's re-export only
        a.store(7, Ordering::Release);
        // ordering(Acquire): pairs with the Release store above
        assert_eq!(a.load(Ordering::Acquire), 7);
        assert_eq!(std::mem::size_of::<AtomicU32>(), 4);
    }

    #[test]
    fn cell_with_and_with_mut_round_trip() {
        let c = UnsafeCell::new(5u64);
        // SAFETY: single-threaded test; no concurrent access exists.
        c.with_mut(|p| unsafe { *p += 1 });
        // SAFETY: as above.
        assert_eq!(c.with(|p| unsafe { *p }), 6);
    }

    #[test]
    fn cell_is_layout_transparent() {
        // SharedSlice-style code may rely on the std cell being free;
        // the wrapper must not add size or alignment.
        assert_eq!(std::mem::size_of::<UnsafeCell<u64>>(), std::mem::size_of::<u64>());
        assert_eq!(std::mem::align_of::<UnsafeCell<u64>>(), std::mem::align_of::<u64>());
    }

    #[test]
    fn spin_loop_hint_is_callable() {
        super::hint::spin_loop();
    }
}
