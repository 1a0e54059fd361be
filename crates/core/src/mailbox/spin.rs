//! Busy-waiting push combiner (Section 6.1).
//!
//! Combiner critical sections are tiny — typically one compare-and-replace
//! — so the paper argues for busy-waiting: no park/unpark overhead, and a
//! lock that is a single byte of state instead of a queue-bearing mutex
//! (4 bytes vs 40 in the paper's gcc; one lock per vertex makes that a
//! 90% cut of the data-race-protection footprint).
//!
//! The spinlock follows the construction in *Rust Atomics and Locks*
//! (ch. 4): `compare_exchange_weak` acquire to lock, a `spin_loop` hint
//! while contended, release store to unlock. Ownership is enforced by a
//! guard: [`SpinLock::lock`] returns a [`SpinGuard`] whose drop performs
//! the release, so a non-owning thread cannot unlock by accident — the
//! raw [`SpinLock::unlock`] escape hatch is `unsafe`.
//!
//! All synchronisation state comes from [`crate::sync`], so the loom
//! suite (`tests/loom.rs`) model-checks mutual exclusion and
//! release/acquire visibility over every interleaving.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::cell::UnsafeCell;
use crate::sync::hint::spin_loop;
use crate::sync::lockorder::{self, classes, Held, LockClass};

use super::{fill_or_combine, Mailbox};

/// A minimal test-and-set spinlock: the busy-waiting synchronisation of
/// Section 6.1.
///
/// Under the `lock-order` feature the lock carries its hierarchy class
/// (default [`classes::MAILBOX_SPIN`]) and every acquisition is checked
/// against the calling thread's held-lock stack; with the feature off
/// the class field vanishes and the lock is the §6.1 single byte again.
#[derive(Debug)]
pub struct SpinLock {
    locked: AtomicBool,
    #[cfg(feature = "lock-order")]
    class: &'static LockClass,
}

impl Default for SpinLock {
    fn default() -> Self {
        Self::new()
    }
}

impl SpinLock {
    /// A new, unlocked lock of the default mailbox class.
    #[cfg(not(loom))]
    pub const fn new() -> Self {
        Self::with_class(&classes::MAILBOX_SPIN)
    }

    /// A new, unlocked lock (loom's atomics are not const-constructible).
    #[cfg(loom)]
    pub fn new() -> Self {
        Self::with_class(&classes::MAILBOX_SPIN)
    }

    /// A new, unlocked lock of an explicit hierarchy class (ignored —
    /// and free — unless the `lock-order` feature is on).
    #[cfg(not(loom))]
    pub const fn with_class(class: &'static LockClass) -> Self {
        #[cfg(not(feature = "lock-order"))]
        let _ = class;
        SpinLock {
            locked: AtomicBool::new(false),
            #[cfg(feature = "lock-order")]
            class,
        }
    }

    /// A new, unlocked lock of an explicit hierarchy class (loom's
    /// atomics are not const-constructible).
    #[cfg(loom)]
    pub fn with_class(class: &'static LockClass) -> Self {
        #[cfg(not(feature = "lock-order"))]
        let _ = class;
        SpinLock {
            locked: AtomicBool::new(false),
            #[cfg(feature = "lock-order")]
            class,
        }
    }

    /// The detector token for an acquisition of this lock. A no-op
    /// returning a zero-sized token unless `lock-order` is enabled.
    #[inline(always)]
    fn acquire_token(&self, blocking: bool) -> Held {
        #[cfg(feature = "lock-order")]
        {
            if blocking {
                lockorder::acquire(self.class)
            } else {
                lockorder::acquire_try(self.class)
            }
        }
        #[cfg(not(feature = "lock-order"))]
        {
            let _ = blocking;
            lockorder::acquire(&classes::MAILBOX_SPIN)
        }
    }

    /// Busy-wait until the lock is acquired; the returned guard releases
    /// it on drop.
    #[inline]
    pub fn lock(&self) -> SpinGuard<'_> {
        // Hierarchy check happens *before* the busy-wait, so an
        // inversion panics deterministically instead of spinning forever.
        let held = self.acquire_token(true);
        // Spins are counted on this path only, which runs under
        // contention; an uncontended lock adds zero.
        let mut spins = 0u64;
        while self
            .locked
            // ordering(Acquire): lock acquisition; pairs with the
            // Release store in `unlock` so the slot writes of the
            // previous holder are visible. ordering(Relaxed): on the
            // failure load — a failed CAS publishes nothing
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Spin on a plain load first: cheaper than hammering CAS on a
            // contended line (test-and-test-and-set). Under loom the hint
            // yields to the model scheduler so the owner can progress.
            // ordering(Relaxed): advisory contention peek; the Acquire
            // CAS above is what synchronizes
            while self.locked.load(Ordering::Relaxed) {
                spins += 1;
                spin_loop();
            }
        }
        crate::trace::contention::note_spin_iterations(spins);
        crate::trace::contention::note_lock_acquisition();
        SpinGuard { lock: self, _held: held }
    }

    /// Try to acquire without waiting; `Some(guard)` on success.
    #[inline]
    pub fn try_lock(&self) -> Option<SpinGuard<'_>> {
        // ordering(Acquire): lock acquisition, pairs with `unlock`'s
        // Release store; ordering(Relaxed): on failure, as nothing was
        // acquired
        if self.locked.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok() {
            Some(SpinGuard { lock: self, _held: self.acquire_token(false) })
        } else {
            None
        }
    }

    /// Release the lock without a guard.
    ///
    /// # Safety
    /// The calling thread must currently own the lock (obtained via a
    /// guard it has [`std::mem::forget`]ten, or through FFI-style manual
    /// management). Unlocking a lock someone else holds destroys mutual
    /// exclusion. Prefer dropping the [`SpinGuard`].
    #[inline]
    pub unsafe fn unlock(&self) {
        // ordering(Release): lock release; pairs with the Acquire CAS in
        // `lock`/`try_lock`, publishing the critical section's writes
        self.locked.store(false, Ordering::Release);
    }
}

/// Ownership token for a held [`SpinLock`]; releases the lock on drop.
///
/// Carries the lock-order [`Held`] token (zero-sized with the feature
/// off), so the detector's recorded hold window matches the real one.
/// `mem::forget`ting a guard leaks the token along with the lock — raw
/// [`SpinLock::unlock`] management is invisible to the detector.
#[derive(Debug)]
#[must_use = "dropping the guard is what releases the lock"]
pub struct SpinGuard<'a> {
    lock: &'a SpinLock,
    _held: Held,
}

impl Drop for SpinGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: a guard exists only while its thread owns the lock,
        // and drop runs at most once — this is the owning release.
        unsafe { self.lock.unlock() };
    }
}

/// A single-message mailbox protected by a [`SpinLock`].
#[derive(Debug)]
pub struct SpinMailbox<M> {
    lock: SpinLock,
    has: AtomicBool,
    slot: UnsafeCell<Option<M>>,
}

// SAFETY: shared access to `slot` happens only while `lock` is held
// (exclusive access needs `&mut self`); M: Send suffices.
unsafe impl<M: Copy + Send> Sync for SpinMailbox<M> {}
// SAFETY: moving the mailbox moves the M by value; M: Send suffices.
unsafe impl<M: Copy + Send> Send for SpinMailbox<M> {}

impl<M: Copy + Send> Mailbox<M> for SpinMailbox<M> {
    fn empty() -> Self {
        SpinMailbox { lock: SpinLock::new(), has: AtomicBool::new(false), slot: UnsafeCell::new(None) }
    }

    fn deliver(&self, msg: M, combine: fn(&mut M, M)) -> bool {
        // lock-order(mailbox.spin)
        let _guard = self.lock.lock();
        // SAFETY: the spinlock guard is held for the whole closure; every
        // other shared slot access also runs under the lock.
        let first = self.slot.with_mut(|p| fill_or_combine(unsafe { &mut *p }, msg, combine));
        if first {
            // ordering(Relaxed): advisory occupancy shadow, written under
            // the spinlock; scan selection reads it only after the
            // superstep barrier
            self.has.store(true, Ordering::Relaxed);
        }
        first
    }

    fn deliver_mut(&mut self, msg: M, combine: fn(&mut M, M)) -> bool {
        let first = fill_or_combine(self.slot.get_mut(), msg, combine);
        if first {
            // ordering(Relaxed): advisory occupancy shadow under an
            // exclusive borrow; the fork or join that hands the mailbox
            // to its next user publishes it
            self.has.store(true, Ordering::Relaxed);
        }
        first
    }

    fn take(&self) -> Option<M> {
        // lock-order(mailbox.spin)
        let _guard = self.lock.lock();
        self.slot.with_mut(|p| {
            // SAFETY: lock held, as in `deliver`.
            let m = unsafe { (*p).take() };
            if m.is_some() {
                // ordering(Relaxed): advisory occupancy shadow, written
                // in the exclusive read phase
                self.has.store(false, Ordering::Relaxed);
            }
            m
        })
    }

    fn take_mut(&mut self) -> Option<M> {
        let m = self.slot.get_mut().take();
        if m.is_some() {
            // ordering(Relaxed): advisory occupancy shadow under an
            // exclusive borrow, as in `deliver_mut`
            self.has.store(false, Ordering::Relaxed);
        }
        m
    }

    fn has_message(&self) -> bool {
        // ordering(Relaxed): advisory peek; the barrier between deliver
        // and selection publishes the flag
        self.has.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> Option<M> {
        // lock-order(mailbox.spin)
        let _guard = self.lock.lock();
        // SAFETY: lock held, as in `deliver`.
        self.slot.with_mut(|p| unsafe { *p })
    }

    fn lock_bytes() -> usize {
        // The synchronisation state proper is the one atomic byte; the
        // `lock-order` detector's class pointer (when armed) is
        // diagnostic bookkeeping, not part of the §6 memory story.
        std::mem::size_of::<crate::sync::atomic::AtomicU8>()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::super::conformance;
    use super::*;

    #[test]
    fn spinlock_excludes() {
        // Threads increment a shared counter under the lock; no lost
        // updates means mutual exclusion held. (The loom suite proves
        // this over all interleavings; this is the full-speed version.)
        let (threads, iters) = if cfg!(miri) { (2u32, 100u64) } else { (4, 50_000) };
        let lock = SpinLock::new();
        let counter = UnsafeCell::new(0u64);
        struct Shared<'a>(&'a SpinLock, &'a UnsafeCell<u64>);
        // SAFETY: the cell is only dereferenced while the lock is held.
        unsafe impl Sync for Shared<'_> {}
        let shared = Shared(&lock, &counter);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let sh = &shared;
                s.spawn(move || {
                    for _ in 0..iters {
                        // lock-order(mailbox.spin)
                        let _guard = sh.0.lock();
                        // SAFETY: guard held for the increment.
                        sh.1.with_mut(|p| unsafe { *p += 1 });
                    }
                });
            }
        });
        // SAFETY: all threads joined; no concurrent access remains.
        let total = counter.with(|p| unsafe { *p });
        assert_eq!(total, u64::from(threads) * iters);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let lock = SpinLock::new();
        // lock-order(mailbox.spin)
        let g = lock.try_lock();
        assert!(g.is_some());
        // lock-order(mailbox.spin)
        assert!(lock.try_lock().is_none());
        drop(g);
        // lock-order(mailbox.spin)
        let g2 = lock.try_lock();
        assert!(g2.is_some());
        drop(g2);
    }

    #[test]
    fn guard_drop_releases() {
        let lock = SpinLock::new();
        {
            // lock-order(mailbox.spin)
            let _guard = lock.lock();
            // lock-order(mailbox.spin)
            assert!(lock.try_lock().is_none());
        }
        // Guard dropped → lock free again.
        // lock-order(mailbox.spin)
        assert!(lock.try_lock().is_some());
    }

    // `mem::forget`ting the guard would leak the detector's held-lock
    // token (the raw-unlock escape hatch is documented as invisible to
    // the detector), so this test only runs disarmed.
    #[cfg(not(feature = "lock-order"))]
    #[test]
    fn raw_unlock_is_available_to_owners() {
        let lock = SpinLock::new();
        // lock-order(mailbox.spin)
        let guard = lock.lock();
        std::mem::forget(guard);
        // SAFETY: this thread owns the lock (guard forgotten above).
        unsafe { lock.unlock() };
        // lock-order(mailbox.spin)
        assert!(lock.try_lock().is_some());
    }

    // The class pointer the `lock-order` feature adds widens the lock;
    // the byte-size claim is about the shipping (disarmed) layout.
    #[cfg(not(feature = "lock-order"))]
    #[test]
    fn spinlock_is_one_byte() {
        // The §6.1 size argument: busy-waiting locks are fundamentally
        // lighter. Ours is a single byte (gcc's spinlock is 4).
        assert_eq!(std::mem::size_of::<SpinLock>(), 1);
        assert!(<SpinMailbox<u32> as Mailbox<u32>>::lock_bytes() < MutexLockBytes::get());
    }

    #[cfg(not(feature = "lock-order"))]
    struct MutexLockBytes;
    #[cfg(not(feature = "lock-order"))]
    impl MutexLockBytes {
        fn get() -> usize {
            std::mem::size_of::<crate::sync::Mutex<()>>()
        }
    }

    #[test]
    fn empty_then_fill() {
        conformance::empty_then_fill::<SpinMailbox<u32>>();
    }

    #[test]
    fn combines_on_occupied() {
        conformance::combines_on_occupied::<SpinMailbox<u32>>();
    }

    #[test]
    fn concurrent_delivery_is_linearizable() {
        conformance::concurrent_delivery_is_linearizable::<SpinMailbox<u32>>();
    }

    #[test]
    fn concurrent_sum_loses_nothing() {
        conformance::concurrent_sum_loses_nothing::<SpinMailbox<u32>>();
    }

    #[test]
    fn exclusive_fill_combine_take() {
        conformance::exclusive_fill_combine_take::<SpinMailbox<u32>>();
    }

    #[test]
    fn shared_and_exclusive_paths_interleave() {
        conformance::shared_and_exclusive_paths_interleave::<SpinMailbox<u32>>();
    }

    #[test]
    fn exclusive_reads_what_threads_delivered() {
        conformance::exclusive_reads_what_threads_delivered::<SpinMailbox<u32>>();
    }
}
