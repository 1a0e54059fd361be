//! Block-waiting push combiner (Section 6.1).
//!
//! The paper's baseline synchronisation: a heavyweight OS-backed lock per
//! inbox. Threads that lose the race are put to sleep and queued — good
//! CPU citizenship, but the lock structure is an order of magnitude
//! heavier than a spinlock (40 bytes vs 4 in the paper's gcc measurement)
//! and pays park/unpark latency on a critical section that is typically a
//! single compare-and-replace.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::lockorder::{classes, OrderedMutex};

use super::{fill_or_combine, Mailbox};

/// A single-message mailbox protected by a blocking mutex (the shim's
/// `Mutex` behind the lock-order wrapper).
///
/// Occupancy is shadowed in a relaxed [`AtomicBool`] so scan selection can
/// peek without acquiring the lock; the flag is only ever written while
/// the lock is held (or during the exclusive read phase), so it can never
/// claim a message that isn't there once deliveries have quiesced.
#[derive(Debug)]
pub struct MutexMailbox<M> {
    slot: OrderedMutex<Option<M>>,
    has: AtomicBool,
}

impl<M: Copy + Send> Mailbox<M> for MutexMailbox<M> {
    fn empty() -> Self {
        MutexMailbox {
            slot: OrderedMutex::new(&classes::MAILBOX_SLOT, None),
            has: AtomicBool::new(false),
        }
    }

    fn deliver(&self, msg: M, combine: fn(&mut M, M)) -> bool {
        // lock-order(mailbox.slot)
        let mut guard = self.slot.lock().expect("mailbox lock poisoned");
        crate::trace::contention::note_lock_acquisition();
        let first = fill_or_combine(&mut guard, msg, combine);
        if first {
            // ordering(Relaxed): advisory occupancy shadow; written
            // under the slot lock, read by scan selection only after
            // deliveries quiesce at the superstep barrier
            self.has.store(true, Ordering::Relaxed);
        }
        first
    }

    fn deliver_mut(&mut self, msg: M, combine: fn(&mut M, M)) -> bool {
        let first = self.slot.with_mut(|slot| fill_or_combine(slot, msg, combine));
        if first {
            // ordering(Relaxed): advisory occupancy shadow under an
            // exclusive borrow; the fork or join that hands the mailbox
            // to its next user publishes it
            self.has.store(true, Ordering::Relaxed);
        }
        first
    }

    fn take(&self) -> Option<M> {
        // The read phase has no concurrent writers, but taking the lock
        // keeps this correct under any interleaving.
        // lock-order(mailbox.slot)
        let mut guard = self.slot.lock().expect("mailbox lock poisoned");
        let m = guard.take();
        if m.is_some() {
            // ordering(Relaxed): advisory occupancy shadow, written in
            // the exclusive read phase
            self.has.store(false, Ordering::Relaxed);
        }
        m
    }

    fn take_mut(&mut self) -> Option<M> {
        let m = self.slot.with_mut(Option::take);
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
        // lock-order(mailbox.slot)
        *self.slot.lock().expect("mailbox lock poisoned")
    }

    fn lock_bytes() -> usize {
        std::mem::size_of::<crate::sync::Mutex<()>>()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::super::conformance;
    use super::*;

    #[test]
    fn empty_then_fill() {
        conformance::empty_then_fill::<MutexMailbox<u32>>();
    }

    #[test]
    fn combines_on_occupied() {
        conformance::combines_on_occupied::<MutexMailbox<u32>>();
    }

    #[test]
    fn concurrent_delivery_is_linearizable() {
        conformance::concurrent_delivery_is_linearizable::<MutexMailbox<u32>>();
    }

    #[test]
    fn concurrent_sum_loses_nothing() {
        conformance::concurrent_sum_loses_nothing::<MutexMailbox<u32>>();
    }

    #[test]
    fn exclusive_fill_combine_take() {
        conformance::exclusive_fill_combine_take::<MutexMailbox<u32>>();
    }

    #[test]
    fn shared_and_exclusive_paths_interleave() {
        conformance::shared_and_exclusive_paths_interleave::<MutexMailbox<u32>>();
    }

    #[test]
    fn exclusive_reads_what_threads_delivered() {
        conformance::exclusive_reads_what_threads_delivered::<MutexMailbox<u32>>();
    }

    #[test]
    fn reports_nonzero_lock_bytes() {
        assert!(<MutexMailbox<u32> as Mailbox<u32>>::lock_bytes() > 0);
    }
}
