//! Single-message mailboxes and their synchronisation variants.
//!
//! Section 6.3: with combiners, a mailbox holds *at most one* message —
//! an incoming message either fills an empty mailbox or is combined with
//! the occupant. No dynamically-resizable inbox exists anywhere, which is
//! a large part of iPregel's memory story.
//!
//! Three push-combiner synchronisation strategies are provided:
//!
//! * [`MutexMailbox`] — block-waiting (Section 6.1's pthread mutex);
//! * [`SpinMailbox`] — busy-waiting on a hand-built 1-byte spinlock
//!   (Section 6.1's GNU99 spinlock, 10× lighter than the mutex);
//! * [`AtomicMailbox`] — a lock-free CAS loop over a packed 64-bit slot;
//!   an ablation extension beyond the paper quantifying what the spinlock
//!   leaves on the table.
//!
//! The pull-based combiner (Section 6.2) needs no mailbox locking at all;
//! it lives in the pull engine, not here.
//!
//! Each flavour also has an exclusive pair, [`Mailbox::deliver_mut`] and
//! [`Mailbox::take_mut`], for a caller that holds the mailbox `&mut` and so
//! meets no other thread there: the push engine's inbox reads, and every
//! delivery of a superstep the orchestrating thread runs alone. The
//! synchronisation above is paid only where two threads can meet.
//!
//! Engines keep **two** mailbox arrays and swap them every superstep:
//! vertices read superstep `s` messages from the *current* array while
//! sends for superstep `s + 1` land in the *next* array, realising BSP
//! delivery semantics without per-message buffering.

mod atomic;
mod mutex;
mod spin;

pub use atomic::{AtomicMailbox, PackMessage};
pub use mutex::MutexMailbox;
pub use spin::{SpinGuard, SpinLock, SpinMailbox};

/// A single-message, concurrently-deliverable mailbox.
pub trait Mailbox<M: Copy>: Send + Sync {
    /// A fresh, empty mailbox.
    fn empty() -> Self;

    /// Deliver `msg`, combining with any occupant via `combine`. Safe to
    /// call from many threads concurrently — this is the §6.1 hotspot.
    ///
    /// Returns whether the mailbox was empty (this was the superstep's
    /// first delivery) — the signal the selection bypass uses to enqueue
    /// the recipient exactly once without any extra synchronisation
    /// (Section 4: the sender already knows, it holds the inbox).
    fn deliver(&self, msg: M, combine: fn(&mut M, M)) -> bool;

    /// [`Mailbox::deliver`] through an exclusive borrow: no other thread
    /// can reach the mailbox, so nothing is locked, no CAS can fail and no
    /// contention is counted. Same fill-or-combine, same first-delivery
    /// signal.
    fn deliver_mut(&mut self, msg: M, combine: fn(&mut M, M)) -> bool;

    /// Remove and return the occupant. Called in the read phase, where the
    /// engine guarantees no concurrent `deliver` on the same buffer.
    fn take(&self) -> Option<M>;

    /// [`Mailbox::take`] through an exclusive borrow, unsynchronised as
    /// [`Mailbox::deliver_mut`] is.
    fn take_mut(&mut self) -> Option<M>;

    /// Cheap occupancy peek used by scan selection.
    fn has_message(&self) -> bool;

    /// Copy out the occupant without removing it. Called only at the
    /// superstep barrier (checkpointing — see [`crate::recover`]), where
    /// the engine guarantees no concurrent `deliver` or `take`.
    fn snapshot(&self) -> Option<M>;

    /// Bytes of synchronisation state per mailbox (the paper's 40-byte
    /// mutex vs 4-byte spinlock comparison); 0 for lock-free mailboxes.
    fn lock_bytes() -> usize;
}

/// Fill an empty slot with `msg` or `combine` it into the occupant;
/// whether the slot was empty.
#[inline]
fn fill_or_combine<M>(slot: &mut Option<M>, msg: M, combine: fn(&mut M, M)) -> bool {
    match slot {
        Some(old) => {
            combine(old, msg);
            false
        }
        None => {
            *slot = Some(msg);
            true
        }
    }
}

#[cfg(all(test, not(loom)))]
pub(crate) mod conformance {
    //! Shared conformance suite run against every mailbox implementation.

    use super::Mailbox;
    use crate::sync::atomic::{AtomicU64, Ordering};

    fn min32(old: &mut u32, new: u32) {
        if new < *old {
            *old = new;
        }
    }

    pub fn empty_then_fill<MB: Mailbox<u32>>() {
        let mb = MB::empty();
        assert!(!mb.has_message());
        assert_eq!(mb.snapshot(), None);
        assert_eq!(mb.take(), None);
        assert!(mb.deliver(5, min32));
        assert!(mb.has_message());
        assert_eq!(mb.snapshot(), Some(5));
        assert!(mb.has_message(), "snapshot must not consume the occupant");
        assert_eq!(mb.take(), Some(5));
        assert!(!mb.has_message());
        assert_eq!(mb.snapshot(), None);
        assert_eq!(mb.take(), None);
    }

    pub fn combines_on_occupied<MB: Mailbox<u32>>() {
        let mb = MB::empty();
        assert!(mb.deliver(5, min32));
        assert!(!mb.deliver(9, min32));
        assert!(!mb.deliver(2, min32));
        assert_eq!(mb.take(), Some(2));
    }

    pub fn exclusive_fill_combine_take<MB: Mailbox<u32>>() {
        let mut mb = MB::empty();
        assert_eq!(mb.take_mut(), None, "an empty mailbox yields nothing");
        assert!(!mb.has_message());
        assert!(mb.deliver_mut(5, min32), "the first delivery fills");
        assert!(mb.has_message());
        assert_eq!(mb.snapshot(), Some(5));
        assert!(!mb.deliver_mut(9, min32));
        assert!(!mb.deliver_mut(2, min32));
        assert_eq!(mb.take_mut(), Some(2));
        assert!(!mb.has_message());
        assert_eq!(mb.snapshot(), None);
        assert_eq!(mb.take_mut(), None, "take_mut empties the mailbox");
        assert!(mb.deliver_mut(7, min32), "an emptied mailbox fills afresh");
        assert_eq!(mb.take_mut(), Some(7));
    }

    pub fn shared_and_exclusive_paths_interleave<MB: Mailbox<u32>>() {
        let mut mb = MB::empty();
        // Shared fill, exclusive combine, shared take.
        assert!(mb.deliver(8, min32));
        assert!(!mb.deliver_mut(3, min32));
        assert_eq!(mb.take(), Some(3));
        // Exclusive fill, shared combine, exclusive take.
        assert!(mb.deliver_mut(6, min32));
        assert!(!mb.deliver(4, min32));
        assert!(mb.has_message());
        assert_eq!(mb.take_mut(), Some(4));
        // Emptied by one path, each path sees the empty mailbox.
        assert_eq!(mb.take(), None);
        assert!(mb.deliver(1, min32));
        assert_eq!(mb.take_mut(), Some(1));
        assert_eq!(mb.take(), None);
        assert!(mb.deliver_mut(2, min32));
        assert_eq!(mb.take(), Some(2));
        assert_eq!(mb.take_mut(), None);
    }

    pub fn exclusive_reads_what_threads_delivered<MB: Mailbox<u32>>() {
        // A forked superstep's deliveries, then the exclusive read and
        // exclusive deliveries of the superstep after the join.
        fn add(old: &mut u32, new: u32) {
            *old += new;
        }
        let (threads, iters) = if cfg!(miri) { (2u32, 50u32) } else { (4, 1000) };
        let mut mb = MB::empty();
        for round in 1..=3u32 {
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let mb = &mb;
                    s.spawn(move || {
                        for _ in 0..iters {
                            mb.deliver(round, add);
                        }
                    });
                }
            });
            assert!(!mb.deliver_mut(round, add), "round {round}: the threads filled it");
            assert_eq!(mb.take_mut(), Some(round * (threads * iters + 1)), "round {round}");
            assert!(!mb.has_message());
        }
    }

    pub fn concurrent_delivery_is_linearizable<MB: Mailbox<u32>>() {
        // 8 threads × 1000 deliveries of a min-combined stream; the final
        // occupant must be the global minimum, and exactly one delivery
        // may observe the empty mailbox (the bypass-enqueue signal).
        // (Scaled down under Miri, which executes threads interpretively.)
        let (threads, iters) = if cfg!(miri) { (2u32, 50u32) } else { (8, 1000) };
        let mb = MB::empty();
        let min_seen = AtomicU64::new(u64::MAX);
        let firsts = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let mb = &mb;
                let min_seen = &min_seen;
                let firsts = &firsts;
                s.spawn(move || {
                    // Simple deterministic per-thread pseudo-random stream.
                    let mut x = 0x9e3779b9u32 ^ t.wrapping_mul(0x85eb_ca6b);
                    for _ in 0..iters {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        let v = x | 1; // avoid 0 to keep u64::MAX sentinel free
                        // ordering(Relaxed): test tally; thread join synchronizes
                        min_seen.fetch_min(u64::from(v), Ordering::Relaxed);
                        if mb.deliver(v, min32) {
                            // ordering(Relaxed): test tally; thread join synchronizes
                            firsts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // ordering(Relaxed): read after all threads joined
        assert_eq!(mb.take(), Some(min_seen.load(Ordering::Relaxed) as u32));
        // ordering(Relaxed): read after all threads joined
        assert_eq!(firsts.load(Ordering::Relaxed), 1, "exactly one first delivery");
    }

    pub fn concurrent_sum_loses_nothing<MB: Mailbox<u32>>() {
        // Sum-combining from many threads: total must be exact — this
        // catches lost updates under racy delivery.
        fn add(old: &mut u32, new: u32) {
            *old += new;
        }
        let (threads, iters) = if cfg!(miri) { (2u32, 50u32) } else { (8, 10_000) };
        let mb = MB::empty();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let mb = &mb;
                s.spawn(move || {
                    for _ in 0..iters {
                        mb.deliver(1, add);
                    }
                });
            }
        });
        assert_eq!(mb.take(), Some(threads * iters));
    }
}
