//! Lock-free mailbox (a measurement beyond the paper, not an engine
//! version).
//!
//! The paper stops at the 4-byte spinlock; for message types that pack
//! into 64 bits the mailbox itself can be an atomic word, combining with
//! a `compare_exchange` loop. This removes the lock *and* the `Option`
//! discriminant — the mailbox is exactly 8 bytes — at the cost of
//! reserving one bit pattern as the empty sentinel and of re-running the
//! combine on CAS failure (combines must be pure).
//!
//! No engine runs it: the benchmark's mailbox probe delivers into it
//! beside the mutex and spinlock mailboxes, to measure how much of the
//! spinlock's remaining cost is synchronisation.

use crate::sync::atomic::{AtomicU64, Ordering};

use super::Mailbox;

/// Sentinel bit pattern meaning "mailbox empty".
const EMPTY: u64 = u64::MAX;

/// Messages that pack losslessly into a `u64` whose value is never
/// `u64::MAX`.
///
/// The sentinel restriction is innocuous in practice: for `u32` distances
/// the paper's `UINT_MAX` never travels (it is the *initial* value, not a
/// message), and for `f64` the pattern is a specific quiet NaN no real
/// computation produces.
pub trait PackMessage: Copy {
    /// Encode into a non-sentinel `u64`.
    fn pack(self) -> u64;
    /// Decode; inverse of [`PackMessage::pack`].
    fn unpack(bits: u64) -> Self;
}

impl PackMessage for u32 {
    fn pack(self) -> u64 {
        u64::from(self)
    }
    fn unpack(bits: u64) -> Self {
        bits as u32
    }
}

impl PackMessage for f64 {
    fn pack(self) -> u64 {
        let bits = self.to_bits();
        debug_assert_ne!(bits, EMPTY, "the all-ones NaN is the empty sentinel");
        bits
    }
    fn unpack(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// A lock-free single-message mailbox: one atomic 64-bit slot.
#[derive(Debug)]
pub struct AtomicMailbox<M> {
    state: AtomicU64,
    _marker: std::marker::PhantomData<M>,
}

impl<M: PackMessage + Send + Sync> Mailbox<M> for AtomicMailbox<M> {
    fn empty() -> Self {
        AtomicMailbox { state: AtomicU64::new(EMPTY), _marker: std::marker::PhantomData }
    }

    fn deliver(&self, msg: M, combine: fn(&mut M, M)) -> bool {
        // ordering(Relaxed): optimistic first read; the CAS below
        // validates it and supplies the synchronization
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            let proposed = if cur == EMPTY {
                msg.pack()
            } else {
                let mut old = M::unpack(cur);
                combine(&mut old, msg);
                old.pack()
            };
            // ordering(AcqRel): a successful install must be ordered
            // against the combine read above and publish the message for
            // the reader; ordering(Acquire): on failure, so the retry
            // combines against the freshly observed occupant
            match self.state.compare_exchange_weak(cur, proposed, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return cur == EMPTY,
                Err(now) => cur = now,
            }
        }
    }

    fn deliver_mut(&mut self, msg: M, combine: fn(&mut M, M)) -> bool {
        // ordering(Relaxed): exclusive borrow, so no store can race this
        // read-modify-write; the fork or join that hands the mailbox to
        // its next user publishes it
        let cur = self.state.load(Ordering::Relaxed);
        let first = cur == EMPTY;
        let next = if first {
            msg.pack()
        } else {
            let mut old = M::unpack(cur);
            combine(&mut old, msg);
            old.pack()
        };
        // ordering(Relaxed): as for the load above
        self.state.store(next, Ordering::Relaxed);
        first
    }

    fn take(&self) -> Option<M> {
        // ordering(Acquire): pairs with the AcqRel install in `deliver`
        // so the packed message's provenance is visible to the reader
        let bits = self.state.swap(EMPTY, Ordering::Acquire);
        (bits != EMPTY).then(|| M::unpack(bits))
    }

    fn take_mut(&mut self) -> Option<M> {
        // ordering(Relaxed): exclusive borrow, as in `deliver_mut`
        let bits = self.state.load(Ordering::Relaxed);
        if bits == EMPTY {
            return None;
        }
        // ordering(Relaxed): as for the load above
        self.state.store(EMPTY, Ordering::Relaxed);
        Some(M::unpack(bits))
    }

    fn has_message(&self) -> bool {
        // ordering(Relaxed): advisory peek; the barrier between deliver
        // and selection publishes the slot
        self.state.load(Ordering::Relaxed) != EMPTY
    }

    fn snapshot(&self) -> Option<M> {
        // ordering(Acquire): pairs with the AcqRel install in `deliver`;
        // called at the barrier where deliveries have quiesced
        let bits = self.state.load(Ordering::Acquire);
        (bits != EMPTY).then(|| M::unpack(bits))
    }

    fn lock_bytes() -> usize {
        0 // lock-free: the §6 data-race-protection overhead vanishes
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::super::conformance;
    use super::*;

    #[test]
    fn pack_round_trips() {
        assert_eq!(u32::unpack(7u32.pack()), 7);
        assert_eq!(f64::unpack(2.5f64.pack()), 2.5);
    }

    #[test]
    fn mailbox_is_exactly_eight_bytes() {
        assert_eq!(std::mem::size_of::<AtomicMailbox<u32>>(), 8);
        assert_eq!(<AtomicMailbox<u32> as Mailbox<u32>>::lock_bytes(), 0);
    }

    #[test]
    fn empty_then_fill() {
        conformance::empty_then_fill::<AtomicMailbox<u32>>();
    }

    #[test]
    fn combines_on_occupied() {
        conformance::combines_on_occupied::<AtomicMailbox<u32>>();
    }

    #[test]
    fn concurrent_delivery_is_linearizable() {
        conformance::concurrent_delivery_is_linearizable::<AtomicMailbox<u32>>();
    }

    #[test]
    fn concurrent_sum_loses_nothing() {
        conformance::concurrent_sum_loses_nothing::<AtomicMailbox<u32>>();
    }

    #[test]
    fn exclusive_fill_combine_take() {
        conformance::exclusive_fill_combine_take::<AtomicMailbox<u32>>();
    }

    #[test]
    fn shared_and_exclusive_paths_interleave() {
        conformance::shared_and_exclusive_paths_interleave::<AtomicMailbox<u32>>();
    }

    #[test]
    fn exclusive_reads_what_threads_delivered() {
        conformance::exclusive_reads_what_threads_delivered::<AtomicMailbox<u32>>();
    }

    #[test]
    fn f64_sum_delivery_is_exact_for_integers() {
        // f64 CAS-combining must not lose deliveries (values chosen so
        // addition is exact).
        fn add(old: &mut f64, new: f64) {
            *old += new;
        }
        let (threads, iters) = if cfg!(miri) { (2u32, 50u32) } else { (4, 10_000) };
        let mb = <AtomicMailbox<f64> as Mailbox<f64>>::empty();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let mb = &mb;
                s.spawn(move || {
                    for _ in 0..iters {
                        mb.deliver(1.0, add);
                    }
                });
            }
        });
        assert_eq!(mb.take(), Some(f64::from(threads * iters)));
    }
}
