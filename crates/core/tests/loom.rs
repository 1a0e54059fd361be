//! Loom model checking of the concurrency core.
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p ipregel --test loom --release
//! ```
//!
//! Under `--cfg loom` the `ipregel::sync` shim swaps std's atomics,
//! mutexes, and cells for loom's instrumented doubles, and each
//! `loom::model` block below exhaustively explores the thread
//! interleavings (and the release/acquire visibility choices) of one
//! protocol the engines rely on:
//!
//! 1. spinlock mutual exclusion + release/acquire visibility;
//! 2. –4. the mailbox empty→occupied transition for each implementation
//!    — exactly one deliverer observes "was empty", which is what makes
//!    the §4 selection bypass enqueue exactly once;
//! 5. lock-free combining never loses a delivery (CAS retry loop).
//!
//! The bypass worklist has no protocol to model: each chunk appends to a
//! list of its own, handed back to the orchestrator by the fork-join.
//!
//! The pool keeps its queue and idle count under one mutex, so it has
//! no protocol of its own left to model; its no-lost-wakeup battery is
//! `crates/par/tests/pool_contract.rs`.
//!
//! Keep each model at 2–3 threads: loom's state space is exponential in
//! preemption points, and these protocols show all their behaviours
//! with two contenders.
#![cfg(loom)]

use ipregel::mailbox::{AtomicMailbox, Mailbox, MutexMailbox, SpinMailbox};
use ipregel::sync::cell::UnsafeCell;
use ipregel::SpinLock;
use loom::sync::Arc;
use loom::thread;

fn min32(old: &mut u32, new: u32) {
    if new < *old {
        *old = new;
    }
}

fn add32(old: &mut u32, new: u32) {
    *old = old.wrapping_add(new);
}

/// Model 1: two threads increment non-atomic shared state under the
/// spinlock. Loom verifies both mutual exclusion (the tracked cell
/// never sees concurrent access) and that the release store in the
/// guard's drop publishes the first increment to the second thread.
#[test]
fn spinlock_mutual_exclusion_and_visibility() {
    loom::model(|| {
        let shared = Arc::new((SpinLock::new(), UnsafeCell::new(0u32)));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let sh = Arc::clone(&shared);
                thread::spawn(move || {
                    let _guard = sh.0.lock();
                    // SAFETY: the spinlock is held; loom fails the model
                    // if any interleaving lets two threads get here at
                    // once.
                    sh.1.with_mut(|p| unsafe { *p += 1 });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: both threads joined; this is the only live access.
        let total = shared.1.with(|p| unsafe { *p });
        assert_eq!(total, 2, "an increment was lost: mutual exclusion or visibility broken");
    });
}

/// Models 2–4: the empty→occupied transition. Two concurrent deliveries
/// into one mailbox — exactly one may observe the empty mailbox (the
/// selection bypass's enqueue-once signal), and the survivor value must
/// be the combine of both messages, whatever the interleaving.
fn first_delivery_is_exactly_once<MB>()
where
    MB: Mailbox<u32> + 'static,
{
    loom::model(|| {
        let mb = Arc::new(MB::empty());
        let handles: Vec<_> = [3u32, 5]
            .into_iter()
            .map(|m| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || u32::from(mb.deliver(m, min32)))
            })
            .collect();
        let firsts: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(firsts, 1, "the empty→occupied transition must be observed exactly once");
        assert!(mb.has_message());
        assert_eq!(mb.take(), Some(3), "min-combine must survive both deliveries");
        assert_eq!(mb.take(), None);
    });
}

#[test]
fn mutex_mailbox_first_delivery_is_exactly_once() {
    first_delivery_is_exactly_once::<MutexMailbox<u32>>();
}

#[test]
fn spin_mailbox_first_delivery_is_exactly_once() {
    first_delivery_is_exactly_once::<SpinMailbox<u32>>();
}

#[test]
fn atomic_mailbox_first_delivery_is_exactly_once() {
    first_delivery_is_exactly_once::<AtomicMailbox<u32>>();
}

/// Model 5: the lock-free CAS loop must never lose a delivery — a
/// failed `compare_exchange_weak` re-reads and re-combines. Sum
/// combining makes a lost update visible as a wrong total.
#[test]
fn atomic_mailbox_combining_loses_nothing() {
    loom::model(|| {
        let mb = Arc::new(<AtomicMailbox<u32> as Mailbox<u32>>::empty());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    mb.deliver(1, add32);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mb.take(), Some(2), "a CAS-combined delivery was lost");
    });
}
